"""Text formats and instance generators."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesep import Graph, formats, has_kt_minor, max_degree, validate_decomposition
from edgesep.errors import FormatError, ParameterError
from edgesep.formats import (MAX_VERTICES_PER_CHAR, emit_decomposition, emit_graph,
                             graph_digest, parse_decomposition, parse_graph, parse_weights)
from edgesep.generators import (FAMILIES, complete, cycle, generate, grid, outerplanar,
                                path, random_tree, star, toroidal_grid)
from edgesep.treedecomp import TreeDecomposition


class TestGraphFormat:
    def test_parse_k2(self):
        g = parse_graph("p tw 2 1\n1 2\n")
        assert g.n == 2 and g.edges == ((0, 1),)

    def test_round_trip_canonicalizes(self):
        text = "c a comment\np tw 4 3\n3 1\n2 1\n4 3\n"
        g = parse_graph(text)
        assert emit_graph(g) == "p tw 4 3\n1 2\n1 3\n3 4\n"
        assert parse_graph(emit_graph(g)) == g

    def test_duplicate_edge_rejected(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_graph("p tw 3 2\n1 2\n2 1\n")

    def test_malformed_header(self):
        with pytest.raises(FormatError, match="header"):
            parse_graph("p cep 3 2\n1 2\n")

    def test_out_of_range(self):
        with pytest.raises(FormatError, match="range"):
            parse_graph("p tw 2 1\n1 5\n")

    def test_count_mismatch(self):
        with pytest.raises(FormatError, match="announced"):
            parse_graph("p tw 3 2\n1 2\n")

    def test_a_header_just_inside_the_vertex_cap_parses(self):
        # the cap counts the header and edge lines, each stripped and with one
        # line break, so trailing blanks, comment and blank lines cannot raise it
        head = "p tw 176 0\n"
        assert len(head) * MAX_VERTICES_PER_CHAR == 176
        for text in (head, head.replace("\n", "  \r\n"), "c " + "x" * 640 + "\n\n" + head):
            assert parse_graph(text).n == 176
            with pytest.raises(FormatError, match="177 vertices"):
                parse_graph(text.replace("176", "177"))

    def test_digest_is_stable(self):
        assert graph_digest(grid(2, 2)) == graph_digest(grid(2, 2))


class TestDecompositionFormat:
    def test_single_bag(self):
        text = emit_decomposition(TreeDecomposition(bags=((0, 1, 2),), tree_edges=()), 3)
        assert text == "s td 1 3 3\nb 1 1 2 3\n"

    def test_round_trip(self):
        d = TreeDecomposition(bags=((0, 1), (1, 2)), tree_edges=((0, 1),))
        text = emit_decomposition(d, 3)
        parsed, n = parse_decomposition(text)
        assert n == 3
        assert parsed.bags == d.bags and parsed.tree_edges == d.tree_edges
        ok, why = validate_decomposition(Graph(3, [(0, 1), (1, 2)]), parsed)
        assert ok, why

    def test_empty(self):
        assert emit_decomposition(TreeDecomposition((), ()), 0) == "s td 0 0 0\n"
        parsed, n = parse_decomposition("s td 0 0 0\n")
        assert parsed.n_nodes == 0 and n == 0

    def test_bag_count_is_not_allocated_from_the_header(self):
        # the check compares counts and an id range; building range(10^18)
        # would exhaust the 256 MB of address space the child gives itself
        script = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))\n"
                  "from edgesep.errors import FormatError\n"
                  "from edgesep.formats import parse_decomposition\n"
                  "try:\n"
                  "    parse_decomposition('s td 1000000000000000000 1 1\\n')\n"
                  "except FormatError as exc:\n"
                  "    print(exc)\n")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        out = subprocess.run([sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60)
        assert out.stdout.strip() == "bag ids do not cover 1..#bags", out.stderr

    @pytest.mark.parametrize("text", ["s td 2 1 1\nb 1 1\nb 3 1\n", "s td -1 0 0\n"],
                             ids=["id-past-the-count", "negative-count"])
    def test_bag_ids_must_cover_the_count(self, text):
        with pytest.raises(FormatError, match="bag ids do not cover"):
            parse_decomposition(text)

    def test_missing_solution_line(self):
        with pytest.raises(FormatError, match="solution"):
            parse_decomposition("b 1 1 2\n")


# each defect after a comment and a blank line, so the line number counts them
PAD = "c note\n\n"


class TestDefectTexts:
    """Every FormatError names its defect, and its line, in these words."""

    @pytest.mark.parametrize("text, error", [
        (PAD + "s td 1 1 1\ns td 1 1 1\n", "line 4: duplicate solution line"),
        (PAD + "s td 1 1\n", "line 3: malformed solution line"),
        (PAD + "s tw 1 1 1\n", "line 3: malformed solution line"),
        (PAD + "s td 1 x 1\n", "line 3: non-integer solution fields"),
        (PAD + "b 1 1\n", "line 3: content before the solution line"),
        (PAD + "s td 1 1 1\nb\n", "line 4: malformed bag line"),
        (PAD + "s td 1 1 1\nb x 1\n", "line 4: malformed bag line"),
        (PAD + "s td 1 1 1\nb 1 1/2\n", "line 4: malformed bag line"),
        (PAD + "s td 1 1 1\nb 1 1\nb 1 1\n", "line 5: duplicate bag id"),
        (PAD + "s td 2 1 1\nb 1 1\nb 2 1\n1 2 3\n", "line 6: malformed tree edge"),
        (PAD + "s td 2 1 1\nb 1 1\nb 2 1\n1 y\n", "line 6: non-integer tree edge"),
        (PAD, "missing solution line 's td ...'"),
        (PAD + "s td 2 1 1\nb 1 1\n", "bag ids do not cover 1..#bags"),
    ])
    def test_decomposition(self, text, error):
        with pytest.raises(FormatError) as exc:
            parse_decomposition(text)
        assert str(exc.value) == error

    @pytest.mark.parametrize("text, error", [
        (PAD + "1\n", "line 3: expected '<vertex> <weight>'"),
        (PAD + "1 1/2 3\n", "line 3: expected '<vertex> <weight>'"),
        (PAD + "x 1/2\n", "line 3: non-integer vertex id"),
        (PAD + "1 1/2\n4 1/2\n", "line 4: vertex id out of range"),
        (PAD + "0 1/2\n", "line 3: vertex id out of range"),
        (PAD + "1 1/2\n1 1/2\n", "line 4: duplicate vertex id"),
        (PAD + "1 1/0\n", "line 3: malformed weight '1/0'"),
        (PAD + "1 x/2\n", "line 3: malformed weight 'x/2'"),
        (PAD + "1 1/\n", "line 3: malformed weight '1/'"),
        (PAD + "1 1/2/3\n", "line 3: malformed weight '1/2/3'"),
        (PAD + "1 0.5\n", "line 3: malformed weight '0.5'"),
    ])
    def test_weights(self, text, error):
        with pytest.raises(FormatError) as exc:
            parse_weights(text, 3)
        assert str(exc.value) == error

    @pytest.mark.parametrize("text, error", [
        (PAD + "p tw 2 0\np tw 2 0\n", "line 4: duplicate header"),
        (PAD + "p tw 2\n", "line 3: malformed header 'p tw 2'"),
        (PAD + "p tw 2 x\n", "line 3: non-integer header fields"),
        (PAD + "p tw 2 -1\n", "line 3: negative header fields"),
        (PAD + "1 2\n", "line 3: edge before header"),
        (PAD + "p tw 2 1\n1 2 3\n", "line 4: malformed edge line '1 2 3'"),
        (PAD + "p tw 2 1\n1 y\n", "line 4: non-integer edge endpoints"),
        (PAD + "p tw 2 1\n1 3\n", "line 4: endpoint out of range"),
        (PAD, "missing header line 'p tw <n> <m>'"),
    ])
    def test_graph(self, text, error):
        with pytest.raises(FormatError) as exc:
            parse_graph(text)
        assert str(exc.value) == error


class TestWeightsFormat:
    def test_fractions_and_defaults(self):
        w = parse_weights("1 1/4\n3 3/4\n", 3)
        assert w == (Fraction(1, 4), Fraction(0), Fraction(3, 4))

    def test_integer_weights(self):
        assert parse_weights("1 1\n", 2) == (Fraction(1), Fraction(0))

    def test_duplicate_vertex(self):
        with pytest.raises(FormatError, match="duplicate"):
            parse_weights("1 1/2\n1 1/2\n", 2)

    def test_bad_fraction(self):
        with pytest.raises(FormatError, match="malformed weight"):
            parse_weights("1 x/y\n", 2)


# Lines built from the formats' own tokens reach past the first check.  Ids
# stay small: a header's vertex count is allocated before any edge is read
TOKENS = st.one_of(
    st.sampled_from(["p", "tw", "s", "td", "b", "c", "x", "", "-", "/", "1/2", "-1/3",
                     "3/0", "1/2/3", "1e3", "0x10", "1_0", "+2", "nan"]),
    st.integers(-3, 12).map(str),
    st.text(max_size=6),
)
LINES = st.lists(TOKENS, max_size=6).map(" ".join)
TEXTS = st.one_of(st.text(), st.lists(LINES, max_size=12).map("\n".join))


class TestHostileText:
    """Any text parses or raises FormatError; nothing else escapes."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(TEXTS)
    def test_parse_graph(self, text):
        try:
            g = parse_graph(text)
        except FormatError:
            return
        assert parse_graph(emit_graph(g)) == g

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(TEXTS)
    def test_parse_decomposition(self, text):
        try:
            d, _ = parse_decomposition(text)
        except FormatError:
            return
        assert all(len(e) == 2 for e in d.tree_edges)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(TEXTS, st.integers(0, 12))
    def test_parse_weights(self, text, n):
        try:
            w = parse_weights(text, n)
        except FormatError:
            return
        assert len(w) == n and all(isinstance(x, Fraction) for x in w)


GAPS = st.sampled_from([" ", "  ", "\t", " \t "])


@st.composite
def plain_graph_texts(draw):
    """Valid .gr text with no comment or blank line, spaced and ordered at random."""
    n = draw(st.integers(0, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    lines = ["p" + draw(GAPS) + "tw" + draw(GAPS) + str(n) + draw(GAPS) + str(len(edges))]
    for a, b in edges:
        if draw(st.booleans()):
            a, b = b, a
        lines.append(draw(st.sampled_from(["", " ", "+"])) + str(a + 1) + draw(GAPS)
                     + str(b + 1) + draw(st.sampled_from(["", " ", "\t"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


class TestPlainGraphText:
    """Comment-free .gr text is read at once, to the graph the line reader builds."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(plain_graph_texts())
    def test_the_fast_path_returns_the_line_readers_graph(self, text):
        want = formats._parse_lines(text)

        def refuse(text):
            raise AssertionError("plain text fell back to the line reader")

        with pytest.MonkeyPatch.context() as m:
            m.setattr(formats, "_parse_lines", refuse)
            assert parse_graph(text) == want

    @pytest.mark.parametrize("text, error", [
        ("p tw 3 2\n1 2\n2 2\n", "line 3: self-loop"),
        ("p tw 3 2\n1 2\n2 1\n", "line 3: duplicate edge"),
        ("p tw 3 1\n1 4\n", "line 2: endpoint out of range"),
        ("p tw 3 2\n1 2 3\n3\n", "line 2: malformed edge line"),
        ("p tw 3 2\n1 2 3\n1\n", "line 2: malformed edge line"),
        ("p tw 3 2\n1 2\n", "header announced 2 edges, found 1"),
        ("p tw -3 0\n", "line 1: negative header fields"),
        ("p tw 3 1\n1 x\n", "line 2: non-integer edge endpoints"),
    ])
    def test_a_defect_is_named_by_the_line_reader(self, text, error):
        with pytest.raises(FormatError, match=error):
            parse_graph(text)


@st.composite
def decomposition_texts(draw):
    """.td text as ``emit_decomposition`` writes it, or with one defect or
    one change the line reader accepts."""
    k = draw(st.integers(0, 6))
    bags = [tuple(sorted(draw(st.sets(st.integers(0, 8), max_size=4)))) for _ in range(k)]
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, k)]
    lines = emit_decomposition(TreeDecomposition(tuple(bags), tuple(edges)), 9).splitlines()
    kind = draw(st.sampled_from(["canonical", "reordered", "crlf", "comment", "blank",
                                 "duplicate-id", "missing-id", "truncated", "oversized"]))
    at = draw(st.integers(0, len(lines) - 1))
    if kind == "reordered" and k:
        i = draw(st.integers(1, k))
        b, tail = lines[i].split()[:2], lines[i].split()[2:]
        lines[i] = " ".join(b + draw(st.permutations(tail)))
    elif kind == "comment":
        lines.insert(at + draw(st.integers(0, 1)), "c " + draw(st.sampled_from(["", "b 1 1", "1 2"])))
    elif kind == "blank":
        lines.insert(at + draw(st.integers(0, 1)), draw(st.sampled_from(["", " ", "\t"])))
    elif kind in ("duplicate-id", "missing-id") and k:
        i = draw(st.integers(1, k))
        if kind == "duplicate-id":
            lines.insert(i, lines[i])
        else:
            del lines[i]
    elif kind == "truncated":
        lines[at] = lines[at][:draw(st.integers(0, max(len(lines[at]) - 1, 0)))]
    elif kind == "oversized":
        head = lines[0].split()
        head[2] = str(draw(st.sampled_from([k + 1, 10 ** 12, 10 ** 18])))
        lines[0] = " ".join(head)
    end = "\r\n" if kind == "crlf" else "\n"
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _parsed(parse, text):
    """``parse(text)``, or the message of the FormatError it raised."""
    try:
        return parse(text)
    except FormatError as exc:
        return f"FormatError: {exc}"


class TestOnePassDecompositionText:
    """.td text is read in one pass where it is canonical, to what the line reader reads."""

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(decomposition_texts())
    def test_the_one_pass_reader_returns_what_the_line_reader_returns(self, text):
        assert _parsed(parse_decomposition, text) == \
            _parsed(formats._parse_decomposition_lines, text)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(0, 6), st.data())
    def test_canonical_text_is_read_without_the_line_reader(self, k, data):
        bags = tuple(tuple(sorted(data.draw(st.sets(st.integers(0, 8), max_size=4))))
                     for _ in range(k))
        d = TreeDecomposition(bags, tuple((data.draw(st.integers(0, i - 1)), i)
                                          for i in range(1, k)))
        text = emit_decomposition(d, 9)

        def refuse(text):
            raise AssertionError("canonical text fell back to the line reader")

        with pytest.MonkeyPatch.context() as m:
            m.setattr(formats, "_parse_decomposition_lines", refuse)
            assert parse_decomposition(text) == (d, 9 if k else 0)


class TestGenerators:
    def test_grid_3x3_shape(self):
        g = grid(3, 3)
        assert g.n == 9 and g.m == 12 and max_degree(g) == 4

    def test_star_is_k1_9(self):
        g = star(10)
        assert g.n == 10 and g.m == 9 and max_degree(g) == 9

    def test_random_tree_is_deterministic(self):
        assert random_tree(20, 7).edges == random_tree(20, 7).edges
        assert random_tree(20, 7).edges != random_tree(20, 8).edges

    def test_random_tree_is_a_tree(self):
        from edgesep import components
        for seed in range(5):
            g = random_tree(12, seed)
            assert g.m == g.n - 1 and len(components(g)) == 1

    def test_outerplanar_is_k4_minor_free(self):
        for seed in range(3):
            g = outerplanar(9, seed)
            found, _ = has_kt_minor(g, 4)
            assert not found

    def test_outerplanar_is_maximal(self):
        g = outerplanar(10, 4)
        assert g.m == 2 * g.n - 3   # cycle plus full triangulation

    def test_toroidal_wraps(self):
        g = toroidal_grid(3, 3)
        assert g.n == 9 and g.m == 18
        assert all(g.degree(v) == 4 for v in range(9))

    def test_toroidal_degenerate_sizes_stay_simple(self):
        g = toroidal_grid(2, 2)
        assert g.m == 4   # wrap edges collapse onto the grid edges

    def test_cycle_path_complete(self):
        assert cycle(5).m == 5
        assert path(6).m == 5
        assert complete(5).m == 10

    def test_generate_dispatch(self):
        assert generate("grid", [2, 3]) == grid(2, 3)
        assert generate("random-tree", [9], seed=3) == random_tree(9, 3)
        with pytest.raises(ParameterError, match="unknown family"):
            generate("hypercube", [3])
        with pytest.raises(ParameterError, match="parameter"):
            generate("grid", [3])

    FAMILY_CASES = [("grid", grid, [2, 3], False), ("toroidal-grid", toroidal_grid, [3, 4], False),
                    ("cycle", cycle, [5], False), ("star", star, [4], False),
                    ("path", path, [4], False), ("complete", complete, [4], False),
                    ("random-tree", random_tree, [9], True),
                    ("outerplanar", outerplanar, [9], True)]

    def test_the_families_are_listed_in_order(self):
        assert FAMILIES == tuple(case[0] for case in self.FAMILY_CASES)

    @pytest.mark.parametrize("family, make, args, seeded", FAMILY_CASES,
                             ids=[case[0] for case in FAMILY_CASES])
    def test_every_family_dispatches_with_its_count_and_seed(self, family, make, args,
                                                               seeded):
        assert generate(family, args, seed=3) == (make(*args, 3) if seeded else make(*args))
        if seeded:
            assert generate(family, args) == make(*args, 0)
        with pytest.raises(ParameterError,
                           match=fr"^family '{family}' takes {len(args)} parameter\(s\)$"):
            generate(family, args + [1], seed=3)
