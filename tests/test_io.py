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
from edgesep.generators import (complete, cycle, generate, grid, outerplanar,
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
        head = "p tw 640 0\n"
        text = head + "c" * (640 // MAX_VERTICES_PER_CHAR - len(head) - 1) + "\n"
        assert len(text) * MAX_VERTICES_PER_CHAR == 640
        assert parse_graph(text).n == 640
        with pytest.raises(FormatError, match="641 vertices"):
            parse_graph(text.replace("640", "641"))

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
