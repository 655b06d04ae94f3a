"""The flat-array validators against the dict-and-set ones they replaced.

``reference_validators`` keeps the earlier ``validate_partition`` and
``validate_embedding``.  On valid pipeline output and on one mutation of
it, each validator must return the verdict and first violation of its
reference; the one intended difference is a part that lists an edge twice,
which is now a violation.  ``TestSetFreeValidation`` in ``test_treedecomp``
compares ``validate_decomposition`` with its reference on line graphs.
"""

import io
import json
import tracemalloc
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_validators as ref
from edgesep import RootedPartition, partition_line_graph, validate_embedding, validate_partition
from edgesep.cli import main
from edgesep.formats import emit_graph
from edgesep.generators import cycle, grid, outerplanar, path, random_tree, star

FAMILIES = {
    "grid": lambda d: grid(d.draw(st.integers(2, 5)), d.draw(st.integers(2, 5))),
    "tree": lambda d: random_tree(d.draw(st.integers(3, 30)), d.draw(st.integers(0, 99))),
    "outerplanar": lambda d: outerplanar(d.draw(st.integers(4, 25)), d.draw(st.integers(0, 99))),
    "path": lambda d: path(d.draw(st.integers(2, 20))),
    "cycle": lambda d: cycle(d.draw(st.integers(3, 12))),
    "star": lambda d: star(d.draw(st.integers(2, 12))),
}

MUTATIONS = ["none", "move-edge", "drop-edge", "repeat-edge", "reuse-slot", "drop-h-edge",
             "corrupt-h-edge", "root-entry", "h-break-tree-edge", "h-repeat-tree-edge",
             "h-bag-out-of-range", "h-split", "non-int-part", "non-int-h-edge",
             "non-int-root", "non-int-slot", "non-int-pid", "non-int-bag"]

# a float passes ``0 <= v < n``: the reference then filed it under its own
# key, where a flat list cannot, so bags draw only values no comparison admits
ODD = st.sampled_from([None, "x", 0.5])
ODD_BAG = st.sampled_from([None, "x"])


def _pick(data, xs):
    return data.draw(st.integers(0, len(xs) - 1))


def _break_tree_edge(data, edges: list, k: int) -> None:
    i = _pick(data, edges)
    a, b = edges[i]
    edges[i] = data.draw(st.sampled_from([[a, a], [a, k], [-1, b], [a, (b + 1) % k]]))


def _mutated(data, g, res):
    """(kind, repeat, partition, embedding).

    Lists throughout, as ``verify`` decodes them, or tuples, as the engine
    builds them.  One mutation is applied; ``repeat`` is the (part, edge) a
    ``repeat-edge`` mutation repeated.
    """
    part = res.partition
    parts = [list(p) for p in part.parts]
    h_edges = [list(e) for e in part.h_edges]
    root = list(part.root)
    bags = [list(b) for b in part.decomp.bags]
    tree_edges = [list(e) for e in part.decomp.tree_edges]
    emb = [list(x) for x in res.embedding]
    k = len(parts)
    kind = data.draw(st.sampled_from(MUTATIONS))
    repeat = None
    if kind in ("move-edge", "drop-edge", "repeat-edge"):
        i = _pick(data, parts)
        e = parts[i][_pick(data, parts[i])]
        if kind == "repeat-edge":
            parts[i].insert(_pick(data, parts[i]) + 1, e)
            repeat = (i, e)
        else:
            parts[i].remove(e)
            if kind == "move-edge" and k > 1:
                j = data.draw(st.integers(0, k - 1).filter(lambda j: j != i))
                parts[j].append(e)
    elif kind == "reuse-slot":
        big = [p for p in parts if len(p) > 1]
        if big:
            p = big[_pick(data, big)]
            e1, e2 = data.draw(st.permutations(p))[:2]
            emb[e2] = [emb[e2][0], emb[e1][1]]
    elif kind == "drop-h-edge" and h_edges:
        del h_edges[_pick(data, h_edges)]
    elif kind == "corrupt-h-edge" and h_edges:
        i = _pick(data, h_edges)
        a, b = h_edges[i]
        h_edges[i] = data.draw(st.sampled_from([[a, a], [a, k], [-1, b], [a, (b + 1) % k]]))
    elif kind == "root-entry" and root:
        root[_pick(data, root)] = data.draw(st.integers(-1, k))
    elif kind == "h-break-tree-edge" and tree_edges:
        _break_tree_edge(data, tree_edges, len(bags))
    elif kind == "h-repeat-tree-edge" and tree_edges:
        a, b = tree_edges[_pick(data, tree_edges)]
        tree_edges.append(data.draw(st.sampled_from([[a, b], [b, a]])))
    elif kind in ("h-bag-out-of-range", "h-split"):
        bag = bags[_pick(data, bags)]
        if kind == "h-split":           # an element far from its subtree, or one dropped
            if bag and data.draw(st.booleans()):
                bag.remove(bag[_pick(data, bag)])
            else:
                bag.append(data.draw(st.integers(0, k - 1)))
        else:
            bag.append(data.draw(st.sampled_from([-1, k])))
    elif kind.startswith("non-int-"):
        odd = data.draw(ODD_BAG if kind == "non-int-bag" else ODD)
        if kind == "non-int-part":
            parts[_pick(data, parts)].append(odd)
        elif kind == "non-int-h-edge":
            if h_edges:
                h_edges[_pick(data, h_edges)][data.draw(st.integers(0, 1))] = odd
        elif kind == "non-int-root":
            root.append(odd)
        elif kind in ("non-int-slot", "non-int-pid"):
            emb[_pick(data, emb)][1 if kind == "non-int-slot" else 0] = odd
        else:
            bags[_pick(data, bags)].append(odd)
    if data.draw(st.booleans()):        # the engine's tuples rather than decoded lists
        parts, h_edges, root, bags, tree_edges, emb = (
            tuple(map(tuple, x)) if x and isinstance(x[0], list) else tuple(x)
            for x in (parts, h_edges, root, bags, tree_edges, emb))
    decomp = part.decomp._replace(bags=bags, tree_edges=tree_edges)
    return (kind, repeat, RootedPartition(parts=parts, h_edges=h_edges, root=root, decomp=decomp),
            emb)


class TestAgainstTheReference:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.data())
    def test_one_mutation_gets_the_reference_verdict(self, data):
        g = FAMILIES[data.draw(st.sampled_from(sorted(FAMILIES)))](data)
        res = partition_line_graph(g, 5)
        kind, repeat, part, emb = _mutated(data, g, res)
        params = res.params

        got = ref.outcome(validate_partition, g, part, params)
        want = ref.outcome(ref.validate_partition, g, part, params)
        if repeat is None:
            assert got == want
        else:       # the reference let the repeat through, or failed the size test
            assert got == (False, f"parts: part {repeat[0]} repeats edge {repeat[1]}")
            assert want == (True, None) or want[1].startswith("part size:")

        want = ref.outcome(ref.validate_embedding, g, part, emb, params)
        got = ref.outcome(validate_embedding, g, part, emb, params)
        if kind == "non-int-h-edge" and want == "TypeError":
            # the reference compared the endpoint with ``<`` and raised; the
            # flat keys leave that H-edge out, as if it were dropped
            kept = [e for e in part.h_edges if all(isinstance(x, int) for x in e)]
            want = ref.outcome(ref.validate_embedding, g, part._replace(h_edges=kept), emb, params)
        assert got == want


def _run(argv) -> tuple:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


class TestRepeatedEdge:
    @pytest.mark.parametrize("embedding", [True, False], ids=["with-embedding", "without"])
    def test_a_part_that_lists_an_edge_twice_is_rejected(self, tmp_path, embedding):
        gr, art = tmp_path / "g.gr", tmp_path / "a.json"
        gr.write_text(emit_graph(grid(5, 5)))
        data = json.loads(_run(["partition", str(gr), "--t", "5"])[1])
        i = next(i for i, p in enumerate(data["parts"]) if len(p) > 1)
        e = data["parts"][i][0]
        data["parts"][i].insert(1, e)
        if not embedding:
            del data["embedding"]
        art.write_text(json.dumps(data))
        code, out = _run(["verify", "partition", str(art), "--against", str(gr)])
        assert (code, json.loads(out)["violation"]) == (1, f"parts: part {i} repeats edge {e}")

    def test_a_repeat_is_named_after_an_overlap_in_the_same_part(self):
        g = path(4)
        res = partition_line_graph(g, 5)
        bad = res.partition._replace(parts=((0, 1), (1, 2, 2)))
        assert validate_partition(g, bad, res.params) == \
            (False, "parts: part 1 overlaps an earlier part")


class TestVerifyMemory:
    def test_verify_partition_peaks_under_nine_times_the_artifact(self, tmp_path):
        """The check holds one parsed copy of the artifact plus flat arrays.

        Text, parsed JSON and graph come to about 6.4 times the artifact's
        bytes on P_20,000; tuple copies of every list and set- and dict-based
        validators took the peak to 13.3 times.
        """
        gr, art = tmp_path / "p.gr", tmp_path / "p.json"
        gr.write_text(emit_graph(path(20000)))
        assert _run(["partition", str(gr), "--t", "5", "--out", str(art)])[0] == 0
        tracemalloc.start()
        try:
            code, out = _run(["verify", "partition", str(art), "--against", str(gr)])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert code == 0 and json.loads(out)["ok"] is True
        assert peak < 9 * art.stat().st_size, f"peak {peak / art.stat().st_size:.1f}x"
