"""Partition engine: parameters, the recursion, wrappers, and validators."""

import math
import sys
import tracemalloc
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesep import (EdgeSeparatorResult, Graph, IsoperimetricWitness, KtCertificate,
                     LemmaCheckReport, LineView, OracleLimits, Params, PartitionResult,
                     RootedPartition, TreeDecomposition, components,
                     exact_treewidth, has_kt_minor, induced_edge_ids, line_graph,
                     line_graph_tree_decomposition, neighborhood,
                     partition_line_graph, validate_certificate,
                     validate_decomposition, validate_embedding,
                     validate_partition, width)
from edgesep import graphs, tree_or_sep
from edgesep import partition as engine
from edgesep.errors import ParameterError
from edgesep.generators import (complete, cycle, grid, outerplanar, path, random_tree, star,
                                toroidal_grid)
from edgesep.treedecomp import product_blowup, reduced


class TestParams:
    def test_p_value_reference_point(self):
        p = Params(t=5, delta=4, m=12, c_sep=1)
        assert math.isclose(p.p_value(), math.sqrt(96) + 4)
        assert round(p.p_value(), 4) == 13.7980

    def test_p_value_collapses_at_t3(self):
        assert Params(t=3, delta=7, m=99, c_sep=4).p_value() == 7.0

    def test_p_value_scales_with_c_sep(self):
        p = Params(t=5, delta=4, m=12, c_sep=2)
        assert math.isclose(p.p_value(), math.sqrt(192) + 4)
        assert round(p.p_value(), 4) == 17.8564

    def test_floor_values(self):
        p = Params(t=5, delta=4, m=12, c_sep=1)
        assert p.p_floor() == 13
        assert p.reference_p_floor() == 13
        assert (p.t - 1) * p.p_floor() - 1 == 51

    def test_part_size_gate_is_exact(self):
        p = Params(t=5, delta=4, m=12, c_sep=1)   # p_impl ~ 13.798
        assert p.allows_part_size(13)
        assert not p.allows_part_size(14)

    def test_radius_budget_is_exact(self):
        p = Params(t=4, delta=4, m=16, c_sep=1)
        assert p.r_of(2).floor() == p.r_of(2).ceil() == 2      # sqrt(16/4) is 2
        q = Params(t=5, delta=4, m=12, c_sep=3)
        assert (q.r_of(3) * q.r_of(3).floor()).floor() == 16   # r = sqrt(18)

    def test_rejects_small_t(self):
        with pytest.raises(ParameterError, match="t must be"):
            partition_line_graph(Graph(2, [(0, 1)]), 2)

    def test_for_graph_reads_delta_and_m(self):
        g = grid(3, 3)
        assert Params.for_graph(g, 5) == Params(t=5, delta=4, m=12, c_sep=3)
        assert Params.for_graph(g, 5, c_sep=1).c_sep == 1
        with pytest.raises(ParameterError, match="t must be"):
            Params.for_graph(g, 2)


_DECOMP = TreeDecomposition(bags=((0,), (0, 1)), tree_edges=((0, 1),), designated=1,
                            root_clique=(0, 1))
_PARAMS = Params(t=5, delta=1, m=1, c_sep=3)
_PARTITION = RootedPartition(parts=((0,), (1,)), h_edges=((0, 1),), root=(0, 1),
                             decomp=_DECOMP)
RECORDS = [
    _PARAMS,
    KtCertificate(branch_sets=((0,), (1,), (2,)), t=3),
    _PARTITION,
    PartitionResult(partition=_PARTITION, params=_PARAMS),
    _DECOMP,
    EdgeSeparatorResult(edges=(0,), components=(((0,), Fraction(1, 2)), ((1,), Fraction(1, 2))),
                        bound_used=8, reference_bound=4, sink_node=0, anchors=(0, 0)),
    IsoperimetricWitness(s=(0,), cut_size=1, ratio=Fraction(1)),
    OracleLimits(),
    LemmaCheckReport(tree_exists=True, outcome="tree", contract_ok=True, returned_size=0),
]


class TestRecords:
    """Results and parameters are named tuples: immutable, hashable, plain tuples."""

    @pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
    def test_a_record_is_an_immutable_hashable_tuple(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        fields = tuple(getattr(record, name) for name in record._fields)
        assert record == fields
        assert hash(record) == hash(fields)

    def test_defaults(self):
        assert TreeDecomposition(bags=((0,),), tree_edges=()).n_nodes == 1
        assert _DECOMP.n_nodes == 2
        assert OracleLimits() == (12, 20, 16, 14)
        assert OracleLimits(max_vertices_tw=13).max_edges_sep == 20


class TestPartitionLineGraph:
    def test_small_star_fits_one_part(self):
        g = star(5)
        res = partition_line_graph(g, 3)
        assert res.params.p_value() == 4.0      # p collapses to delta at t=3
        assert res.partition.parts == ((0, 1, 2, 3),)
        assert width(res.partition.decomp) <= 1
        ok, why = validate_partition(g, res.partition, res.params)
        assert ok, why

    def test_single_vertex_c_gives_complete_root_graph(self):
        # the tree (1,) peels vertex 1 off C = {1, 2}; C = {2} then completes
        g = Graph(3, [(0, 1), (0, 2), (1, 2)])
        part = partition_line_graph(g, 4).partition
        assert part.parts == ((0, 1), (2,))
        assert part.h_edges == ((0, 1),)
        assert part.root == (0,)
        assert width(part.decomp) <= 1

    def test_tree_covering_all_of_c_completes(self):
        # after vertex 1 is peeled, C = {2, 3} is one edge and the tree is C
        g = Graph(4, [(0, 1), (0, 3), (1, 2), (2, 3)])
        res = partition_line_graph(g, 4)
        assert res.partition.parts == ((0, 1), (2,), (3,))
        assert res.partition.h_edges == ((0, 1), (0, 2), (1, 2))   # complete H
        assert res.partition.root == (0,)
        ok, why = validate_partition(g, res.partition, res.params)
        assert ok, why

    def test_grid_instance_end_to_end(self):
        g = grid(3, 3)
        res = partition_line_graph(g, 5)
        assert not isinstance(res, KtCertificate)
        ok, why = validate_partition(g, res.partition, res.params)
        assert ok, why

    def test_edgeless_graph_is_empty(self):
        res = partition_line_graph(Graph(4), 3)
        assert res.partition.parts == ()
        assert res.embedding == ()
        assert width(res.partition.decomp) == -1

    def test_disconnected_components_merge(self):
        g = Graph(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])
        res = partition_line_graph(g, 4)
        assert not isinstance(res, KtCertificate)
        ok, why = validate_partition(g, res.partition, res.params)
        assert ok, why
        ok, why = validate_embedding(g, res.partition, res.embedding, res.params)
        assert ok, why

    def test_dense_graph_yields_validated_certificate(self):
        g = complete(8)
        cert = partition_line_graph(g, 5)
        assert isinstance(cert, KtCertificate)
        assert len(cert.branch_sets) == 5
        ok, why = validate_certificate(g, cert)
        assert ok, why

    def test_cycle_at_t3_yields_k3_certificate(self):
        cert = partition_line_graph(cycle(4), 3)
        assert isinstance(cert, KtCertificate)
        ok, why = validate_certificate(cycle(4), cert)
        assert ok, why

    def test_minor_free_inputs_never_certify(self):
        cases = [(random_tree(9, 2), 3), (path(8), 3), (star(9), 3),
                 (outerplanar(10, 1), 4), (grid(3, 4), 5), (cycle(9), 4)]
        for g, t in cases:
            found, _ = has_kt_minor(g, t)
            assert not found
            res = partition_line_graph(g, t)
            assert not isinstance(res, KtCertificate)

    def test_partition_treewidth_against_oracle(self):
        for g, t in [(grid(3, 3), 5), (cycle(8), 4), (random_tree(10, 7), 3)]:
            res = partition_line_graph(g, t)
            hg = Graph(len(res.partition.parts), res.partition.h_edges)
            assert exact_treewidth(hg) <= t - 2

    def test_embedding_is_a_product_embedding(self):
        g = grid(3, 3)
        res = partition_line_graph(g, 5)
        ok, why = validate_embedding(g, res.partition, res.embedding, res.params)
        assert ok, why
        slots = [slot for _, slot in res.embedding]
        assert max(slots) <= res.params.p_floor()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_the_derived_embedding_is_the_one_once_stored(self, data):
        n = data.draw(st.integers(1, 14))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = Graph(n, edges)
        res = partition_line_graph(g, data.draw(st.integers(3, 6)))
        if not isinstance(res, KtCertificate):
            assert res.embedding == _build_embedding(g, res.partition)


def _build_embedding(g, p):
    """The embedding as ``partition_line_graph`` stored it, the reference."""
    slots = [None] * g.m
    for pid, part in enumerate(p.parts):
        for rank, eid in enumerate(part):
            slots[eid] = (pid, rank + 1)
    assert all(s is not None for s in slots), "every edge must land in a part"
    return tuple(slots)


class TestRecursion:
    @pytest.mark.parametrize("g, edge, vertex", [
        (path(500), 498, 0),
        (grid(20, 20), 54, 53),
        (random_tree(500, 500), 256, 0),
        (grid(32, 32), 101, 99),
        (grid(8, 60), 100, 96),
    ], ids=["path-500", "grid-20", "tree-500", "grid-32", "grid-8x60"])
    def test_every_contract_check_still_runs(self, g, edge, vertex, contract_checks):
        with contract_checks() as checks:
            partition_line_graph(g, 5)
        assert checks == {"edge": edge, "vertex": vertex}

    @pytest.mark.parametrize("g, steps", [
        (path(500), 499),
        (random_tree(500, 500), 625),
        (grid(20, 20), 56),
    ], ids=["path-500", "tree-500", "grid-20"])
    def test_one_step_per_peeled_vertex(self, monkeypatch, g, steps):
        # a root whose target is empty is dropped inside the step that finds
        # it, so a path or tree peels one vertex per step
        calls = []
        enter = engine._enter
        monkeypatch.setattr(engine, "_enter", lambda *a: calls.append(1) or enter(*a))
        partition_line_graph(g, 5)
        assert len(calls) == steps

    def test_grid_20_has_steps_that_drop_several_roots(self, monkeypatch):
        # the pinned grid-20 digests then cover drops of two or more roots,
        # whose attaches must run last dropped first
        drops = []
        enter = engine._enter

        def counted(g, params, out, call, stack):
            pieces, roots, _ = call
            if len(pieces) == 1:
                c = pieces[0].verts
                empty = sum(1 for _, _, nb in roots if c.isdisjoint(nb))
                before = len(stack)
                node = enter(g, params, out, call, stack)
                # an attach waits on the stack as a (roots, slot) pair
                attached = sum(type(x) is tuple for x in stack[before:])
                drops.append((empty, attached))
                return node
            return enter(g, params, out, call, stack)

        monkeypatch.setattr(engine, "_enter", counted)
        partition_line_graph(grid(20, 20), 5)
        multi = [(e, a) for e, a in drops if e >= 2]
        assert len(multi) == 11
        assert all(a >= e for e, a in multi)

    @pytest.mark.parametrize("g, t", [
        (grid(20, 20), 4), (grid(20, 20), 5), (grid(8, 60), 6),
        (outerplanar(300, 1), 5), (random_tree(500, 500), 5), (path(300), 5),
        (toroidal_grid(8, 8), 5), (complete(7), 5),
    ], ids=["grid-20-t4", "grid-20-t5", "grid-8x60-t6", "outerplanar-300",
            "tree-500", "path-300", "torus-8", "k7"])
    def test_every_root_record_is_a_model_set_and_its_neighborhood(self, monkeypatch, g, t):
        # a call carries each root as (slot, U_i, N(U_i)); on entry the U_i
        # are disjoint, miss C, and each record's N(U_i) is U_i's neighborhood
        records = []
        enter = engine._enter

        def checked(g, params, out, call, stack):
            pieces, roots, _ = call
            c = set().union(*(p.verts for p in pieces))
            seen: set = set()
            for _, u, nb in roots:
                assert nb == frozenset(neighborhood(g, u))
                assert seen.isdisjoint(u)
                assert c.isdisjoint(u)
                seen.update(u)
            records.append(len(roots))
            return enter(g, params, out, call, stack)

        monkeypatch.setattr(engine, "_enter", checked)
        partition_line_graph(g, t)
        assert sum(records) > 0

    def test_deep_path_runs_within_a_small_recursion_limit(self):
        limit = sys.getrecursionlimit()
        try:
            sys.setrecursionlimit(1000)
            g = path(20000)
            res = partition_line_graph(g, 5)
            ok, why = validate_partition(g, res.partition, res.params)
            assert ok, why
            ok, why = validate_embedding(g, res.partition, res.embedding, res.params)
            assert ok, why
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(limit)


class TestOneScanPerSeparator:
    def test_each_separator_outcome_scans_c_once(self, monkeypatch):
        # a separator outcome's window runs from its search to the next
        # search: the edge flavor, its two contract checks, the caller's
        # minimalization and the split into child calls
        log = []
        scan = tree_or_sep.components

        def logged_components(g, within=None, banned_edges=()):
            if isinstance(g, Graph):
                log.append(("components", None if within is None else frozenset(within)))
            return scan(g, within=within, banned_edges=banned_edges)

        induced = tree_or_sep.induced_edge_ids
        search = engine.edge_tree_or_separator

        def logged_search(g, targets, r, within=None, inner=None, line=None):
            at = len(log)
            log.append(("search", frozenset(within), None))
            res = search(g, targets, r, within=within, inner=inner, line=line)
            log[at] = ("search", log[at][1], res.kind)
            return res

        for module in (tree_or_sep, engine):
            monkeypatch.setattr(module, "components", logged_components)
        monkeypatch.setattr(tree_or_sep, "induced_edge_ids",
                            lambda *a: log.append(("induced_edge_ids", None)) or induced(*a))
        monkeypatch.setattr(engine, "edge_tree_or_separator", logged_search)
        partition_line_graph(grid(32, 32), 5)

        starts = [i for i, entry in enumerate(log) if entry[0] == "search"] + [len(log)]
        scans = []
        for i, j in zip(starts, starts[1:]):
            _, c, kind = log[i]
            if kind == "separator":
                window = log[i + 1:j]
                assert ("induced_edge_ids", None) not in window
                scans.append(sum(entry == ("components", c) for entry in window))
        assert scans == [1] * 9


class TestRunMarks:
    """A run searches on the marks of one line view, made when first needed."""

    def test_one_view_per_run_and_marks_per_level(self, monkeypatch):
        views, made = [], []
        view_class, marks_class = engine.LineView, graphs.Marks

        def recorded(g):
            views.append(view_class(g))
            return views[-1]

        monkeypatch.setattr(engine, "LineView", recorded)
        monkeypatch.setattr(graphs, "Marks", lambda g: made.append(type(g)) or marks_class(g))
        partition_line_graph(grid(32, 32), 5)
        # level 0 for components, one per scheme level h = 2, 3; not one per step
        assert len(views) == 1 and sorted(views[0]._marks) == [0, 2, 3]
        assert made.count(view_class) == 3
        views.clear()
        made.clear()
        partition_line_graph(path(300), 5)      # no step has h >= 2 targets
        assert len(views) == 1 and not views[0]._marks
        assert view_class not in made


@st.composite
def split_instances(draw):
    """A graph, a vertex set C, and seeds meeting every component of C."""
    n = draw(st.integers(2, 14))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)))
    c = set(draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1)))
    around = {draw(st.sampled_from(comp)) for comp in components(g, within=c)}
    around |= set(draw(st.lists(st.integers(0, n - 1), max_size=n)))
    return g, c, around


class TestSplit:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(split_instances(), st.booleans())
    def test_pieces_are_the_components_by_least_vertex(self, inst, carried):
        g, c, around = inst
        edges = set(induced_edge_ids(g, c)) if carried else None
        pieces = engine._split(g, engine._Piece(set(c), edges), around)
        comps = components(g, within=c)
        assert [sorted(p.verts) for p in pieces] == [list(comp) for comp in comps]
        for p in pieces:
            assert p.edges == (set(induced_edge_ids(g, p.verts)) if carried else None)

    def test_seeds_that_find_nothing_make_no_deque(self, monkeypatch):
        made = []

        class CountingDeque(deque):
            def __init__(self, *args):
                made.append(1)
                super().__init__(*args)

        monkeypatch.setattr(engine, "deque", CountingDeque)
        g = star(20000)
        pieces = engine._split(g, engine._Piece(set(range(1, g.n))), g.adj[0])
        assert len(pieces) == g.n - 1 and not made
        engine._split(g, engine._Piece(set(range(g.n))), (1, 2))
        assert made            # a search that finds a vertex still makes one


class TestCarriedInnerEdges:
    # searches with h >= 2 targets; at t = 4 the grids end in a certificate,
    # and a tree never needs one
    @pytest.mark.parametrize("make, t, searches", [
        (lambda: grid(20, 20), 4, 3), (lambda: grid(20, 20), 5, 53),
        (lambda: grid(8, 60), 4, 3), (lambda: grid(8, 60), 5, 96),
        (lambda: outerplanar(300, 300), 4, 103), (lambda: outerplanar(300, 300), 5, 103),
        (lambda: random_tree(500, 500), 4, 0), (lambda: random_tree(500, 500), 5, 0),
    ], ids=["grid-20-t4", "grid-20-t5", "grid-8x60-t4", "grid-8x60-t5",
            "outerplanar-300-t4", "outerplanar-300-t5", "tree-500-t4", "tree-500-t5"])
    def test_every_search_gets_exactly_e_of_c(self, make, t, searches, monkeypatch):
        original = engine.edge_tree_or_separator
        checked = []

        def checking(g, targets, r, within=None, inner=None, line=None):
            if len(targets) >= 2:
                assert inner is not None
                assert set(inner) == set(induced_edge_ids(g, within))
                checked.append(len(inner))
            return original(g, targets, r, within=within, inner=inner, line=line)

        monkeypatch.setattr(engine, "edge_tree_or_separator", checking)
        partition_line_graph(make(), t)
        assert len(checked) == searches


class TestAttachHoldsSlots:
    def test_a_long_path_peaks_near_what_its_result_holds(self):
        """Each step on a path drops a root and waits to attach its part.

        The wait keeps the root's slot alone: kept whole, every model set and
        its neighbourhood stayed alive to the end, and the traced peak read
        2.0 times what the result holds on P_50,000; without them, 1.3 times.
        """
        g = path(50000)
        tracemalloc.start()
        try:
            res = partition_line_graph(g, 5)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(res.partition.parts) == g.m
        assert peak <= 1.6 * held, f"peak {peak / held:.2f}x"


class TestLineGraphDecomposition:
    def test_reference_width_bound_arithmetic(self):
        # t=5, delta=4, m=12 at c_sep=1: (t-1)*floor(sqrt(96)+4) - 1 = 51
        p = Params(t=5, delta=4, m=12, c_sep=1)
        assert (p.t - 1) * p.p_floor() - 1 == 51

    def test_p3_single_bag(self):
        g = path(3)
        d = line_graph_tree_decomposition(g, 3)
        lg = line_graph(g)
        ok, why = validate_decomposition(lg, d)
        assert ok, why
        assert width(d) == 1   # L(P_3) = K_2 in one blown-up bag

    def test_grid_4x4_bound(self):
        g = grid(4, 4)
        res = partition_line_graph(g, 5)
        d = line_graph_tree_decomposition(g, 5)
        lg = line_graph(g)
        ok, why = validate_decomposition(lg, d)
        assert ok, why
        assert width(d) <= 4 * res.params.p_floor() - 1

    def test_certificate_propagates(self):
        out = line_graph_tree_decomposition(complete(8), 5)
        assert isinstance(out, KtCertificate)

    def test_it_blows_up_the_reduced_decomposition_of_h(self):
        g = random_tree(500, 500)
        res = partition_line_graph(g, 5)
        d = line_graph_tree_decomposition(g, 5)
        assert d == product_blowup(reduced(res.partition.decomp), res.partition.parts)
        assert d.n_nodes <= len(res.partition.parts) < res.partition.decomp.n_nodes
        assert validate_decomposition(LineView(g), d) == (True, None)


def _first_pair_violation(g, part):
    """The partition-property clause as a scan over every pair of edges."""
    part_of = {e: i for i, p in enumerate(part.parts) for e in p}
    h_set = set(part.h_edges)
    for v in range(g.n):
        eids = g.adj_eids[v]
        for i, a in enumerate(eids):
            for b in eids[i + 1:]:
                pa, pb = sorted((part_of[a], part_of[b]))
                if pa != pb and (pa, pb) not in h_set:
                    return f"partition property: adjacent edges {a},{b} in non-adjacent parts"
    return None


class TestValidatorsPerPart:
    """The validators test pairs of parts at a vertex, and name edges on a miss."""

    @pytest.mark.parametrize("make", [lambda: grid(5, 5), lambda: outerplanar(40, 2)],
                             ids=["grid-5", "outerplanar-40"])
    def test_a_dropped_h_edge_names_the_first_pair(self, make):
        g = make()
        res = partition_line_graph(g, 5)
        part = res.partition
        for k in range(len(part.h_edges)):
            bad = part._replace(h_edges=part.h_edges[:k] + part.h_edges[k + 1:])
            want = _first_pair_violation(g, bad)
            if want is None:
                continue        # no two adjacent edges sit in that pair of parts
            assert validate_partition(g, bad, res.params) == (False, want)
            assert validate_embedding(g, bad, res.embedding, res.params) == \
                (False, "embedding: adjacent edges in non-adjacent parts")

    def test_an_edge_in_no_part_is_mapped_to_the_wrong_part(self):
        g = path(3)
        res = partition_line_graph(g, 5)
        bad = res.partition._replace(parts=((0,),))
        assert validate_embedding(g, bad, ((0, 1), (None, 1)), res.params) == \
            (False, "embedding: edge 1 mapped to the wrong part")

    def test_a_non_integer_slot_lies_outside_the_slot_range(self):
        g = path(3)
        res = partition_line_graph(g, 5)
        assert validate_embedding(g, res.partition, ((1, None), (0, 1)), res.params) == \
            (False, "embedding: slot None outside 1..floor(p)")

    def test_a_non_integer_h_edge_endpoint_is_malformed(self):
        g = path(3)
        res = partition_line_graph(g, 5)
        bad = res.partition._replace(h_edges=((0, None),))
        assert validate_partition(g, bad, res.params) == \
            (False, "h-edges: malformed part adjacency")

    def test_a_non_integer_root_entry_breaks_the_root_clique(self):
        g = path(3)
        res = partition_line_graph(g, 5)
        bad = res.partition._replace(root=(0, None))
        assert validate_partition(g, bad, res.params) == \
            (False, "root clique: root parts not pairwise adjacent")

    def test_a_large_star_validates(self):
        g = star(20000)
        res = partition_line_graph(g, 5)
        assert validate_partition(g, res.partition, res.params) == (True, None)
        assert validate_embedding(g, res.partition, res.embedding, res.params) == (True, None)
