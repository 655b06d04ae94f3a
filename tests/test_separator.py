"""Balanced edge separators, tree orientation, and isoperimetric witnesses."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgesep import (Graph, KtCertificate, balanced_edge_separator, components,
                     edges_between, exact_isoperimetric, isoperimetric_witness,
                     min_balanced_edge_separator, partition_line_graph, product_blowup,
                     separator_from_partition, uniform_weights)
from edgesep import separator as separator_module
from edgesep.errors import ParameterError
from edgesep.generators import complete, cycle, grid, outerplanar, random_tree, star
from edgesep.treedecomp import TreeDecomposition

HALF = Fraction(1, 2)


def frac(a, b):
    return Fraction(a, b)


def orient_and_find_sink(d: TreeDecomposition, node_weights) -> int:
    """Reference for the sink search on exact rational node weights.

    ``node_weights`` maps nodes to weights summing to 1; they are scaled to
    integer loads over their least common denominator for ``_find_sink``.
    """
    if d.n_nodes == 0:
        raise ParameterError("empty decomposition has no sink")
    weights = {i: Fraction(x) for i, x in node_weights.items()}
    lcd = math.lcm(*(x.denominator for x in weights.values()))
    loads = {i: x.numerator * (lcd // x.denominator) for i, x in weights.items()}
    if sum(loads.values()) != lcd:
        raise ParameterError("node weights must sum to exactly 1")
    return separator_module._find_sink(d, [loads.get(i, 0) for i in range(d.n_nodes)], lcd)


class TestBalancedSeparator:
    def test_k2_splits_at_the_edge(self):
        g = Graph(2, [(0, 1)])
        sep = balanced_edge_separator(g, (HALF, HALF), 3)
        assert sep.edges == (0,)
        assert [w for _, w in sep.components] == [HALF, HALF]
        assert sep.bound_used == 2 and len(sep.edges) <= sep.bound_used

    def test_star_components_stay_small(self):
        g = star(10)
        sep = balanced_edge_separator(g, uniform_weights(10), 3)
        for comp, w in sep.components:
            assert len(comp) <= 5 and w <= HALF
        oracle = min_balanced_edge_separator(g, uniform_weights(10))
        assert len(oracle) == 5          # ceil(n/2) on a star
        assert len(sep.edges) >= len(oracle)

    def test_grid_balance_and_bound(self):
        g = grid(5, 5)
        res = partition_line_graph(g, 5)
        sep = separator_from_partition(g, res, uniform_weights(25))
        assert all(w <= HALF for _, w in sep.components)
        assert len(sep.edges) <= (5 - 1) * res.params.p_floor()

    def test_weight_validation(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ParameterError, match="sum"):
            balanced_edge_separator(g, (HALF, Fraction(1, 3)), 3)
        with pytest.raises(ParameterError, match="outside"):
            balanced_edge_separator(g, (Fraction(3, 4), Fraction(1, 4)), 3)

    def test_bad_weights_fail_before_the_partition_is_searched(self):
        # K_7 at t = 5 would end in a certificate; the weights are checked first
        w = (Fraction(1, 8),) * 7
        with pytest.raises(ParameterError, match="sum"):
            balanced_edge_separator(complete(7), w, 5)

    def test_weights_are_checked_once_per_call(self, monkeypatch):
        calls = []
        check = separator_module.check_weights
        monkeypatch.setattr(separator_module, "check_weights",
                            lambda g, w: calls.append(1) or check(g, w))
        sep = balanced_edge_separator(grid(4, 4), uniform_weights(16), 5)
        assert sep.edges and len(calls) == 1

    def test_mixed_denominators_summing_to_one_are_accepted(self):
        w = (frac(1, 2), frac(1, 3), frac(1, 12), frac(1, 20), frac(1, 30), Fraction(0))
        assert sum(w) == 1
        separator_module.check_weights(Graph(6), w)

    def test_a_sum_just_below_one_is_rejected(self):
        eps = Fraction(1, 10 ** 30)
        w = (HALF - eps, frac(1, 4), frac(1, 4))
        with pytest.raises(ParameterError, match="sum"):
            separator_module.check_weights(Graph(3), w)

    def test_the_first_bad_weight_is_named(self):
        w = [Fraction(0)] * 7
        w[2] = frac(3, 5)
        w[5] = 0.5
        with pytest.raises(ParameterError, match="vertex 2 outside"):
            separator_module.check_weights(Graph(7), w)
        w[2] = frac(-1, 7)
        with pytest.raises(ParameterError, match="vertex 2 outside"):
            separator_module.check_weights(Graph(7), w)

    def test_zero_weight_vertices_are_legal(self):
        g = grid(2, 3)
        w = (HALF, HALF, Fraction(0), Fraction(0), Fraction(0), Fraction(0))
        sep = balanced_edge_separator(g, w, 4)
        assert all(wt <= HALF for _, wt in sep.components)

    def test_certificate_propagates(self):
        from edgesep.generators import complete
        out = balanced_edge_separator(complete(8), uniform_weights(8), 5)
        assert isinstance(out, KtCertificate)

    def test_edgeless_graph_trivial_separator(self):
        g = Graph(4)
        sep = balanced_edge_separator(g, uniform_weights(4), 3)
        assert sep.edges == () and len(sep.components) == 4

    def test_anchor_bags_hold_the_vertex_cliques(self):
        g = grid(3, 3)
        res = partition_line_graph(g, 5)
        sep = separator_from_partition(g, res, uniform_weights(9))
        blowup = product_blowup(res.partition.decomp, res.partition.parts)
        for v in range(g.n):
            bag = set(blowup.bags[sep.anchors[v]])
            assert set(g.adj_eids[v]) <= bag

    def test_pipeline_size_sandwiched_by_oracle_and_bound(self):
        from edgesep.generators import path, random_tree
        cases = [(path(8), 3), (cycle(8), 4), (grid(2, 4), 5),
                 (random_tree(10, 5), 3), (star(9), 3)]
        for g, t in cases:
            res = partition_line_graph(g, t)
            sep = separator_from_partition(g, res, uniform_weights(g.n))
            oracle = min_balanced_edge_separator(g, uniform_weights(g.n))
            assert len(oracle) <= len(sep.edges) <= sep.bound_used

    def test_components_anchor_into_one_subtree_branch(self):
        # the balance argument: every multi-vertex component of G - F anchors
        # inside a single component of the decomposition tree minus the sink
        g = grid(4, 4)
        res = partition_line_graph(g, 5)
        sep = separator_from_partition(g, res, uniform_weights(16))
        d = product_blowup(res.partition.decomp, res.partition.parts)
        nbrs = {i: [] for i in range(d.n_nodes)}
        for a, b in d.tree_edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        side = {}
        for start in nbrs[sep.sink_node]:
            stack, seen = [start], {sep.sink_node, start}
            while stack:
                v = stack.pop()
                side[v] = start
                for u in nbrs[v]:
                    if u not in seen:
                        seen.add(u)
                        stack.append(u)
        for comp, _ in sep.components:
            if len(comp) < 2:
                continue
            sides = {side.get(sep.anchors[v], sep.sink_node) for v in comp}
            assert len(sides) == 1 and sep.sink_node not in sides

    def test_randomized_rational_weights_stay_balanced(self):
        rng = random.Random(99)
        for gi, g in enumerate([grid(3, 4), cycle(11), star(8)]):
            nums = [rng.randint(1, 50) for _ in range(g.n)]
            total = sum(nums)
            w = tuple(Fraction(a, total) for a in nums)
            while any(x > HALF for x in w):
                nums[nums.index(max(nums))] = 1
                total = sum(nums)
                w = tuple(Fraction(a, total) for a in nums)
            sep = balanced_edge_separator(g, w, 5)
            assert all(wt <= HALF for _, wt in sep.components)


class TestOrientAndFindSink:
    def test_weight_at_one_end_of_a_path(self):
        d = TreeDecomposition(bags=((0,), (1,), (2,)), tree_edges=((0, 1), (1, 2)))
        sink = orient_and_find_sink(d, {2: Fraction(1)})
        assert sink == 2

    def test_star_tree_with_uniform_leaves(self):
        d = TreeDecomposition(bags=((0,), (1,), (2,), (3,)),
                              tree_edges=((0, 1), (0, 2), (0, 3)))
        sink = orient_and_find_sink(d, {1: frac(1, 3), 2: frac(1, 3), 3: frac(1, 3)})
        assert sink == 0

    def test_balanced_tie_picks_smallest_id(self):
        d = TreeDecomposition(bags=((0,), (1,)), tree_edges=((0, 1),))
        sink = orient_and_find_sink(d, {0: HALF, 1: HALF})
        assert sink == 0

    def test_rejects_weights_not_summing_to_one(self):
        d = TreeDecomposition(bags=((0,),), tree_edges=())
        with pytest.raises(ParameterError, match="sum"):
            orient_and_find_sink(d, {0: frac(1, 3)})

    def test_sink_exists_on_random_trees(self):
        # fuzz: random tree shapes with integer loads; every side hanging off
        # the returned sink must carry at most half the total weight
        rng = random.Random(4242)
        for _ in range(200):
            k = rng.randint(1, 12)
            edges = tuple((rng.randrange(i), i) for i in range(1, k))
            d = TreeDecomposition(bags=((),) * k, tree_edges=edges)
            loads = [rng.randint(0, 6) for _ in range(k)]
            if sum(loads) == 0:
                loads[0] = 1
            total = sum(loads)
            weights = {i: Fraction(a, total) for i, a in enumerate(loads) if a}
            sink = orient_and_find_sink(d, weights)
            nbrs = {i: [] for i in range(k)}
            for a, b in edges:
                nbrs[a].append(b)
                nbrs[b].append(a)
            for u in nbrs[sink]:
                far = Fraction(0)
                seen = {sink, u}
                stack = [u]
                while stack:
                    v = stack.pop()
                    far += weights.get(v, Fraction(0))
                    for w in nbrs[v]:
                        if w not in seen:
                            seen.add(w)
                            stack.append(w)
                assert far <= HALF


def fraction_sink(d, node_weights):
    """The sink search on Fraction weights, as it ran before integer loads."""
    k = d.n_nodes
    wts = [node_weights.get(i, Fraction(0)) for i in range(k)]
    nbrs = [[] for _ in range(k)]
    for a, b in d.tree_edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    parent = [-1] * k
    order = [0]
    parent[0] = 0
    for v in order:
        for u in nbrs[v]:
            if parent[u] == -1:
                parent[u] = v
                order.append(u)
    sub = list(wts)
    for v in reversed(order[1:]):
        sub[parent[v]] += sub[v]
    for v in range(k):
        if all((sub[u] if parent[u] == v else 1 - sub[v]) <= HALF for u in nbrs[v]):
            return v
    raise AssertionError("no sink")


def fraction_separator(g, res, w):
    """Sink, F and component weights, summed as Fractions."""
    part = res.partition
    node_weights = {}
    for v, node in enumerate(separator_module._anchor_vertices(g, part)):
        node_weights[node] = node_weights.get(node, Fraction(0)) + w[v]
    sink = fraction_sink(part.decomp, node_weights)
    f = tuple(sorted(set().union(*(part.parts[pid] for pid in part.decomp.bags[sink]))))
    return sink, f, tuple((c, sum((w[v] for v in c), Fraction(0)))
                          for c in components(g, banned_edges=f))


@st.composite
def weighted_graphs(draw):
    """A small graph and weights <= 1/2 over mixed denominators summing to 1."""
    n = draw(st.integers(4, 40))
    make = draw(st.sampled_from([random_tree, outerplanar]))
    g = make(n, draw(st.integers(0, 999)))
    raw = [Fraction(draw(st.integers(0, 20)), draw(st.sampled_from([1, 2, 3, 7, 10, 12, 30])))
           for _ in range(n)]
    total = sum(raw)
    assume(total > 0)
    w = tuple(x / total for x in raw)
    assume(all(x <= HALF for x in w))
    return g, w


class TestIntegerLoads:
    """Sink, F and weights from integer loads equal a Fraction reference."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(weighted_graphs())
    def test_separator_matches_the_fraction_reference(self, inst):
        g, w = inst
        res = partition_line_graph(g, 4)
        assume(not isinstance(res, KtCertificate))
        sep = separator_from_partition(g, res, w)
        assert (sep.sink_node, sep.edges, sep.components) == fraction_separator(g, res, w)
        assert all(isinstance(wt, Fraction) for _, wt in sep.components)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data())
    def test_sink_matches_the_fraction_reference(self, data):
        k = data.draw(st.integers(1, 12))
        edges = tuple((data.draw(st.integers(0, i - 1)), i) for i in range(1, k))
        d = TreeDecomposition(bags=((),) * k, tree_edges=edges)
        raw = {i: Fraction(data.draw(st.integers(0, 9)), data.draw(st.integers(1, 12)))
               for i in range(k)}
        total = sum(raw.values())
        assume(total > 0)
        weights = {i: x / total for i, x in raw.items()}
        assert orient_and_find_sink(d, weights) == fraction_sink(d, weights)


def subset_sum_window(sizes, lo, hi):
    """The window search as a dict of pick tuples per sum, the reference."""
    reach = {0: ()}
    for i, s in enumerate(sizes):
        additions = {}
        for total, picks in reach.items():
            t2 = total + s
            if t2 <= hi and t2 not in reach and t2 not in additions:
                additions[t2] = picks + (i,)
        reach.update(additions)
    for total in range(lo, hi + 1):
        if total in reach:
            return list(reach[total])
    return None


class TestIsoperimetricWitness:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.integers(0, 3), st.integers(0, 40)), max_size=14),
           st.integers(0, 60), st.integers(0, 60))
    def test_the_window_search_matches_the_reference(self, sizes, lo, hi):
        assert separator_module._subset_sum_window(sizes, lo, hi) == \
            subset_sum_window(sizes, lo, hi)


    def test_k2(self):
        wit = isoperimetric_witness(Graph(2, [(0, 1)]), 3)
        assert len(wit.s) == 1 and wit.ratio == 1

    def test_cycle_orders_against_exact_phi(self):
        g = cycle(10)
        wit = isoperimetric_witness(g, 4)
        phi = exact_isoperimetric(g)
        assert phi == frac(2, 5)
        assert phi <= wit.ratio

    def test_grid_window_and_ratio_bound(self):
        g = grid(4, 4)
        res = partition_line_graph(g, 5)
        sep = separator_from_partition(g, res, uniform_weights(16))
        wit = isoperimetric_witness(g, 5)
        assert 6 <= len(wit.s) <= 8
        assert wit.ratio <= Fraction(len(sep.edges) * 3, 16)
        rest = tuple(v for v in range(16) if v not in set(wit.s))
        assert wit.cut_size == len(edges_between(g, wit.s, rest))

    def test_needs_two_vertices(self):
        with pytest.raises(ParameterError, match="at least 2"):
            isoperimetric_witness(Graph(1), 3)
