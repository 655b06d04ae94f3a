"""Brute-force oracles: pinned values and second-strategy double checks."""

from fractions import Fraction
from itertools import product

import pytest

from edgesep import (Graph, components, edges_between, exact_isoperimetric,
                     exact_treewidth, has_kt_minor, min_balanced_edge_separator,
                     uniform_weights, validate_model)
from edgesep.errors import OracleLimitError, ParameterError
from edgesep.generators import complete, cycle, grid, path, random_tree, star
from edgesep.oracles import OracleLimits, edge_lemma_contract_check

PETERSEN = Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (0, 5), (1, 6),
                      (2, 7), (3, 8), (4, 9), (5, 7), (7, 9), (9, 6), (6, 8),
                      (8, 5)])


def treewidth_by_orderings(g: Graph, limit: int = 8) -> int:
    """Second, independent strategy: branch over elimination orderings."""
    if g.n > limit:
        raise OracleLimitError("treewidth_by_orderings: too many vertices")
    if g.n == 0:
        return -1
    best = [g.n - 1]
    adj0 = {v: set(g.adj[v]) for v in range(g.n)}

    def go(adj, cur):
        if cur >= best[0]:
            return
        if len(adj) <= 1:
            best[0] = cur
            return
        for v in sorted(adj):
            deg = len(adj[v])
            if max(cur, deg) >= best[0]:
                continue
            nxt = {u: set(s) for u, s in adj.items() if u != v}
            for u in adj[v]:
                nxt[u].discard(v)
                nxt[u].update(adj[v] - {u})
            go(nxt, max(cur, deg))

    go(adj0, 0)
    return best[0]


def kt_minor_by_assignment(g: Graph, t: int, limit: int = 6) -> bool:
    """Second, independent strategy: brute-force label assignment."""
    if g.n > limit:
        raise OracleLimitError("kt_minor_by_assignment: too many vertices")
    n = g.n
    for labels in product(range(t + 1), repeat=n):
        sets = [[v for v in range(n) if labels[v] == i + 1] for i in range(t)]
        if any(len(components(g, within=s)) != 1 for s in sets):
            continue
        if all(edges_between(g, sets[i], sets[j])
               for i in range(t) for j in range(i + 1, t)):
            return True
    return False


class TestExactTreewidth:
    def test_trees_have_width_one(self):
        for seed in (0, 3, 9):
            assert exact_treewidth(random_tree(8, seed)) == 1

    def test_k4(self):
        assert exact_treewidth(complete(4)) == 3

    def test_grid_3x3(self):
        assert exact_treewidth(grid(3, 3)) == 3

    def test_limit_guard(self):
        with pytest.raises(OracleLimitError):
            exact_treewidth(grid(4, 4))
        assert exact_treewidth(grid(4, 4), OracleLimits(max_vertices_tw=16)) == 4

    def test_double_check_against_ordering_search(self):
        for g in (grid(2, 3), complete(4), cycle(5), path(6),
                  Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (2, 4)])):
            assert exact_treewidth(g) == treewidth_by_orderings(g)
        assert exact_treewidth(grid(3, 3)) == treewidth_by_orderings(grid(3, 3), limit=9) == 3


class TestMinBalancedEdgeSeparator:
    def test_star_needs_half_the_leaves(self):
        f = min_balanced_edge_separator(star(10), uniform_weights(10))
        assert len(f) == 5

    def test_k2(self):
        f = min_balanced_edge_separator(Graph(2, [(0, 1)]), uniform_weights(2))
        assert f == (0,)

    def test_p4_middle_edge(self):
        f = min_balanced_edge_separator(path(4), uniform_weights(4))
        assert f == (1,)

    def test_double_check_full_scan(self):
        # independent enumeration: scan all edge subsets, take the smallest
        for g in (path(5), star(6), cycle(6)):
            w = uniform_weights(g.n)
            primary = min_balanced_edge_separator(g, w)
            best = None
            from edgesep import components
            for mask in range(1 << g.m):
                f = tuple(e for e in range(g.m) if mask >> e & 1)
                if all(sum((w[v] for v in c), Fraction(0)) <= Fraction(1, 2)
                       for c in components(g, banned_edges=f)):
                    if best is None or len(f) < best:
                        best = len(f)
            assert len(primary) == best

    def test_limit_guard(self):
        with pytest.raises(OracleLimitError):
            min_balanced_edge_separator(grid(4, 4), uniform_weights(16))


class TestExactIsoperimetric:
    def test_k2(self):
        assert exact_isoperimetric(Graph(2, [(0, 1)])) == 1

    def test_c10(self):
        assert exact_isoperimetric(cycle(10)) == Fraction(2, 5)

    def test_star_k15_is_one_not_a_third(self):
        # every candidate S has cut >= |S| here; exhaustive search settles it
        assert exact_isoperimetric(star(6)) == 1

    def test_double_check_by_combinations(self):
        from itertools import combinations
        for g in (cycle(7), grid(2, 4)):
            best = None
            for size in range(1, g.n // 2 + 1):
                for s in combinations(range(g.n), size):
                    rest = tuple(v for v in range(g.n) if v not in s)
                    from edgesep import edges_between
                    ratio = Fraction(len(edges_between(g, s, rest)), size)
                    if best is None or ratio < best:
                        best = ratio
            assert exact_isoperimetric(g) == best

    def test_limit_guard(self):
        with pytest.raises(OracleLimitError):
            exact_isoperimetric(grid(5, 4))


class TestHasKtMinor:
    def test_k5_is_its_own_model(self):
        found, model = has_kt_minor(complete(5), 5)
        assert found and model == ((0,), (1,), (2,), (3,), (4,))

    def test_trees_are_k3_minor_free(self):
        for seed in range(4):
            found, _ = has_kt_minor(random_tree(9, seed), 3)
            assert not found

    def test_petersen_has_k5(self):
        found, model = has_kt_minor(PETERSEN, 5)
        assert found
        ok, why = validate_model(PETERSEN, model)
        assert ok, why
        assert len(model) == 5

    def test_cycles_have_k3_but_not_k4(self):
        assert has_kt_minor(cycle(6), 3)[0]
        assert not has_kt_minor(cycle(6), 4)[0]

    def test_double_check_by_assignment(self):
        for g, t in ((cycle(5), 3), (complete(4), 4), (path(5), 3),
                     (grid(2, 3), 3), (star(6), 3)):
            assert has_kt_minor(g, t)[0] == kt_minor_by_assignment(g, t)

    def test_limit_guard(self):
        with pytest.raises(OracleLimitError):
            has_kt_minor(grid(4, 4), 5)


class TestEdgeLemmaCheck:
    def test_p5_generous_budget_has_tree(self):
        report = edge_lemma_contract_check(path(5), [(0,), (4,)], 4)
        assert report.tree_exists and report.outcome == "tree"
        assert report.contract_ok

    def test_p5_tight_budget_has_no_tree(self):
        report = edge_lemma_contract_check(path(5), [(0,), (4,)], 1)
        assert not report.tree_exists
        assert report.outcome == "separator"
        assert report.contract_ok

    def test_single_target_always_has_a_tree(self):
        report = edge_lemma_contract_check(path(5), [(3,)], 1)
        assert report.tree_exists and report.outcome == "tree"


class TestPreconditions:
    """A caller's bad argument is a ParameterError, the CLI's usage error."""

    def test_nonpositive_t(self):
        with pytest.raises(ParameterError, match="t must be positive"):
            has_kt_minor(cycle(5), 0)

    def test_isoperimetric_number_needs_two_vertices(self):
        with pytest.raises(ParameterError, match="at least 2 vertices"):
            exact_isoperimetric(Graph(1))

    def test_weights_must_cover_every_vertex(self):
        with pytest.raises(ParameterError, match="cover every vertex"):
            min_balanced_edge_separator(path(4), uniform_weights(3))

    def test_a_vertex_heavier_than_half_has_no_separator(self):
        w = (Fraction(0), Fraction(1), Fraction(0))
        with pytest.raises(ParameterError, match="more than 1/2"):
            min_balanced_edge_separator(path(3), w)
