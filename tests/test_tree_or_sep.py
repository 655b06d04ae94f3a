"""Tree-or-separator subroutines: examples, contracts, minimalization."""

import sys
from collections import deque
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgesep import (Graph, LineView, components, edge_tree_or_separator,
                     induced_edge_ids, line_graph, minimalize_edge_separator,
                     vertex_tree_or_separator)
from edgesep import tree_or_sep
from edgesep.graphs import bfs_layers, shortest_path
from edgesep.tree_or_sep import Budget
from edgesep.errors import ParameterError
from edgesep.generators import grid, path
from edgesep.oracles import edge_lemma_contract_check

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


class TestVertexFlavor:
    def test_single_target_returns_single_vertex(self):
        res = vertex_tree_or_separator(grid(3, 3), [(4, 7)], 1)
        assert res.is_tree() and res.tree_vertices == (4,)

    def test_p5_generous_budget_finds_the_path(self):
        res = vertex_tree_or_separator(path(5), [(0,), (4,)], 5)
        assert res.is_tree()
        assert res.tree_vertices == (0, 1, 2, 3, 4)
        assert len(res.tree_vertices) == 5

    def test_p9_tight_budget_separates(self):
        g = path(9)
        res = vertex_tree_or_separator(g, [(0,), (8,)], 2)
        assert res.kind == "separator"
        z = set(res.separator)
        assert len(z) * 2 <= res.c_sep * 1 * 9
        for comp in components(g, within=set(range(9)) - z):
            assert not ({0} & set(comp) and {8} & set(comp))
        # no tree on <= 2 vertices can meet both path ends
        for size in (1, 2):
            for vs in combinations(range(9), size):
                sub = set(vs)
                if {0} & sub and {8} & sub:
                    assert len(components(g, within=sub)) > 1

    def test_rejects_small_budget(self):
        with pytest.raises(ParameterError, match="r must be"):
            vertex_tree_or_separator(path(3), [(0,), (2,)], 0.5)

    def test_empty_target_separates_vacuously(self):
        res = vertex_tree_or_separator(path(3), [(0,), ()], 2)
        assert res.kind == "separator" and res.separator == ()


class TestEdgeFlavor:
    def test_p5_budget_four_finds_four_edge_tree(self):
        res = edge_tree_or_separator(path(5), [(0,), (4,)], 4)
        assert res.is_tree()
        assert res.tree_edges == (0, 1, 2, 3)

    def test_p5_budget_one_separates(self):
        g = path(5)
        res = edge_tree_or_separator(g, [(0,), (4,)], 1)
        assert res.kind == "separator"
        assert len(res.separator) <= res.c_sep * 1 * 4
        mini = minimalize_edge_separator(g, res.separator, [(0,), (4,)])
        assert len(mini) == 1

    def test_single_common_vertex_fallback(self):
        # both targets pin the same cut vertex of the bowtie
        g = Graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
        res = edge_tree_or_separator(g, [(0, 2), (2, 3)], 1)
        assert res.is_tree()
        assert all(set(res.tree_vertices) & set(t) for t in [(0, 2), (2, 3)])

    def test_single_target_ignores_budget(self):
        res = edge_tree_or_separator(path(4), [(2,)], 0)
        assert res.is_tree() and res.tree_vertices == (2,) and res.tree_edges == ()

    def test_isolated_vertex_rejected(self):
        g = Graph(3, [(0, 1)])
        with pytest.raises(ParameterError, match="isolated"):
            edge_tree_or_separator(g, [(0,), (1,)], 2)

    def test_least_isolated_vertex_is_named(self):
        g = Graph(6, [(0, 1), (4, 5)])
        with pytest.raises(ParameterError, match="vertex 2 is isolated"):
            edge_tree_or_separator(g, [(0,), (1,)], 2, within={5, 3, 2, 1, 0, 4})


class _CountingTuple(tuple):
    """Adjacency lists that count how many of them are read."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


@pytest.fixture(scope="module")
def long_path():
    g = path(200000)
    return g, frozenset(range(g.n))


class TestLocality:
    """A tree found near the targets costs what it searched, not |C|."""

    def test_vertex_tree_reads_only_the_searched_ball(self, long_path, monkeypatch):
        g, work = long_path
        adj = _CountingTuple(g.adj)
        monkeypatch.setattr(g, "adj", adj)
        res = vertex_tree_or_separator(g, [(0,), (1,)], 3, within=work)
        assert res.is_tree() and res.tree_vertices == (0, 1)
        assert adj.reads <= 16

    def test_edge_tree_reads_only_the_searched_line_ball(self, long_path, monkeypatch):
        # the line search reads G's incidence lists; E(C) is handed in, as
        # the partition recursion does, so nothing scans all of C
        g, work = long_path
        adj_eids = _CountingTuple(g.adj_eids)
        monkeypatch.setattr(g, "adj_eids", adj_eids)
        res = edge_tree_or_separator(g, [(0,), (2,)], 3, within=work,
                                     inner=frozenset(range(g.m)))
        assert res.is_tree() and res.tree_edges == (0, 1)
        assert adj_eids.reads <= 16


def _scheme_components(monkeypatch):
    """Record the ``within`` of every ``components`` call made by the search."""
    seen = []
    original = tree_or_sep.components

    def recording(g, within=None, banned_edges=()):
        out = original(g, within=within, banned_edges=banned_edges)
        if sys._getframe(1).f_code.co_name == "_vertex_scheme":
            seen.append((frozenset(within), out))
        return out

    monkeypatch.setattr(tree_or_sep, "components", recording)
    return seen


class TestBallComponents:
    """The searched ball is one component whenever its sources are connected."""

    def test_connected_sources_cost_only_their_own_check(self, monkeypatch):
        # the edges at row 0 and column 0: BFS fronts shrink toward the far
        # corner, so the search keeps many layers as its ball
        g = grid(30, 30)
        lg = line_graph(g)
        far = {e for i in range(30) for v in (i, 30 * i) for e in g.adj_eids[v]}
        near = g.adj_eids[25 * 30 + 25]
        seen = _scheme_components(monkeypatch)
        vertex_tree_or_separator(lg, [near, far], 12, within=frozenset(range(g.m)))
        assert seen and sum(len(within) for within, _ in seen) <= len(far)

    # two copies of x1 - p - s - q - x2 with two leaves on s, bridged x2 - x1';
    # the sources s = 0 and s' = 7 are apart, and so are the balls around them
    GADGET = [(0, 1), (0, 2), (1, 3), (2, 4), (0, 5), (0, 6)]
    TWIN_STARS = Graph(14, GADGET + [(u + 7, v + 7) for u, v in GADGET] + [(4, 10)])

    # measured before the shortcut was added
    @pytest.mark.parametrize("targets, r, kind, tree_vertices, tree_edges, separator", [
        ([(1, 8), (2, 9), (0, 7)], 3, "separator", None, None, (0, 3, 4, 7, 10, 11)),
        ([(1, 8), (2, 9), (0, 7)], 4, "tree", (0, 1, 2), ((0, 1), (0, 2)), None),
        # the component holding the least vertex misses the first target
        ([(8,), (9,), (0, 7)], 4, "tree", (7, 8, 9), ((7, 8), (7, 9)), None),
    ], ids=["both-separate", "first-has-tree", "least-misses"])
    def test_split_balls_keep_their_results(self, monkeypatch, targets, r, kind,
                                            tree_vertices, tree_edges, separator):
        g = self.TWIN_STARS
        assert len(components(g, within=targets[-1])) == 2
        seen = _scheme_components(monkeypatch)
        res = vertex_tree_or_separator(g, targets, r)
        assert (res.kind, res.tree_vertices, res.tree_edges, res.separator) == \
            (kind, tree_vertices, tree_edges, separator)
        assert [out for within, out in seen if len(within) == 10] == \
            [[(0, 1, 2, 5, 6), (7, 8, 9, 12, 13)]]


class TestMinimalize:
    def test_both_middle_edges_collapse_to_one(self):
        g = path(5)
        mini = minimalize_edge_separator(g, (1, 2), [(0,), (4,)])
        assert mini == (2,)
        for comp in components(g, banned_edges=mini):
            assert not ({0} & set(comp) and {4} & set(comp))

    def test_already_minimal_is_fixed_point(self):
        g = path(5)
        assert minimalize_edge_separator(g, (2,), [(0,), (4,)]) == (2,)

    def test_empty_input_when_targets_split(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert minimalize_edge_separator(g, (), [(0,), (2,)]) == ()

    def test_non_separating_input_rejected(self):
        with pytest.raises(ParameterError, match="separate"):
            minimalize_edge_separator(path(5), (), [(0,), (4,)])

    def test_inclusion_minimality(self):
        g = grid(3, 3)
        targets = [(0,), (8,)]
        f = tuple(range(g.m))
        mini = minimalize_edge_separator(g, f, targets)
        full = set(range(9))
        # still separates
        for comp in components(g, banned_edges=mini):
            assert not all(set(t) & set(comp) for t in targets)
        # and no single edge can be dropped
        for e in mini:
            rest = tuple(x for x in mini if x != e)
            rejoined = any(all(set(t) & set(c) for t in targets)
                           for c in components(g, within=full, banned_edges=rest))
            assert rejoined, f"edge {e} was redundant"


@st.composite
def separable_instances(draw):
    """A graph, a view, two or three targets, and an edge set F separating them.

    Up to 40 vertices, so that some vertex sets iterate in an order that
    depends on how they were filled.
    """
    n = draw(st.integers(2, 40))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    g = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)))
    work = frozenset(draw(st.lists(st.integers(0, n - 1), unique=True, min_size=1)))
    targets = [frozenset(draw(st.lists(st.sampled_from(sorted(work)), unique=True, max_size=3)))
               for _ in range(draw(st.integers(2, 3)))]
    f = tuple(draw(st.lists(st.integers(0, g.m - 1), unique=True))) if g.m else ()
    assume(not any(all(t & set(c) for t in targets)
                   for c in components(g, within=work, banned_edges=f)))
    return g, work, targets, f


class TestMinimalizeClasses:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(separable_instances())
    def test_classes_are_the_components_of_the_view_minus_the_result(self, inst):
        g, work, targets, f = inst
        classes = []
        kept = minimalize_edge_separator(g, f, targets, within=work, classes=classes)
        assert kept == minimalize_edge_separator(g, f, targets, within=work)
        comps = components(g, within=work, banned_edges=kept)
        # equal as sets, in order, and filled in the same order as set(comp)
        assert [list(c) for c in classes] == [list(set(comp)) for comp in comps]

    def test_a_merged_class_iterates_as_a_component_set_does(self):
        # fragments (0, 8) and (1,) merge over the dropped edge (0, 1); a set
        # filled 0, 8, 1 iterates in that order, one filled 0, 1, 8 does not
        g = Graph(10, [(0, 1), (0, 8), (1, 9)])
        classes = []
        assert minimalize_edge_separator(g, (0, 2), [(0,), (9,)], within={0, 1, 8, 9},
                                         classes=classes) == (2,)
        assert [list(c) for c in classes] == [[0, 1, 8], [9]]


@st.composite
def lemma_instances(draw):
    n = draw(st.integers(3, 9))
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(st.lists(st.sampled_from(all_edges), unique=True, min_size=n - 1,
                          max_size=len(all_edges)))
    g = Graph(n, edges)
    h = draw(st.integers(1, 3))
    targets = [tuple(sorted(draw(st.lists(st.integers(0, n - 1), unique=True,
                                          min_size=1, max_size=3))))
               for _ in range(h)]
    r = draw(st.sampled_from([1, 2, 3, 5, 8]))
    return g, targets, r


class TestContracts:
    @SETTINGS
    @given(lemma_instances())
    def test_edge_contract_holds_and_oracle_agrees(self, inst):
        g, targets, r = inst
        # restrict to a working set without isolated vertices
        work = {v for v in range(g.n) if g.degree(v) > 0}
        targets = [tuple(v for v in t if v in work) for t in targets]
        if not work:
            return
        # the routine re-verifies its own contract on every call
        report = edge_lemma_contract_check(g, targets, r, within=work)
        assert report.contract_ok
        res = edge_tree_or_separator(g, targets, r, within=work)
        if res.is_tree() and all(targets):
            assert report.tree_exists or not res.tree_edges

    @SETTINGS
    @given(lemma_instances())
    def test_vertex_contract_verified_on_every_call(self, inst):
        g, targets, r = inst
        res = vertex_tree_or_separator(g, targets, r)
        assert res.kind in ("tree", "separator")
        assert res.c_sep >= 1


@st.composite
def connected_views(draw):
    """A lemma instance on a connected view of at least two vertices."""
    g, targets, r = draw(lemma_instances())
    start = draw(st.integers(0, g.n - 1))
    order = [start]
    for v in order:                 # BFS order: each prefix is connected
        order.extend(u for u in g.adj[v] if u not in order)
    assume(len(order) >= 2)
    view = frozenset(order[:draw(st.integers(2, len(order)))])
    return g, [tuple(v for v in t if v in view) for t in targets], r, view


class TestCarriedInnerEdges:
    @SETTINGS
    @given(connected_views())
    def test_given_inner_edges_change_nothing(self, inst):
        g, targets, r, view = inst
        inner = set(induced_edge_ids(g, view))
        assert edge_tree_or_separator(g, targets, r, within=view, inner=inner) == \
            edge_tree_or_separator(g, targets, r, within=view)


def deque_span(edges, start) -> set:
    """Reference for the vertices ``tree_or_sep._span`` reaches."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {start}
    dq = deque((start,))
    while dq:
        x = dq.popleft()
        for y in adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                dq.append(y)
    return seen


def deque_spanning_tree_of_edges(g, eids):
    """Reference ``tree_or_sep._spanning_tree_of_edges``: its own deque BFS."""
    eids = sorted(eids)
    adj = {}
    for e in eids:
        u, v = g.endpoints(e)
        adj.setdefault(u, []).append((v, e))
        adj.setdefault(v, []).append((u, e))
    start = min(adj)
    seen = {start}
    picked = []
    dq = deque((start,))
    while dq:
        v = dq.popleft()
        for u, e in sorted(adj[v]):
            if u not in seen:
                seen.add(u)
                picked.append(e)
                dq.append(u)
    return tuple(sorted(seen)), tuple(sorted(picked))


class TestTreeSearches:
    """The one BFS over labelled pairs gives what the two deque searches gave."""

    @SETTINGS
    @given(lemma_instances(), st.data())
    def test_span_reaches_what_the_deque_search_reaches(self, inst, data):
        g = inst[0]
        pairs = data.draw(st.lists(st.sampled_from(g.edges)))
        start = data.draw(st.integers(0, g.n - 1))
        seen, picked = tree_or_sep._span(pairs, start)
        assert seen == deque_span(pairs, start)
        assert len(picked) == len(seen) - 1
        assert deque_span([pairs[i] for i in picked], start) == seen

    @SETTINGS
    @given(lemma_instances(), st.data())
    def test_spanning_tree_matches_the_deque_search(self, inst, data):
        g = inst[0]
        eids = data.draw(st.lists(st.integers(0, g.m - 1), min_size=1, unique=True))
        assert tree_or_sep._spanning_tree_of_edges(g, eids) == \
            deque_spanning_tree_of_edges(g, eids)


class TestLineViewSearch:
    """The search on a LineView returns what it returns on the built L(G)."""

    @SETTINGS
    @given(connected_views(), st.data())
    def test_vertex_flavor_on_the_view_matches_the_line_graph(self, inst, data):
        g, targets, r, view = inst
        e_c = frozenset(induced_edge_ids(g, view))
        ids = sorted(e_c)
        line_targets = [data.draw(st.lists(st.sampled_from(ids), unique=True, max_size=4))
                        for _ in targets]
        got = vertex_tree_or_separator(LineView(g), line_targets, r, within=e_c)
        want = vertex_tree_or_separator(line_graph(g), line_targets, r, within=e_c)
        assert got == want

    @SETTINGS
    @given(connected_views())
    def test_edge_flavor_matches_a_search_on_the_line_graph(self, inst):
        g, targets, r, view = inst
        got = edge_tree_or_separator(g, targets, r, within=view)
        with pytest.MonkeyPatch.context() as mp:
            # the edge flavor as it ran before the view: on L(G), built
            mp.setattr(tree_or_sep, "LineView", line_graph)
            want = edge_tree_or_separator(g, targets, r, within=view)
        assert got == want


def layered_scheme(g, tsets, r_exact, work):
    """Reference: ``tree_or_sep._vertex_scheme`` as it was before its h = 2 fast path.

    Every h >= 2 call runs its depth-k BFS, whatever the targets.
    """
    h = len(tsets)
    for t in tsets:
        if not t:
            return "separator", None, None, ()
    if h == 1:
        return "tree", (min(tsets[0]),), (), None
    k = r_exact.floor() if h == 2 else -(-r_exact.ceil() // (h - 1))
    k = max(k, 1)
    sub_budget = r_exact - (k - 1)
    layers = bfs_layers(g, tsets[-1], within=work, depth=k)
    sizes = [len(layers[j]) if j < len(layers) else 0 for j in range(k + 1)]
    j_star = min(range(1, k + 1), key=lambda j: (sizes[j], j))
    z_parts = [layers[j_star] if j_star < len(layers) else ()]
    ball = {v for layer in layers[:j_star] for v in layer}
    if len(components(g, within=layers[0])) == 1:
        comps = [ball]
    else:
        comps = [frozenset(comp) for comp in components(g, within=ball)]
    for cset in comps:
        if any(cset.isdisjoint(t) for t in tsets):
            continue
        sub_targets = [t & cset for t in tsets[:-1]]
        kind, tv, te, sep = layered_scheme(g, sub_targets, sub_budget, cset)
        if kind == "tree":
            tree_verts, tree_edges = set(tv), list(te)
            sources = tsets[-1] & cset
            if not sources.isdisjoint(tree_verts):
                return "tree", tuple(sorted(tree_verts)), tuple(tree_edges), None
            path_ = shortest_path(g, sources, cset, tree_verts)
            for v, u in zip(path_, path_[1:]):
                tree_edges.append((u, v) if u < v else (v, u))
                tree_verts.add(u)
            return "tree", tuple(sorted(tree_verts)), tuple(sorted(tree_edges)), None
        z_parts.append(sep)
    return "separator", None, None, tuple(sorted(set(v for part in z_parts for v in part)))


@st.composite
def scheme_instances(draw):
    """A Graph or a LineView, a working set, targets and a budget for the scheme.

    Half of the draws (``fast``) have h = 2, a last target that is a prefix
    of a BFS order inside the working set, hence connected, and a first
    target whose least vertex lies in it: the h = 2 fast path's case.  The
    other half draw h in 2..4 and any nonempty targets.
    """
    n = draw(st.integers(2, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    host = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                                  max_size=2 * n)))
    g = draw(st.sampled_from([host, LineView(host)]))
    work = frozenset(draw(st.lists(st.integers(0, g.n - 1), unique=True, min_size=1)))
    ids = sorted(work)
    fast = draw(st.booleans())
    h = 2 if fast else draw(st.integers(2, 4))
    tsets = [frozenset(draw(st.lists(st.sampled_from(ids), unique=True, min_size=1,
                                     max_size=4))) for _ in range(h)]
    if fast:
        layers = bfs_layers(g, (draw(st.sampled_from(ids)),), within=work)
        order = [v for layer in layers for v in layer]
        last = frozenset(order[:draw(st.integers(1, len(order)))])
        x = draw(st.sampled_from(sorted(last)))
        tsets = [frozenset([x] + [v for v in tsets[0] if v > x]), last]
    return g, tsets, Budget.of(draw(st.sampled_from([1, 2, 3, 5, 8]))), work, fast


class TestH2FastPath:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(scheme_instances())
    def test_scheme_matches_the_full_layered_search(self, inst):
        g, tsets, r, work, fast = inst
        searches = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tree_or_sep, "bfs_layers",
                       lambda *a, **k: searches.append(1) or bfs_layers(*a, **k))
            got = tree_or_sep._vertex_scheme(g, tsets, r, work)
        assert got == layered_scheme(g, tsets, r, work)
        if fast:
            # the case was built to take the fast path, and it did
            assert not searches and got == ("tree", (min(tsets[0]),), (), None)


def _c6():
    """C_6; edge ids 0:(0,1) 1:(0,5) 2:(1,2) 3:(2,3) 4:(3,4) 5:(4,5)."""
    return Graph(6, [(i, (i + 1) % 6) for i in range(6)])


class TestLineSeparatorCheck:
    """The line clause of ``_verify_vertex`` read from G's components."""

    @pytest.mark.parametrize("targets, z", [
        ([(0,), (3,)], (0,)),           # C_6 less one edge: one path meets both
        ([(1,), (3,)], (0, 4)),         # the path 1-2-3 meets both
    ], ids=["one-component", "one-of-two"])
    def test_a_stubbed_separator_that_leaves_a_meeting_component_raises(
            self, monkeypatch, targets, z):
        failed = []
        check = tree_or_sep._verify_vertex

        def watched(*args):
            try:
                check(*args)
            except AssertionError as exc:
                failed.append(str(exc))
                raise

        monkeypatch.setattr(tree_or_sep, "_verify_vertex", watched)
        monkeypatch.setattr(tree_or_sep, "_vertex_scheme",
                            lambda *args: ("separator", None, None, z))
        with pytest.raises(AssertionError, match="a component still meets every target"):
            edge_tree_or_separator(_c6(), targets, 3)
        assert failed == ["a component still meets every target"]

    def test_a_stubbed_separator_that_separates_passes(self, monkeypatch):
        monkeypatch.setattr(tree_or_sep, "_vertex_scheme",
                            lambda *args: ("separator", None, None, (0, 4)))
        res = edge_tree_or_separator(_c6(), [(0,), (3,)], 3)
        assert res.kind == "separator" and res.separator == (0, 4)
        assert res.fragments == [(0, 4, 5), (1, 2, 3)]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(connected_views(), st.data())
    def test_host_components_give_the_line_components_verdict(self, inst, data):
        g, _, _, view = inst
        e_c = frozenset(induced_edge_ids(g, view))
        ids = sorted(e_c)
        z = frozenset(data.draw(st.lists(st.sampled_from(ids), unique=True)))
        line_targets = [frozenset(data.draw(st.lists(st.sampled_from(ids), unique=True,
                                                     min_size=1, max_size=4)))
                        for _ in range(data.draw(st.integers(2, 3)))]
        res = tree_or_sep._vertex_result(len(line_targets), "separator", None, None,
                                         tuple(sorted(z)))
        line = LineView(g)
        verdicts = []
        for extra in ((), (g, components(g, within=view, banned_edges=z))):
            try:
                tree_or_sep._verify_vertex(line, line_targets, Budget.of(1), e_c, res,
                                           *extra)
                verdicts.append(True)
            except AssertionError:
                verdicts.append(False)
        assert verdicts[0] == verdicts[1]
