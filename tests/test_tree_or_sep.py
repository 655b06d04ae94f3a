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
from edgesep import graphs, tree_or_sep
from edgesep.graphs import _next_layer, bfs_layers
from edgesep.tree_or_sep import Budget
from edgesep.errors import ParameterError
from edgesep.generators import grid, path
from edgesep.partition import partition_line_graph
from edgesep.oracles import edge_lemma_contract_check

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


class TestVertexFlavor:
    def test_single_target_returns_single_vertex(self):
        res = vertex_tree_or_separator(grid(3, 3), [(4, 7)], 1)
        assert res.is_tree() and res.tree_vertices == (4,)

    def test_results_refuse_attribute_assignment(self):
        res = vertex_tree_or_separator(grid(3, 3), [(4, 7)], 1)
        with pytest.raises(AttributeError):
            res.kind = "separator"
        assert res.kind == "tree"

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


def shortest_path(g, sources, within, stop) -> list:
    """Reference for the tree extension: a second BFS inside the ball component.

    ``g`` is a Graph or a LineView.  The BFS starts from the sources in
    ascending order, and each vertex queues its unvisited neighbours in
    ascending id.  The path is returned from its end in ``stop`` back to its
    source; it is empty when ``stop`` is out of reach.
    """
    layer = sorted(sources)
    parent = dict.fromkeys(layer)
    opened = set()
    while layer:
        v = next((v for v in layer if v in stop), None)
        if v is not None:
            path = [v]
            while parent[v] is not None:
                v = parent[v]
                path.append(v)
            return path
        layer = _next_layer(g, layer, within, parent, opened, (), [])
    return []


def layered_scheme(g, tsets, r_exact, work):
    """Reference: ``tree_or_sep._vertex_scheme`` as it was before its h = 2 fast path.

    Every h >= 2 call runs its depth-k BFS, whatever the targets, and a
    found tree is joined to the last target by a second search,
    ``shortest_path`` inside the tree's ball component.
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


def _ladder(draw, n):
    """A 2 x (n // 2) ladder on drawn labels, its corner ends and its end rungs.

    Walking from one corner, every vertex off the first rail has two
    parents in the layer before it.  The far corner lies n // 2 >= 2 steps
    away, and the end rungs lie as many line steps apart.
    """
    order = draw(st.permutations(range(n)))
    rails = [order[:n // 2], order[n // 2:2 * (n // 2)]]
    pairs = [(x, y) for rail in rails for x, y in zip(rail, rail[1:])]
    pairs += list(zip(*rails))
    if n % 2:                   # an odd vertex hangs off the first corner
        pairs.append((order[-1], rails[0][0]))
    g = Graph(n, pairs)
    rungs = tuple(g.edges.index(tuple(sorted(pair)))
                  for pair in ((rails[0][0], rails[1][0]), (rails[0][-1], rails[1][-1])))
    return g, (rails[0][0], rails[1][-1]), rungs


@st.composite
def scheme_instances(draw):
    """A Graph or a LineView, a working set, targets and a budget for the scheme.

    Each draw is one of five cases:

    - ``fast``: h = 2, a last target that is a prefix of a BFS order inside
      the working set, hence connected, and a first target whose least
      vertex lies in it; the h = 2 fast path's case.
    - ``any``: h in 2..4 and any nonempty targets.
    - ``long``: a ladder (``_ladder``), its two far ends as the first and
      last targets (h = 3 adds a middle target) and a budget past its
      size, so the tree joins the ends and the extension is long.
    - ``split``: two disjoint paths with chords and a last target in both,
      so the last target is disconnected and the ball splits; budgets up to
      n let the balls grow and the extensions lengthen.
    - ``short``: any targets and a budget whose k exceeds the view's size,
      so every layered search runs out before depth k.
    """
    case = draw(st.sampled_from(["fast", "any", "long", "split", "short"]))
    n = draw(st.integers(4 if case in ("long", "split") else 2, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if case == "long":
        host, ends, rungs = _ladder(draw, n)
    elif case == "split":
        # a path on 0..cut-1 and one on cut..n-1, with chords inside each
        cut = draw(st.integers(2, n - 2))
        chords = [(i, j) for i, j in pairs if (i < cut) == (j < cut) and j - i > 1]
        if chords:
            chords = draw(st.lists(st.sampled_from(chords), unique=True, max_size=n))
        host = Graph(n, [(i, i + 1) for i in range(n - 1) if i + 1 != cut] + chords)
    else:
        host = Graph(n, draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                                      max_size=2 * n)))
    g = draw(st.sampled_from([host, LineView(host)]))
    work = frozenset(range(g.n))
    if case not in ("long", "split"):
        work = frozenset(draw(st.lists(st.integers(0, g.n - 1), unique=True, min_size=1)))
    ids = sorted(work)
    h = 2 if case == "fast" else draw(st.integers(2, 3 if case == "long" else 4))
    tsets = [frozenset(draw(st.lists(st.sampled_from(ids), unique=True, min_size=1,
                                     max_size=4))) for _ in range(h)]
    r = Budget.of(draw(st.sampled_from([1, 2, 3, 5, 8])))
    if case == "fast":
        layers = bfs_layers(g, (draw(st.sampled_from(ids)),), within=work)
        order = [v for layer in layers for v in layer]
        last = frozenset(order[:draw(st.integers(1, len(order)))])
        x = draw(st.sampled_from(sorted(last)))
        tsets = [frozenset([x] + [v for v in tsets[0] if v > x]), last]
    elif case == "long":
        last, first = ends if g is host else rungs
        tsets = [frozenset((first,))] + tsets[1:-1] + [frozenset((last,))]
        r = Budget.of((h - 1) * g.n)
    elif case == "split":
        line = isinstance(g, LineView)
        sides = [[v for v in ids if (host.edges[v][0] if line else v) < cut],
                 [v for v in ids if (host.edges[v][0] if line else v) >= cut]]
        tsets[-1] = frozenset(draw(st.sampled_from(side)) for side in sides)
        r = Budget.of((h - 1) * draw(st.integers(1, n)))
    elif case == "short":
        r = Budget.of((h - 1) * (g.n + 1))
    return g, tsets, r, work, case


class TestH2FastPath:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(scheme_instances())
    def test_scheme_matches_the_full_layered_search(self, inst):
        g, tsets, r, work, case = inst
        searches = []

        def counted(*a, **k):
            layers = graphs._found_layers(*a, **k)
            searches.append(len(layers) <= k["depth"])
            return layers

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tree_or_sep, "_found_layers", counted)
            got = tree_or_sep._vertex_scheme(g, tsets, r, work)
        assert got == layered_scheme(g, tsets, r, work)
        if case == "fast":
            # the case was built to take the fast path, and it did
            assert not searches and got == ("tree", (min(tsets[0]),), (), None)
        elif case == "long":
            assert got[0] == "tree" and len(got[2]) == len(got[1]) - 1 >= 2
        elif case == "split":
            assert len(components(g, within=tsets[-1])) == 2
        elif case == "short":
            assert all(searches)        # each search ran out


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
        assert res.fragments == ((0, 4, 5), (1, 2, 3))

    def test_results_hash_and_compare_as_tuples(self):
        # fragments is a tuple, so an edge separator outcome hashes too;
        # every field takes part in equality, and so does the tuple type
        res = edge_tree_or_separator(_c6(), [(0,), (3,)], 2)
        assert res.kind == "separator" and res.fragments == ((0, 1, 5), (2, 3, 4))
        assert hash(res) == hash(tuple(res)) and res == tuple(res)
        assert res != res._replace(fragments=None)

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


class TestOneSearchPerLevel:
    """Each scheme level searches once; the tree extension reads its parent map."""

    def test_grid_32_search_counts(self, monkeypatch):
        # t = 5; each level's searches are recorded in the order made: the
        # last-target test, the layered search, a split ball's components
        levels = []         # per scheme level with h >= 2: the searches it made
        stack = []
        strays = []
        scheme, bfs, comps = (tree_or_sep._vertex_scheme, tree_or_sep._found_layers,
                              tree_or_sep.components)
        step = graphs._next_layer

        def level(g, tsets, r, work):
            stack.append((tsets, []))
            try:
                return scheme(g, tsets, r, work)
            finally:
                tsets, made = stack.pop()
                if len(tsets) >= 2:
                    levels.append(tuple(made))

        def searched(*a, **k):
            stack[-1][1].append("layers")
            return bfs(*a, **k)

        def connected(g, within=None, banned_edges=()):
            if sys._getframe(1).f_code.co_name == "_vertex_scheme":
                stack[-1][1].append("target" if within is stack[-1][0][-1] else "ball")
            return comps(g, within=within, banned_edges=banned_edges)

        def one_step(*args):
            frame = sys._getframe(1)
            while frame is not None:
                if frame.f_code.co_name == "_extend_to":
                    strays.append(sys._getframe(1).f_code.co_name)
                frame = frame.f_back
            return step(*args)

        monkeypatch.setattr(tree_or_sep, "_vertex_scheme", level)
        monkeypatch.setattr(tree_or_sep, "_found_layers", searched)
        monkeypatch.setattr(tree_or_sep, "components", connected)
        monkeypatch.setattr(graphs, "_next_layer", one_step)
        res = partition_line_graph(grid(32, 32), 5)
        assert len(res.partition.parts) == 102
        assert not strays, "the tree extension ran a search"
        # 112 levels test the last target and search once; 32 take the
        # h = 2 fast path after the test; no ball splits on the grid
        assert {shape: levels.count(shape) for shape in set(levels)} == \
            {("target", "layers"): 112, ("target",): 32}
