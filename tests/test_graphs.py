"""Graph core: constructors, primitive operations, and their invariants."""

from collections import deque

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from edgesep import (Graph, LineView, bfs_layers, components, edges_between,
                     induced_edge_ids, line_graph, max_degree, neighborhood,
                     validate_model)
from edgesep.graphs import _found_layers
from edgesep.tree_or_sep import _extend_to
from edgesep.generators import grid, path, star

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


class _CountingTuple(tuple):
    """A tuple that counts its item reads."""

    reads = 0

    def __getitem__(self, i):
        self.reads += 1
        return tuple.__getitem__(self, i)


@st.composite
def graphs(draw, max_n=8):
    n = draw(st.integers(min_value=1, max_value=max_n))
    all_edges = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if all_edges:
        edges = draw(st.lists(st.sampled_from(all_edges), unique=True,
                              max_size=len(all_edges)))
    else:
        edges = []
    return Graph(n, edges)


def deque_shortest_path(g, sources, within, stop) -> list:
    """Reference for ``extension``: one deque BFS with a branch per graph kind."""
    sources = sorted(sources)
    parent = dict.fromkeys(sources)
    dq = deque(sources)
    line = isinstance(g, LineView)
    if line:
        edges, adj_eids = g.g.edges, g.g.adj_eids
        opened = set()
    while dq:
        v = dq.popleft()
        if v in stop:
            path = [v]
            while parent[v] is not None:
                v = parent[v]
                path.append(v)
            return path
        if line:
            a, b = edges[v]
            if a in opened:
                if b in opened:
                    continue
                opened.add(b)
                nbrs = adj_eids[b]
            elif b in opened:
                opened.add(a)
                nbrs = adj_eids[a]
            else:
                opened.add(a)
                opened.add(b)
                nbrs = sorted(adj_eids[a] + adj_eids[b])
        else:
            nbrs = g.adj[v]
        for u in nbrs:
            if u in within and u not in parent:
                parent[u] = v
                dq.append(u)
    return []


def extension(g, sources, within, stop):
    """What the tree extension adds to a tree ``stop`` on ``bfs_layers``' parent map.

    ``tree_or_sep._extend_to`` walks the map back from the first vertex of
    ``stop`` the search found; None when it found none.
    """
    parent = {}
    bfs_layers(g, sources, within=within, parent=parent)
    if parent.keys().isdisjoint(stop):
        return None
    return _extend_to(parent, set(stop), [])


def as_extension(path, stop):
    """A path from a vertex of ``stop`` back to a source, as ``extension`` gives it."""
    if not path:
        return None
    return (tuple(sorted(set(stop).union(path))),
            tuple(sorted((min(a, b), max(a, b)) for a, b in zip(path, path[1:]))))


def scan_edges_between(g, xs, ys) -> tuple:
    """Reference ``edges_between``: a scan of all m edges."""
    xset, yset = set(xs), set(ys)
    return tuple(eid for eid, (u, v) in enumerate(g.edges)
                 if (u in xset and v in yset) or (u in yset and v in xset))


class TestConstruction:
    def test_canonical_edge_ids(self):
        g = Graph(4, [(3, 2), (1, 0), (0, 2)])
        assert g.edges == ((0, 1), (0, 2), (2, 3))
        assert g.edges[1] == (0, 2) and g.has_edge(2, 0)

    def test_edge_lookup(self):
        g = Graph(5, [(3, 2), (1, 0), (0, 2), (4, 0)])
        assert all(g.has_edge(u, v) and g.has_edge(v, u) for u, v in g.edges)
        assert g.has_edge(2, 0) and g.has_edge(0, 4)
        assert not any(g.has_edge(u, v)
                       for u, v in [(1, 2), (3, 4), (0, 0), (-1, 0), (5, 0), (1, 3)])

    def test_adjacency_lists_ascend(self):
        g = Graph(5, [(3, 2), (1, 0), (0, 2), (4, 0), (2, 4)])
        assert g.adj == ((1, 2, 4), (0,), (0, 3, 4), (2,), (0, 2))
        assert g.adj_eids == ((0, 1, 2), (0,), (1, 3, 4), (3,), (2, 4))

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(ValueError, match="duplicate"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, [(0, 5)])


class TestMaxDegree:
    def test_star_center(self):
        assert max_degree(star(5)) == 4

    def test_edgeless(self):
        assert max_degree(Graph(3)) == 0

    def test_grid(self):
        assert max_degree(grid(3, 3)) == 4


class TestComponents:
    def test_two_disjoint_edges(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert components(g) == [(0, 1), (2, 3)]

    def test_connected_grid(self):
        assert len(components(grid(3, 3))) == 1

    def test_path_minus_middle_vertex(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert components(g, within=(0, 1, 3, 4)) == [(0, 1), (3, 4)]

    def test_banned_edges(self):
        g = Graph(3, [(0, 1), (1, 2)])
        assert components(g, banned_edges=(0,)) == [(0,), (1, 2)]


class TestLineGraph:
    def test_path3_gives_k2(self):
        lg = line_graph(Graph(3, [(0, 1), (1, 2)]))
        assert lg.n == 2 and lg.edges == ((0, 1),)

    def test_claw_gives_triangle(self):
        lg = line_graph(star(4))
        assert lg.n == 3 and lg.m == 3

    def test_c4_gives_c4(self):
        lg = line_graph(Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert lg.n == 4 and lg.m == 4
        assert len(components(lg)) == 1
        assert all(lg.degree(v) == 2 for v in range(4))


class TestEdgesBetween:
    def test_k2(self):
        assert edges_between(Graph(2, [(0, 1)]), (0,), (1,)) == (0,)

    def test_edgeless(self):
        assert edges_between(Graph(4), (0, 1), (2, 3)) == ()

    def test_star_center_vs_leaves(self):
        g = star(5)
        assert edges_between(g, (0,), (1, 2, 3, 4)) == (0, 1, 2, 3)

    def test_reads_only_the_first_sides_lists(self, monkeypatch):
        g = star(20000)
        adj = _CountingTuple(g.adj)
        monkeypatch.setattr(g, "adj", adj)
        assert edges_between(g, (5, 7), range(g.n)) == (4, 6)
        assert adj.reads == 2

    @SETTINGS
    @given(graphs(), st.data())
    def test_matches_a_scan_of_all_edges(self, g, data):
        # overlapping sides, repeated ids
        xs = data.draw(st.lists(st.integers(0, g.n - 1)))
        ys = data.draw(st.lists(st.integers(0, g.n - 1)) | st.just(xs + xs[:2]))
        assert edges_between(g, xs, ys) == scan_edges_between(g, xs, ys)
        assert edges_between(g, ys, xs) == scan_edges_between(g, xs, ys)
        assert induced_edge_ids(g, xs) == scan_edges_between(g, xs, xs)


class TestNeighborhood:
    def test_path_middle(self):
        assert neighborhood(Graph(3, [(0, 1), (1, 2)]), (1,)) == (0, 2)

    def test_whole_vertex_set(self):
        g = grid(2, 2)
        assert neighborhood(g, range(4)) == ()

    def test_empty(self):
        assert neighborhood(grid(2, 2), ()) == ()


class TestBfsLayers:
    def test_path_from_end(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        assert bfs_layers(g, (0,)) == [(0,), (1,), (2,), (3,), (4,)]

    def test_sources_equal_within(self):
        g = grid(2, 2)
        assert bfs_layers(g, (0, 1), within=(0, 1)) == [(0, 1)]

    def test_unreachable_omitted(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert bfs_layers(g, (0,)) == [(0,), (1,)]

    def test_depth_stops_the_search(self):
        assert bfs_layers(path(5), (0,), depth=2) == [(0,), (1,), (2,)]
        assert bfs_layers(path(5), (0,), depth=0) == [(0,)]
        assert bfs_layers(path(3), (0,), depth=7) == [(0,), (1,), (2,)]

    def test_found_layers_are_the_sorted_layers_unsorted(self):
        g = grid(5, 5)
        for sources in [(12,), (0, 24), (3, 7, 11)]:
            found = _found_layers(g, sources)
            assert [tuple(sorted(layer)) for layer in found] == bfs_layers(g, sources)
            assert all(isinstance(layer, list) for layer in found)


class TestCallerSets:
    @pytest.mark.parametrize("kind", [set, frozenset])
    def test_primitives_leave_a_callers_set_alone(self, kind):
        g = path(6)
        within = kind({0, 1, 2, 4, 5})
        sources = kind({1})
        assert components(g, within=within) == [(0, 1, 2), (4, 5)]
        assert bfs_layers(g, sources, within=within) == [(1,), (0, 2)]
        assert within == {0, 1, 2, 4, 5} and sources == {1}


class TestValidateModel:
    def test_k4_singletons(self):
        g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        ok, why = validate_model(g, [(0,), (1,), (2,), (3,)])
        assert ok and why is None

    def test_overlap_reports_disjointness(self):
        g = Graph(3, [(0, 1), (1, 2), (0, 2)])
        ok, why = validate_model(g, [(0, 1), (1, 2)])
        assert not ok and "disjointness" in why

    def test_disconnected_branch_set(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        ok, why = validate_model(g, [(0, 2), (1,)])
        assert not ok and "connectivity" in why


class TestProperties:
    @SETTINGS
    @given(graphs())
    def test_line_graph_adjacency_is_shared_endpoint(self, g):
        lg = line_graph(g)
        assert lg.n == g.m
        adjacent = {tuple(sorted(e)) for e in lg.edges}
        for a in range(g.m):
            for b in range(a + 1, g.m):
                shared = set(g.endpoints(a)) & set(g.endpoints(b))
                assert ((a, b) in adjacent) == (len(shared) == 1)

    @SETTINGS
    @given(graphs())
    def test_line_graph_degree_formula(self, g):
        lg = line_graph(g)
        for eid, (u, v) in enumerate(g.edges):
            assert lg.degree(eid) == g.degree(u) + g.degree(v) - 2

    @SETTINGS
    @given(graphs(), st.data())
    def test_components_partition_within(self, g, data):
        within = data.draw(st.lists(st.integers(0, g.n - 1), unique=True))
        comps = components(g, within=within)
        seen = [v for c in comps for v in c]
        assert sorted(seen) == sorted(set(within))
        assert len(seen) == len(set(seen))

    @SETTINGS
    @given(graphs())
    def test_bfs_layers_no_edge_skips_a_layer(self, g):
        if g.n == 0:
            return
        layers = bfs_layers(g, (0,))
        level = {v: i for i, layer in enumerate(layers) for v in layer}
        for u, v in g.edges:
            if u in level and v in level:
                assert abs(level[u] - level[v]) <= 1

    @SETTINGS
    @given(graphs())
    def test_operations_are_pure(self, g):
        assert components(g) == components(g)
        assert line_graph(g) == line_graph(g)
        if g.n:
            assert bfs_layers(g, (0,)) == bfs_layers(g, (0,))


@st.composite
def line_views(draw):
    """A graph with at least one edge, and a random set of its edge ids."""
    g = draw(graphs(max_n=9))
    assume(g.m)
    within = frozenset(draw(st.lists(st.integers(0, g.m - 1), min_size=1, unique=True)))
    return g, within


class TestLineView:
    """Searches on a LineView give what they give on the built line graph."""

    @SETTINGS
    @given(graphs())
    def test_edges_and_adjacency_match_the_line_graph(self, g):
        lv, lg = LineView(g), line_graph(g)
        assert lv.n == lg.n
        assert tuple(lv.edge_pairs()) == lg.edges
        for a in range(g.m):
            for b in range(g.m):
                assert lv.has_edge(a, b) == lg.has_edge(a, b)

    @SETTINGS
    @given(line_views(), st.data())
    def test_bfs_layers_match(self, view, data):
        g, within = view
        sources = data.draw(st.lists(st.sampled_from(sorted(within)), min_size=1, unique=True))
        depth = data.draw(st.none() | st.integers(0, 4))
        want = bfs_layers(line_graph(g), sources, within=within, depth=depth)
        assert bfs_layers(LineView(g), sources, within=within, depth=depth) == want
        if depth is None:
            assert bfs_layers(LineView(g), sources) == bfs_layers(line_graph(g), sources)

    @SETTINGS
    @given(line_views())
    def test_components_match(self, view):
        g, within = view
        assert components(LineView(g), within=within) == components(line_graph(g), within=within)
        assert components(LineView(g)) == components(line_graph(g))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(line_views(), st.data())
    def test_shortest_paths_match(self, view, data):
        # at most two sources and a stop set without them, often in the whole
        # view, so that paths of more than one vertex are the common case;
        # the whole parent maps, in the order found, agree too
        g, within = view
        within = data.draw(st.sampled_from([frozenset(range(g.m)), within]))
        ids = sorted(within)
        sources = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=2,
                                     unique=True))
        stop = set(data.draw(st.lists(st.sampled_from(ids), max_size=3,
                                      unique=True))).difference(sources)
        maps = []
        for kind in (LineView(g), line_graph(g)):
            maps.append({})
            bfs_layers(kind, sources, within=within, parent=maps[-1])
        assert list(maps[0].items()) == list(maps[1].items())
        assert extension(LineView(g), sources, within, stop) == \
            extension(line_graph(g), sources, within, stop)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(line_views(), st.data())
    def test_shortest_paths_match_the_deque_search(self, view, data):
        # the reference fixes BFS parents as well as path lengths, for both kinds
        g, within = view
        for kind, ids in ((LineView(g), sorted(within)), (g, list(range(g.n)))):
            inside = frozenset(data.draw(st.just(ids) | st.lists(
                st.sampled_from(ids), min_size=1, unique=True)))
            sources = data.draw(st.lists(st.sampled_from(sorted(inside)), min_size=1,
                                         max_size=2, unique=True))
            stop = set(data.draw(st.lists(st.sampled_from(ids), max_size=3,
                                          unique=True))).difference(sources)
            assert extension(kind, sources, inside, stop) == \
                as_extension(deque_shortest_path(kind, sources, inside, stop), stop)

    def test_shortest_path_queues_both_endpoints_in_ascending_id(self):
        # in K_4, edge 2 = (0,3) reaches edges 0, 1 through vertex 0 and
        # 4, 5 through vertex 3; BFS order 0, 1, 4, 5 meets 1 before 5
        g = Graph(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
        for view in (LineView(g), line_graph(g)):
            assert extension(view, [2], frozenset(range(g.m)), {1, 5}) == \
                ((1, 2, 5), ((1, 2),))

    def test_shortest_path_merges_the_endpoint_lists(self):
        # edge 1 = (1,2) reaches edges 1, 2 through vertex 1 and 0, 1 through
        # vertex 2; the merged order meets edge 0 first
        g = Graph(4, [(0, 2), (1, 2), (1, 3)])
        for view in (LineView(g), line_graph(g)):
            assert extension(view, [1], frozenset(range(g.m)), {0, 2}) == \
                ((0, 1, 2), ((0, 1),))

    def test_a_star_is_searched_without_its_line_graph(self, monkeypatch):
        # L(star(n)) = K_{n-1} has ~n^2/2 edges; each search opens every
        # vertex at most once
        g = star(20000)
        adj_eids = _CountingTuple(g.adj_eids)
        monkeypatch.setattr(g, "adj_eids", adj_eids)
        lv = LineView(g)
        assert len(bfs_layers(lv, (0,))) == 2
        assert len(components(lv)) == 1
        assert extension(lv, (0,), frozenset(range(g.m)), {g.m - 1})[1] == ((0, g.m - 1),)
        assert adj_eids.reads <= 3 * g.n
