"""Core immutable graph type and the primitive operations everything consumes.

Vertices are dense integers 0..n-1.  Edges are unordered pairs stored with
u < v and sorted lexicographically; the id of an edge is its index in that
order, so ids are stable across runs and platforms.  Subgraph views are
expressed as vertex masks (``within``) and banned edge sets instead of
re-indexed copies: every certificate produced downstream refers to host ids.
All operations are pure and deterministic.
"""

from __future__ import annotations

from typing import Iterable, Optional

# Sorted tuples of ids; plain tuples keep the values hashable and canonical.
VertexSet = tuple
EdgeSet = tuple


class Graph:
    """Simple undirected graph, immutable after construction."""

    __slots__ = ("n", "edges", "adj", "adj_eids")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError("vertex count must be >= 0")
        canon = []
        for u, v in edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for i in range(1, len(canon)):
            if canon[i] == canon[i - 1]:
                raise ValueError(f"duplicate edge {canon[i]}")
        self.n = n
        self.edges = tuple(canon)
        # edges (u, x) with u < x sort before edges (x, v): each list fills ascending
        adj: list = [[] for _ in range(n)]
        adj_eids: list = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(canon):
            adj[u].append(v)
            adj_eids[u].append(eid)
            adj[v].append(u)
            adj_eids[v].append(eid)
        self.adj = tuple(map(tuple, adj))
        self.adj_eids = tuple(map(tuple, adj_eids))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether uv is an edge, by bisection in the ascending ``adj[u]``."""
        from bisect import bisect_left      # only checks look edges up
        row = self.adj[u] if 0 <= u < self.n else ()
        i = bisect_left(row, v)
        return i < len(row) and row[i] == v

    def endpoints(self, eid: int) -> tuple[int, int]:
        return self.edges[eid]

    def marks(self, level: int = 0) -> "Marks":
        return Marks(self)          # new for each search: a Graph keeps none

    def __eq__(self, other):
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m})"


class LineView:
    """The line graph L(G) read off G's incidence lists, never built.

    Line vertex i is the edge of G with id i; two line vertices are adjacent
    when their edges share an endpoint.  ``bfs_layers`` and ``components``
    take a LineView in place of a Graph.  They open each G-vertex at most
    once and take all of its edges in one step, so they cost O(sum of
    degrees) over what they read, where L(G) itself has sum_v C(deg v, 2)
    edges.  The view owns the ``Marks`` they run on, made on first use: level
    0 for them, level h for the tree-or-separator scheme level with h targets.
    """

    __slots__ = ("g", "n", "_marks")

    def __init__(self, g: Graph):
        self.g = g
        self.n = g.m
        self._marks: dict = {}

    def marks(self, level: int = 0) -> "Marks":
        """This view's marks for ``level``, made on first use."""
        if level not in self._marks:
            self._marks[level] = Marks(self)
        return self._marks[level]

    def has_edge(self, a: int, b: int) -> bool:
        return a != b and not set(self.g.edges[a]).isdisjoint(self.g.edges[b])

    def edge_pairs(self):
        """The edges of L(G) in ascending order, as ``line_graph`` lists them.

        There are sum_v C(deg v, 2) of them; they are produced one at a time.
        """
        adj_eids = self.g.adj_eids
        for a, (x, y) in enumerate(self.g.edges):
            yield from ((a, b) for b in sorted(set(adj_eids[x] + adj_eids[y])) if b > a)


class Marks:
    """Search marks over the vertices of a Graph or a LineView, never cleared.

    A search takes a new ``epoch`` and stamps ``seen[v]`` with it; ``parent[v]``
    is the vertex that reached v, None for a source, in the last search that
    found v.  On a LineView ``opened`` stamps the G-vertices a search opened.
    """

    __slots__ = ("seen", "parent", "opened", "epoch")

    def __init__(self, g):
        self.seen = [0] * g.n
        self.parent: list = [None] * g.n
        self.opened = [0] * g.g.n if isinstance(g, LineView) else None
        self.epoch = 0


def max_degree(g: Graph) -> int:
    """Maximum vertex degree; 0 for edgeless graphs."""
    return max((len(a) for a in g.adj), default=0) if g.n else 0


def _as_set(xs: Iterable[int]):
    """A set or frozenset as it is; any other iterable as a new set."""
    return xs if isinstance(xs, (set, frozenset)) else set(xs)


def _next_layer(g, layer, inset, marks: Marks, banned, out) -> list:
    """Append to ``out`` the vertices of ``inset`` next to ``layer`` not yet seen.

    ``g`` is a Graph or a LineView.  Each vertex found is stamped seen in
    the current epoch of ``marks``, its ``parent`` slot set to the vertex of
    ``layer`` that found it, and appended in the order found: a layer vertex
    takes its neighbours in ascending id.  With ``out`` the list ``layer``
    itself, the layer grows as it is read and the whole reachable set is
    taken.  ``banned`` edge ids of a Graph are skipped.

    On a LineView a G-vertex stamped opened is not opened again: its edges
    got their marks when it was.  A line vertex with both endpoints new
    takes their two ascending incidence lists merged, so the view finds
    neighbours in the order the built L(G) lists them.
    """
    ep, seen, parent = marks.epoch, marks.seen, marks.parent
    if isinstance(g, LineView):
        edges, adj_eids, opened = g.g.edges, g.g.adj_eids, marks.opened
        for e in layer:
            a, b = edges[e]
            if opened[a] == ep:
                if opened[b] == ep:
                    continue
                opened[b] = ep
                nbrs = adj_eids[b]
            elif opened[b] == ep:
                opened[a] = ep
                nbrs = adj_eids[a]
            else:
                opened[a] = opened[b] = ep
                nbrs = sorted(adj_eids[a] + adj_eids[b])    # merges two ascending runs
            for f in nbrs:
                if seen[f] != ep and f in inset:
                    seen[f] = ep
                    parent[f] = e
                    out.append(f)
    else:
        adj, adj_eids = g.adj, g.adj_eids
        for v in layer:
            for u, eid in zip(adj[v], adj_eids[v]):
                if seen[u] != ep and u in inset and eid not in banned:
                    seen[u] = ep
                    parent[u] = v
                    out.append(u)
    return out


def components(g, within: Optional[Iterable[int]] = None,
               banned_edges: Iterable[int] = ()) -> list[VertexSet]:
    """Connected components of the induced subgraph on ``within``.

    ``g`` is a Graph or a LineView, searched on its level-0 marks.
    ``banned_edges`` removes individual edges of a Graph from the view.  Each
    component is a sorted vertex tuple; the list is ordered by smallest
    contained id.  A caller's set or frozenset is read as is, never copied.
    """
    inset = range(g.n) if within is None else _as_set(within)
    banned = set(banned_edges)
    marks = g.marks()
    marks.epoch = ep = marks.epoch + 1
    out = []
    for s in inset:
        if marks.seen[s] != ep:
            marks.seen[s] = ep
            comp = [s]
            _next_layer(g, comp, inset, marks, banned, comp)
            comp.sort()
            out.append(tuple(comp))
    out.sort()          # disjoint sorted tuples: ordered by least vertex
    return out


def neighborhood(g: Graph, xs: Iterable[int]) -> VertexSet:
    """Open neighborhood: vertices outside xs adjacent to at least one of xs."""
    xset = set(xs)
    out: set[int] = set()
    for v in xset:
        out.update(g.adj[v])
    return tuple(sorted(out - xset))


def edges_between(g: Graph, xs: Iterable[int], ys: Iterable[int]) -> EdgeSet:
    """Ids of edges with one end in xs and the other in ys, ascending.

    xs and ys may overlap and repeat ids.  Only the adjacency lists of xs
    are read, so the cost is their degree sum, not m.
    """
    yset = _as_set(ys)
    adj, adj_eids = g.adj, g.adj_eids
    out = set()
    for v in _as_set(xs):
        for u, eid in zip(adj[v], adj_eids[v]):
            if u in yset:
                out.add(eid)
    return tuple(sorted(out))


def induced_edge_ids(g: Graph, within: Iterable[int]) -> EdgeSet:
    """Ids of edges with both endpoints in ``within``."""
    inset = _as_set(within)
    return edges_between(g, inset, inset)


def bfs_layers(g, sources: Iterable[int],
               within: Optional[Iterable[int]] = None,
               depth: Optional[int] = None,
               parent: Optional[dict] = None) -> list[VertexSet]:
    """BFS distance layers from ``sources`` inside the induced subgraph.

    ``g`` is a Graph or a LineView.  Layer j holds the vertices of
    ``within`` at induced distance exactly j, as a sorted tuple; unreachable
    vertices are omitted.  Layer 0 is the source set itself.  With ``depth``
    set, the search stops after layer ``depth``: only the adjacency of the
    earlier layers is read.  A dict passed as ``parent`` is filled with the
    parent map, in the order found (None for a source).
    """
    marks = g.marks()
    layers = _found_layers(g, sources, within, depth, marks)
    if parent is not None:
        parent.update((v, marks.parent[v]) for layer in layers for v in layer)
    return [tuple(sorted(layer)) for layer in layers]


def _found_layers(g, sources, within=None, depth=None, marks=None) -> list[list]:
    """The layers of ``bfs_layers``, each the list the search filled, unsorted.

    The search starts from the sorted sources and expands each layer in the
    order it found its vertices, on a new epoch of ``marks`` (by default g's
    level-0 marks), whose ``parent`` array then holds its parent map.
    """
    inset = range(g.n) if within is None else _as_set(within)
    layer = sorted(set(sources))
    if any(s not in inset for s in layer):
        raise ValueError("sources must lie inside the working vertex set")
    marks = g.marks() if marks is None else marks
    marks.epoch = ep = marks.epoch + 1
    for s in layer:
        marks.seen[s], marks.parent[s] = ep, None
    layers = [layer] if layer else []
    while layer and (depth is None or len(layers) <= depth):
        layer = _next_layer(g, layer, inset, marks, (), [])
        if layer:
            layers.append(layer)
    return layers


def line_graph(g: Graph) -> Graph:
    """Line graph of g, built in full; line vertex i is the edge of g with id i.

    It has sum_v C(deg v, 2) edges.  The pipeline searches a ``LineView``
    instead; this materialised copy serves tests only.
    """
    return Graph(g.m, LineView(g).edge_pairs())


def validate_model(g: Graph, branch_sets) -> tuple[bool, Optional[str]]:
    """Check the minor-model invariants; returns (ok, first violated clause)."""
    sets = [tuple(sorted(s)) for s in branch_sets]
    seen: set[int] = set()
    for i, s in enumerate(sets):
        if not s:
            return False, f"nonempty: branch set {i} is empty"
        for v in s:
            if not (0 <= v < g.n):
                return False, f"range: vertex {v} of branch set {i} out of range"
        if seen.intersection(s):
            return False, f"disjointness: branch set {i} overlaps an earlier one"
        seen.update(s)
    for i, s in enumerate(sets):
        if len(components(g, within=s)) != 1:
            return False, f"connectivity: branch set {i} is not connected"
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if not edges_between(g, sets[i], sets[j]):
                return False, f"pairwise adjacency: no edge between branch sets {i} and {j}"
    return True, None
