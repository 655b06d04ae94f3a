"""Tree-or-separator subroutines.

Given target vertex sets A_1..A_h and a radius budget r, the vertex routine
returns either a tree on at most r vertices meeting every target, or a vertex
set Z with |Z| <= cSep*(h-1)*n/r such that no component of the working graph
minus Z meets all targets.  The edge routine runs the same search on the line
graph, read through a ``LineView`` of G's incidence lists rather than built:
it yields a tree with at most r edges, or an edge set F with
|F| <= cSep*(h-1)*m/r separating the targets.

The layered-BFS scheme implemented here promises the factor cSep(h) = h for
h >= 2 (1 for h = 1); the factor is recorded on every result and the full
contract is re-verified exactly before anything is returned.  The radius
budget is a ``Budget``, sqrt(num/den) - s in integers, so every bound is
decided by integer squaring and ``math.isqrt``.

An h = 2 search whose last target is connected and holds v = min(first
target) returns the tree (v,) before any BFS.  The ball it would search is
then one component holding v, its h = 1 step picks v, and the extension
finds v among its sources, so the full search returns that same tree.

Each scheme level runs one layered search, in FIFO order from the sorted
last target, and joins a found tree to that target along the search's own
parent map.  For a component ``cset`` of the ball, the search from
sorted(target & cset) inside ``cset`` alone visits ``cset`` in the same order
and with the same parents: a vertex expanded before one of ``cset`` lies in a
layer before j*, so if it is adjacent to ``cset``, or on a LineView shares a
G-vertex with it, it is in ``cset``.  The path read off the map is thus the
one a second search inside ``cset`` would find.

A separator outcome of the edge flavor scans C once: the components of
G[C] - F are computed one time, and the survivor test, both contract checks
and the caller's ``minimalize_edge_separator`` (through ``fragments``) read
that list.  The line contract can be checked on it, because a component of
E(C) - Z in the line graph is exactly the edge set of a component of
G[C] - Z with two or more vertices.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import ParameterError
from .graphs import (EdgeSet, Graph, LineView, VertexSet, _as_set, _found_layers,
                     components, induced_edge_ids)

class Budget:
    """The exact radius budget sqrt(num/den) - s, for integers num >= 0, den > 0, s.

    Each budget the recursion forms is the paper's radius less the integers
    that nested calls spend, so rounding it and comparing it with an integer
    reduce to integer squaring and ``math.isqrt``: no bound is checked
    through floats.
    """

    __slots__ = ("num", "den", "s")

    def __init__(self, num: int, den: int = 1, s: int = 0):
        if num < 0 or den <= 0:
            raise ValueError("a budget needs num >= 0 and den > 0")
        self.num, self.den, self.s = num, den, s

    @classmethod
    def of(cls, r) -> "Budget":
        """A Budget as is; an int, Fraction or float as its exact value."""
        if isinstance(r, Budget):
            return r
        a, b = r.as_integer_ratio()
        f = a // b                      # r = f + (a - f*b)/b, a rest in [0, 1)
        return cls((a - f * b) ** 2, b * b, -f)

    def floor(self) -> int:
        return math.isqrt(self.num // self.den) - self.s

    def ceil(self) -> int:
        f = math.isqrt(self.num // self.den)
        return f - self.s + (self.num != self.den * f * f)

    def __sub__(self, k: int) -> "Budget":
        return Budget(self.num, self.den, self.s + k)

    def __mul__(self, n: int) -> "Budget":
        """n times the budget, for an integer n >= 0."""
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        return Budget(n * n * self.num, self.den, n * self.s)

    def __ge__(self, x: int) -> bool:
        if not isinstance(x, int):
            return NotImplemented
        y = x + self.s                  # sqrt(num/den) >= y
        return y <= 0 or self.den * y * y <= self.num

    def __le__(self, x: int) -> bool:
        if not isinstance(x, int):
            return NotImplemented
        y = x + self.s                  # sqrt(num/den) <= y
        return y >= 0 and self.num <= self.den * y * y

    def __lt__(self, x: int) -> bool:
        return NotImplemented if not isinstance(x, int) else not self >= x

    def __float__(self) -> float:
        return math.sqrt(self.num / self.den) - self.s

    def __repr__(self) -> str:
        return f"Budget(sqrt({self.num}/{self.den}) - {self.s})"


def guarantee_factor(h: int) -> int:
    """Separator-size guarantee factor of the layered scheme for h targets."""
    return 1 if h <= 1 else h


class TreeOrSeparator(NamedTuple):
    """Either/or result; exactly one of the two outcomes is populated.

    Tree edges are vertex pairs for the vertex flavor and edge ids for the
    edge flavor; the separator holds vertex ids or edge ids likewise.  A
    named tuple: immutable, cheap to build once per recursion step, and
    hashable.  Every field, ``fragments`` too, takes part in equality,
    hashing and repr, and a result equals the plain tuple of its fields.
    """

    kind: str                        # "tree" | "separator"
    c_sep: int                       # promised guarantee factor for this call
    tree_vertices: Optional[VertexSet] = None
    tree_edges: Optional[tuple] = None
    separator: Optional[tuple] = None
    # the components of the view minus an edge separator, as its check found
    # them; the caller's minimalization starts from them
    fragments: Optional[tuple] = None

    def is_tree(self) -> bool:
        return self.kind == "tree"


def _checked(g, targets, within):
    """The working set and the targets as frozensets, each target inside it."""
    work = _as_set(range(g.n) if within is None else within)
    tsets = [frozenset(t) for t in targets]
    if not tsets:
        raise ParameterError("at least one target set is required")
    for i, t in enumerate(tsets):
        if not t <= work:
            raise ParameterError(f"target {i} leaves the working vertex set")
    return work, tsets


def vertex_tree_or_separator(g, targets: Sequence[Iterable[int]], r,
                             within: Optional[Iterable[int]] = None) -> TreeOrSeparator:
    """Vertex flavor of the lemma on the induced subgraph over ``within``.

    ``g`` is a Graph or a LineView.
    """
    work, tsets = _checked(g, targets, within)
    h = len(tsets)
    r_exact = Budget.of(r)
    if h > 1 and r_exact < 1:
        raise ParameterError("radius budget r must be >= 1")
    result = _vertex_result(h, *_vertex_scheme(g, tsets, r_exact, work))
    _verify_vertex(g, tsets, r_exact, work, result)
    return result


def _vertex_result(h, kind, tv, te, sep) -> TreeOrSeparator:
    return TreeOrSeparator(kind=kind, c_sep=guarantee_factor(h),
                           tree_vertices=tv, tree_edges=te, separator=sep)


def _vertex_scheme(g, tsets, r_exact, work):
    """Recursive layered-BFS search; returns (kind, vertices, edges, separator)."""
    h = len(tsets)
    for t in tsets:
        if not t:
            # no tree can meet an empty target; the empty set separates vacuously
            return "separator", None, None, ()
    if h == 1:
        v = min(tsets[0])
        return "tree", (v,), (), None

    # Budget split: k candidate layers are scanned from the last target; a
    # found sub-tree costs at most r-k+1 vertices and the connecting path at
    # most k-1 more, so the total stays within r.
    if h == 2:
        k = r_exact.floor()
    else:
        k = -(-r_exact.ceil() // (h - 1))   # ceil(r/(h-1)) = ceil(ceil(r)/(h-1))
    k = max(k, 1)
    sub_budget = r_exact - (k - 1)

    # h = 2, a connected last target and v = min(first target) inside it:
    # the search would pick v and extend nothing (module docstring)
    connected = len(components(g, within=tsets[-1])) == 1
    if h == 2 and connected:
        v = min(tsets[0])
        if v in tsets[-1]:
            return "tree", (v,), (), None

    marks = g.marks(h)     # its parents outlive the sub-levels' searches
    layers = _found_layers(g, tsets[-1], within=work, depth=k, marks=marks)
    sizes = [len(layers[j]) if j < len(layers) else 0 for j in range(k + 1)]
    j_star = min(range(1, k + 1), key=lambda j: (sizes[j], j))

    # A component of work minus layer j* that meets the last target cannot
    # cross that layer, so it is a component of the ball inside it; the
    # other components miss the last target and would be skipped anyway.
    # Every ball vertex reaches layer 0 inside the ball, so a connected
    # layer 0 makes the whole ball one component.  A search that ran out
    # before layer k reached the ball and nothing else.
    z_parts = [layers[j_star] if j_star < len(layers) else ()]
    ball = layers[:j_star]
    ball = work if sum(map(len, ball)) == len(work) else set().union(*ball)
    if connected:
        comps = [ball]
    else:
        comps = [frozenset(comp) for comp in components(g, within=ball)]
    for cset in comps:
        if any(cset.isdisjoint(t) for t in tsets):
            continue
        sub_targets = [t & cset for t in tsets[:-1]]
        kind, tv, te, sep = _vertex_scheme(g, sub_targets, sub_budget, cset)
        if kind == "tree":
            verts, edges = _extend_to(layers, marks.parent, set(tv), list(te))
            return "tree", verts, edges, None
        z_parts.append(sep)
    z = tuple(sorted(set(v for part in z_parts for v in part)))
    return "separator", None, None, z


def _extend_to(layers, parent, tree_verts, tree_edges):
    """Join the tree to the last target along the layered search's ``parent`` map.

    The first tree vertex the search found, read off its ``layers``, and its
    ancestors form a shortest path from the target (module docstring); no
    ancestor is in the tree, so the union stays acyclic.  A one-vertex tree,
    as every h = 2 search returns, is that vertex, and needs no scan.
    """
    if len(tree_verts) == 1:
        v = next(iter(tree_verts))
    else:
        v = next(v for layer in layers for v in layer if v in tree_verts)
    u = parent[v]
    while u is not None:
        tree_edges.append((u, v) if u < v else (v, u))
        tree_verts.add(u)
        v, u = u, parent[u]
    return tuple(sorted(tree_verts)), tuple(sorted(tree_edges))


def _verify_vertex(g, tsets, r_exact, work, res: TreeOrSeparator,
                   host=None, host_comps=None) -> None:
    """Exact re-check of the vertex contract; AssertionError means a bug.

    For a line view ``g`` of ``host`` over E(C), ``host_comps``, when given,
    are the components of the host's C minus the separator Z: a line target
    meets the line component inside one of them exactly when one of the
    target's edges outside Z has an endpoint in it (module docstring).
    """
    h = len(tsets)
    if res.kind == "tree":
        verts = set(res.tree_vertices)
        assert verts <= work, "tree leaves the working set"
        assert len(res.tree_edges) == len(verts) - 1, "tree edge count"
        seen, _ = _span(res.tree_edges, min(verts), ordered=False)
        assert seen == verts, "tree is not connected"
        for u, v in res.tree_edges:
            assert g.has_edge(u, v), "tree uses a non-edge"
        assert len(verts) <= r_exact, "tree exceeds the radius budget"
        for i, t in enumerate(tsets):
            assert verts & t, f"tree misses target {i}"
    else:
        z = set(res.separator)
        assert z <= work, "separator leaves the working set"
        cap = res.c_sep * (h - 1) * len(work)
        assert r_exact * len(z) <= cap, "separator exceeds its size bound"
        if host_comps is None:
            for comp in components(g, within=work - z):
                assert not all(set(comp) & t for t in tsets), \
                    "a component still meets every target"
        else:
            comp_of = {v: i for i, comp in enumerate(host_comps) for v in comp}
            met = [{comp_of[host.edges[e][0]] for e in t if e not in z} for t in tsets]
            assert not set.intersection(*met), "a component still meets every target"


def _span(pairs, start, ordered=True):
    """BFS from ``start`` over the edges ``pairs``, a sequence of vertex pairs.

    Returns the vertices reached and the indices of the pairs a BFS tree
    uses; each vertex takes its neighbours in ascending (vertex, index)
    order, or, not ``ordered``, in the order the pairs list them.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for i, (u, v) in enumerate(pairs):
        adj.setdefault(u, []).append((v, i))
        adj.setdefault(v, []).append((u, i))
    seen = {start}
    picked = []
    order = [start]
    for x in order:                     # order grows as it is read: the BFS queue
        for y, i in sorted(adj.get(x, ())) if ordered else adj.get(x, ()):
            if y not in seen:
                seen.add(y)
                picked.append(i)
                order.append(y)
    return seen, picked


def edge_tree_or_separator(g: Graph, targets: Sequence[Iterable[int]], r,
                           within: Optional[Iterable[int]] = None,
                           inner: Optional[set] = None,
                           line: Optional[LineView] = None) -> TreeOrSeparator:
    """Edge flavor, via the vertex flavor on a ``LineView`` of g.

    Incidence edge sets of the targets play the target role in the line
    graph.  A line tree translates back as a spanning tree of the subgraph
    its vertices form; a line separator Z becomes F := Z unless some
    component of the working graph minus F still meets all targets, in which
    case that component is a single common-target vertex returned as a
    zero-edge tree.

    A caller that already holds E(C) for a view without isolated vertices
    passes it as ``inner``; it is trusted, and read as is.  The search runs on
    the marks of ``line``, a caller's LineView of g kept across calls, if given.
    """
    work, tsets = _checked(g, targets, within)
    h = len(tsets)

    if h == 1:
        # tiny budgets make the reduction illegal; a single target vertex is
        # already a zero-edge tree
        if tsets[0]:
            v = _one_target_tree(g, tsets, work)
            return TreeOrSeparator("tree", 1, (v,), (), None, None)
        return _finish_edge(g, tsets, Budget.of(r), work, "separator", None, None, ())

    r_exact = Budget.of(r)
    if r_exact < 1:
        raise ParameterError("radius budget r must be >= 1")
    eid_set = inner
    if eid_set is None:
        eid_set = set(induced_edge_ids(g, work))
        isolated = work.difference(v for e in eid_set for v in g.edges[e])
        if isolated:
            raise ParameterError(f"vertex {min(isolated)} is isolated inside the working set")
    if any(not t for t in tsets):
        return _finish_edge(g, tsets, r_exact, work, "separator", None, None, ())

    # the line targets lie in E(C), and r >= 1: the search runs as the
    # vertex flavor would run it, and its line contract is re-checked below
    line = LineView(g) if line is None else line
    line_targets = [frozenset(e for v in t for u, e in zip(g.adj[v], g.adj_eids[v])
                              if u in work) for t in tsets]
    sub = _vertex_result(h, *_vertex_scheme(line, line_targets, r_exact, eid_set))

    if sub.is_tree():
        _verify_vertex(line, line_targets, r_exact, eid_set, sub)
        verts, eids = _spanning_tree_of_edges(g, sub.tree_vertices)
        return _finish_edge(g, tsets, r_exact, work, "tree", verts, eids, None)

    # the one scan of C for this outcome: both contract checks, the survivor
    # test and the caller's minimalization read this list
    f = tuple(sorted(sub.separator))
    comps = components(g, within=work, banned_edges=f)
    _verify_vertex(line, line_targets, r_exact, eid_set, sub, g, comps)
    for comp in comps:
        cset = set(comp)
        if all(cset & t for t in tsets):
            # such a component has no surviving incident target edge, hence
            # is a single vertex common to every target
            assert len(comp) == 1, "multi-vertex component survived the line separator"
            return _finish_edge(g, tsets, r_exact, work, "tree", (comp[0],), (), None)
    return _finish_edge(g, tsets, r_exact, work, "separator", None, None, f,
                        comps, eid_set)


def _one_target_tree(g: Graph, targets, work) -> int:
    """v = min(A_1), checked as the tree (v,) for one nonempty target in ``work``.

    Both are read as they are; no budget binds a zero-edge tree.  The check
    reads the result's fields as a plain tuple, which ``_verify_edge``
    accepts, so no ``TreeOrSeparator`` is built.
    """
    v = min(targets[0])
    _verify_edge(g, targets, None, work, ("tree", 1, (v,), (), None, None))
    return v


def _spanning_tree_of_edges(g: Graph, eids: Iterable[int]):
    """Spanning tree (as vertex set + edge ids) of the subgraph these edges form.

    The edge set of a line-graph tree can contain a cycle of the base graph;
    a spanning tree keeps the same vertex set and at most as many edges.
    """
    eids = sorted(eids)
    pairs = [g.edges[e] for e in eids]
    seen, picked = _span(pairs, min(u for u, _ in pairs))
    return tuple(sorted(seen)), tuple(sorted(eids[i] for i in picked))


def _finish_edge(g, tsets, r_exact, work, kind, tv, te, sep,
                 comps=None, inner=()) -> TreeOrSeparator:
    res = TreeOrSeparator(kind, guarantee_factor(len(tsets)), tv, te, sep,
                          None if comps is None else tuple(comps))
    _verify_edge(g, tsets, r_exact, work, res, comps, inner)
    return res


def _verify_edge(g, tsets, r_exact, work, res: TreeOrSeparator,
                 comps=None, inner=()) -> None:
    """Exact re-check of the edge contract; AssertionError means a bug.

    ``res`` is a ``TreeOrSeparator`` or the plain tuple of its fields.
    ``comps``, when given, are the components of the working graph minus a
    separator outcome, already computed by the caller; ``inner`` is the E(C)
    the search ran on, against which a nonempty separator's size is capped.
    """
    kind, c_sep, tree_vertices, tree_edges, separator, _ = res
    h = len(tsets)
    if kind == "tree" and not tree_edges and len(tree_vertices) == 1:
        v = tree_vertices[0]            # the zero-edge tree (v,), read without a copy
        assert v in work, "tree leaves the working set"
        for i, t in enumerate(tsets):
            assert v in t, f"edge tree misses target {i}"
    elif kind == "tree":
        verts = set(tree_vertices)
        assert verts <= work, "tree leaves the working set"
        assert len(verts) == len(tree_edges) + 1, "tree vertex/edge count"
        if tree_edges:
            pairs = [g.endpoints(e) for e in tree_edges]
            seen, _ = _span(pairs, min(verts), ordered=False)
            assert seen == verts, "edge tree is not connected"
            assert len(tree_edges) <= r_exact, "edge tree exceeds the budget"
        for i, t in enumerate(tsets):
            assert verts & t, f"edge tree misses target {i}"
    else:
        f = set(separator)
        assert all(u in work and v in work for u, v in map(g.endpoints, f)), \
            "separator uses edges outside the view"
        if f:
            cap = c_sep * (h - 1) * len(inner)
            assert r_exact * len(f) <= cap, "edge separator exceeds its size bound"
        if comps is None:
            comps = components(g, within=work, banned_edges=f)
        for comp in comps:
            assert not all(set(comp) & t for t in tsets), \
                "a component still meets every target"


def minimalize_edge_separator(g: Graph, f_edges: Iterable[int],
                              targets: Sequence[Iterable[int]],
                              within: Optional[Iterable[int]] = None,
                              classes: Optional[list] = None,
                              fragments: Optional[list] = None) -> EdgeSet:
    """Shrink a separating edge set to an inclusion-minimal one.

    Edges are considered in ascending id order; an edge is dropped when the
    two fragments it joins would still miss at least one target after the
    merge.  The result separates and no proper subset of it does.

    The merged fragments are then exactly the components of the view minus
    the result.  A caller that needs them passes a list as ``classes``; each
    is appended as a set filled in ascending order, ordered by least vertex,
    as ``components`` orders them.

    ``fragments``, when given, are the components of the view minus
    ``f_edges`` as ``components`` lists them, such as the ``fragments`` of
    an edge separator outcome; the view is then not scanned again.
    """
    work_set = _as_set(range(g.n) if within is None else within)
    tsets = [frozenset(t) for t in targets]
    f = sorted(set(f_edges))

    comps = fragments
    if comps is None:
        comps = components(g, within=work_set, banned_edges=f)
    full = (1 << len(tsets)) - 1
    if any(_hits(c, tsets) == full for c in comps):
        raise ParameterError("input edge set does not separate the targets")

    parent = {}
    hits = {}
    for comp in comps:
        root = comp[0]
        for v in comp:
            parent[v] = root
        hits[root] = _hits(comp, tsets)

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    kept = []
    for e in f:
        u, v = g.endpoints(e)
        if u not in work_set or v not in work_set:
            continue  # edges outside the view separate nothing
        ru, rv = find(u), find(v)
        if ru == rv:
            continue  # both ends already in one fragment: e is redundant
        merged = hits[ru] | hits[rv]
        if merged == full:
            kept.append(e)  # dropping e would reunite all targets
        else:
            parent[ru] = rv
            hits[rv] = merged
    if classes is not None:
        merged_comps: dict = {}
        for comp in comps:              # by least vertex, so each class is too
            merged_comps.setdefault(find(comp[0]), []).extend(comp)
        classes.extend(set(sorted(verts)) for verts in merged_comps.values())
    return tuple(kept)


def _hits(comp, tsets) -> int:
    mask = 0
    cset = set(comp)
    for i, t in enumerate(tsets):
        if cset & t:
            mask |= 1 << i
    return mask
