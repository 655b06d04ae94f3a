"""The core recursion: clique-rooted partitions of the line graph.

For a K_t-minor-free bounded-degree graph the engine produces a partition of
the line graph's vertices (= edge sets of the host graph) into parts of size
at most p_impl, organised as a graph H of treewidth at most t-2, rooted at a
clique of parts, together with a width-certified tree-decomposition of H.
When the K_t-minor-freeness assumption fails along the way, the recursion has
found an explicit K_t-model and returns it as a certificate instead.

The recursion state is kept as host-id sets throughout; nothing is ever
re-indexed, so parts, models and certificates all refer to the input graph.
Its arithmetic is integer arithmetic: part sizes are tested against p_impl
by squaring, and each call's radius budget is a ``tree_or_sep.Budget``.
"""

from __future__ import annotations

import math
from collections import deque
from typing import NamedTuple, Optional, Union

from .errors import ParameterError
from .graphs import (Graph, components, edges_between, max_degree,
                     neighborhood, validate_model)
from .tree_or_sep import (Budget, _one_target_tree, edge_tree_or_separator,
                          minimalize_edge_separator)
from .treedecomp import (Decomposition, TreeDecomposition, attach_vertex, glue,
                         product_blowup, validate_decomposition, width)


class Params(NamedTuple):
    """Run parameters; all bound comparisons against p_impl are exact.

    p_impl = sqrt(c_sep*(t-3)*delta*m) + delta.  With c_sep = 1 this is the
    source bound p; the implementation's tree-or-separator scheme promises
    c_sep = t - 2, and every downstream formula consumes c_sep symbolically.
    """

    t: int
    delta: int
    m: int
    c_sep: int

    @classmethod
    def for_graph(cls, g: Graph, t: int, c_sep: Optional[int] = None) -> "Params":
        if t < 3:
            raise ParameterError("t must be at least 3")
        return cls(t=t, delta=max_degree(g), m=g.m,
                   c_sep=(t - 2) if c_sep is None else c_sep)

    @property
    def p_inner(self) -> int:
        return self.c_sep * (self.t - 3) * self.delta * self.m

    def p_floor(self) -> int:
        return self.delta + math.isqrt(self.p_inner)

    def reference_p_floor(self) -> int:
        """floor of p at c_sep = 1, the best-possible subroutine constant."""
        return self.delta + math.isqrt((self.t - 3) * self.delta * self.m)

    def p_value(self) -> float:
        return math.sqrt(self.p_inner) + self.delta

    def allows_part_size(self, size: int) -> bool:
        """Exact test size <= p_impl."""
        if size <= self.delta:
            return True
        return (size - self.delta) ** 2 <= self.p_inner

    def r_of(self, h: int) -> Budget:
        """Radius budget sqrt(c_sep*(h-1)*m/delta) used by the recursion."""
        if self.delta == 0:
            raise ParameterError("radius budget undefined for an edgeless graph")
        return Budget(self.c_sep * (h - 1) * self.m, self.delta)


class KtCertificate(NamedTuple):
    """Explicit K_t-model witnessing that the input had a K_t minor."""

    branch_sets: tuple
    t: int


class RootedPartition(NamedTuple):
    """Partition graph H over edge sets of the host graph.

    ``parts[i]`` is a sorted edge-id tuple; ``h_edges`` the adjacency among
    part ids; ``root`` the part ids of the tracked root clique in caller
    order; ``decomp`` a tree-decomposition of H over part ids whose
    designated bag contains the root.
    """

    parts: tuple
    h_edges: tuple
    root: tuple
    decomp: TreeDecomposition


class PartitionResult(NamedTuple):
    partition: RootedPartition
    embedding: tuple   # per edge id: (part id, slot index >= 1)
    params: Params


# ---------------------------------------------------------------- recursion
#
# The recursion runs as one loop over an explicit stack of calls and
# continuations, so its depth costs heap, not interpreter frames.  Every call
# owns the vertex set of its C and hands it on to at most one child, which
# shrinks it in place.  H and its decomposition grow in a single builder that
# is frozen once; the ids it hands out are the ones the textbook formulation
# (each call returns its own partition, parents relabel and glue) produces.

class _Builder:
    """Parts, H-edges and a ``Decomposition`` of H, appended in recursion order.

    Root edge sets live in slots.  A slot becomes a part the first time its id
    is needed, which is where relabel-and-merge would have numbered it; later
    uses of the slot map to that part, as a merge at the root would.
    """

    def __init__(self):
        self.parts: list = []
        self.h_edges: set = set()
        self.decomp = Decomposition()
        self._slot_edges: list = []
        self._slot_pid: list = []

    def slot(self, edges) -> int:
        self._slot_edges.append(edges)
        self._slot_pid.append(None)
        return len(self._slot_pid) - 1

    def pids(self, slots) -> tuple:
        out = []
        for s in slots:
            pid = self._slot_pid[s]
            if pid is None:
                pid = self._slot_pid[s] = len(self.parts)
                self.parts.append(tuple(sorted(self._slot_edges[s])))
                self._slot_edges[s] = None
            out.append(pid)
        return tuple(out)

    def complete(self, slots) -> int:
        """Complete H on the given root parts, in one bag."""
        ids = self.pids(slots)
        self.h_edges.update((a, b) if a < b else (b, a)
                            for i, a in enumerate(ids) for b in ids[i + 1:])
        return self.decomp.add(ids)

    def attach(self, node: int, root_slots, slot: int) -> int:
        """New part adjacent to every root part, as a leaf bag under ``node``."""
        clique = self.pids(root_slots)
        new = self.pids((slot,))[0]
        self.h_edges.update((pid, new) if pid < new else (new, pid) for pid in clique)
        return attach_vertex(self.decomp, node, new, clique)

    def glue(self, first: int, second: int, shared_slots) -> int:
        return glue(self.decomp, first, second, self.pids(shared_slots))

    def freeze(self, root_slots, node: Optional[int]) -> RootedPartition:
        return RootedPartition(parts=tuple(self.parts),
                               h_edges=tuple(sorted(self.h_edges)),
                               root=self.pids(root_slots), decomp=self.decomp.freeze(node))


class _Piece:
    """An owned, connected vertex set that only ever shrinks.

    Its least vertex therefore only grows: a sorted list, built on first use,
    and a cursor that moves forward over vertices since removed answer it.
    Its induced edge set E(C) is likewise built on first use, or handed down
    by a separator split, and then shrunk along with the vertices, so a later
    search never rescans C for it.
    """

    __slots__ = ("verts", "order", "at", "edges")

    def __init__(self, verts: set, edges: Optional[set] = None):
        self.verts = verts
        self.order: Optional[list] = None
        self.at = 0
        self.edges = edges

    def least(self) -> int:
        if self.order is None:
            self.order = sorted(self.verts)
        while self.order[self.at] not in self.verts:
            self.at += 1
        return self.order[self.at]

    def inner_edges(self, g: Graph) -> set:
        """E(C), carried from here on."""
        if self.edges is None:
            self.edges = set(edges_between(g, self.verts, self.verts))
        return self.edges


def _split(g: Graph, piece: _Piece, around) -> list:
    """Pieces left of ``piece`` after a connected set beside ``around`` left it.

    Every piece holds a vertex of ``around``.  One BFS per such vertex runs
    interleaved; searches that meet merge, and the loop stops once a single
    search still runs.  The pieces the others closed are cut out of
    ``piece``, which, kept rather than copied, is the last one.  This is the
    smaller-side search of Even and Shiloach, "An on-line edge-deletion
    problem" (J. ACM 1981).  Pieces come ordered by smallest vertex, as
    ``components`` orders them.
    """
    c = piece.verts
    seeds = sorted(c.intersection(around))
    if len(seeds) <= 1:
        return [piece]
    owner = dict(zip(seeds, range(len(seeds))))
    alias = list(range(len(seeds)))
    members = [[s] for s in seeds]
    # a search starts at its seed and makes its deque on its first new vertex
    queues: list = [None] * len(seeds)
    started = bytearray(len(seeds))
    live = dict.fromkeys(range(len(seeds)))     # running searches, in order
    closed = []
    while len(live) > 1:
        for i in list(live):
            if i not in live or len(live) == 1:
                continue
            if not started[i]:
                started[i] = 1
                v = seeds[i]
            elif queues[i]:
                v = queues[i].popleft()
            else:
                del live[i]
                closed.append(members[i])
                continue
            for u in g.adj[v]:
                if u not in c:
                    continue
                j = owner.get(u)
                if j is None:
                    owner[u] = i
                    members[i].append(u)
                    if queues[i] is None:
                        queues[i] = deque()
                    queues[i].append(u)
                    continue
                while alias[j] != j:
                    j = alias[j]
                if j != i:          # same piece: fold the smaller search in
                    if len(members[i]) < len(members[j]):
                        i, j = j, i
                    alias[j] = i
                    members[i] += members[j]
                    rest = queues[j] if started[j] else (seeds[j],)
                    if rest:
                        if queues[i] is None:
                            queues[i] = deque()
                        queues[i] += rest
                    members[j] = queues[j] = None
                    del live[j]
    pieces = [piece]
    for verts in closed:
        edges = None
        if piece.edges is not None:     # a closed piece takes its edges along
            edges = set(edges_between(g, verts, c))
            piece.edges -= edges
        c.difference_update(verts)
        pieces.append(_Piece(set(verts), edges))
    pieces.sort(key=_Piece.least)
    return pieces


class _Call(NamedTuple):
    """One recursion instance: C as known-connected pieces, roots as slots."""

    pieces: list
    roots: tuple
    models: tuple
    nbrs: tuple
    parent_measure: Optional[int]


class _Attach(NamedTuple):
    """Hang the part of ``slot`` off the node below, adjacent to the ``roots`` parts."""

    roots: tuple
    slot: int

    def resume(self, out, node, stack):
        return out.attach(node, self.roots, self.slot)


class _Join:
    """Child calls run in order; their nodes glue along the parts of ``shared``.

    Each child is a tuple of stack items, pushed in order with its call
    last, so an ``_Attach`` before the call acts on the call's node before
    that node is glued.
    """

    def __init__(self, children: list, shared: tuple):
        self.todo = children[::-1]
        self.shared = shared
        self.acc = None

    def launch(self, stack) -> None:
        stack.append(self)
        stack += self.todo.pop()

    def resume(self, out, node, stack):
        self.acc = node if self.acc is None else out.glue(self.acc, node, self.shared)
        if not self.todo:
            return self.acc
        self.launch(stack)
        return None


def _enter(g, params, out: _Builder, call: _Call, stack):
    """Start one call: its node, a certificate, or None after pushing work."""
    pieces, roots, models, nbrs, parent_measure = call
    h = len(roots)
    measure = 2 * sum(len(p.verts) for p in pieces) + h
    if parent_measure is not None:
        assert measure < parent_measure, "recursion measure failed to decrease"
    t = params.t

    if len(pieces) > 1:
        _Join([(_Call([p], roots, models, nbrs, measure),) for p in pieces],
              roots).launch(stack)
        return None

    piece = pieces[0]
    c = piece.verts
    targets = [c & nb for nb in nbrs]       # A_i = V(C) ∩ N(U_i)
    empties = [i for i, a in enumerate(targets) if not a]
    assert len(empties) < h, "a proper C inside a connected component neighbors some U_i"
    # drop each root with an empty target, the first one left each time; the
    # stack attaches its part back to the node the call ends in, last first
    for dropped, i in enumerate(empties):
        k = i - dropped
        slot = roots[k]
        roots, models, nbrs, targets = (x[:k] + x[k + 1:]
                                        for x in (roots, models, nbrs, targets))
        stack.append(_Attach(roots, slot))
    h -= len(empties)
    measure -= len(empties)

    # C connected and every A_i nonempty: (U_1..U_h, V(C)) is a K_{h+1}-model.
    # A call enters with h <= t - 1: a tree child has one root more than a
    # step that passed this test, so here h + 1 = t
    if h >= t - 1:
        sets = tuple(tuple(sorted(u)) for u in models) + (tuple(sorted(c)),)
        return KtCertificate(sets, t)

    if len(c) == 1:
        return out.complete(roots)

    if h == 1:
        tos = _one_target_tree(g, targets, c)
    else:   # C is connected with |C| > 1, so no vertex of it is isolated in E(C)
        tos = edge_tree_or_separator(g, targets, params.r_of(h), within=c,
                                     inner=piece.inner_edges(g))

    if tos.is_tree():
        tv = frozenset(tos.tree_vertices)
        e_new = edges_between(g, tv, c)
        assert e_new, "C is connected with |C| > 1, so the tree touches an edge"
        assert params.allows_part_size(len(e_new)), "tree part exceeds the size budget"
        roots2 = roots + (out.slot(e_new),)
        if len(tv) == len(c):               # the tree lies in C, so it is C
            return out.complete(roots2)
        nb_tv = frozenset(neighborhood(g, tv))
        c -= tv
        if piece.edges is not None:
            piece.edges.difference_update(e_new)
        stack.append(_Call(_split(g, piece, nb_tv), roots2, models + (tv,),
                           nbrs + (nb_tv,), measure))
        return None

    comps: list = []                # the components of C - F
    f = frozenset(minimalize_edge_separator(g, tos.separator, targets, within=c,
                                            classes=comps, fragments=tos.fragments))
    assert f, "connected C with nonempty targets forces a nonempty separator"
    assert params.allows_part_size(len(f)), "separator part exceeds the size budget"
    assert len(comps) >= 2, "an inclusion-minimal separator splits C"
    # a piece missing A_k takes F in place of root k and grows U_k by every
    # piece that meets A_k; root k's part is attached back after its call
    missing = [next(i for i, a in enumerate(targets) if not (cset & a)) for cset in comps]
    grown = {}
    for k in set(missing):
        x = frozenset(v for other in comps if other & targets[k] for v in other)
        u2 = models[k] | x
        grown[k] = (u2, (nbrs[k] | frozenset(neighborhood(g, x))) - u2)
    # E(C), built for the search, less F: each edge lies in one piece
    piece_of = {v: i for i, cset in enumerate(comps) for v in cset}
    inner: list = [set() for _ in comps]
    for e in piece.edges - f:
        inner[piece_of[g.edges[e][0]]].add(e)
    f_slot = out.slot(f)
    children = []
    for cset, k, edges in zip(comps, missing, inner):
        sub_roots = roots[:k] + (f_slot,) + roots[k + 1:]
        u2, nb2 = grown[k]
        children.append((_Attach(sub_roots, roots[k]),
                         _Call([_Piece(cset, edges)], sub_roots,
                               models[:k] + (u2,) + models[k + 1:],
                               nbrs[:k] + (nb2,) + nbrs[k + 1:], measure)))
    _Join(children, (f_slot,) + roots).launch(stack)
    return None


def _run(g, params, out: _Builder, call: _Call):
    """Drive one instance to its decomposition node, or to a certificate."""
    stack = [call]
    node = None
    while stack:
        item = stack.pop()
        if isinstance(item, _Call):
            node = _enter(g, params, out, item, stack)
        else:
            node = item.resume(out, node, stack)
        if isinstance(node, KtCertificate):
            return node
    return node


# ---------------------------------------------------------------- public ops

def partition_line_graph(g: Graph, t: int) -> Union[PartitionResult, KtCertificate]:
    """Partition L(G) component by component, or return a K_t certificate.

    Isolated vertices contribute nothing.  In every other component the
    smallest vertex seeds the recursion: its edge set is the first root part
    and the vertex itself the first model set.
    """
    params = Params.for_graph(g, t)
    out = _Builder()
    node = None
    roots: tuple = ()
    for comp in components(g):
        if len(comp) == 1:
            continue
        x = comp[0]
        sub_roots = (out.slot(frozenset(g.adj_eids[x])),)
        sub = _run(g, params, out, _Call(
            _split(g, _Piece(set(comp[1:])), g.adj[x]), sub_roots,
            (frozenset((x,)),), (frozenset(g.adj[x]),), None))
        if isinstance(sub, KtCertificate):
            return sub
        if node is None:
            roots, node = sub_roots, sub
        else:       # a disjoint union glues along the empty clique, unrooted
            roots, node = (), out.glue(node, sub, ())
    part = out.freeze(roots, node)
    return PartitionResult(partition=part, embedding=_build_embedding(g, part),
                           params=params)


def line_graph_tree_decomposition(g: Graph, t: int
                                  ) -> Union[TreeDecomposition, KtCertificate]:
    """Tree-decomposition of L(G) with width <= (t-1)*floor(p_impl) - 1."""
    res = partition_line_graph(g, t)
    if isinstance(res, KtCertificate):
        return res
    return product_blowup(res.partition.decomp, res.partition.parts)


def _build_embedding(g: Graph, p: RootedPartition) -> tuple:
    slots: list = [None] * g.m
    for pid, part in enumerate(p.parts):
        for rank, eid in enumerate(part):
            slots[eid] = (pid, rank + 1)
    assert all(s is not None for s in slots), "every edge must land in a part"
    return tuple(slots)


# ---------------------------------------------------------------- validators

def validate_partition(g: Graph, p: RootedPartition,
                       params: Params) -> tuple[bool, Optional[str]]:
    """All RootedPartition invariants; returns (ok, first violated clause)."""
    uni = set(range(g.m))
    part_of: dict = {}
    for i, part in enumerate(p.parts):
        if not part:
            return False, f"parts: part {i} is empty"
        ps = set(part)
        if not ps <= uni:
            return False, f"parts: part {i} leaves the edge universe"
        if not part_of.keys().isdisjoint(ps):
            return False, f"parts: part {i} overlaps an earlier part"
        if not params.allows_part_size(len(part)):
            return False, f"part size: part {i} has {len(part)} > p_impl edges"
        part_of.update(dict.fromkeys(ps, i))
    if len(part_of) != g.m:
        return False, "coverage: parts do not cover the edge universe"

    h_set = set()
    for a, b in p.h_edges:
        if a == b or not (0 <= a < len(p.parts) and 0 <= b < len(p.parts)):
            return False, "h-edges: malformed part adjacency"
        h_set.add((a, b) if a < b else (b, a))
    pair = _unjoined_pair(g, part_of, h_set)
    if pair:
        return False, ("partition property: adjacent edges "
                       f"{pair[0]},{pair[1]} in non-adjacent parts")
    for i, a in enumerate(p.root):
        for b in p.root[i + 1:]:
            if ((a, b) if a < b else (b, a)) not in h_set:
                return False, "root clique: root parts not pairwise adjacent"
    hg = Graph(len(p.parts), h_set)
    ok, why = validate_decomposition(hg, p.decomp)
    if not ok:
        return False, f"decomposition: {why}"
    if len(p.parts) and width(p.decomp) > params.t - 2:
        return False, f"width: decomposition width {width(p.decomp)} > t-2"
    if p.root:
        if p.decomp.designated is None:
            return False, "designated: no designated node tracks the root clique"
        if not set(p.root) <= set(p.decomp.bags[p.decomp.designated]):
            return False, "designated: designated bag misses the root clique"
    return True, None


def validate_embedding(g: Graph, p: RootedPartition, embedding,
                       params: Params) -> tuple[bool, Optional[str]]:
    """Embedding realizes L(G) inside H boxtimes K_{floor(p)}."""
    if len(embedding) != g.m:
        return False, "embedding: one entry per edge required"
    part_of = {e: i for i, part in enumerate(p.parts) for e in part}
    p_floor = params.p_floor()
    used = set()
    for eid, (pid, slot) in enumerate(embedding):
        if eid not in part_of or part_of[eid] != pid:
            return False, f"embedding: edge {eid} mapped to the wrong part"
        if not (1 <= slot <= max(p_floor, 1)):
            return False, f"embedding: slot {slot} outside 1..floor(p)"
        if (pid, slot) in used:
            return False, "embedding: slot reused within a part"
        used.add((pid, slot))
    # each edge sits in its part, and (part, slot) is unique: only parts can clash
    h_set = {(a, b) if a < b else (b, a) for a, b in p.h_edges}
    if _unjoined_pair(g, part_of, h_set):
        return False, "embedding: adjacent edges in non-adjacent parts"
    return True, None


def _unjoined_pair(g: Graph, part_of: dict, h_set: set) -> Optional[tuple]:
    """The first two adjacent edges in distinct parts that H does not join.

    ``part_of`` maps every edge to its part.  A vertex first checks its set
    of parts, not its pairs of edges, which costs its degree plus the square
    of its part count; in a valid partition those parts form a clique of H,
    so there are at most t - 1 of them.  Only a vertex that fails runs the
    pair scan, which names the first pair.
    """
    for eids in g.adj_eids:
        ps = sorted({part_of[e] for e in eids})
        if all((a, b) in h_set for i, a in enumerate(ps) for b in ps[i + 1:]):
            continue
        for i, e in enumerate(eids):
            for f in eids[i + 1:]:
                pa, pb = part_of[e], part_of[f]
                if pa != pb and ((pa, pb) if pa < pb else (pb, pa)) not in h_set:
                    return e, f
    return None


def validate_certificate(g: Graph, cert: KtCertificate) -> tuple[bool, Optional[str]]:
    if len(cert.branch_sets) != cert.t:
        return False, f"certificate: expected {cert.t} branch sets"
    return validate_model(g, cert.branch_sets)
