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
from itertools import accumulate
from typing import NamedTuple, Optional, Union

from .errors import ParameterError
from .graphs import (Graph, LineView, components, edges_between, max_degree,
                     neighborhood, validate_model)
from .tree_or_sep import (Budget, _one_target_tree, edge_tree_or_separator,
                          minimalize_edge_separator)
from .treedecomp import (Decomposition, TreeDecomposition, attach_vertex,
                         check_decomposition, glue, product_blowup, width)


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
        return self._replace(c_sep=1).p_floor()

    def separator_bound(self) -> int:
        """(t-1)*floor(p_impl): the size bound of an edge separator."""
        return (self.t - 1) * self.p_floor()

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
    params: Params

    @property
    def embedding(self) -> tuple:
        """Per edge id, (part id, slot): each part numbers its edges 1..|part|."""
        slots: list = [None] * sum(map(len, self.partition.parts))
        for pid, part in enumerate(self.partition.parts):
            for rank, eid in enumerate(part, 1):
                slots[eid] = (pid, rank)
        return tuple(slots)


# ---------------------------------------------------------------- recursion
#
# The recursion runs as one loop, so its depth costs heap, not interpreter
# frames.  A call is a plain tuple (pieces, roots, parent measure), and each
# root is one record (slot, U_i, N(U_i)): the slot of its part, its model set
# and that set's open neighborhood.  Every call owns the vertex set of its C
# and hands it on to at most one child, which shrinks it in place.  A step
# hands back the call to enter next, its own tree child or the first child of
# a split, so a path or a tree is peeled in place and no call is ever pushed:
# the stack holds only the continuations that wait for a node, attaches as
# (roots, slot) pairs and ``_Join``s.  H and its decomposition grow in a
# single builder that is frozen once; the ids it hands out are the ones the
# textbook formulation (each call returns its own partition, parents relabel
# and glue) produces.

class _Builder:
    """Parts, H-edges and a ``Decomposition`` of H, appended in recursion order.

    Root edge sets live in slots.  A slot becomes a part the first time its id
    is needed, which is where relabel-and-merge would have numbered it; later
    uses of the slot map to that part, as a merge at the root would.
    """

    def __init__(self, g: Graph):
        self.parts: list = []
        self.h_edges: set = set()
        self.decomp = Decomposition()
        self._slots: list = []      # per slot: its edge set, then its part id
        self.line = LineView(g)     # the run's searches share its marks

    def slot(self, edges) -> int:
        self._slots.append(edges)
        return len(self._slots) - 1

    def pid(self, s: int) -> int:
        x = self._slots[s]
        if type(x) is int:
            return x
        pid = self._slots[s] = len(self.parts)
        self.parts.append(tuple(sorted(x)))
        return pid

    def complete(self, roots) -> int:
        """Complete H on the given root parts, in one bag."""
        ids = [self.pid(s) for s, _, _ in roots]
        self.h_edges.update((a, b) if a < b else (b, a)
                            for i, a in enumerate(ids) for b in ids[i + 1:])
        return self.decomp.add(ids)

    def attach(self, node: int, roots, slot: int) -> int:
        """New part adjacent to every root part, as a leaf bag under ``node``."""
        clique = []
        for s, _, _ in roots:
            x = self._slots[s]
            clique.append(x if type(x) is int else self.pid(s))
        new = self.pid(slot)
        for pid in clique:
            self.h_edges.add((pid, new) if pid < new else (new, pid))
        return attach_vertex(self.decomp, node, new, clique)

    def glue(self, first: int, second: int, shared_slots) -> int:
        return glue(self.decomp, first, second, [self.pid(s) for s in shared_slots])

    def freeze(self, roots, node: Optional[int]) -> RootedPartition:
        return RootedPartition(parts=tuple(self.parts),
                               h_edges=tuple(sorted(self.h_edges)),
                               root=tuple(self.pid(s) for s, _, _ in roots),
                               decomp=self.decomp.freeze(node))


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
    seeds = c.intersection(around)
    if len(seeds) <= 1:
        return [piece]
    seeds = sorted(seeds)
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


class _Join:
    """Child calls run in order; their nodes glue along the slots ``shared``.

    Each child is an (attach or None, call) pair.  Launching a child pushes
    the join and then the child's attach, and hands back its call, so the
    attach acts on the call's node before that node is glued.
    """

    __slots__ = ("todo", "shared", "acc")

    def __init__(self, children: list, shared: list):
        self.todo = children[::-1]
        self.shared = shared
        self.acc = None

    def launch(self, stack) -> tuple:
        stack.append(self)
        attach, call = self.todo.pop()
        if attach is not None:
            stack.append(attach)
        return call

    def resume(self, out, node, stack):
        self.acc = node if self.acc is None else out.glue(self.acc, node, self.shared)
        return self.launch(stack) if self.todo else self.acc


def _enter(g, params, out: _Builder, call: tuple, stack):
    """One step of ``call``: its node, a certificate, or the next call to enter.

    Work that waits for a node is pushed on ``stack``.
    """
    pieces, roots, parent_measure = call
    h = len(roots)
    if len(pieces) > 1:
        measure = 2 * sum(len(p.verts) for p in pieces) + h
        assert measure < parent_measure, "recursion measure failed to decrease"
        return _Join([(None, ([p], roots, measure)) for p in pieces],
                     [s for s, _, _ in roots]).launch(stack)

    piece = pieces[0]
    c = piece.verts
    measure = 2 * len(c) + h
    assert measure < parent_measure, "recursion measure failed to decrease"
    targets = [c & nb for _, _, nb in roots]    # A_i = V(C) ∩ N(U_i)
    if not all(targets):
        assert any(targets), "a proper C inside a connected component neighbors some U_i"
        # drop each root with an empty target, the first one left each time;
        # the stack attaches its part back to the node the call ends in, last
        # first
        k = 0
        while k < len(targets):
            if targets[k]:
                k += 1
                continue
            slot = roots[k][0]
            roots = roots[:k] + roots[k + 1:]
            del targets[k]
            stack.append((roots, slot))
        h = len(roots)
        measure = 2 * len(c) + h

    # C connected and every A_i nonempty: (U_1..U_h, V(C)) is a K_{h+1}-model.
    # A call enters with h <= t - 1: a tree child has one root more than a
    # step that passed this test, so here h + 1 = t
    if h >= params.t - 1:
        sets = tuple(tuple(sorted(u)) for _, u, _ in roots) + (tuple(sorted(c)),)
        return KtCertificate(sets, params.t)

    if len(c) == 1:
        return out.complete(roots)

    if h == 1:      # the tree (v,): its edges into C are read off v's lists
        v = _one_target_tree(g, targets, c)
        tv = (v,)
        e_new = []
        for u, e in zip(g.adj[v], g.adj_eids[v]):
            if u in c:
                e_new.append(e)
    else:   # C is connected with |C| > 1, so no vertex of it is isolated in E(C)
        tos = edge_tree_or_separator(g, targets, params.r_of(h), within=c,
                                     inner=piece.inner_edges(g), line=out.line)
        if not tos.is_tree():
            return _separate(g, params, out, piece, tos, targets, roots, measure, stack)
        tv = tos.tree_vertices
        e_new = edges_between(g, tv, c)
    assert e_new, "C is connected with |C| > 1, so the tree touches an edge"
    assert params.allows_part_size(len(e_new)), "tree part exceeds the size budget"
    nb_tv = frozenset(g.adj[v]) if h == 1 else frozenset(neighborhood(g, tv))
    roots += ((out.slot(e_new), tv, nb_tv),)
    if len(tv) == len(c):                   # the tree lies in C, so it is C
        return out.complete(roots)
    c.difference_update(tv)
    if piece.edges is not None:
        piece.edges.difference_update(e_new)
    return _split(g, piece, nb_tv), roots, measure


def _separate(g, params, out: _Builder, piece: _Piece, tos, targets, roots,
              measure, stack) -> tuple:
    """The separator step of ``_enter``: one child per component of C - F."""
    c = piece.verts
    comps: list = []                # the components of C - F
    f = frozenset(minimalize_edge_separator(g, tos.separator, targets, within=c,
                                            classes=comps, fragments=tos.fragments))
    assert f, "connected C with nonempty targets forces a nonempty separator"
    assert params.allows_part_size(len(f)), "separator part exceeds the size budget"
    assert len(comps) >= 2, "an inclusion-minimal separator splits C"
    # a piece missing A_k takes F in place of root k's part and grows U_k by
    # every piece that meets A_k; root k's part is attached back after its call
    missing = [next(i for i, a in enumerate(targets) if not (cset & a)) for cset in comps]
    f_slot = out.slot(f)
    grown = {}                      # k: the roots of a piece missing A_k
    for k in set(missing):
        _, u, nb = roots[k]
        x = frozenset(v for other in comps if other & targets[k] for v in other)
        u2 = x.union(u)
        nb2 = frozenset(neighborhood(g, x)).union(nb) - u2
        grown[k] = roots[:k] + ((f_slot, u2, nb2),) + roots[k + 1:]
    # E(C), built for the search, less F: each edge lies in one piece
    piece_of = {v: i for i, cset in enumerate(comps) for v in cset}
    inner: list = [set() for _ in comps]
    for e in piece.edges - f:
        inner[piece_of[g.edges[e][0]]].add(e)
    children = [((grown[k], roots[k][0]), ([_Piece(cset, edges)], grown[k], measure))
                for cset, k, edges in zip(comps, missing, inner)]
    return _Join(children, [f_slot] + [s for s, _, _ in roots]).launch(stack)


def _run(g, params, out: _Builder, call: tuple):
    """Drive one instance to its decomposition node, or to a certificate.

    ``x`` is a call to enter (a plain tuple), a finished node (an int), which
    the stack's continuations take until one hands back a call, or a
    certificate.
    """
    stack: list = []
    x = call
    while True:
        x = _enter(g, params, out, x, stack)
        while type(x) is int and stack:
            item = stack.pop()
            if type(item) is tuple:
                roots, slot = item
                x = out.attach(x, roots, slot)
            else:
                x = item.resume(out, x, stack)
        if type(x) is not tuple:
            return x


# ---------------------------------------------------------------- public ops

def partition_line_graph(g: Graph, t: int) -> Union[PartitionResult, KtCertificate]:
    """Partition L(G) component by component, or return a K_t certificate.

    Isolated vertices contribute nothing.  In every other component the
    smallest vertex seeds the recursion: its edge set is the first root part
    and the vertex itself the first model set.
    """
    params = Params.for_graph(g, t)
    out = _Builder(g)
    node = None
    roots: tuple = ()
    for comp in components(g):
        if len(comp) == 1:
            continue
        x = comp[0]
        sub_roots = ((out.slot(frozenset(g.adj_eids[x])), (x,), frozenset(g.adj[x])),)
        # the component before its first root measures 2|comp|
        sub = _run(g, params, out, (_split(g, _Piece(set(comp[1:])), g.adj[x]), sub_roots,
                                    2 * len(comp)))
        if isinstance(sub, KtCertificate):
            return sub
        if node is None:
            roots, node = sub_roots, sub
        else:       # a disjoint union glues along the empty clique, unrooted
            roots, node = (), out.glue(node, sub, ())
    part = out.freeze(roots, node)
    assert sum(map(len, part.parts)) == g.m, "every edge must land in a part"
    return PartitionResult(partition=part, params=params)


def line_graph_tree_decomposition(g: Graph, t: int
                                  ) -> Union[TreeDecomposition, KtCertificate]:
    """Tree-decomposition of L(G) with width <= (t-1)*floor(p_impl) - 1."""
    res = partition_line_graph(g, t)
    if isinstance(res, KtCertificate):
        return res
    return product_blowup(res.partition.decomp, res.partition.parts)


# ---------------------------------------------------------------- validators

def validate_partition(g: Graph, p: RootedPartition,
                       params: Params) -> tuple[bool, Optional[str]]:
    """All RootedPartition invariants; returns (ok, first violated clause).

    Edges map to parts in one list of m ints, and H is read off its sorted
    edge pairs (see ``_h_keys``); no set, dict or Graph of H is built.
    """
    m, k = g.m, len(p.parts)
    part_of = [-1] * m
    covered = 0
    for i, part in enumerate(p.parts):
        if not part:
            return False, f"parts: part {i} is empty"
        overlaps, repeat = False, None
        for e in part:
            if not (isinstance(e, int) and 0 <= e < m):
                return False, f"parts: part {i} leaves the edge universe"
            q = part_of[e]
            if q < 0:
                part_of[e] = i
            elif q != i:
                overlaps = True
            elif repeat is None:
                repeat = e
        if overlaps:
            return False, f"parts: part {i} overlaps an earlier part"
        if repeat is not None:
            return False, f"parts: part {i} repeats edge {repeat}"
        if not params.allows_part_size(len(part)):
            return False, f"part size: part {i} has {len(part)} > p_impl edges"
        covered += len(part)
    if covered != m:
        return False, "coverage: parts do not cover the edge universe"

    for a, b in p.h_edges:
        if (not isinstance(a, int) or not isinstance(b, int) or a == b
                or not (0 <= a < k and 0 <= b < k)):
            return False, "h-edges: malformed part adjacency"
    keys, joined = _h_keys(p.h_edges, k)
    pair = _unjoined_pair(g, part_of, joined)
    if pair:
        return False, ("partition property: adjacent edges "
                       f"{pair[0]},{pair[1]} in non-adjacent parts")
    del part_of
    for i, a in enumerate(p.root):
        for b in p.root[i + 1:]:
            if not isinstance(a, int) or not isinstance(b, int) or not joined(a, b):
                return False, "root clique: root parts not pairwise adjacent"
    ok, why = check_decomposition(k, (divmod(x, k) for x in keys), p.decomp)
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
    """Embedding realizes L(G) inside H boxtimes K_{floor(p)}.

    Slots are marked in one bytearray of m flags: part i's slot s sits at
    ``start[i] + s - 1`` when s is at most the part's size, and only a
    larger slot, which produced embeddings never use, goes to a set.
    """
    m = g.m
    if len(embedding) != m:
        return False, "embedding: one entry per edge required"
    part_of = [-1] * m              # per edge, the last part listing it
    for i, part in enumerate(p.parts):
        for e in part:
            if isinstance(e, int) and 0 <= e < m:
                part_of[e] = i
    size = [0] * len(p.parts)
    for q in part_of:
        if q >= 0:
            size[q] += 1
    start = [0]
    start += accumulate(size)
    used, high = bytearray(m), set()
    cap = max(params.p_floor(), 1)
    for eid, (pid, slot) in enumerate(embedding):
        q = part_of[eid]
        if q < 0 or q != pid:
            return False, f"embedding: edge {eid} mapped to the wrong part"
        if not isinstance(slot, int) or not (1 <= slot <= cap):
            return False, f"embedding: slot {slot} outside 1..floor(p)"
        x = start[q] + slot - 1
        if x < start[q + 1]:
            if used[x]:
                return False, "embedding: slot reused within a part"
            used[x] = 1
        elif (q, slot) in high:
            return False, "embedding: slot reused within a part"
        else:
            high.add((q, slot))
    # each edge sits in its part, and (part, slot) is unique: only parts can clash
    if _unjoined_pair(g, part_of, _h_keys(p.h_edges, len(p.parts))[1]):
        return False, "embedding: adjacent edges in non-adjacent parts"
    return True, None


def _h_keys(h_edges, k: int) -> tuple[list, object]:
    """H's edges (a, b), a < b, as sorted keys a * k + b, and the test of
    whether H joins two parts, which bisects them.

    An h-edge that is not two distinct part ids in 0..k-1 joins nothing and
    is left out.
    """
    from bisect import bisect_left      # only checks look H up

    keys = sorted(a * k + b if a < b else b * k + a for a, b in h_edges
                  if isinstance(a, int) and isinstance(b, int) and a != b
                  and 0 <= a < k and 0 <= b < k)

    def joined(a, b) -> bool:
        if not (0 <= a < k and 0 <= b < k):
            return False
        key = a * k + b if a < b else b * k + a
        i = bisect_left(keys, key)
        return i < len(keys) and keys[i] == key

    return keys, joined


def _unjoined_pair(g: Graph, part_of: list, joined) -> Optional[tuple]:
    """The first two adjacent edges in distinct parts that H does not join.

    ``part_of`` maps every edge to its part, and ``joined`` is ``_h_keys``'s
    test.  A vertex first checks its set of parts, not its pairs of edges,
    which costs its degree plus the square of its part count; in a valid
    partition those parts form a clique of H, so there are at most t - 1 of
    them.  Only a vertex that fails runs the pair scan, which names the
    first pair.
    """
    for eids in g.adj_eids:
        ps = {part_of[e] for e in eids}
        if len(ps) < 2:
            continue
        ps = sorted(ps)
        if all(joined(a, b) for i, a in enumerate(ps) for b in ps[i + 1:]):
            continue
        for i, e in enumerate(eids):
            for f in eids[i + 1:]:
                pa, pb = part_of[e], part_of[f]
                if pa != pb and not joined(pa, pb):
                    return e, f
    return None


def validate_certificate(g: Graph, cert: KtCertificate) -> tuple[bool, Optional[str]]:
    if len(cert.branch_sets) != cert.t:
        return False, f"certificate: expected {cert.t} branch sets"
    return validate_model(g, cert.branch_sets)
