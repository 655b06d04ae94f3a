"""Tree-decompositions as certified values plus the constructive algebra on them.

A decomposition carries an optional *designated* node whose bag is known to
contain the currently tracked root clique.  Decompositions are built in one
append-only ``Decomposition``: the partition engine only ever glues and
attaches at nodes it holds, so each step appends a node instead of copying.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence

from .graphs import Graph, LineView, VertexSet


class TreeDecomposition(NamedTuple):
    """Bags indexed by the nodes 0..k-1 of a tree.

    ``bags[i]`` is a sorted vertex tuple over the decomposed graph's universe.
    ``designated``, when set, points at a node whose bag contains
    ``root_clique``.
    """

    bags: tuple
    tree_edges: tuple
    designated: Optional[int] = None
    root_clique: Optional[VertexSet] = None

    @property
    def n_nodes(self) -> int:
        return len(self.bags)


def width(d: TreeDecomposition) -> int:
    """Max bag size minus one; -1 for the empty decomposition."""
    return max((len(b) for b in d.bags), default=0) - 1


class Decomposition:
    """A tree-decomposition under construction; nodes are only ever appended.

    While it grows it may be a forest; ``glue`` joins two of its trees.  Ids
    handed out stay valid, so a caller builds bottom-up without relabelling,
    and ``freeze`` turns the result into a TreeDecomposition once.
    """

    def __init__(self):
        self.bags: list = []
        self.tree_edges: list = []

    def add(self, bag: Iterable[int]) -> int:
        """A new node, in a tree of its own, with the given bag."""
        self.bags.append(tuple(sorted(set(bag))))
        return len(self.bags) - 1

    def freeze(self, designated: Optional[int] = None) -> TreeDecomposition:
        """The decomposition as a value; ``designated``'s bag is its root clique."""
        return TreeDecomposition(
            bags=tuple(self.bags), tree_edges=tuple(self.tree_edges), designated=designated,
            root_clique=None if designated is None else self.bags[designated])


def validate_decomposition(g, d: TreeDecomposition) -> tuple[bool, Optional[str]]:
    """Check the three decomposition axioms plus structural sanity.

    Returns (ok, first violated clause).  ``g`` is the decomposed graph, a
    Graph or a LineView; an empty decomposition is valid exactly for the
    graph with no vertices.
    """
    return check_decomposition(g.n, g if isinstance(g, LineView) else g.edges, d)


def check_decomposition(n: int, edges, d: TreeDecomposition) -> tuple[bool, Optional[str]]:
    """``validate_decomposition`` for the graph on 0..n-1 with ``edges``.

    ``edges`` yields the graph's (u, v) pairs, u < v, in ascending order, or
    is the LineView of the line graph decomposed.  The edges of a line graph
    at one G-vertex form a clique, and one bag holding all of that vertex's
    edges covers them all.  By the Helly property of subtrees (Gavril, JCTB
    1974) a valid decomposition has such a bag, so L(G) is covered vertex by
    vertex.  Only when some vertex lacks one are the edges of L(G) scanned
    pair by pair, in order, to name the first uncovered one.

    Each vertex's ascending node list is one slice of a flat list,
    ``nodes[at[v]:at[v + 1]]``, and no bag is copied into a set.
    """
    why, parent = _tree_defect(d)
    if why:
        return False, why

    for bag in d.bags:
        for v in bag:
            if not (0 <= v < n):
                return False, f"vertex coverage: bag element {v} out of range"
    at, nodes = _node_lists(n, d.bags)
    if any(at[v] == at[v + 1] for v in range(n)):
        return False, "vertex coverage: some vertex appears in no bag"

    if isinstance(edges, LineView):
        shared = all(len(es) < 2
                     or least_common_node(nodes[at[x]:at[x + 1]] for x in es) is not None
                     for es in edges.g.adj_eids)
        edges = () if shared else edges.edge_pairs()
    held = (None, None)             # the first end of the pairs and its node set
    for u, v in edges:              # ascending, so each first end comes in one run
        if held[0] != u:
            held = (u, set(nodes[at[u]:at[u + 1]]))
        if held[1].isdisjoint(nodes[at[v]:at[v + 1]]):
            return False, f"edge coverage: edge ({u},{v}) in no bag"

    split = _split_members(n, at, nodes, parent)
    if split:                       # named: the one that occurs first, bag by bag
        v = min(split, key=lambda v: (nodes[at[v]], d.bags[nodes[at[v]]].index(v)))
        return False, f"subtree connectivity: vertex {v} spans a disconnected node set"

    if d.designated is not None:
        if not (0 <= d.designated < d.n_nodes):
            return False, "designated bag: designated node out of range"
        if d.root_clique is not None and not set(d.root_clique) <= set(d.bags[d.designated]):
            return False, "designated bag: designated bag misses the root clique"
    return True, None


def _tree_defect(d: TreeDecomposition) -> tuple[Optional[str], list]:
    """The first tree-structure violation of ``d``, or None, and each
    node's parent in ``rooted_tree``'s BFS from node 0."""
    k = d.n_nodes
    for a, b in d.tree_edges:
        if not (0 <= a < k and 0 <= b < k) or a == b:
            return "tree structure: bad tree edge", []
    nbrs, parent, order = rooted_tree(d)
    if len(order) == k and (k == 0 or len(d.tree_edges) == k - 1):
        return None, parent         # k - 1 edges that connect k nodes: none repeats
    last = [-1] * k                 # last[b] == a: a lists b once already
    for a, bs in enumerate(nbrs):
        for b in bs:
            if last[b] == a:
                return "tree structure: duplicate tree edge", []
            last[b] = a
    if k > 0 and len(d.tree_edges) != k - 1:
        return "tree structure: edge count is not nodes-1", []
    return "tree structure: tree is disconnected", []


def _split_members(n: int, at: list, nodes: list, parent: list) -> list:
    """The members 0..n-1 whose nodes, ``nodes[at[v]:at[v + 1]]``, are not
    connected in the tree of ``parent``, ascending.

    The nodes holding v are connected exactly when one of them is a top:
    the root, or a node whose parent's bag lacks v.  A bag that repeats v
    lists its node twice in a row, so a repeat of the last top is skipped.
    """
    mark = [-1] * len(parent)       # mark[i] == v: node i's bag holds v
    split = []
    for v in range(n):
        holding = nodes[at[v]:at[v + 1]]
        for j in holding:
            mark[j] = v
        top = -1
        for j in holding:
            p = parent[j]
            if (p < 0 or mark[p] != v) and j != top:
                if top >= 0:
                    split.append(v)
                    break
                top = j
    return split


def _node_lists(n: int, bags) -> tuple[list, list]:
    """Each vertex's nodes as flat lists (at, nodes): the nodes whose bags
    hold v are ``nodes[at[v]:at[v + 1]]``, ascending, and a bag that holds v
    twice lists its node twice."""
    fill = [0] * n
    for bag in bags:
        for v in bag:
            fill[v] += 1
    at = [0]
    at += accumulate(fill)
    fill[:] = at[:n]
    nodes = [0] * at[n]
    for i, bag in enumerate(bags):
        for v in bag:
            nodes[fill[v]] = i
            fill[v] += 1
    return at, nodes


def rooted_tree(d: TreeDecomposition) -> tuple[list, list, list]:
    """The tree of ``d`` rooted at node 0, by one BFS over ``d.tree_edges``.

    Returns each node's neighbour list, each node's parent (-1 at the root,
    None at a node the root does not reach) and the reached nodes in BFS
    order; a valid tree reaches all of its nodes.
    """
    k = d.n_nodes
    nbrs: list = [[] for _ in range(k)]
    for a, b in d.tree_edges:
        nbrs[a].append(b)
        nbrs[b].append(a)
    parent: list = [None] * k
    order = []
    if k:
        parent[0] = -1
        order.append(0)
    for v in order:                     # order grows as it is read: the BFS queue
        for u in nbrs[v]:
            if parent[u] is None:
                parent[u] = v
                order.append(u)
    return nbrs, parent, order


def reduced(d: TreeDecomposition) -> TreeDecomposition:
    """``d`` with every tree edge whose one bag lies inside the other
    contracted into the larger bag.

    No tree edge of the result joins a bag to a superset of it, and its
    bags are bags of ``d``, so the width is ``d``'s and a tree of two or
    more nodes has at most as many nodes as vertices: rooted anywhere, each
    other node holds a vertex its parent lacks, whose subtree tops there.
    Of two equal bags the smaller node id stays; survivors keep their order
    and are renumbered 0, 1, ...; the designated node becomes the one that
    absorbed it.  ``d`` must be a tree whose bags are sorted tuples of
    distinct members.

    One BFS from node 0 visits each node x after its parent and puts x in
    its parent's group when x's bag or the group's holds the other; a group
    keeps its largest bag.  Adjacent groups stay incomparable: by the
    running intersection property, a group Q next to the parent's group R
    shares with x only members of R's bag.  So when x's bag holds R's and
    becomes the group's, Q inside x would put Q inside R, and x inside Q
    would put R inside Q.
    The test stamps the group's bag in one list and counts x's stamped
    members, so no bag is copied into a set.
    """
    k = d.n_nodes
    _, parent, order = rooted_tree(d)
    if len(order) != k or len(d.tree_edges) != max(k - 1, 0):
        raise ValueError("reduced: the decomposition is not a tree")
    bags = d.bags
    group = list(range(k))          # per node, the first node of its group
    top = list(range(k))            # per group, the node whose bag it keeps
    mark = [-1] * (1 + max((b[-1] for b in bags if b), default=-1))
    stamped = -1                    # the node whose bag ``mark`` holds
    for x in order[1:]:
        q = group[parent[x]]
        r = top[q]
        if stamped != r:
            for v in bags[r]:
                mark[v] = r
            stamped = r
        common = 0
        for v in bags[x]:
            if mark[v] == r:
                common += 1
        inside, holds = common == len(bags[x]), common == len(bags[r])
        if inside or holds:
            group[x] = q
            if holds and (not inside or x < r):
                top[q] = x
    new = [-1] * k
    kept = []
    for x in range(k):
        if top[group[x]] == x:
            new[x] = len(kept)
            kept.append(bags[x])
    at = [new[top[q]] for q in group]
    return TreeDecomposition(
        bags=tuple(kept), root_clique=d.root_clique,
        tree_edges=tuple((at[a], at[b]) for a, b in d.tree_edges if at[a] != at[b]),
        designated=None if d.designated is None else at[d.designated])


def least_common_node(node_lists) -> Optional[int]:
    """Least node in every one of ``node_lists``, or None.

    ``node_lists`` yields at least one list: for each member, the nodes whose
    bags hold it.  The lists are intersected, the first as a set and the
    rest as read, so no bag is copied or scanned.
    """
    lists = iter(node_lists)
    common = set(next(lists))
    for nodes in lists:
        if not common:
            break
        common.intersection_update(nodes)
    return min(common) if common else None


def glue(d: Decomposition, first: int, second: int, shared: Iterable[int]) -> int:
    """Join two trees of ``d`` whose graphs intersect in the clique ``shared``.

    A fresh connector node with bag = shared is wired to the nodes ``first``
    and ``second``, whose bags must both hold it, and its id is returned.
    Width of the result is max(width of either tree, |shared| - 1).
    """
    shared = tuple(shared)
    for side, node in (("first", first), ("second", second)):
        if not _holds(d.bags[node], shared):
            raise ValueError(f"glue: {side} node's bag does not contain the shared clique")
    conn = d.add(shared)
    d.tree_edges += ((conn, first), (conn, second))
    return conn


def attach_vertex(d: Decomposition, host: int, v: int, clique: Iterable[int]) -> int:
    """Add a new vertex adjacent to an existing clique (Fact-style extension).

    A leaf bag clique + {v} is hung off ``host``, whose bag must contain the
    clique, and the leaf's id is returned.
    """
    members = set(clique)
    if not _holds(d.bags[host], members):
        raise ValueError("attach_vertex: the host bag does not contain the clique")
    members.add(v)
    d.bags.append(tuple(sorted(members)))
    leaf = len(d.bags) - 1
    d.tree_edges.append((host, leaf))
    return leaf


def _holds(bag, members) -> bool:
    """Whether ``bag`` holds every one of ``members``, tested in place."""
    for x in members:
        if x not in bag:
            return False
    return True


def product_blowup(d: TreeDecomposition,
                   part_members: Sequence) -> TreeDecomposition:
    """Replace every part id in every bag by that part's member ids.

    Used to turn a decomposition of the partition graph H into one of the
    line graph: bag B becomes the union of the edge sets of its parts.  Width
    is at most (max bag size of d) * (max part size) - 1.
    """
    bags = []
    for bag in d.bags:
        merged: set[int] = set()
        for pid in bag:
            merged.update(part_members[pid])
        bags.append(tuple(sorted(merged)))
    return TreeDecomposition(bags=tuple(bags), tree_edges=d.tree_edges,
                             designated=d.designated, root_clique=None)


def validate_blowup(g: Graph, d: TreeDecomposition,
                    part_members: Sequence) -> tuple[bool, Optional[str], int]:
    """``validate_decomposition(LineView(g), b)`` and ``width(b)`` for
    ``b = product_blowup(d, part_members)``, read off d and the parts.

    ``b`` holds edge e at the nodes whose bags hold e's part.  When the parts
    split the edge ids 0..m-1 and each bag lists ascending part ids, ``b`` is
    a tree-decomposition of L(G) exactly when d's tree is a tree and
      - every part lies in some bag (vertex coverage);
      - the parts at each G-vertex share a node (edge coverage: a G-vertex's
        edges form a clique of L(G), and by the Helly property of subtrees,
        as in ``check_decomposition``, a valid ``b`` has a bag holding all
        of them);
      - each part's nodes are connected in d (subtree connectivity);
    and a bag of ``b`` holds the summed size of its parts.  Only when one of
    these fails is ``b`` built and checked as it stands, so the verdict and
    its violation text are always ``b``'s own.
    """
    w = _factored_width(g, d, part_members)
    if w is not None:
        return True, None, w
    blowup = product_blowup(d, part_members)
    ok, why = validate_decomposition(LineView(g), blowup)
    return ok, why, width(blowup)


def _factored_width(g: Graph, d: TreeDecomposition, parts: Sequence) -> Optional[int]:
    """The width of a blow-up that ``validate_blowup``'s conditions certify
    valid, or None when one of them fails."""
    why, parent = _tree_defect(d)
    if why or (d.designated is not None and d.designated not in range(d.n_nodes)):
        return None
    m, k = g.m, len(parts)
    part_of = [-1] * m
    for i, part in enumerate(parts):
        for e in part:
            if type(e) is not int or not 0 <= e < m or part_of[e] >= 0:
                return None
            part_of[e] = i
    if -1 in part_of:
        return None
    size = list(map(len, parts))
    widest = 0
    for bag in d.bags:
        held, last = 0, -1
        for x in bag:
            if type(x) is not int or not last < x < k:      # ascending: no part twice
                return None
            held += size[x]
            last = x
        widest = max(widest, held)
    at, nodes = _node_lists(k, d.bags)
    if any(at[i] == at[i + 1] for i in range(k)):
        return None
    for eids in g.adj_eids:
        pids = {part_of[e] for e in eids}
        if len(pids) > 1:
            x = pids.pop()
            common = set(nodes[at[x]:at[x + 1]])
            for x in pids:
                common.intersection_update(nodes[at[x]:at[x + 1]])
            if not common:
                return None
    return None if _split_members(k, at, nodes, parent) else widest - 1
