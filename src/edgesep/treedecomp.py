"""Tree-decompositions as certified values plus the constructive algebra on them.

A decomposition carries an optional *designated* node whose bag is known to
contain the currently tracked root clique.  Decompositions are built in one
append-only ``Decomposition``: the partition engine only ever glues and
attaches at nodes it holds, so each step appends a node instead of copying.
"""

from __future__ import annotations

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

    The edges of a line graph at one G-vertex form a clique, and one bag
    holding all of that vertex's edges covers them all.  By the Helly
    property of subtrees (Gavril, JCTB 1974) a valid decomposition has such
    a bag, so L(G) is covered vertex by vertex.  Only when some vertex lacks
    one are the edges of L(G) scanned pair by pair, in order, to name the
    first uncovered one.
    """
    k = d.n_nodes
    for a, b in d.tree_edges:
        if not (0 <= a < k and 0 <= b < k) or a == b:
            return False, "tree structure: bad tree edge"
    if len(set(tuple(sorted(e)) for e in d.tree_edges)) != len(d.tree_edges):
        return False, "tree structure: duplicate tree edge"
    if k > 0 and len(d.tree_edges) != k - 1:
        return False, "tree structure: edge count is not nodes-1"
    _, parent, order = rooted_tree(d)
    if len(order) != k:
        return False, "tree structure: tree is disconnected"

    covered: set[int] = set()
    for bag in d.bags:
        for v in bag:
            if not (0 <= v < g.n):
                return False, f"vertex coverage: bag element {v} out of range"
        covered.update(bag)
    if covered != set(range(g.n)):
        return False, "vertex coverage: some vertex appears in no bag"

    # every test reads the ascending node lists; no bag is copied into a set
    nodes_of: dict[int, list[int]] = {}
    for i, bag in enumerate(d.bags):
        for v in bag:
            nodes_of.setdefault(v, []).append(i)
    if not isinstance(g, LineView):
        pairs = g.edges
    elif all(len(es) < 2 or least_common_node(es, nodes_of) is not None
             for es in g.g.adj_eids):
        pairs = ()
    else:
        pairs = g.edge_pairs()
    held = (None, None)             # the first end of the pairs and its node set
    for u, v in pairs:              # ascending, so each first end comes in one run
        if held[0] != u:
            held = (u, set(nodes_of[u]))
        if held[1].isdisjoint(nodes_of[v]):
            return False, f"edge coverage: edge ({u},{v}) in no bag"

    # the nodes holding v are connected exactly when one of them is a top:
    # the root, or a node whose parent's bag lacks v.  A bag that repeats v
    # lists its node twice in a row, so a repeat of the last top is skipped.
    for v, nodes in nodes_of.items():
        holding = set(nodes)
        top = -1
        for i in nodes:
            p = parent[i]
            if (p < 0 or p not in holding) and i != top:
                if top >= 0:
                    return False, f"subtree connectivity: vertex {v} spans a disconnected node set"
                top = i

    if d.designated is not None:
        if not (0 <= d.designated < k):
            return False, "designated bag: designated node out of range"
        if d.root_clique is not None and not set(d.root_clique) <= set(d.bags[d.designated]):
            return False, "designated bag: designated bag misses the root clique"
    return True, None


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


def least_common_node(members, nodes_of) -> Optional[int]:
    """Least node whose bag holds every one of ``members``, or None.

    ``members`` is nonempty and ``nodes_of[x]`` lists the nodes whose bags
    hold x.  The lists are intersected, the first as a set and the rest as
    read, so no bag is copied or scanned.
    """
    common = None
    for x in members:
        if common is None:
            common = set(nodes_of.get(x, ()))
        else:
            common.intersection_update(nodes_of.get(x, ()))
        if not common:
            return None
    return min(common)


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

