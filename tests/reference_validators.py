"""The validators as they were before they moved to flat arrays.

``validate_partition``, ``validate_embedding`` and ``validate_decomposition``
here map edges to parts in a dict, hold H as a set of pairs and a ``Graph``,
and copy every bag into a set.  They are kept as the oracles of the
flat-array validators in ``edgesep``, which must return the same verdict and
the same first violation, except that a part listing an edge twice is now
rejected.  ``outcome`` runs either side and names an exception it raised.
"""

from typing import Optional

from edgesep import Graph, LineView, width
from edgesep.treedecomp import TreeDecomposition, rooted_tree


def outcome(check, *args):
    """The verdict of ``check``, or the name of the exception it raised."""
    try:
        return check(*args)
    except Exception as exc:            # a direct call may hand in any value
        return type(exc).__name__


def validate_partition(g: Graph, p,
                       params) -> tuple[bool, Optional[str]]:
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
        if (not isinstance(a, int) or not isinstance(b, int) or a == b
                or not (0 <= a < len(p.parts) and 0 <= b < len(p.parts))):
            return False, "h-edges: malformed part adjacency"
        h_set.add((a, b) if a < b else (b, a))
    pair = _unjoined_pair(g, part_of, h_set)
    if pair:
        return False, ("partition property: adjacent edges "
                       f"{pair[0]},{pair[1]} in non-adjacent parts")
    for i, a in enumerate(p.root):
        for b in p.root[i + 1:]:
            if (not isinstance(a, int) or not isinstance(b, int)
                    or ((a, b) if a < b else (b, a)) not in h_set):
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


def validate_embedding(g: Graph, p, embedding,
                       params) -> tuple[bool, Optional[str]]:
    """Embedding realizes L(G) inside H boxtimes K_{floor(p)}."""
    if len(embedding) != g.m:
        return False, "embedding: one entry per edge required"
    part_of = {e: i for i, part in enumerate(p.parts) for e in part}
    p_floor = params.p_floor()
    used = set()
    for eid, (pid, slot) in enumerate(embedding):
        if eid not in part_of or part_of[eid] != pid:
            return False, f"embedding: edge {eid} mapped to the wrong part"
        if not isinstance(slot, int) or not (1 <= slot <= max(p_floor, 1)):
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


def validate_decomposition(g, d: TreeDecomposition) -> tuple[bool, Optional[str]]:
    """The ``validate_decomposition`` that copied every bag into a set."""
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

    covered: set = set()
    for bag in d.bags:
        for v in bag:
            if not (0 <= v < g.n):
                return False, f"vertex coverage: bag element {v} out of range"
        covered.update(bag)
    if covered != set(range(g.n)):
        return False, "vertex coverage: some vertex appears in no bag"

    bag_sets = [set(b) for b in d.bags]
    nodes_of: dict = {}
    for i, bag in enumerate(d.bags):
        for v in bag:
            nodes_of.setdefault(v, []).append(i)
    if not isinstance(g, LineView):
        pairs = g.edges
    elif all(len(es) < 2 or _scanned_least_common_node(es, nodes_of, bag_sets) is not None
             for es in g.g.adj_eids):
        pairs = ()
    else:
        pairs = g.edge_pairs()
    for u, v in pairs:
        if not any(v in bag_sets[i] for i in nodes_of.get(u, ())):
            return False, f"edge coverage: edge ({u},{v}) in no bag"

    for v, nodes in nodes_of.items():
        top = -1
        for i in nodes:
            p = parent[i]
            if (p < 0 or v not in bag_sets[p]) and i != top:
                if top >= 0:
                    return False, f"subtree connectivity: vertex {v} spans a disconnected node set"
                top = i

    if d.designated is not None:
        if not (0 <= d.designated < k):
            return False, "designated bag: designated node out of range"
        if d.root_clique is not None and not set(d.root_clique) <= bag_sets[d.designated]:
            return False, "designated bag: designated bag misses the root clique"
    return True, None


def _scanned_least_common_node(members, nodes_of, bags):
    """The ``least_common_node`` that scanned the shortest node list's bags."""
    shortest = min((nodes_of.get(x, ()) for x in members), key=len)
    return next((node for node in shortest if all(x in bags[node] for x in members)), None)
