"""Weighted balanced edge separators and isoperimetric witnesses.

One bag of the line graph's tree-decomposition, chosen by orienting the
decomposition tree toward heavy weight and walking to a sink, is a balanced
edge separator: every component of G minus that bag carries weight at most
one half.  All weight arithmetic is exact: weights are scaled to integer
loads over their least common denominator, so the 1/2 threshold is an
integer comparison, never one through floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Union

from .errors import IncidentError, ParameterError
from .graphs import EdgeSet, Graph, VertexSet, components, edges_between
from .partition import KtCertificate, PartitionResult, partition_line_graph
from .treedecomp import TreeDecomposition, least_common_node, rooted_tree


def uniform_weights(n: int) -> tuple:
    if n < 2:
        raise ParameterError("uniform weights need at least 2 vertices")
    return (Fraction(1, n),) * n


def check_weights(g: Graph, w) -> int:
    """Raise unless ``w`` is exact, inside [0, 1/2] and sums to exactly 1.

    Numerators are summed per denominator and compared over the least common
    denominator, so the check is integer work with no gcd per weight.  That
    denominator is returned: over it every weight is an integer load.
    """
    if len(w) != g.n:
        raise ParameterError("weight function must cover every vertex")
    sums: dict = {}
    for i, x in enumerate(w):
        if not isinstance(x, Fraction):
            raise ParameterError("weights must be exact rationals")
        num, den = x.as_integer_ratio()
        if num < 0 or 2 * num > den:            # den > 0: x < 0 or x > 1/2
            raise ParameterError(f"weight of vertex {i} outside [0, 1/2]")
        sums[den] = sums.get(den, 0) + num
    lcd = math.lcm(*sums)
    if sum(num * (lcd // den) for den, num in sums.items()) != lcd:
        raise ParameterError("weights must sum to exactly 1")
    return lcd


class EdgeSeparatorResult(NamedTuple):
    edges: EdgeSet
    components: tuple                 # ((vertices, weight), ...)
    bound_used: int                   # (t-1) * floor(p_impl)
    reference_bound: int                  # same bound at c_sep = 1
    sink_node: Optional[int]          # decomposition node whose bag is F
    anchors: tuple                    # per vertex: decomposition node id


class IsoperimetricWitness(NamedTuple):
    s: VertexSet
    cut_size: int
    ratio: Fraction


def balanced_edge_separator(g: Graph, w, t: int
                            ) -> Union[EdgeSeparatorResult, KtCertificate]:
    """Edge set F with every component of G - F of weight at most 1/2."""
    lcd = check_weights(g, w)
    res = partition_line_graph(g, t)
    if isinstance(res, KtCertificate):
        return res
    return _sink_separator(g, res, w, lcd)


def separator_from_partition(g: Graph, res: PartitionResult, w
                             ) -> EdgeSeparatorResult:
    """Extract the separator from an already-computed partition result."""
    return _sink_separator(g, res, w, check_weights(g, w))


def _sink_separator(g: Graph, res: PartitionResult, w, lcd: int) -> EdgeSeparatorResult:
    """``separator_from_partition`` for weights checked to sum to 1 over ``lcd``.

    Weights are summed as integer loads over ``lcd``; one reduced Fraction
    is formed per reported component.
    """
    params = res.params
    part = res.partition
    bound_used = params.separator_bound()
    reference_bound = params._replace(c_sep=1).separator_bound()
    loads = [num * (lcd // den) for num, den in map(Fraction.as_integer_ratio, w)]

    if part.decomp.n_nodes == 0:
        return EdgeSeparatorResult(edges=(), components=_weighed(components(g), loads, lcd),
                                   bound_used=bound_used, reference_bound=reference_bound,
                                   sink_node=None, anchors=(None,) * g.n)

    anchors = _anchor_vertices(g, part)
    node_loads = [0] * part.decomp.n_nodes
    for v, node in enumerate(anchors):
        node_loads[node] += loads[v]

    # the blow-up has the same tree, so its sink is found on H's
    # decomposition and only the sink's bag is blown up
    sink = _find_sink(part.decomp, node_loads, lcd)
    f = sorted(set().union(*(part.parts[pid] for pid in part.decomp.bags[sink])))
    comps = _weighed(components(g, banned_edges=f), loads, lcd)
    assert len(f) <= bound_used, "separator exceeds the size bound"
    return EdgeSeparatorResult(edges=tuple(f), components=comps,
                               bound_used=bound_used, reference_bound=reference_bound,
                               sink_node=sink, anchors=anchors)


def _weighed(comps, loads, lcd) -> tuple:
    """(component, weight) pairs, each weight checked to be at most 1/2."""
    out = []
    for c in comps:
        load = sum(loads[v] for v in c)
        assert 2 * load <= lcd, "a component of G - F exceeds weight 1/2"
        out.append((c, Fraction(load, lcd)))
    return tuple(out)


def _anchor_vertices(g: Graph, part) -> tuple:
    """u(x): smallest node whose bag holds every edge at x.

    The edges at a vertex form a clique of the line graph, so their parts
    form a clique of H and some bag of H's decomposition contains them all;
    searching the part-level bags is equivalent to searching the blown-up
    ones and much cheaper.  Isolated vertices anchor at the designated node.

    A node that holds every part at x is no smaller than the least node of
    each, so two passes over the edges find u(x): the first takes the
    largest of those least nodes, the second keeps it wherever its bag holds
    every part at x.  Only the other vertices scan a part's nodes.
    """
    bags = part.decomp.bags
    part_of = [0] * g.m
    for pid, edge_set in enumerate(part.parts):
        for e in edge_set:
            part_of[e] = pid
    nodes_of_part: dict[int, list] = {}
    for node, bag in enumerate(bags):
        for pid in bag:
            nodes_of_part.setdefault(pid, []).append(node)
    fallback = part.decomp.designated if part.decomp.designated is not None else 0
    anchors = [-1 if eids else fallback for eids in g.adj_eids]
    for (u, v), pid in zip(g.edges, part_of):
        node = nodes_of_part[pid][0]
        if anchors[u] < node:
            anchors[u] = node
        if anchors[v] < node:
            anchors[v] = node
    misses = set()
    for (u, v), pid in zip(g.edges, part_of):
        if pid not in bags[anchors[u]]:
            misses.add(u)
        if pid not in bags[anchors[v]]:
            misses.add(v)
    for v in sorted(misses):
        node = least_common_node({part_of[e] for e in g.adj_eids[v]}, nodes_of_part)
        assert node is not None, f"no bag holds the edge clique of vertex {v}"
        anchors[v] = node
    return tuple(anchors)


def _find_sink(d: TreeDecomposition, loads: list, total: int) -> int:
    """Node of the decomposition tree with no incident edge oriented away.

    ``loads`` are integer node loads summing to ``total``.  A tree edge
    points toward the side of load > total/2; edges balanced at exactly half
    stay unoriented.  Such a sink always exists; the smallest id is returned.
    """
    k = d.n_nodes
    nbrs, parent, order = rooted_tree(d)
    if len(order) != k:
        raise ParameterError("decomposition tree is disconnected")
    sub = list(loads)      # subtree sums
    for v in reversed(order[1:]):
        sub[parent[v]] += sub[v]

    for v in range(k):
        for u in nbrs[v]:
            far = sub[u] if parent[u] == v else total - sub[v]
            if 2 * far > total:
                break
        else:
            return v
    raise AssertionError("orientation of a finite tree always has a sink")


def isoperimetric_witness(g: Graph, t: int
                          ) -> Union[IsoperimetricWitness, KtCertificate]:
    """Vertex set S with |S| in [n/3, n/2] certifying an expansion upper bound.

    Runs the balanced separator under uniform weights and assembles S from
    components of G - F by exact subset-sum over their sizes; a greedy
    largest-first pass is tried first and validated against the window.
    """
    if g.n < 2:
        raise ParameterError("isoperimetric witness needs at least 2 vertices")
    sep = balanced_edge_separator(g, uniform_weights(g.n), t)
    if isinstance(sep, KtCertificate):
        return sep
    n = g.n
    lo = -(-n // 3)          # ceil(n/3)
    hi = n // 2
    comps = [c for c, _ in sep.components]
    sizes = [len(c) for c in comps]

    chosen = _greedy_window(sizes, lo, hi)
    if chosen is None:
        chosen = _subset_sum_window(sizes, lo, hi)
    if chosen is None:
        raise IncidentError(
            f"no component subset reaches the window [{lo},{hi}]; sizes={sizes}")

    s: list[int] = []
    for idx in chosen:
        s.extend(comps[idx])
    s_tuple = tuple(sorted(s))
    s_set = set(s_tuple)
    rest = tuple(v for v in range(n) if v not in s_set)
    cut = len(edges_between(g, s_tuple, rest))
    ratio = Fraction(cut, len(s_tuple))
    assert lo <= len(s_tuple) <= hi
    assert ratio <= Fraction(3 * len(sep.edges), n), "ratio exceeds |F|/(n/3)"
    return IsoperimetricWitness(s=s_tuple, cut_size=cut, ratio=ratio)


def _greedy_window(sizes, lo, hi):
    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    acc = 0
    chosen = []
    for i in order:
        if acc >= lo:
            break
        acc += sizes[i]
        chosen.append(i)
    return sorted(chosen) if lo <= acc <= hi else None


def _subset_sum_window(sizes, lo, hi):
    """First achievable sum in [lo, hi] (lo, hi >= 0), reconstructed deterministically.

    Bit k of ``reach`` says that some items sum to k, and ``first[k]`` is the
    item that first reached k.  It reached k from k minus its size, a sum
    of earlier items only, so the picks are read back by subtracting sizes.
    """
    reach = 1
    first = [0] * (hi + 1)
    mask = (1 << hi + 1) - 1
    for i, s in enumerate(sizes):
        new = (reach << s) & mask & ~reach
        reach |= new
        while new:
            low = new & -new
            first[low.bit_length() - 1] = i
            new ^= low
    window = reach >> lo
    if not window:
        return None
    total = lo + (window & -window).bit_length() - 1
    picks = []
    while total:
        picks.append(first[total])
        total -= sizes[picks[-1]]
    return picks[::-1]
