"""Desk-scale brute-force oracles for every claim the pipeline makes.

These are intentionally exhaustive and guarded by hard size limits: they
exist to certify the pipeline on small instances, not to scale.  Subset
enumeration is lexicographic with sizes ascending, so the first witness
found is canonical and reproducible.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import OracleLimitError, ParameterError
from .graphs import Graph, components, induced_edge_ids
from .tree_or_sep import Budget, edge_tree_or_separator

HALF = Fraction(1, 2)


class OracleLimits(NamedTuple):
    max_vertices_tw: int = 12
    max_edges_sep: int = 20
    max_vertices_iso: int = 16
    max_vertices_minor: int = 14


DEFAULT_LIMITS = OracleLimits()


def _guard(value: int, limit: int, what: str) -> None:
    if value > limit:
        raise OracleLimitError(f"{what}: instance size {value} exceeds oracle limit {limit}")


# ------------------------------------------------------------- bit masks

def _bit_adjacency(n: int, pairs) -> list:
    """adj[v] is the bit mask of v's neighbours among the vertex pairs."""
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _neighbours(mask: int, adj: list) -> int:
    """The union of adj[v] over the vertices v of mask."""
    nb = 0
    while mask:
        low = mask & -mask
        nb |= adj[low.bit_length() - 1]
        mask ^= low
    return nb


def _reach(seed: int, within: int, adj: list) -> int:
    """The vertices of within joined to seed by paths inside within."""
    comp = grow = seed
    while grow:
        grow = _neighbours(grow, adj) & within & ~comp
        comp |= grow
    return comp


# ------------------------------------------------------------- treewidth

def exact_treewidth(g: Graph, limits: OracleLimits = DEFAULT_LIMITS) -> int:
    """Exact treewidth by dynamic programming over elimination prefixes.

    f[s] is the least width of eliminating s first.  Eliminating v last in s
    costs the vertices outside s adjacent to v's component C in G[s], so the
    cost is found once per component and shared by every v in C.
    """
    _guard(g.n, limits.max_vertices_tw, "exact_treewidth")
    n = g.n
    if n == 0:
        return -1
    adj = _bit_adjacency(n, g.edges)
    f = [n + 1] * (1 << n)
    f[0] = -1
    for s in range(1, 1 << n):
        best = n + 1
        rest = s
        while rest:
            comp = _reach(rest & -rest, s, adj)
            rest ^= comp
            cost = (_neighbours(comp, adj) & ~s).bit_count()
            m = comp
            while m and cost < best:
                low = m & -m
                best = min(best, max(f[s ^ low], cost))
                m ^= low
        f[s] = best
    return f[(1 << n) - 1]


# ------------------------------------------------------------- separators

def min_balanced_edge_separator(g: Graph, w,
                                limits: OracleLimits = DEFAULT_LIMITS) -> tuple:
    """Minimum-cardinality F with all components of G - F of weight <= 1/2."""
    _guard(g.m, limits.max_edges_sep, "min_balanced_edge_separator")
    if len(w) != g.n:
        raise ParameterError("weight function must cover every vertex")
    if any(x > HALF for x in w):
        raise ParameterError("a vertex weighs more than 1/2, so no edge set balances")
    if any(x < 0 for x in w):
        raise ParameterError("a vertex has negative weight")
    if sum(w, Fraction(0)) != 1:
        raise ParameterError("weights must sum to exactly 1")
    for size in range(g.m + 1):
        for f in combinations(range(g.m), size):
            ok = True
            for comp in components(g, banned_edges=f):
                if sum((w[v] for v in comp), Fraction(0)) > HALF:
                    ok = False
                    break
            if ok:
                return tuple(f)
    raise AssertionError("removing every edge always balances")


# ------------------------------------------------------------- expansion

def exact_isoperimetric(g: Graph, limits: OracleLimits = DEFAULT_LIMITS) -> Fraction:
    """min |E(S, V-S)| / |S| over nonempty S with |S| <= n/2."""
    _guard(g.n, limits.max_vertices_iso, "exact_isoperimetric")
    n = g.n
    if n < 2:
        raise ParameterError("isoperimetric number needs at least 2 vertices")
    adj = _bit_adjacency(n, g.edges)
    best: Optional[Fraction] = None
    half = n // 2
    for mask in range(1, 1 << n):
        size = mask.bit_count()
        if size > half:
            continue
        cut = 0
        m = mask
        while m:
            low = m & -m
            cut += (adj[low.bit_length() - 1] & ~mask).bit_count()
            m ^= low
        ratio = Fraction(cut, size)
        if best is None or ratio < best:
            best = ratio
    return best


# ------------------------------------------------------------- minors

def has_kt_minor(g: Graph, t: int,
                 limits: OracleLimits = DEFAULT_LIMITS) -> tuple[bool, Optional[tuple]]:
    """Exhaustive K_t-model search; returns (found, model or None)."""
    _guard(g.n, limits.max_vertices_minor, "has_kt_minor")
    if t < 1:
        raise ParameterError("t must be positive")
    n = g.n
    if n < t or (t >= 2 and g.m < t * (t - 1) // 2):
        return False, None
    adj = _bit_adjacency(n, g.edges)

    # candidates carry (min vertex bit, member mask, neighbor mask); sorting by
    # min vertex makes "branch sets listed by ascending minimum" canonical
    cand = sorted((mask & -mask, mask, _neighbours(mask, adj) & ~mask)
                  for mask in range(1, 1 << n)
                  if _reach(mask & -mask, mask, adj) == mask)

    def go(start_idx, used, chosen):
        if len(chosen) == t:
            return tuple(tuple(i for i in range(n) if c >> i & 1) for c in chosen)
        remaining = t - len(chosen)
        for idx in range(start_idx, len(cand)):
            _, mask, nb = cand[idx]
            if mask & used:
                continue
            if any(not (nb & prev) for prev in chosen):
                continue
            if (n - (used | mask).bit_count()) < remaining - 1:
                continue
            found = go(idx + 1, used | mask, chosen + [mask])
            if found:
                return found
        return None

    model = go(0, 0, [])
    if model is None:
        return False, None
    return True, model


# ------------------------------------------------------------- lemma check

class LemmaCheckReport(NamedTuple):
    tree_exists: bool
    outcome: str             # "tree" | "separator"
    contract_ok: bool
    returned_size: int


def edge_lemma_contract_check(g: Graph, targets: Sequence[Iterable[int]], r,
                              limits: OracleLimits = DEFAULT_LIMITS,
                              within: Optional[Iterable[int]] = None) -> LemmaCheckReport:
    """Exhaustively decide tree existence and re-check the module's output."""
    work = sorted(within) if within is not None else list(range(g.n))
    _guard(len(work), limits.max_vertices_minor, "edge_lemma_contract_check")
    tsets = [frozenset(t) for t in targets]
    r_exact = Budget.of(r)

    max_verts = r_exact.floor() + 1
    tree_exists = _small_tree_exists(g, tsets, max_verts, set(work))

    tos = edge_tree_or_separator(g, targets, r, within=work)
    if tos.is_tree():
        ok = (len(tos.tree_edges) == 0 or len(tos.tree_edges) <= r_exact) \
            and all(set(tos.tree_vertices) & t for t in tsets)
        size = len(tos.tree_edges)
    else:
        f = set(tos.separator)
        m_work = len(induced_edge_ids(g, work))
        size = len(f)
        cap = tos.c_sep * (len(tsets) - 1) * m_work
        ok = (size == 0 or r_exact * size <= cap) and not any(
            all(set(c) & t for t in tsets)
            for c in components(g, within=work, banned_edges=f))
    return LemmaCheckReport(tree_exists=tree_exists,
                            outcome=tos.kind, contract_ok=ok, returned_size=size)


def _small_tree_exists(g: Graph, tsets, max_verts: int, work: set) -> bool:
    """A tree on <= max_verts vertices meets all targets iff some connected
    subset of that size does."""
    if any(not t for t in tsets):
        return False
    if max_verts <= 0:
        return False
    verts = sorted(work)
    n = len(verts)
    pos = {v: i for i, v in enumerate(verts)}
    adj = _bit_adjacency(n, ((pos[u], pos[v]) for u, v in g.edges
                             if u in work and v in work))
    tmasks = []
    for t in tsets:
        mask = 0
        for v in t:
            mask |= 1 << pos[v]
        tmasks.append(mask)
    for mask in range(1, 1 << n):
        if mask.bit_count() > max_verts:
            continue
        if any(not (mask & tm) for tm in tmasks):
            continue
        if _reach(mask & -mask, mask, adj) == mask:
            return True
    return False
