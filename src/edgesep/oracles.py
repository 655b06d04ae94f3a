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


# ------------------------------------------------------------- treewidth

def exact_treewidth(g: Graph, limits: OracleLimits = DEFAULT_LIMITS) -> int:
    """Exact treewidth by dynamic programming over elimination prefixes."""
    _guard(g.n, limits.max_vertices_tw, "exact_treewidth")
    n = g.n
    if n == 0:
        return -1
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    def back_degree(prefix: int, v: int) -> int:
        # vertices outside prefix+{v} adjacent to the component of v in prefix+{v}
        comp = 1 << v
        grow = adj[v] & prefix
        while grow:
            comp |= grow
            nxt = 0
            m = grow
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            grow = nxt & prefix & ~comp
        reach = 0
        m = comp
        while m:
            low = m & -m
            reach |= adj[low.bit_length() - 1]
            m ^= low
        return (reach & ~prefix & ~(1 << v)).bit_count()

    big = n + 1
    f = [big] * (1 << n)
    f[0] = -1
    for s in range(1, 1 << n):
        best = big
        m = s
        while m:
            low = m & -m
            v = low.bit_length() - 1
            prev = s ^ low
            cand = max(f[prev], back_degree(prev, v))
            if cand < best:
                best = cand
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
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
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
    adj = [0] * n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u

    connected = []
    for mask in range(1, 1 << n):
        low = mask & -mask
        comp = low
        while True:
            grow = 0
            m = comp
            while m:
                b = m & -m
                grow |= adj[b.bit_length() - 1]
                m ^= b
            grow &= mask & ~comp
            if not grow:
                break
            comp |= grow
        if comp == mask:
            nb = 0
            m = mask
            while m:
                b = m & -m
                nb |= adj[b.bit_length() - 1]
                m ^= b
            connected.append((mask & -mask, mask, nb & ~mask))
    connected.sort()

    def mask_to_set(mask):
        return tuple(i for i in range(n) if mask >> i & 1)

    # candidates carry (min vertex bit, member mask, neighbor mask); sorting by
    # min vertex makes "branch sets listed by ascending minimum" canonical
    cand = sorted(connected)

    def go(start_idx, used, chosen):
        if len(chosen) == t:
            return tuple(mask_to_set(c) for c in chosen)
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
    adj = [0] * n
    for u, v in g.edges:
        if u in work and v in work:
            adj[pos[u]] |= 1 << pos[v]
            adj[pos[v]] |= 1 << pos[u]
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
        comp = mask & -mask
        while True:
            grow = 0
            m = comp
            while m:
                b = m & -m
                grow |= adj[b.bit_length() - 1]
                m ^= b
            grow &= mask & ~comp
            if not grow:
                break
            comp |= grow
        if comp == mask:
            return True
    return False
