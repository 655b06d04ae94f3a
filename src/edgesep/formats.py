"""Text formats: PACE-style graphs (.gr), decompositions (.td), weights (.w).

All ids are 1-indexed on disk and 0-indexed in memory.  Emission is
canonical, so parse(emit(x)) round-trips bit-exactly.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

from .errors import FormatError
from .graphs import Graph
from .treedecomp import TreeDecomposition

# A header may announce at most this many vertices per character of its
# header and edge lines, each counted stripped and with one line break.
# Isolated vertices need no line, so n is not otherwise tied to the input,
# while every report is Theta(n): the cap keeps that cost linear in the input,
# and comment lines cannot raise it.
MAX_VERTICES_PER_CHAR = 16


def _records(text: str):
    """(line number, stripped line, tokens) of each line neither blank nor a comment."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("c"):
            yield lineno, line, line.split()


def _ints(lineno: int, what: str, fields) -> list:
    """``fields`` as ints, or a FormatError that names the line and ``what``."""
    try:
        return list(map(int, fields))
    except ValueError:
        raise FormatError(f"line {lineno}: {what}") from None


def parse_graph(text: str) -> Graph:
    """The graph of .gr text; a defect is a FormatError that names its line.

    Text made of the header line and then one edge per line, with no
    comment or blank line, is read as one list of tokens, and ``Graph``
    checks its edges.  Any other text, and any defect, is read line by line.
    """
    lines = text.splitlines()
    head = lines[0].split() if lines else ()
    if (len(head) == 4 and head[0] == "p" and head[1] == "tw"
            and not set(map(len, map(str.split, lines[1:]))) - {2}):
        try:
            n, m = int(head[2]), int(head[3])
            chars = sum(map(len, map(str.strip, lines))) + len(lines)
            if 0 <= n <= MAX_VERTICES_PER_CHAR * chars and m == len(lines) - 1:
                ends = iter([int(x) - 1 for x in text.split()[4:]])
                return Graph(n, zip(ends, ends))
        except ValueError:
            pass
    return _parse_lines(text)


def _parse_lines(text: str) -> Graph:
    records = list(_records(text))
    cap = MAX_VERTICES_PER_CHAR * sum(len(line) + 1 for _, line, _ in records)
    n = m = None
    edges = []
    seen = set()
    for lineno, line, parts in records:
        if line.startswith("p"):
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 4 or parts[0] != "p" or parts[1] != "tw":
                raise FormatError(f"line {lineno}: malformed header {line!r}")
            n, m = _ints(lineno, "non-integer header fields", parts[2:])
            if n < 0 or m < 0:
                raise FormatError(f"line {lineno}: negative header fields")
            if n > cap:
                raise FormatError(f"line {lineno}: header announces {n} vertices, more than "
                                  f"{MAX_VERTICES_PER_CHAR} per character of input")
            continue
        if n is None:
            raise FormatError(f"line {lineno}: edge before header")
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: malformed edge line {line!r}")
        u, v = _ints(lineno, "non-integer edge endpoints", parts)
        u, v = u - 1, v - 1
        if not (0 <= u < n and 0 <= v < n):
            raise FormatError(f"line {lineno}: endpoint out of range")
        if u == v:
            raise FormatError(f"line {lineno}: self-loop")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise FormatError(f"line {lineno}: duplicate edge")
        seen.add(key)
        edges.append(key)
    if n is None:
        raise FormatError("missing header line 'p tw <n> <m>'")
    if m != len(edges):
        raise FormatError(f"header announced {m} edges, found {len(edges)}")
    return Graph(n, edges)


def emit_graph(g: Graph) -> str:
    lines = [f"p tw {g.n} {g.m}"]
    lines.extend(f"{u + 1} {v + 1}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_digest(g: Graph) -> str:
    return hashlib.sha256(emit_graph(g).encode()).hexdigest()


def emit_decomposition(d: TreeDecomposition, n_decomposed: int, parts=None) -> str:
    """The .td text of ``d``; given ``parts``, that of ``product_blowup(d, parts)``.

    The blown-up text is written from d and the parts, and no blown-up bag
    is kept: each row is made from its bag's parts as it is written.
    """
    if d.n_nodes == 0:
        return "s td 0 0 0\n"
    # ' v+1' for v = 0, 1, ...: no more of them than there are bag entries
    entries = sum(map(len, d.bags if parts is None else parts))
    labels = [f" {v}" for v in range(1, min(n_decomposed, entries) + 1)]
    width_plus = 0
    out = [""]                      # the header goes first, once the width is known
    for i, bag in enumerate(d.bags, 1):
        vs = bag if parts is None else sorted(set().union(*map(parts.__getitem__, bag)))
        width_plus = max(width_plus, len(vs))
        out += ("\nb ", str(i), _row_text(vs, labels))
    out.extend(f"\n{a + 1} {b + 1}" for a, b in d.tree_edges)
    out[0] = f"s td {d.n_nodes} {width_plus} {n_decomposed}"
    out.append("\n")
    return "".join(out)


def _row_text(vs, labels: list) -> str:
    """' v+1' for each of ``vs``, looked up in ``labels`` when all of them
    are ints in its range."""
    try:
        if vs and min(vs) >= 0 and max(vs) < len(labels):
            return "".join(map(labels.__getitem__, vs))
    except TypeError:               # not all ints
        pass
    return "".join([f" {v + 1}" for v in vs])


def parse_decomposition(text: str) -> tuple[TreeDecomposition, int]:
    """The decomposition of .td text and the declared vertex count of its graph.

    Text made of the solution line, then bags 1..#bags in order and then one
    tree edge per line, with no comment or blank line, is read in one pass
    over its lines.  Any other text, and any defect, is read line by line,
    which names the defect's line.  Neither allocates from the header's bag
    count.
    """
    lines = text.splitlines()
    head = lines[0].split() if lines else ()
    if len(head) == 5 and head[0] == "s" and head[1] == "td":
        try:
            k, _, n_graph = map(int, head[2:])
            bags = []
            less = (-1).__add__
            for i, line in enumerate(lines[1:k + 1], 1):
                tokens = line.split()
                if tokens[0] != "b" or int(tokens[1]) != i:
                    raise ValueError
                bags.append(tuple(sorted(map(less, map(int, tokens[2:])))))
            if len(bags) == k:
                tree_edges = []
                for line in lines[k + 1:]:
                    a, b = line.split()
                    tree_edges.append((int(a) - 1, int(b) - 1))
                return TreeDecomposition(bags=tuple(bags), tree_edges=tuple(tree_edges)), n_graph
        except (ValueError, IndexError):
            pass
    del lines
    return _parse_decomposition_lines(text)


def _parse_decomposition_lines(text: str) -> tuple[TreeDecomposition, int]:
    header = None
    bags: dict[int, tuple] = {}
    tree_edges = []
    for lineno, line, parts in _records(text):
        if parts[0] == "s":
            if header is not None:
                raise FormatError(f"line {lineno}: duplicate solution line")
            if len(parts) != 5 or parts[1] != "td":
                raise FormatError(f"line {lineno}: malformed solution line")
            header = _ints(lineno, "non-integer solution fields", parts[2:])
            continue
        if header is None:
            raise FormatError(f"line {lineno}: content before the solution line")
        if parts[0] == "b":
            ids = _ints(lineno, "malformed bag line", parts[1:])
            if not ids:
                raise FormatError(f"line {lineno}: malformed bag line")
            if ids[0] - 1 in bags:
                raise FormatError(f"line {lineno}: duplicate bag id")
            bags[ids[0] - 1] = tuple(sorted(v - 1 for v in ids[1:]))
            continue
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: malformed tree edge")
        a, b = _ints(lineno, "non-integer tree edge", parts)
        tree_edges.append((a - 1, b - 1))
    if header is None:
        raise FormatError("missing solution line 's td ...'")
    n_bags, _, n_graph = header
    # bag ids are distinct, so in range and as many as announced is a cover;
    # nothing is allocated from the header's count
    if len(bags) != n_bags or not all(0 <= i < n_bags for i in bags):
        raise FormatError("bag ids do not cover 1..#bags")
    d = TreeDecomposition(bags=tuple(bags[i] for i in range(n_bags)),
                          tree_edges=tuple(tree_edges))
    return d, n_graph


def parse_weights(text: str, n: int) -> tuple:
    """Two-column '<vertexId> <num>/<den>' lines; omitted vertices weigh 0."""
    weights = [Fraction(0)] * n
    seen = set()
    for lineno, line, parts in _records(text):
        if len(parts) != 2:
            raise FormatError(f"line {lineno}: expected '<vertex> <weight>'")
        v = _ints(lineno, "non-integer vertex id", parts[:1])[0] - 1
        if not (0 <= v < n):
            raise FormatError(f"line {lineno}: vertex id out of range")
        if v in seen:
            raise FormatError(f"line {lineno}: duplicate vertex id")
        seen.add(v)
        try:
            weights[v] = Fraction(*map(int, parts[1].split("/", 1)))
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"line {lineno}: malformed weight {parts[1]!r}") from None
    return tuple(weights)


def format_fraction(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"

