"""Deterministic instance generators.

Every family is a pure function of its parameters (plus a seed where noted).
Planarity notes: grids and outerplanar graphs are K_5-minor-free, trees,
stars, paths and cycles are K_4-minor-free, outerplanar graphs even
K_4-minor-free; toroidal grids and complete graphs are the deliberately
minor-rich families.
"""

from __future__ import annotations

import random

from .errors import ParameterError
from .graphs import Graph

def grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ParameterError("grid dimensions must be positive")
    edges = []
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            if j + 1 < cols:
                edges.append((v, v + 1))
            if i + 1 < rows:
                edges.append((v, v + cols))
    return Graph(rows * cols, edges)


def toroidal_grid(rows: int, cols: int) -> Graph:
    if rows < 1 or cols < 1:
        raise ParameterError("grid dimensions must be positive")
    edges = set()
    for i in range(rows):
        for j in range(cols):
            v = i * cols + j
            right = i * cols + (j + 1) % cols
            down = ((i + 1) % rows) * cols + j
            for u in (right, down):
                if u != v:
                    edges.add((v, u) if v < u else (u, v))
    return Graph(rows * cols, sorted(edges))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ParameterError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> Graph:
    """K_{1,n-1} with the hub at vertex 0."""
    if n < 1:
        raise ParameterError("a star needs at least 1 vertex")
    return Graph(n, [(0, i) for i in range(1, n)])


def path(n: int) -> Graph:
    if n < 1:
        raise ParameterError("a path needs at least 1 vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def complete(k: int) -> Graph:
    if k < 1:
        raise ParameterError("a complete graph needs at least 1 vertex")
    return Graph(k, [(i, j) for i in range(k) for j in range(i + 1, k)])


def random_tree(n: int, seed: int) -> Graph:
    """Random attachment tree: vertex i hangs off a uniform earlier vertex."""
    if n < 1:
        raise ParameterError("a tree needs at least 1 vertex")
    rng = random.Random(seed)
    return Graph(n, [(rng.randrange(i), i) for i in range(1, n)])


def outerplanar(n: int, seed: int) -> Graph:
    """Maximal outerplanar graph: an n-cycle with a random triangulation."""
    if n < 1:
        raise ParameterError("an outerplanar graph needs at least 1 vertex")
    if n <= 2:
        return path(n)
    rng = random.Random(seed)
    edges = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}

    def split(a: int, b: int) -> None:
        if b - a < 2:
            return
        k = rng.randint(a + 1, b - 1)
        if k - a >= 2:
            edges.add((a, k))
        if b - k >= 2:
            edges.add((k, b))
        split(a, k)
        split(k, b)

    split(0, n - 1)
    return Graph(n, sorted(edges))


# family name: (generator, parameter count, whether it takes the seed)
_GENERATORS = {
    "grid": (grid, 2, False),
    "toroidal-grid": (toroidal_grid, 2, False),
    "cycle": (cycle, 1, False),
    "star": (star, 1, False),
    "path": (path, 1, False),
    "complete": (complete, 1, False),
    "random-tree": (random_tree, 1, True),
    "outerplanar": (outerplanar, 1, True),
}
FAMILIES = tuple(_GENERATORS)


def generate(family: str, args: list[int], seed: int = 0) -> Graph:
    """Dispatch a family name plus integer parameters to its generator."""
    if family not in _GENERATORS:
        raise ParameterError(f"unknown family {family!r}; choose from {FAMILIES}")
    make, count, seeded = _GENERATORS[family]
    if len(args) != count:
        raise ParameterError(f"family {family!r} takes {count} parameter(s)")
    return make(*args, seed) if seeded else make(*args)
