"""Subset and placement scans that cross-check the recognizers in tests.

Deliberately naive: each reads only the graph it is given, through the
Graph primitives, and shares no code with the production paths or with
matlabel.oracle, so agreement is independent evidence. Each scan is
exponential and carries a fixed size guard.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Iterator

from matlabel.graph import Graph

from .chromatic import component_of


def iter_subsets(items: Iterable[int]) -> Iterator[frozenset[int]]:
    """All subsets of items, smallest first, deterministic order."""
    base = sorted(items)
    for r in range(len(base) + 1):
        for combo in combinations(base, r):
            yield frozenset(combo)


def brute_induced_cycles(g: Graph) -> tuple[int, ...] | None:
    """An induced cycle with at least 4 vertices, by subset scan.

    Checks every vertex subset for inducing a cycle (connected, all degrees
    two, as many edges as vertices). Guarded at 10 vertices.
    """
    if g.n > 10:
        raise ValueError(f"induced-cycle scan guarded at 10 vertices, got {g.n}")
    for subset in iter_subsets(g.vertices):
        if len(subset) < 4:
            continue
        sub = g.induced_subgraph(subset)
        if sub.m != sub.n or component_of(sub, min(subset)) != subset:
            continue
        if any(sub.degree(v) != 2 for v in sub.vertices):
            continue
        walk = [min(subset)]
        walk.append(min(sub.neighborhood(walk[0])))
        while len(walk) < sub.n:
            a, b = walk[-2], walk[-1]
            walk.append(next(x for x in sub.neighborhood(b) if x != a))
        return tuple(walk)
    return None


def crown_pattern(k: int) -> tuple[int, frozenset[tuple[int, int]]]:
    """The abstract k-crown as (element count, strict relations i < j).

    Elements 0..k-1 are the lower layer, k..2k-1 the upper one; lower i
    sits below upper i and upper (i+1) mod k.
    """
    if k < 1:
        raise ValueError("k must be positive")
    less = set()
    for i in range(k):
        less.add((i, k + i))
        less.add((i, k + (i + 1) % k))
    return 2 * k, frozenset(less)


def brute_induced_subposet(poset, pattern) -> tuple[frozenset[int], ...] | None:
    """Injection realizing an abstract pattern as an induced subposet.

    `poset` is anything with a `nodes` collection of vertex sets (or a bare
    collection of sets); `pattern` is (size, strict relations) as produced
    by crown_pattern. Order is set inclusion. Guarded at 64 nodes.
    """
    nodes = tuple(getattr(poset, "nodes", poset))
    if len(nodes) > 64:
        raise ValueError("induced-subposet scan guarded at 64 nodes")
    size, less = pattern
    image: list[frozenset[int]] = []

    def matches(candidate, idx):
        if candidate in image:
            return False
        for j in range(idx):
            expect_less = (j, idx) in less
            expect_greater = (idx, j) in less
            if (image[j] < candidate) != expect_less:
                return False
            if (candidate < image[j]) != expect_greater:
                return False
        return True

    def place(idx):
        if idx == size:
            return True
        for candidate in nodes:
            if matches(candidate, idx):
                image.append(candidate)
                if place(idx + 1):
                    return True
                image.pop()
        return False

    return tuple(image) if place(0) else None


def brute_minimal_separators(g: Graph) -> frozenset[frozenset[int]]:
    """All minimal vertex separators by exhaustive subset checking.

    A set S is collected when it is a minimal (a, b)-separator for some
    nonadjacent pair a, b in one component: S separates them but no single
    removal from S does. Guarded at 8 vertices.
    """
    if g.n > 8:
        raise ValueError(f"separator scan guarded at 8 vertices, got {g.n}")
    found = set()
    vs = g.vertices
    for a, b in combinations(vs, 2):
        if g.has_edge(a, b) or b not in component_of(g, a):
            continue
        for s in iter_subsets(g.vertex_set - {a, b}):
            if not _separates(g, s, a, b):
                continue
            if all(not _separates(g, s - {x}, a, b) for x in s):
                found.add(s)
    return frozenset(found)


def _separates(g, s, a, b):
    return b not in component_of(g.induced_subgraph(g.vertex_set - s), a)
