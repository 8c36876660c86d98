"""Brute-force oracles for tests, acceptance checks and `matlabel selftest`.

Deliberately naive and implemented apart from the production recognizers:
these share only the graph primitives and the pattern search behind the
claw and net witnesses, so agreement between an oracle and a production
path is meaningful evidence. The scans carry a fixed size guard; the sun
and crown searches are exponential in the worst case and have none.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterator, Sequence

from .graph import Graph, find_embedding, iter_subsets, sorted_sets
from .poset import CliquePoset, CrownWitness
from .strong_chordal import SunWitness, find_induced_subgraph, n_sun


def enumerate_graphs(
    n: int,
    predicate: Callable[[Graph], bool] | None = None,
    connected: bool = False,
) -> Iterator[Graph]:
    """All graphs on n labeled vertices 0..n-1, optionally connected only.

    Streams 2^(n choose 2) graphs, filtered by `predicate` when given;
    guarded at n <= 8.
    """
    if n > 8:
        raise ValueError(f"enumeration guarded at 8 vertices, got {n}")
    if n < 0:
        raise ValueError("n must be nonnegative")
    slots = list(combinations(range(n), 2))
    for mask in range(1 << len(slots)):
        edges = [slots[i] for i in range(len(slots)) if mask >> i & 1]
        g = Graph(range(n), edges)
        if connected and not g.is_connected():
            continue
        if predicate is None or predicate(g):
            yield g


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
        if sub.m != sub.n or not sub.is_connected():
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


def detect_induced_sun(g: Graph) -> SunWitness | None:
    """Smallest induced n-sun, or None.

    For n = 3, 4, ... this is find_induced_subgraph(g, n_sun(n)): the
    central clique is placed first, then the outer vertices, with
    candidates in ascending order, so the returned witness is the
    lexicographically least tuple (inner + outer) for the smallest n, up
    to n = |V| // 2 (a sun needs 2n vertices).
    """
    for n in range(3, g.n // 2 + 1):
        hit = find_induced_subgraph(g, n_sun(n))
        if hit is not None:
            image = tuple(hit.values())  # keyed 1..2n in ascending order
            return SunWitness(n, image[:n], image[n:])
    return None


def find_crown(p: CliquePoset | Sequence[frozenset[int]], k: int) -> CrownWitness | None:
    """An induced subposet isomorphic to the k-crown, or None.

    A graph.find_embedding over the nodes in canonical order: the k lower
    elements are placed first, pairwise incomparable, then the k upper ones,
    each above exactly its two lower elements and incomparable to the other
    upper ones. The rows are those of a comparison matrix over node
    indices, built once per call. The first hit is the lexicographically
    least witness. Exponential worst case, fine at desk scale.
    """
    if k < 3:
        raise ValueError("crowns are searched for k >= 3")
    nodes = tuple(p.nodes) if hasattr(p, "nodes") else sorted_sets(set(map(frozenset, p)))
    if len(nodes) < 2 * k:
        return None
    # compare[a][b] is 1 when nodes[a] < nodes[b], -1 when nodes[b] < nodes[a]
    compare = [[(x < y) - (y < x) for y in nodes] for x in nodes]
    pattern = [(0,) * i for i in range(k)]
    pattern += [tuple(int(j == i or (j + 1) % k == i) for j in range(k)) + (0,) * i
                for i in range(k)]
    image = find_embedding(lambda image: range(len(nodes)), pattern, compare.__getitem__)
    if image is None:
        return None
    return CrownWitness(k, tuple(nodes[a] for a in image[:k]),
                        tuple(nodes[a] for a in image[k:]))


def find_any_crown(p: CliquePoset) -> CrownWitness | None:
    for k in range(3, len(p.nodes) // 2 + 1):
        hit = find_crown(p, k)
        if hit is not None:
            return hit
    return None


def is_crown_free(p: CliquePoset) -> bool:
    """True iff no induced k-crown exists for any 3 <= k <= |nodes| / 2."""
    return find_any_crown(p) is None


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
        if g.has_edge(a, b) or b not in g.component_of(a):
            continue
        for s in iter_subsets(g.vertex_set - {a, b}):
            if not _separates(g, s, a, b):
                continue
            if all(not _separates(g, s - {x}, a, b) for x in s):
                found.add(s)
    return frozenset(found)


def _separates(g, s, a, b):
    return b not in g.induced_subgraph(g.vertex_set - s).component_of(a)
