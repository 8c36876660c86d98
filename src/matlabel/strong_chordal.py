"""Strong chordality recognition and forbidden-structure detection.

A graph is strongly chordal when it is chordal and contains no induced
n-sun for any n >= 3. The production recognizer runs in polynomial time by
greedily eliminating simple vertices; sun detection provides witnesses and
an independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .chordal import find_chordless_cycle, is_chordal
from .graph import Graph, find_embedding


def is_simple_vertex(g: Graph, v: int) -> bool:
    """True iff the closed neighborhoods of N[v] form an inclusion chain.

    Simple vertices are in particular simplicial; greedy removal of simple
    vertices succeeds exactly on strongly chordal graphs.
    """
    closed = [g.closed_neighborhood(u) for u in sorted(g.closed_neighborhood(v))]
    closed.sort(key=len)
    return all(a <= b for a, b in zip(closed, closed[1:]))


def simple_elimination(g: Graph) -> tuple[list[int], Graph]:
    """Greedy simple elimination: (the ordering found, the stuck residue).

    Removes the smallest simple vertex while there is one; the ordering
    lists the removed vertices, last first. Strong chordality is hereditary
    and gives a simple vertex at every step, so the residue is empty exactly
    when g is strongly chordal. It keeps every induced sun of g, since no
    sun vertex is ever simple in a graph containing the sun.
    """
    current = g
    removal: list[int] = []
    while current.n:
        for v in current.vertices:
            if is_simple_vertex(current, v):
                removal.append(v)
                current = current.delete_vertex(v)
                break
        else:
            break
    return removal[::-1], current


def find_simple_elimination_ordering(g: Graph) -> list[int] | None:
    """Ordering (v_1, ..., v_l) with v_i simple in g[{v_1..v_i}], or None."""
    order, residue = simple_elimination(g)
    return None if residue.n else order


def is_strongly_chordal(g: Graph) -> bool:
    return find_simple_elimination_ordering(g) is not None


@dataclass(frozen=True)
class SunWitness:
    """An induced n-sun: `inner` is the central clique in cyclic order and
    outer[i] is adjacent to exactly inner[i] and inner[(i+1) % n]."""

    n: int
    inner: tuple[int, ...]
    outer: tuple[int, ...]

    def as_json(self) -> dict:
        return {"kind": "sun", "n": self.n,
                "inner": list(self.inner), "outer": list(self.outer)}


def detect_induced_sun(g: Graph, n_max: int | None = None) -> SunWitness | None:
    """Smallest induced n-sun with 3 <= n <= n_max, or None.

    For n = 3, 4, ... this is find_induced_subgraph(g, n_sun(n)): the
    central clique is placed first, then the outer vertices, with
    candidates in ascending order, so the returned witness is the
    lexicographically least tuple (inner + outer) for the smallest n.
    Default n_max is |V| // 2 (a sun needs 2n vertices).
    """
    if n_max is None:
        n_max = g.n // 2
    elif n_max < 3:
        raise ValueError("n_max must be at least 3")
    for n in range(3, n_max + 1):
        hit = find_induced_subgraph(g, n_sun(n))
        if hit is not None:
            image = tuple(hit.values())  # keyed 1..2n in ascending order
            return SunWitness(n, image[:n], image[n:])
    return None


def find_induced_subgraph(g: Graph, pattern: Graph) -> dict[int, int] | None:
    """Injective map from pattern vertices to g realizing pattern as an
    induced subgraph, or None.

    A graph.find_embedding over the vertices of g in ascending order:
    pattern vertices are placed in ascending order, each on the smallest
    vertex of g with exactly the pattern's adjacencies to the vertices
    already placed, so the map is the least one in that order. Rows are
    adjacency bytes over vertex indices. Exponential in the worst case.
    """
    pverts, verts = pattern.vertices, g.vertices
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [[index[u] for u in g.neighborhood(v)] for v in verts]

    def adjacency(i):
        row = bytearray(len(verts))
        for j in nbrs[i]:
            row[j] = 1
        return row

    want = [tuple(int(pattern.has_edge(p, q)) for q in pverts[:i])
            for i, p in enumerate(pverts)]
    image = find_embedding(range(len(verts)), want, adjacency)
    return None if image is None else {p: verts[i] for p, i in zip(pverts, image)}


def claw() -> Graph:
    """K_{1,3}: center 1 with leaves 2, 3, 4."""
    return Graph.from_edges([(1, 2), (1, 3), (1, 4)])


def net() -> Graph:
    """Triangle 1-2-3 with a pendant vertex on each corner."""
    return Graph.from_edges([(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)])


def n_sun(n: int) -> Graph:
    """Central clique 1..n plus outer vertex n+i adjacent to i and i+1 (cyclic)."""
    if n < 3:
        raise ValueError("suns are defined for n >= 3")
    edges = list(combinations(range(1, n + 1), 2))
    for i in range(1, n + 1):
        edges.append((i, n + i))
        edges.append((i % n + 1, n + i))
    return Graph(range(1, 2 * n + 1), edges)


def unit_interval_obstruction(g: Graph):
    """First forbidden structure for unit interval graphs, or None.

    Returns ("chordless-cycle", vertices), ("claw", map), ("net", map) or
    ("sun", SunWitness). A graph is unit interval iff this returns None.
    """
    cyc = find_chordless_cycle(g)
    if cyc is not None:
        return ("chordless-cycle", cyc)
    hit = find_induced_subgraph(g, claw())
    if hit is not None:
        return ("claw", hit)
    hit = find_induced_subgraph(g, net())
    if hit is not None:
        return ("net", hit)
    sun = detect_induced_sun(g, 3) if g.n >= 6 else None
    if sun is not None:
        return ("sun", sun)
    return None


def is_unit_interval(g: Graph) -> bool:
    """Chordal with no induced claw, net or 3-sun."""
    return is_chordal(g) and unit_interval_obstruction(g) is None
