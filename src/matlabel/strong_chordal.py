"""Strong chordality recognition and forbidden-structure detection.

A graph is strongly chordal when it is chordal and contains no induced
n-sun for any n >= 3. The recognizer runs in polynomial time by greedily
eliminating simple vertices, and a rejection's sun is read off a
vertex-minimal elimination residue, also in polynomial time. The
exhaustive sun search is an oracle (matlabel.oracle).
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .chordal import find_chordless_cycle, find_peo
from .graph import Graph, find_embedding, peel


def is_simple_vertex(g: Graph, v: int) -> bool:
    """True iff the closed neighborhoods of N[v] form an inclusion chain.

    Simple vertices are in particular simplicial, so N[v] is the least link
    of the chain and the others follow in degree order; for adjacent x and
    u, N[x] <= N[u] iff N(x) - N(u) is {u}. Simplicity is hereditary, and
    greedy removal of simple vertices succeeds exactly on strongly chordal
    graphs. g may also be graph.peel's adjacency dict.
    """
    below = v
    for u in sorted(g[v], key=lambda u: len(g[u])):
        if g[below] - g[u] != {u}:
            return False
        below = u
    return True


def simple_elimination(g: Graph) -> tuple[list[int], Graph]:
    """Greedy simple elimination: (the ordering found, the stuck residue).

    graph.peel removes the smallest simple vertex while there is one; the
    ordering lists the removed vertices, last first. Strong chordality is
    hereditary and gives a simple vertex at every step, so the residue is
    empty exactly when g is strongly chordal. It keeps every induced sun of
    g, since no sun vertex is ever simple in a graph containing the sun.
    """
    removal, left = peel(g, is_simple_vertex)
    return removal[::-1], g.induced_subgraph(left)


def find_simple_elimination_ordering(g: Graph) -> list[int] | None:
    """Ordering (v_1, ..., v_l) with v_i simple in g[{v_1..v_i}], or None."""
    order, residue = simple_elimination(g)
    return None if residue.n else order


def is_strongly_chordal(g: Graph) -> bool:
    return find_simple_elimination_ordering(g) is not None


class SunWitness(NamedTuple):
    """An induced n-sun: `inner` is the central clique in cyclic order and
    outer[i] is adjacent to exactly inner[i] and inner[(i+1) % n]."""

    n: int
    inner: tuple[int, ...]
    outer: tuple[int, ...]

    def as_json(self) -> dict:
        return {"kind": "sun", "n": self.n,
                "inner": list(self.inner), "outer": list(self.outer)}


def find_sun(g: Graph) -> SunWitness | None:
    """An induced sun of a chordal graph, or None exactly when g is strongly
    chordal.

    Starts from the residue R of simple_elimination(g) and visits each of
    its vertices v in ascending order: if v is still in R and the residue
    of R - v is not empty, that residue becomes R. At the end R - v is
    strongly chordal for every v in R, because it is an induced subgraph of
    the R' - v seen when v was visited and strong chordality is hereditary.
    A vertex-minimal chordal graph that is not strongly chordal is a sun
    (Farber 1983), so R is one. Its inner vertices have degree k + 1 and
    its outer ones degree 2; the witness is the least of the sun's 2k
    dihedral images, which starts at the least inner vertex and goes on to
    its smaller cyclic neighbour. That is detect_induced_sun's witness when
    g has a single sun. Costs O(|R|) simple eliminations after the first.

    Raises RuntimeError when R is not a sun, which happens only when g is
    not chordal (R is then, for example, a chordless cycle).
    """
    residue = simple_elimination(g)[1]
    if not residue.n:
        return None
    for v in residue.vertices:
        if residue.has_vertex(v):
            smaller = simple_elimination(residue.delete_vertex(v))[1]
            if smaller.n:
                residue = smaller
    sun = _sun_on(residue)
    if sun is None:
        raise RuntimeError(f"find_sun: the minimal residue of a graph with {g.n} "
                           f"vertices is not a sun ({residue.n} vertices)")
    return sun


def _sun_on(r: Graph) -> SunWitness | None:
    """The least dihedral image of a sun on all of r, or None if r is no sun."""
    k = r.n // 2
    inner = [v for v in r.vertices if r.degree(v) == k + 1]
    if k < 3 or len(inner) != k:
        return None
    ring, outer = [inner[0]], []
    for _ in range(k):
        # (next inner vertex, outer vertex between them), never stepping back
        step = [(u, o) for o in r.neighborhood(ring[-1]) if r.degree(o) == 2
                for u in r.neighborhood(o) if u != ring[-1] and u not in ring[-2:-1]]
        if not step:
            return None
        u, o = min(step)
        ring.append(u)
        outer.append(o)
    image = ring[:k] + outer
    if ring[k] != ring[0] or len(set(image)) != 2 * k:
        return None
    pattern = n_sun(k)
    if Graph(image, [(image[a - 1], image[b - 1]) for a, b in pattern.edges]) != r:
        return None
    return SunWitness(k, tuple(ring[:k]), tuple(outer))


def find_induced_subgraph(g: Graph, pattern: Graph) -> dict[int, int] | None:
    """Injective map from pattern vertices to g realizing pattern as an
    induced subgraph, or None.

    A graph.find_embedding over the vertices of g in ascending order:
    pattern vertices are placed in ascending order, each on the smallest
    vertex of g with exactly the pattern's adjacencies to the vertices
    already placed, so the map is the least one in that order. A pattern
    vertex with an earlier neighbour in the pattern draws its candidates
    from the ascending neighbourhood of the image of the first such
    neighbour: that drops only vertices that fail the adjacency test, so
    the least map is the same, and a connected pattern scans all of g only
    for its first vertex. Rows are adjacency bytes over vertex indices.
    Exponential in the worst case.
    """
    pverts, verts = pattern.vertices, g.vertices
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [sorted(index[u] for u in g.neighborhood(v)) for v in verts]

    def adjacency(i):
        row = bytearray(len(verts))
        for j in nbrs[i]:
            row[j] = 1
        return row

    want = [tuple(int(pattern.has_edge(p, q)) for q in pverts[:i])
            for i, p in enumerate(pverts)]
    anchor = [w.index(1) if 1 in w else None for w in want]

    def candidates(image):
        a = anchor[len(image)]
        return range(len(verts)) if a is None else nbrs[image[a]]

    image = find_embedding(candidates, want, adjacency)
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


def claw_or_net(g: Graph):
    """("claw", map) or ("net", map) for an induced claw or net, or None.

    The claw is searched for first; each map is find_induced_subgraph's
    least one. A strongly chordal graph has no sun (Farber 1983), so it is
    unit interval exactly when this returns None.
    """
    for kind, pattern in (("claw", claw()), ("net", net())):
        hit = find_induced_subgraph(g, pattern)
        if hit is not None:
            return kind, hit
    return None


def strongly_chordal_obstruction(g: Graph):
    """The first rung of strongly chordal ⊂ chordal that g fails, or None
    exactly when g is strongly chordal.

    ("chordless-cycle", vertices) when g is not chordal, else ("sun",
    SunWitness) when g has an induced sun (Farber 1983). It runs one MCS
    pass, which Graph caches for maximal_cliques, and find_sun.
    """
    if find_peo(g) is None:
        return ("chordless-cycle", find_chordless_cycle(g))
    sun = find_sun(g)
    return None if sun is None else ("sun", sun)


def unit_interval_obstruction(g: Graph):
    """The first rung of unit interval ⊂ strongly chordal ⊂ chordal that g
    fails, or None exactly when g is unit interval.

    strongly_chordal_obstruction(g), else claw_or_net(g). A chordal graph
    is unit interval iff it has no induced claw, net or 3-sun (Wegner
    1967), and a k-sun with k >= 4 holds a claw, so any sun rules g out.
    """
    return strongly_chordal_obstruction(g) or claw_or_net(g)


def is_unit_interval(g: Graph) -> bool:
    """Chordal with no induced claw, net or sun."""
    return unit_interval_obstruction(g) is None


def __getattr__(name):
    # clibench/layers.py spans the exhaustive sun search under this module
    if name == "detect_induced_sun":
        from . import oracle
        return oracle.detect_induced_sun
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
