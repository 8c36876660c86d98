"""Standard graph constructions, the height labeling of a clique, and
seeded random generators."""

from __future__ import annotations

import random
from itertools import combinations

from matlabel.graph import Graph
from matlabel.labeling import EdgeLabeling
from matlabel.strong_chordal import is_simple_vertex, is_strongly_chordal
from matlabel.witness import n_sun

__all__ = [
    "blown_up_net", "claw", "complete_graph", "cycle_graph", "height_labeling_complete",
    "n_sun", "net", "path_graph", "random_graph", "random_strongly_chordal", "rising_sun",
    "RISING_SUN_MARKED_EDGE",
]


def complete_graph(ell: int, vertices=None) -> Graph:
    vs = sorted(vertices) if vertices is not None else list(range(1, ell + 1))
    if len(vs) != ell:
        raise ValueError(f"expected {ell} vertices, got {len(vs)}")
    return Graph(vs, combinations(vs, 2))


def height_labeling_complete(ell: int, vertices=None) -> EdgeLabeling:
    """Label K_ell (default vertices 1..ell) by index distance j - i.

    Block sizes are (ell-1, ell-2, ..., 1).
    """
    if ell < 1:
        raise ValueError("need at least one vertex")
    g = complete_graph(ell, vertices)
    labels = {(u, v): j - i for (i, u), (j, v) in combinations(enumerate(g.vertices), 2)}
    return EdgeLabeling(g, labels)


def _check_size(n: int) -> None:
    if n < 0:
        raise ValueError(f"a graph cannot have {n} vertices")


def path_graph(n: int) -> Graph:
    _check_size(n)
    return Graph(range(1, n + 1), [(i, i + 1) for i in range(1, n)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph(range(1, n + 1), [(i, i % n + 1) for i in range(1, n + 1)])


def claw() -> Graph:
    """K_{1,3}: center 1 with leaves 2, 3, 4."""
    return Graph.from_edges([(1, 2), (1, 3), (1, 4)])


def net() -> Graph:
    """Triangle 1-2-3 with a pendant vertex on each corner."""
    return Graph.from_edges([(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)])


def blown_up_net(s: int, first: int) -> Graph:
    """The net with each vertex p replaced by s true twins, first + s(p - 1)
    and on: strongly chordal, claw-free, and its least net is the first twin
    of each of its vertices."""
    twins = {p: range(first + s * (p - 1), first + s * p) for p in net().vertices}
    edges = [(u, v) for p in twins for u in twins[p] for v in twins[p] if u < v]
    edges += [(u, v) for p, q in net().edges for u in twins[p] for v in twins[q]]
    return Graph.from_edges(edges)


def rising_sun() -> Graph:
    """A 3-sun with one outer vertex replaced by an inner clique edge.

    Vertices 1..4 form a clique; 5, 6, 7 are outer vertices adjacent to
    {2, 3}, {3, 4}, {4, 1}. Contracting the marked edge (1, 2) produces the
    3-sun, so this graph is strongly chordal while one contraction is not.
    """
    edges = list(combinations(range(1, 5), 2))
    edges += [(2, 5), (3, 5), (3, 6), (4, 6), (4, 7), (1, 7)]
    return Graph(range(1, 8), edges)


RISING_SUN_MARKED_EDGE = (1, 2)


def random_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform graph with n vertices 1..n and m edges."""
    _check_size(n)
    slots = list(combinations(range(1, n + 1), 2))
    if m > len(slots):
        raise ValueError(f"at most {len(slots)} edges on {n} vertices")
    return Graph(range(1, n + 1), rng.sample(slots, m))


def random_strongly_chordal(n: int, seed=None, rng: random.Random | None = None,
                            grow_bias: float = 0.6) -> Graph:
    """Random strongly chordal graph grown by inverse simple elimination.

    Each new vertex is attached to a clique chosen so the vertex is simple
    in the grown graph, which makes the reverse insertion order a simple
    elimination ordering; a pendant attachment always qualifies, so growth
    never stalls. The graph grows in one {vertex: neighbours} dict, where a
    rejected attachment is undone, and becomes a Graph at the end. The
    output is re-checked with the recognizer.
    """
    _check_size(n)
    if n == 0:
        return Graph()
    if rng is None:
        rng = random.Random(seed)
    adj: dict[int, set[int]] = {1: set()}
    for v in range(2, n + 1):
        grown = range(1, v)
        for _ in range(30):
            anchor = rng.choice(grown)
            clique = {anchor}
            pool = set(adj[anchor])
            while pool and rng.random() < grow_bias:
                w = rng.choice(sorted(pool))
                clique.add(w)
                pool &= adj[w]
            _attach(adj, v, clique)
            if is_simple_vertex(adj, v):
                break
            for u in adj.pop(v):
                adj[u].discard(v)
        else:
            _attach(adj, v, [rng.choice(grown)])
    g = Graph(adj, ((u, w) for u in adj for w in adj[u] if u < w))
    if not is_strongly_chordal(g):
        raise RuntimeError(f"random_strongly_chordal: grown graph with {g.n} "
                           f"vertices is not strongly chordal")
    return g


def _attach(adj: dict[int, set[int]], v: int, nbrs) -> None:
    adj[v] = set(nbrs)
    for u in adj[v]:
        adj[u].add(v)
