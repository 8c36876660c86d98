"""Helpers that only the tests use, kept out of the library's modules."""

from __future__ import annotations

import random
from itertools import combinations
from typing import Iterable

from matlabel.graph import Graph, _check_vertex_id, canonical_edge, peel, sorted_sets
from matlabel.labeling import EdgeLabeling
from matlabel.oracle import find_embedding, is_simplicial
from matlabel.witness import CrownWitness


def add_vertex(g: Graph, v: int, neighbors: Iterable[int] = ()) -> Graph:
    """New graph with vertex v joined to the given existing vertices of g."""
    nbrs = g._require_subset(neighbors)
    if g.has_vertex(v):
        raise ValueError(f"vertex {v} already present")
    _check_vertex_id(v)
    return Graph(g.vertex_set | {v}, list(g.edges) + [(v, w) for w in nbrs])


def band(n: int, w: int) -> Graph:
    """Vertices 1..n, ij an edge iff 0 < |i - j| <= w: a unit interval graph
    whose maximal cliques are its windows of w + 1 consecutive vertices."""
    return Graph(range(1, n + 1), [(i, j) for i in range(1, n + 1)
                                   for j in range(i + 1, min(n, i + w) + 1)])


def is_clique(g: Graph, s: Iterable[int]) -> bool:
    """True iff the vertices of s are pairwise adjacent (vacuous for |s| <= 1)."""
    vs = g._require_subset(s)
    return all(g.has_edge(u, v) for u, v in combinations(sorted(vs), 2))


def restrict_edges(lab: EdgeLabeling, edges: Iterable[tuple[int, int]]) -> EdgeLabeling:
    """Restriction of lab to the subgraph (V, F) for an edge subset F."""
    fs = {canonical_edge(*e) for e in edges}
    unknown = fs - set(lab.labels)
    if unknown:
        raise ValueError(f"not edges of the graph: {sorted(unknown)}")
    return EdgeLabeling(Graph(lab.graph.vertices, fs), {e: lab.label(*e) for e in fs})


def with_label(lab: EdgeLabeling, u: int, v: int, k: int) -> EdgeLabeling:
    """Copy of lab with one edge relabeled (for mutation testing)."""
    labels = lab.labels
    labels[canonical_edge(u, v)] = k
    return EdgeLabeling(lab.graph, labels)


def random_peo(g: Graph, rng: random.Random) -> list[int] | None:
    """A haphazard valid PEO, or None: graph.peel's simplicial removal under
    a random relabeling of g, which can give every PEO of g."""
    ids = rng.sample(g.vertices, g.n)  # vertex ids[i] is relabeled i
    to = {v: i for i, v in enumerate(ids)}
    removal, left = peel(Graph(range(g.n), [(to[u], to[v]) for u, v in g.edges]),
                         is_simplicial)
    return None if left else [ids[i] for i in reversed(removal)]


def sorted_scan_mat_peo(table, vs, kept, stage: str) -> list[int]:
    """construct._mat_peo as it was before it walked the top edge: all
    pairs of the clique sorted by label, scanned for each step's top edge."""
    left = set(vs)
    top = iter(sorted(combinations(sorted(vs), 2), key=table.__getitem__, reverse=True))
    removal = []
    while len(left) > max(len(kept), 1):
        u, v = next(e for e in top if e[0] in left and e[1] in left)
        if table[u, v] != len(left) - 1 or (u in kept and v in kept):
            raise RuntimeError(f"{stage}: no MAT-PEO of a clique of size {len(vs)}")
        peeled = v if u in kept else u
        left.remove(peeled)
        removal.append(peeled)
    removal.extend(left - kept)
    return removal[::-1]


def graph_to_json_dict(g: Graph) -> dict:
    return {"vertices": list(g.vertices), "edges": [list(e) for e in g.edges]}


# polynomials are coefficient tuples, lowest degree first, no trailing
# zeros, as arrangement.chromatic_polynomial returns them; the expected
# ones are built here, not by the code under test

def product(*polys: tuple[int, ...]) -> tuple[int, ...]:
    """The product of the given polynomials; (1,) for none."""
    out = [1]
    for poly in polys:
        step = [0] * (len(out) + len(poly) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(poly):
                step[i + j] += a * b
        out = step
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def from_roots(roots: Iterable[int]) -> tuple[int, ...]:
    """The monic polynomial prod (t - r) over the given roots."""
    return product(*((-r, 1) for r in roots))


def evaluate(poly: tuple[int, ...], t: int) -> int:
    """The value of a polynomial at t, by Horner's rule."""
    acc = 0
    for c in reversed(poly):
        acc = acc * t + c
    return acc


def degree(poly: tuple[int, ...]) -> int:
    """The degree of a polynomial; -1 for the zero polynomial ()."""
    return len(poly) - 1


def all_nodes_crown(p, k: int) -> CrownWitness | None:
    """oracle.find_crown as it was before it drew candidates that can
    complete: every node is offered at every position."""
    nodes = tuple(p.nodes) if hasattr(p, "nodes") else sorted_sets(set(map(frozenset, p)))
    if len(nodes) < 2 * k:
        return None
    compare = [[(x < y) - (y < x) for y in nodes] for x in nodes]
    pattern = [(0,) * i for i in range(k)]
    pattern += [tuple(int(j == i or (j + 1) % k == i) for j in range(k)) + (0,) * i
                for i in range(k)]
    image = find_embedding(lambda image: range(len(nodes)), pattern, compare.__getitem__)
    if image is None:
        return None
    return CrownWitness(k, tuple(nodes[a] for a in image[:k]),
                        tuple(nodes[a] for a in image[k:]))


def spy_on_claw_and_net_scans(monkeypatch) -> list[str]:
    """The list that "claw" or "net" is appended to each time classify's
    rung runs unit_interval's claw or net scan."""
    from matlabel import unit_interval

    scanned = []
    for kind in ("claw", "net"):
        real_scan = getattr(unit_interval, f"_least_{kind}")

        def spy(near, kind=kind, real_scan=real_scan):
            scanned.append(kind)
            return real_scan(near)

        monkeypatch.setattr(unit_interval, f"_least_{kind}", spy)
    return scanned
