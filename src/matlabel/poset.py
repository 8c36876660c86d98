"""Maximal cliques of chordal graphs and their intersection poset.

The clique intersection poset has as nodes every intersection of a
nonempty family of maximal cliques, ordered by inclusion. Its minimum is
the intersection of all maximal cliques (possibly the empty set). Crowns
in this poset are exactly the obstruction to strong chordality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .chordal import find_peo
from .errors import NoLeafPairError, NotChordalError
from .graph import Graph, find_embedding, sorted_sets


def maximal_cliques(g: Graph) -> tuple[frozenset[int], ...]:
    """All maximal cliques of a chordal graph, canonically sorted.

    Computed from a PEO: each vertex together with its earlier neighbors
    is a clique, and every maximal clique arises this way. Raises
    NotChordalError on non-chordal input.
    """
    order = find_peo(g)
    if order is None:
        raise NotChordalError("graph is not chordal")
    if g.n == 0:
        return (frozenset(),)
    position = {v: i for i, v in enumerate(order)}
    candidates = []
    for i, v in enumerate(order):
        earlier = frozenset(u for u in g.neighborhood(v) if position[u] < i)
        candidates.append(earlier | {v})
    maximal = [
        c for c in candidates
        if not any(c < other for other in candidates)
    ]
    return sorted_sets(maximal)


class CliquePoset:
    """Inclusion poset of all intersections of maximal cliques.

    `nodes` is canonically sorted; `covers` maps each node to the nodes it
    covers (its lower covers); `rank` is the length of a maximum chain up
    from the minimum node; `maximal_nodes` flags the maximal cliques.
    """

    __slots__ = ("nodes", "covers", "rank", "maximal_nodes", "bottom")

    def __init__(self, nodes: Iterable[frozenset[int]],
                 maximal_nodes: Iterable[frozenset[int]] = ()):
        self.nodes: tuple[frozenset[int], ...] = sorted_sets(nodes)
        if not self.nodes:
            raise ValueError("poset needs at least one node")
        self.maximal_nodes: frozenset[frozenset[int]] = frozenset(maximal_nodes)
        self.covers: dict[frozenset[int], tuple[frozenset[int], ...]] = {}
        for x in self.nodes:
            below = [y for y in self.nodes if y < x]
            covered = [y for y in below if not any(y < z for z in below if z < x)]
            self.covers[x] = sorted_sets(covered)
        bottoms = [x for x in self.nodes if not self.covers[x]]
        self.bottom = bottoms[0] if len(bottoms) == 1 else None
        self.rank: dict[frozenset[int], int] = {}
        for x in self.nodes:  # nodes are sorted by size, so covers come first
            covered = self.covers[x]
            self.rank[x] = 1 + max(self.rank[y] for y in covered) if covered else 0

    def __contains__(self, node) -> bool:
        return frozenset(node) in self.covers

    def __len__(self) -> int:
        return len(self.nodes)

    def is_antichain(self, t: Iterable[frozenset[int]]) -> bool:
        elems = sorted_sets(t)
        return all(
            not (a < b or b < a)
            for i, a in enumerate(elems) for b in elems[i + 1:]
        )


def build_poset(g: Graph) -> CliquePoset:
    """Clique intersection poset of a chordal graph.

    The node set is the fixpoint of the maximal cliques under pairwise
    intersection (intersections over larger families are folds of pairwise
    ones). The empty set appears only when some cliques are disjoint.
    """
    cliques = maximal_cliques(g)
    nodes = set(cliques)
    frontier = set(cliques)
    while frontier:
        fresh = set()
        for x in frontier:
            for c in cliques:
                meet = x & c
                if meet not in nodes:
                    fresh.add(meet)
        nodes |= fresh
        frontier = fresh
    return CliquePoset(nodes, cliques)


@dataclass(frozen=True)
class CrownWitness:
    """An induced k-crown: lower[i] < upper[i] and lower[i] < upper[i+1]
    (cyclically) are the only comparabilities."""

    k: int
    lower: tuple[frozenset[int], ...]
    upper: tuple[frozenset[int], ...]

    def as_json(self) -> dict:
        return {
            "kind": "crown",
            "k": self.k,
            "lower": [sorted(x) for x in self.lower],
            "upper": [sorted(y) for y in self.upper],
        }


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
    image = find_embedding(range(len(nodes)), pattern, compare.__getitem__)
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


def leaf_pair(
    p: CliquePoset, t: Sequence[frozenset[int]]
) -> tuple[frozenset[int], frozenset[int]]:
    """Distinct X0, Y0 in t with X0 & Y0 containing X0 & Y for every Y in t.

    t must be an antichain of at least two poset nodes. Existence is
    guaranteed when the underlying graph is strongly chordal; exhaustive
    pair search with the containment verified against every Y keeps the
    output independent of any structure theory. When no pair exists a
    NoLeafPairError carrying the antichain is raised, which signals a
    crown obstruction.
    """
    elems = sorted_sets(t)
    if len(elems) < 2 or len(set(elems)) != len(elems):
        raise ValueError("need an antichain of at least two distinct nodes")
    unknown = [x for x in elems if x not in p]
    if unknown:
        raise ValueError(f"not poset nodes: {[sorted(u) for u in unknown]}")
    if not p.is_antichain(elems):
        raise ValueError("given nodes are not an antichain")
    for x0 in elems:
        meets = {y: x0 & y for y in elems if y != x0}
        for y0 in elems:
            if y0 == x0:
                continue
            if all(meets[y] <= meets[y0] for y in meets):
                return x0, y0
    raise NoLeafPairError(elems)
