"""Maximal cliques of chordal graphs and their intersection poset.

The clique intersection poset has as nodes every intersection of a
nonempty family of maximal cliques, ordered by inclusion. Its minimum is
the intersection of all maximal cliques (possibly the empty set). Crowns
in this poset are exactly the obstruction to strong chordality; the one
gate, strongly_chordal_poset, lifts one from an induced sun before any
poset is built (witness.crown_from_sun), and the exhaustive crown search
is an oracle (matlabel.oracle).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .chordal import find_peo
from .errors import NoLeafPairError, NotChordalError, NotStronglyChordalError
from .graph import Graph, sorted_sets
from .strong_chordal import strongly_chordal_obstruction


def maximal_cliques(g: Graph) -> tuple[frozenset[int], ...]:
    """All maximal cliques of a chordal graph, canonically sorted.

    Computed from the MCS order that find_peo returns: each vertex together
    with its earlier neighbors is a clique, every maximal clique arises this
    way, and along an MCS order a candidate is maximal iff it is not a
    proper subset of the next one (Blair & Peyton 1993). Raises
    NotChordalError on non-chordal input.
    """
    order = find_peo(g)
    if order is None:
        raise NotChordalError("graph is not chordal")
    if g.n == 0:
        return (frozenset(),)
    position = {v: i for i, v in enumerate(order)}
    candidates = [frozenset(u for u in g.neighborhood(v) if position[u] < i) | {v}
                  for i, v in enumerate(order)]
    return sorted_sets(c for c, after in zip(candidates, candidates[1:] + [frozenset()])
                       if not c < after)


class CliquePoset:
    """Inclusion poset of all intersections of a family of maximal cliques.

    `nodes` is canonically sorted, so by size, and its first node is the
    meet of all the cliques; `covers` maps each node to its lower covers
    and `maximal_nodes` is the family.

    Lemma: the lower covers of a node x are the largest of the meets x & c
    over the cliques c that do not contain x. Proof: each such meet is a
    node below x. A node y < x is the meet of the cliques containing it;
    not all of them contain x (else y would), so y lies in one such x & c.

    So a worklist down from the cliques through the covers it finds reaches
    every node. Meets are taken largest first, each kept unless it lies in
    a cover kept before it (a later meet is no larger, so contains none).

    The meets of x are those with the cliques through its vertices, plus
    the empty set when some clique misses x. Proof: a clique c that meets
    x shares a vertex v of x, so an index from each vertex to the cliques
    that contain it lists c under v; a clique c disjoint from x
    contributes only x & c = the empty set. A wide node, whose vertices
    lie in as many cliques in all (with repeats) as there are cliques, is
    met with every clique instead: the index walk would visit no fewer.

    Lemma: for the maximal cliques of a strongly chordal graph, every
    non-empty node x is K({u, v}) for some u, v in x, u = v allowed, where
    K(S) is the meet of the cliques that contain S; so there are at most
    n + m + 1 nodes. Proof: x is the meet of the cliques that contain it,
    which are the intersection of the sets C_u (u in x) of cliques through
    u, so it is enough that two of these sets meet in the intersection of
    all. Three sets C_a, C_b, C_c without such a pair have cliques Q1 in
    C_a & C_b - C_c, Q2 in C_b & C_c - C_a and Q3 in C_a & C_c - C_b, whose
    rows in the clique matrix form a 3-cycle on the columns a, b, c; the
    clique matrix of a strongly chordal graph is totally balanced (Farber
    1983) and has none. For k > 3 sets, by induction the first k - 1 have a
    pair C_i, C_j meeting in their intersection, so all k meet in C_i &
    C_j & C_k, and the case of three gives a pair among those. (This is the
    strong 2-Helly property of the dual clique hypergraph.) Without strong
    chordality the bound fails: D_t has about 2^t nodes on O(t^2) edges.
    """

    __slots__ = ("nodes", "covers", "maximal_nodes")

    def __init__(self, cliques: Iterable[frozenset[int]]):
        self.maximal_nodes: frozenset[frozenset[int]] = frozenset(cliques)
        if not self.maximal_nodes:
            raise ValueError("poset needs at least one maximal clique")
        containing: dict[int, list[frozenset[int]]] = {}
        for c in self.maximal_nodes:
            for v in c:
                containing.setdefault(v, []).append(c)
        load = {v: len(cs) for v, cs in containing.items()}
        n_cliques = len(self.maximal_nodes)
        covers: dict[frozenset[int], list[frozenset[int]]] = {}
        todo = list(self.maximal_nodes)
        while todo:
            x = todo.pop()
            if x in covers:
                continue
            kept = covers[x] = []
            if sum(map(load.__getitem__, x)) < n_cliques:
                through = {c for v in x for c in containing[v]}
                meets = {x & c for c in through}
                if len(through) < n_cliques:
                    meets.add(frozenset())
            else:
                meets = {x & c for c in self.maximal_nodes}
            meets.discard(x)  # x & c is x iff c >= x
            for meet in sorted(meets, key=len, reverse=True):
                if not any(meet < y for y in kept):
                    kept.append(meet)
            todo.extend(kept)
        self.nodes: tuple[frozenset[int], ...] = sorted_sets(covers)
        self.covers: dict[frozenset[int], tuple[frozenset[int], ...]] = {
            x: sorted_sets(covers[x]) for x in self.nodes}

    def __contains__(self, node) -> bool:
        return frozenset(node) in self.covers


def build_poset(g: Graph) -> CliquePoset:
    """Clique intersection poset of a chordal graph; NotChordalError if not."""
    return CliquePoset(maximal_cliques(g))


def strongly_chordal_poset(g: Graph) -> CliquePoset:
    """Clique intersection poset of a strongly chordal graph, so crown-free.

    Any other graph raises NotStronglyChordalError before a poset, which
    can have about 2^(n/2) nodes, is built: the chordless cycle of
    strongly_chordal_obstruction, or the crown that crown_from_sun lifts
    from its sun.
    """
    kind, hit = strongly_chordal_obstruction(g) or (None, None)
    if kind == "sun":
        from .witness import crown_from_sun

        kind, hit = "crown", crown_from_sun(maximal_cliques(g), hit)
    if kind is not None:
        raise NotStronglyChordalError(kind, hit)
    return build_poset(g)


def leaf_pair(
    p: CliquePoset, t: Sequence[frozenset[int]]
) -> tuple[frozenset[int], frozenset[int]]:
    """Distinct X0, Y0 in t with X0 & Y0 containing X0 & Y for every Y in t.

    t must be an antichain of at least two poset nodes. Existence is
    guaranteed when the underlying graph is strongly chordal. The pair is
    the first X0, then the first Y0, whose meet is the union of X0's meets
    with the other nodes, which is the containment for every Y. When no
    pair exists a NoLeafPairError carrying the antichain is raised, which
    signals a crown obstruction.
    """
    elems = sorted_sets(t)
    if len(elems) < 2 or len(set(elems)) != len(elems):
        raise ValueError("need an antichain of at least two distinct nodes")
    unknown = [x for x in elems if x not in p]
    if unknown:
        raise ValueError(f"not poset nodes: {[sorted(u) for u in unknown]}")
    # elems ascend in size, so only a later set can contain an earlier one
    if any(a < b for a, b in combinations(elems, 2)):
        raise ValueError("given nodes are not an antichain")
    for x0 in elems:
        meets = [(y, x0 & y) for y in elems if y != x0]
        union = frozenset().union(*(meet for _, meet in meets))
        y0 = next((y for y, meet in meets if meet == union), None)
        if y0 is not None:
            return x0, y0
    raise NoLeafPairError(elems)


def __getattr__(name):
    # clibench/layers.py spans the exhaustive crown search under this module
    if name == "find_any_crown":
        from . import oracle
        return oracle.find_any_crown
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
