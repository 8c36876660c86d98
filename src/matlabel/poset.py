"""Maximal cliques of chordal graphs and their intersection poset.

The clique intersection poset has as nodes every intersection of a
nonempty family of maximal cliques, ordered by inclusion. Its minimum is
the intersection of all maximal cliques (possibly the empty set). Crowns
in this poset are exactly the obstruction to strong chordality; the one
gate, strongly_chordal_poset, lifts one from an induced sun before any
poset is built (witness.crown_from_sun), and the exhaustive crown search
is an oracle (matlabel.oracle). The module also holds the package's three
exception types, as it is the one that raises them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from .chordal import find_peo
from .graph import Graph, sorted_sets
from .strong_chordal import strongly_chordal_obstruction


class NotChordalError(ValueError):
    """Raised by operations whose precondition is a chordal input graph."""


class NoLeafPairError(Exception):
    """No leaf pair exists in the given antichain.

    For clique intersection posets of chordal graphs this signals a crown
    obstruction, i.e. the underlying graph is not strongly chordal. Carries
    the offending antichain.
    """

    def __init__(self, antichain):
        self.antichain = tuple(antichain)
        super().__init__(f"no leaf pair in antichain of size {len(self.antichain)}")


class NotStronglyChordalError(Exception):
    """Structured rejection of a non strongly chordal input.

    ``kind`` is "chordless-cycle" (input not even chordal) or "crown"
    (poset obstruction); ``witness`` is the corresponding machine-checkable
    object.
    """

    def __init__(self, kind: str, witness):
        self.kind = kind
        self.witness = witness
        super().__init__(f"graph is not strongly chordal ({kind} witness)")


def clique_tree(g: Graph) -> tuple[list[frozenset[int]], list[int | None]]:
    """Maximal cliques and a clique tree of a chordal graph; NotChordalError if not.

    parent[i] < i is the index of clique i's parent, None at each root. Each
    vertex and its earlier neighbors in find_peo's MCS order form a clique,
    maximal iff not a proper subset of the next: so a vertex joins the clique
    being grown iff its earlier neighbors are that clique, else starts one
    under the clique of its latest earlier neighbor (Blair & Peyton 1993).
    """
    order = find_peo(g)
    if order is None:
        raise NotChordalError("graph is not chordal")
    if g.n == 0:
        return [frozenset()], [None]
    home = {}  # vertex -> the index of its clique, which grows along the order
    cliques, parent = [], []
    for v in order:
        earlier = frozenset(u for u in g.neighborhood(v) if u in home)
        if not cliques or earlier != cliques[-1]:
            parent.append(max(map(home.__getitem__, earlier), default=None))
            cliques.append(earlier)
        cliques[-1] |= {v}
        home[v] = len(cliques) - 1
    return cliques, parent


def maximal_cliques(g: Graph) -> tuple[frozenset[int], ...]:
    """All maximal cliques of a chordal graph, canonically sorted; see clique_tree."""
    return sorted_sets(clique_tree(g)[0])


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

    Lemma: let `parent` make the cliques a clique tree T, as clique_tree
    returns it. The meets of a nonempty x need only the cliques next to C_x
    in T, plus the empty set when T is a forest, where the cliques through
    x, C_x, are the intersection of its vertices' subtrees, so a subtree.
    Proof: for a clique c outside C_x in the tree of C_x, the T-path from c
    enters C_x through a neighbor c' of C_x, and every vertex of x & c lies
    on that whole path, so x & c <= x & c'. Another tree's cliques miss x.

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

    def __init__(self, cliques: Sequence[frozenset[int]], parent: Sequence[int | None]):
        self.maximal_nodes: frozenset[frozenset[int]] = frozenset(cliques)
        if not self.maximal_nodes:
            raise ValueError("poset needs at least one maximal clique")
        through = {}  # vertex -> the indices of the cliques through it
        near = [[] for _ in cliques]  # index -> its neighbors in the tree
        for i, (c, up) in enumerate(zip(cliques, parent, strict=True)):
            for v in c:
                through.setdefault(v, set()).add(i)
            if up is not None:
                near[i].append(up)
                near[up].append(i)
        apart = {frozenset()} if parent.count(None) > 1 else set()  # other trees' meets
        covers: dict[frozenset[int], list[frozenset[int]]] = {}
        todo = list(self.maximal_nodes)
        while todo:
            x = todo.pop()
            if x in covers:
                continue
            kept = covers[x] = []
            if not x:
                continue  # the least node
            ids = [through[v] for v in x]
            inside = min(ids, key=len).intersection(*ids)
            meets = apart | {x & cliques[j] for i in inside for j in near[i] if j not in inside}
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
    return CliquePoset(*clique_tree(g))


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
