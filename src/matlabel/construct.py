"""Constructing MAT-labelings of strongly chordal graphs.

A MAT-labeled clique extends to a larger one a vertex at a time, along a
greedy MAT-PEO read off the clique's top edges, and two compatibly
labeled cliques merge into a labeling of their union clique. A
strongly chordal graph is then labeled by one edge -> label table, filled
node by node over its clique intersection poset by merging each node's
covers and extending to the whole node, and verified once. The
poset comes from poset.strongly_chordal_poset, which rejects a graph that
is not strongly chordal before it builds one. Every greedy choice breaks
ties by smallest vertex id, so the whole construction is a deterministic
function of the input graph.
"""

from __future__ import annotations

from itertools import combinations, count

from .graph import Graph, canonical_edge
from .labeling import EdgeLabeling, verify_mat_labeling
from .poset import (CliquePoset, NoLeafPairError, build_poset, leaf_pair,
                    strongly_chordal_poset)


def _complete(vertices) -> Graph:
    vs = sorted(vertices)
    return Graph(vs, combinations(vs, 2))


def _require_valid_complete(lab: EdgeLabeling, what: str) -> None:
    g = lab.graph
    if g.m != g.n * (g.n - 1) // 2:
        raise ValueError(f"{what} must be a labeling of a complete graph")
    violation = verify_mat_labeling(lab)
    if violation is not None:
        raise ValueError(f"{what} is not a MAT-labeling: {violation.detail}")


def _mat_peo(table, vs, kept, stage: str) -> list[int]:
    """vs - kept in the greedy MAT-PEO order of the clique on vs in table.

    Lemma: in a MAT-labeled clique K on r >= 2 vertices, (a) along a
    MAT-PEO v_1..v_r the labels from v_i back are 1..i-1, so one edge, the
    top edge, has label r - 1; (b) MS2 puts each MAT-simplicial vertex on
    it; (c) both its ends are MAT-simplicial. Proof of (c) by induction on
    r, r = 2 being clear: v_r is one end, u the other. Let pq be the top
    edge of K - v_r and w v_r the other edge labeled r - 2. ML3 at pq needs
    exactly r - 3 triangles with both other labels below r - 2; the r - 3
    in K - v_r have them, so p v_r or q v_r is labeled >= r - 2 and {p, q}
    meets {u, w}. If u is not in {p, q}, say w = p, then ML2 on pq and
    p v_r in pi_(r-2) forces label(q, v_r) >= r - 2, so = r - 1 and q = u.
    So u is MAT-simplicial in K - v_r, and adding v_r adds label r - 1 at
    u (MS2) and pairs {a, v_r} labeled <= r - 2 < r - 1 (MS3).

    Removing a MAT-simplicial vertex leaves a MAT-labeling, so the greedy
    peels the smaller end outside kept of the top edge of the vertices
    left. One max over the clique's pairs finds the first top edge; after
    that no pair is searched. The end left behind was MAT-simplicial (c),
    so it still is in the vertices left, and MS2 puts it on their top
    edge: the next top edge is the largest label on its row. If a top edge
    is not labeled (vertices left - 1), or both its ends are kept, no
    MAT-PEO starts with the kept vertices.
    """
    left = set(vs)
    row = combinations(sorted(vs), 2)
    removal = []
    while len(left) > max(len(kept), 1):
        u, v = max(row, key=table.__getitem__)
        if table[u, v] != len(left) - 1 or (u in kept and v in kept):
            raise RuntimeError(f"{stage}: no MAT-PEO of a clique of size {len(vs)}")
        peeled, end = (v, u) if u in kept else (u, v)
        left.remove(peeled)
        removal.append(peeled)
        row = (canonical_edge(end, z) for z in left if z != end)
    removal.extend(left - kept)
    return removal[::-1]


def _extend_into(table, w, vs) -> None:
    """Label the edges at vs - w, given the clique on w labeled in table."""
    order = _mat_peo(table, w, frozenset(), "extension")
    for v in sorted(vs - w):
        for i, u in enumerate(order, start=1):
            table[canonical_edge(u, v)] = i
        order.insert(max((i + 1 for i, u in enumerate(order) if u > v), default=0), v)


def _merge_into(table, a, b) -> None:
    """Label the edges between a - b and b - a, given a and b labeled in table.

    {x_i, y_j} gets p + i + j - 1, for p = |a & b| and x, y the greedy orders
    of a - b and b - a peeled down to a & b. The merge lemma needs a MAT-PEO
    sigma of a & b that starts both full orders: a & b is MAT-labeled as a is
    (oracle.find_mat_peo), and being MAT-simplicial depends only on the
    vertices before it, so sigma + x and sigma + y are MAT-PEOs of a and b for
    every MAT-PEO sigma of a & b. No label reads sigma, so none is computed.
    """
    shared = a & b
    p = len(shared)
    order_a = _mat_peo(table, a, shared, "merge")
    order_b = _mat_peo(table, b, shared, "merge")
    for i, x in enumerate(order_a, start=1):
        for j, y in enumerate(order_b, start=1):
            table[canonical_edge(x, y)] = p + i + j - 1


def extend_labeling_complete(
    ell: int, w, lab_w: EdgeLabeling, vertices=None
) -> EdgeLabeling:
    """Extend a MAT-labeling of the clique on w to one of K_ell.

    New vertices v are appended in ascending id order, each joined along the
    greedy MAT-PEO (o_1, ..., o_m) of the current labeled clique C with
    label(o_i, v) = i. Default target vertex set is w plus the smallest
    positive integers not in w.

    The order is computed once, for lab_w: that of C + v is (o_1, ..., o_m)
    with v inserted right after the last o_i greater than v, or in front.
    Proof: after the join the top edge of C + v is {o_m, v}, labeled m, so
    by the lemma of `_mat_peo` the greedy removes the smaller of its ends;
    removing o_m leaves the same situation on C - o_m, whose greedy MAT-PEO
    is (o_1, ..., o_(m-1)).
    """
    w = frozenset(w)
    vs = set(w if vertices is None else vertices)
    fresh = count(1)
    while vertices is None and len(vs) < ell:
        vs.add(next(fresh))
    if len(vs) != ell or not w <= vs:
        raise ValueError("target vertex set must have size ell and contain w")
    if lab_w.graph.vertex_set != w:
        raise ValueError("lab_w must be a labeling of the clique on w")
    _require_valid_complete(lab_w, "lab_w")
    labels = lab_w.labels
    _extend_into(labels, w, vs)
    return EdgeLabeling(_complete(vs), labels)


def merge_complete(a, b, lab_a: EdgeLabeling, lab_b: EdgeLabeling) -> EdgeLabeling:
    """Merge MAT-labelings of the cliques on a and b into one of K_(a | b).

    Requires agreement on the shared clique a & b. The cross edges are
    labeled by `_merge_into`; the result restricts to lab_a and lab_b.
    """
    a, b = frozenset(a), frozenset(b)
    if lab_a.graph.vertex_set != a or lab_b.graph.vertex_set != b:
        raise ValueError("labelings must live on the cliques over a and b")
    _require_valid_complete(lab_a, "lab_a")
    _require_valid_complete(lab_b, "lab_b")
    for u, v in combinations(sorted(a & b), 2):
        if lab_a.label(u, v) != lab_b.label(u, v):
            raise ValueError(
                f"labelings disagree on shared edge {(u, v)}: "
                f"{lab_a.label(u, v)} vs {lab_b.label(u, v)}"
            )
    labels = lab_a.labels | lab_b.labels
    _merge_into(labels, a, b)
    return EdgeLabeling(_complete(a | b), labels)


def _label_table(poset: CliquePoset) -> dict[tuple[int, int], int]:
    """One edge -> label table that restricts to a MAT-labeling on every node.

    Nodes go in the poset's canonical order, by size, so each after its
    (strictly smaller) covers. At node X, leaf-pair nodes X0 are peeled off
    its covers until at most one, w, is left; each X0 is merged back in
    reverse order (labeling the edges between w - X0 and X0 - w, then w |=
    X0), and extension labels the edges at X - w.

    No write touches an edge written before, so no node's labeling changes.
    Writes made earlier at X lie in w. An edge written at an earlier node Y
    lies in Y & X, a node strictly below X, so in a cover c of X; covers lie
    in w, so the edge is not at X - w. For a cross edge {p, q}, p in w - X0
    and q in X0 - w, c is neither X0 (p is not in it) nor left after X0's
    peel (q is not in w), so c was peeled first; its leaf partner contains
    c & X0 and c & Y' for a cover Y' in w holding p, so both p and q.
    Following partners ends at X0 or a cover in w: a contradiction.

    So any order that lists each node after its covers fills the same
    table: the writes at X read only edges inside X's covers or written at
    X itself, and no entry is ever overwritten.
    """
    table: dict[tuple[int, int], int] = {}
    for x in poset.nodes:
        covers, peeled = list(poset.covers[x]), []
        while len(covers) > 1:
            x0, _ = leaf_pair(poset, covers)
            peeled.append(x0)
            covers.remove(x0)
        w = covers[0] if covers else frozenset()
        for x0 in reversed(peeled):
            _merge_into(table, w, x0)
            w |= x0
        if w != x:
            _extend_into(table, w, x)
    return table


def node_family(g: Graph):
    """A MAT-labeling for every poset node, closed under restriction.

    The restrictions of one label table to the nodes, so any two labelings
    of the family agree on the edges they share. Raises NoLeafPairError
    only when the graph is not strongly chordal.
    """
    poset = build_poset(g)
    labeling = EdgeLabeling(g, _label_table(poset))
    return {x: labeling.restrict_vertices(x) for x in poset.nodes}


def construct_mat_labeling(g: Graph) -> EdgeLabeling:
    """A MAT-labeling of a strongly chordal graph.

    poset.strongly_chordal_poset rejects any other graph with a
    NotStronglyChordalError, whose witness is a chordless cycle or a crown
    of the clique intersection poset. A strongly chordal graph gets the
    label table of that poset, read as a labeling of g and verified once;
    by the paper's theorem neither step fails there, so a failure is a
    RuntimeError naming the stage.
    """
    poset = strongly_chordal_poset(g)
    try:
        result = EdgeLabeling(g, _label_table(poset))
    except NoLeafPairError:
        raise RuntimeError(f"construct: no leaf pair in the poset of a strongly "
                           f"chordal graph with {g.n} vertices") from None
    if verify_mat_labeling(result) is not None:
        raise RuntimeError(f"construct: verify rejected the labeling of a strongly "
                           f"chordal graph with {g.n} vertices")
    return result
