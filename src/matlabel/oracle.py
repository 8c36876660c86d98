"""Oracles for the tests and acceptance checks; no command loads them.

Deliberately naive and implemented apart from the production recognizers:
these share only the graph primitives, so agreement between an oracle and
a production path is meaningful evidence. The induced subgraph, sun and
crown searches, all one backtracking search (find_embedding), are
exponential in the worst case. The PEO and greedy MAT-PEO checks decide
PEOs and MAT-labelings apart from the recognizers and the verifier. The
subset scans and the graph enumerator that cross-check these in the tests
are test support, in the repository's tests/ and not in the package.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable, Iterable, Sequence

from .chordal import _peo_violation
from .graph import Graph, canonical_edge, peel, sorted_sets
from .labeling import EdgeLabeling
from .poset import CliquePoset
from .witness import CrownWitness, MatViolation, SunWitness, n_sun


def find_embedding(candidates: Callable[[list], Iterable], pattern: Sequence[Sequence],
                   relation: Callable) -> list | None:
    """First placement of the pattern's positions on distinct candidates, or None.

    `candidates(image)` lists, in order, the candidates of position
    len(image) given the earlier images, and must not keep or change the
    list it is handed. `relation(x)[v]` is how candidate x relates to v,
    and `pattern[i]` lists, for each j < i, the value that the row of
    image[j], built once per placement, must hold at image[i]. Positions are
    placed in order, each trying its candidates in order, backtracking on
    an explicit stack, so the result is the least image list in candidate
    order. Exponential in the worst case.
    """
    if not pattern:
        return []
    image, rows, used = [], [], set()
    stack = [iter(candidates(image))]
    while stack:
        want = pattern[len(image)]
        for v in stack[-1]:
            if v in used:
                continue
            for row, w in zip(rows, want):
                if row[v] != w:
                    break
            else:
                image.append(v)
                if len(image) == len(pattern):
                    return image
                rows.append(relation(v))
                used.add(v)
                stack.append(iter(candidates(image)))
                break
        else:
            stack.pop()
            if image:
                used.discard(image.pop())
                rows.pop()
    return None


def find_induced_subgraph(g: Graph, pattern: Graph) -> dict[int, int] | None:
    """Injective map from pattern vertices to g realizing pattern as an
    induced subgraph, or None.

    A find_embedding with every vertex of g a candidate at every position:
    pattern vertices are placed in ascending order, each on the smallest
    vertex of g with the pattern's adjacencies to those placed, so the map
    is the least one in that order.
    """
    pverts, verts = pattern.vertices, g.vertices
    want = [tuple(pattern.has_edge(p, q) for q in pverts[:i]) for i, p in enumerate(pverts)]
    image = find_embedding(lambda image: verts, want, lambda x: {v: v in g[x] for v in verts})
    return None if image is None else dict(zip(pverts, image))


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

    A find_embedding over the nodes in canonical order: the k lower
    elements are placed first, pairwise incomparable, then the k upper ones,
    each above exactly its two lower elements and incomparable to the other
    upper ones. The rows are those of a comparison matrix over node
    indices, built once per call. The first hit is the lexicographically
    least witness. Exponential worst case, fine at desk scale.

    A position is offered, in ascending order, only the nodes that can
    complete the image so far: upper i the nodes above lower i, and lower
    i >= 1 the nodes incomparable to lower i - 1 that share a strict upper
    bound with it, as upper i lies above both. Every node dropped fails in
    each completion, so the search meets the kept ones in the same order
    as over all nodes, and its first hit is the same least image.
    """
    if k < 3:
        raise ValueError("crowns are searched for k >= 3")
    nodes = tuple(p.nodes) if hasattr(p, "nodes") else sorted_sets(set(map(frozenset, p)))
    if len(nodes) < 2 * k:
        return None
    # compare[a][b] is 1 when nodes[a] < nodes[b], -1 when nodes[b] < nodes[a]
    compare = [[(x < y) - (y < x) for y in nodes] for x in nodes]
    above = [[b for b, c in enumerate(row) if c == 1] for row in compare]
    ups = [sum(1 << b for b in row) for row in above]  # above, as bitsets
    mates = {}  # lower i - 1 -> the candidates of lower i

    def candidates(image):
        i = len(image)
        if i == 0:
            return range(len(nodes))
        if i >= k:
            return above[image[i - k]]
        a = image[-1]
        if a not in mates:
            mates[a] = [b for b, c in enumerate(compare[a]) if c == 0 and ups[a] & ups[b]]
        return mates[a]

    pattern = [(0,) * i for i in range(k)]
    pattern += [tuple(int(j == i or (j + 1) % k == i) for j in range(k)) + (0,) * i
                for i in range(k)]
    image = find_embedding(candidates, pattern, compare.__getitem__)
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


# -- PEOs and MAT-PEOs ---------------------------------------------------------


def is_simplicial(g: Graph, v: int) -> bool:
    """True iff N(v) is a clique; g may also be graph.peel's adjacency dict."""
    return all(g[v] <= g[u] | {u} for u in g[v])


def is_peo(g: Graph, order: Sequence[int]) -> bool:
    """Check the PEO condition on every prefix of `order`, in O(n + m).

    Raises ValueError if `order` is not a permutation of the vertices.
    """
    seq = list(order)
    if sorted(seq) != list(g.vertices):
        raise ValueError("ordering is not a permutation of the vertex set")
    return _peo_violation(g, seq) is None


def mat_simplicial_violation(lab: EdgeLabeling, v: int) -> MatViolation | None:
    """First failed MAT-simpliciality condition at vertex v, or None.

    MS1: v is simplicial. MS2: the labels incident to v are exactly
    1..deg(v). MS3: every edge inside N(v) is labeled strictly below the
    larger of its endpoints' labels toward v. Only lab.label and lab.graph[x]
    are read, so find_mat_peo and is_mat_peo pass a namespace whose graph
    is a {vertex: neighbours} dict of the vertices left.
    """
    g = lab.graph
    nbrs = sorted(g[v])
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if b not in g[a]:
                return MatViolation(
                    "MS1", 0, vertices=(v, a, b),
                    detail=f"neighbors {a}, {b} of {v} are nonadjacent",
                )
    incident = sorted(lab.label(u, v) for u in nbrs)
    if incident != list(range(1, len(nbrs) + 1)):
        return MatViolation(
            "MS2", 0, vertices=(v,),
            detail=f"labels at {v} are {incident}, need 1..{len(nbrs)}",
        )
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            bound = max(lab.label(a, v), lab.label(b, v))
            if lab.label(a, b) >= bound:
                return MatViolation(
                    "MS3", lab.label(a, b), edges=(canonical_edge(a, b),),
                    vertices=(v,),
                    detail=f"label {lab.label(a, b)} of {canonical_edge(a, b)} "
                           f"not below max({lab.label(a, v)}, {lab.label(b, v)})",
                )
    return None


def _mat_simplicial_left(lab: EdgeLabeling):
    """graph.peel's predicate: v is MAT-simplicial in lab restricted to the
    vertices left, whose adjacency dict stands in for lab.graph."""
    return lambda adj, v: mat_simplicial_violation(
        SimpleNamespace(graph=adj, label=lab.label), v) is None


def find_mat_peo(lab: EdgeLabeling) -> list[int] | None:
    """The greedy MAT-PEO of lab, or None.

    graph.peel removes the smallest MAT-simplicial vertex of the vertices
    left while there is one; the ordering is the removal reversed. Removing
    a MAT-simplicial vertex preserves validity and invalidity alike, so the
    search succeeds exactly when lab is a MAT-labeling.

    The predicate reads only N(v), the adjacency among it and its labels,
    and it meets peel's other condition: if v and w are MAT-simplicial, v
    stays so when w is removed. MS1 and MS3 only lose vertices; MS2 needs
    j = label(v, w) to be d = deg v. Were j < d, the neighbour u with
    label(u, v) = d would be adjacent to w (MS1 at v), MS3 at v would give
    label(u, w) < d, and MS3 at w, where label(u, w) and j are both below
    d, would give d = label(u, v) < max(label(u, w), j) < d.
    """
    removal, left = peel(lab.graph, _mat_simplicial_left(lab))
    return None if left else removal[::-1]


def is_mat_peo(lab: EdgeLabeling, order) -> bool:
    """Check the MAT-PEO condition on every prefix of an ordering.

    Peels the order from its end. Whether a vertex is next does not stay
    true under removals, so this is a plain loop and not graph.peel.
    """
    seq = list(order)
    if sorted(seq) != list(lab.graph.vertices):
        raise ValueError("ordering is not a permutation of the vertex set")
    ok = _mat_simplicial_left(lab)
    adj = {v: set(lab.graph[v]) for v in lab.graph.vertices}
    for v in reversed(seq):
        if not ok(adj, v):
            return False
        for u in adj.pop(v):
            adj[u].discard(v)
    return True

