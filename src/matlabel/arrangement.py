"""Exponents, chromatic polynomials and factorization cross-checks.

The exponents of the arrangement attached to a graph are read off a
MAT-labeling as the dual partition of its block sizes, and independently
off any PEO of a chordal graph as earlier-neighbor counts; both must agree
with the roots of the chromatic polynomial. All arithmetic is exact
integer arithmetic: a polynomial is the tuple of its integer coefficients,
lowest degree first, with no trailing zeros, and () is the zero polynomial.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable, Sequence

from .chordal import exponents_along, find_peo
from .graph import Graph, canonical_edge
from .labeling import EdgeLabeling, verify_mat_labeling


def exponents_from_labeling(lab: EdgeLabeling) -> tuple[int, ...]:
    """Exponents of a MAT-labeling; ValueError when lab is not one."""
    violation = verify_mat_labeling(lab)
    if violation is not None:
        raise ValueError(f"labeling is invalid: {violation.detail}")
    return dual_partition_exponents(lab)


def dual_partition_exponents(lab: EdgeLabeling) -> tuple[int, ...]:
    """Exponents as the dual partition of the labeling's block sizes.

    With l = |V| and blocks pi_1..pi_n, the i-th exponent is the number of
    blocks of size at least l - i + 1; the result has exactly l entries
    (zeros padded by the same formula) and is sorted ascending. lab must
    already be verified.
    """
    sizes = lab.block_sizes()
    ell = lab.graph.n
    return tuple(
        sum(1 for s in sizes if s >= ell - i + 1) for i in range(1, ell + 1)
    )


def chromatic_polynomial(g: Graph) -> tuple[int, ...]:
    """Exact chromatic polynomial by deletion-contraction, as coefficients.

    Guarded at 12 vertices, and memoized on relabeled canonical forms for
    graphs of at most 10 vertices. A chordal graph's polynomial needs no
    search: it is the product of (t - e) over peo_exponents(g).
    """
    if g.n > 12:
        raise ValueError(f"deletion-contraction guarded at 12 vertices, got {g.n}")
    return _deletion_contraction(g, {})


def contract_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """G/e, whose arrangement is the restriction of G's to e's hyperplane.

    Identifies the endpoints of e, keeping the smaller id; drops loops and
    duplicate adjacencies. ValueError when e is not an edge of g.
    """
    u, v = canonical_edge(*e)
    if not g.has_edge(u, v):
        raise ValueError(f"{(u, v)} is not an edge")
    merged = (g[u] | g[v]) - {u, v}
    edges = [(x, y) for x, y in g.edges if v not in (x, y) and u not in (x, y)]
    edges.extend((u, w) for w in merged)
    return Graph(g.vertex_set - {v}, edges)


def _trim(coeffs: Iterable[int]) -> tuple[int, ...]:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _product(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)  # the leading coefficients' product is not 0


def _from_roots(roots: Iterable[int]) -> tuple[int, ...]:
    """Monic product of (t - r) over the given integer roots."""
    poly = (1,)
    for r in roots:
        poly = _product(poly, (-r, 1))
    return poly


def _canonical_form(g: Graph):
    relabel = {v: i for i, v in enumerate(g.vertices)}
    return (g.n, frozenset((relabel[u], relabel[v]) for u, v in g.edges))


def _deletion_contraction(g: Graph, memo) -> tuple[int, ...]:
    """chi(G) = chi(G - e) - chi(G / e): deletion and restriction of e's hyperplane."""
    if g.m == 0:
        return (0,) * g.n + (1,)  # t^n
    components = g.components()
    if len(components) > 1:
        poly = (1,)
        for comp in components:
            poly = _product(poly, _deletion_contraction(g.induced_subgraph(comp), memo))
        return poly
    key = _canonical_form(g) if g.n <= 10 else None
    if key is not None and key in memo:
        return memo[key]
    e = g.edges[0]
    deleted = _deletion_contraction(Graph(g.vertices, [f for f in g.edges if f != e]), memo)
    contracted = _deletion_contraction(contract_edge(g, e), memo)
    poly = _trim(a - b for a, b in zip_longest(deleted, contracted, fillvalue=0))
    if key is not None:
        memo[key] = poly
    return poly


def check_terao_factorization(g: Graph, exponents: Sequence[int]) -> bool:
    """True iff the chromatic polynomial equals prod (t - d) over exponents.

    For a chordal g, chromatic_polynomial(g) is prod (t - e) over the
    exponents e along a PEO, so the check compares two monic polynomials
    that split into integer linear factors. Z[t] is a unique factorization
    domain and each t - r is irreducible there, so two such products are
    equal iff they have the same factors with the same multiplicities,
    that is iff the multisets of roots are equal. The check therefore
    compares the sorted PEO exponents with the sorted given list and never
    expands a polynomial. A non-chordal g keeps the deletion-contraction
    route.
    """
    peo = find_peo(g)
    if peo is None:
        return chromatic_polynomial(g) == _from_roots(exponents)
    return list(exponents_along(g, peo)) == sorted(exponents)

