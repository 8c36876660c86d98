"""Exponents, chromatic polynomials and factorization cross-checks.

The exponents of the arrangement attached to a graph are read off a
MAT-labeling as the dual partition of its block sizes, and independently
off any PEO of a chordal graph as earlier-neighbor counts; both must agree
with the roots of the chromatic polynomial. All arithmetic is exact
integer arithmetic.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .chordal import exponents_along, find_peo
from .graph import Graph
from .labeling import EdgeLabeling, verify_mat_labeling


class IntPolynomial:
    """Integer polynomial; coefficients lowest degree first, no trailing zeros.

    An immutable value: equal coefficients mean equal, equally hashed
    polynomials.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        trimmed = list(coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    def __setattr__(self, name, value):
        raise AttributeError(f"IntPolynomial is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"IntPolynomial is immutable; cannot delete {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPolynomial(coeffs={self.coeffs!r})"

    @classmethod
    def one(cls) -> "IntPolynomial":
        return cls((1,))

    @classmethod
    def from_roots(cls, roots: Iterable[int]) -> "IntPolynomial":
        """Monic product of (t - r) over the given integer roots."""
        poly = cls.one()
        for r in roots:
            poly = poly * cls((-r, 1))
        return poly

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        if not self.coeffs or not other.coeffs:
            return IntPolynomial(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPolynomial(tuple(out))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        size = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (size - len(self.coeffs))
        b = list(other.coeffs) + [0] * (size - len(other.coeffs))
        return IntPolynomial(tuple(x - y for x, y in zip(a, b)))


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


def chromatic_polynomial(g: Graph) -> IntPolynomial:
    """Exact chromatic polynomial by deletion-contraction.

    Guarded at 12 vertices, and memoized on relabeled canonical forms for
    graphs of at most 10 vertices. A chordal graph's polynomial needs no
    search: it is IntPolynomial.from_roots(peo_exponents(g)).
    """
    if g.n > 12:
        raise ValueError(f"deletion-contraction guarded at 12 vertices, got {g.n}")
    return _deletion_contraction(g, {})


def _canonical_form(g: Graph):
    relabel = {v: i for i, v in enumerate(g.vertices)}
    return (g.n, frozenset((relabel[u], relabel[v]) for u, v in g.edges))


def _deletion_contraction(g: Graph, memo) -> IntPolynomial:
    if g.m == 0:
        return IntPolynomial(tuple([0] * g.n + [1]))  # t^n
    components = g.components()
    if len(components) > 1:
        poly = IntPolynomial.one()
        for comp in components:
            poly = poly * _deletion_contraction(g.induced_subgraph(comp), memo)
        return poly
    key = _canonical_form(g) if g.n <= 10 else None
    if key is not None and key in memo:
        return memo[key]
    e = g.edges[0]
    deleted = Graph(g.vertices, [f for f in g.edges if f != e])
    contracted = g.contract_edge(e)
    poly = _deletion_contraction(deleted, memo) - _deletion_contraction(contracted, memo)
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
        chi = chromatic_polynomial(g)
        return chi == IntPolynomial.from_roots(exponents)
    return list(exponents_along(g, peo)) == sorted(exponents)

