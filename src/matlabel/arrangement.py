"""Exponents, chromatic polynomials and factorization checks, in polynomial time.

The exponents of a graph's arrangement are read off a MAT-labeling as the
dual partition of its block sizes, and off a PEO of a chordal graph as
earlier-neighbor counts; both are the roots of the chromatic polynomial.
Free graphic arrangements are exactly those of chordal graphs, so the
polynomial and the factorization check take chordal graphs only and raise
NotChordalError on any other. A polynomial is the tuple of its integer
coefficients, lowest degree first, with no trailing zeros.
"""

from __future__ import annotations

from typing import Sequence

from .chordal import exponents_along, find_peo
from .graph import Graph
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
    """Chromatic polynomial of a chordal graph: prod (t - e) over peo_exponents(g).

    Along a PEO a vertex's e earlier neighbors form a clique, leaving t - e
    colors for it (Stanley 1972: the arrangement is supersolvable). Built
    one linear factor at a time; NotChordalError if g is not chordal.
    """
    poly = [1]
    for e in _peo_exponents(g):
        poly = [a - e * b for a, b in zip([0] + poly, poly + [0])]
    return tuple(poly)


def check_terao_factorization(g: Graph, exponents: Sequence[int]) -> bool:
    """True iff the chromatic polynomial equals prod (t - d) over exponents.

    chromatic_polynomial(g) is prod (t - e) over the PEO exponents e, so
    both sides are monic products of integer linear factors. Z[t] is a
    unique factorization domain and each t - r is irreducible there, so the
    products are equal iff their multisets of roots are: the check compares
    the sorted PEO exponents with the sorted given list and never expands a
    polynomial. NotChordalError if g is not chordal; by the paper's theorem
    a graph with a MAT-labeling is strongly chordal, so chordal.
    """
    return list(_peo_exponents(g)) == sorted(exponents)


def _peo_exponents(g: Graph) -> tuple[int, ...]:
    """The earlier-neighbor counts along g's PEO; NotChordalError if none."""
    peo = find_peo(g)
    if peo is None:
        from .poset import NotChordalError

        raise NotChordalError(f"graph with {g.n} vertices is not chordal")
    return exponents_along(g, peo)
