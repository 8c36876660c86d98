"""Chordality recognition and perfect elimination orderings.

An ordering (v_1, ..., v_l) is a perfect elimination ordering (PEO) when
each v_i is simplicial in the subgraph induced by {v_1, ..., v_i}; a graph
is chordal exactly when such an ordering exists.
"""

from __future__ import annotations

import heapq
from typing import Sequence

from .graph import Graph


def _peo_violation(g: Graph, order: Sequence[int]) -> tuple[int, int, int] | None:
    """The first (v, p, x) at which `order` fails the PEO check, or None.

    p is the latest earlier neighbor of v and x the least earlier neighbor
    of v not adjacent to p. It is enough that, for every v, the earlier
    neighbors of v other than p are adjacent to p (Tarjan & Yannakakis
    1984). If instead some v had nonadjacent earlier neighbors x and y,
    neither is p (the other would be a neighbor of p), so both are earlier
    neighbors of p; the same pair then fails at p, which comes before v.
    Repeating this forever is impossible, so every earlier neighborhood is
    a clique.
    """
    position = {v: i for i, v in enumerate(order)}
    for i, v in enumerate(order):
        earlier = [u for u in g.neighborhood(v) if position[u] < i]
        if earlier:
            p = max(earlier, key=position.__getitem__)
            near = g.neighborhood(p)
            x = min((u for u in earlier if u != p and u not in near), default=None)
            if x is not None:
                return v, p, x
    return None


def find_peo(g: Graph) -> list[int] | None:
    """Deterministic PEO via maximum cardinality search, or None.

    Vertices are visited greedily by number of already visited neighbors,
    ties broken by smallest id. For a chordal graph the visit order itself
    satisfies the prefix PEO condition; the candidate is validated and
    None is returned when validation fails (non-chordal input).
    """
    order, violation = _checked_mcs(g)
    return list(order) if violation is None else None


def _checked_mcs(g: Graph):
    """(MCS order, its first PEO violation or None), computed once per graph."""
    if g._mcs is None:
        order = _mcs_order(g)
        g._mcs = (tuple(order), _peo_violation(g, order))
    return g._mcs


def _mcs_order(g: Graph) -> list[int]:
    """Visit order of maximum cardinality search, ties to the smallest id.

    The next vertex comes off a heap keyed by (-weight, id) with lazy
    deletion: raising a weight pushes a new entry, and an entry is skipped
    when its vertex is visited. A vertex's newest entry holds its current
    weight and leaves the heap before its stale ones, so the first entry of
    an unvisited vertex to leave is the largest weight with the smallest
    id: the order of a full scan, in O((n + m) log n).
    """
    weight = {v: 0 for v in g.vertices}
    heap = [(0, v) for v in g.vertices]
    order: list[int] = []
    visited: set[int] = set()
    while heap:
        _, z = heapq.heappop(heap)
        if z in visited:
            continue
        visited.add(z)
        order.append(z)
        for y in g.neighborhood(z):
            if y not in visited:
                weight[y] += 1
                heapq.heappush(heap, (-weight[y], y))
    return order


def is_chordal(g: Graph) -> bool:
    return find_peo(g) is not None


def peo_exponents(g: Graph) -> tuple[int, ...] | None:
    """Earlier-neighbor counts along a PEO, sorted ascending; None if not chordal.

    For a chordal graph this multiset does not depend on the PEO chosen and
    equals the negated roots of the chromatic polynomial.
    """
    order = find_peo(g)
    if order is None:
        return None
    return exponents_along(g, order)


def exponents_along(g: Graph, order: Sequence[int]) -> tuple[int, ...]:
    position = {v: i for i, v in enumerate(order)}
    counts = [
        sum(1 for u in g.neighborhood(v) if position[u] < i)
        for i, v in enumerate(order)
    ]
    return tuple(sorted(counts))


def find_chordless_cycle(g: Graph) -> tuple[int, ...] | None:
    """An induced cycle on 4 or more vertices, or None exactly when g is chordal.

    Read off the first failure (v, p, x) of the PEO check on the MCS order:
    a shortest x-p path avoiding N[v] - {x, p} is induced and closes with v
    to a chordless cycle, and it exists (Tarjan & Yannakakis, SIAM J.
    Comput. 13 (1984) 566-579; addendum 14 (1985) 254-255). The cycle
    starts at its least vertex and goes on to the smaller of its neighbors.
    Raises RuntimeError if no path closes it.
    """
    violation = _checked_mcs(g)[1]
    if violation is None:
        return None
    from .witness import _chordless_cycle

    return _chordless_cycle(g, *violation)
