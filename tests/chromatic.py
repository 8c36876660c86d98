"""The expanded chromatic polynomial of any graph, by deletion-contraction.

The reference that matlabel.arrangement's PEO product is checked against:
it reads the graph through its primitives only, never a PEO, so agreement
is independent evidence. Polynomials are coefficient tuples, lowest degree
first, with no trailing zeros, and () is the zero polynomial. The search
is exponential and guarded at 12 vertices.
"""

from __future__ import annotations

from itertools import zip_longest
from typing import Iterable

from matlabel.graph import Graph


def deletion_contraction(g: Graph, memo: dict | None = None) -> tuple[int, ...]:
    """Exact chromatic polynomial of g, as coefficients.

    Memoized on relabeled canonical forms for graphs of at most 10
    vertices, in `memo` when given, so that calls over a corpus can share
    it; guarded at 12.
    """
    if g.n > 12:
        raise ValueError(f"deletion-contraction guarded at 12 vertices, got {g.n}")
    return _deletion_contraction(g, {} if memo is None else memo)


def contract_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """G/e, whose arrangement is the restriction of G's to e's hyperplane.

    Identifies the endpoints of e, keeping the smaller id; drops loops and
    duplicate adjacencies. ValueError when e is not an edge of g.
    """
    u, v = sorted(e)
    if not g.has_edge(u, v):
        raise ValueError(f"{(u, v)} is not an edge")
    merged = (g[u] | g[v]) - {u, v}
    edges = [(x, y) for x, y in g.edges if v not in (x, y) and u not in (x, y)]
    edges.extend((u, w) for w in merged)
    return Graph(g.vertex_set - {v}, edges)


def component_of(g: Graph, v: int) -> frozenset[int]:
    """Vertices reachable from v."""
    seen = {v}
    stack = [v]
    while stack:
        x = stack.pop()
        for y in g[x]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def components(g: Graph) -> tuple[frozenset[int], ...]:
    """The connected components, by size and then elementwise."""
    out = []
    left = set(g.vertices)
    while left:
        comp = component_of(g, min(left))
        out.append(comp)
        left -= comp
    return tuple(sorted(out, key=lambda c: (len(c), sorted(c))))


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


def _canonical_form(g: Graph):
    relabel = {v: i for i, v in enumerate(g.vertices)}
    return (g.n, frozenset((relabel[u], relabel[v]) for u, v in g.edges))


def _deletion_contraction(g: Graph, memo) -> tuple[int, ...]:
    """chi(G) = chi(G - e) - chi(G / e): deletion and restriction of e's hyperplane."""
    if g.m == 0:
        return (0,) * g.n + (1,)  # t^n
    comps = components(g)
    if len(comps) > 1:
        poly = (1,)
        for comp in comps:
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
