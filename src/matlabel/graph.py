"""Immutable simple-graph values and the primitive queries everything else uses."""

from __future__ import annotations

from collections import defaultdict
from heapq import heappop, heappush
from typing import Callable, Iterable


def canonical_edge(u: int, v: int) -> tuple[int, int]:
    """Return the edge {u, v} as an ordered pair (smaller id first)."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _check_vertex_id(v) -> int:
    if type(v) is int and v >= 0:
        return v
    if not isinstance(v, int) or isinstance(v, bool) or v < 0:
        raise ValueError(f"vertex ids must be nonnegative integers, got {v!r}")
    return v


class Graph:
    """Simple undirected graph with nonnegative integer vertex ids.

    Graphs are immutable values: operations that change the graph return a
    new one. Vertex ids need not be contiguous. Every derived vertex or
    edge sequence is reported sorted ascending, so equal graphs always
    print and serialize identically.
    """

    __slots__ = ("_vertices", "_adj", "_hash", "_mcs")

    def __init__(self, vertices: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        adj: defaultdict[int, set[int]] = defaultdict(set)
        for v in vertices:
            adj[_check_vertex_id(v)]  # a listed vertex gets its set, maybe empty
        for u, v in edges:
            if type(u) is not int or u < 0:  # the full check only off the fast path
                _check_vertex_id(u)
            if type(v) is not int or v < 0:
                _check_vertex_id(v)
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._vertices: tuple[int, ...] = tuple(sorted(adj))
        self._adj: dict[int, frozenset[int]] = {v: frozenset(adj[v]) for v in self._vertices}
        self._hash: int | None = None
        self._mcs = None  # chordal's one MCS pass and check, on first use

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls((), edges)

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self) -> tuple[int, ...]:
        return self._vertices

    @property
    def vertex_set(self) -> frozenset[int]:
        return frozenset(self._vertices)

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self._vertices)

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(map(len, self._adj.values())) // 2

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            (u, v) for u in self._vertices for v in sorted(self._adj[u]) if u < v
        )

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return u in self._adj and v in self._adj[u]

    def neighborhood(self, v: int) -> frozenset[int]:
        """Open neighborhood N(v)."""
        self._require_vertex(v)
        return self._adj[v]

    __getitem__ = neighborhood  # g[v], as in a {vertex: neighbours} dict

    def closed_neighborhood(self, v: int) -> frozenset[int]:
        """Closed neighborhood N[v] = N(v) + v."""
        return self.neighborhood(v) | {v}

    def degree(self, v: int) -> int:
        return len(self.neighborhood(v))

    # -- derived graphs ------------------------------------------------

    def induced_subgraph(self, s: Iterable[int]) -> "Graph":
        """Subgraph on vertex set s with all edges of this graph inside s."""
        vs = self._require_subset(s)
        edges = ((u, v) for u in vs for v in self._adj[u] if u < v and v in vs)
        return Graph(vs, edges)

    def delete_vertex(self, v: int) -> "Graph":
        self._require_vertex(v)
        return self.induced_subgraph(self.vertex_set - {v})

    # -- value semantics -----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._vertices == other._vertices and self._adj == other._adj

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._vertices, frozenset(self.edges)))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(vertices={list(self._vertices)}, edges={list(self.edges)})"

    # -- internals -------------------------------------------------------

    def _require_vertex(self, v: int) -> None:
        if v not in self._adj:
            raise ValueError(f"unknown vertex id {v}")

    def _require_subset(self, s: Iterable[int]) -> frozenset[int]:
        vs = frozenset(s)
        # difference with the dict itself costs O(|vs|); `- self._adj.keys()`
        # would walk every vertex of the graph
        unknown = vs.difference(self._adj)
        if unknown:
            raise ValueError(f"unknown vertex ids {sorted(unknown)}")
        return vs


def sorted_key(s: Iterable[int]) -> tuple[int, ...]:
    """Canonical sort key for vertex sets: by size, then elementwise."""
    t = tuple(sorted(s))
    return (len(t),) + t


def sorted_sets(sets: Iterable[Iterable[int]]) -> tuple[frozenset[int], ...]:
    """Vertex sets in the canonical (size, elements) order."""
    return tuple(sorted((frozenset(s) for s in sets), key=sorted_key))


def peel(g: Graph, removable: Callable[[dict[int, set[int]], int], bool]
         ) -> tuple[list[int], list[int]]:
    """Greedy elimination: (the removed vertices in order, the vertices left).

    Copies the adjacency of g once into a mutable {vertex: neighbours} dict
    and keeps removing the smallest vertex v for which `removable(adj, v)`
    holds, until none does. The predicate sees the vertices left and their
    neighbours among them, and must not change adj.

    The removable vertices wait in a heap. After a removal only the other
    vertices within distance 2 of the removed one are tested again, so the
    predicate must read no more of adj than the ball of radius 2 around v,
    and a removable vertex must stay removable when another removable
    vertex is removed. Then the heap holds exactly the removable vertices
    at every step, and the result is that of testing every vertex again
    after each removal.
    """
    adj = {v: set(g[v]) for v in g.vertices}  # ascending, also after deletions
    ready = [v for v in adj if removable(adj, v)]  # ascending, so a heap
    seen = set(ready)
    removed: list[int] = []
    while ready:
        v = heappop(ready)
        removed.append(v)
        near = adj.pop(v)
        for u in near:
            adj[u].discard(v)
        near = near.union(*(adj[u] for u in near)) - seen
        for u in near:
            if removable(adj, u):
                heappush(ready, u)
                seen.add(u)
    return removed, list(adj)
