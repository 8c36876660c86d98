"""Edge labelings and the MAT-labeling verifier.

A labeling maps every edge to a positive integer. Writing pi_k for the
edges labeled k and E_k for the union of the first k blocks, a labeling is
a MAT-labeling when, for every k:

  ML1  pi_k is a forest;
  ML2  no edge of E_{k-1} has its endpoints connected by a path in pi_k
       (matroid closure of pi_k avoids all earlier edges);
  ML3  every edge of pi_k lies in exactly k-1 triangles whose other two
       edges are in E_{k-1}.

Violations are reported as values, never exceptions: the verifier is a
total function used to classify arbitrary labelings. A violation and its
paths are built in matlabel.witness, and the greedy MAT-PEO that
cross-checks the verifier is in matlabel.oracle.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from .graph import Graph, canonical_edge

if TYPE_CHECKING:  # a violation is built only when a check fails
    from .witness import MatViolation


class EdgeLabeling:
    """A total map from the edges of a graph to positive integer labels."""

    __slots__ = ("graph", "_labels")

    def __init__(self, graph: Graph, labels: Mapping[tuple[int, int], int]):
        adj = graph._adj
        table = {}
        known = True  # every entry so far is an edge of graph
        for (u, v), k in labels.items():
            if not (type(u) is int and type(v) is int and type(k) is int
                    and u >= 0 and v >= 0 and u != v and k > 0):
                from .witness import _check_entry

                _check_entry(u, v, k)
            e = (u, v) if u < v else (v, u)
            if e in table:
                raise ValueError(f"duplicate label entry for edge {e}")
            table[e] = k
            if v not in adj.get(u, ()):
                known = False
        if not known or len(table) != graph.m:
            from .witness import _domain_error

            raise _domain_error(graph, table)
        self.graph = graph
        self._labels = table

    def label(self, u: int, v: int) -> int:
        return self._labels[canonical_edge(u, v)]

    @property
    def labels(self) -> dict[tuple[int, int], int]:
        return dict(self._labels)

    def items(self) -> tuple[tuple[tuple[int, int], int], ...]:
        return tuple(sorted(self._labels.items()))

    @property
    def max_label(self) -> int:
        return max(self._labels.values(), default=0)

    def block_sizes(self) -> tuple[int, ...]:
        """(|pi_1|, ..., |pi_max|)."""
        sizes = [0] * self.max_label
        for k in self._labels.values():
            sizes[k - 1] += 1
        return tuple(sizes)

    def restrict_vertices(self, s: Iterable[int]) -> "EdgeLabeling":
        """Restriction to the induced subgraph on s."""
        sub = self.graph.induced_subgraph(s)
        return EdgeLabeling(sub, {e: self._labels[e] for e in sub.edges})

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeLabeling):
            return NotImplemented
        return self.graph == other.graph and self._labels == other._labels

    def __hash__(self) -> int:
        return hash((self.graph, tuple(sorted(self._labels.items()))))

    def __repr__(self) -> str:
        inner = ", ".join(f"{u}-{v}:{k}" for (u, v), k in self.items())
        return f"EdgeLabeling({inner})"


def verify_mat_labeling(lab: EdgeLabeling) -> MatViolation | None:
    """None iff lab satisfies ML1, ML2 and ML3 for every level.

    Only the non-empty levels are walked, in ascending order, so the time
    does not grow with the labels: an empty level changes nothing and makes
    ML1 and ML2 vacuous, and an illegal gap surfaces as a triangle-count
    violation on some later edge. Within a level, ML1 is checked before ML2
    and ML2 before ML3, and the first violation found is returned.

    The vertices are numbered once, in ascending id order, and every level
    is grouped from the label table as a list of vertex-number pairs, sorted
    once. ML1 unions the edges of pi_k in sorted order, in a union-find over
    the vertex numbers kept in a list; the first edge whose ends already
    share a root closes a cycle, and the level resets only the entries it
    touched. Walking the levels upward, an int bitset below[x] holds the
    neighbours joined to x by a label below k. ML3 counts the triangles of
    an edge (x, y) of pi_k as the set bits of below[x] & below[y].

    ML2 is decided only where an ML3 count fails (witness._count_violation),
    because ML1-3 below k and ML3 at k imply ML2 at k. Proof: the edges
    labeled below k carry a MAT-labeling of (V, E_(k-1)), which has a
    MAT-PEO (see oracle.find_mat_peo); by MS2 each vertex has at most k - 1
    earlier neighbours along it, so E_(k-1) is chordal and colouring along
    the PEO properly k-colours it. By ML3 the ends a, b of an edge labeled k
    have k - 1 common neighbours in E_(k-1); they form a clique (two
    non-adjacent ones would close a chordless 4-cycle with a and b), so a
    and b both take the one colour it misses. A path labeled k keeps one
    colour, and an edge of E_(k-1) has two: ML2 holds at level k. So ML1
    and ML3 at every level imply ML2, and at the first level with a
    violation ML2 fails only where an ML3 count fails too: the reports are
    those of checking ML2 at every level.
    """
    vertices = lab.graph.vertices
    index = {v: i for i, v in enumerate(vertices)}
    levels: dict[int, list[tuple[int, int]]] = {}
    for (u, v), k in lab._labels.items():
        if k in levels:
            levels[k].append((index[u], index[v]))
        else:
            levels[k] = [(index[u], index[v])]
    n = len(vertices)
    parent = list(range(n))
    below = [0] * n
    for k in sorted(levels):
        pi_k = levels[k]
        pi_k.sort()
        for e in pi_k:
            a, b = e
            while parent[a] != a:  # find, halving the path as it goes
                parent[a] = a = parent[parent[a]]
            while parent[b] != b:
                parent[b] = b = parent[parent[b]]
            if a == b:
                from .witness import _cycle_violation

                return _cycle_violation(vertices, pi_k, e, k)
            parent[a] = b
        need = k - 1
        for a, b in pi_k:
            if (below[a] & below[b]).bit_count() != need:
                from .witness import _count_violation

                return _count_violation(lab, vertices, pi_k, k, parent, below, (a, b))
        for a, b in pi_k:
            below[a] |= 1 << b
            below[b] |= 1 << a
            parent[a] = a
            parent[b] = b
    return None


def is_mat_simplicial(lab: EdgeLabeling, v: int) -> bool:
    from .oracle import mat_simplicial_violation

    return mat_simplicial_violation(lab, v) is None
