"""Edge labelings, the MAT-labeling verifier, and MAT-simplicial machinery.

A labeling maps every edge to a positive integer. Writing pi_k for the
edges labeled k and E_k for the union of the first k blocks, a labeling is
a MAT-labeling when, for every k:

  ML1  pi_k is a forest;
  ML2  no edge of E_{k-1} has its endpoints connected by a path in pi_k
       (matroid closure of pi_k avoids all earlier edges);
  ML3  every edge of pi_k lies in exactly k-1 triangles whose other two
       edges are in E_{k-1}.

Violations are reported as values, never exceptions: the verifier is a
total function used to classify arbitrary labelings.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Iterable, Mapping, NamedTuple

from .graph import Graph, _check_vertex_id, canonical_edge, peel


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
                _check_entry(u, v, k)
            e = (u, v) if u < v else (v, u)
            if e in table:
                raise ValueError(f"duplicate label entry for edge {e}")
            table[e] = k
            if v not in adj.get(u, ()):
                known = False
        if not known or len(table) != graph.m:
            raise _domain_error(graph, table)
        self.graph = graph
        self._labels = table

    @classmethod
    def _from_table(cls, graph: Graph, table: dict[tuple[int, int], int]) -> "EdgeLabeling":
        """A labeling of graph by a canonical {edge: label} table that has
        passed the checks of __init__ (io.parse_labeling_json makes them)."""
        lab = object.__new__(cls)
        lab.graph = graph
        lab._labels = table
        return lab

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

    def restrict_edges(self, edges: Iterable[tuple[int, int]]) -> "EdgeLabeling":
        """Restriction to the subgraph (V, F) for an edge subset F."""
        fs = {canonical_edge(*e) for e in edges}
        unknown = fs - set(self._labels)
        if unknown:
            raise ValueError(f"not edges of the graph: {sorted(unknown)}")
        sub = Graph(self.graph.vertices, fs)
        return EdgeLabeling(sub, {e: self._labels[e] for e in fs})

    def with_label(self, u: int, v: int, k: int) -> "EdgeLabeling":
        """Copy with one edge relabeled (used for mutation testing)."""
        labels = self.labels
        labels[canonical_edge(u, v)] = k
        return EdgeLabeling(self.graph, labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EdgeLabeling):
            return NotImplemented
        return self.graph == other.graph and self._labels == other._labels

    def __hash__(self) -> int:
        return hash((self.graph, tuple(sorted(self._labels.items()))))

    def __repr__(self) -> str:
        inner = ", ".join(f"{u}-{v}:{k}" for (u, v), k in self.items())
        return f"EdgeLabeling({inner})"


def _check_entry(u, v, k) -> None:
    """Raise the error for an entry (u, v) -> k that fails the fast check of
    EdgeLabeling or io.parse_labeling_json: an id that is no nonnegative
    int, a self-loop, or a label that is no positive int. Ids and labels of
    an int subclass other than bool pass, and then it returns.
    """
    e = canonical_edge(_check_vertex_id(u), _check_vertex_id(v))
    if not isinstance(k, int) or isinstance(k, bool) or k < 1:
        raise ValueError(f"label of {e} must be a positive integer, got {k!r}")


def _domain_error(graph: Graph, table: Mapping[tuple[int, int], int]) -> ValueError:
    """The error for a canonical label table whose edges are not those of graph."""
    edges = set(graph.edges)
    return ValueError(
        f"label domain must equal the edge set "
        f"(missing {sorted(edges.difference(table))}, extra {sorted(table.keys() - edges)})"
    )


class MatViolation(NamedTuple):
    """A checkable witness that a labeling or vertex fails one condition.

    kind is one of ML1-cycle, ML2-closure, ML3-triangle-count, MS1, MS2,
    MS3; level is the block index (or offending label) involved.
    """

    kind: str
    level: int
    edges: tuple[tuple[int, int], ...] = ()
    vertices: tuple[int, ...] = ()
    detail: str = ""

    def as_json(self) -> dict:
        return {
            "kind": self.kind,
            "level": self.level,
            "edges": [list(e) for e in self.edges],
            "vertices": list(self.vertices),
            "detail": self.detail,
        }


def _path_edges(edges, a, b):
    """The edges of a shortest a-b path in the graph of `edges`."""
    from .chordal import _shortest_path  # only a violation's witness needs it

    path = _shortest_path(Graph.from_edges(edges), a, b, ())
    return tuple(canonical_edge(x, y) for x, y in zip(path, path[1:]))


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
    an edge (x, y) of pi_k as the set bits of below[x] & below[y]. ML2
    reports the least edge f = (x, y) of E_{k-1} whose ends are joined in
    the forest pi_k. Both ends are then vertices of the forest with the same
    root, so with one bitset per tree of the forest, f comes from the least
    forest vertex x whose below[x] meets its tree, and y is the least vertex
    of that meet (a smaller one would have found x first).
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
    tree = [0] * n  # at a root: the vertices of its tree, as a bitset
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
                u, v = cycle_edge = (vertices[e[0]], vertices[e[1]])
                return MatViolation(
                    "ML1-cycle", k,
                    edges=_path_edges(set(_edge_ids(vertices, pi_k)) - {cycle_edge}, u, v)
                    + (cycle_edge,),
                    detail=f"edges labeled {k} contain a cycle",
                )
            parent[a] = b
        forest = set().union(*pi_k)
        roots = []
        for x in forest:
            r = x
            while parent[r] != r:
                parent[r] = r = parent[parent[r]]
            tree[r] |= 1 << x
            roots.append(r)
        closing = [(x, r) for x, r in zip(forest, roots) if below[x] & tree[r]]
        if closing:
            x, r = min(closing)
            hits = below[x] & tree[r]
            x, y = vertices[x], vertices[(hits & -hits).bit_length() - 1]
            return MatViolation(
                "ML2-closure", k, edges=((x, y),) + _path_edges(_edge_ids(vertices, pi_k), x, y),
                detail=f"edge {(x, y)} labeled {lab.label(x, y)} is spanned by "
                       f"edges labeled {k}",
            )
        for x in forest:
            parent[x] = x
            tree[x] = 0
        need = k - 1
        for a, b in pi_k:
            count = (below[a] & below[b]).bit_count()
            if count != need:
                e = (vertices[a], vertices[b])
                return MatViolation(
                    "ML3-triangle-count", k, edges=(e,),
                    detail=f"edge {e} labeled {k} closes {count} triangles "
                           f"with earlier labels, needs {need}",
                )
        for a, b in pi_k:
            below[a] |= 1 << b
            below[b] |= 1 << a
    return None


def _edge_ids(vertices, pairs) -> list[tuple[int, int]]:
    """The edges, in vertex ids, of a list of vertex-number pairs."""
    return [(vertices[a], vertices[b]) for a, b in pairs]


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


def is_mat_simplicial(lab: EdgeLabeling, v: int) -> bool:
    return mat_simplicial_violation(lab, v) is None


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

