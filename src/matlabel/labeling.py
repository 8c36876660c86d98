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
        canon = {}
        known = True  # every entry so far is an edge of graph
        for (u, v), k in labels.items():
            e = canonical_edge(_check_vertex_id(u), _check_vertex_id(v))
            if not isinstance(k, int) or isinstance(k, bool) or k < 1:
                raise ValueError(f"label of {e} must be a positive integer, got {k!r}")
            if e in canon:
                raise ValueError(f"duplicate label entry for edge {e}")
            canon[e] = k
            if v not in adj.get(u, ()):
                known = False
        if not known or len(canon) != graph.m:
            edges = set(graph.edges)
            missing = edges.difference(canon)
            extra = canon.keys() - edges
            raise ValueError(
                f"label domain must equal the edge set "
                f"(missing {sorted(missing)}, extra {sorted(extra)})"
            )
        self.graph = graph
        self._labels = canon

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

    def blocks(self) -> "LabelBlocks":
        return LabelBlocks.from_labeling(self)

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


class LabelBlocks(NamedTuple):
    """Blocks pi_k = labels^{-1}(k) and prefixes E_k = pi_1 + ... + pi_k."""

    blocks: dict[int, frozenset[tuple[int, int]]]
    prefixes: dict[int, frozenset[tuple[int, int]]]

    @classmethod
    def from_labeling(cls, lab: EdgeLabeling) -> "LabelBlocks":
        top = lab.max_label
        blocks = {k: set() for k in range(1, top + 1)}
        for e, k in lab.items():
            blocks[k].add(e)
        prefixes: dict[int, frozenset] = {0: frozenset()}
        acc: set = set()
        for k in range(1, top + 1):
            acc |= blocks[k]
            prefixes[k] = frozenset(acc)
        return cls({k: frozenset(v) for k, v in blocks.items()}, prefixes)


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


def _forest_roots(edges):
    """Union-find over sorted edges; returns ({vertex: root}, cycle_edge | None).

    cycle_edge is the first edge, in the given order, whose endpoints are
    already joined by the edges before it.
    """
    parent: dict[int, int] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    cycle_edge = None
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            if cycle_edge is None:
                cycle_edge = (u, v)
            continue
        parent[ru] = rv
    return {x: find(x) for x in parent}, cycle_edge


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

    The vertices are numbered once, in ascending id order, and the sorted
    edge list of every level is built once. Walking the levels upward, an
    int bitset below[v] holds the neighbours joined to v by a label below
    k. ML3 counts the triangles of an edge (u, v) of pi_k as the set bits
    of below[u] & below[v]. ML2 reports the least edge f = (x, y) of
    E_{k-1} whose ends are joined in the forest pi_k. Both ends are then
    vertices of the forest with the same root, so with one bitset per
    component of the forest, f comes from the first forest vertex x, in
    ascending order, whose below[x] meets its component above x, and y is
    the least vertex of that meet.
    """
    vertices = lab.graph.vertices
    index = {v: i for i, v in enumerate(vertices)}
    levels: dict[int, list[tuple[int, int]]] = {}
    for e, k in lab.items():
        levels.setdefault(k, []).append(e)
    below = [0] * len(vertices)
    for k in sorted(levels):
        pi_k = levels[k]
        root, cycle_edge = _forest_roots(pi_k)
        if cycle_edge is not None:
            u, v = cycle_edge
            return MatViolation(
                "ML1-cycle", k,
                edges=_path_edges(set(pi_k) - {cycle_edge}, u, v) + (cycle_edge,),
                detail=f"edges labeled {k} contain a cycle",
            )
        comp: dict[int, int] = {}
        for x, r in root.items():
            comp[r] = comp.get(r, 0) | 1 << index[x]
        for x in sorted(root):
            i = index[x]
            hits = (below[i] & comp[root[x]]) >> (i + 1)
            if hits:
                y = vertices[i + (hits & -hits).bit_length()]
                closing = (x, y)
                return MatViolation(
                    "ML2-closure", k, edges=(closing,) + _path_edges(pi_k, x, y),
                    detail=f"edge {closing} labeled {lab.label(x, y)} is spanned by "
                           f"edges labeled {k}",
                )
        for e in pi_k:
            u, v = e
            count = (below[index[u]] & below[index[v]]).bit_count()
            if count != k - 1:
                return MatViolation(
                    "ML3-triangle-count", k, edges=(e,),
                    detail=f"edge {e} labeled {k} closes {count} triangles "
                           f"with earlier labels, needs {k - 1}",
                )
        for u, v in pi_k:
            i, j = index[u], index[v]
            below[i] |= 1 << j
            below[j] |= 1 << i
    return None


def mat_simplicial_violation(lab: EdgeLabeling, v: int) -> MatViolation | None:
    """First failed MAT-simpliciality condition at vertex v, or None.

    MS1: v is simplicial. MS2: the labels incident to v are exactly
    1..deg(v). MS3: every edge inside N(v) is labeled strictly below the
    larger of its endpoints' labels toward v. Only lab.label and lab.graph[x]
    are read, so find_mat_peo and is_mat_peo pass a namespace whose graph
    is the {vertex: neighbours} dict of graph.peel.
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
    """
    removal, left = peel(lab.graph, _mat_simplicial_left(lab))
    return None if left else removal[::-1]


def is_mat_peo(lab: EdgeLabeling, order) -> bool:
    """Check the MAT-PEO condition on every prefix of an ordering."""
    seq = list(order)
    if sorted(seq) != list(lab.graph.vertices):
        raise ValueError("ordering is not a permutation of the vertex set")
    ok = _mat_simplicial_left(lab)  # peel seq from its end, one vertex a step
    return not peel(lab.graph, lambda adj, v: v == seq[len(adj) - 1] and ok(adj, v))[1]


def largest_clique_edges(lab: EdgeLabeling) -> dict[tuple[int, int], frozenset[int]]:
    """Map each top-label edge to the unique maximal clique containing it.

    For a verified labeling of a chordal graph the top label is the clique
    number minus one, the map is injective, and its image is exactly the
    set of largest cliques. Returns {} for edgeless graphs.
    """
    from .poset import maximal_cliques

    violation = verify_mat_labeling(lab)
    if violation is not None:
        raise ValueError(f"labeling is invalid: {violation.detail}")
    if lab.graph.m == 0:
        return {}
    cliques = maximal_cliques(lab.graph)
    omega = max(len(c) for c in cliques)
    top = lab.max_label
    if top != omega - 1:
        raise RuntimeError(f"top label {top} is not the clique number {omega} minus 1")
    out = {}
    for e in sorted(lab.blocks().blocks[top]):
        containing = [c for c in cliques if e[0] in c and e[1] in c]
        if len(containing) != 1:
            raise RuntimeError(f"edge {e} lies in {len(containing)} maximal cliques")
        out[e] = containing[0]
    largest = {c for c in cliques if len(c) == omega}
    if set(out.values()) != largest or len(set(out.values())) != len(out):
        raise RuntimeError("top-label edges do not match the largest cliques")
    return out
