"""Witnesses of a rejection, and the wording of input errors.

A command loads this module only when it rejects its input, finds it
malformed, or reports why a graph is not unit interval (`classify`). It
holds the chordless cycle's closing path, the sun read off an elimination
residue and the crown lifted from it, the violations of ML1-3 with their
paths, the errors of a bad labeling entry or JSON object, and the JSON of
each witness kind.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Mapping, NamedTuple

from .graph import Graph, _check_vertex_id, canonical_edge, sorted_sets
from .io import _JsonObject

# -- chordless cycles -------------------------------------------------------


def _shortest_path(g, src, dst, forbidden):
    prev = {src: None}
    queue = [src]
    while queue:
        nxt = []
        for x in queue:
            for y in sorted(g.neighborhood(x)):
                if y in prev or y in forbidden:
                    continue
                prev[y] = x
                if y == dst:
                    path = [y]
                    while prev[path[-1]] is not None:
                        path.append(prev[path[-1]])
                    return tuple(reversed(path))
                nxt.append(y)
        queue = nxt
    return None


def _chordless_cycle(g: Graph, v: int, p: int, x: int) -> tuple[int, ...]:
    """The cycle that chordal.find_chordless_cycle reads off the failure
    (v, p, x) of the PEO check, in its normalized rotation."""
    path = _shortest_path(g, x, p, g.closed_neighborhood(v) - {x, p})
    if path is None:
        raise RuntimeError(f"find_chordless_cycle: no path closes a cycle at vertex "
                           f"{v} of a graph with {g.n} vertices")
    cycle = (v,) + path
    i = cycle.index(min(cycle))
    cycle = cycle[i:] + cycle[:i]
    return cycle if cycle[1] < cycle[-1] else cycle[:1] + cycle[:0:-1]


# -- suns and crowns --------------------------------------------------------


class SunWitness(NamedTuple):
    """An induced n-sun: `inner` is the central clique in cyclic order and
    outer[i] is adjacent to exactly inner[i] and inner[(i+1) % n]."""

    n: int
    inner: tuple[int, ...]
    outer: tuple[int, ...]

    def as_json(self) -> dict:
        return {"kind": "sun", "n": self.n,
                "inner": list(self.inner), "outer": list(self.outer)}


def n_sun(n: int) -> Graph:
    """Central clique 1..n plus outer vertex n+i adjacent to i and i+1 (cyclic)."""
    if n < 3:
        raise ValueError("suns are defined for n >= 3")
    edges = list(combinations(range(1, n + 1), 2))
    for i in range(1, n + 1):
        edges.append((i, n + i))
        edges.append((i % n + 1, n + i))
    return Graph(range(1, 2 * n + 1), edges)


def _sun_on(r: Graph) -> SunWitness | None:
    """The least dihedral image of a sun on all of r, or None if r is no sun."""
    k = r.n // 2
    inner = [v for v in r.vertices if r.degree(v) == k + 1]
    if k < 3 or len(inner) != k:
        return None
    ring, outer = [inner[0]], []
    for _ in range(k):
        # (next inner vertex, outer vertex between them), never stepping back
        step = [(u, o) for o in r.neighborhood(ring[-1]) if r.degree(o) == 2
                for u in r.neighborhood(o) if u != ring[-1] and u not in ring[-2:-1]]
        if not step:
            return None
        u, o = min(step)
        ring.append(u)
        outer.append(o)
    image = ring[:k] + outer
    if ring[k] != ring[0] or len(set(image)) != 2 * k:
        return None
    pattern = n_sun(k)
    if Graph(image, [(image[a - 1], image[b - 1]) for a, b in pattern.edges]) != r:
        return None
    return SunWitness(k, tuple(ring[:k]), tuple(outer))


class CrownWitness(NamedTuple):
    """An induced k-crown: lower[i] < upper[i] and lower[i] < upper[i+1]
    (cyclically) are the only comparabilities."""

    k: int
    lower: tuple[frozenset[int], ...]
    upper: tuple[frozenset[int], ...]

    def as_json(self) -> dict:
        return {
            "kind": "crown",
            "k": self.k,
            "lower": [sorted(x) for x in self.lower],
            "upper": [sorted(y) for y in self.upper],
        }


def crown_from_sun(cliques: Iterable[frozenset[int]], sun) -> CrownWitness:
    """The k-crown forced by an induced k-sun in the clique intersection
    poset of a chordal graph with the given maximal cliques.

    With inner vertices i_0..i_(k-1) and outer vertex o_j adjacent to i_j
    and i_(j+1) (indices mod k), let M_C be the first maximal clique that
    contains the inner clique and M_j the first one that contains
    {i_j, i_(j+1), o_j}. Then upper[j] = M_j & M_C and lower[j] =
    upper[j] & upper[j+1]. All are intersections of maximal cliques, so
    poset nodes.

    Proof that this is an induced crown. On the sun S, a clique meets S in
    a clique of S. M_C meets S in the inner clique (an outer vertex misses
    k - 2 >= 1 inner ones) and M_j in {i_j, i_(j+1), o_j} (the only sun
    neighbours of o_j). So upper[j] meets S in {i_j, i_(j+1)} and lower[j]
    in {i_(j+1)}. Two uppers (two lowers) have distinct traces of one
    size, so neither layer has a comparable pair. lower[j] < upper[l]
    needs i_(j+1) in upper[l]'s trace, so l in {j, j+1}; both hold by
    construction, strictly as the traces differ. No upper lies below a
    lower, its trace being larger. These are exactly the k-crown's
    comparabilities.
    """
    cliques = sorted_sets(cliques)

    def first_containing(vs) -> frozenset[int]:
        found = next((c for c in cliques if c >= vs), None)
        if found is None:
            raise ValueError(f"no maximal clique contains {sorted(vs)}: "
                             f"not a sun of the poset's graph")
        return found

    k, inner, outer = sun.n, sun.inner, sun.outer
    m_c = first_containing(frozenset(inner))
    upper = tuple(
        first_containing(frozenset((inner[j], inner[(j + 1) % k], outer[j]))) & m_c
        for j in range(k))
    lower = tuple(upper[j] & upper[(j + 1) % k] for j in range(k))
    return CrownWitness(k, lower, upper)


def _witness_json(kind: str, hit) -> dict:
    """A rung's witness as the CLI reports it: a chordless cycle's vertices,
    unit_interval.claw_or_net's map of a claw or net, or a SunWitness or
    CrownWitness."""
    if kind == "chordless-cycle":
        return {"kind": kind, "vertices": list(hit)}
    if kind == "claw":
        return {"kind": kind, "center": hit[1], "leaves": sorted(hit[v] for v in (2, 3, 4))}
    if kind == "net":
        return {"kind": kind, "triangle": [hit[v] for v in (1, 2, 3)],
                "pendants": [hit[v] for v in (4, 5, 6)]}
    return hit.as_json()


# -- labeling violations ----------------------------------------------------


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
    path = _shortest_path(Graph.from_edges(edges), a, b, ())
    return tuple(canonical_edge(x, y) for x, y in zip(path, path[1:]))


def _edge_ids(vertices, pairs) -> list[tuple[int, int]]:
    """The edges, in vertex ids, of a list of vertex-number pairs."""
    return [(vertices[a], vertices[b]) for a, b in pairs]


def _cycle_violation(vertices, pi_k, e, k) -> MatViolation:
    """ML1 at level k: the pair e of vertex numbers, an edge of pi_k, closes
    a cycle with the other edges of pi_k, reported as the path and e."""
    u, v = cycle_edge = (vertices[e[0]], vertices[e[1]])
    path = _path_edges(set(_edge_ids(vertices, pi_k)) - {cycle_edge}, u, v)
    return MatViolation("ML1-cycle", k, edges=path + (cycle_edge,),
                        detail=f"edges labeled {k} contain a cycle")


def _count_violation(lab, vertices, pi_k, k, parent, below, e) -> MatViolation:
    """The violation at level k, where ML1-3 hold below k, pi_k is a forest
    of union-find parent and its edge e, a pair of vertex numbers, fails its
    triangle count: ML2 at the least edge (x, y) of E_(k-1) inside a tree of
    pi_k, if any, else ML3 at e. x is the least forest vertex whose below[x]
    meets its tree, and y the least vertex of that meet."""
    root, tree = {}, {}  # tree[r]: the vertices of r's tree, as a bitset
    for x in set().union(*pi_k):
        r = x
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        root[x] = r
        tree[r] = tree.get(r, 0) | 1 << x
    for x in sorted(root):
        hits = below[x] & tree[root[x]]
        if hits:
            x, y = vertices[x], vertices[(hits & -hits).bit_length() - 1]
            return MatViolation(
                "ML2-closure", k,
                edges=((x, y),) + _path_edges(_edge_ids(vertices, pi_k), x, y),
                detail=f"edge {(x, y)} labeled {lab.label(x, y)} is spanned by edges labeled {k}",
            )
    a, b = e
    u, v = vertices[a], vertices[b]
    count = (below[a] & below[b]).bit_count()
    return MatViolation(
        "ML3-triangle-count", k, edges=((u, v),),
        detail=f"edge {(u, v)} labeled {k} closes {count} triangles "
               f"with earlier labels, needs {k - 1}",
    )


# -- malformed labelings and JSON objects -----------------------------------


def _check_entry(u, v, k) -> None:
    """Raise the error for an entry (u, v) -> k that fails the fast check of
    EdgeLabeling: an id that is no nonnegative int, a self-loop, or a label
    that is no positive int. Ids and labels of an int subclass other than
    bool pass, and then it returns.
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


def _object_error(what: str, where: str, value, keys, missing) -> ValueError:
    """The error for a value at `where` (as " edges[3]") in a `what` JSON
    document that is no object (an io._JsonObject) of the keys in `keys`,
    each once: a repeated key, else `missing` (the caller's words for no
    object or a bad needed key), else a key outside `keys`."""
    counts = Counter(k for k, _ in value) if type(value) is _JsonObject else {}
    repeated = [k for k, c in counts.items() if c > 1]
    unknown = [k for k in counts if k not in keys]
    return ValueError(f"{what} JSON repeats the key {repeated[0]!r} in one object" if repeated
                      else missing or f"{what} JSON{where} has an unknown key {unknown[0]!r}")


def _check_labeling_entry(i: int, item) -> None:
    """Raise the error for entry i of a labeling's "edges" when its keys are
    not exactly "u", "v" and "label" or an endpoint is an array or object;
    return when only a value is not an int, for EdgeLabeling to word."""
    keys = ("u", "v", "label")
    entry = dict(item) if type(item) is _JsonObject else {}
    if entry.keys() != set(keys) or len(item) != 3:
        missing = not entry.keys() >= set(keys) and (
            f'labeling JSON edges[{i}] must be an object with "u", "v" and "label", got {item!r}')
        raise _object_error("labeling", f" edges[{i}]", item, keys, missing)
    if type(entry["u"]) in (list, _JsonObject) or type(entry["v"]) in (list, _JsonObject):
        raise ValueError(f"labeling JSON edges[{i}] has an array or object endpoint")
