"""The labeling verifier, MAT-simplicial vertices, MAT-PEOs."""

import random
import tracemalloc
from collections import Counter
from types import SimpleNamespace

import pytest

from matlabel import (
    EdgeLabeling,
    Graph,
    MatViolation,
    construct_mat_labeling,
    find_mat_peo,
    is_mat_peo,
    is_mat_simplicial,
    mat_simplicial_violation,
    verify_mat_labeling,
)
from matlabel.construct import _mat_peo
from matlabel.graph import canonical_edge
from matlabel.witness import _path_edges

from .families import (
    complete_graph,
    height_labeling_complete,
    path_graph,
    random_strongly_chordal,
)
from .helpers import restrict_edges, with_label


def all_ones(g):
    return EdgeLabeling(g, {e: 1 for e in g.edges})


def test_labeling_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        EdgeLabeling(g, {(1, 2): 1})  # missing edge
    with pytest.raises(ValueError):
        EdgeLabeling(g, {(1, 2): 1, (2, 3): 1, (1, 3): 1})  # extra edge
    with pytest.raises(ValueError):
        EdgeLabeling(g, {(1, 2): 0, (2, 3): 1})  # label must be positive
    with pytest.raises(ValueError):
        EdgeLabeling(g, {(1, 2): 1, (2, 1): 2, (2, 3): 1})  # duplicate edge


def test_labeling_rejects_a_non_edge_in_place_of_an_edge():
    # m entries, all distinct, one of them no edge: the count alone passes
    g = path_graph(4)
    with pytest.raises(ValueError) as err:
        EdgeLabeling(g, {(1, 2): 1, (1, 3): 1, (3, 4): 1})
    assert str(err.value) == ("label domain must equal the edge set "
                              "(missing [(2, 3)], extra [(1, 3)])")
    with pytest.raises(ValueError) as err:
        EdgeLabeling(g, {(1, 2): 1, (2, 3): 1, (4, 9): 1})
    assert str(err.value) == ("label domain must equal the edge set "
                              "(missing [(3, 4)], extra [(4, 9)])")


@pytest.mark.parametrize("endpoint", [True, 2.0, -1, "1"])
def test_labeling_rejects_non_integer_endpoints(endpoint):
    # True == 1 and 2.0 == 2 hash alike, so they must not pass as vertex ids
    g = Graph.from_edges([(1, 2)])
    with pytest.raises(ValueError, match="vertex ids must be nonnegative integers"):
        EdgeLabeling(g, {(endpoint, 2 if endpoint is True else 1): 1})


def test_blocks_and_prefixes(ui7_labeling):
    blocks = _blocks_by_level(ui7_labeling)
    assert ui7_labeling.block_sizes() == (6, 5, 2)
    assert blocks.prefixes[0] == frozenset()
    assert blocks.prefixes[3] == frozenset(ui7_labeling.graph.edges)
    assert blocks.blocks[3] == {(1, 2), (2, 5)}


def test_block_sizes_equal_the_blocks():
    for lab in _labelings_to_verify(random.Random(67)):
        blocks = _blocks_by_level(lab).blocks
        assert lab.block_sizes() == tuple(len(blocks[k]) for k in sorted(blocks))


def test_block_sizes_build_no_prefixes():
    lab = height_labeling_complete(240)
    tracemalloc.start()
    try:
        sizes = lab.block_sizes()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == tuple(range(239, 0, -1))
    assert peak < 2 * 1024 * 1024, peak


def test_verify_reference_labeling(ui7_labeling):
    assert verify_mat_labeling(ui7_labeling) is None


def test_verify_forest_all_ones():
    assert verify_mat_labeling(all_ones(path_graph(6))) is None


def test_verify_triangle_all_ones_cycle_witness():
    violation = verify_mat_labeling(all_ones(complete_graph(3)))
    assert violation is not None
    assert violation.kind == "ML1-cycle" and violation.level == 1
    # the witness is a genuine cycle among the level-1 edges
    assert sorted(violation.edges) == [(1, 2), (1, 3), (2, 3)]


def test_verify_closure_witness():
    g = complete_graph(3)
    lab = EdgeLabeling(g, {(1, 3): 1, (1, 2): 2, (2, 3): 2})
    violation = verify_mat_labeling(lab)
    assert violation is not None
    assert violation.kind == "ML2-closure" and violation.level == 2
    assert violation.edges[0] == (1, 3)


def test_verify_triangle_count_witness():
    g = path_graph(2)
    violation = verify_mat_labeling(EdgeLabeling(g, {(1, 2): 2}))
    assert violation is not None
    assert violation.kind == "ML3-triangle-count" and violation.level == 2


def test_verify_height_labeling():
    for ell in (2, 5, 8):
        assert verify_mat_labeling(height_labeling_complete(ell)) is None


def test_verify_reports_mutations(ui7_labeling):
    seen = 0
    for (u, v), old in ui7_labeling.items():
        for k in range(1, 5):
            if k == old:
                continue
            violation = verify_mat_labeling(with_label(ui7_labeling, u, v, k))
            if violation is not None:
                seen += 1
                assert violation.kind in (
                    "ML1-cycle", "ML2-closure", "ML3-triangle-count"
                )
    assert seen > 30  # almost every single-label change breaks something


def test_mat_simplicial_example(ui7_labeling):
    assert is_mat_simplicial(ui7_labeling, 7)
    assert is_mat_simplicial(ui7_labeling, 1)
    # vertex 4 is not even simplicial: neighbors 1 and 5 are nonadjacent
    violation = mat_simplicial_violation(ui7_labeling, 4)
    assert violation is not None and violation.kind == "MS1"


def test_mat_simplicial_star_center():
    star = Graph.from_edges([(1, 2), (1, 3), (1, 4)])
    lab = all_ones(star)
    assert not is_mat_simplicial(lab, 1)  # needs labels 1..3
    assert is_mat_simplicial(lab, 2)
    single = all_ones(path_graph(2))
    assert is_mat_simplicial(single, 1) and is_mat_simplicial(single, 2)


def test_mat_simplicial_nonsimplicial_vertex():
    lab = all_ones(path_graph(3))
    violation = mat_simplicial_violation(lab, 2)
    assert violation is not None and violation.kind == "MS1"


def test_mat_simplicial_max_edge_of_height_labeling():
    for ell in (3, 5, 7):
        lab = height_labeling_complete(ell)
        # the label ell-1 edge is {1, ell}; both endpoints qualify
        assert is_mat_simplicial(lab, ell)
        assert is_mat_simplicial(lab, 1)


def test_mat_simplicial_ms3_witness():
    g = complete_graph(3)
    lab = EdgeLabeling(g, {(1, 2): 2, (1, 3): 1, (2, 3): 2})
    # at vertex 3: the inside edge (1,2) has label 2, not below max(1, 2)
    violation = mat_simplicial_violation(lab, 3)
    assert violation is not None and violation.kind == "MS3"
    assert violation.edges == ((1, 2),)


def test_find_mat_peo_reference(ui7_labeling):
    order = find_mat_peo(ui7_labeling)
    assert order is not None
    assert is_mat_peo(ui7_labeling, order)


def test_find_mat_peo_rejects_invalid():
    assert find_mat_peo(all_ones(complete_graph(3))) is None


def test_find_mat_peo_with_prefix(ui7_labeling):
    clique = ui7_labeling.restrict_vertices({2, 3, 4, 5})
    assert find_mat_peo(clique) == [5, 4, 3, 2]
    # the constructor's greedy down to a kept set: the smaller end outside
    # the kept set of the top edge goes first; the peeled vertices come back
    # in MAT-PEO order, without the kept ones
    table, vs = clique.labels, clique.graph.vertex_set
    assert _mat_peo(table, vs, {2}, "merge") == [4, 3, 5]
    assert _mat_peo(table, vs, {4, 5}, "merge") == [3, 2]
    assert _mat_peo(table, vs, {2, 3, 4, 5}, "merge") == []
    assert is_mat_peo(clique, [2, 4, 3, 5])
    # edge 2-3 is labeled 2, so no MAT-PEO starts with {2, 3} and the peel is stuck
    with pytest.raises(RuntimeError, match="merge: no MAT-PEO of a clique of size 4"):
        _mat_peo(table, vs, {2, 3}, "merge")


def test_find_mat_peo_single_vertex():
    lab = EdgeLabeling(Graph([4]), {})
    assert find_mat_peo(lab) == [4]


def test_is_mat_peo_validation(ui7_labeling):
    with pytest.raises(ValueError):
        is_mat_peo(ui7_labeling, [1, 2, 3])


def test_restrict_vertices(ui7_labeling):
    sub = ui7_labeling.restrict_vertices({2, 3, 4, 5})
    assert sub.graph.vertices == (2, 3, 4, 5)
    assert sub.label(2, 5) == 3
    assert verify_mat_labeling(sub) is None


def test_restrict_edges(ui7_labeling):
    sub = restrict_edges(ui7_labeling, [(4, 5), (5, 6), (1, 2)])
    assert sub.graph.m == 3
    assert sub.label(1, 2) == 3
    with pytest.raises(ValueError):
        restrict_edges(ui7_labeling, [(1, 7)])


def _blocks_by_level(lab):
    """The blocks pi_k and prefixes E_k = pi_1 + ... + pi_k of lab, as
    .blocks and .prefixes: a block and a copied prefix at every level up
    to the largest label."""
    top = lab.max_label
    blocks = {k: set() for k in range(1, top + 1)}
    for e, k in lab.items():
        blocks[k].add(e)
    prefixes = {0: frozenset()}
    acc = set()
    for k in range(1, top + 1):
        acc |= blocks[k]
        prefixes[k] = frozenset(acc)
    return SimpleNamespace(blocks={k: frozenset(v) for k, v in blocks.items()},
                           prefixes=prefixes)


def _verify_by_scan(lab):
    """Reference verifier: every level unions its edges in sorted order,
    scans all of E_{k-1} in sorted order for ML2 and counts ML3 triangles
    through `lab.label`."""
    g = lab.graph
    data = _blocks_by_level(lab)
    for k in range(1, lab.max_label + 1):
        pi_k = data.blocks[k]
        parent = {}

        def find(x):
            parent.setdefault(x, x)
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        cycle_edge = None
        for u, v in sorted(pi_k):
            ru, rv = find(u), find(v)
            if ru == rv:
                if cycle_edge is None:
                    cycle_edge = (u, v)
                continue
            parent[ru] = rv
        if cycle_edge is not None:
            u, v = cycle_edge
            path = _bfs_path(pi_k - {cycle_edge}, u, v)
            cycle = tuple(canonical_edge(a, b) for a, b in zip(path, path[1:]))
            return MatViolation("ML1-cycle", k, edges=cycle + (cycle_edge,),
                                detail=f"edges labeled {k} contain a cycle")
        for f in sorted(data.prefixes[k - 1]):
            x, y = f
            if find(x) == find(y):
                path = _bfs_path(pi_k, x, y)
                witness = tuple(canonical_edge(a, b) for a, b in zip(path, path[1:]))
                return MatViolation(
                    "ML2-closure", k, edges=(f,) + witness,
                    detail=f"edge {f} labeled {lab.label(*f)} is spanned by "
                           f"edges labeled {k}")
        for e in sorted(pi_k):
            u, v = e
            count = sum(1 for w in g[u] & g[v]
                        if lab.label(u, w) < k and lab.label(v, w) < k)
            if count != k - 1:
                return MatViolation(
                    "ML3-triangle-count", k, edges=(e,),
                    detail=f"edge {e} labeled {k} closes {count} triangles "
                           f"with earlier labels, needs {k - 1}")
    return None


def _bfs_path(edges, src, dst):
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    prev = {src: None}
    queue = [src]
    while queue:
        x = queue.pop(0)
        if x == dst:
            path = [x]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return tuple(reversed(path))
        for y in sorted(adj.get(x, ())):
            if y not in prev:
                prev[y] = x
                queue.append(y)
    return None


def _labelings_to_verify(rng):
    """Valid labelings of seeded SC graphs (some with scattered vertex ids),
    their one-edge, two-edge and swap mutations, and random labelings."""
    for _ in range(70):
        g = random_strongly_chordal(rng.randint(2, 24), rng=rng,
                                    grow_bias=rng.choice((0.5, 0.8, 0.95)))
        if rng.random() < 0.4:
            ids = rng.sample(range(4 * g.n), g.n)
            to = dict(zip(g.vertices, ids))
            g = Graph(ids, [(to[u], to[v]) for u, v in g.edges])
        if g.m == 0:
            continue
        lab = construct_mat_labeling(g)
        yield lab
        top = lab.max_label + 2
        edges = list(g.edges)
        for _ in range(6):
            yield with_label(lab, *rng.choice(edges), rng.randint(1, top))
        labels = lab.labels
        for e in rng.sample(edges, min(2, len(edges))):
            labels[e] = rng.randint(1, top)
        yield EdgeLabeling(g, labels)
        if len(edges) >= 2:
            a, b = rng.sample(edges, 2)
            labels = lab.labels
            labels[a], labels[b] = labels[b], labels[a]
            yield EdgeLabeling(g, labels)
        yield EdgeLabeling(g, {e: rng.randint(1, lab.max_label) for e in edges})
    for ell in range(2, 12):
        lab = height_labeling_complete(ell)
        yield lab
        for _ in range(4):
            yield with_label(lab, *rng.choice(lab.graph.edges), rng.randint(1, ell))


def test_verifier_matches_the_sorted_scan():
    kinds = Counter()
    for lab in _labelings_to_verify(random.Random(67)):
        got = verify_mat_labeling(lab)
        expected = _verify_by_scan(lab)
        assert (got and got.as_json()) == (expected and expected.as_json())
        kinds[None if got is None else got.kind] += 1
    assert min(kinds[kind] for kind in (None, "ML1-cycle", "ML2-closure",
                                         "ML3-triangle-count")) >= 50, kinds


def test_ml2_fails_only_where_an_ml3_count_fails():
    # the lemma in verify_mat_labeling's docstring, checked by the scan
    # verifier alone: ML1-3 below k and ML3 at k imply ML2 at k, so a first
    # violation that is ML2 at level k has an edge of pi_k whose triangle
    # count at k is not k - 1
    cases = 0
    for lab in _labelings_to_verify(random.Random(67)):
        found = _verify_by_scan(lab)
        if found is None or found.kind != "ML2-closure":
            continue
        k, g = found.level, lab.graph
        counts = [sum(1 for w in g[u] & g[v]
                      if lab.label(u, w) < k and lab.label(v, w) < k)
                  for (u, v), j in lab.items() if j == k]
        assert any(count != k - 1 for count in counts), (lab, found)
        cases += 1
    assert cases >= 50, cases


def _forest_roots(edges):
    """Union-find over sorted edges; returns ({vertex: root}, cycle_edge | None).

    cycle_edge is the first edge, in the given order, whose endpoints are
    already joined by the edges before it. (The dict union-find that
    verify_mat_labeling ran before it kept its union-find in lists.)
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


def _verify_by_table(lab):
    """Reference verifier: one vertex -> neighbour -> label table; ML2 takes
    the least earlier edge at a forest vertex whose ends share a root, and
    ML3 counts triangles from the table."""
    table = {v: {} for v in lab.graph.vertices}
    levels = [[] for _ in range(lab.max_label + 1)]
    for (u, v), k in lab.items():
        table[u][v] = k
        table[v][u] = k
        levels[k].append((u, v))
    for k in range(1, lab.max_label + 1):
        pi_k = levels[k]
        root, cycle_edge = _forest_roots(pi_k)
        if cycle_edge is not None:
            u, v = cycle_edge
            return MatViolation(
                "ML1-cycle", k,
                edges=_path_edges(set(pi_k) - {cycle_edge}, u, v) + (cycle_edge,),
                detail=f"edges labeled {k} contain a cycle")
        closing = min(
            ((x, y) for x, r in root.items() for y, j in table[x].items()
             if j < k and x < y and root.get(y) == r),
            default=None,
        )
        if closing is not None:
            x, y = closing
            return MatViolation(
                "ML2-closure", k, edges=(closing,) + _path_edges(pi_k, x, y),
                detail=f"edge {closing} labeled {table[x][y]} is spanned by "
                       f"edges labeled {k}")
        for e in pi_k:
            near, far = (table[v] for v in e)
            if len(near) > len(far):
                near, far = far, near
            count = sum(1 for w, j in near.items() if j < k and far.get(w, k) < k)
            if count != k - 1:
                return MatViolation(
                    "ML3-triangle-count", k, edges=(e,),
                    detail=f"edge {e} labeled {k} closes {count} triangles "
                           f"with earlier labels, needs {k - 1}")
    return None


def _large_labelings_to_verify(rng):
    """Valid labelings of seeded SC graphs on 60-200 vertices (bitsets of one
    to four machine words), half with scattered ids, and their one-edge
    mutations."""
    for i in range(24):
        g = random_strongly_chordal(rng.randint(60, 200), rng=rng,
                                    grow_bias=rng.choice((0.6, 0.9)))
        if i % 2:
            ids = rng.sample(range(10 * g.n), g.n)
            to = dict(zip(g.vertices, ids))
            g = Graph(ids, [(to[u], to[v]) for u, v in g.edges])
        lab = construct_mat_labeling(g)
        yield lab
        edges = list(g.edges)
        for _ in range(20):
            yield with_label(lab, *rng.choice(edges), rng.randint(1, lab.max_label + 1))


def test_verifier_matches_the_table_verifier_at_scale():
    kinds = Counter()
    for lab in _large_labelings_to_verify(random.Random(12)):
        got = verify_mat_labeling(lab)
        expected = _verify_by_table(lab)
        assert (got and got.as_json()) == (expected and expected.as_json())
        kinds[None if got is None else got.kind] += 1
    assert min(kinds[kind] for kind in ("ML1-cycle", "ML2-closure")) >= 30, kinds


def _unit_interval_height_labeling(n, rng):
    """The height labeling (i, j) -> j - i of a seeded unit-interval graph on
    1..n in a proper order, whose vertex i reaches up to i + 2..8."""
    labels = {}
    reach = 1
    for i in range(1, n + 1):
        reach = max(reach, min(n, i + rng.randint(2, 8)))
        for j in range(i + 1, reach + 1):
            labels[(i, j)] = j - i
    return EdgeLabeling(Graph.from_edges(labels), labels)


def test_verifier_matches_the_table_verifier_on_moved_edges():
    # in a height labeling, the edges labeled j form paths i, i + j, ...; an
    # edge labeled k moved down to a j that divides k closes a cycle of
    # them (ML1), and to another j it mostly joins two of those paths that
    # an earlier edge already joins (ML2)
    rng = random.Random(14)
    labs = [height_labeling_complete(ell) for ell in (40, 60, 80, 100, 120)]
    labs += [_unit_interval_height_labeling(n, rng) for n in (500, 1000, 1500, 2000)]
    kinds = Counter()
    for lab in labs:
        assert verify_mat_labeling(lab) is None
        edges = [e for e, k in lab.items() if k >= 2]
        for _ in range(20):
            e = rng.choice(edges)
            k = lab.label(*e)
            divisors = [j for j in range(1, k) if k % j == 0]
            j = rng.choice(divisors) if rng.random() < 0.35 else rng.randint(1, k - 1)
            moved = with_label(lab, *e, j)
            got = verify_mat_labeling(moved)
            assert got == _verify_by_table(moved)
            kinds[got.kind] += 1
    assert min(kinds[kind] for kind in ("ML1-cycle", "ML2-closure")) >= 50, kinds


def test_verifier_makes_no_python_call_per_edge():
    # the union-find runs inline over lists, with no find function
    import sys

    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    for ell in (10, 60):
        lab = height_labeling_complete(ell)
        calls = 0
        sys.setprofile(count)
        try:
            violation = verify_mat_labeling(lab)
        finally:
            sys.setprofile(None)
        assert violation is None
        # the function, Graph.vertices and one dict comprehension, whatever
        # the number of levels (9 and 59) and edges (45 and 1,770): ML2 is
        # decided in witness, and only where an ML3 count fails
        assert calls <= 3, (ell, calls)
