"""graph.peel, the one greedy elimination loop: its worklist against the
loop that tested every vertex again after each removal, simple elimination
and the greedy MAT-PEO against the loops that rebuilt a Graph or an
EdgeLabeling for every removed vertex, the constructor's MAT-PEOs read off
the top edge against the same loop, and counts of the values built."""

import random
from collections import Counter
from itertools import combinations, permutations, product

import pytest

from matlabel import (EdgeLabeling, Graph, construct_mat_labeling, find_mat_peo,
                      is_mat_peo, is_mat_simplicial, is_simple_vertex, is_simplicial,
                      is_strongly_chordal)
from matlabel.construct import _label_table, _mat_peo
from matlabel.graph import canonical_edge, peel
from matlabel.oracle import _mat_simplicial_left
from matlabel.oracle import enumerate_graphs
from matlabel.poset import build_poset
from matlabel.strong_chordal import find_sun, simple_elimination

from .families import (height_labeling_complete, n_sun, path_graph, random_graph,
                       random_strongly_chordal)
from .helpers import sorted_scan_mat_peo, with_label


def rescan_peel(g: Graph, removable):
    """Reference: test every vertex again, from the smallest, after each
    removal."""
    adj = {v: set(g[v]) for v in g.vertices}
    removed = []
    while True:
        v = next((v for v in adj if removable(adj, v)), None)
        if v is None:
            return removed, list(adj)
        removed.append(v)
        for u in adj.pop(v):
            adj[u].discard(v)


def closed_set_is_simple_vertex(g, v) -> bool:
    """Reference: sort the closed neighbourhoods of N[v] by size and check
    that each lies in the next."""
    closed = sorted((g[u] | {u} for u in g[v] | {v}), key=len)
    return all(a <= b for a, b in zip(closed, closed[1:]))


def rebuild_simple_elimination(g: Graph):
    """Reference: delete the smallest simple vertex from a rebuilt Graph."""
    current = g
    removal = []
    while current.n:
        for v in current.vertices:
            if is_simple_vertex(current, v):
                removal.append(v)
                current = current.delete_vertex(v)
                break
        else:
            break
    return removal[::-1], current


def rebuild_find_mat_peo(lab: EdgeLabeling, prefix=()):
    """Reference: restrict a rebuilt EdgeLabeling past the smallest
    MAT-simplicial vertex not in prefix."""
    current = lab
    removal = []
    while current.graph.n > len(prefix):
        for v in current.graph.vertices:
            if v not in prefix and is_mat_simplicial(current, v):
                removal.append(v)
                current = current.restrict_vertices(current.graph.vertex_set - {v})
                break
        else:
            return None
    return list(prefix) + removal[::-1]


def rebuild_is_mat_peo(lab: EdgeLabeling, order) -> bool:
    """Reference: check each vertex on the rebuilt labeling of its prefix."""
    seq = list(order)
    return all(is_mat_simplicial(lab.restrict_vertices(seq[:i]), seq[i - 1])
               for i in range(len(seq), 0, -1))


def relabeled(g: Graph, rng: random.Random) -> Graph:
    ids = rng.sample(range(3 * g.n + 5), g.n)
    to = dict(zip(g.vertices, ids))
    return Graph(ids, [(to[u], to[v]) for u, v in g.edges])


def with_bridged_sun(rng: random.Random) -> Graph:
    """A strongly chordal host with one k-sun bridged to it, relabeled."""
    host = random_strongly_chordal(rng.randint(1, 25), rng=rng,
                                   grow_bias=rng.choice((0.3, 0.6, 0.9)))
    sun = n_sun(rng.randint(3, 6))
    first = max(host.vertices)
    edges = list(host.edges) + [(first + u, first + v) for u, v in sun.edges]
    edges.append((rng.choice(host.vertices), first + rng.choice(sun.vertices)))
    return relabeled(Graph.from_edges(edges), rng)


def graphs(seed: int, count: int):
    rng = random.Random(seed)
    for i in range(count):
        kind = i % 3
        if kind == 0:
            yield random_strongly_chordal(rng.randint(1, 40), rng=rng,
                                          grow_bias=rng.choice((0.3, 0.6, 0.9)))
        elif kind == 1:
            yield with_bridged_sun(rng)
        else:
            n = rng.randint(1, 12)
            yield random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)


def test_simple_elimination_matches_the_rebuild_loop():
    residues = 0
    for g in graphs(91, 240):
        order, residue = simple_elimination(g)
        assert (order, residue) == rebuild_simple_elimination(g)
        residues += residue.n > 0
    assert 100 <= residues <= 200  # both outcomes are well covered


def test_worklist_peel_matches_the_rescan_on_graphs():
    residues = 0
    for g in graphs(98, 240):
        for removable in (is_simple_vertex, is_simplicial):
            result = peel(g, removable)
            assert result == rescan_peel(g, removable)
            residues += bool(result[1])
    assert residues >= 100


def test_is_simple_vertex_calls_are_linear(monkeypatch):
    g = random_strongly_chordal(1600, seed=1600)
    calls = []

    def counting(adj, v):
        calls.append(v)
        return is_simple_vertex(adj, v)

    monkeypatch.setattr("matlabel.strong_chordal.is_simple_vertex", counting)
    assert is_strongly_chordal(g)
    # the rescan made 625,871 calls here
    assert len(calls) <= 10 * g.n


def test_is_simple_vertex_matches_the_closed_sets_on_every_small_graph():
    verdicts = Counter()
    for n in range(7):
        for g in enumerate_graphs(n):
            for v in g.vertices:
                verdict = is_simple_vertex(g, v)
                assert verdict == closed_set_is_simple_vertex(g, v)
                verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False]


def labelings(seed: int, count: int):
    """Valid labelings of small strongly chordal graphs and cliques, each
    followed by a copy with one edge relabeled."""
    rng = random.Random(seed)
    for i in range(count):
        if i % 2:
            g = random_strongly_chordal(rng.randint(1, 11), rng=rng,
                                        grow_bias=rng.choice((0.6, 0.9)))
            lab = construct_mat_labeling(relabeled(g, rng))
        else:
            ell = rng.randint(1, 7)
            lab = height_labeling_complete(ell, rng.sample(range(30), ell))
        yield lab
        if lab.graph.m:
            u, v = rng.choice(lab.graph.edges)
            yield with_label(lab, u, v, rng.randint(1, lab.max_label + 1))


def test_worklist_peel_matches_the_rescan_on_labelings():
    stuck = 0
    for lab in labelings(99, 120):
        removable = _mat_simplicial_left(lab)
        result = peel(lab.graph, removable)
        assert result == rescan_peel(lab.graph, removable)
        stuck += bool(result[1])
    assert stuck >= 20


def test_worklist_peel_matches_the_rescan_on_every_small_labeling():
    # every labeling with labels 1..3 of every graph on up to 4 vertices
    stuck = count = 0
    for n in range(5):
        for g in enumerate_graphs(n):
            for labels in product((1, 2, 3), repeat=g.m):
                lab = EdgeLabeling(g, dict(zip(g.edges, labels)))
                removable = _mat_simplicial_left(lab)
                result = peel(g, removable)
                assert result == rescan_peel(g, removable)
                stuck += bool(result[1])
                count += 1
    assert count == sum(4 ** (n * (n - 1) // 2) for n in range(5))
    assert stuck > 0


def test_find_mat_peo_matches_the_rebuild_loop():
    found = failed = 0
    for lab in labelings(93, 120):
        order = find_mat_peo(lab)
        assert order == rebuild_find_mat_peo(lab)
        found += order is not None
        failed += order is None
    assert found >= 120 and failed >= 20


def mat_labelings_of_cliques(top: int):
    """(m, table) for every MAT-labeling of K_m on 1..m, m = 1..top, along
    which 1..m is a MAT-PEO: each new vertex joins the earlier ones by a
    bijection onto the labels 1..i-1 that passes MS3 at it."""
    layer = [{}]
    for m in range(1, top + 1):
        yield from ((m, table) for table in layer)
        if m == top:
            return
        earlier = range(1, m + 1)
        layer = [{**table, **{(a, m + 1): k for a, k in zip(earlier, labels)}}
                 for table in layer for labels in permutations(earlier)
                 if all(table[a, b] < max(labels[a - 1], labels[b - 1])
                        for a, b in combinations(earlier, 2))]


def test_construct_mat_peo_matches_the_rebuild_loop_on_every_small_clique():
    # the top-edge walk of construct._mat_peo against the search it replaced,
    # and against the sort over all pairs that the walk replaced
    rng = random.Random(97)
    counts, stuck = Counter(), 0
    for m, table in mat_labelings_of_cliques(6):
        counts[m] += 1
        to = dict(zip(range(1, m + 1), rng.sample(range(40), m)))
        labels = {canonical_edge(to[a], to[b]): k for (a, b), k in table.items()}
        vs = set(to.values())
        lab = EdgeLabeling(Graph(vs, labels), labels)
        for _ in range(4):
            prefix = rng.sample(sorted(vs), rng.randint(0, m))
            expected = rebuild_find_mat_peo(lab, prefix)
            if expected is None:
                stuck += 1
                for mat_peo in (_mat_peo, sorted_scan_mat_peo):
                    with pytest.raises(RuntimeError, match=f"merge: no MAT-PEO of a "
                                                           f"clique of size {m}$"):
                        mat_peo(labels, vs, set(prefix), "merge")
            else:
                for mat_peo in (_mat_peo, sorted_scan_mat_peo):
                    assert mat_peo(labels, vs, set(prefix), "merge") == expected[len(prefix):]
    # 2^((m-1)(m-2)/2) MAT-labelings of K_m along 1..m, 1100 in all
    assert counts == {m: 2 ** ((m - 1) * (m - 2) // 2) for m in range(1, 7)}
    assert stuck >= 1000


def test_is_mat_peo_matches_the_rebuild_loop():
    rng = random.Random(94)
    verdicts = set()
    for lab in labelings(95, 120):
        orders = [rng.sample(lab.graph.vertices, lab.graph.n) for _ in range(3)]
        order = find_mat_peo(lab)
        if order is not None:
            orders.append(order)
        for order in orders:
            verdict = is_mat_peo(lab, order)
            assert verdict == rebuild_is_mat_peo(lab, order)
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_is_mat_peo_on_path_orders_ending_far_apart():
    # the last two vertices of each order are more than 2 apart, so the
    # second to last is outside the ball of radius 2 around the last
    lab = EdgeLabeling(path_graph(8), {e: 1 for e in path_graph(8).edges})
    verdicts = []
    for order in ([2, 3, 4, 5, 6, 7, 1, 8], [3, 4, 5, 6, 7, 2, 8, 1],
                  [4, 3, 5, 6, 2, 7, 1, 8], [4, 5, 3, 6, 7, 2, 8, 1],
                  [3, 5, 4, 6, 7, 2, 8, 1], [2, 4, 3, 5, 6, 7, 8, 1]):
        verdict = is_mat_peo(lab, order)
        assert verdict == rebuild_is_mat_peo(lab, order)
        verdicts.append(verdict)
    assert verdicts == [True, True, True, True, False, False]


@pytest.fixture
def built(monkeypatch):
    """Counts of Graph and EdgeLabeling values constructed."""
    counts = {"Graph": 0, "EdgeLabeling": 0}
    for cls in (Graph, EdgeLabeling):
        real = cls.__init__

        def counting(self, *args, _name=cls.__name__, _real=real, **kwargs):
            counts[_name] += 1
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return counts


def test_simple_elimination_builds_only_the_residue(built):
    rng = random.Random(96)
    for g in (random_strongly_chordal(80, seed=8, grow_bias=0.9),
              with_bridged_sun(rng), n_sun(6)):
        built["Graph"] = 0
        simple_elimination(g)
        assert built["Graph"] <= 1


def test_find_sun_builds_two_graphs_per_residue_vertex(built):
    g = n_sun(12)
    built["Graph"] = 0
    assert find_sun(g).n == 12
    # the first residue, then for each vertex the deletion and its residue,
    # then the sun pattern and its image for the witness check; a rebuild
    # per removal would be quadratic
    assert built["Graph"] <= 2 * g.n + 3


def test_mat_peo_peels_build_no_labeling(built):
    lab = construct_mat_labeling(random_strongly_chordal(40, seed=4, grow_bias=0.9))
    mutant = with_label(lab, *lab.graph.edges[0], lab.max_label + 1)
    built.update(Graph=0, EdgeLabeling=0)
    order = find_mat_peo(lab)
    assert order is not None and is_mat_peo(lab, order)
    assert find_mat_peo(mutant) is None and not is_mat_peo(mutant, order)
    assert built == {"Graph": 0, "EdgeLabeling": 0}


def test_construct_mat_peos_build_no_graph_or_labeling(built):
    # construct's MAT-PEOs peel each clique straight off the label table
    lab = height_labeling_complete(9, range(10, 19))
    table, whole, part = lab.labels, lab.graph.vertex_set, frozenset(range(13, 17))
    built.update(Graph=0, EdgeLabeling=0)
    none = frozenset()
    part_order = _mat_peo(table, part, none, "merge")
    orders = [_mat_peo(table, whole, none, "extension"), _mat_peo(table, {18}, none, "merge"),
              _mat_peo(table, whole, part, "merge")]
    assert built == {"Graph": 0, "EdgeLabeling": 0}
    g = random_strongly_chordal(60, seed=6, grow_bias=0.9)
    poset = build_poset(g)
    built["Graph"] = 0
    table = _label_table(poset)
    assert built == {"Graph": 0, "EdgeLabeling": 0}
    assert part_order == find_mat_peo(lab.restrict_vertices(part))
    past_part = rebuild_find_mat_peo(lab, part_order)[len(part):]
    assert orders == [find_mat_peo(lab), [18], past_part]
    assert EdgeLabeling(g, table) == construct_mat_labeling(g)
