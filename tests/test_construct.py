"""Height labelings, extension, merging, node families, and the constructor."""

import random
from functools import cache
from itertools import combinations, product

import pytest

from matlabel import (
    CliquePoset,
    EdgeLabeling,
    Graph,
    MatViolation,
    NotStronglyChordalError,
    build_poset,
    construct_mat_labeling,
    crown_from_sun,
    exponents_from_labeling,
    extend_labeling_complete,
    find_sun,
    is_chordal,
    is_mat_simplicial,
    is_strongly_chordal,
    leaf_pair,
    merge_complete,
    node_family,
    verify_mat_labeling,
)
from matlabel.construct import _extend_into, _label_table, _mat_peo, _merge_into
from matlabel.graph import sorted_key, sorted_sets

from .conftest import UI7_EXPONENTS, UI7_LABELS
from .families import (
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    height_labeling_complete,
    n_sun,
    path_graph,
    random_graph,
    random_strongly_chordal,
)


def test_height_labeling_values():
    lab = height_labeling_complete(4)
    assert lab.labels == {(1, 2): 1, (2, 3): 1, (3, 4): 1,
                          (1, 3): 2, (2, 4): 2, (1, 4): 3}
    assert height_labeling_complete(2).labels == {(1, 2): 1}
    assert height_labeling_complete(8).block_sizes() == (7, 6, 5, 4, 3, 2, 1)
    with pytest.raises(ValueError):
        height_labeling_complete(0)


def test_height_labeling_custom_vertices():
    lab = height_labeling_complete(3, vertices=[10, 20, 30])
    assert lab.label(10, 20) == 1 and lab.label(10, 30) == 2


def test_extend_from_empty():
    lab = extend_labeling_complete(4, (), EdgeLabeling(Graph(), {}))
    assert lab.graph == complete_graph(4)
    assert verify_mat_labeling(lab) is None
    assert lab.block_sizes() == (3, 2, 1)


def test_extend_noop_when_complete():
    base = height_labeling_complete(5)
    assert extend_labeling_complete(5, range(1, 6), base) == base


def test_extend_single_edge_gives_112_triangle():
    base = EdgeLabeling(complete_graph(2), {(1, 2): 1})
    lab = extend_labeling_complete(3, {1, 2}, base)
    assert verify_mat_labeling(lab) is None
    assert sorted(lab.labels.values()) == [1, 1, 2]
    assert lab.label(1, 2) == 1
    # brute enumeration: every valid triangle labeling has multiset {1,1,2}
    for combo in product(range(1, 3), repeat=3):
        cand = EdgeLabeling(complete_graph(3),
                            dict(zip(complete_graph(3).edges, combo)))
        if verify_mat_labeling(cand) is None:
            assert sorted(combo) == [1, 1, 2]


def _extend_by_repeel(w, lab_w, vertices):
    """Reference extension: a fresh greedy MAT-PEO of the whole current
    clique before every appended vertex, and a new labeling after it."""
    current = lab_w
    for v in sorted(set(vertices) - set(w)):
        rest, removal = current, []
        while rest.graph.n:
            u = next(x for x in rest.graph.vertices if is_mat_simplicial(rest, x))
            removal.append(u)
            rest = rest.restrict_vertices(rest.graph.vertex_set - {u})
        labels = current.labels
        for i, u in enumerate(reversed(removal), start=1):
            labels[(min(u, v), max(u, v))] = i
        vs = sorted(current.graph.vertex_set | {v})
        current = EdgeLabeling(Graph(vs, combinations(vs, 2)), labels)
    return current


def test_extend_matches_per_vertex_repeel():
    rng = random.Random(53)
    bases = [height_labeling_complete(4, vertices=[10, 20, 30, 40])]
    for _ in range(12):
        g = random_strongly_chordal(rng.randint(4, 14), rng=rng, grow_bias=0.8)
        bases.extend(lab for lab in node_family(g).values() if lab.graph.n >= 2)
    checked = 0
    for lab_w in bases:
        w = lab_w.graph.vertex_set
        # new ids below, between and above those of w
        fresh = [x for x in range(0, 2 * max(w) + 8) if x not in w]
        extra = rng.sample(fresh, rng.randint(1, 6))
        target = w | set(extra)
        got = extend_labeling_complete(len(target), w, lab_w, vertices=target)
        assert got == _extend_by_repeel(w, lab_w, target)
        checked += 1
    assert checked >= 30


def test_extend_from_empty_is_height_labeling():
    rng = random.Random(54)
    empty = EdgeLabeling(Graph(), {})
    for ell in range(1, 10):
        vs = rng.sample(range(100), ell)
        assert (extend_labeling_complete(ell, (), empty, vertices=vs)
                == height_labeling_complete(ell, vs))


def test_extend_peels_one_mat_peo(monkeypatch):
    seen = []

    def counting(table, vs, kept, stage):
        seen.append((set(vs), set(kept), stage))
        return _mat_peo(table, vs, kept, stage)

    monkeypatch.setattr("matlabel.construct._mat_peo", counting)
    lab = extend_labeling_complete(12, {3, 7}, height_labeling_complete(2, [3, 7]))
    assert seen == [({3, 7}, set(), "extension")]
    assert lab == _extend_by_repeel({3, 7}, height_labeling_complete(2, [3, 7]),
                                    range(1, 13))


def test_failed_mat_peo_of_a_verified_clique_is_an_internal_error():
    # merges and extensions only meet MAT-labeled cliques; a clique without
    # a MAT-PEO that starts with its kept vertices is a bug, reported with
    # the stage
    ones = dict.fromkeys(combinations((1, 2, 3), 2), 1)
    with pytest.raises(RuntimeError, match="extension: no MAT-PEO of a clique of size 3"):
        _mat_peo(ones, {1, 2, 3}, frozenset(), "extension")
    height = height_labeling_complete(3, vertices=[3, 4, 5]).labels
    with pytest.raises(RuntimeError, match="merge: no MAT-PEO of a clique of size 3"):
        _mat_peo(height, {3, 4, 5}, {3, 5}, "merge")


def test_extend_validation():
    with pytest.raises(ValueError):
        extend_labeling_complete(2, {1, 2}, EdgeLabeling(Graph([1]), {}))
    bad = EdgeLabeling(complete_graph(3), {e: 1 for e in complete_graph(3).edges})
    with pytest.raises(ValueError):
        extend_labeling_complete(4, {1, 2, 3}, bad)


def test_merge_disjoint_singletons():
    lab = merge_complete(
        {1}, {2}, EdgeLabeling(Graph([1]), {}), EdgeLabeling(Graph([2]), {})
    )
    assert lab.labels == {(1, 2): 1}


def test_merge_identical_inputs():
    base = height_labeling_complete(4)
    assert merge_complete(base.graph.vertex_set, base.graph.vertex_set,
                          base, base) == base


def test_merge_reproduces_example_block(ui7_labeling):
    lab_a = ui7_labeling.restrict_vertices({2, 3, 4})
    lab_b = ui7_labeling.restrict_vertices({4, 5})
    merged = merge_complete({2, 3, 4}, {4, 5}, lab_a, lab_b)
    assert merged == ui7_labeling.restrict_vertices({2, 3, 4, 5})


def test_merge_validation():
    a = height_labeling_complete(3)  # on {1, 2, 3}
    b = height_labeling_complete(3, vertices=[3, 4, 5])
    # shared vertex {3} has no shared edges, so these merge fine
    merged = merge_complete({1, 2, 3}, {3, 4, 5}, a, b)
    assert verify_mat_labeling(merged) is None
    # but disagreement on a shared edge is rejected
    c = EdgeLabeling(complete_graph(3), {(1, 2): 1, (1, 3): 1, (2, 3): 2})
    d_edges = Graph([2, 3, 4], [(2, 3), (2, 4), (3, 4)])
    d = EdgeLabeling(d_edges, {(2, 3): 1, (2, 4): 1, (3, 4): 2})
    with pytest.raises(ValueError):
        merge_complete({1, 2, 3}, {2, 3, 4}, c, d)
    with pytest.raises(ValueError):
        merge_complete({1, 2, 3}, {2, 3}, c, d)  # d not on the clique of b


def test_merge_random_cliques():
    rng = random.Random(51)
    for _ in range(30):
        shared = frozenset(range(1, rng.randint(1, 4)))
        extra_a = frozenset(range(10, 10 + rng.randint(0, 3)))
        extra_b = frozenset(range(20, 20 + rng.randint(0, 3)))
        base = extend_labeling_complete(
            len(shared), (), EdgeLabeling(Graph(), {}), vertices=shared
        ) if shared else EdgeLabeling(Graph(), {})
        lab_a = extend_labeling_complete(
            len(shared | extra_a), shared, base, vertices=shared | extra_a)
        lab_b = extend_labeling_complete(
            len(shared | extra_b), shared, base, vertices=shared | extra_b)
        merged = merge_complete(shared | extra_a, shared | extra_b, lab_a, lab_b)
        assert verify_mat_labeling(merged) is None
        assert merged.restrict_vertices(shared | extra_a) == lab_a
        assert merged.restrict_vertices(shared | extra_b) == lab_b


def test_node_family_example(ui7):
    poset = build_poset(ui7)
    family = node_family(ui7)
    assert set(family) == set(poset.nodes)
    for x, lab in family.items():
        assert lab.graph.vertex_set == x
        assert verify_mat_labeling(lab) is None
    for x in poset.nodes:
        for y in poset.nodes:
            if y < x:
                assert family[x].restrict_vertices(y) == family[y]


def test_node_family_merges_as_the_recursive_peel(monkeypatch):
    # the former recursion: peel a leaf-pair node, label the rest, merge it in
    def recursive(poset, antichain, merges):
        elems = sorted_sets(antichain)
        if len(elems) == 1:
            return elems[0]
        x0, _ = leaf_pair(poset, elems)
        union = recursive(poset, [x for x in elems if x != x0], merges)
        merges.append((union, x0))
        return union | x0

    import matlabel.construct as construct

    merged = []
    real_merge = construct._merge_into

    def recording(table, a, b):
        merged.append((frozenset(a), frozenset(b)))
        return real_merge(table, a, b)

    monkeypatch.setattr(construct, "_merge_into", recording)
    rng = random.Random(55)
    for _ in range(15):
        g = random_strongly_chordal(rng.randint(6, 24), rng=rng, grow_bias=0.5)
        poset = build_poset(g)
        merged.clear()
        node_family(g)
        expected = []
        for x in poset.nodes:
            if poset.covers[x]:
                recursive(poset, poset.covers[x], expected)
        assert merged == expected


# strongly chordal; its poset node {1, 3, 4, 5} merges {3, 4, 5} and {1, 3}
# over {3}, and {1, 2, 3, 4, 5} merges its covers over the triangle {3, 4, 5}
SC8_EDGES = [(1, 2), (1, 3), (1, 4), (1, 5), (1, 7), (1, 8), (2, 3), (2, 4), (2, 5),
             (2, 6), (3, 4), (3, 5), (3, 6), (3, 7), (3, 8), (4, 5), (4, 6), (4, 7),
             (5, 6), (5, 7)]


def test_a_merge_peels_two_greedy_orders(monkeypatch):
    # the cross labels read |a & b| and the orders of a - b and b - a only,
    # so no order of the shared clique is computed
    import matlabel.construct as construct

    peeled, merges = [], []
    real_peo, real_merge = construct._mat_peo, construct._merge_into

    def peeling(table, vs, kept, stage):
        peeled.append((frozenset(vs), frozenset(kept), stage))
        return real_peo(table, vs, kept, stage)

    def merging(table, a, b):
        start = len(peeled)
        real_merge(table, a, b)
        merges.append((frozenset(a), frozenset(b), peeled[start:]))

    monkeypatch.setattr(construct, "_mat_peo", peeling)
    monkeypatch.setattr(construct, "_merge_into", merging)
    construct_mat_labeling(Graph.from_edges(SC8_EDGES))
    assert [(set(a), set(b)) for a, b, _ in merges] == [({3, 4, 5}, {1, 3}),
                                                        ({2, 3, 4, 5}, {1, 3, 4, 5})]
    for a, b, calls in merges:
        assert calls == [(a, a & b, "merge"), (b, a & b, "merge")]
    assert sum(stage == "merge" for *_, stage in peeled) == 2 * len(merges)


def test_node_family_complete():
    family = node_family(complete_graph(4))
    assert set(family) == {frozenset({1, 2, 3, 4})}


def test_node_family_single_edge():
    family = node_family(Graph.from_edges([(1, 2)]))
    assert set(family) == {frozenset({1, 2})}
    assert family[frozenset({1, 2})].labels == {(1, 2): 1}


def test_construct_example(ui7):
    lab = construct_mat_labeling(ui7)
    assert verify_mat_labeling(lab) is None
    assert lab.block_sizes() == (6, 5, 2)
    assert exponents_from_labeling(lab) == UI7_EXPONENTS
    # any valid labeling of this graph has the same block profile, since
    # the profile is the conjugate of the (unique) exponent multiset
    reference = EdgeLabeling(ui7, UI7_LABELS)
    assert lab.block_sizes() == reference.block_sizes()


def test_construct_deterministic(ui7):
    assert construct_mat_labeling(ui7) == construct_mat_labeling(ui7)


def test_construct_tree_all_ones():
    # 1100 vertices give more maximal cliques than the recursion limit
    for n in (6, 1100):
        lab = construct_mat_labeling(path_graph(n))
        assert set(lab.labels.values()) == {1}


def test_construct_rejects_sun_with_crown():
    with pytest.raises(NotStronglyChordalError) as err:
        construct_mat_labeling(n_sun(3))
    assert err.value.kind == "crown"
    assert err.value.witness.k == 3


def _assert_induced_crown(poset, witness):
    k = witness.k
    elems = witness.lower + witness.upper
    assert len(set(elems)) == 2 * k and all(x in poset for x in elems)
    for i in range(k):
        for j in range(k):
            expected = j == i or j == (i + 1) % k
            assert (witness.lower[i] < witness.upper[j]) == expected
            assert not witness.upper[j] < witness.lower[i]
    for layer in (witness.lower, witness.upper):
        for i in range(k):
            for j in range(k):
                assert i == j or not layer[i] < layer[j]


@cache
def _small_chordal_not_strongly_chordal():
    """The connected chordal graphs on up to 6 vertices that are not strongly
    chordal, and those among 4000 seeded random graphs on 7 to 10 vertices."""
    def chordal_not_sc(g):
        return is_chordal(g) and not is_strongly_chordal(g)

    graphs = [g for n in range(1, 7)
              for g in enumerate_graphs(n, chordal_not_sc, connected=True)]
    rng = random.Random(79)
    sampled = []
    for _ in range(4000):
        n = rng.randint(7, 10)
        g = random_graph(n, rng.randint(n, 2 * n + 2), rng)
        if chordal_not_sc(g):
            sampled.append(g)
    return graphs, sampled


def test_construct_rejects_every_small_non_strongly_chordal_with_crown():
    graphs, sampled = _small_chordal_not_strongly_chordal()
    assert graphs
    assert sampled
    for g in graphs + sampled:
        with pytest.raises(NotStronglyChordalError) as err:
            construct_mat_labeling(g)
        assert err.value.kind == "crown"
        _assert_induced_crown(build_poset(g), err.value.witness)


def d_graph(t: int) -> Graph:
    """A clique on 1..t, and a vertex t + i adjacent to every clique vertex
    but i, for i = 1..t: chordal, not strongly chordal for t >= 3, and with
    about 2^t clique intersections."""
    clique = range(1, t + 1)
    return Graph.from_edges([*combinations(clique, 2),
                             *((t + i, j) for i in clique for j in clique if j != i)])


def test_construct_rejects_before_building_the_poset(ui7, monkeypatch):
    built = []
    real = CliquePoset.__init__

    def counting(self, cliques, parent):
        built.append(cliques)
        real(self, cliques, parent)

    monkeypatch.setattr(CliquePoset, "__init__", counting)
    construct_mat_labeling(ui7)
    assert len(built) == 1
    graphs, sampled = _small_chordal_not_strongly_chordal()
    for g in graphs + sampled + [d_graph(t) for t in range(3, 25)]:
        expected = None
        if g.n <= 20:
            poset = build_poset(g)
            expected = crown_from_sun(poset.maximal_nodes, find_sun(g))
        built.clear()
        with pytest.raises(NotStronglyChordalError) as err:
            construct_mat_labeling(g)
        assert built == []
        assert err.value.kind == "crown"
        if expected is not None:
            assert err.value.witness == expected
            _assert_induced_crown(poset, expected)


def test_construct_failed_verify_is_an_internal_error(ui7, monkeypatch):
    # the clique labelings still verify; only the union is rejected
    violation = MatViolation("ML1-cycle", 1, detail="injected")
    monkeypatch.setattr(
        "matlabel.construct.verify_mat_labeling",
        lambda lab: violation if lab.graph == ui7 else verify_mat_labeling(lab),
    )
    with pytest.raises(RuntimeError, match="verify"):
        construct_mat_labeling(ui7)


def test_construct_rejects_nonchordal_with_cycle():
    with pytest.raises(NotStronglyChordalError) as err:
        construct_mat_labeling(cycle_graph(5))
    assert err.value.kind == "chordless-cycle"
    assert len(err.value.witness) == 5


def test_construct_disconnected():
    g = Graph([1, 2, 3, 4, 5, 6, 9],
              [(1, 2), (1, 3), (2, 3), (4, 5), (5, 6)])
    lab = construct_mat_labeling(g)
    assert verify_mat_labeling(lab) is None
    assert lab.graph == g


def test_construct_trivial_graphs():
    assert construct_mat_labeling(Graph()).labels == {}
    assert construct_mat_labeling(Graph([7])).labels == {}


def test_construct_random_strongly_chordal():
    rng = random.Random(77)
    for _ in range(25):
        g = random_strongly_chordal(rng.randint(1, 20), rng=rng,
                                    grow_bias=rng.choice([0.3, 0.6, 0.85]))
        lab = construct_mat_labeling(g)
        assert verify_mat_labeling(lab) is None


def test_construct_top_block_counts_largest_cliques():
    from matlabel import maximal_cliques

    rng = random.Random(78)
    for _ in range(25):
        g = random_strongly_chordal(rng.randint(2, 15), rng=rng, grow_bias=0.7)
        if g.m == 0:
            continue
        lab = construct_mat_labeling(g)
        cliques = maximal_cliques(g)
        omega = max(len(c) for c in cliques)
        assert lab.max_label == omega - 1
        largest = sum(1 for c in cliques if len(c) == omega)
        assert lab.block_sizes()[-1] == largest


def _reference_labeling_for_antichain(poset, family, antichain):
    """The former per-node merge: peel leaf-pair nodes, merge them back in
    reverse order with the public, input-verifying merge_complete."""
    elems = sorted_sets(antichain)
    peeled = []
    while len(elems) > 1:
        x0, _ = leaf_pair(poset, elems)
        peeled.append(x0)
        elems = [x for x in elems if x != x0]
    lab = family[elems[0]] if elems else EdgeLabeling(Graph(), {})
    for x0 in reversed(peeled):
        lab = merge_complete(lab.graph.vertex_set, x0, lab, family[x0])
    return lab


def _rank_order(poset):
    """The nodes bottom-up in rank, the longest chain of covers below a
    node, ties broken canonically."""
    rank = {}
    for x in sorted_sets(poset.nodes):
        rank[x] = 1 + max(rank[y] for y in poset.covers[x]) if poset.covers[x] else 0
    return sorted(poset.nodes, key=lambda node: (rank[node], sorted_key(node)))


def _rank_order_label_table(poset):
    """Reference: the label table filled bottom-up in rank."""
    table = {}
    for x in _rank_order(poset):
        covers, peeled = list(poset.covers[x]), []
        while len(covers) > 1:
            x0, _ = leaf_pair(poset, covers)
            peeled.append(x0)
            covers.remove(x0)
        w = covers[0] if covers else frozenset()
        for x0 in reversed(peeled):
            _merge_into(table, w, x0)
            w |= x0
        if w != x:
            _extend_into(table, w, x)
    return table


def _reference_node_family(poset):
    family = {}
    for x in _rank_order(poset):
        base = _reference_labeling_for_antichain(poset, family, poset.covers[x])
        if base.graph.vertex_set != x:
            base = extend_labeling_complete(len(x), base.graph.vertex_set, base,
                                            vertices=x)
        family[x] = base
    return family


def _reference_construct(g, poset, family):
    """The former constructor: the union of the maximal-clique labelings,
    with no conflict allowed, verified."""
    labels = {}
    for clique in sorted_sets(poset.maximal_nodes):
        for e, k in family[clique].items():
            assert labels.setdefault(e, k) == k, e
    result = EdgeLabeling(g, labels)
    assert verify_mat_labeling(result) is None
    return result


def _table_corpus():
    rng = random.Random(83)
    for i in range(210):
        yield random_strongly_chordal(rng.randint(1, 40), rng=rng,
                                      grow_bias=(0.3, 0.6, 0.9)[i % 3])
    yield path_graph(300)
    yield from (complete_graph(ell) for ell in range(2, 13))


def test_label_table_matches_the_per_node_family(ui7):
    checked = 0
    for g in [ui7, *_table_corpus()]:
        poset = build_poset(g)
        expected = _reference_node_family(poset)
        assert node_family(g) == expected
        assert _label_table(poset) == _rank_order_label_table(poset)
        assert construct_mat_labeling(g) == _reference_construct(g, poset, expected)
        checked += 1
    assert checked == 223


def test_construct_verifies_once(ui7, monkeypatch):
    calls = []

    def counting(lab):
        calls.append(lab.graph)
        return verify_mat_labeling(lab)

    monkeypatch.setattr("matlabel.construct.verify_mat_labeling", counting)
    for g in [ui7, *_table_corpus()]:
        calls.clear()
        construct_mat_labeling(g)
        assert calls == [g]
