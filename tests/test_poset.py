"""Maximal cliques, the clique intersection poset, crowns, leaf pairs."""

import random

import pytest

from matlabel import (
    CliquePoset,
    Graph,
    NoLeafPairError,
    NotChordalError,
    build_poset,
    find_crown,
    is_chordal,
    is_crown_free,
    is_strongly_chordal,
    leaf_pair,
    maximal_cliques,
)
from matlabel.graph import sorted_sets
from matlabel.oracle import brute_minimal_separators, enumerate_graphs
from matlabel.poset import clique_tree

from .conftest import UI7_MAXIMAL_CLIQUES, UI7_POSET_COVERS, UI7_POSET_NODES
from .families import (
    complete_graph,
    cycle_graph,
    n_sun,
    path_graph,
    random_graph,
    random_strongly_chordal,
)
from .helpers import band, is_clique, random_peo


def test_maximal_cliques_complete():
    assert maximal_cliques(complete_graph(5)) == (frozenset(range(1, 6)),)


def test_maximal_cliques_example(ui7):
    assert set(maximal_cliques(ui7)) == set(UI7_MAXIMAL_CLIQUES)


def test_maximal_cliques_sun():
    cliques = set(maximal_cliques(n_sun(3)))
    assert cliques == {
        frozenset({1, 2, 3}), frozenset({1, 2, 4}),
        frozenset({2, 3, 5}), frozenset({1, 3, 6}),
    }


def test_maximal_cliques_rejects_nonchordal():
    with pytest.raises(NotChordalError):
        maximal_cliques(cycle_graph(4))
    with pytest.raises(NotChordalError):
        build_poset(cycle_graph(5))


def test_maximal_cliques_brute_agreement():
    rng = random.Random(23)
    for _ in range(100):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        try:
            cliques = maximal_cliques(g)
        except NotChordalError:
            continue
        # an independent check: every reported set is a maximal clique and
        # every vertex subset that is a maximal clique is reported
        from matlabel.oracle import iter_subsets

        expect = set()
        for s in iter_subsets(g.vertices):
            if s and is_clique(g, s) and not any(
                is_clique(g, s | {v}) for v in g.vertex_set - s
            ):
                expect.add(s)
        assert set(cliques) == expect


def _maximal_cliques_pairwise(g, rng):
    """Reference: candidates along any PEO, kept when no other contains them."""
    order = random_peo(g, rng)
    position = {v: i for i, v in enumerate(order)}
    candidates = [frozenset(u for u in g.neighborhood(v) if position[u] < i) | {v}
                  for i, v in enumerate(order)]
    return {c for c in candidates if not any(c < other for other in candidates)}


def _chordal_corpus(rng):
    yield from (g for n in range(1, 6) for g in enumerate_graphs(n, is_chordal))
    for i in range(120):
        yield random_strongly_chordal(rng.randint(2, 120), rng=rng,
                                      grow_bias=(0.3, 0.6, 0.9)[i % 3])
    for _ in range(400):
        n = rng.randint(4, 14)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        if is_chordal(g):
            yield g
    yield path_graph(300)


def test_maximal_cliques_match_the_pairwise_filter():
    rng = random.Random(29)
    checked = 0
    for g in _chordal_corpus(rng):
        assert set(maximal_cliques(g)) == _maximal_cliques_pairwise(g, rng), g.edges
        checked += 1
    assert checked > 900


def test_build_poset_example(ui7):
    p = build_poset(ui7)
    assert set(p.nodes) == set(UI7_POSET_NODES)
    for node in p.nodes:
        assert set(p.covers[node]) == UI7_POSET_COVERS[node]
    assert p.nodes[0] == frozenset()
    assert [x for x in p.nodes if not p.covers[x]] == [p.nodes[0]]
    assert set(p.maximal_nodes) == set(UI7_MAXIMAL_CLIQUES)


def test_build_poset_complete_and_disjoint_edges():
    p = build_poset(complete_graph(4))
    assert p.nodes == (frozenset({1, 2, 3, 4}),)
    assert p.covers[p.nodes[0]] == ()
    q = build_poset(Graph.from_edges([(1, 2), (3, 4)]))
    assert set(q.nodes) == {frozenset(), frozenset({1, 2}), frozenset({3, 4})}
    assert q.nodes[0] == frozenset()


def _reference_poset(g):
    """Reference: the maximal cliques closed under intersection by a
    frontier fixpoint, then the covers found by comparing every pair of
    nodes."""
    cliques = maximal_cliques(g)
    nodes = set(cliques)
    frontier = set(cliques)
    while frontier:
        fresh = set()
        for x in frontier:
            for c in cliques:
                meet = x & c
                if meet not in nodes:
                    fresh.add(meet)
        nodes |= fresh
        frontier = fresh
    nodes = sorted_sets(nodes)
    covers = {}
    for x in nodes:
        below = [y for y in nodes if y < x]
        covers[x] = sorted_sets(y for y in below if not any(y < z for z in below if z < x))
    bottoms = [x for x in nodes if not covers[x]]
    return nodes, list(covers.items()), bottoms, frozenset(cliques)


def _worklist_poset(cliques):
    """Reference: the worklist down from the cliques that meets every node
    with every maximal clique, without a vertex -> cliques index; the
    covers as CliquePoset lists them."""
    cliques = frozenset(cliques)
    covers = {}
    todo = list(cliques)
    while todo:
        x = todo.pop()
        if x in covers:
            continue
        kept = covers[x] = []
        meets = {x & c for c in cliques} - {x}
        for meet in sorted(meets, key=len, reverse=True):
            if not any(meet < y for y in kept):
                kept.append(meet)
        todo.extend(kept)
    return [(x, sorted_sets(covers[x])) for x in sorted_sets(covers)]


def _d(t):
    """D_t: a clique on 1..t, and t + i adjacent to every clique vertex but
    i. Chordal, not strongly chordal for t >= 3, about 2^t poset nodes."""
    clique = [(i, j) for i in range(1, t + 1) for j in range(i + 1, t + 1)]
    return Graph(range(1, 2 * t + 1), clique + [(t + i, j) for i in range(1, t + 1)
                                                 for j in range(1, t + 1) if j != i])


def _disjoint_union(graphs):
    vertices, edges, shift = [], [], 0
    for g in graphs:
        vertices += [v + shift for v in g.vertices]
        edges += [(u + shift, v + shift) for u, v in g.edges]
        shift += max(g.vertices, default=0)
    return Graph(vertices, edges)


def test_poset_matches_the_fixpoint_and_pairwise_scan():
    rng = random.Random(53)
    graphs = [g for n in range(7) for g in enumerate_graphs(n, is_chordal)]
    graphs += [random_strongly_chordal(rng.randint(1, 40), rng=rng,
                                       grow_bias=(0.3, 0.6, 0.9)[i % 3]) for i in range(150)]
    graphs += [path_graph(300)] + [n_sun(k) for k in range(3, 7)]
    graphs += [Graph.from_edges([(1, 2), (3, 4), (4, 5)]), Graph([1, 2, 3], [(1, 2)]),
               Graph([7]), Graph([])]
    # a band's clique tree is a path and its nodes are runs of up to w + 1
    # vertices, each met only with the windows at the two ends of the run's
    # subpath; D_t is not strongly chordal, and has about 2^t nodes
    graphs += [band(n, w) for n in (6, 11, 17, 24) for w in (1, 2, 3, 5, 8) if w < n]
    graphs += [_d(t) for t in range(3, 7)]
    # three or more components: the empty meet comes from a clique that
    # misses the node
    unions = [_disjoint_union([Graph([1])] * 3),
              _disjoint_union([_d(3), path_graph(5), band(9, 3)]),
              _disjoint_union([complete_graph(4), Graph([1]), n_sun(3), Graph([1, 2])])]
    unions += [_disjoint_union(random_strongly_chordal(rng.randint(1, 12), rng=rng)
                               for _ in range(rng.randint(3, 5))) for _ in range(30)]
    with_empty = 0
    for g in graphs + unions:
        p = build_poset(g)
        # the first node is the only one without covers
        assert (p.nodes, list(p.covers.items()), [p.nodes[0]],
                p.maximal_nodes) == _reference_poset(g), g.edges
        assert list(p.covers.items()) == _worklist_poset(p.maximal_nodes), g.edges
        with_empty += frozenset() in p
    assert all(build_poset(g).nodes[0] == frozenset() for g in unions)
    assert len(graphs) > 19000 and with_empty > 10000
    assert build_poset(Graph([])).nodes == (frozenset(),)
    with pytest.raises(ValueError):
        CliquePoset([], [])


def _star(n):
    return Graph.from_edges([(1, v) for v in range(2, n + 1)])


def test_clique_tree_is_a_clique_tree():
    rng = random.Random(67)
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n, is_chordal)]
    graphs += [random_strongly_chordal(rng.randint(1, 60), rng=rng,
                                       grow_bias=(0.3, 0.6, 0.9)[i % 3]) for i in range(150)]
    graphs += [_d(t) for t in range(3, 7)] + [_star(n) for n in (2, 3, 50)]
    graphs += [band(n, w) for n in (6, 11, 17, 24) for w in (1, 2, 3, 5, 8) if w < n]
    graphs += [_disjoint_union([_d(3), path_graph(5), band(9, 3), _star(6)]),
               _disjoint_union([Graph([1])] * 3)]
    graphs += [_disjoint_union(random_strongly_chordal(rng.randint(1, 12), rng=rng)
                               for _ in range(rng.randint(2, 5))) for _ in range(30)]
    small = rng.sample([g for g in graphs if 3 <= g.n <= 8], 150)
    small += [g for g in (random_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
                          for n in (7, 8) for _ in range(150)) if is_chordal(g)]
    for g in graphs + small:
        cliques, parent = clique_tree(g)
        assert len(set(cliques)) == len(cliques) == len(parent), g.edges
        assert all(up is None or up < i for i, up in enumerate(parent)), g.edges
        assert parent.count(None) == len(g.components()), g.edges
        # the cliques through a vertex span a subtree: one fewer edge than cliques
        for v in g.vertices:
            through = {i for i, c in enumerate(cliques) if v in c}
            edges = sum(parent[i] in through for i in through)
            assert edges == len(through) - 1, (g.edges, v)
    # the edge separators of a clique tree are the minimal separators (Ho & Lee)
    for g in small:
        cliques, parent = clique_tree(g)
        separators = {cliques[i] & cliques[up] for i, up in enumerate(parent) if up is not None}
        assert separators == brute_minimal_separators(g), g.edges
    assert len(graphs) > 19000 and len(small) > 200


def _meets_per_node(g):
    meets = [0]

    class Counted(frozenset):
        """A clique that counts the meets taken with it."""

        def __and__(self, other):
            meets[0] += 1
            return frozenset.__and__(self, other)

        __rand__ = __and__

    cliques, parent = clique_tree(g)
    p = CliquePoset([Counted(c) for c in cliques], parent)
    return meets[0] / len(p.nodes)


def test_poset_meets_per_node_do_not_grow_with_the_graph():
    # a rule that meets a node with the cliques through its vertices, or with
    # every clique, takes twice the meets per node at twice the size
    for smaller, larger in [(band(40, 20), band(80, 40)), (_star(400), _star(800))]:
        assert _meets_per_node(larger) <= 1.5 * _meets_per_node(smaller)


def _meets_of_vertices_and_edges(g, cliques):
    """K(S) for every vertex and edge S of g, where K(S) is the meet of the
    cliques that contain S."""
    through = {v: [c for c in cliques if v in c] for v in g.vertices}
    meets = {frozenset.intersection(*through[v]) for v in g.vertices}
    meets |= {frozenset.intersection(*(c for c in through[u] if v in c))
              for u, v in g.edges}
    return meets


def test_strongly_chordal_poset_nodes_are_meets_of_vertices_and_edges(corpus6_facts):
    # the lemma in CliquePoset's docstring: N <= n + m + 1
    rng = random.Random(61)
    graphs = [facts.graph for facts in corpus6_facts if facts.strongly_chordal]
    graphs += [random_strongly_chordal(rng.randint(1, 40), rng=rng,
                                       grow_bias=(0.3, 0.6, 0.9)[i % 3]) for i in range(300)]
    graphs.append(Graph.from_edges([(1, v) for v in range(2, 52)]))  # star(50)
    for g in graphs:
        p = build_poset(g)
        assert set(p.nodes) - {frozenset()} == _meets_of_vertices_and_edges(g, p.maximal_nodes)
        assert len(p.nodes) <= g.n + g.m + 1
    assert len(graphs) > 300
    # D_8 is chordal, not strongly chordal, and has more
    d8 = _d(8)
    assert (len(build_poset(d8).nodes), d8.n + d8.m + 1) == (264, 101)


def test_poset_invariants_sampled():
    rng = random.Random(31)
    for _ in range(40):
        g = random_strongly_chordal(rng.randint(1, 12), rng=rng)
        p = build_poset(g)
        nodes = set(p.nodes)
        for x in p.nodes:
            for y in p.nodes:
                assert x & y in nodes  # closed under intersection
            assert is_clique(g, x)
        bottoms = [x for x in p.nodes if not p.covers[x]]
        assert bottoms == [p.nodes[0]]
        # the minimum node is exactly the set of dominating vertices
        assert p.nodes[0] == frozenset(
            v for v in g.vertices if g.degree(v) == g.n - 1
        )
        position = {x: i for i, x in enumerate(p.nodes)}
        for x in p.nodes:
            covered = p.covers[x]
            # each cover lies strictly below its node, and comes before it
            assert all(y < x and position[y] < position[x] for y in covered)
            # covers are transitively reduced
            for y in covered:
                assert not any(y < z < x for z in p.nodes)


def test_separators_are_poset_nodes():
    rng = random.Random(37)
    checked = 0
    while checked < 60:
        n = rng.randint(3, 7)
        g = random_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
        try:
            p = build_poset(g)
        except NotChordalError:
            continue
        checked += 1
        for sep in brute_minimal_separators(g):
            assert sep in set(p.nodes)


def test_find_crown_in_sun_poset():
    p = build_poset(n_sun(3))
    assert len(p.nodes) == 11
    witness = find_crown(p, 3)
    assert witness is not None
    # the crown condition, rechecked literally
    k = witness.k
    for i in range(k):
        for j in range(k):
            expected = j == i or j == (i + 1) % k
            assert (witness.lower[i] < witness.upper[j]) == expected
    for i in range(k):
        for j in range(i + 1, k):
            assert not (witness.lower[i] <= witness.lower[j])
            assert not (witness.upper[i] <= witness.upper[j])


def test_no_crown_in_example_poset(ui7):
    p = build_poset(ui7)
    assert is_crown_free(p)
    for k in range(3, len(p.nodes) // 2 + 1):
        assert find_crown(p, k) is None


def test_abstract_crown_fed_directly():
    k = 4
    lower = [frozenset({i}) for i in range(k)]
    upper = [frozenset({(j - 1) % k, j, k + 1 + j}) for j in range(k)]
    witness = find_crown(lower + upper, 4)
    assert witness is not None
    assert set(witness.lower) == set(lower)
    assert set(witness.upper) == set(upper)


def test_find_crown_validation():
    with pytest.raises(ValueError):
        find_crown(build_poset(complete_graph(3)), 2)


def test_crown_free_iff_strongly_chordal_sampled():
    rng = random.Random(41)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 7)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        try:
            p = build_poset(g)
        except NotChordalError:
            continue
        checked += 1
        assert is_crown_free(p) == is_strongly_chordal(g)


def test_crown_freeness_ignores_empty_node():
    # searching with or without the empty node gives the same verdict
    rng = random.Random(43)
    checked = 0
    while checked < 120:
        n = rng.randint(2, 7)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        try:
            p = build_poset(g)
        except NotChordalError:
            continue
        checked += 1
        without = [x for x in p.nodes if x]
        if len(without) == len(p.nodes) or not without:
            continue
        assert is_crown_free(p) == all(
            find_crown(without, k) is None for k in range(3, len(without) // 2 + 1))


def test_leaf_pair_example(ui7):
    p = build_poset(ui7)
    t = sorted(p.maximal_nodes, key=lambda s: (len(s), sorted(s)))
    x0, y0 = leaf_pair(p, t)
    assert x0 == frozenset({5, 6, 7}) and y0 == frozenset({4, 5, 6})
    for y in t:
        if y != x0:
            assert x0 & y <= x0 & y0


def test_leaf_pair_two_elements():
    p = build_poset(Graph.from_edges([(1, 2), (3, 4)]))
    t = [frozenset({1, 2}), frozenset({3, 4})]
    assert leaf_pair(p, t) == (frozenset({1, 2}), frozenset({3, 4}))


def test_leaf_pair_fails_on_sun_ears():
    p = build_poset(n_sun(3))
    ears = [frozenset({1, 2, 4}), frozenset({2, 3, 5}), frozenset({1, 3, 6})]
    with pytest.raises(NoLeafPairError) as err:
        leaf_pair(p, ears)
    assert set(err.value.antichain) == set(ears)


def _leaf_pair_all_pairs(elems):
    """Reference: the first pair whose containment holds against every node."""
    for x0 in elems:
        meets = {y: x0 & y for y in elems if y != x0}
        for y0 in elems:
            if y0 != x0 and all(meets[y] <= meets[y0] for y in meets):
                return x0, y0
    return None


def test_leaf_pair_matches_the_all_pairs_search():
    rng = random.Random(47)
    graphs = [n_sun(3), n_sun(4)] + [
        g for n in range(5, 8) for g in
        (random_graph(n, rng.randint(n, n * (n - 1) // 2), rng) for _ in range(150))
        if is_chordal(g)]
    graphs += [random_strongly_chordal(rng.randint(5, 40), rng=rng) for _ in range(60)]
    checked = failed = 0
    for g in graphs:
        p = build_poset(g)
        antichains = [p.covers[x] for x in p.nodes] + [p.maximal_nodes]
        for t in antichains:
            if len(t) < 2:
                continue
            elems = sorted(t, key=lambda s: (len(s), sorted(s)))
            expected = _leaf_pair_all_pairs(elems)
            if expected is None:
                with pytest.raises(NoLeafPairError):
                    leaf_pair(p, t)
                failed += 1
            else:
                assert leaf_pair(p, t) == expected
            checked += 1
    assert checked > 300 and failed > 0


def test_leaf_pair_validation(ui7):
    p = build_poset(ui7)
    with pytest.raises(ValueError):
        leaf_pair(p, [frozenset({5, 6, 7})])  # too small
    with pytest.raises(ValueError):
        leaf_pair(p, [frozenset({5}), frozenset({5, 6})])  # not an antichain
    with pytest.raises(ValueError):
        leaf_pair(p, [frozenset({5}), frozenset({1, 7})])  # not nodes
