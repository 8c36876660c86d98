"""The exhaustive labeling search, cross-checked against naive enumeration."""

import random
from itertools import combinations, product

import pytest

from matlabel import (
    EdgeLabeling,
    Graph,
    is_chordal,
    is_strongly_chordal,
    peo_exponents,
    verify_mat_labeling,
)
from matlabel.oracle import enumerate_graphs

from .brute import _Search, brute_force_mat_labeling
from .families import complete_graph, cycle_graph, n_sun, random_graph


def clique_number(g):
    """The size of a largest clique, by a scan of the vertex subsets."""
    return max((r for r in range(g.n + 1) for s in combinations(g.vertices, r)
                if all(g.has_edge(u, v) for u, v in combinations(s, 2))), default=0)


def naive_bound(g):
    """The label bound of the exhaustive search: omega - 1 if g is chordal."""
    return clique_number(g) - 1 if is_chordal(g) else g.n - 1


def naive_search(g):
    """First valid labeling in lexicographic order, by full enumeration."""
    if g.m == 0:
        return EdgeLabeling(g, {})
    bound = naive_bound(g)
    if bound < 1:
        return None
    for combo in product(range(1, bound + 1), repeat=g.m):
        lab = EdgeLabeling(g, dict(zip(g.edges, combo)))
        if verify_mat_labeling(lab) is None:
            return lab
    return None


def assert_matches_naive(g):
    """brute_force_mat_labeling(g) is naive_search(g); returns it."""
    fast = brute_force_mat_labeling(g)
    slow = naive_search(g)
    assert (fast is None) == (slow is None), g.edges
    if fast is not None:
        assert fast.items() == slow.items(), g.edges  # lexicographically least
    return fast


def test_complete_graph():
    lab = brute_force_mat_labeling(complete_graph(4))
    assert lab is not None and verify_mat_labeling(lab) is None
    assert lab.block_sizes() == (3, 2, 1)


def test_rejects_cycles_and_suns():
    assert brute_force_mat_labeling(cycle_graph(4)) is None
    assert brute_force_mat_labeling(n_sun(3)) is None
    assert brute_force_mat_labeling(n_sun(3), max_label=3) is None


def test_edge_guard():
    g = complete_graph(7)  # 21 edges
    with pytest.raises(ValueError):
        brute_force_mat_labeling(g)
    lab = brute_force_mat_labeling(g, max_edges=21)
    assert lab is not None and lab.block_sizes() == (6, 5, 4, 3, 2, 1)


def test_clique_number_helper():
    # the subset scan, and the search's default bound for a chordal graph: the
    # largest PEO exponent is the clique number less one
    assert clique_number(complete_graph(5)) == 5
    assert clique_number(cycle_graph(5)) == 2
    assert clique_number(n_sun(3)) == 3
    assert clique_number(Graph()) == 0
    assert clique_number(Graph([3])) == 1
    checked = 0
    for n in range(1, 7):
        for g in enumerate_graphs(n, is_chordal):
            assert peo_exponents(g)[-1] == clique_number(g) - 1, g.edges
            checked += 1
    assert checked == 19_048  # the labeled chordal graphs on 1..6 vertices


def test_an_assign_between_joined_ends_raises():
    search = _Search(complete_graph(3), 2)
    e12, e13, e23 = (search.gedges.index(e) for e in [(1, 2), (1, 3), (2, 3)])
    assert search.assign(e12, 2) and search.assign(e23, 2)
    with pytest.raises(RuntimeError, match="at level 2"):
        search.assign(e13, 2)
    assert search.assign(e13, 1)  # other levels are apart


def test_an_assign_that_would_span_an_earlier_edge_changes_nothing():
    search = _Search(complete_graph(3), 2)
    e12, e13, e23 = (search.gedges.index(e) for e in [(1, 2), (1, 3), (2, 3)])
    assert search.assign(e13, 1) and search.assign(e12, 2)
    before = (list(search.labels), [list(row) for row in search.comp], list(search.trail))
    # block 2 would hold 1, 2 and 3, and so span the edge 1-3 labeled 1
    assert search.assign(e23, 2) is False
    assert (search.labels, search.comp, search.trail) == before


def test_matches_naive_enumeration_exhaustive():
    for n in range(5):
        for g in enumerate_graphs(n):
            assert_matches_naive(g)


def test_matches_naive_enumeration_random():
    rng = random.Random(63)
    for _ in range(60):
        assert_matches_naive(random_graph(5, rng.randint(0, 9), rng))


def test_matches_naive_enumeration_on_six_and_seven_vertices():
    # graphs whose enumeration holds at most 60,000 labelings; seed 66 gives
    # label bounds 1, 2, 3, 5 and 6, nine non-chordal graphs and nine
    # graphs without a labeling
    rng = random.Random(66)
    checked = nones = 0
    while checked < 60:
        n = rng.randint(6, 7)
        g = random_graph(n, rng.randint(n - 2, 14), rng)
        bound = naive_bound(g)
        if max(bound, 1) ** g.m > 60_000:
            continue
        checked += 1
        nones += assert_matches_naive(g) is None
    assert 0 < nones < checked


def test_dense_nonchordal_refutation():
    # near-complete 7-vertex graphs are the hardest "none" proofs; this
    # one is K7 minus the edges (2,4), (4,5), (6,7)
    g = Graph.from_edges([
        (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (2, 3), (2, 5),
        (2, 6), (2, 7), (3, 4), (3, 5), (3, 6), (3, 7), (4, 6), (4, 7),
        (5, 6), (5, 7),
    ])
    assert not is_chordal(g)
    assert brute_force_mat_labeling(g) is None


def test_found_labelings_always_verify():
    rng = random.Random(64)
    for _ in range(120):
        n = rng.randint(1, 6)
        g = random_graph(n, rng.randint(0, min(10, n * (n - 1) // 2)), rng)
        lab = brute_force_mat_labeling(g)
        if lab is not None:
            assert verify_mat_labeling(lab) is None
        assert (lab is not None) == is_strongly_chordal(g)
