"""The brute-force oracles and their agreement with production paths."""

import random

import pytest

from matlabel import (
    build_poset,
    find_any_crown,
    find_chordless_cycle,
    find_crown,
    is_chordal,
    is_strongly_chordal,
)
from .families import (
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    n_sun,
    path_graph,
    random_graph,
)
from .scans import (
    brute_induced_cycles,
    brute_induced_subposet,
    brute_minimal_separators,
    crown_pattern,
)


def test_enumerate_counts():
    assert sum(1 for _ in enumerate_graphs(1)) == 1
    assert sum(1 for _ in enumerate_graphs(3)) == 8
    assert sum(1 for _ in enumerate_graphs(3, connected=True)) == 4
    assert sum(1 for _ in enumerate_graphs(4, connected=True)) == 38


def test_enumerate_no_small_chordal_non_strongly_chordal():
    # the smallest sun has six vertices
    hits = list(enumerate_graphs(
        4, predicate=lambda g: is_chordal(g) and not is_strongly_chordal(g)
    ))
    assert hits == []


def test_enumerate_guard():
    with pytest.raises(ValueError):
        next(enumerate_graphs(9))
    with pytest.raises(ValueError):
        next(enumerate_graphs(-1))


def test_brute_induced_cycles():
    assert brute_induced_cycles(cycle_graph(4)) == (1, 2, 3, 4)
    assert brute_induced_cycles(complete_graph(4)) is None
    assert brute_induced_cycles(n_sun(3)) is None
    assert brute_induced_cycles(cycle_graph(10)) == tuple(range(1, 11))
    with pytest.raises(ValueError):
        brute_induced_cycles(cycle_graph(11))


def test_brute_cycles_agree_with_production():
    rng = random.Random(81)
    for _ in range(250):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        oracle_cycle = brute_induced_cycles(g)
        assert (oracle_cycle is None) == is_chordal(g)
        assert (find_chordless_cycle(g) is None) == (oracle_cycle is None)


def test_crown_pattern():
    size, less = crown_pattern(3)
    assert size == 6
    assert less == {(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 3)}
    with pytest.raises(ValueError):
        crown_pattern(0)


def test_brute_subposet_sun_vs_crown():
    p = build_poset(n_sun(3))
    image = brute_induced_subposet(p, crown_pattern(3))
    assert image is not None
    size, less = crown_pattern(3)
    for i in range(size):
        for j in range(size):
            if i != j:
                assert (image[i] < image[j]) == ((i, j) in less)


def test_brute_subposet_chain_has_no_crown():
    chain = [frozenset(range(i)) for i in range(1, 9)]
    assert brute_induced_subposet(chain, crown_pattern(3)) is None


def test_brute_subposet_example_poset(ui7):
    p = build_poset(ui7)
    assert brute_induced_subposet(p, crown_pattern(3)) is None


def test_crown_detection_agrees_with_oracle():
    rng = random.Random(83)
    checked = 0
    while checked < 150:
        n = rng.randint(2, 7)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        if not is_chordal(g):
            continue
        checked += 1
        p = build_poset(g)
        for k in range(3, len(p.nodes) // 2 + 1):
            fast = find_crown(p, k)
            slow = brute_induced_subposet(p, crown_pattern(k))
            # both place lowers then uppers over the nodes in canonical order
            assert (None if fast is None else fast.lower + fast.upper) == slow
        assert (find_any_crown(p) is None) == all(
            brute_induced_subposet(p, crown_pattern(k)) is None
            for k in range(3, len(p.nodes) // 2 + 1)
        )


def test_brute_minimal_separators_basics():
    assert brute_minimal_separators(path_graph(3)) == frozenset({frozenset({2})})
    assert brute_minimal_separators(cycle_graph(4)) == frozenset(
        {frozenset({1, 3}), frozenset({2, 4})}
    )
    assert brute_minimal_separators(complete_graph(4)) == frozenset()


def test_separator_guard():
    with pytest.raises(ValueError):
        brute_minimal_separators(complete_graph(9))


def test_crown_candidates_keep_the_least_image():
    # find_crown offers a position only the nodes that can complete the
    # image; the search over every node must find the same least crown
    from .helpers import all_nodes_crown

    rng = random.Random(31)
    graphs = [g for n in range(6) for g in enumerate_graphs(n, is_chordal)]
    graphs += [n_sun(k) for k in (3, 4, 5)]
    while len(graphs) < 1_100:
        n = rng.randint(7, 9)
        g = random_graph(n, rng.randint(n - 1, n * (n - 1) // 2), rng)
        if is_chordal(g):
            graphs.append(g)
    calls = hits = 0
    for g in graphs:
        p = build_poset(g)
        for k in range(3, len(p.nodes) // 2 + 1):
            got = find_crown(p, k)
            assert got == all_nodes_crown(p, k), (g.edges, k)
            calls += 1
            hits += got is not None
    assert (calls, hits) == (848, 7)  # the scan meets crowns and crown-free posets
