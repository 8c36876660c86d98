"""Chordality recognition, PEOs, exponents."""

import random
from itertools import permutations

import pytest

from matlabel import (
    find_chordless_cycle,
    find_peo,
    is_chordal,
    is_peo,
    is_simplicial,
    peo_exponents,
)
from matlabel import Graph
from matlabel.chordal import _mcs_order, exponents_along

from .families import (
    claw,
    complete_graph,
    cycle_graph,
    n_sun,
    path_graph,
    random_graph,
    random_strongly_chordal,
)
from .helpers import is_clique, random_peo
from .scans import brute_induced_cycles


def test_is_simplicial():
    tree = path_graph(4)
    assert is_simplicial(tree, 1) and is_simplicial(tree, 4)
    assert not is_simplicial(claw(), 1)
    k = complete_graph(5)
    assert all(is_simplicial(k, v) for v in k.vertices)


def test_find_peo_on_cycles_and_cliques():
    assert find_peo(cycle_graph(4)) is None
    order = find_peo(complete_graph(4))
    assert order is not None and is_peo(complete_graph(4), order)


def test_find_peo_on_example(ui7):
    order = find_peo(ui7)
    assert order is not None
    assert is_peo(ui7, order)


def test_is_peo_complete_any_order():
    k = complete_graph(4)
    for perm in permutations(k.vertices):
        assert is_peo(k, perm)


def test_is_peo_c4_never():
    c = cycle_graph(4)
    for perm in permutations(c.vertices):
        assert not is_peo(c, perm)


def test_is_peo_path_prefix_convention():
    # vertex 2 is the middle of the path, so it cannot come last
    p = path_graph(3)
    assert is_peo(p, [1, 2, 3])
    assert is_peo(p, [2, 1, 3])
    assert not is_peo(p, [1, 3, 2])


def test_is_peo_rejects_non_permutations():
    with pytest.raises(ValueError):
        is_peo(path_graph(3), [1, 2])
    with pytest.raises(ValueError):
        is_peo(path_graph(3), [1, 2, 2])


def test_is_chordal():
    assert not is_chordal(cycle_graph(5))
    for n in (3, 4, 5):
        assert is_chordal(n_sun(n))
    assert is_chordal(complete_graph(1))


def test_chordality_matches_induced_cycle_oracle():
    rng = random.Random(4)
    for _ in range(300):
        n = rng.randint(1, 6)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        assert is_chordal(g) == (brute_induced_cycles(g) is None)


def test_find_chordless_cycle_witness():
    for g in (cycle_graph(4), cycle_graph(6), n_sun(3).delete_vertex(1)):
        cyc = find_chordless_cycle(g)
        if cyc is None:
            assert is_chordal(g)
            continue
        assert len(cyc) >= 4
        sub = g.induced_subgraph(cyc)
        assert sub.m == sub.n and all(sub.degree(v) == 2 for v in cyc)
    assert find_chordless_cycle(complete_graph(5)) is None
    assert find_chordless_cycle(n_sun(3)) is None


def test_peo_exponents_values(ui7):
    assert peo_exponents(complete_graph(4)) == (0, 1, 2, 3)
    assert peo_exponents(ui7) == (0, 1, 2, 2, 2, 3, 3)
    assert peo_exponents(Graph(range(5))) == (0, 0, 0, 0, 0)
    assert peo_exponents(cycle_graph(4)) is None


def test_peo_exponents_independent_of_peo(ui7):
    rng = random.Random(8)
    reference = peo_exponents(ui7)
    for _ in range(5):
        order = random_peo(ui7, rng)
        assert order is not None and is_peo(ui7, order)
        assert exponents_along(ui7, order) == reference


def test_peo_exponents_sum_is_edge_count():
    rng = random.Random(15)
    for _ in range(100):
        g = random_graph(6, rng.randint(0, 12), rng)
        exps = peo_exponents(g)
        if exps is not None:
            assert sum(exps) == g.m


def _mcs_by_sort(g):
    """Reference maximum cardinality search: a full scan of the unvisited
    vertices in id order at every step, keeping the first of largest weight."""
    weight = {v: 0 for v in g.vertices}
    order = []
    unvisited = set(g.vertices)
    while unvisited:
        z = max(sorted(unvisited), key=lambda v: weight[v])
        unvisited.remove(z)
        order.append(z)
        for y in g.neighborhood(z):
            if y in unvisited:
                weight[y] += 1
    return order


def _relabeled(g, rng):
    ids = rng.sample(range(3 * g.n + 5), g.n)
    to = dict(zip(g.vertices, ids))
    return Graph(ids, [(to[u], to[v]) for u, v in g.edges])


def test_mcs_order_matches_the_sorted_scan():
    rng = random.Random(61)
    graphs = []
    for _ in range(150):
        n = rng.randint(1, 14)
        graphs.append(random_graph(n, rng.randint(0, n * (n - 1) // 2), rng))
    for _ in range(60):
        graphs.append(random_strongly_chordal(rng.randint(2, 60), rng=rng,
                                              grow_bias=rng.choice((0.3, 0.6, 0.9))))
    graphs += [cycle_graph(9), n_sun(5), complete_graph(12), Graph(range(6))]
    graphs += [_relabeled(g, rng) for g in graphs[:: 3]]
    chordal = 0
    for g in graphs:
        order = _mcs_by_sort(g)
        assert _mcs_order(g) == order
        expected = order if is_peo(g, order) else None
        assert find_peo(g) == expected
        chordal += expected is not None
    assert 90 <= chordal <= len(graphs) - 40  # both kinds are well covered


def _is_peo_by_cliques(g, order):
    """Reference PEO check: every earlier neighborhood is a clique."""
    position = {v: i for i, v in enumerate(order)}
    return all(
        is_clique(g, [u for u in g.neighborhood(v) if position[u] < i])
        for i, v in enumerate(order)
    )


def test_is_peo_matches_the_clique_check():
    rng = random.Random(62)
    seen = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 9)
        if rng.random() < 0.5:
            g = random_strongly_chordal(n, rng=rng, grow_bias=0.7)
        else:
            g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        orders = [rng.sample(g.vertices, g.n) for _ in range(3)]
        peo = random_peo(g, rng)
        if peo is not None:
            orders.append(peo)
        for order in orders:
            got = is_peo(g, order)
            assert got == _is_peo_by_cliques(g, order)
            seen[got] += 1
    assert min(seen.values()) >= 200, seen
