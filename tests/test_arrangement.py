"""Exponents, chromatic polynomials, factorization identities."""

import random
import time

import pytest

from matlabel import (
    EdgeLabeling,
    Graph,
    check_terao_factorization,
    chromatic_polynomial,
    construct_mat_labeling,
    exponents_from_labeling,
    is_chordal,
    maximal_cliques,
    peo_exponents,
)
from matlabel import arrangement
from matlabel.poset import NotChordalError

from . import chromatic
from .families import (
    complete_graph,
    cycle_graph,
    enumerate_graphs,
    height_labeling_complete,
    path_graph,
    random_graph,
    random_strongly_chordal,
)
from .helpers import add_vertex, degree, evaluate, from_roots, product


def test_polynomial_basics():
    # the reference's arithmetic against the tests' own
    p = chromatic._product(chromatic._product((0, 1), (-1, 1)), (-2, 1))
    assert p == (0, 2, -3, 1)  # t(t-1)(t-2) = t^3 - 3t^2 + 2t
    assert p == from_roots([0, 1, 2]) and degree(p) == 3
    assert evaluate(p, 3) == 6 and evaluate(p, 1) == 0
    assert from_roots([]) == (1,)
    assert chromatic._product((0, 1), (0, 1)) == (0, 0, 1) == product((0, 1), (0, 1))
    assert chromatic._product((2, 1), ()) == () and degree(()) == -1
    assert chromatic._trim((1, 0, 0)) == (1,)  # trailing zeros trimmed
    assert chromatic._trim((0, 0)) == ()


def test_exponents_from_labeling(ui7_labeling):
    assert exponents_from_labeling(ui7_labeling) == (0, 1, 2, 2, 2, 3, 3)
    assert exponents_from_labeling(height_labeling_complete(4)) == (0, 1, 2, 3)


def test_exponents_forest_pattern():
    g = add_vertex(path_graph(5), 9)  # 4 edges, 6 vertices
    lab = EdgeLabeling(g, {e: 1 for e in g.edges})
    assert exponents_from_labeling(lab) == (0, 0, 1, 1, 1, 1)


def test_exponents_rejects_invalid():
    bad = EdgeLabeling(complete_graph(3), {e: 1 for e in complete_graph(3).edges})
    with pytest.raises(ValueError):
        exponents_from_labeling(bad)


def test_chromatic_complete():
    for ell in (1, 3, 5):
        expected = from_roots(range(ell))
        assert chromatic_polynomial(complete_graph(ell)) == expected
        assert chromatic.deletion_contraction(complete_graph(ell)) == expected
    assert chromatic_polynomial(Graph()) == (1,) == chromatic.deletion_contraction(Graph())


def test_chromatic_example_cross_check(ui7):
    via_peo = from_roots(peo_exponents(ui7))
    via_dc = chromatic.deletion_contraction(ui7)
    assert via_peo == via_dc == chromatic_polynomial(ui7)
    assert via_peo == from_roots([0, 1, 2, 2, 2, 3, 3])


def test_chromatic_edgeless_and_cycle():
    assert chromatic_polynomial(Graph(range(4))) == (0, 0, 0, 0, 1)
    assert chromatic.deletion_contraction(Graph(range(4))) == (0, 0, 0, 0, 1)
    # C4: t(t-1)(t^2 - 3t + 3)
    c4 = chromatic.deletion_contraction(cycle_graph(4))
    expected = product((0, 1), (-1, 1), (3, -3, 1))
    assert c4 == expected
    assert evaluate(c4, 2) == 2  # two proper 2-colorings


def test_chromatic_cross_check_random():
    rng = random.Random(71)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        dc = chromatic.deletion_contraction(g)
        exps = peo_exponents(g)
        assert exps is None or dc == from_roots(exps) == chromatic_polynomial(g)
        assert evaluate(dc, 3) == _count_colorings(g, 3)


def _count_colorings(g, t):
    count = 0
    verts = g.vertices

    def go(i, assignment):
        nonlocal count
        if i == len(verts):
            count += 1
            return
        v = verts[i]
        for c in range(t):
            if all(assignment.get(u) != c for u in g.neighborhood(v)):
                assignment[verts[i]] = c
                go(i + 1, assignment)
                del assignment[verts[i]]

    go(0, {})
    return count


def test_chromatic_guards():
    # a chordal graph's polynomial is its PEO product, at any size; a graph
    # that is not chordal has no free arrangement, and no answer here
    for g in (path_graph(13), path_graph(40), complete_graph(30)):
        start = time.perf_counter()
        poly = chromatic_polynomial(g)
        assert time.perf_counter() - start < 1.0
        assert poly == from_roots(peo_exponents(g))
    assert evaluate(chromatic_polynomial(path_graph(40)), 2) == 2
    for g in (cycle_graph(4), cycle_graph(13)):
        with pytest.raises(NotChordalError):
            chromatic_polynomial(g)
        with pytest.raises(NotChordalError):
            check_terao_factorization(g, [0] * g.n)
    # the reference keeps its guard
    with pytest.raises(ValueError, match="guarded at 12 vertices"):
        chromatic.deletion_contraction(path_graph(13))


def _random_chordal(n, rng):
    """A chordal graph on 1..n: each vertex joins a clique of the earlier
    ones, so the vertex order is a PEO. The clique grows from a random
    earlier vertex through its neighbours, each kept with probability 1/2."""
    adj = {}
    for v in range(1, n + 1):
        clique = []
        if adj and rng.random() < 0.9:
            x = rng.choice(sorted(adj))
            clique = [x]
            for u in rng.sample(sorted(adj[x]), len(adj[x])):
                if rng.random() < 0.5 and all(w in adj[u] for w in clique):
                    clique.append(u)
        adj[v] = set(clique)
        for u in clique:
            adj[u].add(v)
    return Graph(adj, [(u, v) for v in adj for u in adj[v] if u < v])


def test_the_peo_product_is_the_expanded_polynomial():
    # every connected chordal graph on at most 6 vertices, and 200 seeded
    # random chordal graphs on 7 to 12; the reference reads no PEO
    graphs = [g for n in range(1, 7) for g in enumerate_graphs(n, is_chordal, connected=True)]
    rng = random.Random(43)
    graphs += [_random_chordal(rng.randint(7, 12), rng) for _ in range(200)]
    assert len(graphs) == 13_884 + 200 and all(map(is_chordal, graphs[-200:]))
    memo = {}
    wrong = [g for g in graphs
             if chromatic_polynomial(g) != chromatic.deletion_contraction(g, memo)]
    assert wrong == []


def test_terao_factorization(ui7):
    assert check_terao_factorization(ui7, (0, 1, 2, 2, 2, 3, 3))
    assert check_terao_factorization(complete_graph(4), (0, 1, 2, 3))
    assert not check_terao_factorization(complete_graph(3), (0, 1, 1))


def _expanded_chromatic(g):
    """The reference's chromatic polynomial: by deletion-contraction within
    its 12-vertex guard, and as the expanded product along a PEO on larger
    chordal graphs."""
    if g.n <= 12:
        return chromatic.deletion_contraction(g)
    return from_roots(peo_exponents(g))


def _exponent_lists(exps, rng):
    """The list itself shuffled, each entry off by one, two entries moved
    one apart (same sum and length), and one entry dropped or repeated."""
    lists = [rng.sample(list(exps), len(exps))]
    for i in range(len(exps)):
        for step in (-1, 1):
            off = list(exps)
            off[i] += step
            lists.append(off)
    if len(exps) >= 2:
        i, j = rng.sample(range(len(exps)), 2)
        moved = list(exps)
        moved[i] += 1
        moved[j] -= 1
        lists.append(moved)
    if exps:
        lists.append(list(exps)[1:])
        lists.append(list(exps) + [rng.choice(exps)])
    return lists


def test_factorization_check_matches_the_expanded_identity():
    rng = random.Random(83)
    seen = {True: 0, False: 0, "not chordal": 0}
    graphs = [random_strongly_chordal(rng.randint(1, 16), rng=rng,
                                      grow_bias=rng.choice((0.4, 0.8)))
              for _ in range(40)]
    graphs += [random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
               for n in (rng.randint(1, 7) for _ in range(40))]
    graphs += [Graph(), cycle_graph(5), complete_graph(6)]
    for g in graphs:
        exps = peo_exponents(g)
        chordal = exps is not None
        if not chordal:  # degree counts are the wrong roots
            exps = tuple(sorted(g.degree(v) // 2 for v in g.vertices))
        chi = _expanded_chromatic(g) if chordal else None  # expanded on both sides
        for candidate in _exponent_lists(exps, rng):
            if not chordal:  # no free arrangement: the check has no answer
                with pytest.raises(NotChordalError):
                    check_terao_factorization(g, candidate)
                seen["not chordal"] += 1
                continue
            got = check_terao_factorization(g, candidate)
            assert got == (chi == from_roots(candidate))
            seen[got] += 1
    assert seen[True] >= 40 and seen[False] >= 500 and seen["not chordal"] >= 20, seen


def _exponent_mismatches(seed):
    """The sampled strongly chordal graphs, on at most 12 vertices, whose
    constructed labeling's exponents fail the factorization check or are
    not the roots of the chromatic polynomial expanded by
    deletion-contraction, which reads neither a PEO nor that check. The
    check and the labeling's exponents are looked up in arrangement at
    each call, so that a test can replace them."""
    rng = random.Random(seed)
    mismatches = []
    for _ in range(60):
        g = random_strongly_chordal(rng.randint(2, 12), rng=rng,
                                    grow_bias=rng.choice((0.4, 0.6, 0.8)))
        exps = arrangement.dual_partition_exponents(construct_mat_labeling(g))
        if not (arrangement.check_terao_factorization(g, exps)
                and chromatic.deletion_contraction(g) == from_roots(exps)):
            mismatches.append(g)
    return mismatches


def test_constructed_exponents_factor_the_expanded_chromatic_polynomial():
    assert _exponent_mismatches(5) == []


def test_the_expanded_identity_does_not_trust_the_factorization_shortcut(monkeypatch):
    # a shortcut that accepts wrong exponents is caught by the expanded identity
    monkeypatch.setattr(arrangement, "check_terao_factorization", lambda g, exponents: True)
    monkeypatch.setattr(arrangement, "dual_partition_exponents",
                        lambda lab: (0,) * lab.graph.n)
    assert _exponent_mismatches(5)


def test_the_expanded_identity_does_not_read_a_peo(monkeypatch):
    # a fault in the PEO exponents that the checked list shares is still
    # caught: deletion-contraction never reads a PEO
    monkeypatch.setattr(arrangement, "exponents_along", lambda g, order: (0,) * g.n)
    monkeypatch.setattr(arrangement, "dual_partition_exponents",
                        lambda lab: (0,) * lab.graph.n)
    assert _exponent_mismatches(5)


def test_max_exponent_counts_largest_cliques():
    rng = random.Random(79)
    for _ in range(30):
        g = random_strongly_chordal(rng.randint(2, 12), rng=rng,
                                    grow_bias=0.7)
        if g.m == 0:
            continue
        exps = peo_exponents(g)
        cliques = maximal_cliques(g)
        omega = max(len(c) for c in cliques)
        largest = sum(1 for c in cliques if len(c) == omega)
        assert max(exps) == omega - 1
        assert exps.count(omega - 1) == largest
        assert sum(exps) == g.m
