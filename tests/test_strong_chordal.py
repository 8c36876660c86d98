"""Strong chordality: simple vertices, suns, unit interval graphs."""

import random

import pytest

from matlabel import (
    Graph,
    SunWitness,
    build_poset,
    crown_from_sun,
    detect_induced_sun,
    find_any_crown,
    find_induced_subgraph,
    find_simple_elimination_ordering,
    find_sun,
    is_chordal,
    is_simple_vertex,
    is_strongly_chordal,
    is_unit_interval,
    unit_interval_obstruction,
)
from matlabel.arrangement import contract_edge
from matlabel.oracle import enumerate_graphs
from matlabel.strong_chordal import simple_elimination
from matlabel.unit_interval import claw_or_net

from .families import (
    blown_up_net,
    claw,
    complete_graph,
    cycle_graph,
    n_sun,
    net,
    path_graph,
    random_graph,
    random_strongly_chordal,
    rising_sun,
)
from .helpers import add_vertex, band
from .test_construct import _assert_induced_crown


def test_sun_has_no_simple_vertex():
    s = n_sun(3)
    assert not any(is_simple_vertex(s, v) for v in s.vertices)


def test_complete_graph_all_simple():
    k = complete_graph(4)
    assert all(is_simple_vertex(k, v) for v in k.vertices)
    assert find_simple_elimination_ordering(k) is not None


def test_simple_elimination_of_sun_fails():
    assert find_simple_elimination_ordering(n_sun(3)) is None
    assert find_simple_elimination_ordering(n_sun(4)) is None


def test_simple_elimination_residue_keeps_every_sun(ui7):
    assert simple_elimination(ui7) == (find_simple_elimination_ordering(ui7), Graph())
    assert simple_elimination(n_sun(4)) == ([], n_sun(4))
    rng = random.Random(37)
    for _ in range(60):
        host = random_strongly_chordal(rng.randint(1, 14), rng=rng, grow_bias=0.7)
        sun = n_sun(rng.choice([3, 4]))
        old = list(host.vertices) + [-v for v in sun.vertices]
        new = dict(zip(old, rng.sample(range(80), len(old))))
        edges = [(new[u], new[v]) for u, v in host.edges]
        edges += [(new[-u], new[-v]) for u, v in sun.edges]
        edges.append((new[host.vertices[0]], new[-rng.choice(sun.vertices)]))
        g = Graph(new.values(), edges)
        order, residue = simple_elimination(g)
        assert residue == g.induced_subgraph(residue.vertices)
        assert sorted(order + list(residue.vertices)) == list(g.vertices)
        assert {new[-v] for v in sun.vertices} <= residue.vertex_set
        assert detect_induced_sun(residue) == detect_induced_sun(g) is not None


def test_simple_elimination_ordering_is_valid(ui7):
    order = find_simple_elimination_ordering(ui7)
    assert order is not None
    for i in range(len(order), 0, -1):
        prefix = ui7.induced_subgraph(order[:i])
        assert is_simple_vertex(prefix, order[i - 1])


def test_detect_sun_identity_on_sun():
    witness = detect_induced_sun(n_sun(3))
    assert witness is not None
    assert witness.n == 3
    assert witness.inner == (1, 2, 3) and witness.outer == (4, 5, 6)


def test_detect_sun_on_example_none(ui7):
    assert detect_induced_sun(ui7) is None


def test_detect_sun_four():
    witness = detect_induced_sun(n_sun(4))
    assert witness is not None and witness.n == 4
    # the 4-sun contains no induced 3-sun, so the smallest n really is 4
    assert find_induced_subgraph(n_sun(4), n_sun(3)) is None


def test_detect_sun_lexicographically_least_witness():
    # two vertex-disjoint 3-suns; the witness must use the lower ids
    a = n_sun(3)
    b = n_sun(3)
    shifted = Graph(
        [v + 100 for v in b.vertices],
        [(u + 100, v + 100) for u, v in b.edges],
    )
    g = Graph(list(a.vertices) + list(shifted.vertices),
              list(a.edges) + list(shifted.edges))
    w = detect_induced_sun(g)
    assert w.inner == (1, 2, 3) and w.outer == (4, 5, 6)


def _assert_induced_sun(g, w):
    inner, outer = w.inner, w.outer
    assert w.n >= 3 and len(inner) == len(outer) == w.n
    assert len(set(inner) | set(outer)) == 2 * w.n
    assert all(g.has_edge(u, v) for i, u in enumerate(inner) for v in inner[i + 1:])
    for i, v in enumerate(outer):
        assert {u for u in inner + outer if g.has_edge(u, v)} == {
            inner[i], inner[(i + 1) % w.n]}


def test_sun_witness_is_checkable():
    g = add_vertex(n_sun(4), 100, [1, 2, 3, 4])  # bury the sun a little
    for w in (detect_induced_sun(g), find_sun(g)):
        assert w is not None
        _assert_induced_sun(g, w)


def _bridged_suns(rng, k, count):
    """SC hosts with an n_sun(k) on shuffled ids joined by one bridge.

    A sun is 2-connected, so it lies in one block; the host's blocks have
    none, so each graph has exactly one sun.
    """
    for _ in range(count):
        host = random_strongly_chordal(rng.randint(1, 14), rng=rng, grow_bias=0.7)
        sun = n_sun(k)
        old = list(host.vertices) + [-v for v in sun.vertices]
        new = dict(zip(old, rng.sample(range(100), len(old))))
        edges = [(new[u], new[v]) for u, v in host.edges]
        edges += [(new[-u], new[-v]) for u, v in sun.edges]
        edges.append((new[rng.choice(host.vertices)], new[-rng.choice(sun.vertices)]))
        yield Graph(new.values(), edges)


def test_find_sun_and_its_crown(corpus6_facts):
    small = [f.graph for f in corpus6_facts if f.chordal and not f.strongly_chordal]
    rng = random.Random(41)
    bridged = {k: list(_bridged_suns(rng, k, 40)) for k in range(3, 8)}
    graphs = small + [g for k in bridged for g in bridged[k]]
    graphs += [n_sun(k) for k in range(3, 21)]
    assert len(small) > 100
    found = {}
    for g in graphs:
        found[g] = w = find_sun(g)
        _assert_induced_sun(g, w)
        p = build_poset(g)
        _assert_induced_crown(p, crown_from_sun(p.maximal_nodes, w))
    for k in range(3, 6):
        for g in bridged[k]:
            assert found[g] == detect_induced_sun(g)
    for k in range(3, 21):
        assert found[n_sun(k)] == SunWitness(
            k, tuple(range(1, k + 1)), tuple(range(k + 1, 2 * k + 1)))


def test_find_sun_none_exactly_on_strongly_chordal():
    assert find_sun(Graph()) is None
    assert find_sun(rising_sun()) is None
    assert find_sun(contract_edge(rising_sun(), (1, 2))) is not None
    rng = random.Random(42)
    for _ in range(30):
        assert find_sun(random_strongly_chordal(rng.randint(1, 20), rng=rng)) is None


def test_find_sun_on_a_chordless_cycle_is_an_error():
    with pytest.raises(RuntimeError, match="find_sun: .* graph with 5 vertices"):
        find_sun(cycle_graph(5))


def test_crown_from_sun_needs_a_sun_of_the_graph():
    with pytest.raises(ValueError, match="not a sun of the poset's graph"):
        crown_from_sun(build_poset(complete_graph(5)).maximal_nodes, find_sun(n_sun(3)))


def test_is_strongly_chordal_basics():
    assert is_strongly_chordal(claw())
    assert not is_strongly_chordal(n_sun(3))
    assert is_strongly_chordal(rising_sun())
    assert not is_strongly_chordal(contract_edge(rising_sun(), (1, 2)))


def test_strongly_chordal_hereditary():
    rng = random.Random(5)
    for _ in range(30):
        g = random_strongly_chordal(rng.randint(2, 12), rng=rng)
        subset = [v for v in g.vertices if rng.random() < 0.6]
        assert is_strongly_chordal(g.induced_subgraph(subset))


def test_unit_interval():
    assert not is_unit_interval(claw())
    assert not is_unit_interval(net())
    assert not is_unit_interval(n_sun(3))
    assert not is_unit_interval(cycle_graph(5))
    assert is_unit_interval(path_graph(5))
    assert is_unit_interval(complete_graph(6))


def test_example_is_unit_interval(ui7):
    assert is_unit_interval(ui7)
    assert unit_interval_obstruction(ui7) is None


def test_rising_sun_not_unit_interval():
    kind, payload = unit_interval_obstruction(rising_sun())
    assert kind in ("claw", "net")
    assert not is_unit_interval(rising_sun())


def test_unit_interval_implies_strongly_chordal_sampled():
    rng = random.Random(6)
    for _ in range(400):
        n = rng.randint(1, 6)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        ui = is_unit_interval(g)
        sc = is_strongly_chordal(g)
        if ui:
            assert sc
        if sc:
            assert is_chordal(g)


def test_find_induced_subgraph():
    assert find_induced_subgraph(rising_sun(), claw()) is not None
    assert find_induced_subgraph(complete_graph(5), claw()) is None
    hit = find_induced_subgraph(n_sun(3), net())
    # the 3-sun has no induced net: the outer vertices pend off edges
    assert hit is None
    # the search backtracks on a stack, so long patterns do not recurse
    long = path_graph(1100)
    assert find_induced_subgraph(long, long) == {v: v for v in long.vertices}


def proper_interval_graph(n: int, rng: random.Random) -> Graph:
    """A random unit interval graph on 0..n-1: i < j are adjacent iff j is
    at most reach[i], for a non-decreasing reach with reach[i] >= i."""
    reach, edges = 0, []
    for i in range(n):
        reach = min(n - 1, max(reach, i + rng.randint(0, 3)))
        edges += [(i, j) for j in range(i + 1, reach + 1)]
    return Graph(range(n), edges)


def planted_net(rng: random.Random) -> Graph:
    """A claw-free unit interval graph and a blown-up net, disjoint, under a
    seeded relabelling of all vertices."""
    host = proper_interval_graph(rng.randint(0, 12), rng)
    net_part = blown_up_net(rng.randint(1, 3), host.n)
    g = Graph(host.vertices, host.edges + net_part.edges)
    ids = rng.sample(range(4 * g.n), g.n)
    return Graph([ids[v] for v in g.vertices], [(ids[u], ids[v]) for u, v in g.edges])


def test_claw_or_net_is_the_oracles_least_map():
    # the two bitset scans return the least map of the exhaustive search,
    # so classify's witnesses are unchanged
    rng = random.Random(41)
    graphs = [random_strongly_chordal(rng.randint(1, 14), rng=rng, grow_bias=bias)
              for bias in (0.3, 0.6, 0.9) for _ in range(900)]
    planted = [planted_net(rng) for _ in range(400)]
    kinds = []
    for g in graphs + planted:
        want = None
        for kind, pattern in (("claw", claw()), ("net", net())):
            hit = find_induced_subgraph(g, pattern)
            if hit is not None:
                want = (kind, hit)
                break
        assert claw_or_net(g) == want, g
        kinds.append(None if want is None else want[0])
    assert kinds[len(graphs):] == ["net"] * len(planted)
    assert kinds.count("claw") >= 300 and kinds.count(None) >= 300


def test_claw_and_net_scans_visit_a_bounded_number_of_candidates_per_vertex(monkeypatch):
    # each scan draws every candidate from a neighbourhood bitset, so the
    # candidates visited per vertex do not grow with the graph
    from matlabel import unit_interval

    visited = []
    real_bits = unit_interval._bits

    def counting(row):
        for i in real_bits(row):
            visited.append(i)
            yield i

    monkeypatch.setattr(unit_interval, "_bits", counting)

    def per_vertex(g):
        visited.clear()
        assert unit_interval_obstruction(g) is None
        return len(visited) / g.n

    for small, large in ((band(500, 5), band(1000, 5)), (path_graph(1500), path_graph(3000))):
        assert 0 < per_vertex(large) <= 1.5 * per_vertex(small)


def _threeway(g):
    sc = is_strongly_chordal(g)
    via_sun = is_chordal(g) and detect_induced_sun(g) is None
    via_crown = is_chordal(g) and find_any_crown(build_poset(g)) is None
    return sc, via_sun, via_crown


def test_threeway_agreement_exhaustive_small():
    for n in range(7):
        for g in enumerate_graphs(n):
            sc, via_sun, via_crown = _threeway(g)
            assert sc == via_sun == via_crown, g


def test_threeway_agreement_random_sample():
    rng = random.Random(2718)
    for _ in range(10_000):
        n = rng.randint(7, 8)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        sc, via_sun, via_crown = _threeway(g)
        assert sc == via_sun == via_crown, g
