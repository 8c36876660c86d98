"""Graph value semantics and primitive operations."""

from enum import IntEnum

import pytest

from matlabel import Graph, canonical_edge, is_strongly_chordal
from matlabel.oracle import find_embedding

from .chromatic import components, contract_edge
from .families import claw, complete_graph, n_sun, path_graph, rising_sun
from .helpers import add_vertex, is_clique


def test_canonical_edge():
    assert canonical_edge(5, 2) == (2, 5)
    assert canonical_edge(2, 5) == (2, 5)
    with pytest.raises(ValueError):
        canonical_edge(3, 3)


def test_construction_and_sorted_outputs():
    g = Graph([9, 1], [(5, 3), (9, 3)])
    assert g.vertices == (1, 3, 5, 9)
    assert g.edges == ((3, 5), (3, 9))
    assert g.m == 2 and g.n == 4


def test_vertex_id_validation():
    with pytest.raises(ValueError):
        Graph([-1])
    with pytest.raises(ValueError):
        Graph(["a"])


class Id(IntEnum):
    THREE = 3


@pytest.mark.parametrize("endpoint, ok", [(True, False), (-1, False), (Id.THREE, True)])
def test_vertex_ids_off_the_fast_path(endpoint, ok):
    # bools and negative ids are rejected, int subclasses other than bool
    # are kept as they are
    for make in (lambda: Graph([endpoint]), lambda: Graph.from_edges([(endpoint, 7)]),
                 lambda: Graph.from_edges([(7, endpoint)])):
        if ok:
            assert endpoint in make().vertices
        else:
            with pytest.raises(ValueError) as err:
                make()
            assert str(err.value) == (
                f"vertex ids must be nonnegative integers, got {endpoint!r}")


def test_induced_subgraph_triangle():
    tri = complete_graph(3)
    assert tri.induced_subgraph({1, 2}).edges == ((1, 2),)
    null = tri.induced_subgraph(())
    assert null.n == 0 and null.m == 0


def test_induced_subgraph_sun_core():
    # the central vertices of the 3-sun induce a triangle
    assert n_sun(3).induced_subgraph({1, 2, 3}) == complete_graph(3)


def test_induced_subgraph_unknown_vertex():
    with pytest.raises(ValueError):
        complete_graph(3).induced_subgraph({1, 9})


def test_induced_subgraph_identity_and_monotonicity():
    g = rising_sun()
    assert g.induced_subgraph(g.vertex_set) == g
    small = set(g.induced_subgraph({1, 2, 3}).edges)
    big = set(g.induced_subgraph({1, 2, 3, 4}).edges)
    assert small <= big


def test_delete_vertex():
    assert complete_graph(3).delete_vertex(3) == complete_graph(2)
    p = path_graph(3).delete_vertex(2)
    assert p.m == 0 and p.vertices == (1, 3)
    with pytest.raises(ValueError):
        path_graph(3).delete_vertex(7)


def test_delete_outer_vertex_of_rising_sun_stays_strongly_chordal():
    g = rising_sun()
    for v in (5, 6, 7):  # the degree-2 outer vertices
        assert g.degree(v) == 2
        assert is_strongly_chordal(g.delete_vertex(v))


def test_neighborhood():
    g = complete_graph(4)
    assert g.neighborhood(2) == {1, 3, 4}
    assert claw().neighborhood(1) == {2, 3, 4}
    assert Graph([5]).neighborhood(5) == frozenset()
    with pytest.raises(ValueError):
        g.neighborhood(99)


def test_neighborhood_symmetry():
    g = rising_sun()
    for u in g.vertices:
        for v in g.neighborhood(u):
            assert u in g.neighborhood(v)


def test_is_clique():
    s = n_sun(3)
    assert is_clique(s, {1, 2, 3})
    assert not is_clique(s, {4, 5})
    assert is_clique(s, {4})
    assert is_clique(s, ())


def test_contract_edge():
    k2 = complete_graph(2)
    single = contract_edge(k2, (1, 2))
    assert single.n == 1 and single.m == 0
    assert contract_edge(complete_graph(3), (2, 3)) == complete_graph(2)
    with pytest.raises(ValueError):
        contract_edge(path_graph(3), (1, 3))


def test_contract_rising_sun_marked_edge_gives_sun():
    contracted = contract_edge(rising_sun(), (1, 2))
    # relabel to check isomorphism with the standard 3-sun layout
    assert contracted.n == 6 and contracted.m == 9
    assert is_clique(contracted, {1, 3, 4})
    for outer, inner in ((5, {1, 3}), (6, {3, 4}), (7, {1, 4})):
        assert contracted.neighborhood(outer) == inner


def test_contract_no_loops_or_duplicates():
    g = complete_graph(4)
    c = contract_edge(g, (1, 2))
    assert all(u != v for u, v in c.edges)
    assert len(c.edges) == len(set(c.edges))
    assert c == complete_graph(3, vertices=[1, 3, 4])


def test_components_and_connectivity():
    g = Graph([1, 2, 3, 4, 9], [(1, 2), (3, 4)])
    assert components(g) == (frozenset({9}), frozenset({1, 2}), frozenset({3, 4}))
    assert not len(components(g)) <= 1
    assert len(components(path_graph(4))) <= 1
    assert len(components(Graph())) <= 1


def test_value_semantics():
    a = Graph([1, 2], [(1, 2)])
    b = Graph.from_edges([(2, 1)])
    assert a == b and hash(a) == hash(b)
    assert a != Graph([1, 2, 3], [(1, 2)])


def test_add_vertex():
    g = add_vertex(path_graph(2), 3, [2])
    assert g == path_graph(3)
    with pytest.raises(ValueError):
        add_vertex(g, 3, [1])
    with pytest.raises(ValueError):
        add_vertex(g, 9, [77])


def test_find_embedding_order_and_backtracking():
    less = {v: {u: v < u for u in range(1, 6)} for v in range(1, 6)}.__getitem__

    def each(*vs):
        return lambda image: vs

    # 3 is tried first but nothing lies above it, so the search backtracks
    assert find_embedding(each(3, 1, 2), [(), (True,)], less) == [1, 3]
    assert find_embedding(each(3, 1, 2), [(), (True,), (True, True)], less) == [1, 2, 3]
    assert find_embedding(each(1, 2), [(), (True,), (True, True)], less) is None
    assert find_embedding(each(1, 2), [], less) == []
    # candidates are used at most once even when the relation allows repeats
    assert find_embedding(each(5), [(), (False,)], less) is None


def test_find_embedding_takes_candidates_per_position():
    less = {v: {u: v < u for u in range(1, 6)} for v in range(1, 6)}.__getitem__
    seen = []

    def above_the_last(image):
        seen.append(tuple(image))
        return range(image[-1] + 1, 6) if image else (3, 1)

    # each position is offered only the candidates above the image before it
    assert find_embedding(above_the_last, [(), (True,), (True, True)], less) == [3, 4, 5]
    assert seen == [(), (3,), (3, 4)]
    assert find_embedding(above_the_last, [(), (True,), (True, True), (True,) * 3],
                          less) == [1, 2, 3, 4]
