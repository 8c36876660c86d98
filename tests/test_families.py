"""The seeded generators of the test suite's graph families."""

import random

import pytest

from matlabel import Graph, is_simple_vertex, is_strongly_chordal

from .families import path_graph, random_graph, random_strongly_chordal
from .helpers import add_vertex


def _grown_by_add_vertex(n, rng, grow_bias=0.6):
    """Reference generator: the same draws, with every attempt built as a new
    Graph by add_vertex and tested there."""
    if n == 0:
        return Graph()
    g = Graph([1])
    for v in range(2, n + 1):
        placed = None
        for _ in range(30):
            anchor = rng.choice(g.vertices)
            clique = {anchor}
            pool = set(g.neighborhood(anchor))
            while pool and rng.random() < grow_bias:
                w = rng.choice(sorted(pool))
                clique.add(w)
                pool &= g.neighborhood(w)
            candidate = add_vertex(g, v, clique)
            if is_simple_vertex(candidate, v):
                placed = candidate
                break
        if placed is None:
            placed = add_vertex(g, v, [rng.choice(g.vertices)])
        g = placed
    assert is_strongly_chordal(g)
    return g


def test_random_strongly_chordal_matches_the_rebuilding_generator():
    cases = [(n, seed, 0.6) for seed in range(120) for n in (0, 1, 2, 5, 9, 14)]
    cases += [(n, n, bias) for n in (60, 150, 300) for bias in (0.3, 0.6, 0.9, 0.97)]
    for n, seed, bias in cases:
        rng, ref_rng = random.Random(seed), random.Random(seed)
        g = random_strongly_chordal(n, rng=rng, grow_bias=bias)
        assert g == _grown_by_add_vertex(n, ref_rng, bias), (n, seed, bias)
        assert rng.getstate() == ref_rng.getstate(), (n, seed, bias)
        assert g == random_strongly_chordal(n, seed=seed, grow_bias=bias)


def test_random_strongly_chordal_grows_without_add_vertex(monkeypatch):
    # add_vertex copies every edge into a new Graph, so a Graph per attempt
    # is quadratic; the generator grows one dict and builds one Graph
    from . import families

    built = []

    def counting(*args):
        built.append(args)
        return Graph(*args)

    g = random_strongly_chordal(40, seed=3)
    monkeypatch.setattr(families, "Graph", counting)
    assert random_strongly_chordal(40, seed=3) == g
    assert len(built) == 1


@pytest.mark.parametrize("make", [
    path_graph,
    lambda n: random_graph(n, 0, random.Random(0)),
    lambda n: random_strongly_chordal(n, seed=0),
], ids=["path_graph", "random_graph", "random_strongly_chordal"])
def test_generators_reject_a_negative_size_and_give_the_empty_graph_at_zero(make):
    assert make(0) == Graph()
    for n in (-1, -3):
        with pytest.raises(ValueError, match=f"{n} vertices"):
            make(n)
