"""Property-based tests tying the modules together."""

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from matlabel import (
    EdgeLabeling,
    Graph,
    build_poset,
    construct_mat_labeling,
    exponents_from_labeling,
    find_mat_peo,
    is_mat_simplicial,
    is_strongly_chordal,
    peo_exponents,
    verify_mat_labeling,
)

from .chromatic import contract_edge
from .families import random_strongly_chordal
from .helpers import restrict_edges, with_label

SLOTS6 = list(combinations(range(6), 2))


def graph_from_mask(mask: int) -> Graph:
    edges = [SLOTS6[i] for i in range(len(SLOTS6)) if mask >> i & 1]
    return Graph(range(6), edges)


@given(st.integers(0, 2 ** 15 - 1))
def test_neighborhood_symmetry(mask):
    g = graph_from_mask(mask)
    for u in g.vertices:
        for v in g.neighborhood(u):
            assert u in g.neighborhood(v)


@given(st.integers(0, 2 ** 15 - 1), st.sets(st.integers(0, 5)))
def test_induced_subgraph_monotone(mask, subset):
    g = graph_from_mask(mask)
    smaller = g.induced_subgraph(subset)
    assert set(smaller.edges) <= set(g.edges)
    assert g.induced_subgraph(g.vertex_set) == g


@given(st.integers(0, 2 ** 15 - 1), st.integers(0, 14))
def test_contract_keeps_graph_simple(mask, which):
    g = graph_from_mask(mask)
    if not g.edges:
        return
    e = g.edges[which % len(g.edges)]
    c = contract_edge(g, e)
    assert all(u != v for u, v in c.edges)
    assert c.n == g.n - 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 16))
def test_construct_verifies_on_random_strongly_chordal(seed, n):
    g = random_strongly_chordal(n, seed=seed)
    lab = construct_mat_labeling(g)
    assert verify_mat_labeling(lab) is None
    assert find_mat_peo(lab) is not None


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 14))
def test_strong_chordality_hereditary(seed, n):
    rng = random.Random(seed)
    g = random_strongly_chordal(n, rng=rng)
    subset = [v for v in g.vertices if rng.random() < 0.5]
    assert is_strongly_chordal(g.induced_subgraph(subset))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 12))
def test_dual_partition_matches_peo_exponents(seed, n):
    g = random_strongly_chordal(n, seed=seed)
    lab = construct_mat_labeling(g)
    assert exponents_from_labeling(lab) == peo_exponents(g)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 12))
def test_restriction_to_poset_nodes_valid(seed, n):
    g = random_strongly_chordal(n, seed=seed)
    lab = construct_mat_labeling(g)
    for node in build_poset(g).nodes:
        assert verify_mat_labeling(lab.restrict_vertices(node)) is None


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(3, 12))
def test_union_of_valid_node_restrictions_valid(seed, n):
    rng = random.Random(seed)
    g = random_strongly_chordal(n, rng=rng)
    lab = construct_mat_labeling(g)
    nodes = build_poset(g).nodes
    x = rng.choice(nodes)
    y = rng.choice(nodes)
    edges_x = set(g.induced_subgraph(x).edges)
    edges_y = set(g.induced_subgraph(y).edges)
    assert verify_mat_labeling(restrict_edges(lab, edges_x | edges_y)) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 12))
def test_removing_mat_simplicial_vertex_keeps_validity(seed, n):
    g = random_strongly_chordal(n, seed=seed)
    lab = construct_mat_labeling(g)
    simplicials = [v for v in g.vertices if is_mat_simplicial(lab, v)]
    assert simplicials
    for v in simplicials[:3]:
        rest = lab.restrict_vertices(g.vertex_set - {v})
        assert verify_mat_labeling(rest) is None


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 12))
def test_valid_labelings_have_mat_simplicial_vertices(seed, n):
    rng = random.Random(seed)
    g = random_strongly_chordal(n, rng=rng)
    lab = construct_mat_labeling(g)
    complete = g.m == g.n * (g.n - 1) // 2
    if complete:
        # both endpoints of the top-label edge qualify
        (u, v), _ = max(lab.items(), key=lambda item: item[1])
        assert is_mat_simplicial(lab, u) and is_mat_simplicial(lab, v)
    else:
        simplicials = [v for v in g.vertices if is_mat_simplicial(lab, v)]
        assert any(
            not g.has_edge(a, b)
            for a in simplicials for b in simplicials if a < b
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_verifier_matches_mat_peo_search_on_arbitrary_labelings(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 6)
    slots = list(combinations(range(n), 2))
    g = Graph(range(n), rng.sample(slots, rng.randint(0, len(slots))))
    lab = EdgeLabeling(g, {e: rng.randint(1, n) for e in g.edges})
    assert (verify_mat_labeling(lab) is None) == (find_mat_peo(lab) is not None)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_verifier_matches_mat_peo_search_on_mutations(seed):
    rng = random.Random(seed)
    g = random_strongly_chordal(rng.randint(2, 10), rng=rng)
    lab = construct_mat_labeling(g)
    if g.m == 0:
        return
    (u, v), old = rng.choice(lab.items())
    candidates = [k for k in range(1, lab.max_label + 2) if k != old]
    mutant = with_label(lab, u, v, rng.choice(candidates))
    assert (verify_mat_labeling(mutant) is None) == (find_mat_peo(mutant) is not None)
