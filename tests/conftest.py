"""Shared fixtures: reference graphs, labelings, and scan corpora.

The 7-vertex unit interval graph below is the repository's main worked
example: its MAT-labeling, clique intersection poset, exponents and
chromatic polynomial are all known, so most modules check against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import pytest

from matlabel import (
    EdgeLabeling,
    Graph,
    build_poset,
    construct_mat_labeling,
    detect_induced_sun,
    find_any_crown,
    is_chordal,
    is_strongly_chordal,
    verify_mat_labeling,
)
from matlabel.oracle import enumerate_graphs

from .brute import brute_force_mat_labeling
from .families import random_graph

UI7_EDGES = [
    (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (2, 5), (3, 4),
    (3, 5), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
]

# a valid reference labeling of the example graph, block sizes (6, 5, 2)
UI7_LABELS = {
    (4, 5): 1, (5, 6): 1, (5, 7): 1, (1, 4): 1, (2, 4): 1, (3, 4): 1,
    (1, 3): 2, (3, 5): 2, (2, 3): 2, (4, 6): 2, (6, 7): 2,
    (1, 2): 3, (2, 5): 3,
}

UI7_POSET_NODES = [
    frozenset(), frozenset({4}), frozenset({5}), frozenset({4, 5}),
    frozenset({5, 6}), frozenset({2, 3, 4}), frozenset({4, 5, 6}),
    frozenset({5, 6, 7}), frozenset({1, 2, 3, 4}), frozenset({2, 3, 4, 5}),
]

UI7_POSET_COVERS = {
    frozenset(): set(),
    frozenset({4}): {frozenset()},
    frozenset({5}): {frozenset()},
    frozenset({4, 5}): {frozenset({4}), frozenset({5})},
    frozenset({5, 6}): {frozenset({5})},
    frozenset({2, 3, 4}): {frozenset({4})},
    frozenset({4, 5, 6}): {frozenset({4, 5}), frozenset({5, 6})},
    frozenset({5, 6, 7}): {frozenset({5, 6})},
    frozenset({1, 2, 3, 4}): {frozenset({2, 3, 4})},
    frozenset({2, 3, 4, 5}): {frozenset({4, 5}), frozenset({2, 3, 4})},
}

UI7_MAXIMAL_CLIQUES = [
    frozenset({4, 5, 6}), frozenset({5, 6, 7}),
    frozenset({1, 2, 3, 4}), frozenset({2, 3, 4, 5}),
]

UI7_EXPONENTS = (0, 1, 2, 2, 2, 3, 3)


@pytest.fixture
def ui7() -> Graph:
    return Graph(range(1, 8), UI7_EDGES)


@pytest.fixture
def ui7_labeling(ui7) -> EdgeLabeling:
    return EdgeLabeling(ui7, UI7_LABELS)


@dataclass
class Facts:
    """Everything the acceptance criteria need to know about one graph."""

    graph: Graph
    chordal: bool
    strongly_chordal: bool
    sun_free: bool
    crown_free: bool | None  # None when no poset exists (not chordal)
    brute: EdgeLabeling | None
    constructed: EdgeLabeling | None


def gather_facts(g: Graph) -> Facts:
    chordal = is_chordal(g)
    sc = is_strongly_chordal(g)
    constructed = construct_mat_labeling(g) if sc else None
    if constructed is not None:
        assert verify_mat_labeling(constructed) is None
    return Facts(
        graph=g,
        chordal=chordal,
        strongly_chordal=sc,
        sun_free=detect_induced_sun(g) is None,
        crown_free=find_any_crown(build_poset(g)) is None if chordal else None,
        brute=brute_force_mat_labeling(g),
        constructed=constructed,
    )


@pytest.fixture(scope="session")
def corpus6_facts() -> list[Facts]:
    """All connected graphs on at most 6 vertices, fully analyzed."""
    out = []
    for n in range(1, 7):
        for g in enumerate_graphs(n, connected=True):
            out.append(gather_facts(g))
    return out


@pytest.fixture(scope="session")
def random78_facts() -> list[Facts]:
    """1000 seeded random graphs on 7 and 8 vertices, fully analyzed.

    Edge counts stay within the brute-force oracle's 18-edge guard
    (16 for 7 vertices, which keeps the near-complete non-chordal family
    out of the routine run; the engine handles it, just slowly).
    """
    rng = random.Random(20240817)
    out = []
    for i in range(1000):
        n = 7 + (i % 2)
        m = rng.randint(n - 1, 16 if n == 7 else 18)
        out.append(gather_facts(random_graph(n, m, rng)))
    return out
