"""Strong chordality recognition and forbidden-structure detection.

A graph is strongly chordal when it is chordal and contains no induced
n-sun for any n >= 3. The recognizer runs in polynomial time by greedily
eliminating simple vertices, and a rejection's sun is read off a
vertex-minimal elimination residue, also in polynomial time (the
witness module holds the read-off, loaded only on a rejection). The
exhaustive sun search is an oracle (matlabel.oracle), and the unit
interval rung above this one is matlabel.unit_interval.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .chordal import find_chordless_cycle, find_peo
from .graph import Graph, peel

if TYPE_CHECKING:  # a witness is built only on a rejection
    from .witness import SunWitness


def is_simple_vertex(g: Graph, v: int) -> bool:
    """True iff the closed neighborhoods of N[v] form an inclusion chain.

    Simple vertices are in particular simplicial, so N[v] is the least link
    of the chain and the others follow in degree order; for adjacent x and
    u, N[x] <= N[u] iff N(x) - N(u) is {u}. Simplicity is hereditary, and
    greedy removal of simple vertices succeeds exactly on strongly chordal
    graphs. g may also be graph.peel's adjacency dict.
    """
    below = v
    for u in sorted(g[v], key=lambda u: len(g[u])):
        if g[below] - g[u] != {u}:
            return False
        below = u
    return True


def simple_elimination(g: Graph) -> tuple[list[int], Graph]:
    """Greedy simple elimination: (the ordering found, the stuck residue).

    graph.peel removes the smallest simple vertex while there is one; the
    ordering lists the removed vertices, last first. Strong chordality is
    hereditary and gives a simple vertex at every step, so the residue is
    empty exactly when g is strongly chordal. It keeps every induced sun of
    g, since no sun vertex is ever simple in a graph containing the sun.
    """
    removal, left = peel(g, is_simple_vertex)
    return removal[::-1], g.induced_subgraph(left)


def find_simple_elimination_ordering(g: Graph) -> list[int] | None:
    """Ordering (v_1, ..., v_l) with v_i simple in g[{v_1..v_i}], or None."""
    order, residue = simple_elimination(g)
    return None if residue.n else order


def is_strongly_chordal(g: Graph) -> bool:
    return find_simple_elimination_ordering(g) is not None


def find_sun(g: Graph) -> SunWitness | None:
    """An induced sun of a chordal graph, or None exactly when g is strongly
    chordal.

    Starts from the residue R of simple_elimination(g) and visits each of
    its vertices v in ascending order: if v is still in R and the residue
    of R - v is not empty, that residue becomes R. At the end R - v is
    strongly chordal for every v in R, because it is an induced subgraph of
    the R' - v seen when v was visited and strong chordality is hereditary.
    A vertex-minimal chordal graph that is not strongly chordal is a sun
    (Farber 1983), so R is one. Its inner vertices have degree k + 1 and
    its outer ones degree 2; the witness is the least of the sun's 2k
    dihedral images, which starts at the least inner vertex and goes on to
    its smaller cyclic neighbour. That is detect_induced_sun's witness when
    g has a single sun. Costs O(|R|) simple eliminations after the first.

    Raises RuntimeError when R is not a sun, which happens only when g is
    not chordal (R is then, for example, a chordless cycle).
    """
    residue = simple_elimination(g)[1]
    if not residue.n:
        return None
    from .witness import _sun_on

    for v in residue.vertices:
        if residue.has_vertex(v):
            smaller = simple_elimination(residue.delete_vertex(v))[1]
            if smaller.n:
                residue = smaller
    sun = _sun_on(residue)
    if sun is None:
        raise RuntimeError(f"find_sun: the minimal residue of a graph with {g.n} "
                           f"vertices is not a sun ({residue.n} vertices)")
    return sun


def strongly_chordal_obstruction(g: Graph):
    """The first rung of strongly chordal ⊂ chordal that g fails, or None
    exactly when g is strongly chordal.

    ("chordless-cycle", vertices) when g is not chordal, else ("sun",
    SunWitness) when g has an induced sun (Farber 1983). It runs one MCS
    pass, which Graph caches for maximal_cliques, and find_sun.
    """
    if find_peo(g) is None:
        return ("chordless-cycle", find_chordless_cycle(g))
    sun = find_sun(g)
    return None if sun is None else ("sun", sun)


def __getattr__(name):
    # clibench/layers.py spans these under this module: the exhaustive sun
    # and pattern searches, and classify's unit interval rung
    if name in ("detect_induced_sun", "find_induced_subgraph"):
        from . import oracle
        return getattr(oracle, name)
    if name == "unit_interval_obstruction":
        from . import unit_interval
        return unit_interval.unit_interval_obstruction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
