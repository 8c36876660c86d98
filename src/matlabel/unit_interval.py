"""The unit interval rung of `classify`: induced claws and nets.

A chordal graph is unit interval iff it has no induced claw, net or 3-sun
(Wegner 1967), and a strongly chordal one has no sun (Farber 1983), so
above the strongly chordal rung only the claw and the net are searched
for. `classify` and the oracles load this module; the other commands
never compile it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .graph import Graph
from .strong_chordal import strongly_chordal_obstruction


def find_embedding(candidates: Callable[[list], Iterable], pattern: Sequence[Sequence],
                   relation: Callable) -> list | None:
    """First placement of the pattern's positions on distinct candidates, or None.

    `candidates(image)` lists, in order, the candidates of the next
    position, len(image), given the images of the earlier positions; the
    search calls it each time it reaches that position and must not keep
    or change the list it is handed. `relation(x)` returns the row of
    candidate x, indexable by candidate: `relation(x)[v]` is how x relates
    to v. `pattern[i]` lists, for each earlier position j < i, the value
    the row of image[j] must hold at image[i]. Positions are placed in
    order, each trying its candidates in the given order, and the search
    backtracks on an explicit stack rather than by recursion, so the result
    is the least image list in candidate order. A row is built once per
    placement. Exponential in the worst case.
    """
    size = len(pattern)
    if not size:
        return []
    image: list = []
    rows: list = []
    used: set = set()
    stack = [iter(candidates(image))]
    while stack:
        want = pattern[len(image)]
        for v in stack[-1]:
            if v in used:
                continue
            for row, w in zip(rows, want):
                if row[v] != w:
                    break
            else:
                image.append(v)
                if len(image) == size:
                    return image
                rows.append(relation(v))
                used.add(v)
                stack.append(iter(candidates(image)))
                break
        else:
            stack.pop()
            if image:
                used.discard(image.pop())
                rows.pop()
    return None


def find_induced_subgraph(g: Graph, pattern: Graph) -> dict[int, int] | None:
    """Injective map from pattern vertices to g realizing pattern as an
    induced subgraph, or None.

    A find_embedding over the vertices of g in ascending order:
    pattern vertices are placed in ascending order, each on the smallest
    vertex of g with exactly the pattern's adjacencies to the vertices
    already placed, so the map is the least one in that order. A pattern
    vertex with an earlier neighbour in the pattern draws its candidates
    from the ascending neighbourhood of the image of the first such
    neighbour: that drops only vertices that fail the adjacency test, so
    the least map is the same, and a connected pattern scans all of g only
    for its first vertex. Rows are adjacency bytes over vertex indices.
    Exponential in the worst case.
    """
    pverts, verts = pattern.vertices, g.vertices
    index = {v: i for i, v in enumerate(verts)}
    nbrs = [sorted(index[u] for u in g.neighborhood(v)) for v in verts]

    def adjacency(i):
        row = bytearray(len(verts))
        for j in nbrs[i]:
            row[j] = 1
        return row

    want = [tuple(int(pattern.has_edge(p, q)) for q in pverts[:i])
            for i, p in enumerate(pverts)]
    anchor = [w.index(1) if 1 in w else None for w in want]

    def candidates(image):
        a = anchor[len(image)]
        return range(len(verts)) if a is None else nbrs[image[a]]

    image = find_embedding(candidates, want, adjacency)
    return None if image is None else {p: verts[i] for p, i in zip(pverts, image)}


def claw() -> Graph:
    """K_{1,3}: center 1 with leaves 2, 3, 4."""
    return Graph.from_edges([(1, 2), (1, 3), (1, 4)])


def net() -> Graph:
    """Triangle 1-2-3 with a pendant vertex on each corner."""
    return Graph.from_edges([(1, 2), (1, 3), (2, 3), (1, 4), (2, 5), (3, 6)])


def claw_or_net(g: Graph):
    """("claw", map) or ("net", map) for an induced claw or net, or None.

    The claw is searched for first; each map is find_induced_subgraph's
    least one. A strongly chordal graph has no sun (Farber 1983), so it is
    unit interval exactly when this returns None.
    """
    for kind, pattern in (("claw", claw()), ("net", net())):
        hit = find_induced_subgraph(g, pattern)
        if hit is not None:
            return kind, hit
    return None


def unit_interval_obstruction(g: Graph):
    """The first rung of unit interval ⊂ strongly chordal ⊂ chordal that g
    fails, or None exactly when g is unit interval.

    strongly_chordal_obstruction(g), else claw_or_net(g). A chordal graph
    is unit interval iff it has no induced claw, net or 3-sun (Wegner
    1967), and a k-sun with k >= 4 holds a claw, so any sun rules g out.
    """
    return strongly_chordal_obstruction(g) or claw_or_net(g)


def is_unit_interval(g: Graph) -> bool:
    """Chordal with no induced claw, net or sun."""
    return unit_interval_obstruction(g) is None
