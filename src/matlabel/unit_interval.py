"""The unit interval rung of `classify`: induced claws and nets.

A chordal graph is unit interval iff it has no induced claw, net or 3-sun
(Wegner 1967), and a strongly chordal one has no sun (Farber 1983), so
above the strongly chordal rung only the claw and the net are looked for,
each by one scan of neighbourhood bitsets. Only `classify` loads this.
"""

from __future__ import annotations

from .graph import Graph
from .strong_chordal import strongly_chordal_obstruction


def _bits(row: int):
    """The indices of the set bits of row, ascending."""
    while row:
        low = row & -row
        yield low.bit_length() - 1
        row ^= low


def _least_claw(near: list[int]):
    """(c, a, b, d): for c, then a in N(c), ascending, b is the first vertex
    of R = N(c) - N[a] above a with R - N[b] non-empty, and d the least of
    that. The leaves of the least claw ascend, so no b below a is drawn."""
    for c, row in enumerate(near):
        for a in _bits(row ^ 1 << c):
            rest = row & ~near[a]
            for b in _bits(rest >> a + 1 << a + 1):
                leaves = rest & ~near[b]
                if leaves:
                    return c, a, b, next(_bits(leaves))
    return None


def _least_net(near: list[int]):
    """(a, b, c, x, y, z): the first triangle, for a, b in N(a) above a and
    c in N(a) & N(b) above b ascending, whose corners have private
    neighbours, x in N(a) - N[b] - N[c] and so on, and the least of each.
    The net condition is symmetric in the corners, so the least net's
    corners ascend and each triangle is tested once. In a chordal graph x
    and y are never adjacent, or x a b y would be a chordless 4-cycle."""
    for a, row_a in enumerate(near):
        for b in _bits(row_a >> a + 1 << a + 1):
            row_b = near[b]
            only_a, only_b = row_a & ~row_b, row_b & ~row_a
            if only_a and only_b:
                for c in _bits((row_a & row_b) >> b + 1 << b + 1):
                    row_c = near[c]
                    x, y, z = only_a & ~row_c, only_b & ~row_c, row_c & ~(row_a | row_b)
                    if x and y and z:
                        return (a, b, c) + tuple(next(_bits(s)) for s in (x, y, z))
    return None


def claw_or_net(g: Graph):
    """("claw", map) or ("net", map) for an induced claw or net of g, or None.

    g must be chordal: unit_interval_obstruction calls this only above the
    strongly chordal rung. The claw comes first. A map takes claw centre 1
    and leaves 2, 3, 4, or net triangle 1, 2, 3 and pendants 4, 5, 6 in
    turn, to g, and is the least in ascending vertex order, as
    oracle.find_induced_subgraph's is. The scans read closed neighbourhoods
    as int bitsets, bit i the vertex of rank i.
    """
    verts = g.vertices
    rank = {v: i for i, v in enumerate(verts)}
    near = [sum(1 << rank[u] for u in g[v]) | 1 << i for i, v in enumerate(verts)]
    for kind, scan in (("claw", _least_claw), ("net", _least_net)):
        hit = scan(near)
        if hit is not None:
            return kind, {p: verts[i] for p, i in enumerate(hit, 1)}
    return None


def unit_interval_obstruction(g: Graph):
    """The first rung of unit interval ⊂ strongly chordal ⊂ chordal that g
    fails, strongly_chordal_obstruction(g) else claw_or_net(g), or None
    exactly when g is unit interval: a k-sun with k >= 4 holds a claw, so
    any sun rules g out."""
    return strongly_chordal_obstruction(g) or claw_or_net(g)


def is_unit_interval(g: Graph) -> bool:
    """Chordal with no induced claw, net or sun."""
    return unit_interval_obstruction(g) is None
