"""Exhaustive search for MAT-labelings, independent of the constructor.

Backtracks over label assignments with ascending label values. The forest
and closure conditions (ML1, ML2) are kept by flat per-level component
arrays: an unassigned edge's floor lies above every level at which its
ends are already joined, and each assignment checks, before it merges two
components, that the merged block spans no edge of an earlier label. The
count condition (ML3) is kept by one options pass per step: from each
edge's floor and cap it keeps the labels whose triangle counts the other
edges' bounds still allow, with no fixpoint loop and no global budget.
Edges left with a single option are assigned immediately; forced values
belong to every valid completion, so with canonical branching the first
complete assignment found is the lexicographically least valid labeling.
Serves as the existence oracle against which the polynomial-time
recognizer and the constructor are cross-checked.
"""

from __future__ import annotations

from matlabel.graph import Graph
from matlabel.labeling import EdgeLabeling


class _Search:
    def __init__(self, g: Graph, max_label: int):
        self.max_label = max_label
        index = {v: i for i, v in enumerate(g.vertices)}
        self.gedges = g.edges
        self.edges = [(index[u], index[v]) for u, v in self.gedges]
        self.m = len(self.edges)
        eid = {}
        # incident[x] lists (edge id, other end) for each edge at x
        self.incident: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for i, (u, v) in enumerate(self.edges):
            eid[(u, v)] = eid[(v, u)] = i
            self.incident[u].append((i, v))
            self.incident[v].append((i, u))
        # triangles[e] lists (f1, f2): ids of the two other edges of each
        # triangle through e
        self.triangles = [
            tuple((eid[(index[u], index[w])], eid[(index[v], index[w])])
                  for w in sorted(g[u] & g[v]))
            for u, v in self.gedges
        ]
        self.cap = [min(max_label, len(t) + 1) for t in self.triangles]
        self.labels = [0] * self.m
        # comp[k][x] is the component id of x among the edges labeled k
        self.comp = [list(range(g.n)) for _ in range(max_label + 1)]
        self.trail: list[tuple[int, int, list[int]]] = []  # (edge, old id, moved)

    def undo_to(self, trail_mark):
        while len(self.trail) > trail_mark:
            e, old, moved = self.trail.pop()
            row = self.comp[self.labels[e]]
            for x in moved:
                row[x] = old
            self.labels[e] = 0

    # -- constraint reasoning -------------------------------------------

    def _options(self):
        """Each unassigned edge's feasible labels, in one pass.

        Floors come from block connectivity (endpoints joined inside block
        j force a label above j), caps from the label bound and the edge's
        triangle count. A triangle can still count toward an edge at level
        k only if both side labels can end below k, and must count if both
        surely do; level k survives when the forced count is at most k - 1
        and the possible count at least k - 1. Every deduction discards
        only labels no valid completion of the current assignment can use.

        This is the search's only check of the count condition on assigned
        edges, and it misses no refutation that counting the assigned
        triangles would find: an assigned edge with label k has floor = cap
        = k, so each triangle whose other two sides are assigned below k is
        forced, and none with a side assigned at k or above is possible.

        Returns None on contradiction, else per-edge feasible label lists
        (None for assigned edges).
        """
        m, labels, triangles = self.m, self.labels, self.triangles
        comp, edges, cap = self.comp, self.edges, self.cap
        lb = [0] * m
        ub = [0] * m
        for f in range(m):
            lf = labels[f]
            if lf:
                lb[f] = ub[f] = lf
                continue
            u, v = edges[f]
            floor = 1
            for j in range(self.max_label, 0, -1):
                row = comp[j]
                if row[u] == row[v]:
                    floor = j + 1
                    break
            if floor > cap[f]:
                return None
            lb[f] = floor
            ub[f] = cap[f]
        options: list = [None] * m
        for f in range(m):
            lf = labels[f]
            if lf:
                possible = forced = 0
                for a, b in triangles[f]:
                    if lb[a] < lf and lb[b] < lf:
                        possible += 1
                        if ub[a] < lf and ub[b] < lf:
                            forced += 1
                if not forced <= lf - 1 <= possible:
                    return None
                continue
            feas = []
            for k in range(lb[f], ub[f] + 1):
                possible = forced = 0
                for a, b in triangles[f]:
                    if lb[a] < k and lb[b] < k:
                        possible += 1
                        if ub[a] < k and ub[b] < k:
                            forced += 1
                if forced <= k - 1 <= possible:
                    feas.append(k)
            if not feas:
                return None
            options[f] = feas
        return options

    def assign(self, e, k):
        """Apply labels[e] = k; False if block k would span an earlier edge.

        The ends of e must lie in different components of block k. The
        vertices on the side of e's second end take the first end's id;
        before that, the pairs across the two sides are checked for an
        edge labeled below k, and on such a pair nothing changes.

        k is always one of the options that the last options pass gave
        e in the current state, and those start at e's floor, above every
        level at which e's ends are joined: block k gains no cycle and no
        later block spans e. The triangle counts of e and of the assigned
        edges around it are left to the options pass that follows every
        assign before the search branches (see _options).

        The check at the merge only prunes (see labeling.verify_mat_labeling).
        """
        u, v = self.edges[e]
        row, labels = self.comp[k], self.labels
        keep, old = row[u], row[v]
        if keep == old:
            # e would close a cycle in block k, and nothing below would see it
            raise RuntimeError(f"edge {e} at level {k}: its ends are already joined")
        moved = [x for x, c in enumerate(row) if c == old]
        for x in moved:  # only pairs across the merged sides are new
            for f, y in self.incident[x]:
                if row[y] == keep and 0 < labels[f] < k:
                    return False  # block k would span an earlier edge
        for x in moved:
            row[x] = keep
        labels[e] = k
        self.trail.append((e, old, moved))
        return True

    def _propagate(self):
        """Assign forced edges until none is left; pick the next branch target.

        Returns False on contradiction, None when everything is assigned,
        else (edge, feasible labels) for the smallest unassigned edge,
        which keeps the first solution lexicographically least.
        """
        while True:
            options = self._options()
            if options is None:
                return False
            forced = None
            best = None
            for f in range(self.m):
                if self.labels[f]:
                    continue
                opts = options[f]
                if len(opts) == 1:
                    forced = (f, opts[0])
                    break
                if best is None:
                    best = (f, opts)
            if forced is not None:
                if not self.assign(*forced):
                    return False
                continue
            return best

    def run(self):
        """DFS with unit propagation; labels tried in ascending order."""
        state = self._propagate()
        if state is False:
            return False
        if state is None:
            return True
        e, options = state
        for k in options:
            trail_mark = len(self.trail)
            if self.assign(e, k) and self.run():
                return True
            self.undo_to(trail_mark)
        return False


def brute_force_mat_labeling(
    g: Graph, max_edges: int = 18, max_label: int | None = None
) -> EdgeLabeling | None:
    """The lexicographically least MAT-labeling of g, or None.

    Labels range over [1, omega(g) - 1] for chordal inputs and [1, |V| - 1]
    otherwise (overridable via max_label); independently of either bound,
    an edge with c common neighbors never admits a label above c + 1, since
    a label-k edge must close k - 1 triangles. Inputs with more than
    `max_edges` edges are rejected to keep runtimes bounded.
    """
    if g.m > max_edges:
        raise ValueError(
            f"graph has {g.m} edges, above the guard {max_edges}; "
            f"raise max_edges explicitly to override"
        )
    if g.m == 0:
        return EdgeLabeling(g, {})

    if max_label is None:
        from matlabel.chordal import peo_exponents

        # a vertex and its earlier neighbours along a PEO form a clique, and a
        # largest clique's last vertex has the rest earlier: omega(g) - 1 is
        # the largest count
        exponents = peo_exponents(g)
        max_label = g.n - 1 if exponents is None else exponents[-1]
    if max_label < 1:
        return None

    search = _Search(g, max_label)
    if not search.run():
        return None
    return EdgeLabeling(
        g, {search.gedges[i]: search.labels[i] for i in range(search.m)}
    )
