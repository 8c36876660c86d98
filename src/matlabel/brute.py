"""Exhaustive search for MAT-labelings, independent of the constructor.

Backtracks over label assignments with ascending label values. The forest
and closure conditions (ML1, ML2) are kept by per-level components: an
unassigned edge's floor lies above every level at which its ends are
already joined, and each union checks that the merged block spans no
edge of an earlier label. The count condition (ML3) is kept by the bounds
fixpoint alone, which propagates per-edge label bounds through
triangle-count budgets. Edges whose envelope leaves a single feasible
label are assigned immediately; forced values belong to every valid
completion, so with canonical branching the first complete assignment
found is the lexicographically least valid labeling. Serves as the
existence oracle against which the polynomial-time recognizer and the
constructor are cross-checked.
"""

from __future__ import annotations

from .graph import Graph
from .labeling import EdgeLabeling


class _Levels:
    """Connected components of every label block, with O(1) queries.

    comp[k][v] is the component id of v among the edges labeled k; unions
    relabel the smaller component and log each relabel, so undo is exact.
    """

    __slots__ = ("comp", "members", "trail")

    def __init__(self, n, levels):
        self.comp = [list(range(n)) for _ in range(levels + 1)]
        self.members = [[[v] for v in range(n)] for _ in range(levels + 1)]
        self.trail: list[tuple[int, int, int]] = []

    def union(self, k, u, v):
        """Merge the components of u and v at level k; they must differ.

        Returns the member lists of the two merged sides as they were
        before the merge (small side first)."""
        comp = self.comp[k]
        members = self.members[k]
        cu, cv = comp[u], comp[v]
        if cu == cv:
            # merging a component into itself would extend the list it walks
            raise RuntimeError(f"union of {u} and {v} at level {k}: already joined")
        if len(members[cu]) > len(members[cv]):
            cu, cv = cv, cu
        small = members[cu]
        big_before = list(members[cv])
        trail = self.trail
        target = members[cv]
        for x in small:
            comp[x] = cv
            target.append(x)
            trail.append((k, x, cu))
        return small, big_before

    def undo(self, mark):
        while len(self.trail) > mark:
            k, x, old = self.trail.pop()
            self.members[k][self.comp[k][x]].pop()
            self.comp[k][x] = old


class _Search:
    def __init__(self, g: Graph, max_label: int):
        self.max_label = max_label
        index = {v: i for i, v in enumerate(g.vertices)}
        self.gedges = g.edges
        self.edges = [(index[u], index[v]) for u, v in self.gedges]
        self.m = len(self.edges)
        self.n = g.n
        eid = {}
        for i, e in enumerate(self.edges):
            eid[e] = i
            eid[(e[1], e[0])] = i
        self.eid = eid
        # triangles[e] lists (f1, f2): ids of the two other edges of each
        # triangle through e
        tri: list[list[tuple[int, int]]] = [[] for _ in range(self.m)]
        for i, (u, v) in enumerate(self.gedges):
            for w in sorted(g.common_neighbors(u, v)):
                iu, iv, iw = index[u], index[v], index[w]
                tri[i].append((eid[(iu, iw)], eid[(iv, iw)]))
        self.triangles = [tuple(t) for t in tri]
        self.cap = [
            min(max_label, len(self.triangles[i]) + 1) for i in range(self.m)
        ]
        # summing the count condition over all edges, each triangle feeds
        # at most one edge (a unique top label), so sum(label - 1) is at
        # most the number of triangles in the graph
        self.triangle_budget = sum(len(t) for t in self.triangles) // 3
        self.labels = [0] * self.m
        self.levels = _Levels(self.n, max_label)
        self.trail: list[tuple[int, int]] = []  # (edge, levels trail mark)

    def undo_to(self, trail_mark):
        while len(self.trail) > trail_mark:
            e, lv_mark = self.trail.pop()
            self.labels[e] = 0
            self.levels.undo(lv_mark)

    # -- constraint reasoning -------------------------------------------

    def _bounds_fixpoint(self):
        """Per-edge label bounds from triangle-count budgets, to fixpoint.

        Floors come from block connectivity (endpoints joined inside block
        j force a label above j). A triangle can still count toward an
        edge at level k only if both side labels can end below k, and must
        count if both surely do; level k survives when the forced count is
        at most k - 1 and the possible count at least k - 1. The global
        triangle budget caps sum(label - 1). Every deduction discards only
        labels no valid completion of the current assignment can use.

        This is the search's only check of the count condition on assigned
        edges, and it misses no refutation that counting the assigned
        triangles would find: an assigned edge with label k has lb = ub = k,
        so each triangle whose other two sides are assigned below k is
        forced, and none with a side assigned at k or above is possible.

        Returns None on contradiction, else per-edge feasible label lists
        (assigned edges map to their label).
        """
        m, labels, triangles = self.m, self.labels, self.triangles
        comp = self.levels.comp
        edges = self.edges
        max_label = self.max_label
        lb = [0] * m
        ub = [0] * m
        for f in range(m):
            lf = labels[f]
            if lf:
                lb[f] = ub[f] = lf
            else:
                u, v = edges[f]
                floor = 1
                for j in range(max_label, 0, -1):
                    row = comp[j]
                    if row[u] == row[v]:
                        floor = j + 1
                        break
                if floor > self.cap[f]:
                    return None
                lb[f] = floor
                ub[f] = self.cap[f]
        options: list = [None] * m
        budget = self.triangle_budget
        while True:
            changed = False
            spent = sum(lb) - m  # lower bound on sum of (label - 1)
            if spent > budget:
                return None
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
                    options[f] = (lf,)
                    continue
                slack = budget - spent + lb[f]  # max label by global budget
                if slack < ub[f]:
                    ub[f] = slack
                    changed = True
                    if lb[f] > ub[f]:
                        return None
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
                if feas[0] > lb[f]:
                    spent += feas[0] - lb[f]
                    lb[f] = feas[0]
                    changed = True
                if feas[-1] < ub[f]:
                    ub[f] = feas[-1]
                    changed = True
            if not changed:
                return options

    def assign(self, e, k):
        """Apply labels[e] = k; False if block k now spans an earlier edge.

        k is always one of the options that the last bounds fixpoint gave
        e in the current state, and those start at e's floor, above every
        level at which e's ends are joined: block k gains no cycle and no
        later block spans e. The triangle counts of e and of the assigned
        edges around it are left to the fixpoint that follows every
        assign before the search branches (see _bounds_fixpoint).

        The check at the union only prunes: ML1 and ML3 at every level
        imply ML2. Let ML1-3 hold below k. Then the edges labeled below k
        carry a MAT-labeling of (V, E_(k-1)), which has a MAT-PEO (see
        oracle.find_mat_peo); by MS2 each vertex has at most k - 1 earlier
        neighbours along it, so E_(k-1) is chordal and colouring along the
        PEO properly k-colours it. By ML3 the ends a, b of an edge labeled
        k have k - 1 common neighbours in E_(k-1); they form a clique (two
        non-adjacent ones would close a chordless 4-cycle with a and b), so
        a and b both take the one colour it misses. A path labeled k keeps
        one colour, and an edge of E_(k-1) has two: ML2 holds at level k.
        """
        u, v = self.edges[e]
        levels = self.levels
        lv_mark = len(levels.trail)
        side_a, side_b = levels.union(k, u, v)
        labels, eid = self.labels, self.eid
        for x in side_a:  # only pairs across the merged sides are new
            for y in side_b:
                f = eid.get((x, y))
                if f is not None and 0 < labels[f] < k:
                    levels.undo(lv_mark)
                    return False  # block k now spans an earlier edge
        labels[e] = k
        self.trail.append((e, lv_mark))
        return True

    def _propagate(self):
        """Assign forced edges to fixpoint; pick the next branch target.

        Returns False on contradiction, None when everything is assigned,
        else (edge, feasible labels) for the smallest unassigned edge,
        which keeps the first solution lexicographically least.
        """
        while True:
            options = self._bounds_fixpoint()
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
        from .chordal import peo_exponents

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
