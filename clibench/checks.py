"""Checks of `matlabel` outputs against computations made apart from it.

Each check takes the input graph as built by `gen`, the facts its
construction guarantees, and the program's exit code and JSON output. It
raises `CheckError` naming the first property that fails. Nothing here
imports `matlabel` or compares against a stored copy of earlier output.
"""

from __future__ import annotations

import json

from gen import Adj, Op, edges_of, intersection_closure, maximal_cliques


class CheckError(Exception):
    """An output that contradicts the independent computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# -- labelings --------------------------------------------------------------

def read_labeling(adj: Adj, data) -> dict[tuple[int, int], int]:
    """Labels from labeling JSON; the domain must equal the edge set of adj."""
    require(isinstance(data, dict) and isinstance(data.get("edges"), list),
            'labeling needs an "edges" list')
    labels: dict[tuple[int, int], int] = {}
    for item in data["edges"]:
        u, v, k = item["u"], item["v"], item["label"]
        require(all(type(x) is int for x in (u, v, k)) and k >= 1,
                f"entry {item} is not integer vertices with a positive label")
        e = (min(u, v), max(u, v))
        require(e not in labels, f"edge {e} labeled twice")
        labels[e] = k
    require(set(labels) == set(edges_of(adj)), "label domain differs from the edge set")
    return labels


def _find(parent: dict[int, int], x: int) -> int:
    while parent.get(x, x) != x:
        parent[x] = parent.get(parent[x], parent[x])
        x = parent[x]
    return x


def mat_violation(adj: Adj, labels: dict[tuple[int, int], int]) -> str | None:
    """First failure of ML1, ML2 or ML3, or None for a MAT-labeling."""
    top = max(labels.values(), default=0)
    blocks: dict[int, list[tuple[int, int]]] = {k: [] for k in range(1, top + 1)}
    for e, k in labels.items():
        blocks[k].append(e)
    earlier: list[tuple[int, int]] = []
    for k in range(1, top + 1):
        parent: dict[int, int] = {}
        for u, v in blocks[k]:
            ru, rv = _find(parent, u), _find(parent, v)
            if ru == rv:
                return f"ML1: edges labeled {k} contain a cycle through {(u, v)}"
            parent[ru] = rv
        for u, v in earlier:
            if _find(parent, u) == _find(parent, v):
                return f"ML2: edge {(u, v)} is spanned by edges labeled {k}"
        for u, v in blocks[k]:
            count = sum(1 for w in adj[u] & adj[v]
                        if labels[(min(u, w), max(u, w))] < k
                        and labels[(min(v, w), max(v, w))] < k)
            if count != k - 1:
                return f"ML3: edge {(u, v)} labeled {k} closes {count} triangles"
        earlier.extend(blocks[k])
    return None


def peo_exponents(adj: Adj, peo: list[int]) -> list[int]:
    """Earlier-neighbour counts along a perfect elimination ordering, sorted."""
    pos = {v: i for i, v in enumerate(peo)}
    return sorted(sum(1 for u in adj[v] if pos[u] < pos[v]) for v in peo)


def dual_partition(labels: dict[tuple[int, int], int], n: int) -> list[int]:
    """Dual partition of the block sizes, padded with zeros to n parts, sorted."""
    sizes: dict[int, int] = {}
    for k in labels.values():
        sizes[k] = sizes.get(k, 0) + 1
    parts = [sum(1 for s in sizes.values() if s >= j)
             for j in range(1, max(sizes.values(), default=0) + 1)]
    return sorted(parts + [0] * (n - len(parts)))


def check_mat_labeling(adj: Adj, data, peo: list[int]) -> None:
    labels = read_labeling(adj, data)
    violation = mat_violation(adj, labels)
    require(violation is None, f"emitted labeling fails {violation}")
    require(dual_partition(labels, len(adj)) == peo_exponents(adj, peo),
            "block sizes do not give the graph's exponents")


def check_violation(adj: Adj, violation) -> None:
    require(isinstance(violation, dict), "rejection carries no violation")
    edges = violation.get("edges")
    require(isinstance(edges, list) and edges, "violation names no edges")
    for u, v in edges:
        require(v in adj.get(u, ()), f"violation edge {(u, v)} is not an edge")
    require(all(v in adj for v in violation.get("vertices", [])),
            "violation names a vertex outside the graph")


# -- witnesses ----------------------------------------------------------------

def _adjacent(adj: Adj, u: int, v: int) -> bool:
    return v in adj.get(u, ())


def _distinct_vertices(adj: Adj, vs) -> bool:
    return len(set(vs)) == len(vs) and all(v in adj for v in vs)


def is_induced_cycle(adj: Adj, vs: list[int]) -> bool:
    n = len(vs)
    return n >= 4 and _distinct_vertices(adj, vs) and all(
        _adjacent(adj, vs[i], vs[j]) == ((j - i) % n in (1, n - 1))
        for i in range(n) for j in range(i + 1, n))


def is_induced_sun(adj: Adj, inner: list[int], outer: list[int]) -> bool:
    n = len(inner)
    if n < 3 or len(outer) != n or not _distinct_vertices(adj, inner + outer):
        return False
    clique = all(_adjacent(adj, a, b) for i, a in enumerate(inner) for b in inner[i + 1:])
    attach = all(_adjacent(adj, o, x) == (j in (i, (i + 1) % n))
                 for i, o in enumerate(outer) for j, x in enumerate(inner))
    apart = not any(_adjacent(adj, a, b) for i, a in enumerate(outer) for b in outer[i + 1:])
    return clique and attach and apart


def is_claw(adj: Adj, center: int, leaves: list[int]) -> bool:
    return (len(leaves) == 3 and _distinct_vertices(adj, [center] + leaves)
            and all(_adjacent(adj, center, x) for x in leaves)
            and not any(_adjacent(adj, a, b) for i, a in enumerate(leaves) for b in leaves[i + 1:]))


def is_net(adj: Adj, triangle: list[int], pendants: list[int]) -> bool:
    """Triangle with pendants[i] attached to triangle[i] only, induced."""
    vs = list(triangle) + list(pendants)
    if len(vs) != 6 or not _distinct_vertices(adj, vs):
        return False
    want = {frozenset(p) for p in ((0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5))}
    return all(_adjacent(adj, vs[i], vs[j]) == (frozenset((i, j)) in want)
               for i in range(6) for j in range(i + 1, 6))


def is_crown(adj: Adj, nodes: set[frozenset[int]], w) -> bool:
    """k-crown of poset nodes: lower[i] < upper[i], upper[i+1] and nothing else."""
    k, lower, upper = w.get("k"), w.get("lower"), w.get("upper")
    if type(k) is not int or k < 3 or len(lower) != k or len(upper) != k:
        return False
    low = [frozenset(x) for x in lower]
    up = [frozenset(y) for y in upper]
    sets = low + up
    if len(set(sets)) != 2 * k or not all(s in nodes for s in sets):
        return False
    if not all(_adjacent(adj, a, b) for s in sets for a in s for b in s if a < b):
        return False
    for i, x in enumerate(sets):
        for j, y in enumerate(sets):
            if i == j:
                continue
            want = i < k <= j and (j - k) in (i, (i + 1) % k)
            if (x < y) != want:
                return False
    return True


# -- per command --------------------------------------------------------------

def check_op(op: Op, code: int, out: str) -> None:
    """Raise CheckError unless exit code and output agree with op.truth."""
    try:
        data = json.loads(out)
    except ValueError:
        raise CheckError(f"stdout is not JSON: {out[:80]!r}") from None
    t, adj = op.truth, op.adj
    if op.cmd == "label":
        if t["sc"]:
            require(code == 0, f"SC graph rejected with exit {code}")
            check_mat_labeling(adj, data, t["peo"])
        else:
            require(code == 2, f"non-SC graph got exit {code}")
            w = data.get("witness") or {}
            nodes = intersection_closure(maximal_cliques(adj, t["peo"]))
            require(w.get("kind") == "crown" and is_crown(adj, nodes, w)
                    or w.get("kind") == "sun" and is_induced_sun(adj, w["inner"], w["outer"]),
                    f"invalid rejection witness {w}")
    elif op.cmd == "verify":
        require(code == (0 if t["mat"] else 2), f"verify exit {code}, MAT is {t['mat']}")
        require(data.get("ok") is t["mat"], f"verify says ok={data.get('ok')}")
        if t["mat"]:
            violation = mat_violation(adj, t["labels"])
            require(violation is None, f"input labeling is not MAT after all: {violation}")
        else:
            check_violation(adj, data.get("violation"))
    elif op.cmd == "exponents":
        if t.get("mat", True):
            require(code == 0, f"exponents exit {code}")
            exps = data["exponents"]
            require(exps == peo_exponents(adj, t["peo"]),
                    "exponents differ from earlier-neighbour counts along the PEO")
            if "labels" in t:
                require(exps == dual_partition(t["labels"], len(adj)),
                        "exponents differ from the dual partition of the block sizes")
            require(data["chromatic_factors_check"] is True, "chromatic factors check failed")
        else:
            require(code == 2, f"exponents on a non-MAT labeling exit {code}")
            check_violation(adj, data.get("violation"))
    elif op.cmd == "classify":
        require(code == 0, f"classify exit {code}")
        got = (data["chordal"], data["strongly_chordal"], data["unit_interval"])
        want = (t["chordal"], t["sc"], t["ui"])
        require(got == want, f"classify flags {got}, truth {want}")
        check_classify_witness(adj, t, data["witness"])
    elif op.cmd == "poset":
        require(code == 0, f"poset exit {code}")
        check_poset(adj, t["peo"], data)
    else:
        raise CheckError(f"no check for command {op.cmd!r}")


def check_classify_witness(adj: Adj, t: dict, w) -> None:
    if t["ui"]:
        require(w is None, "unit-interval graph given a witness")
        return
    require(isinstance(w, dict), "missing witness")
    kind = w.get("kind")
    if not t["chordal"]:
        ok = kind == "chordless-cycle" and is_induced_cycle(adj, w["vertices"])
    elif not t["sc"]:
        ok = kind == "sun" and is_induced_sun(adj, w["inner"], w["outer"])
    else:
        ok = (kind == "claw" and is_claw(adj, w["center"], w["leaves"])
              or kind == "net" and is_net(adj, w["triangle"], w["pendants"]))
    require(ok, f"invalid witness {w}")


def check_poset(adj: Adj, peo: list[int], data) -> None:
    cliques = maximal_cliques(adj, peo)
    nodes = [frozenset(x) for x in data["nodes"]]
    require(len(set(nodes)) == len(nodes) and set(nodes) == intersection_closure(cliques),
            "poset nodes differ from the intersections of maximal cliques")
    covers = set()
    for x in nodes:
        below = [y for y in nodes if y < x]
        covers |= {(y, x) for y in below if not any(y < z for z in below)}
    got = {(nodes[a], nodes[b]) for a, b in data["covers"]}
    require(got == covers, "poset covers differ from the inclusion Hasse diagram")
    require({nodes[i] for i in data["maximal"]} == cliques, "wrong maximal nodes")
    require(data["crown_free"] is True and data["crown"] is None,
            "SC graph reported with a crown (Farber 1983: SC posets are crown-free)")
