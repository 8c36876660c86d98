"""Seeded inputs for the CLI benchmark, built apart from `matlabel`.

Every graph is made here from the seed, and the way it was made gives its
ground truth: a strongly chordal (SC) graph grown by inverse simple
elimination comes with a perfect elimination ordering (its insertion
order), a unit-interval graph comes in a proper order with its height
labeling, and an attached sun or chordless cycle is a known obstruction.
The program under test only ever sees the files written from these graphs.

Regenerate the inputs of one workload with

    python3 clibench/gen.py --workload label --seed 1 --out clibench/_inputs/label-1
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

Adj = dict[int, set[int]]


# -- graph builders -------------------------------------------------------

def edges_of(adj: Adj) -> list[tuple[int, int]]:
    return sorted((u, v) for u in adj for v in adj[u] if u < v)


def add_vertex(adj: Adj, v: int, nbrs) -> None:
    adj[v] = set(nbrs)
    for u in adj[v]:
        adj[u].add(v)


def is_simple(adj: Adj, v: int) -> bool:
    """The closed neighbourhoods of the vertices of N[v] form a chain."""
    closed = sorted((adj[u] | {u} for u in adj[v] | {v}), key=len)
    return all(a <= b for a, b in zip(closed, closed[1:]))


def sc_graph(n: int, bias: float, rng: random.Random) -> tuple[Adj, list[int]]:
    """SC graph on 1..n grown by inverse simple elimination.

    Each new vertex joins a clique grown from a random anchor (each step
    taken with probability `bias`) and is kept only if it is simple in the
    grown graph; a pendant vertex is always simple. The reverse insertion
    order is a simple elimination ordering, so the graph is SC, and the
    insertion order is a perfect elimination ordering.
    """
    adj: Adj = {1: set()}
    for v in range(2, n + 1):
        for _ in range(30):
            anchor = rng.randrange(1, v)
            clique = {anchor}
            pool = set(adj[anchor])
            while pool and rng.random() < bias:
                w = rng.choice(sorted(pool))
                clique.add(w)
                pool &= adj[w]
            add_vertex(adj, v, clique)
            if is_simple(adj, v):
                break
            for u in adj.pop(v):
                adj[u].discard(v)
        else:
            add_vertex(adj, v, [rng.randrange(1, v)])
    return adj, list(range(1, n + 1))


def unit_interval(n: int, wmin: int, wmax: int, rng: random.Random) -> Adj:
    """Unit-interval graph on 1..n in a proper order.

    Vertex i is adjacent to i+1..r(i) with r non-decreasing, so every
    closed neighbourhood is an interval of the order and 1..n is a PEO.
    """
    adj: Adj = {v: set() for v in range(1, n + 1)}
    reach = 1
    for i in range(1, n + 1):
        reach = max(reach, min(n, i + rng.randint(wmin, wmax)))
        for j in range(i + 1, reach + 1):
            adj[i].add(j)
            adj[j].add(i)
    return adj


def complete(n: int) -> Adj:
    return {v: set(range(1, n + 1)) - {v} for v in range(1, n + 1)}


def path(n: int) -> Adj:
    return unit_interval(n, 1, 1, random.Random(0))


def height_labeling(adj: Adj) -> dict[tuple[int, int], int]:
    """label(i, j) = j - i; a MAT-labeling for a graph given in a proper order."""
    return {(u, v): v - u for u, v in edges_of(adj)}


def plant_claw(adj: Adj, center: int) -> None:
    """Hang three pendant vertices on `center`: the graph stays SC but has a claw."""
    first = max(adj) + 1
    for leaf in range(first, first + 3):
        add_vertex(adj, leaf, [center])


def attach_sun(adj: Adj, host: int) -> list[int]:
    """Bridge a new 3-sun to `host`; its ids are the next six after max(adj).

    The sun has inner clique a, b, c and outer x ~ a, b; y ~ b, c; z ~ c, a,
    and z is the bridge. The result is chordal but not SC. Returns the new
    vertices in an order that extends a PEO of the host.
    """
    z, a, c, b, x, y = range(max(adj) + 1, max(adj) + 7)
    for v, nbrs in ((z, (host,)), (a, (z,)), (c, (z, a)), (b, (a, c)),
                    (x, (a, b)), (y, (b, c))):
        add_vertex(adj, v, nbrs)
    return [z, a, c, b, x, y]


def attach_cycle(adj: Adj, length: int, host: int) -> None:
    """Bridge a new chordless cycle of `length` >= 4 to `host` (not chordal)."""
    first = max(adj) + 1
    ring = list(range(first, first + length))
    for i, v in enumerate(ring):
        add_vertex(adj, v, [ring[i - 1]] if i else [])
    adj[ring[0]].add(ring[-1])
    adj[ring[-1]].add(ring[0])
    adj[ring[0]].add(host)
    adj[host].add(ring[0])


def maximal_cliques(adj: Adj, peo: list[int]) -> set[frozenset[int]]:
    """Maximal cliques from a PEO: each vertex with its earlier neighbours."""
    pos = {v: i for i, v in enumerate(peo)}
    cands = sorted({frozenset(u for u in adj[v] if pos[u] < pos[v]) | {v} for v in peo},
                   key=len, reverse=True)
    out: list[frozenset[int]] = []
    for c in cands:
        if not any(c < d for d in out):
            out.append(c)
    return set(out)


def intersection_closure(cliques: set[frozenset[int]]) -> set[frozenset[int]]:
    """All intersections of non-empty families of the given sets."""
    nodes = set(cliques)
    frontier = set(cliques)
    while frontier:
        frontier = {x & c for x in frontier for c in cliques} - nodes
        nodes |= frontier
    return nodes


# -- files ---------------------------------------------------------------

def graph_text(adj: Adj, fmt: str) -> str:
    edges = edges_of(adj)
    if fmt == "json":
        return json.dumps({"vertices": sorted(adj), "edges": [list(e) for e in edges]})
    isolated = [v for v in sorted(adj) if not adj[v]]
    head = f"vertices: {' '.join(map(str, isolated))}\n" if isolated else ""
    return head + "".join(f"{u} {v}\n" for u, v in edges)


def labeling_text(labels: dict[tuple[int, int], int]) -> str:
    return json.dumps({"edges": [{"u": u, "v": v, "label": k}
                                 for (u, v), k in sorted(labels.items())]})


# -- workloads -------------------------------------------------------------

@dataclass
class Op:
    """One CLI call and the facts its output is checked against.

    `cmd` and `args` form the argument list after `matlabel`; `truth`
    holds what the construction of the input guarantees.
    """

    name: str
    cmd: str
    adj: Adj
    args: list[str]
    truth: dict = field(default_factory=dict)


class Builder:
    def __init__(self, out: Path):
        self.out = out
        self.ops: list[Op] = []

    def graph(self, name: str, adj: Adj, fmt: str = "edgelist") -> str:
        path = self.out / (name + (".json" if fmt == "json" else ".txt"))
        path.write_text(graph_text(adj, fmt))
        return str(path)

    def labeling(self, name: str, labels) -> str:
        path = self.out / (name + ".lab.json")
        path.write_text(labeling_text(labels))
        return str(path)

    def op(self, name, cmd, adj, args, **truth) -> None:
        self.ops.append(Op(name, cmd, adj, [cmd] + args, truth))


def build_label(b: Builder, rng: random.Random) -> None:
    # construction time varies by up to 1.5x between seeded graphs of one
    # size, so the larger sizes come several times
    sizes = [(0.6, n) for n in (100, 150, 150, 200, 200, 200, 250, 250)]
    sizes += [(0.9, n) for n in (200, 300, 400, 400)]
    for i, (bias, n) in enumerate(sizes):
        adj, peo = sc_graph(n, bias, rng)
        name = f"sc{n}-b{bias}-{i}"
        b.op(name, "label", adj, [b.graph(name, adj)], sc=True, peo=peo)
    chains = [(f"k{n}", complete(n)) for n in (20, 30, 40, 50)]
    chains += [("path300", path(300)), ("ui200", unit_interval(200, 1, 3, rng))]
    for name, adj in chains:
        b.op(name, "label", adj, [b.graph(name, adj)], sc=True, peo=sorted(adj))


def relabel_one(labels, rng: random.Random):
    """Move a seeded edge of the highest block with two or more edges to a new top label.

    A MAT-labeling has exactly max-exponent non-empty blocks, a number fixed
    by the graph, and this adds one, so the result is never a MAT-labeling.
    Taking the edge from a high block makes the verifier find the fault
    near its last level, so a rejection costs about as much on every seed.
    """
    sizes: dict[int, int] = {}
    for k in labels.values():
        sizes[k] = sizes.get(k, 0) + 1
    level = max(k for k, size in sizes.items() if size >= 2)
    edge = rng.choice([e for e, k in sorted(labels.items()) if k == level])
    out = dict(labels)
    out[edge] = max(sizes) + 1
    return out


def build_verify(b: Builder, rng: random.Random) -> None:
    # (name, graph, whether the exponents commands run on its good labeling);
    # they take 3.3 s on a 1500-vertex graph and 6.5 s on a 2000-vertex one,
    # so only the 1000-vertex graph and the complete graphs get them
    graphs = [(f"ui{n}", unit_interval(n, 2, 8, rng), n == 1000) for n in (1000, 1500, 2000)]
    graphs += [(f"k{n}", complete(n), True) for n in (40, 60)]
    for i, (name, adj, exponents) in enumerate(graphs):
        gfile = b.graph(name, adj, "json" if i % 2 else "edgelist")
        labels = height_labeling(adj)
        good = b.labeling(name, labels)
        bad = b.labeling(name + "-bad", relabel_one(labels, rng))
        b.op(name, "verify", adj, [gfile, good], mat=True, labels=labels)
        b.op(name + "-bad", "verify", adj, [gfile, bad], mat=False)
        b.op(name + "-bad", "exponents", adj, [gfile, bad], mat=False)
        if exponents:
            peo = sorted(adj)
            b.op(name, "exponents", adj, [gfile, good], mat=True, peo=peo, labels=labels)
            b.op(name, "exponents", adj, [gfile], peo=peo)


def sc_graph_with_poset(nodes: int, rng: random.Random) -> tuple[Adj, list[int]]:
    """SC graph on 10-12 vertices whose clique intersection poset has `nodes` nodes.

    Graphs are drawn from the seed until one fits. The exhaustive crown
    search of `matlabel poset` takes from 0.2 s to over 100 s on posets of
    14-18 nodes but 0.2-0.7 s on those of 13 nodes, so the poset size is
    fixed to keep runs comparable.
    """
    while True:
        adj, peo = sc_graph(rng.randint(10, 12), 0.6, rng)
        if len(intersection_closure(maximal_cliques(adj, peo))) == nodes:
            return adj, peo


def build_classify(b: Builder, rng: random.Random) -> None:
    # The searches' times vary several-fold with the structure of a graph,
    # so each kind of call runs on several graphs of one size. Claw graphs
    # stop at 25 vertices: from 26 on, one graph in ten took 1-3.4 s. The
    # six cycle graphs, whose classify takes a steady 0.3 s, sit between the
    # cheap claw calls and the dearer ones, which keeps op_p50_s off the
    # boundary between the two.
    for n in range(16, 26):
        adj, _ = sc_graph(n - 3, 0.6, rng)
        plant_claw(adj, rng.randint(1, n - 3))
        name = f"sc{n}-claw"
        b.op(name, "classify", adj, [b.graph(name, adj)],
             chordal=True, sc=True, ui=False)
    for i in range(4):
        adj, _ = sc_graph(200, 0.6, rng)
        attach_sun(adj, rng.randint(1, 200))
        name = f"sc200-sun-{i}"
        b.op(name, "classify", adj, [b.graph(name, adj)],
             chordal=True, sc=False, ui=False)
    for i in range(6):
        adj, _ = sc_graph(200, 0.6, rng)
        attach_cycle(adj, rng.randint(4, 8), rng.randint(1, 200))
        name = f"sc200-cycle-{i}"
        b.op(name, "classify", adj, [b.graph(name, adj)],
             chordal=False, sc=False, ui=False)
    for i in range(4):
        adj, peo = sc_graph(24, 0.6, rng)
        peo += attach_sun(adj, rng.randint(1, 24))
        name = f"sc30-sun-label-{i}"
        b.op(name, "label", adj, [b.graph(name, adj)], sc=False, peo=peo)
    for i in range(4):
        adj, peo = sc_graph_with_poset(13, rng)
        name = f"poset13-{i}"
        b.op(name, "poset", adj, [b.graph(name, adj)], peo=peo)


WORKLOADS = {"label": build_label, "verify": build_verify, "classify": build_classify}


def build(workload: str, seed: int, out: Path) -> list[Op]:
    """Write the inputs of one workload under `out`; return its operations."""
    out.mkdir(parents=True, exist_ok=True)
    b = Builder(out)
    WORKLOADS[workload](b, random.Random(f"{workload}:{seed}"))
    return b.ops


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    args = p.parse_args(argv)
    ops = build(args.workload, args.seed, Path(args.out))
    for op in ops:
        print(op.name, " ".join(op.args))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
