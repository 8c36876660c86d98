"""The recognition ladder: chordless cycles read off the failed MCS check,
strongly_chordal_obstruction as the one cycle -> sun ladder of every
command, and unit_interval_obstruction as that ladder then claw/net."""

import ast
import functools
import json
import random
from pathlib import Path
from types import SimpleNamespace

import matlabel
from matlabel import Graph, cli, poset
from matlabel.chordal import find_chordless_cycle, find_peo
from matlabel.cli import main
from matlabel.construct import construct_mat_labeling
from matlabel.formats import poset_to_json_dict
from matlabel.oracle import enumerate_graphs
from matlabel.poset import (NotChordalError, NotStronglyChordalError, build_poset,
                            maximal_cliques)
from matlabel.strong_chordal import find_sun
from matlabel.unit_interval import claw_or_net, unit_interval_obstruction
from matlabel.witness import _shortest_path, crown_from_sun

from .families import n_sun, random_graph, random_strongly_chordal
from .helpers import random_peo, spy_on_claw_and_net_scans
from .test_construct import d_graph


def all_pairs_chordless_cycle(g: Graph):
    """Reference: for each vertex v in ascending order and nonadjacent pair
    x < y of its neighbours, a shortest x-y path avoiding N[v] - {x, y}
    closes with v to a chordless cycle; the first one found is returned."""
    for v in g.vertices:
        nbrs = sorted(g.neighborhood(v))
        for i, x in enumerate(nbrs):
            for y in nbrs[i + 1:]:
                if not g.has_edge(x, y):
                    path = _shortest_path(g, x, y, g.closed_neighborhood(v) - {x, y})
                    if path is not None:
                        return (v,) + path
    return None


def bridged(rng: random.Random, host: Graph, part: Graph) -> Graph:
    """host and part (on 1..k) joined by one random edge, under a random
    relabelling of all vertices."""
    first = max(host.vertices) + 1
    edges = list(host.edges) + [(first + u - 1, first + v - 1) for u, v in part.edges]
    edges.append((rng.choice(host.vertices), first + rng.choice(part.vertices) - 1))
    ids = list(range(first + part.n))
    rng.shuffle(ids)
    return Graph([ids[v] for v in host.vertices],
                 [(ids[u], ids[v]) for u, v in edges])


def host_with_bridged_cycle(rng: random.Random) -> Graph:
    """A strongly chordal host with one chordless cycle of 4-8 vertices
    bridged to it, under a random relabelling of all vertices."""
    host = random_strongly_chordal(rng.randint(1, 30), rng=rng)
    length = rng.randint(4, 8)
    return bridged(rng, host, Graph.from_edges(
        [(i, i % length + 1) for i in range(1, length + 1)]))


def host_with_bridged_sun(rng: random.Random) -> Graph:
    """A strongly chordal host with a 3-sun bridged to it, relabelled."""
    return bridged(rng, random_strongly_chordal(rng.randint(1, 30), rng=rng), n_sun(3))


def assert_normalized_chordless_cycle(g: Graph, cycle):
    k = len(cycle)
    assert k >= 4 and len(set(cycle)) == k
    assert all(g.has_edge(cycle[i - 1], cycle[i]) for i in range(k))
    assert g.induced_subgraph(cycle).m == k
    assert cycle[0] == min(cycle) and cycle[1] < cycle[-1]


def test_matches_the_all_pairs_search_on_one_bridged_cycle():
    rng = random.Random(8)
    for _ in range(300):
        g = host_with_bridged_cycle(rng)
        cycle = find_chordless_cycle(g)
        assert cycle == all_pairs_chordless_cycle(g)
        assert_normalized_chordless_cycle(g, cycle)


def test_none_exactly_on_chordal_graphs():
    rng = random.Random(9)
    graphs = [g for n in range(7) for g in enumerate_graphs(n)]
    for _ in range(5000):
        n = rng.randint(7, 16)
        graphs.append(random_graph(n, rng.randint(n - 1, 3 * n), rng))
    for g in graphs:
        cycle = find_chordless_cycle(g)
        # simplicial removal succeeds exactly on chordal graphs, whatever
        # vertex it takes, so this does not share MCS with the code under test
        if random_peo(g, rng) is not None:
            assert cycle is None
        else:
            assert_normalized_chordless_cycle(g, cycle)


def test_one_mcs_pass_per_cycle(monkeypatch):
    from matlabel import chordal

    calls = []
    real_mcs = chordal._mcs_order

    def spy(g):
        calls.append(g.n)
        return real_mcs(g)

    monkeypatch.setattr(chordal, "_mcs_order", spy)
    g = Graph.from_edges([(i, i % 8 + 1) for i in range(1, 9)] + [(8, 9), (9, 10)])
    assert find_chordless_cycle(g) == tuple(range(1, 9))
    assert calls == [10]
    calls.clear()
    assert find_chordless_cycle(n_sun(4)) is None
    assert calls == [8]


def test_ladder_reads_the_sun_before_any_pattern_search(monkeypatch):
    # a 3-sun on 41..46 hangs off the end of the path 1..40 at inner vertex
    # 41, which also makes 41 the centre of a claw; the sun rung comes first
    searched = spy_on_claw_and_net_scans(monkeypatch)
    edges = [(i, i + 1) for i in range(1, 41)]
    edges += [(41, 42), (41, 43), (42, 43), (41, 44), (42, 44),
              (42, 45), (43, 45), (41, 46), (43, 46)]
    for g in (Graph.from_edges(edges), n_sun(3)):
        sun = find_sun(g)
        assert sun is not None and sun.n == 3
        assert unit_interval_obstruction(g) == ("sun", sun)
    assert searched == []
    # strongly chordal input reaches the claw and net scans only
    assert unit_interval_obstruction(Graph.from_edges(edges[:40])) is None
    assert searched == ["claw", "net"]


def test_no_closing_path_is_one_internal_error_line(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("matlabel.witness._shortest_path", lambda g, s, t, f: None)
    path = tmp_path / "c4.txt"
    path.write_text("1 2\n2 3\n3 4\n1 4\n")
    code = main(["classify", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("matlabel: internal error: find_chordless_cycle: ")
    assert "graph with 4 vertices" in captured.err and captured.err.count("\n") == 1


def test_sun_patterns_are_searched_for_only_in_the_oracle():
    # a sun is read off the elimination residue by find_sun, and a claw or
    # net by unit_interval's scans: only the oracle runs the pattern search
    searches, sun_searches = set(), set()
    for path in sorted(Path(matlabel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                    in ("find_embedding", "find_induced_subgraph")):
                searches.add(path.name)
                if any(getattr(getattr(arg, "func", None), "id", None) == "n_sun"
                       for arg in node.args):
                    sun_searches.add(path.name)
    assert searches == sun_searches == {"oracle.py"}


def test_one_mcs_pass_per_command(tmp_path, capsys, monkeypatch):
    # classify, poset and label read a rejection's chordless cycle off the
    # failed check of the MCS pass that tested chordality, and run no other
    from matlabel import chordal

    calls = []
    real_mcs = chordal._mcs_order

    def spy(g):
        calls.append(g.n)
        return real_mcs(g)

    rng = random.Random(12)
    for g in (host_with_bridged_cycle(rng), host_with_bridged_cycle(rng),
              random_strongly_chordal(40, seed=3)):
        cycle = find_chordless_cycle(Graph(g.vertices, g.edges))
        path = tmp_path / "g.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
        monkeypatch.setattr(chordal, "_mcs_order", spy)
        for command in ("classify", "poset", "label"):
            calls.clear()
            code = main([command, str(path)])
            report = json.loads(capsys.readouterr().out)
            assert calls == [g.n], command
            if cycle is None:
                assert code == 0
            else:
                assert code == (0 if command == "classify" else 2)
                assert report["witness"] == {"kind": "chordless-cycle",
                                             "vertices": list(cycle)}
        monkeypatch.undo()


# The three recognition ladders that classify, label and poset each ran
# before they shared strong_chordal.strongly_chordal_obstruction, kept as
# references for it.

def old_classify_ladder(g: Graph):
    if find_peo(g) is None:
        return ("chordless-cycle", find_chordless_cycle(g))
    sun = find_sun(g)
    if sun is not None:
        return ("sun", sun)
    return claw_or_net(g)


def old_label_rejection(g: Graph):
    try:
        cliques = maximal_cliques(g)
    except NotChordalError:
        return ("chordless-cycle", find_chordless_cycle(g))
    sun = find_sun(g)
    return None if sun is None else ("crown", crown_from_sun(cliques, sun))


def old_poset_report(g: Graph) -> dict:
    """The old poset report on a strongly chordal graph; on any other graph,
    label's rejection, which poset now shares."""
    rejection = old_label_rejection(g)
    if rejection is not None:
        kind, witness = rejection
        witness = ({"kind": kind, "vertices": list(witness)}
                   if kind == "chordless-cycle" else witness.as_json())
        return {"error": "graph is not strongly chordal", "witness": witness}
    p = build_poset(g)
    sun = find_sun(g)
    crown = None if sun is None else crown_from_sun(p.maximal_nodes, sun)
    report = poset_to_json_dict(p)
    report["crown_free"] = crown is None
    report["crown"] = None if crown is None else crown.as_json()
    return report


@functools.cache
def ladder_inputs() -> tuple[Graph, ...]:
    """Every graph on at most 6 vertices, D_3..D_6, and seeded strongly
    chordal hosts with a bridged 3-sun or a bridged 4-8-cycle."""
    rng = random.Random(20)
    graphs = [g for n in range(7) for g in enumerate_graphs(n)]
    graphs += [d_graph(t) for t in range(3, 7)]
    graphs += [host_with_bridged_sun(rng) for _ in range(40)]
    graphs += [host_with_bridged_cycle(rng) for _ in range(40)]
    return tuple(graphs)


def test_classify_ladder_matches_the_old_one():
    for g in ladder_inputs():
        assert unit_interval_obstruction(g) == old_classify_ladder(g)


class Accepted(Exception):
    pass


def test_label_rejection_matches_the_old_one(monkeypatch):
    # an accepted graph stops where its poset would be built
    def accept(g):
        raise Accepted

    monkeypatch.setattr(poset, "build_poset", accept)
    for g in ladder_inputs():
        try:
            construct_mat_labeling(g)
        except NotStronglyChordalError as err:
            got = (err.kind, err.witness)
        except Accepted:
            got = None
        assert got == old_label_rejection(g)


def test_poset_report_matches_the_old_one(monkeypatch):
    emitted = []
    monkeypatch.setattr(cli, "_emit", lambda args, data: emitted.append(data))
    args = SimpleNamespace(graph="g", out=None)
    for g in ladder_inputs():
        monkeypatch.setattr(cli, "load_graph", lambda path: g)
        emitted.clear()
        code = cli.cmd_poset(args)
        expected = old_poset_report(g)
        assert emitted == [expected]
        assert code == (2 if "error" in expected else 0)
