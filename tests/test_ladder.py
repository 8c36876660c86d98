"""The recognition ladder: chordless cycles read off the failed MCS check,
and unit_interval_obstruction as the one cycle -> sun -> claw/net ladder."""

import ast
import json
import random
from pathlib import Path

import matlabel
from matlabel import Graph
from matlabel.chordal import _shortest_path, find_chordless_cycle, random_peo
from matlabel.cli import main
from matlabel.families import n_sun, random_graph, random_strongly_chordal
from matlabel.oracle import enumerate_graphs
from matlabel.strong_chordal import find_sun, unit_interval_obstruction


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


def host_with_bridged_cycle(rng: random.Random) -> Graph:
    """A strongly chordal host with one chordless cycle of 4-8 vertices
    bridged to it, under a random relabelling of all vertices."""
    host = random_strongly_chordal(rng.randint(1, 30), rng=rng)
    length = rng.randint(4, 8)
    first = max(host.vertices) + 1
    ring = list(range(first, first + length))
    edges = list(host.edges) + [(ring[i - 1], ring[i]) for i in range(length)]
    edges.append((rng.choice(host.vertices), rng.choice(ring)))
    ids = list(range(first + length))
    rng.shuffle(ids)
    return Graph([ids[v] for v in host.vertices],
                 [(ids[u], ids[v]) for u, v in edges])


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
    from matlabel import strong_chordal

    searched = []
    real_search = strong_chordal.find_induced_subgraph

    def spy(g, pattern):
        searched.append(pattern)
        return real_search(g, pattern)

    monkeypatch.setattr(strong_chordal, "find_induced_subgraph", spy)
    edges = [(i, i + 1) for i in range(1, 41)]
    edges += [(41, 42), (41, 43), (42, 43), (41, 44), (42, 44),
              (42, 45), (43, 45), (41, 46), (43, 46)]
    for g in (Graph.from_edges(edges), n_sun(3)):
        sun = find_sun(g)
        assert sun is not None and sun.n == 3
        assert unit_interval_obstruction(g) == ("sun", sun)
    assert searched == []
    # strongly chordal input reaches the claw and net searches only
    assert unit_interval_obstruction(Graph.from_edges(edges[:40])) is None
    assert [p.n for p in searched] == [4, 6]


def test_no_closing_path_is_one_internal_error_line(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("matlabel.chordal._shortest_path", lambda g, s, t, f: None)
    path = tmp_path / "c4.txt"
    path.write_text("1 2\n2 3\n3 4\n1 4\n")
    code = main(["classify", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("matlabel: internal error: find_chordless_cycle: ")
    assert "graph with 4 vertices" in captured.err and captured.err.count("\n") == 1


def test_sun_patterns_are_searched_for_only_in_the_oracle():
    # a sun is read off the elimination residue by find_sun
    found = []
    for path in sorted(Path(matlabel.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "id", None) == "find_induced_subgraph"
                    and any(getattr(getattr(arg, "func", None), "id", None) == "n_sun"
                            for arg in node.args)):
                found.append(path.name)
    assert found == ["oracle.py"]


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
