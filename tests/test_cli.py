"""Command line behavior: JSON reports, exit codes, determinism."""

import ast
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from matlabel import Graph, NoLeafPairError, cli
from matlabel.cli import main
from matlabel.labeling import verify_mat_labeling
from matlabel.poset import maximal_cliques

from .conftest import UI7_EDGES
from .families import blown_up_net, complete_graph, n_sun
from .helpers import band, spy_on_claw_and_net_scans
from .test_construct import d_graph

ORACLE_SEARCHES = ("detect_induced_sun", "find_crown", "find_any_crown", "is_crown_free",
                   "find_embedding", "find_induced_subgraph")


def _forbid(monkeypatch, target):
    """Make the function at dotted path `target` raise, wherever it is bound."""
    module_name, name = target.rsplit(".", 1)
    original = getattr(sys.modules[module_name], name)

    def forbidden(*args, **kwargs):
        raise AssertionError(f"{target} called")

    for module_name, module in list(sys.modules.items()):
        if module_name == "matlabel" or module_name.startswith("matlabel."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, forbidden)


def _forbid_oracles(monkeypatch):
    for name in ORACLE_SEARCHES:
        _forbid(monkeypatch, f"matlabel.oracle.{name}")


@pytest.fixture
def ui7_file(tmp_path):
    path = tmp_path / "ui7.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in UI7_EDGES))
    return path


@pytest.fixture
def sun3_file(tmp_path):
    path = tmp_path / "sun3.json"
    edges = [[1, 2], [1, 3], [2, 3], [1, 4], [2, 4], [2, 5], [3, 5], [1, 6], [3, 6]]
    path.write_text(json.dumps({"vertices": list(range(1, 7)), "edges": edges}))
    return path


@pytest.fixture
def c4_file(tmp_path):
    path = tmp_path / "c4.txt"
    path.write_text("1 2\n2 3\n3 4\n1 4\n")
    return path


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_classify_example(capsys, ui7_file):
    code, report = run_cli(capsys, "classify", str(ui7_file))
    assert code == 0
    assert report == {
        "chordal": True,
        "strongly_chordal": True,
        "unit_interval": True,
        "witness": None,
    }


def test_classify_sun(capsys, sun3_file):
    code, report = run_cli(capsys, "classify", str(sun3_file))
    assert code == 0
    assert report["chordal"] and not report["strongly_chordal"]
    assert not report["unit_interval"]
    assert report["witness"]["kind"] == "sun" and report["witness"]["n"] == 3


def test_classify_cycle(capsys, c4_file):
    code, report = run_cli(capsys, "classify", str(c4_file))
    assert code == 0
    assert report == {
        "chordal": False,
        "strongly_chordal": False,
        "unit_interval": False,
        "witness": {"kind": "chordless-cycle", "vertices": [1, 2, 3, 4]},
    }


def test_classify_claw_witness(capsys, tmp_path):
    path = tmp_path / "claw.txt"
    path.write_text("1 2\n1 3\n1 4\n")
    code, report = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert report["strongly_chordal"] and not report["unit_interval"]
    assert report["witness"] == {"kind": "claw", "center": 1, "leaves": [2, 3, 4]}


@pytest.mark.parametrize("graph, witness", [
    # band(60, 10) is unit interval, so the least net is the first twin of
    # each vertex of the net blown up by 2 on 61..72
    (Graph.from_edges(band(60, 10).edges + blown_up_net(2, 61).edges),
     {"kind": "net", "triangle": [61, 63, 65], "pendants": [67, 69, 71]}),
    # pendants 61, 62, 63 on vertex 30: the least claw centred at 30 takes
    # its least neighbour 20, then 31, the least beyond 20's reach, then 61
    (Graph.from_edges(band(60, 10).edges + ((30, 61), (30, 62), (30, 63))),
     {"kind": "claw", "center": 30, "leaves": [20, 31, 61]}),
    (complete_graph(40), None),
], ids=["band-net", "band-claw", "K40"])
def test_classify_answers_dense_input(capsys, tmp_path, monkeypatch, graph, witness):
    # every neighbourhood holds 20 or more vertices; the claw and net come
    # from the bitset scans, never from a pattern search
    _forbid_oracles(monkeypatch)
    path = tmp_path / "dense.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in graph.edges))
    code, report = run_cli(capsys, "classify", str(path))
    assert code == 0
    assert report == {"chordal": True, "strongly_chordal": True,
                      "unit_interval": witness is None, "witness": witness}


def test_classify_claw_needs_no_sun_search(capsys, tmp_path, monkeypatch):
    # a strongly chordal graph has no induced sun, so after recognition only
    # the claw and then the net are scanned for, and chordality is not
    # tested again by a cycle search
    _forbid_oracles(monkeypatch)
    searched = spy_on_claw_and_net_scans(monkeypatch)
    _forbid(monkeypatch, "matlabel.chordal.find_chordless_cycle")
    path = tmp_path / "claw.txt"
    path.write_text("1 2\n1 3\n1 4\n")
    code, report = run_cli(capsys, "classify", str(path))
    assert code == 0 and searched == ["claw"]
    assert report == {
        "chordal": True,
        "strongly_chordal": True,
        "unit_interval": False,
        "witness": {"kind": "claw", "center": 1, "leaves": [2, 3, 4]},
    }
    searched.clear()
    path.write_text("".join(f"{u} {v}\n" for u, v in UI7_EDGES))
    code, report = run_cli(capsys, "classify", str(path))
    assert code == 0 and report["unit_interval"] and searched == ["claw", "net"]


def test_classify_searches_the_elimination_residue_for_a_sun(
        capsys, tmp_path, monkeypatch):
    # no vertex of an induced sun is ever simple, so simple elimination
    # leaves every sun of the graph in its stuck residue, and the sun is
    # read off by eliminating only within that residue
    _forbid_oracles(monkeypatch)
    from matlabel import strong_chordal

    eliminated = []
    real_elimination = strong_chordal.simple_elimination

    def spy(g):
        eliminated.append(g.n)
        return real_elimination(g)

    monkeypatch.setattr(strong_chordal, "simple_elimination", spy)
    path = tmp_path / "sun-on-path.txt"
    edges = [(i, i + 1) for i in range(1, 40)] + [(40, 41)]
    edges += [(41, 42), (41, 43), (42, 43), (41, 44), (42, 44),
              (42, 45), (43, 45), (41, 46), (43, 46)]
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    code, report = run_cli(capsys, "classify", str(path))
    assert code == 0 and eliminated == [46] + [5] * 6
    assert report == {
        "chordal": True,
        "strongly_chordal": False,
        "unit_interval": False,
        "witness": {"kind": "sun", "n": 3, "inner": [41, 42, 43],
                    "outer": [44, 45, 46]},
    }


def _is_poset_node(cliques, node) -> bool:
    """node is the meet of the maximal cliques that contain it."""
    above = [c for c in cliques if c >= node]
    return bool(above) and frozenset.intersection(*above) == node


@pytest.mark.parametrize("command, exit_code", [
    ("classify", 0), ("label", 2), ("poset", 2)])
def test_large_sun_is_answered_without_an_exhaustive_search(
        capsys, tmp_path, monkeypatch, command, exit_code):
    # the exhaustive sun and crown searches would run for minutes on the
    # 12-sun; the witnesses come from find_sun and crown_from_sun instead
    _forbid_oracles(monkeypatch)
    path = tmp_path / "sun12.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in n_sun(12).edges))
    code, report = run_cli(capsys, command, str(path))
    assert code == exit_code
    witness = report["witness"]
    if command == "classify":
        assert witness == {"kind": "sun", "n": 12, "inner": list(range(1, 13)),
                           "outer": list(range(13, 25))}
        return
    assert witness["kind"] == "crown" and witness["k"] == 12
    # D_24's clique poset has about 2^24 nodes; the crown is read off its
    # 25 maximal cliques, and the poset is neither listed nor searched
    g = d_graph(24)
    path.write_text("".join(f"{u} {v}\n" for u, v in g.edges))
    code, report = run_cli(capsys, command, str(path))
    assert code == 2 and report["error"] == "graph is not strongly chordal"
    crown = report["witness"]
    assert crown["kind"] == "crown" and crown["k"] == 3
    cliques = maximal_cliques(g)
    lower = [frozenset(x) for x in crown["lower"]]
    upper = [frozenset(y) for y in crown["upper"]]
    assert len(cliques) == 25 and len(set(lower + upper)) == 6
    assert all(_is_poset_node(cliques, x) for x in lower + upper)
    # exactly the 3-crown's comparabilities: lower[i] < upper[i], upper[i + 1]
    assert [[x < y for y in upper] for x in lower] == [
        [j in (i, (i + 1) % 3) for j in range(3)] for i in range(3)]
    assert not any(a < b for layer in (lower, upper) for a in layer for b in layer)
    assert not any(y < x for x in lower for y in upper)


def test_label_and_verify_round_trip(capsys, ui7_file, tmp_path):
    out = tmp_path / "lab.json"
    dot = tmp_path / "lab.dot"
    code = main(["label", str(ui7_file), "--out", str(out), "--dot", str(dot)])
    assert code == 0
    capsys.readouterr()
    data = json.loads(out.read_text())
    sizes = {}
    for entry in data["edges"]:
        sizes[entry["label"]] = sizes.get(entry["label"], 0) + 1
    assert sizes == {1: 6, 2: 5, 3: 2}
    assert dot.read_text().startswith("graph labeled {")
    code, report = run_cli(capsys, "verify", str(ui7_file), str(out))
    assert code == 0 and report == {"ok": True}


def test_label_dot_to_an_unwritable_path_prints_no_json(capsys, ui7_file, tmp_path):
    code = main(["label", str(ui7_file), "--dot", str(tmp_path / "missing" / "x.dot")])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("matlabel: error: ") and captured.err.count("\n") == 1


def test_label_counts_its_blocks_only_under_verbose(capsys, ui7_file, monkeypatch):
    # block_sizes is a pass over the edges that no command's output needs:
    # label never makes it, and writes nothing to stderr
    from matlabel.labeling import EdgeLabeling

    monkeypatch.setattr(EdgeLabeling, "block_sizes", lambda lab: pytest.fail("called"))
    assert main(["label", str(ui7_file)]) == 0
    assert capsys.readouterr().err == ""


def test_label_tree_all_ones(capsys, tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text("1 2\n2 3\n3 4\n")
    code, report = run_cli(capsys, "label", str(path))
    assert code == 0
    assert all(e["label"] == 1 for e in report["edges"])


def test_label_rejects_sun(capsys, tmp_path):
    # the 4-sun: inner clique 1..4, outer 5..8
    edges = [[u, v] for u in range(1, 5) for v in range(u + 1, 5)]
    edges += [[1, 5], [2, 5], [2, 6], [3, 6], [3, 7], [4, 7], [4, 8], [1, 8]]
    path = tmp_path / "sun4.json"
    path.write_text(json.dumps({"edges": edges}))
    code, report = run_cli(capsys, "label", str(path))
    assert code == 2
    assert report["witness"]["kind"] in ("crown", "sun")


def test_verify_rejects_corrupted(capsys, ui7_file, tmp_path):
    out = tmp_path / "lab.json"
    main(["label", str(ui7_file), "--out", str(out)])
    capsys.readouterr()
    data = json.loads(out.read_text())
    data["edges"][0]["label"] += 1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, report = run_cli(capsys, "verify", str(ui7_file), str(bad))
    assert code == 2
    assert not report["ok"]
    assert report["violation"]["kind"].startswith("ML")


def test_verify_domain_mismatch_is_input_error(capsys, ui7_file, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"edges": [{"u": 1, "v": 2, "label": 1}]}))
    code = main(["verify", str(ui7_file), str(bad)])
    capsys.readouterr()
    assert code == 1


def test_exponents_chordal_graph(capsys, ui7_file):
    code, report = run_cli(capsys, "exponents", str(ui7_file))
    assert code == 0
    assert report == {
        "chromatic_factors_check": True,
        "exponents": [0, 1, 2, 2, 2, 3, 3],
    }


def test_exponents_complete(capsys, tmp_path):
    path = tmp_path / "k5.txt"
    path.write_text("".join(
        f"{u} {v}\n" for u in range(1, 6) for v in range(u + 1, 6)
    ))
    code, report = run_cli(capsys, "exponents", str(path))
    assert code == 0 and report["exponents"] == [0, 1, 2, 3, 4]


def test_exponents_nonchordal_rejected(capsys, c4_file):
    code, report = run_cli(capsys, "exponents", str(c4_file))
    assert code == 2
    assert report == {"error": "graph is not chordal and no labeling given",
                      "witness": {"kind": "chordless-cycle", "vertices": [1, 2, 3, 4]}}


def test_exponents_with_labeling(capsys, ui7_file, tmp_path):
    out = tmp_path / "lab.json"
    main(["label", str(ui7_file), "--out", str(out)])
    capsys.readouterr()
    code, report = run_cli(capsys, "exponents", str(ui7_file), str(out))
    assert code == 0 and report["exponents"] == [0, 1, 2, 2, 2, 3, 3]


def test_exponents_with_labeling_verifies_once(capsys, ui7_file, tmp_path,
                                              monkeypatch):
    lab = tmp_path / "lab.json"
    assert main(["label", str(ui7_file), "--out", str(lab)]) == 0
    calls = []

    def counting(labeling):
        calls.append(labeling)
        return verify_mat_labeling(labeling)

    for module in ("matlabel.labeling", "matlabel.arrangement"):
        monkeypatch.setattr(f"{module}.verify_mat_labeling", counting)
    code, report = run_cli(capsys, "exponents", str(ui7_file), str(lab))
    assert code == 0 and report["exponents"] == [0, 1, 2, 2, 2, 3, 3]
    assert len(calls) == 1


def test_exponents_computes_one_peo(capsys, ui7_file, tmp_path, monkeypatch):
    from matlabel import chordal

    lab = tmp_path / "lab.json"
    assert main(["label", str(ui7_file), "--out", str(lab)]) == 0
    bad = tmp_path / "bad.json"
    report = json.loads(lab.read_text())
    report["edges"][0]["label"] += 1
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    calls = []
    real_find_peo = chordal.find_peo

    def counting(g):
        calls.append(g.n)
        return real_find_peo(g)

    for module in ("matlabel.chordal", "matlabel.arrangement"):
        monkeypatch.setattr(f"{module}.find_peo", counting)
    expected = {"chromatic_factors_check": True,
                "exponents": [0, 1, 2, 2, 2, 3, 3]}
    assert run_cli(capsys, "exponents", str(ui7_file)) == (0, expected)
    assert calls == [7]
    calls.clear()
    assert run_cli(capsys, "exponents", str(ui7_file), str(lab)) == (0, expected)
    assert calls == [7]
    calls.clear()
    code, report = run_cli(capsys, "exponents", str(ui7_file), str(bad))
    assert code == 2 and report["error"] == "labeling is not a MAT-labeling"
    assert calls == []


def test_verify_time_does_not_grow_with_the_labels(tmp_path):
    # only the non-empty levels are walked: a walk up to the largest label
    # took seconds at 10**6 and allocates without bound at 10**18, so the
    # calls run with their address space capped
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    graph, lab = tmp_path / "p3.json", tmp_path / "huge.json"
    graph.write_text(json.dumps({"edges": [[1, 2], [2, 3]]}))
    lab.write_text(json.dumps({"edges": [{"u": 1, "v": 2, "label": 1},
                                         {"u": 2, "v": 3, "label": 10 ** 18}]}))
    for command in ("verify", "exponents"):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-m", "matlabel.cli", command, str(graph),
                               str(lab)], capture_output=True, timeout=60, preexec_fn=cap)
        took = time.perf_counter() - start
        assert done.returncode == 2, done.stderr
        assert took < 1
        violation = json.loads(done.stdout)["violation"]
        assert violation["kind"] == "ML3-triangle-count" and violation["level"] == 10 ** 18


def test_poset_json_and_crown_flag(capsys, ui7_file, sun3_file):
    code, report = run_cli(capsys, "poset", str(ui7_file))
    assert code == 0
    assert len(report["nodes"]) == 10 and report["crown_free"]
    # a graph that is not strongly chordal gets label's rejection
    code, report = run_cli(capsys, "poset", str(sun3_file))
    assert code == 2 and report["error"] == "graph is not strongly chordal"
    assert report["witness"]["kind"] == "crown" and report["witness"]["k"] == 3
    assert (code, report) == run_cli(capsys, "label", str(sun3_file))


def test_poset_answers_strongly_chordal_input_without_search(
        capsys, ui7_file, monkeypatch):
    # the poset of a strongly chordal graph is crown-free, so no crown is
    # built; test_poset_json_and_crown_flag shows the 3-sun is rejected with one
    _forbid_oracles(monkeypatch)
    _forbid(monkeypatch, "matlabel.witness.crown_from_sun")
    code, report = run_cli(capsys, "poset", str(ui7_file))
    assert code == 0
    assert report["crown_free"] is True and report["crown"] is None


def test_poset_internal_error_is_one_line(capsys, c4_file, monkeypatch):
    # find_sun's read-off finds no sun on a chordless cycle; were the ladder
    # to pass it one, the broken invariant is one stderr line and exit 1
    monkeypatch.setattr("matlabel.strong_chordal.find_peo", lambda g: list(g.vertices))
    code = main(["poset", str(c4_file)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("matlabel: internal error: find_sun: the minimal "
                            "residue of a graph with 4 vertices is not a sun "
                            "(4 vertices)\n")


def test_label_internal_error_is_one_line(capsys, sun3_file, monkeypatch):
    monkeypatch.setattr("matlabel.poset.strongly_chordal_obstruction", lambda g: None)
    code = main(["label", str(sun3_file)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("matlabel: internal error: construct: ")
    assert "graph with 6 vertices" in captured.err and captured.err.count("\n") == 1


def test_label_missing_leaf_pair_is_one_line(capsys, ui7_file, monkeypatch):
    # ui7 is strongly chordal, so a missing leaf pair in its poset is a
    # broken invariant and not a rejection
    def no_leaf_pair(poset, antichain):
        raise NoLeafPairError(antichain)

    monkeypatch.setattr("matlabel.construct.leaf_pair", no_leaf_pair)
    code = main(["label", str(ui7_file)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == ("matlabel: internal error: construct: no leaf pair in "
                            "the poset of a strongly chordal graph with 7 vertices\n")


def test_poset_nonchordal_rejected(capsys, c4_file):
    code, report = run_cli(capsys, "poset", str(c4_file))
    assert code == 2


def test_poset_computes_one_peo(capsys, ui7_file, c4_file, monkeypatch):
    from matlabel import chordal

    calls = []
    real_mcs = chordal._mcs_order

    def counting(g):
        calls.append(g.n)
        return real_mcs(g)

    monkeypatch.setattr(chordal, "_mcs_order", counting)
    code, report = run_cli(capsys, "poset", str(ui7_file))
    assert code == 0 and len(report["nodes"]) == 10 and calls == [7]
    calls.clear()
    code, report = run_cli(capsys, "poset", str(c4_file))
    assert code == 2 and calls == [4]
    assert report == {"error": "graph is not strongly chordal",
                      "witness": {"kind": "chordless-cycle", "vertices": [1, 2, 3, 4]}}


def test_poset_dot_output(capsys, ui7_file, tmp_path):
    # the suffix matches in any case
    for name in ("p.dot", "H.DOT"):
        out = tmp_path / name
        code = main(["poset", str(ui7_file), "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("digraph poset {")


def test_parse_error_exit_code(capsys, tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2 3\n")
    assert main(["classify", str(path)]) == 1
    capsys.readouterr()
    assert main(["classify", str(tmp_path / "missing.txt")]) == 1
    capsys.readouterr()


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="int() converts strings of any length")
def test_an_over_long_vertex_id_names_its_line(capsys, tmp_path):
    # int() refuses a decimal string beyond the interpreter's digit limit;
    # a plain `u v` line words that as every other unreadable line
    path = tmp_path / "long.txt"
    path.write_text("1 2\n1 " + "9" * 5_000 + "\n")
    assert main(["classify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("matlabel: error: line 2: cannot parse")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="int() converts strings of any length")
@pytest.mark.parametrize("deep", ["graph", "labeling"])
def test_an_over_long_json_integer_names_its_document(capsys, tmp_path, deep):
    long = "9" * 5_000
    graph_file = tmp_path / "g.json"
    graph_file.write_text(f'{{"edges": [[1, {long}]]}}' if deep == "graph"
                          else '{"edges": [[1, 2]]}')
    lab_file = tmp_path / "lab.json"
    lab_file.write_text(f'{{"edges": [{{"u": 1, "v": 2, "label": {long}}}]}}')
    code = main(["classify", str(graph_file)] if deep == "graph"
                else ["verify", str(graph_file), str(lab_file)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == (f"matlabel: error: {deep} JSON has an integer of more than "
                            f"{sys.get_int_max_str_digits()} digits\n")


@pytest.mark.parametrize("bad", ["graph", "labeling"])
def test_an_input_file_that_is_not_utf8_names_its_path(capsys, tmp_path, bad):
    graph_file = tmp_path / "g.txt"
    graph_file.write_bytes(b"\xff1 2\n" if bad == "graph" else b"1 2\n")
    lab_file = tmp_path / "lab.json"
    lab_file.write_bytes(b"\xff" + json.dumps(P3_LABELING).encode())
    for command in ("verify", "exponents"):
        code = main([command, str(graph_file), str(lab_file)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        path = graph_file if bad == "graph" else lab_file
        assert captured.err.startswith(f"matlabel: error: {path}: not UTF-8 text")
        assert captured.err.count("\n") == 1


@pytest.mark.parametrize("graph, marked", [("1 2\n2 3\n", "graph"),
                                           ('{"edges": [[1, 2], [2, 3]]}', "graph"),
                                           ("1 2\n2 3\n", "labeling")],
                         ids=["edge-list", "graph-json", "labeling"])
def test_a_byte_order_mark_is_rejected_naming_the_file(capsys, tmp_path, graph, marked):
    # read as UTF-8, the mark is U+FEFF: no whitespace, so a JSON graph
    # would be read as an edge list; it is rejected rather than skipped
    graph_file = tmp_path / "g.txt"
    graph_file.write_text(("\ufeff" if marked == "graph" else "") + graph, encoding="utf-8")
    lab_file = tmp_path / "lab.json"
    lab_file.write_text("\ufeff" + json.dumps(P3_LABELING), encoding="utf-8")
    code = main(["classify", str(graph_file)] if marked == "graph"
                else ["verify", str(graph_file), str(lab_file)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    path = graph_file if marked == "graph" else lab_file
    assert captured.err == f"matlabel: error: {path}: starts with a UTF-8 byte-order mark\n"


@pytest.mark.parametrize("bad", ["graph", "labeling"])
@pytest.mark.parametrize("text, message", [
    ("{bad", "Expecting property name enclosed in double quotes at line 1 column 2"),
    ('{"edges": []}\n]', "Extra data at line 2 column 1"),
    ('{"edges": [\n', "Expecting value at line 2 column 1"),
], ids=["property", "extra", "cut-short"])
def test_a_json_syntax_error_names_the_document_and_the_position(capsys, tmp_path, bad,
                                                                 text, message):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(text if bad == "graph" else '{"edges": [[1, 2]]}')
    lab_file = tmp_path / "lab.json"
    lab_file.write_text(text)
    code = main(["classify", str(graph_file)] if bad == "graph"
                else ["verify", str(graph_file), str(lab_file)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"matlabel: error: {bad} JSON: {message}\n"


def test_the_graph_format_is_read_off_the_text(capsys, tmp_path):
    # JSON when the first character after whitespace is `{` or `[`, an edge
    # list otherwise, whatever the file is called
    as_text = tmp_path / "p3.json"
    as_text.write_text("1 2\n2 3\n")
    as_json = tmp_path / "p3.txt"
    as_json.write_text('\n\n  {"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}')
    assert main(["label", str(as_text)]) == 0
    expected = capsys.readouterr()
    assert expected.err == "" and json.loads(expected.out)["edges"]
    assert main(["label", str(as_json)]) == 0
    assert capsys.readouterr() == expected
    empty = tmp_path / "empty.json"
    empty.write_text("")
    code, report = run_cli(capsys, "classify", str(empty))
    assert code == 0 and report["unit_interval"] is True


# a valid labeling of the path 1-2-3, for cases where the graph file is at fault
P3_LABELING = {"edges": [{"u": 1, "v": 2, "label": 1}, {"u": 2, "v": 3, "label": 1}]}


@pytest.mark.parametrize("graph, labeling, message", [
    pytest.param({"edges": [[1, 2], [2, 3]]},
                 {"edges": [{"u": 1, "v": 2, "label": 2.9}, {"u": 2, "v": 3, "label": 1}]},
                 "must be a positive integer, got 2.9", id="float-label"),
    pytest.param({"edges": [[1, 2], [2, 3]]},
                 {"edges": [{"u": 1, "v": 2, "label": True}, {"u": 2, "v": 3, "label": 1}]},
                 "must be a positive integer, got True", id="bool-label"),
    pytest.param({"edges": [[1, 2], [2, 3]]},
                 {"edges": [{"u": 1.0, "v": 2, "label": 1}, {"u": 2, "v": 3, "label": 1}]},
                 "vertex ids must be nonnegative integers, got 1.0", id="float-endpoint"),
    pytest.param({"edges": [[1.7, 2], [2, 3]]}, P3_LABELING,
                 "vertex ids must be nonnegative integers, got 1.7", id="float-vertex"),
    pytest.param({"edges": [[1, 2], [2, 3]]},
                 {"edges": [{"u": 1, "v": 2, "label": 1}, {"u": 2, "v": 3}]},
                 "labeling JSON edges[1] must be an object", id="missing-label"),
    pytest.param({"edges": 5}, P3_LABELING,
                 'graph JSON needs an "edges" array', id="edges-not-array"),
    pytest.param({"edges": [[1, 2], [2]]}, P3_LABELING,
                 "graph JSON edges[1] must be a pair", id="short-edge"),
    pytest.param({"edges": [[1, 2]], "vertices": 3}, P3_LABELING,
                 'graph JSON "vertices" must be an array', id="vertices-not-array"),
    pytest.param({"edges": [[1, 2], [2, 3]]}, {"edges": 5},
                 'labeling JSON needs an "edges" array', id="labels-not-array"),
    # a JSON object in a message is shown as the object, nested ones too;
    # with no labeling, the graph is classified
    pytest.param({"edges": [[1, 2]], "vertices": [{"a": 1}]}, None,
                 "vertex ids must be nonnegative integers, got {'a': 1}\n",
                 id="object-vertex"),
    pytest.param({"edges": [[1, {"a": 1}]]}, None,
                 "vertex ids must be nonnegative integers, got {'a': 1}\n",
                 id="object-endpoint"),
    pytest.param({"edges": [[1, 2, {"z": 3}]]}, None,
                 "graph JSON edges[0] must be a pair [u, v], got [1, 2, {'z': 3}]\n",
                 id="object-in-edge"),
    pytest.param({"edges": [[1, 2]]},
                 {"edges": [{"u": 1, "v": 2, "label": {"x": [1, {"y": 2}]}}]},
                 "label of (1, 2) must be a positive integer, got {'x': [1, {'y': 2}]}\n",
                 id="object-label"),
])
def test_strict_json_input_is_input_error(capsys, tmp_path, graph, labeling, message):
    graph_file = tmp_path / "g.json"
    graph_file.write_text(json.dumps(graph))
    argv = ["classify", str(graph_file)]
    if labeling is not None:
        lab_file = tmp_path / "lab.json"
        lab_file.write_text(json.dumps(labeling))
        argv = ["verify", str(graph_file), str(lab_file)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("matlabel: error: ") and captured.err.count("\n") == 1
    assert message in captured.err


@pytest.mark.parametrize("deep", ["graph", "labeling"])
def test_deeply_nested_json_is_input_error(capsys, tmp_path, deep):
    # the decoder recurses once per level and would raise RecursionError
    nested = "[" * 200_000 + "]" * 200_000
    graph_file = tmp_path / "g.json"
    graph_file.write_text(nested if deep == "graph" else json.dumps({"edges": [[1, 2]]}))
    lab_file = tmp_path / "lab.json"
    lab_file.write_text(nested)
    if deep == "graph":
        code = main(["classify", str(graph_file)])
    else:
        code = main(["verify", str(graph_file), str(lab_file)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"matlabel: error: {deep} JSON is nested too deeply\n"


def test_byte_identical_output(ui7_file, tmp_path):
    runs = []
    for i in range(2):
        out = tmp_path / f"r{i}.json"
        code = subprocess.run(
            [sys.executable, "-m", "matlabel.cli", "classify", str(ui7_file),
             "--out", str(out)],
            capture_output=True,
        )
        assert code.returncode == 0
        runs.append(out.read_bytes())
    assert runs[0] == runs[1]


def test_label_verify_round_trip_sampled(capsys, tmp_path):
    import random

    from .families import random_strongly_chordal
    from .helpers import graph_to_json_dict

    rng = random.Random(8)
    for i in range(8):
        g = random_strongly_chordal(rng.randint(1, 14), rng=rng)
        graph_file = tmp_path / f"g{i}.json"
        graph_file.write_text(json.dumps(graph_to_json_dict(g)))
        lab_file = tmp_path / f"g{i}-lab.json"
        assert main(["label", str(graph_file), "--out", str(lab_file)]) == 0
        assert main(["verify", str(graph_file), str(lab_file)]) == 0
        capsys.readouterr()


def test_usage_error_exit_code():
    result = subprocess.run(
        [sys.executable, "-m", "matlabel.cli", "frobnicate"],
        capture_output=True,
    )
    assert result.returncode == 1


@pytest.mark.parametrize("token", ["1_0", "+3", "١"])
def test_edge_list_takes_only_ascii_decimal_ids(capsys, tmp_path, token):
    # int() alone reads these as 10, 3 and 1
    path = tmp_path / "g.txt"
    path.write_text(f"1 2\n{token} 2\n", encoding="utf-8")
    code = main(["classify", str(path)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"matlabel: error: line 2: cannot parse {token + ' 2'!r}\n"


@pytest.mark.parametrize("graph, labeling, command, message", [
    pytest.param('{"vertices": [1], "edges": [[1, 2]], "edges": []}', None, "classify",
                 "graph JSON repeats the key 'edges'", id="graph"),
    pytest.param('{"edges": [[1, 2]]}', '{"edges": [{"u": 1, "v": 2, "label": 5, '
                 '"label": 1}]}', "verify", "labeling JSON repeats the key 'label'",
                 id="labeling"),
])
def test_repeated_json_key_is_input_error(capsys, tmp_path, graph, labeling, command,
                                          message):
    # json.loads alone keeps the last value of a repeated key
    graph_file = tmp_path / "g.json"
    graph_file.write_text(graph)
    argv = [command, str(graph_file)]
    if labeling is not None:
        lab_file = tmp_path / "lab.json"
        lab_file.write_text(labeling)
        argv.append(str(lab_file))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("matlabel: error: ") and captured.err.count("\n") == 1
    assert message in captured.err


# -- the command table against the argparse parser it replaced --------------

def _reference_parser():
    """The argparse parser that the command table replaced; it exits on a
    usage error."""
    import argparse

    parser = argparse.ArgumentParser(prog="matlabel")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, labeling=False, dot=False):
        p.add_argument("graph")
        if labeling:
            p.add_argument("labeling", nargs="?" if labeling == "optional" else None,
                           default=None)
        p.add_argument("--out", default=None)
        if dot:
            p.add_argument("--dot", default=None)

    for name, func, kwargs in [
            ("classify", cli.cmd_classify, {}), ("label", cli.cmd_label, {"dot": True}),
            ("verify", cli.cmd_verify, {"labeling": True}),
            ("exponents", cli.cmd_exponents, {"labeling": "optional"}),
            ("poset", cli.cmd_poset, {})]:
        p = sub.add_parser(name)
        common(p, **kwargs)
        p.set_defaults(func=func)
    return parser


OPTION_VALUES = {"--out": "o.json", "--dot": "d.dot"}


def _valid_argvs():
    """Every command with every subset of its options, each written as
    `--opt value` or as `--opt=value`, and split before and after the
    positionals at every place."""
    commands = [("classify", ["g.txt"], ["--out"]),
                ("label", ["g.txt"], ["--out", "--dot"]),
                ("verify", ["g.txt", "l.json"], ["--out"]),
                ("exponents", ["g.txt"], ["--out"]),
                ("exponents", ["g.json", "l.json"], ["--out"]),
                ("poset", ["g.txt"], ["--out"])]
    for command, positionals, options in commands:
        for mask in range(1 << len(options)):
            chosen = [o for b, o in enumerate(options) if mask >> b & 1]
            for joined in (False, True):
                words = [[f"{o}={OPTION_VALUES[o]}"] if joined
                         else [o, OPTION_VALUES[o]] for o in chosen]
                for before in range(len(words) + 1):
                    yield ([command] + sum(words[:before], []) + positionals
                           + sum(words[before:], []))


def test_the_command_table_parses_as_argparse_did():
    reference = _reference_parser()
    count = 0
    for argv in _valid_argvs():
        assert vars(cli.parse_args(argv)) == vars(reference.parse_args(argv)), argv
        count += 1
    # j chosen options give 2 * (j + 1) argvs: 2 + 4 for each of the five
    # command lines with one option, 2 + 2 * 4 + 6 for label
    assert count == 5 * 6 + 16
    # a negative number is a value, and `--` ends the options
    for argv in (["label", "--dot", "-3", "g.txt"], ["classify", "--", "-g.txt"],
                 ["verify", "--out", "-", "g", "l"]):
        assert vars(cli.parse_args(argv)) == vars(reference.parse_args(argv)), argv


@pytest.mark.parametrize("argv", [
    [], ["frobnicate", "g.txt"], ["--verbose", "classify", "g.txt"], ["classify"],
    ["verify", "g.txt"], ["classify", "g.txt", "extra.txt"],
    ["exponents", "g.txt", "l.json", "extra"], ["classify", "g.txt", "--nope"],
    ["classify", "g.txt", "-x"], ["classify", "g.txt", "--format", "xml"],
    ["classify", "g.txt", "--format=xml"], ["classify", "g.txt", "--out"],
    ["classify", "g.txt", "--out", "--verbose"], ["classify", "g.txt", "--verbose=1"],
    ["selftest", "--seed", "x"], ["selftest", "--max-brute-edges=1.5"],
    ["selftest", "g.txt"], ["verify", "g.txt", "l.json", "--dot", "d.dot"],
    ["classify", "g.txt", "--verb"], ["classify", "g.txt", "--form", "json"],
    ["selftest"], ["classify", "g.txt", "--seed", "1"],
], ids=lambda argv: " ".join(argv) or "no-command")
def test_usage_errors_exit_1_with_usage_on_stderr(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage.startswith("usage: matlabel ")
    assert error.startswith("matlabel: error: ")
    with pytest.raises(SystemExit) as exit_:
        _reference_parser().parse_args(argv)
    assert exit_.value.code == 2  # argparse rejected each of them too
    capsys.readouterr()


@pytest.mark.parametrize("option", [["--format", "json"], ["--format=edgelist"],
                                    ["--verbose"], ["--seed", "1"]], ids=" ".join)
def test_the_removed_options_are_usage_errors(capsys, option):
    for command, positionals in [("classify", ["g.txt"]), ("label", ["g.txt"]),
                                 ("verify", ["g.txt", "l.json"]),
                                 ("exponents", ["g.txt"]), ("poset", ["g.txt"])]:
        assert main([command, *positionals, *option]) == 1
        captured = capsys.readouterr()
        usage, error = captured.err.splitlines()
        assert captured.out == "" and usage.startswith(f"usage: matlabel {command} ")
        name = option[0].partition("=")[0]
        assert error == f"matlabel: error: unrecognized option {name!r}"


@pytest.mark.parametrize("option", [["--out="], ["--out", ""], ["--dot="]], ids=repr)
def test_an_empty_option_value_is_a_usage_error(capsys, tmp_path, option):
    # argparse took an empty value, and an empty --out then meant stdout
    graph = tmp_path / "p3.txt"
    graph.write_text("1 2\n2 3\n")
    assert main(["label", str(graph), *option]) == 1
    captured = capsys.readouterr()
    usage, error = captured.err.splitlines()
    assert captured.out == "" and usage.startswith("usage: matlabel label ")
    name = option[0].rstrip("=")
    assert error == f"matlabel: error: option {name} expects a value"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "-h"],
                                  ["label", "--dot", "d.dot", "--help"]])
def test_help_exits_0_with_usage_on_stdout(argv):
    done = subprocess.run([sys.executable, "-m", "matlabel.cli", *argv],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0 and done.stderr == ""
    assert done.stdout.startswith("usage: matlabel ")
    assert "Exit codes: 0" in done.stdout


# -- the executable's exit: a checked flush, then os._exit -------------------

SRC = str(Path(cli.__file__).resolve().parents[1])
# block-buffered stdout, as the executable has unless PYTHONUNBUFFERED is set
BUFFERED = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="needs /dev/full")


def _executable(argv, stdout, stderr=subprocess.PIPE):
    return subprocess.run([sys.executable, "-m", "matlabel.cli", *map(str, argv)],
                          stdout=stdout, stderr=stderr, env=BUFFERED, cwd=SRC,
                          timeout=60)


@pytest.fixture
def path400_file(tmp_path):
    # its labeling JSON is larger than stdout's buffer, so the write itself fails
    path = tmp_path / "path400.txt"
    path.write_text("".join(f"{i} {i + 1}\n" for i in range(1, 400)))
    return path


@needs_dev_full
@pytest.mark.parametrize("command", ["classify", "label"])
def test_a_full_stdout_is_one_error_line_and_exit_1(ui7_file, path400_file, command):
    # classify's output waits in the buffer until the last flush, which the
    # interpreter made at teardown: "Exception ignored", exit 120; label's
    # fails in the write already, and is reported once
    graph = ui7_file if command == "classify" else path400_file
    with open("/dev/full", "w") as full:
        done = _executable([command, graph], stdout=full)
    assert done.returncode == 1
    assert done.stderr == b"matlabel: error: [Errno 28] No space left on device\n"


@needs_dev_full
def test_a_full_stdout_and_stderr_still_exit_1(ui7_file):
    with open("/dev/full", "w") as full:
        done = _executable(["classify", ui7_file], stdout=full, stderr=full)
    assert done.returncode == 1


def test_a_closed_pipe_on_stdout_is_one_error_line_and_exit_1(ui7_file):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _executable(["classify", ui7_file], stdout=write_end)
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == b"matlabel: error: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("closed", [">&-", "2>&-"], ids=["stdout", "stderr"])
def test_a_stream_closed_at_start_is_left_alone(ui7_file, tmp_path, closed):
    # Python starts with sys.stdout (sys.stderr) None when fd 1 (fd 2) is
    # closed; --out needs neither
    out = tmp_path / "out.json"
    done = subprocess.run(["sh", "-c", f'exec "$@" {closed}', "sh", sys.executable, "-m",
                           "matlabel.cli", "classify", str(ui7_file), "--out", str(out)],
                          capture_output=True, env=BUFFERED, cwd=SRC, timeout=60)
    assert done.returncode == 0 and done.stdout == done.stderr == b""
    assert json.loads(out.read_text())["unit_interval"] is True


def test_the_executable_writes_all_its_output_before_the_hard_exit(
        capsys, path400_file, sun3_file):
    for argv, code in [(["label", path400_file], 0), (["label", sun3_file], 2)]:
        done = _executable(argv, stdout=subprocess.PIPE)
        assert main([str(arg) for arg in argv]) == code
        assert done.returncode == code and done.stderr == b""
        assert done.stdout.decode() == capsys.readouterr().out


def test_the_installed_script_and_the_module_share_the_entry_function():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    # read as text: Python 3.10 has no tomllib
    scripts = re.findall(r'^matlabel = "matlabel\.cli:(\w+)"$', pyproject, re.MULTILINE)
    tree = ast.parse(Path(cli.__file__).read_text())
    guard = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    called = [node.func.id for node in ast.walk(guard)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
    assert scripts == called == ["entry"]
