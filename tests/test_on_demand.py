"""Every path that loads a module on demand, run as `python -m matlabel.cli`.

A module that a command imports only when it needs it (matlabel.witness,
matlabel.unit_interval and matlabel.formats) is already loaded in the
test process by earlier tests, so an in-process call cannot show a
missing import. Each case here starts a fresh
interpreter and checks the exit code and the exact output.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import matlabel
from matlabel.cli import main

SRC = str(Path(matlabel.__file__).resolve().parents[1])

GRAPHS = {
    "c4.txt": "1 2\n2 3\n3 4\n1 4\n",
    "sun3.txt": "1 2\n1 3\n2 3\n1 4\n2 4\n2 5\n3 5\n1 6\n3 6\n",
    "claw.txt": "1 2\n1 3\n1 4\n",
    "net.txt": "1 2\n1 3\n2 3\n1 4\n2 5\n3 6\n",
    "k3.txt": "1 2\n2 3\n1 3\n",
    "path3.txt": "1 2\n2 3\n",
    "path3.json": '{"vertices": [1, 2, 3], "edges": [[1, 2], [2, 3]]}',
}


def _labeling(*entries):
    return json.dumps({"edges": [{"u": u, "v": v, "label": k} for u, v, k in entries]})


LABELINGS = {
    "k3-ok.json": _labeling((1, 2, 1), (2, 3, 2), (1, 3, 1)),
    "ml1.json": _labeling((1, 2, 1), (2, 3, 1), (1, 3, 1)),
    "ml2.json": _labeling((1, 3, 1), (1, 2, 2), (2, 3, 2)),
    "ml3.json": _labeling((1, 2, 1), (2, 3, 2)),
}


@pytest.fixture
def cases(tmp_path):
    for name, text in {**GRAPHS, **LABELINGS}.items():
        (tmp_path / name).write_text(text)
    return tmp_path


def run(cases, *argv):
    """`python -m matlabel.cli *argv` in the directory of the case files."""
    return subprocess.run([sys.executable, "-m", "matlabel.cli", *argv], capture_output=True,
                          text=True, cwd=cases, env=dict(os.environ, PYTHONPATH=SRC),
                          timeout=120)


def dumped(data) -> str:
    return json.dumps(data, sort_keys=True, indent=2) + "\n"


CYCLE = {"kind": "chordless-cycle", "vertices": [1, 2, 3, 4]}
CROWN = {"k": 3, "kind": "crown", "lower": [[2], [3], [1]],
         "upper": [[1, 2], [2, 3], [1, 3]]}
REJECTED = "graph is not strongly chordal"


@pytest.mark.parametrize("argv, code, report", [
    (["label", "c4.txt"], 2, {"error": REJECTED, "witness": CYCLE}),
    (["poset", "c4.txt"], 2, {"error": REJECTED, "witness": CYCLE}),
    (["label", "sun3.txt"], 2, {"error": REJECTED, "witness": CROWN}),
    (["poset", "sun3.txt"], 2, {"error": REJECTED, "witness": CROWN}),
    (["exponents", "c4.txt"], 2,
     {"error": "graph is not chordal and no labeling given", "witness": CYCLE}),
    (["classify", "claw.txt"], 0,
     {"chordal": True, "strongly_chordal": True, "unit_interval": False,
      "witness": {"center": 1, "kind": "claw", "leaves": [2, 3, 4]}}),
    (["classify", "net.txt"], 0,
     {"chordal": True, "strongly_chordal": True, "unit_interval": False,
      "witness": {"kind": "net", "pendants": [4, 5, 6], "triangle": [1, 2, 3]}}),
    (["classify", "sun3.txt"], 0,
     {"chordal": True, "strongly_chordal": False, "unit_interval": False,
      "witness": {"inner": [1, 2, 3], "kind": "sun", "n": 3, "outer": [4, 5, 6]}}),
    (["classify", "c4.txt"], 0,
     {"chordal": False, "strongly_chordal": False, "unit_interval": False,
      "witness": CYCLE}),
    (["classify", "path3.json"], 0,
     {"chordal": True, "strongly_chordal": True, "unit_interval": True, "witness": None}),
    (["label", "path3.json"], 0,
     {"edges": [{"label": 1, "u": 1, "v": 2}, {"label": 1, "u": 2, "v": 3}]}),
    (["verify", "k3.txt", "k3-ok.json"], 0, {"ok": True}),
    (["exponents", "k3.txt", "k3-ok.json"], 0,
     {"chromatic_factors_check": True, "exponents": [0, 1, 2]}),
    (["verify", "k3.txt", "ml1.json"], 2,
     {"ok": False, "violation": {"detail": "edges labeled 1 contain a cycle",
                                 "edges": [[1, 2], [1, 3], [2, 3]], "kind": "ML1-cycle",
                                 "level": 1, "vertices": []}}),
    (["verify", "k3.txt", "ml2.json"], 2,
     {"ok": False, "violation": {
         "detail": "edge (1, 3) labeled 1 is spanned by edges labeled 2",
         "edges": [[1, 3], [1, 2], [2, 3]], "kind": "ML2-closure", "level": 2,
         "vertices": []}}),
    (["verify", "path3.txt", "ml3.json"], 2,
     {"ok": False, "violation": {
         "detail": "edge (2, 3) labeled 2 closes 0 triangles with earlier labels, needs 1",
         "edges": [[2, 3]], "kind": "ML3-triangle-count", "level": 2, "vertices": []}}),
], ids=lambda value: " ".join(value) if isinstance(value, list) else None)
def test_witnesses_and_reports(cases, argv, code, report):
    done = run(cases, *argv)
    assert (done.returncode, done.stdout, done.stderr) == (code, dumped(report), "")


@pytest.mark.parametrize("text, message", [
    ('{"nope": []}', 'labeling JSON needs an "edges" array'),
    ('{"edges": [[1, 2]]}',
     'labeling JSON edges[0] must be an object with "u", "v" and "label", got [1, 2]'),
    ('{"edges": [{"u": [1], "v": 2, "label": 1}]}',
     "labeling JSON edges[0] has an array or object endpoint"),
    (_labeling((1, 2, 1), (1, 2, 1)), "duplicate labeling entry for edge (1, 2)"),
    (_labeling((1, 2, 1), (2, 1, 1)), "duplicate label entry for edge (1, 2)"),
    ('{"edges": [{"u": true, "v": 2, "label": 1}]}',
     "vertex ids must be nonnegative integers, got True"),
    (_labeling((1, 1, 1)), "self-loop at vertex 1"),
    (_labeling((1, 2, 0)), "label of (1, 2) must be a positive integer, got 0"),
    ('{"edges": [{"u": 1, "v": 2, "label": 1, "label": 2}]}',
     "labeling JSON repeats the key 'label' in one object"),
    (_labeling((1, 2, 1)), "label domain must equal the edge set (missing [(2, 3)], extra [])"),
], ids=range(10))
def test_labeling_faults(cases, text, message):
    (cases / "bad.json").write_text(text)
    done = run(cases, "verify", "path3.txt", "bad.json")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"matlabel: error: {message}\n"


def test_dot_writers(cases):
    done = run(cases, "label", "path3.txt", "--dot", "l.dot")
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == dumped(
        {"edges": [{"label": 1, "u": 1, "v": 2}, {"label": 1, "u": 2, "v": 3}]})
    assert (cases / "l.dot").read_text() == (
        "graph labeled {\n  1;\n  2;\n  3;\n  1 -- 2 [label=1, color=black];\n"
        "  2 -- 3 [label=1, color=black];\n}\n")
    done = run(cases, "poset", "path3.txt", "--out", "p.dot")
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert (cases / "p.dot").read_text() == (
        'digraph poset {\n  rankdir=BT;\n  n0 [label="{2}"];\n'
        '  n1 [label="{1,2}", style=filled, fillcolor=lightgrey];\n'
        '  n2 [label="{2,3}", style=filled, fillcolor=lightgrey];\n'
        "  n0 -> n1;\n  n0 -> n2;\n}\n")


def test_help_and_a_usage_error(cases, capsys):
    assert main(["--help"]) == 0
    done = run(cases, "--help")
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")
    assert done.stdout.startswith(
        "usage: matlabel {classify,label,verify,exponents,poset} ...\n")
    done = run(cases, "frobnicate")
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == ("usage: matlabel {classify,label,verify,exponents,poset} ..."
                           "\nmatlabel: error: unknown command 'frobnicate'\n")
