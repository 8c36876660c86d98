"""Start-up cost: each CLI command imports only the layers it runs."""

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

import matlabel

from .conftest import UI7_EDGES, UI7_LABELS

SRC = str(Path(matlabel.__file__).resolve().parents[1])

# test-only oracles, the stdlib module that pulls in inspect, ast and dis,
# and the command-line parser that the command table replaced, with the
# translation machinery it loads
NEVER_ON_A_COMMAND = {"dataclasses", "matlabel.oracle", "argparse", "gettext"}


def imported_by(*argv) -> set[str]:
    """The modules `python -X importtime -m matlabel.cli *argv` imports."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "matlabel.cli",
                           *map(str, argv)],
                          capture_output=True, text=True, cwd=SRC, timeout=120)
    assert done.returncode in (0, 2), done.stderr
    return {line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
            if line.startswith("import time:") and "|" in line} - {"imported package"}


def _layers(modules: set[str]) -> set[str]:
    return {m.split(".", 1)[1] for m in modules if m.startswith("matlabel.")}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup")
    graph = root / "ui7.txt"
    graph.write_text("".join(f"{u} {v}\n" for u, v in UI7_EDGES))
    labeling = root / "ui7-lab.json"
    labeling.write_text(json.dumps(
        {"edges": [{"u": u, "v": v, "label": k} for (u, v), k in UI7_LABELS.items()]}))
    one_vertex = root / "one.txt"
    one_vertex.write_text("vertices: 1\n")
    return {"graph": graph, "labeling": labeling, "one": one_vertex}


@pytest.mark.parametrize("argv, forbidden", [
    (("classify", "graph"), {"construct", "poset", "labeling", "arrangement"}),
    (("label", "graph"), {"arrangement"}),
    (("verify", "graph", "labeling"),
     {"construct", "poset", "strong_chordal", "chordal"}),
    (("exponents", "graph"),
     {"construct", "poset", "strong_chordal", "labeling", "arrangement"}),
    (("exponents", "graph", "labeling"), {"construct", "poset", "strong_chordal"}),
    (("poset", "graph"), {"construct", "labeling", "arrangement"}),
], ids=["classify", "label", "verify", "exponents", "exponents-labeling", "poset"])
def test_command_imports_only_its_layers(files, argv, forbidden):
    modules = imported_by(*(files.get(arg, arg) for arg in argv))
    assert "matlabel.io" in modules  # the listing is read
    assert modules & NEVER_ON_A_COMMAND == set()
    assert _layers(modules) & forbidden == set()


def test_classify_of_one_vertex_loads_four_layers(files):
    modules = imported_by("classify", files["one"])
    assert _layers(modules) <= {"graph", "io", "chordal", "strong_chordal", "unit_interval"}
    assert "dataclasses" not in modules


def test_importing_the_package_loads_no_submodule():
    code = ("import sys, matlabel; "
            "print(sorted(m for m in sys.modules if m.startswith('matlabel.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          cwd=SRC, check=True, timeout=60)
    assert done.stdout == "[]\n"


def _ast_nodes(module: str) -> int:
    """The nodes of a matlabel module's syntax tree: what compiling it walks."""
    *package, name = module.split(".")
    path = Path(SRC, *package, f"{name}.py") if package else Path(SRC, name, "__init__.py")
    return sum(1 for _ in ast.walk(ast.parse(path.read_text(), str(path))))


# what a call compiles when no bytecode is cached (clibench runs with
# PYTHONDONTWRITEBYTECODE=1): the matlabel modules -X importtime lists, and
# cli, which runs as __main__ and is not listed
@pytest.mark.parametrize("argv, bound, never", [
    (("label", "one"), 8_410, {"json", "matlabel.witness", "matlabel.formats",
                                "matlabel.unit_interval"}),
    (("verify", "one", "empty"), 5_087, {"matlabel.witness", "matlabel.formats",
                                         "matlabel.unit_interval"}),
    (("classify", "one"), 5_592, {"matlabel.witness", "matlabel.formats"}),
    (("exponents", "one", "empty"), 6_616, {"matlabel.witness", "matlabel.formats",
                                            "matlabel.unit_interval"}),
], ids=["label", "verify", "classify", "exponents-labeling"])
def test_a_call_that_succeeds_compiles_no_cold_code(tmp_path, argv, bound, never):
    (tmp_path / "one").write_text("vertices: 1\n")
    (tmp_path / "empty").write_text('{"edges": []}')
    modules = imported_by(argv[0], *(tmp_path / name for name in argv[1:]))
    assert modules & never == set()
    compiled = {m for m in modules if m.split(".")[0] == "matlabel"} | {"matlabel.cli"}
    assert sum(map(_ast_nodes, compiled)) <= bound
