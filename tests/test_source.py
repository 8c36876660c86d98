"""Source-level rules for the library modules."""

import ast
from pathlib import Path

import matlabel
from matlabel import cli, io

SOURCES = sorted(Path(matlabel.__file__).parent.glob("*.py"))


def test_no_assert_for_internal_invariants():
    # `assert` vanishes under `python -O`; invariants raise explicit errors
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                    found.append(f"{path.name}:{node.lineno} raise AssertionError")
    assert SOURCES and not found, found


# exhaustive oracles, and chromatic deletion-contraction behind its size guard
RECURSION_ALLOWED = {
    "arrangement.py:_deletion_contraction",
    "oracle.py:brute_induced_subposet.place",
}


def _called_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and func.value.id in ("self", "cls")):
        return func.attr
    return None


def _self_calling(node, scope, found):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{scope}.{child.name}" if scope else child.name
            if not isinstance(child, ast.ClassDef) and any(
                    isinstance(sub, ast.Call) and _called_name(sub.func) == child.name
                    for sub in ast.walk(child)):
                found.add(name)
            _self_calling(child, name, found)
        else:
            _self_calling(child, scope, found)


def test_no_recursion_outside_the_oracles():
    # a production path that recurses once per clique, node or vertex hits
    # the interpreter's recursion limit on large inputs
    found = set()
    for path in SOURCES:
        names = set()
        _self_calling(ast.parse(path.read_text(), str(path)), "", names)
        found |= {f"{path.name}:{name}" for name in names}
    assert sorted(found - RECURSION_ALLOWED) == []
    assert found >= RECURSION_ALLOWED  # the check still sees the oracles


ORACLE_SEARCHES = {"detect_induced_sun", "find_crown", "find_any_crown", "is_crown_free",
                   "find_embedding", "find_induced_subgraph"}

# the oracles themselves, their re-exports, and the old attribute paths
# that clibench/layers.py spans
ORACLE_NAMES_ALLOWED = {"oracle.py", "__init__.py",
                        "poset.py:__getattr__", "strong_chordal.py:__getattr__"}


def _names_by_scope(tree):
    """(top-level function or "<module>", identifier) for every name use."""
    for top in tree.body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                yield scope, node.id
            elif isinstance(node, ast.Attribute):
                yield scope, node.attr
            elif isinstance(node, ast.alias):
                yield scope, node.name
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield scope, node.name


def test_exhaustive_searches_stay_in_the_oracles():
    # the sun and crown searches are exponential; rejections read the sun
    # off the elimination residue and lift the crown from it
    found = set()
    for path in SOURCES:
        for scope, name in _names_by_scope(ast.parse(path.read_text(), str(path))):
            if name in ORACLE_SEARCHES:
                found.add(f"{path.name}:{scope}")
    allowed = {f for f in found
               if f in ORACLE_NAMES_ALLOWED or f.split(":")[0] in ORACLE_NAMES_ALLOWED}
    assert sorted(found - allowed) == []
    assert "oracle.py:is_crown_free" in found  # the check still sees an oracle caller


LADDER_NAMES = {"find_chordless_cycle", "find_sun", "NotChordalError"}

# poset.strongly_chordal_poset is the one gate of label and poset: it runs
# the ladder and lifts a sun to a crown, so no command names these
GATE_NAMES = {"crown_from_sun", "maximal_cliques", "strongly_chordal_obstruction"}


def _raised_names(tree):
    """The name of every class or call that a `raise` statement raises."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_commands_take_rejections_from_the_one_ladder():
    # strong_chordal.strongly_chordal_obstruction decides chordless cycle or
    # sun for label and poset alike; neither codes the decision again
    found = set()
    for path in SOURCES:
        for scope, name in _names_by_scope(ast.parse(path.read_text(), str(path))):
            if name in LADDER_NAMES | GATE_NAMES:
                found.add(f"{path.name}:{name}")
    commands = sorted(f for f in found if f.split(":")[0] in ("construct.py", "cli.py"))
    # cli's exponents has already found no PEO, where the ladder's first rung
    # is find_chordless_cycle itself, so it calls that rung and no sun search
    assert commands == ["cli.py:find_chordless_cycle"]
    assert {"strong_chordal.py:find_chordless_cycle", "strong_chordal.py:find_sun",
            "poset.py:crown_from_sun", "poset.py:strongly_chordal_obstruction",
            } <= found  # the check still sees the ladder and the gate
    raising = {path.name for path in SOURCES
               if "NotStronglyChordalError" in _raised_names(
                   ast.parse(path.read_text(), str(path)))}
    assert raising == {"poset.py"}


def test_only_the_cli_entry_exits_hard():
    # os._exit skips every finally block and unflushed buffer; from a library
    # module it would end pytest or any other caller
    found = set()
    for path in SOURCES:
        for scope, name in _names_by_scope(ast.parse(path.read_text(), str(path))):
            if name == "_exit":
                found.add(f"{path.name}:{scope}")
    assert found == {"cli.py:entry"}


def test_construct_reads_mat_peos_off_the_top_edge():
    # a MAT-labeled clique's greedy MAT-PEO peels the ends of its top edges
    # (the lemma of construct._mat_peo), so the constructor needs no search
    # for MAT-simplicial vertices
    path = next(p for p in SOURCES if p.name == "construct.py")
    names = {name for _, name in _names_by_scope(ast.parse(path.read_text(), str(path)))}
    assert names & {"find_mat_peo", "peel"} == set()
    assert "_mat_peo" in names  # the check still sees the constructor's MAT-PEOs


def test_the_exhaustive_search_imports_only_its_inputs_and_bound():
    # brute is the independent existence oracle: it takes the graph and the
    # labeling type, and its label bound (omega - 1 on a chordal graph) is
    # the largest PEO exponent; any other import could share a fault with
    # the code it checks
    path = Path(__file__).with_name("brute.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {f"{'.' * node.level}{node.module}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert imported == {"matlabel.graph.Graph", "matlabel.labeling.EdgeLabeling",
                        "matlabel.chordal.peo_exponents"}


def test_every_labeling_is_checked_by_its_constructor():
    # EdgeLabeling.__init__ is the one owner of the entry and domain checks:
    # no module builds an instance around it, and the labeling reader does
    # not test edges against the graph's adjacency itself
    found = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and node.attr == "__new__"
                    and isinstance(node.value, ast.Name) and node.value.id == "object"):
                found.add(f"{path.name}:{node.lineno} object.__new__")
            elif isinstance(node, ast.FunctionDef) and node.name == "_from_table":
                found.add(f"{path.name}:{node.lineno} def _from_table")
            elif (isinstance(node, ast.Attribute) and node.attr == "_adj"
                    and path.name == "io.py"):
                found.add(f"{path.name}:{node.lineno} ._adj")
    assert "io.py" in {path.name for path in SOURCES} and sorted(found) == []


def _benchmark_spans() -> dict[str, list[str]]:
    """clibench/layers.py's SPANS: layer module -> the functions it wraps."""
    layers = Path(__file__).resolve().parents[1] / "clibench" / "layers.py"
    tree = ast.parse(layers.read_text(), str(layers))
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets] == ["SPANS"])


def test_traced_benchmark_spans_resolve():
    # clibench/layers.py wraps matlabel.<layer>.<name> for its traced runs;
    # a renamed or moved function would break `run.py --trace 1`
    import importlib

    spans = _benchmark_spans()
    missing = [f"{layer}.{name}" for layer, names in spans.items() for name in names
               if not callable(getattr(importlib.import_module(f"matlabel.{layer}"),
                                       name, None))]
    assert spans and missing == []


def test_library_import_of_the_cli_loads_every_spanned_layer():
    # layers.py finds each layer in sys.modules after `import matlabel.cli`;
    # the commands import their layers lazily, so the module loads them all
    import subprocess
    import sys

    src = str(Path(matlabel.__file__).resolve().parents[1])
    code = ("import sys, matlabel.cli; "
            "print(' '.join(m for m in sys.modules if m.startswith('matlabel.')))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=60, cwd=src)
    loaded = set(done.stdout.split())
    assert {f"matlabel.{layer}" for layer in _benchmark_spans()} - loaded == set()


def test_construct_verifies_only_inputs_and_the_result():
    # the label table is verified once, as a whole; public merge and
    # extension verify their inputs; nothing on the table build re-verifies
    path = next(p for p in SOURCES if p.name == "construct.py")
    calls: dict[str, set] = {}
    for scope, name in _called_by_scope(ast.parse(path.read_text(), str(path))):
        calls.setdefault(scope, set()).add(name)
    direct = {scope for scope, names in calls.items() if "verify_mat_labeling" in names}
    assert direct == {"construct_mat_labeling", "_require_valid_complete"}
    reaching = set(direct)
    while True:
        more = {scope for scope, names in calls.items() if names & reaching} - reaching
        if not more:
            break
        reaching |= more
    assert reaching == direct | {"merge_complete", "extend_labeling_complete"}


def _called_by_scope(tree):
    """(top-level function or "<module>", called name) for every call."""
    for top in tree.body:
        scope = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
        for node in ast.walk(top):
            if isinstance(node, ast.Call):
                yield scope, _called_name(node.func)


# the public parameters with defaults: each is set to another value by some
# caller (a command option, a seed, a vertex list), while a value no caller
# changes is a constant; so a new knob needs a deliberate edit here
DEFAULTED_PARAMETERS = {
    "cli.main(argv)",
    "construct.extend_labeling_complete(vertices)",
    "graph.Graph.__init__(edges)", "graph.Graph.__init__(vertices)",
    "oracle.enumerate_graphs(connected)", "oracle.enumerate_graphs(predicate)",
}


# the command line's surface, pinned as the parameters above are: a new
# command or option is a deliberate edit
COMMANDS = {"classify", "label", "verify", "exponents", "poset"}
OPTIONS = {"--out", "--dot"}


def test_the_commands_and_options_are_pinned():
    assert set(cli._COMMANDS) == COMMANDS
    assert set(cli._OPTIONS) == OPTIONS


def _public_functions(tree):
    """(qualified name, def) for each public function, public method and
    constructor of a public class."""
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and not top.name.startswith("_"):
            yield top.name, top
        elif isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
            for node in top.body:
                if isinstance(node, ast.FunctionDef) and (
                        node.name == "__init__" or not node.name.startswith("_")):
                    yield f"{top.name}.{node.name}", node


def test_public_parameters_with_defaults_are_pinned():
    found = set()
    for path in SOURCES:
        for name, node in _public_functions(ast.parse(path.read_text(), str(path))):
            args = node.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            found |= {f"{path.stem}.{name}({a.arg})" for a in defaulted}
    assert found == DEFAULTED_PARAMETERS


def test_json_is_decoded_in_one_mode():
    # every document decodes each object as the tuple of its (key, value)
    # pairs, and its reader checks the keys: one decode mode, no hook of
    # our own to call per object; the tuple subclass only changes how an
    # error message shows the object, and defines no constructor
    calls = [node for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "loads" and getattr(node.func.value, "id", None) == "json"]
    assert len(calls) == 1
    hooks = [k.value for k in calls[0].keywords if k.arg == "object_pairs_hook"]
    assert len(hooks) == 1 and isinstance(hooks[0], ast.Name)
    hook = getattr(io, hooks[0].id)
    assert hook.__bases__ == (tuple,)
    assert set(vars(hook)) <= {"__module__", "__qualname__", "__doc__", "__slots__",
                               "__repr__"}
