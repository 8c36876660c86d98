"""Source-level rules for the library modules."""

import ast
from pathlib import Path

import matlabel

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
    "brute.py:_clique_number.grow",
    "brute.py:_Search.run",
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
