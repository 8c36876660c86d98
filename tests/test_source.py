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
