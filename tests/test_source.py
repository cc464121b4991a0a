"""Rules on the library source itself."""

import ast
import pathlib

import tracegen

SRC = pathlib.Path(tracegen.__file__).resolve().parent


def test_library_has_no_assert():
    # `python -O` strips assert statements, so a library check must raise a
    # typed TracegenError to behave the same with and without -O
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
