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


def test_only_chain_reads_the_cdf_layout():
    # the compact CDF's layout (cumulative values, columns, each state's row
    # bounds, the search's top stride, the scalar walk's tables; the row
    # offsets and row index of earlier layouts) is known to chain.py alone;
    # others call its kernels
    layout = {"P_cum", "cols", "lo", "hi", "_top_stride", "starts", "row_of",
              "walk_tables", "_walk_tables"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "chain.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in layout:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Constant) and isinstance(node.value, complex):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
    assert found == []
