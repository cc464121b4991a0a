"""Rules on the library source itself."""

import ast
import importlib
import pathlib

import tracegen
from tracegen.chain import CliqueChain
from tracegen.monoid import CliqueFamily

SRC = pathlib.Path(tracegen.__file__).resolve().parent
REPLAY = pathlib.Path(__file__).resolve().parents[1] / "bench" / "replay.py"


def test_library_has_no_assert():
    # `python -O` strips assert statements, so a library check must raise a
    # typed TracegenError to behave the same with and without -O
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _tolerance_block():
    """counting.py's parsed tree and the line numbers of its tolerance block."""
    source = (SRC / "counting.py").read_text(encoding="utf-8")
    block = source[:source.index("# -- numeric tolerances")].count("\n") + 1
    tree = ast.parse(source)
    end = next(n.lineno for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef)))
    return tree, range(block + 1, end)


def test_every_tolerance_is_read():
    # a constant of counting.py's tolerance block that no module reads is a
    # leftover of a numeric method that is gone
    tree, block = _tolerance_block()
    names = {t.id for n in tree.body if isinstance(n, ast.Assign) and n.lineno in block
             for t in n.targets}
    read = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    assert len(names) > 1 and names - read == set()


def test_every_small_float_is_in_the_tolerance_block():
    # a float literal below 1e-6 is a tolerance or a guard against underflow,
    # so it is named in counting.py's block, not written where it is used
    _, block = _tolerance_block()
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and 0.0 < abs(node.value) < 1e-6
                    and not (path.name == "counting.py" and node.lineno in block)):
                found.append(f"{path.name}:{node.lineno} {node.value!r}")
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


# the one function that may read the dense n x n CliqueFamily.admissibility:
# the dense transition matrix
DENSE_READERS = {("chain.py", "transition_matrix")}


def test_only_dense_references_read_admissibility():
    # every other reader reads the family's compressed follow rows
    # (FollowClasses.columns), so no CLI path forms the n x n matrix
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        for func in ast.walk(tree):
            if isinstance(func, ast.FunctionDef) and (path.name, func.name) in DENSE_READERS:
                allowed |= {id(n) for n in ast.walk(func)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "admissibility"
                    and isinstance(node.ctx, ast.Load) and id(node) not in allowed):
                found.append(f"{path.name}:{node.lineno} .admissibility")
    assert found == []


BLAS_NAMES = {"dot", "matmul", "einsum", "inner", "vdot", "tensordot", "linalg"}


def test_library_makes_no_blas_call():
    # a BLAS product rounds by how OpenBLAS splits it over threads, so no
    # printed digit may rest on one: no @, no dot-like call, nothing of np.linalg
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.append(f"{path.name}:{node.lineno} @")
            elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
                found.append(f"{path.name}:{node.lineno} {node.id}")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
                if BLAS_NAMES & {part for name in names for part in name.split(".")}:
                    found.append(f"{path.name}:{node.lineno} import")
    assert found == []


def _is_stdout(node):
    return (isinstance(node, ast.Attribute) and node.attr == "stdout"
            and isinstance(node.value, ast.Name) and node.value.id == "sys")


def test_only_cli_main_writes_stdout():
    # a command returns its lines and cli.main alone writes them, so a command
    # that fails anywhere leaves stdout empty; print must name another file
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        allowed = set()
        if path.name == "cli.py":
            main = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main")
            allowed = {id(n) for n in ast.walk(main)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or id(node) in allowed:
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "print":
                file = next((k.value for k in node.keywords if k.arg == "file"), None)
                if file is None or _is_stdout(file):
                    found.append(f"{path.name}:{node.lineno} print")
            elif isinstance(func, ast.Attribute) and _is_stdout(func.value):
                found.append(f"{path.name}:{node.lineno} sys.stdout.{func.attr}")
    assert found == []


def test_replay_entry_points_resolve():
    # bench/replay.py swaps these names for traced wrappers, so a rename in
    # src/tracegen must not leave one behind; the file is parsed, not imported
    tree = ast.parse(REPLAY.read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: f"{node.module}.{alias.name}"
               for node in tree.body if isinstance(node, ast.ImportFrom)
               and node.module == "tracegen" for alias in node.names}
    entries = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                   and getattr(node.targets[0], "id", None) == "ENTRY_POINTS")
    missing = []
    for entry in entries.elts:
        mod, attr = entry.elts[0].id, entry.elts[1].value
        if not hasattr(importlib.import_module(modules[mod]), attr):
            missing.append(f"{modules[mod]}.{attr}")
    assert len(entries.elts) > 0 and missing == []
    # the admissibility property it wraps, the slot that property fills, and
    # the dense transitions it prices
    assert isinstance(CliqueFamily.admissibility, property)
    assert "_adm" in CliqueFamily.__slots__
    assert hasattr(CliqueChain, "P")


# sampling.py's owners of the batched stream's layout (one (batch, steps)
# draw per component, skipped over by Philox's counter): the chunk walk and
# the positioned copies it reads; with the subuniform draws, the only readers
# of a generator's uniforms there
STREAM_OWNERS = {"_positioned", "_walk_chunks"}
UNIFORM_READERS = STREAM_OWNERS | {"_block_uniforms", "sample_subuniform_trace"}


def _moves_a_generator(node):
    return node.attr == "advance" or (node.attr == "state" and isinstance(node.ctx, ast.Store))


def test_one_owner_of_the_batched_stream():
    # a whole-batch draw put back anywhere, or a generator moved outside the
    # chunk walk, would lay the stream out a second way
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        reads, moves = set(), set()
        if path.name == "sampling.py":
            for func in tree.body:
                if isinstance(func, ast.FunctionDef) and func.name in UNIFORM_READERS:
                    reads |= {id(n) for n in ast.walk(func)}
                if isinstance(func, ast.FunctionDef) and func.name in STREAM_OWNERS:
                    moves |= {id(n) for n in ast.walk(func)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            if _moves_a_generator(node) and id(node) not in moves:
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
            elif (path.name == "sampling.py" and node.attr == "random" and id(node) not in reads
                    and not (isinstance(node.value, ast.Name) and node.value.id == "np")):
                found.append(f"{path.name}:{node.lineno} .random")
    assert found == []
