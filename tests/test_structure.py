"""Layout ownership: the Toeplitz generator WeightMatrix.gen has one
reader, weights.py, and np.fft one caller, weights._fft_convolve.  Every
other module goes through WeightMatrix.row_blocks, p_column, matmul or
abs_row_sums, so the generator's layout is spelled out in one place, and
only weights.py names the block height ROWS.  The sweeps share one
in-place contract: they return nothing.  And the rhs call/check/store
body that gauss_seidel_sweep inlines stays the one in _fill_rhs."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "desinc"


def _uses(pred):
    """(file, enclosing function) for every attribute node that pred
    accepts, over the package's modules."""
    found = set()

    def walk(node, fn, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name, path)
            else:
                if isinstance(child, ast.Attribute) and pred(child):
                    found.add((path.name, fn))
                walk(child, fn, path)

    for path in sorted(SRC.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), None, path)
    return found


def test_only_weights_reads_the_generator():
    readers = _uses(lambda a: a.attr == "gen" and isinstance(a.ctx, ast.Load))
    assert readers and {path for path, _ in readers} == {"weights.py"}


def test_only_fft_convolve_calls_numpy_fft():
    callers = _uses(lambda a: a.attr == "fft" and isinstance(a.value, ast.Name)
                    and a.value.id == "np")
    assert callers == {("weights.py", "_fft_convolve")}


def test_sweeps_return_no_value():
    tree = ast.parse((SRC / "solver.py").read_text(encoding="utf-8"))
    sweeps = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
              and node.name in ("jacobi_sweep", "gauss_seidel_sweep")}
    assert sorted(sweeps) == ["gauss_seidel_sweep", "jacobi_sweep"]
    for name, fn in sweeps.items():
        returns = [r.lineno for r in ast.walk(fn) if isinstance(r, ast.Return) and r.value]
        assert not returns, f"{name} returns a value at line(s) {returns}"


def test_only_weights_names_the_block_height():
    names = {path.name for path in SRC.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Name) and node.id == "ROWS"
             or isinstance(node, ast.Attribute) and node.attr == "ROWS"
             or isinstance(node, ast.alias) and node.name == "ROWS"}
    assert names == {"weights.py"}


def test_gauss_seidel_inlines_the_rhs_body_of_fill_rhs():
    tree = ast.parse((SRC / "solver.py").read_text(encoding="utf-8"))
    fns = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    bodies = []
    for name in ("_fill_rhs", "gauss_seidel_sweep"):
        tries = [node for node in ast.walk(fns[name]) if isinstance(node, ast.Try)]
        assert len(tries) == 1, f"{name} has {len(tries)} try statements"
        bodies.append(ast.dump(tries[0]))
    assert bodies[0] == bodies[1]
