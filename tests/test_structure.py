"""Layout ownership: the Toeplitz generator WeightMatrix.gen has one
reader, weights.py, and np.fft one caller, weights._fft_convolve.  Every
other module goes through WeightMatrix.row_blocks, p_column, matmul or
abs_row_sums, so the generator's layout is spelled out in one place, and
only weights.py names the block height ROWS.  The sweeps share one
in-place contract: they return nothing.  And solver._fill_rhs is the one
place that calls a problem's rhs and turns its failure into
RhsEvaluationError: the Gauss-Seidel sweep hands it the updated rows
rather than keeping a copy of that loop.  In the CLI, cli._grids alone
builds the problem and the grids, before any command opens its output, and
a RunConfig is built once, never assigned to or validated afterwards, and
is the only check of a configuration value.  A grid's nodes are mapped in
one place, DEGrid.__post_init__, so they follow from its interval, N and h
alone.  No module imports a name it neither reads nor exports."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "desinc"


def _uses(pred, kind=ast.Attribute):
    """(file, enclosing function) for every node of type kind that pred
    accepts, over the package's modules."""
    found = set()

    def walk(node, fn, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                walk(child, child.name, path)
            else:
                if isinstance(child, kind) and pred(child):
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


def _wraps_rhs_failure(node):
    """Whether an except clause of the try statement node raises
    RhsEvaluationError."""
    return any(isinstance(r, ast.Raise) and isinstance(r.exc, ast.Call)
               and getattr(r.exc.func, "id", None) == "RhsEvaluationError"
               for handler in node.handlers for r in ast.walk(handler))


def test_only_fill_rhs_calls_the_rhs():
    assert _uses(lambda a: a.attr == "rhs") == {("solver.py", "_fill_rhs")}
    assert _uses(_wraps_rhs_failure, kind=ast.Try) == {("solver.py", "_fill_rhs")}


def test_only_grids_builds_the_cli_problem_and_grids():
    callers = _uses(lambda c: getattr(c.func, "id", None) in ("problem_from_name", "build_grid"),
                    kind=ast.Call)
    assert {fn for path, fn in callers if path == "cli.py"} == {"_grids"}


def test_cli_builds_its_config_once():
    # RunConfig checks itself when built, so assigning a field after the
    # checks, or checking again, would let a bad value through or repeat them
    calls = _uses(lambda c: getattr(c.func, "id", None) == "setattr"
                  or getattr(c.func, "attr", None) == "validate", kind=ast.Call)
    assert {fn for path, fn in calls if path == "cli.py"} == set()


def test_only_grid_maps_the_nodes():
    callers = _uses(lambda c: getattr(c.func, "id", getattr(c.func, "attr", None))
                    in ("phi_de", "dphi_de"), kind=ast.Call)
    assert callers == {("grid.py", "__post_init__")}


def test_no_unused_imports():
    # a check deleted with its import left behind shows up here
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, ast.Import)
                    or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                    for alias in node.names if alias.name != "*"}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        exported = {elt.value for node in tree.body if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)
                    for elt in getattr(node.value, "elts", [])}
        unused |= {(path.name, name) for name in imported - read - exported}
    assert unused == set()
