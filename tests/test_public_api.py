"""The public surface: every exported name resolves, the package
republishes each library submodule's names, the README quick start runs,
no constructor or function takes a size that its array arguments already
fix, and every entry point rejects a bad or non-numeric positive-finite,
nonnegative-finite or integer-count input with a ValueError that names it,
with a row for every numeric parameter."""

import importlib
import inspect
import math
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import desinc
from desinc import (DEGrid, Interval, IterationTrace, IVProblem, TodaState, analyze, build_grid,
                    build_weights, convergence_factor_observed, example1, example2, j_kernel,
                    lv_exact, lv_random, lv_rhs, mgs_bound, mgs_norm_exact, solve)
from desinc.cli import RunConfig

MODULES = [desinc] + [importlib.import_module(f"desinc.{info.name}")
                      for info in pkgutil.iter_modules(desinc.__path__)]
# every submodule but the command-line front end, in the package's order
LIBRARY = [desinc.analysis, desinc.grid, desinc.problems, desinc.solver, desinc.special,
           desinc.weights]
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("mod", MODULES, ids=lambda mod: mod.__name__)
def test_all_names_resolve(mod):
    assert mod.__all__
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_package_republishes_each_library_module():
    assert {mod.__name__ for mod in LIBRARY} | {"desinc.cli"} == {
        mod.__name__ for mod in MODULES[1:]}
    names = [name for mod in LIBRARY for name in mod.__all__]
    assert desinc.__all__ == names
    assert len(set(names)) == len(names)
    for mod in LIBRARY:
        for name in mod.__all__:
            assert getattr(desinc, name) is getattr(mod, name), name


def test_names_missing_from_the_old_package_list_import():
    # each is public in its module but was left out of the package's own
    # copy of the list, so importing it from desinc was an ImportError
    from desinc import RhsEvaluationError, lv_random, lv_rhs, problem_from_name  # noqa: F401


def _run_python(code: str) -> str:
    src = str(Path(desinc.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def test_import_leaves_cli_unloaded():
    assert _run_python("import sys, desinc; print('desinc.cli' in sys.modules)") == "False\n"


def test_readme_quick_start_runs():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    _run_python(code)


@pytest.mark.parametrize("obj", [IVProblem, TodaState, lv_exact], ids=lambda obj: obj.__name__)
def test_no_size_parameter(obj):
    # n is x_a.size and m is q.shape[-1]
    assert {"n", "m"}.isdisjoint(inspect.signature(obj).parameters)


# Every positive-finite, nonnegative-finite and integer-count parameter of
# the public entry points and of the CLI's RunConfig: (callable,
# parameter, the call with that parameter set to v).  The callable is only
# the test id, and the parameter is the name the error message gives.
IV = Interval(0.0, 0.5)
WM = build_weights(build_grid(IV, 4))
POSITIVE_FINITE = [
    ("IVProblem", "lip", lambda v: IVProblem(rhs=lv_rhs, x_a=1.0, iv=IV, lip=v)),
    ("IVProblem", "bound_m", lambda v: IVProblem(rhs=lv_rhs, x_a=1.0, iv=IV, bound_m=v)),
    ("IVProblem", "rho", lambda v: IVProblem(rhs=lv_rhs, x_a=1.0, iv=IV, rho=v)),
    ("build_grid", "h", lambda v: build_grid(IV, 4, h=v)),
    ("DEGrid", "h", lambda v: DEGrid(IV, 4, v)),
    ("mgs_norm_exact", "L", lambda v: mgs_norm_exact(WM, v)),
    ("analyze", "L", lambda v: analyze(WM, v)),
    ("mgs_bound", "L", lambda v: mgs_bound(v, IV, 0.3, 4)),
    ("mgs_bound", "h", lambda v: mgs_bound(1.0, IV, v, 4)),
    ("j_kernel", "h", lambda v: j_kernel(0, v, 0.0)),
    ("convergence_factor_observed", "z_norms",
     lambda v: convergence_factor_observed(IterationTrace(z_norms=[v, 0.1, 0.01, 1e-3]))),
    ("RunConfig", "tol", lambda v: RunConfig(tol=v)),
    ("RunConfig", "h", lambda v: RunConfig(h_override=v)),
]
NONNEGATIVE_FINITE = [
    ("solve", "tol", lambda v: solve(example1().problem, WM.grid, tol=v)),
]
COUNTS = [
    ("build_grid", "N", lambda v: build_grid(IV, v)),
    ("DEGrid", "N", lambda v: DEGrid(IV, v)),
    ("mgs_bound", "N", lambda v: mgs_bound(1.0, IV, 0.3, v)),
    ("lv_random", "m", lambda v: lv_random(v)),
    ("lv_random", "seed", lambda v: lv_random(3, seed=v)),
    ("example2", "n", lambda v: example2(v)),
    ("solve", "max_sweeps", lambda v: solve(example1().problem, WM.grid, max_sweeps=v)),
    ("RunConfig", "N", lambda v: RunConfig(n_list=[v])),
    ("RunConfig", "max-sweeps", lambda v: RunConfig(max_sweeps=v)),
]
NOT_NUMBERS = (True, "1", None, 1j, np.array([0.1, 0.2]))
# an int above the largest double: below math.inf, but float() of it raises
HUGE = 10**400
# the counts that size an array: a grid's 2N+1 float64 nodes must fit numpy's
# size limit, so N is at most 2**59 - 1
ARRAY_COUNTS = [row for row in COUNTS if row[:2] in {("build_grid", "N"), ("DEGrid", "N")}]

# The parameters with these names are the numeric inputs.  RunConfig's
# messages name three of its fields as the CLI's --n, --max-sweeps and --h
# do.
NUMERIC_NAMES = {"h", "L", "lip", "bound_m", "rho", "tol", "N", "n", "m", "seed", "max_sweeps",
                 "h_override", "n_list"}
MESSAGE_NAMES = {("RunConfig", "n_list"): "N", ("RunConfig", "max_sweeps"): "max-sweeps",
                 ("RunConfig", "h_override"): "h"}


def numeric_parameters():
    """(callable, message name, default) of every parameter with a numeric
    name of the callables in desinc.__all__ and of RunConfig."""
    callables = [(name, getattr(desinc, name)) for name in desinc.__all__] + [
        ("RunConfig", RunConfig)]
    for name, obj in callables:
        for param in inspect.signature(obj).parameters.values():
            if param.name in NUMERIC_NAMES:
                yield name, MESSAGE_NAMES.get((name, param.name), param.name), param.default


# where None stands for the default, it is a valid value
NONE_IS_DEFAULT = {(name, param) for name, param, default in numeric_parameters()
                   if default is None}


@pytest.mark.parametrize("call, param, value", [
    pytest.param(call, param, value,
                 id=f"{name}-{param}-{'10**400' if value is HUGE else repr(value)}")
    for table, values in ((POSITIVE_FINITE, (math.nan, math.inf, 0.0, -1.0, HUGE) + NOT_NUMBERS),
                          (NONNEGATIVE_FINITE, (math.nan, math.inf, -1.0, HUGE) + NOT_NUMBERS),
                          (COUNTS, (8.0, 8.5, True, -1)), (ARRAY_COUNTS, (2**59, 2**62, HUGE)))
    for name, param, call in table for value in values
    if not (value is None and (name, param) in NONE_IS_DEFAULT)
])
def test_rejects_bad_input(call, param, value):
    # NaN and inf L made mgs_norm_exact and analyze return inf and mgs_bound
    # NaN, a NaN h made j_kernel NaN, N = 8.5 built a grid with m = 18.0, a
    # float max_sweeps, m or example2 n raised TypeError, a NaN z-norm was
    # skipped, a negative or float seed raised numpy's error and seed=True
    # was accepted; a bool L, h or tol was taken for 1, a string, None or
    # complex value raised TypeError and an array numpy's ambiguity error;
    # an int h, L, tol or grid N of 10**400 passed, and converting it to a
    # float raised OverflowError; a grid N of 2**59 raised numpy's "array is
    # too big", and one of 2**62 built a grid with no nodes
    with pytest.raises(ValueError, match=f"^{re.escape(param)}.* must be "):
        call(value)


def test_every_numeric_parameter_has_a_bad_input_row():
    rows = {(name, param) for table in (POSITIVE_FINITE, NONNEGATIVE_FINITE, COUNTS)
            for name, param, _ in table}
    missing = {(name, param) for name, param, _ in numeric_parameters()} - rows
    assert not missing, f"no row in the bad-input tables for {sorted(missing)}"
