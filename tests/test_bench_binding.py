"""The benchmark's binding of desinc's names.

bench/tracer.py wraps the functions it lists in TRACED by name, and
bench/run.py:consistency checks per-call equalities on what it records
(sweep spans, rhs calls, j_kernel and si calls).  A change under src/ that
renames or deletes a traced function, or changes how many calls those
equalities count, fails here and not only in bench/selftest.py.  bench/ is
imported, never edited.
"""

import csv
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

import desinc
import desinc.cli

BENCH = Path(__file__).resolve().parent.parent / "bench"
# run.py imports its sibling module speed
sys.path.append(str(BENCH))
# cmd_trace solves a 10-sweep Gauss-Seidel reference before the trace
REFERENCE_SWEEPS = 10


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


bench_run = _load("run")
bench_tracer = _load("tracer")


@pytest.mark.parametrize("layer, name", bench_tracer.TRACED, ids=lambda v: v)
def test_traced_name_is_a_function(layer, name):
    assert inspect.isfunction(getattr(importlib.import_module(f"desinc.{layer}"), name, None))


def _rows(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


def test_traced_calls_satisfy_consistency(tmp_path):
    tracer = bench_tracer.Tracer()
    tracer.install(desinc)
    tracer.recording = True
    reported = 0
    try:
        for method in ("gauss_seidel", "jacobi"):
            out = tmp_path / f"solve-{method}.csv"
            assert desinc.cli.main(["solve", "--n", "8", "--method", method,
                                    "--out", str(out)]) == 0
            reported += int(_rows(out)[1][3])
        out = tmp_path / "trace.csv"
        assert desinc.cli.main(["trace", "--n", "8", "--max-sweeps", "3", "--out", str(out)]) == 0
        reported += REFERENCE_SWEEPS + len(_rows(out)) - 1
        assert desinc.cli.main(["analyze", "--n", "8", "--out", str(tmp_path / "a.csv")]) == 0
        # the module attributes, not names bound in this test, are traced
        tp = desinc.problems.problem_from_name("example1")
        sol, trace = desinc.solve(tp.problem, desinc.build_grid(tp.problem.iv, 8))
        reported += len(trace.z_norms)
        desinc.evaluate(sol, 0.2)
    finally:
        tracer.recording = False
        tracer.uninstall()
    counters = tracer.counters()
    assert bench_run.consistency(counters, reported) == []
    # every solve builds its own weights: one per solve command, two for
    # trace (its reference and its traced solve), one for analyze and one
    # for the direct solve
    assert counters["build_weights_n"] == [8] * 6
    # the equalities hold trivially on spans that were never recorded
    for span in ("problems.rhs", "special.si", "special.j_kernel", "solver.solve",
                 "solver.gauss_seidel_sweep", "solver.jacobi_sweep", "analysis.analyze"):
        assert counters["calls"].get(span, 0) > 0, span


def test_uninstall_restores_the_package_namespace():
    # the package republishes problem_from_name, so install rebinds it
    # there as well as in problems and cli
    before = dict(vars(desinc))
    tracer = bench_tracer.Tracer()
    tracer.install(desinc)
    try:
        assert desinc.problem_from_name is not before["problem_from_name"]
    finally:
        tracer.uninstall()
    after = vars(desinc)
    assert after.keys() == before.keys()
    assert [name for name, val in before.items() if after[name] is not val] == []
