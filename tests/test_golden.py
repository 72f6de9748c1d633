"""CLI outputs compared with golden files in tests/data/golden/.

dump-weights is compared byte for byte.  For solve, the N, h, sweeps and
converged columns must match exactly and E1 to 1e-15 absolute, because
the BLAS dot products behind the sweeps may sum in another order on
another host.  For trace, nu must match exactly and E2 and z_norm to the
same 1e-15 absolute.  For analyze, the float columns must match to 1e-15
relative and the boolean and empty cells exactly, and mgs_norm must also
agree with the dense-inverse oracle.

The golden files are written by running this file as a script,
    PYTHONPATH=src python tests/test_golden.py [NAME ...]
which is only done when an output is meant to change.  Each NAME is a file
name from CASES, and only those files are rewritten; with no NAME every
file is.
"""

from __future__ import annotations

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import desinc
from desinc.cli import main
from desinc.grid import build_grid
from desinc.problems import problem_from_name
from desinc.weights import build_weights

from oracles import dense_weights, mgs_norm_dense

GOLDEN = Path(__file__).parent / "data" / "golden"

PROBLEMS = ["example1", "example2:n=11", "example3", "lv:m=3:seed=5"]
SOLVE_N = "8,16,64"
ANALYZE_PROBLEMS = ["example1", "example2:n=11"]
ANALYZE_N = "4,8,16,64"
ANALYZE_EXACT = ("N", "mgs_bound", "contraction", "cond_iii_ok", "cond_lbound_ok")
TRACE_PROBLEMS = ["example1", "lv:m=3:seed=5"]
# command -> (columns compared exactly, columns compared to 1e-15 absolute)
_EXACT_AND_ABS = {
    "solve": (("N", "h", "sweeps", "converged"), ("E1",)),
    "trace": (("nu",), ("E2", "z_norm")),
}

# golden file name -> CLI arguments, without --out
CASES = {
    "dump-weights_example1_N8.csv": ["dump-weights", "--problem", "example1", "--n", "8"],
    "dump-weights_example3_N8.csv": ["dump-weights", "--problem", "example3", "--n", "8"],
    **{f"solve_{p.replace(':', '_').replace('=', '')}_{method}.csv":
       ["solve", "--problem", p, "--method", method, "--n", SOLVE_N]
       for p in PROBLEMS for method in ["gauss_seidel", "jacobi"]},
    **{f"analyze_{p.replace(':', '_').replace('=', '')}.csv":
       ["analyze", "--problem", p, "--n", ANALYZE_N] for p in ANALYZE_PROBLEMS},
    **{f"trace_{p.replace(':', '_').replace('=', '')}_{method}.csv":
       ["trace", "--problem", p, "--method", method, "--n", "64", "--max-sweeps", "10"]
       for p in TRACE_PROBLEMS for method in ["gauss_seidel", "jacobi"]},
}


def _run(argv: list[str], out: Path) -> str:
    assert main(argv + ["--out", str(out)]) == 0
    return out.read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_matches_golden(name, tmp_path):
    got = _run(CASES[name], tmp_path / name)
    want = (GOLDEN / name).read_text(encoding="utf-8")
    if CASES[name][0] == "dump-weights":
        assert got == want
        return
    got_rows = list(csv.DictReader(got.splitlines()))
    want_rows = list(csv.DictReader(want.splitlines()))
    assert len(got_rows) == len(want_rows)
    for g, w in zip(got_rows, want_rows):
        assert g.keys() == w.keys()
        if CASES[name][0] == "analyze":
            _check_analyze_row(CASES[name][2], g, w)
            continue
        exact, close = _EXACT_AND_ABS[CASES[name][0]]
        for key in exact:
            assert g[key] == w[key], key
        for key in close:
            assert abs(float(g[key]) - float(w[key])) <= 1e-15, key


def _check_analyze_row(problem: str, got: dict, want: dict) -> None:
    for key in got:
        if key in ANALYZE_EXACT or not want[key]:
            assert got[key] == want[key], key
        else:
            assert float(got[key]) == pytest.approx(float(want[key]), rel=1e-15, abs=0), key
    # an independent oracle, so that the golden file is not the only gate
    prob = problem_from_name(problem).problem
    w = dense_weights(build_weights(build_grid(prob.iv, int(got["N"]))))
    assert float(got["mgs_norm"]) == pytest.approx(mgs_norm_dense(w, prob.lip), rel=1e-12)


def test_script_rejects_unknown_name():
    # a misspelt name must not fall back to rewriting every golden file
    src = str(Path(desinc.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    before = {p.name: p.stat().st_mtime_ns for p in GOLDEN.iterdir()}
    out = subprocess.run([sys.executable, __file__, "dump-weights_example1_N8.csv", "no-such.csv"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert "no-such.csv" in out.stderr
    assert {p.name: p.stat().st_mtime_ns for p in GOLDEN.iterdir()} == before


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        sys.exit(f"unknown golden file(s): {', '.join(unknown)}")
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in names:
        _run(CASES[name], GOLDEN / name)
