"""The three benchmark workloads and the checks on their outputs.

Each workload is a closed loop with one client: an operation starts only
after the previous one returned.  ``prepare`` is the untimed preparation
that counts in ``setup_s``; ``run_pass`` runs one pass of the workload's
job list and returns one ``Op`` per timed call.  Every ``Op`` carries a
check that the harness runs after the pass, outside the timed region.
Every timed call sits between two host-speed probes (speed.py); the
summaries use the times scaled to the probe's reference speed.
"""

from __future__ import annotations

import csv
import math
import os
import statistics
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import oracle
import speed

# The seeded lv problems are drawn from lv:m=3:seed=0..7, all of which
# converge under both methods at every N used here.
LV_SEEDS = 8
SOLVE_PROBLEMS = ("example1", "example2:n=11", "example3")
SOLVE_NS = (64, 256, 1024)
SMALL_SOLVES = ("solve.N64", "solve.N256")
METHODS = ("gauss_seidel", "jacobi")
TRACE_N = 256
TRACE_SWEEPS = 10
# cmd_trace always computes a 10-sweep Gauss-Seidel reference first
REFERENCE_SWEEPS = 10
# every E1 on the seed is below 1e-13; a failed solve is orders above this
E1_TOL = 1e-11
EVAL_N = 1024
EVAL_PER_PASS = 20
EVAL_TOL = 1e-10
ANALYZE_JOBS = (("example1", (64, 256, 1024, 2048)), ("example2:n=11", (64, 256, 1024)))
ORACLE_MAX_N = 256
MGS_RTOL = 1e-10
DUMP_PROBLEM = "example1"
DUMP_N = 256
DUMP_ATOL = 1e-15


@dataclass
class Op:
    """One timed operation.  check() returns None when the output is
    correct, else a description of what is wrong."""

    kind: str
    seconds: float
    norm_s: float  # seconds scaled to the probe's reference speed
    check: Callable[[], str | None]
    path: str | None = None  # file the operation wrote, if any


@dataclass
class PassResult:
    ops: list[Op]
    # sweeps the pass's own outputs report; the traced run compares this
    # with the number of sweep spans it recorded
    reported_sweeps: Callable[[], int] = field(default=lambda: 0)

    @property
    def wall_s(self) -> float:
        """Raw time of the pass's timed calls, probes left out."""
        return sum(op.seconds for op in self.ops)

    @property
    def norm_wall_s(self) -> float:
        return sum(op.norm_s for op in self.ops)


def lv_spec(seed: int) -> str:
    lv_seed = int(np.random.default_rng(seed).integers(LV_SEEDS))
    return f"lv:m=3:seed={lv_seed}"


def _run_cli(desinc_cli, argv: list[str]) -> int:
    try:
        return desinc_cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        return exc.code if isinstance(exc.code, int) else 2


def _read_csv(path: str) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


class _CliWorkload:
    """Shared plumbing for the workloads that drive desinc.cli.main."""

    prepared_sweeps = 0  # prepare() runs no solver
    probe = staticmethod(speed.probe)

    def __init__(self, desinc, seed: int, out_dir: str):
        self.desinc = desinc
        self.seed = seed
        self.out_dir = out_dir
        self.speed = speed.Speed(self.probe)

    def _call(self, ops: list[Op], kind: str, argv: list[str], path: str, check,
              sp: speed.Speed | None = None) -> None:
        """Time one CLI call between probes of sp (default: the workload's)."""
        def call():
            try:
                return _run_cli(self.desinc.cli, argv + ["--out", path]), None
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                return None, f"{type(exc).__name__}: {exc}"

        (rc, error), seconds, norm_s = (sp or self.speed).timed(call)

        def checked():
            if error is not None:
                return error
            if rc != 0:
                return f"exit code {rc}"
            return check(path)

        ops.append(Op(kind=kind, seconds=seconds, check=checked, path=path, norm_s=norm_s))


class SolveSweep(_CliWorkload):
    """The paper's E1(N) table: `desinc solve` for every problem, N and
    method, one N per call, plus one `desinc trace` per problem."""

    name = "solve-sweep"

    def prepare(self) -> None:
        # each CLI call builds its own problem; building them here once
        # puts problem construction in setup_s and rejects a bad name early
        self.problems = SOLVE_PROBLEMS + (lv_spec(self.seed),)
        for spec in self.problems:
            self.desinc.problems.problem_from_name(spec)

    def run_pass(self) -> PassResult:
        ops: list[Op] = []
        sweeps: list[int] = []
        self.speed.reprobe()
        for p, spec in enumerate(self.problems):
            for n in SOLVE_NS:
                for method in METHODS:
                    path = os.path.join(self.out_dir, f"solve-{p}-{n}-{method}.csv")
                    self._call(ops, f"solve.N{n}",
                               ["solve", "--problem", spec, "--n", str(n), "--method", method],
                               path, lambda path, n=n: _check_solve(path, n, sweeps))
            path = os.path.join(self.out_dir, f"trace-{p}.csv")
            self._call(ops, "trace",
                       ["trace", "--problem", spec, "--n", str(TRACE_N),
                        "--max-sweeps", str(TRACE_SWEEPS)],
                       path, lambda path: _check_trace(path, sweeps))
        return PassResult(ops=ops, reported_sweeps=lambda: sum(sweeps))

    @staticmethod
    def summary(passes: list[PassResult]) -> dict:
        def rate(n):
            secs = [op.norm_s for p in passes for op in p.ops if op.kind == f"solve.N{n}"]
            return len(secs) / sum(secs)

        r64, r1024 = rate(64), rate(1024)
        return {"wall_s": (statistics.median(p.norm_wall_s for p in passes), "s"),
                "fast_op_ms": (1e3 * _median_small_call(passes, SMALL_SOLVES), "ms"),
                "slow_op_ms": (1e3 / r1024, "ms"),
                "solves_per_s.N64": (r64, "1/s"), "solves_per_s.N1024": (r1024, "1/s")}


def _median_small_call(passes: list[PassResult], kinds) -> float:
    """Median over passes of the mean scaled time of a call of the given
    kinds."""
    return statistics.median(statistics.mean(op.norm_s for op in p.ops if op.kind in kinds)
                             for p in passes)


def _check_solve(path: str, n: int, sweeps: list[int]) -> str | None:
    rows = _read_csv(path)
    if rows[0] != ["N", "h", "E1", "sweeps", "converged"] or len(rows) != 2:
        return f"unexpected solve CSV layout {rows[:2]}"
    N, h, e1, nsweeps, converged = rows[1]
    sweeps.append(int(nsweeps))
    if int(N) != n or not math.isclose(float(h), math.log(n) / n, rel_tol=1e-15):
        return f"row is for N={N}, h={h}, expected N={n}"
    if converged != "true":
        return "not converged"
    if not float(e1) <= E1_TOL:
        return f"E1 = {e1} above {E1_TOL}"
    return None


def _check_trace(path: str, sweeps: list[int]) -> str | None:
    rows = _read_csv(path)
    if rows[0] != ["nu", "E2", "z_norm"] or len(rows) != TRACE_SWEEPS + 1:
        return f"unexpected trace CSV layout ({len(rows)} rows)"
    sweeps.append(REFERENCE_SWEEPS + len(rows) - 1)
    body = rows[1:]
    if [int(r[0]) for r in body] != list(range(1, TRACE_SWEEPS + 1)):
        return "nu column is not 1..10"
    values = [float(v) for r in body for v in r[1:]]
    if not all(math.isfinite(v) for v in values):
        return "non-finite E2 or z_norm"
    # sweep 10 of the traced Gauss-Seidel run is the reference itself
    if not float(body[-1][1]) <= 1e-12:
        return f"final E2 = {body[-1][1]}"
    return None


class DenseOutput:
    """Plotting the continuous solution: every problem is solved once at
    N=1024 in set-up, then evaluate(sol, t) runs at seeded random t."""

    name = "dense-output"

    def __init__(self, desinc, seed: int, out_dir: str):
        self.desinc = desinc
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.prepared_sweeps = 0
        self.speed = speed.Speed()

    def prepare(self) -> None:
        d = self.desinc
        self.cases = []
        self.prepared_sweeps = 0
        for spec in SOLVE_PROBLEMS + (lv_spec(self.seed),):
            tp = d.problems.problem_from_name(spec)
            grid = d.build_grid(tp.problem.iv, EVAL_N)
            sol, trace = d.solve(tp.problem, grid)
            self.prepared_sweeps += len(trace.z_norms)
            self.cases.append((tp, sol))

    def run_pass(self) -> PassResult:
        evaluate = self.desinc.evaluate
        jobs = []
        for k in range(EVAL_PER_PASS):
            tp, sol = self.cases[k % len(self.cases)]
            jobs.append((tp, sol, float(self.rng.uniform(tp.problem.iv.a, tp.problem.iv.b))))
        def call(sol, t):
            try:
                return evaluate(sol, t), None
            except Exception as exc:
                return None, f"{type(exc).__name__}: {exc}"

        ops: list[Op] = []
        self.speed.reprobe()
        for tp, sol, t in jobs:
            (y, error), seconds, norm_s = self.speed.timed(lambda: call(sol, t))
            ops.append(Op(kind="eval", seconds=seconds, norm_s=norm_s,
                          check=lambda tp=tp, t=t, y=y, error=error: error or _check_eval(tp, t, y)))
        return PassResult(ops=ops)

    @staticmethod
    def summary(passes: list[PassResult]) -> dict:
        # The bound tail is the 95th percentile: over runs with different
        # seeds, the 99th, with about 30 calls beyond it, spread by 10%.
        ms = [op.norm_s * 1e3 for p in passes for op in p.ops]
        p50, p95, p99 = np.percentile(ms, [50, 95, 99])
        wall = statistics.median(p.norm_wall_s for p in passes)
        return {"wall_s": (wall, "s"), "fast_op_ms": (float(p50), "ms"),
                "slow_op_ms": (float(p95), "ms"),
                "eval_p50_ms": (float(p50), "ms"), "eval_p95_ms": (float(p95), "ms"),
                "eval_p99_ms": (float(p99), "ms"), "eval_samples": (len(ms), "count")}


def _check_eval(tp, t: float, y) -> str | None:
    ref = tp.exact(t)
    if np.shape(y) != np.shape(ref):
        return f"evaluate returned shape {np.shape(y)}, expected {np.shape(ref)}"
    err = float(np.max(np.abs(y - ref) / np.maximum(1.0, np.abs(ref))))
    if not err <= EVAL_TOL:
        return f"evaluate at t={t!r} is off by {err:.3e}"
    return None


class GsAnalysis(_CliWorkload):
    """The ||M_GS|| table: `desinc analyze` per problem and N, one N per
    call, plus one `desinc dump-weights`."""

    name = "gs-analysis"
    probe = staticmethod(speed.dense_probe)

    def __init__(self, desinc, seed: int, out_dir: str):
        super().__init__(desinc, seed, out_dir)
        # the dump formats numbers in Python, which the scalar probe follows
        # and the dense one does not
        self.dump_speed = speed.Speed(speed.probe)

    def prepare(self) -> None:
        self.problems = {}
        for spec, _ in ANALYZE_JOBS:
            prob = self.desinc.problems.problem_from_name(spec).problem
            self.problems[spec] = (prob.iv.length, prob.lip)

    def run_pass(self) -> PassResult:
        ops: list[Op] = []
        self.speed.reprobe()
        for p, (spec, ns) in enumerate(ANALYZE_JOBS):
            length, lip = self.problems[spec]
            for n in ns:
                path = os.path.join(self.out_dir, f"analyze-{p}-{n}.csv")
                self._call(ops, f"analyze.N{n}", ["analyze", "--problem", spec, "--n", str(n)],
                           path, lambda path, n=n, length=length, lip=lip:
                           _check_analyze(path, n, length, lip))
        path = os.path.join(self.out_dir, f"weights-{DUMP_N}.csv")
        self.dump_speed.reprobe()
        self._call(ops, f"dump.N{DUMP_N}",
                   ["dump-weights", "--problem", DUMP_PROBLEM, "--n", str(DUMP_N)],
                   path, lambda path: _check_dump(path, DUMP_N, self.problems[DUMP_PROBLEM][0]),
                   sp=self.dump_speed)
        return PassResult(ops=ops)

    @staticmethod
    def summary(passes: list[PassResult]) -> dict:
        def median_s(kind):
            return statistics.median(op.norm_s for p in passes for op in p.ops if op.kind == kind)

        analyze, dump = median_s("analyze.N2048"), median_s(f"dump.N{DUMP_N}")
        small = {op.kind for op in passes[0].ops} - {"analyze.N2048"}
        return {"wall_s": (statistics.median(p.norm_wall_s for p in passes), "s"),
                "fast_op_ms": (1e3 * _median_small_call(passes, small), "ms"),
                "slow_op_ms": (1e3 * analyze, "ms"),
                "analyze_s.N2048": (analyze, "s"), "dump_weights_s.N256": (dump, "s")}


_ANALYZE_HEADER = ["N", "h", "L", "b_minus_a", "e_norm", "df_norm", "w", "mgs_norm",
                   "mgs_bound", "contraction", "cond_iii_ok", "cond_lbound_ok"]


def _check_analyze(path: str, n: int, length: float, lip: float) -> str | None:
    rows = _read_csv(path)
    if rows[0] != _ANALYZE_HEADER or len(rows) != 2:
        return f"unexpected analyze CSV layout {rows[:2]}"
    row = dict(zip(_ANALYZE_HEADER, rows[1]))
    if int(row["N"]) != n or float(row["L"]) != lip or float(row["b_minus_a"]) != length:
        return f"row is for N={row['N']}, L={row['L']}, b-a={row['b_minus_a']}"
    if row["contraction"] != "true":
        return "contraction is false"
    norm = float(row["mgs_norm"])
    if row["mgs_bound"] and not norm <= float(row["mgs_bound"]):
        return f"mgs_norm {norm} above mgs_bound {row['mgs_bound']}"
    if n <= ORACLE_MAX_N:
        ref = oracle.mgs_norm(length, n, lip)
        if not math.isclose(norm, ref, rel_tol=MGS_RTOL):
            return f"mgs_norm {norm} differs from the dense inverse {ref}"
    return None


def _check_dump(path: str, n: int, length: float) -> str | None:
    m = 2 * n + 1
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()]
    if len(rows) != m or any(len(r) != m for r in rows):
        return f"expected {m} rows of {m} values"
    w = np.array(rows, dtype=float)
    err = np.max(np.abs(w - oracle.weights(length, n)))
    if not err <= DUMP_ATOL:
        return f"weights differ from the sici oracle by {err:.3e}"
    return None


WORKLOADS = {cls.name: cls for cls in (SolveSweep, DenseOutput, GsAnalysis)}
