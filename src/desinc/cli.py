"""Command-line front end: solve accuracy sweeps, iteration traces,
convergence analysis and weight-matrix dumps, all as deterministic CSV.

Exit codes: 0 success, 1 solver non-convergence, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field

import numpy as np

from .analysis import analyze, check_assumptions
from .grid import build_grid
from .problems import TestProblem, problem_from_name
from .solver import NotConvergedError, reference_solution, solve
from .weights import build_weights

__all__ = ["RunConfig", "cmd_solve", "cmd_trace", "cmd_analyze", "cmd_dump_weights", "main"]

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_BAD_CONFIG = 2


@dataclass
class RunConfig:
    problem: str = "example1"
    n_list: list[int] = field(default_factory=lambda: [64])
    method: str = "gauss_seidel"
    tol: float = 1e-14
    max_sweeps: int = 50
    h_override: float | None = None
    output: str = "-"
    plot_script: str | None = None

    def validate(self) -> None:
        if not self.n_list:
            raise ValueError("N list must be nonempty")
        if any(n < 2 for n in self.n_list):
            raise ValueError("every N must be at least 2")
        if self.method not in ("jacobi", "gauss_seidel"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.max_sweeps < 1:
            raise ValueError("max-sweeps must be at least 1")
        if self.h_override is not None and self.h_override <= 0.0:
            raise ValueError("h must be positive")


def _fmt(v) -> str:
    # shortest round-trip representation keeps the output byte-stable and
    # lossless
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, bool):
        return str(v).lower()
    return str(v)


class _CsvSink:
    """The output of one command: the file at path, or stdout for '-'.

    Use it in a with block, which closes the file (never stdout).
    """

    def __init__(self, path: str):
        self._fh = sys.stdout if path == "-" else open(path, "w", encoding="utf-8", newline="")
        self._writer = csv.writer(self._fh, lineterminator="\n")

    def __enter__(self) -> "_CsvSink":
        return self

    def __exit__(self, *exc) -> None:
        if self._fh is not sys.stdout:
            self._fh.close()

    def row(self, values) -> None:
        self._writer.writerow([_fmt(v) for v in values])
        self._fh.flush()

    def line(self, text: str) -> None:
        """Write one already formatted line."""
        self._fh.write(text + "\n")


def _e1(tp: TestProblem, x_nodes: np.ndarray, times: np.ndarray) -> float:
    errs = [np.max(np.abs(x_nodes[k] - tp.exact(t))) for k, t in enumerate(times)]
    return float(max(errs))


def cmd_solve(cfg: RunConfig) -> int:
    """Per-N accuracy sweep: solve and compare node values against the
    exact solution."""
    tp = problem_from_name(cfg.problem)
    status = EXIT_OK
    with _CsvSink(cfg.output) as sink:
        sink.row(["N", "h", "E1", "sweeps", "converged"])
        for n in sorted(cfg.n_list):
            grid = build_grid(tp.problem.iv, n, cfg.h_override)
            try:
                sol, trace = solve(tp.problem, grid, method=cfg.method,
                                   tol=cfg.tol, max_sweeps=cfg.max_sweeps)
            except NotConvergedError as err:
                sol, trace = err.solution, err.trace
                status = EXIT_NOT_CONVERGED
            e1 = _e1(tp, sol.x_nodes, grid.t)
            sink.row([n, grid.h, e1, len(trace.z_norms), trace.converged])
    _maybe_plot_script(cfg, x_col="N", y_col="E1", logy=True)
    return status


def cmd_trace(cfg: RunConfig) -> int:
    """Per-sweep iteration trace against the 10-sweep reference
    solution."""
    if len(cfg.n_list) != 1:
        raise ValueError("trace needs exactly one N")
    tp = problem_from_name(cfg.problem)
    n = cfg.n_list[0]
    grid = build_grid(tp.problem.iv, n, cfg.h_override)
    wm = build_weights(grid)
    ref = reference_solution(tp.problem, grid, wm=wm)
    _, trace = solve(tp.problem, grid, method=cfg.method, tol=0.0,
                     max_sweeps=cfg.max_sweeps, store_iterates=True, wm=wm)
    with _CsvSink(cfg.output) as sink:
        sink.row(["nu", "E2", "z_norm"])
        for nu, (it, z) in enumerate(zip(trace.iterates, trace.z_norms), start=1):
            e2 = float(np.max(np.abs(it - ref.x_nodes)))
            sink.row([nu, e2, z])
    _maybe_plot_script(cfg, x_col="nu", y_col="E2", logy=True)
    return EXIT_OK


def cmd_analyze(cfg: RunConfig) -> int:
    """Per-N convergence analysis rows, plus the assumption flags."""
    tp = problem_from_name(cfg.problem)
    if tp.problem.lip is None:
        raise ValueError(f"problem {cfg.problem!r} supplies no Lipschitz constant")
    lip = tp.problem.lip
    with _CsvSink(cfg.output) as sink:
        sink.row(["N", "h", "L", "b_minus_a", "e_norm", "df_norm", "w", "mgs_norm",
                  "mgs_bound", "contraction", "cond_iii_ok", "cond_lbound_ok"])
        for n in sorted(cfg.n_list):
            grid = build_grid(tp.problem.iv, n, cfg.h_override)
            wm = build_weights(grid)
            res = analyze(wm, lip)
            rep = check_assumptions(tp.problem, wm)
            sink.row([n, grid.h, lip, grid.iv.length, res.e_norm, res.df_norm, res.w,
                      res.mgs_norm, "" if res.mgs_bound is None else res.mgs_bound,
                      res.contraction, rep.cond_iii_ok, rep.cond_lbound_ok])
    _maybe_plot_script(cfg, x_col="N", y_col="mgs_norm", logy=True)
    return EXIT_OK


def cmd_dump_weights(cfg: RunConfig) -> int:
    """Dump the dense weight matrix, one row per line, full-precision
    scientific notation."""
    if len(cfg.n_list) != 1:
        raise ValueError("dump-weights needs exactly one N")
    tp = problem_from_name(cfg.problem)
    grid = build_grid(tp.problem.iv, cfg.n_list[0], cfg.h_override)
    wm = build_weights(grid)
    with _CsvSink(cfg.output) as sink:
        for row in wm.w:
            sink.line(",".join(f"{v:.17e}" for v in row))
    return EXIT_OK


_PLOT_TEMPLATE = """\
# Companion plot script; run with: python {script}
import csv
import matplotlib.pyplot as plt

xs, ys = [], []
with open({csv!r}) as fh:
    for row in csv.DictReader(fh):
        if row[{y!r}]:
            xs.append(float(row[{x!r}]))
            ys.append(float(row[{y!r}]))
plt.plot(xs, ys, "o-")
plt.xlabel({x!r})
plt.ylabel({y!r})
{logy}plt.savefig({csv!r} + ".png", dpi=150)
"""


def _maybe_plot_script(cfg: RunConfig, x_col: str, y_col: str, logy: bool) -> None:
    if cfg.plot_script is None or cfg.output == "-":
        return
    with open(cfg.plot_script, "w", encoding="utf-8") as fh:
        fh.write(_PLOT_TEMPLATE.format(
            script=cfg.plot_script, csv=cfg.output, x=x_col, y=y_col,
            logy='plt.yscale("log")\n' if logy else "",
        ))


# name -> (command, its --help line)
_COMMANDS = {
    "solve": (cmd_solve, "accuracy sweep over N"),
    "trace": (cmd_trace, "per-sweep iteration trace at a single N"),
    "analyze": (cmd_analyze, "convergence analysis over N"),
    "dump-weights": (cmd_dump_weights, "dump the dense weight matrix as CSV"),
}

# Every option in --help order: flag -> (the RunConfig field it sets, which
# is also its config-file key; argparse keywords).  --config sets no field:
# its file is applied first, then the flags that were given.
_OPTIONS = {
    "--problem": ("problem", {"help": "example1 | example2:n=11 | example3 | lv:m=3:seed=0"}),
    "--n": ("n_list", {"help": "comma-separated list of N values"}),
    "--method": ("method", {"choices": ["jacobi", "gauss_seidel"]}),
    "--tol": ("tol", {"type": float}),
    "--max-sweeps": ("max_sweeps", {"type": int}),
    "--h": ("h_override", {"type": float, "help": "override the default step log(N)/N"}),
    "--out": ("output", {"help": "output CSV path ('-' for stdout)"}),
    "--config": (None, {"help": "JSON config file; flags override its values"}),
    "--plot-script": ("plot_script", {"help": "also write a companion matplotlib script"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desinc",
        description="DE Sinc-collocation IVP solver and Gauss-Seidel convergence analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, (_, kwargs) in _OPTIONS.items():
            p.add_argument(flag, **kwargs)
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    # argparse stores --max-sweeps as args.max_sweeps
    flags = {key: getattr(args, flag[2:].replace("-", "_"))
             for flag, (key, _) in _OPTIONS.items() if key is not None}
    cfg = RunConfig()
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        unknown = set(data) - set(flags)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for key, val in data.items():
            setattr(cfg, key, val)
    for key, val in flags.items():
        if val is None:
            continue
        if key == "n_list":
            # parsed here, not by argparse, so that a malformed list is an
            # invalid configuration (exit 2) rather than a usage error
            val = [int(v) for v in val.split(",") if v]
        setattr(cfg, key, val)
    cfg.validate()
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        command, _ = _COMMANDS[args.command]
        return command(cfg)
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
