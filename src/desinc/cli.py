"""Command-line front end: solve accuracy sweeps, iteration traces,
convergence analysis and weight-matrix dumps, all as deterministic CSV.

Exit codes: 0 success, 1 solver non-convergence, 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .analysis import analyze, check_assumptions
from .grid import build_grid
from .problems import problem_from_name
from .solver import (DEFAULT_MAX_SWEEPS, DEFAULT_TOL, METHODS, NotConvergedError,
                     reference_solution, solve)
from .special import check_count, check_positive_finite
from .weights import build_weights

__all__ = ["RunConfig", "cmd_solve", "cmd_trace", "cmd_analyze", "cmd_dump_weights", "main"]

EXIT_OK = 0
EXIT_NOT_CONVERGED = 1
EXIT_BAD_CONFIG = 2


@dataclass(frozen=True)
class RunConfig:
    problem: str = "example1"
    n_list: list[int] = field(default_factory=lambda: [64])
    method: str = "gauss_seidel"
    tol: float = DEFAULT_TOL
    max_sweeps: int = DEFAULT_MAX_SWEEPS
    h_override: float | None = None
    output: str = "-"
    plot_script: str | None = None

    def __post_init__(self):
        # checked when built, so no cmd_* call runs what main rejects
        for name in ("problem", "output", "plot_script"):
            val = getattr(self, name)
            if not (isinstance(val, str) or val is None and name == "plot_script"):
                raise ValueError(f"{name} must be a string, got {val!r}")
        if not isinstance(self.n_list, list):
            raise ValueError(f"n_list must be a list, got {self.n_list!r}")
        if not self.n_list:
            raise ValueError("N list must be nonempty")
        for n in self.n_list:
            check_count("N", n, 2)
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        check_positive_finite("tol", self.tol)
        check_count("max-sweeps", self.max_sweeps, 1)
        if self.h_override is not None:
            check_positive_finite("h", self.h_override)
        if self.plot_script is not None:
            if self.output == "-":
                raise ValueError("--plot-script needs --out FILE: the script reads the CSV file")
            if os.path.realpath(self.plot_script) == os.path.realpath(self.output):
                raise ValueError(f"--plot-script names the --out file {self.output!r}: "
                                 "the script would overwrite the CSV")


def _fmt(v) -> str:
    # shortest round-trip representation keeps the output byte-stable and
    # lossless
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, bool):
        return str(v).lower()
    return str(v)


def _open_out(path: str):
    """The output of one command, the file at path or stdout for '-', for
    a with block, which closes the file but never stdout."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_row(fh, values) -> None:
    # no field holds a comma, quote or newline, so no CSV quoting applies
    fh.write(",".join(_fmt(v) for v in values) + "\n")
    fh.flush()


def _grids(cfg: RunConfig, command: str):
    """The configured problem and its grid per N, ascending, all built
    before a command opens its output: a bad configuration writes nothing.
    Every cmd_* calls it first, so a direct call obeys the command's rules
    in _COMMANDS as main does."""
    _, _, one_n, plot_cols = _COMMANDS[command]
    if one_n and len(cfg.n_list) != 1:
        raise ValueError(f"{command} needs exactly one N")
    if plot_cols is None and cfg.plot_script is not None:
        raise ValueError(f"{command} writes no plot script; drop --plot-script")
    tp = problem_from_name(cfg.problem)
    return tp, [build_grid(tp.problem.iv, n, cfg.h_override) for n in sorted(cfg.n_list)]


def cmd_solve(cfg: RunConfig) -> int:
    """Per-N accuracy sweep: solve and compare node values against the
    exact solution."""
    tp, grids = _grids(cfg, "solve")
    status = EXIT_OK
    with _open_out(cfg.output) as fh:
        _write_row(fh, ["N", "h", "E1", "sweeps", "converged"])
        for grid in grids:
            try:
                sol, trace = solve(tp.problem, grid, method=cfg.method,
                                   tol=cfg.tol, max_sweeps=cfg.max_sweeps)
            except NotConvergedError as err:
                sol, trace = err.solution, err.trace
                status = EXIT_NOT_CONVERGED
            e1 = float(np.max(np.abs(sol.x_nodes - tp.exact(grid.t))))
            _write_row(fh, [grid.N, grid.h, e1, len(trace.z_norms), trace.converged])
    return status


def cmd_trace(cfg: RunConfig) -> int:
    """Per-sweep iteration trace against the 10-sweep reference
    solution."""
    tp, (grid,) = _grids(cfg, "trace")
    ref = reference_solution(tp.problem, grid)
    _, trace = solve(tp.problem, grid, method=cfg.method, tol=0.0,
                     max_sweeps=cfg.max_sweeps, store_iterates=True)
    with _open_out(cfg.output) as fh:
        _write_row(fh, ["nu", "E2", "z_norm"])
        for nu, (it, z) in enumerate(zip(trace.iterates, trace.z_norms), start=1):
            e2 = float(np.max(np.abs(it - ref.x_nodes)))
            _write_row(fh, [nu, e2, z])
    return EXIT_OK


def cmd_analyze(cfg: RunConfig) -> int:
    """Per-N convergence analysis rows, plus the assumption flags."""
    tp, grids = _grids(cfg, "analyze")
    if tp.problem.lip is None:
        raise ValueError(f"problem {cfg.problem!r} supplies no Lipschitz constant")
    lip = tp.problem.lip
    with _open_out(cfg.output) as fh:
        _write_row(fh, ["N", "h", "L", "b_minus_a", "e_norm", "df_norm", "w", "mgs_norm",
                        "mgs_bound", "contraction", "cond_iii_ok", "cond_lbound_ok"])
        for grid in grids:
            wm = build_weights(grid)
            res = analyze(wm, lip)
            rep = check_assumptions(tp.problem, wm)
            _write_row(fh, [grid.N, grid.h, lip, grid.iv.length, res.e_norm, res.df_norm, res.w,
                            res.mgs_norm, "" if res.mgs_bound is None else res.mgs_bound,
                            res.contraction, rep.cond_iii_ok, rep.cond_lbound_ok])
    return EXIT_OK


def cmd_dump_weights(cfg: RunConfig) -> int:
    """Dump the weight matrix, one row per line, full-precision scientific
    notation."""
    _, (grid,) = _grids(cfg, "dump-weights")
    wm = build_weights(grid)
    with _open_out(cfg.output) as fh:
        # row blocks of w = P diag(dphi), so the m x m matrix is never formed
        for _, p_block, _ in wm.row_blocks:
            np.savetxt(fh, grid.dphi * p_block, fmt="%.17e", delimiter=",")
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
plt.yscale("log")
plt.savefig({csv!r} + ".png", dpi=150)
"""


# name -> (command, its --help line, whether it takes exactly one N, the
# (x, y) columns of its plot script or None where it writes none)
_COMMANDS = {
    "solve": (cmd_solve, "accuracy sweep over N", False, ("N", "E1")),
    "trace": (cmd_trace, "per-sweep iteration trace at a single N", True, ("nu", "E2")),
    "analyze": (cmd_analyze, "convergence analysis over N", False, ("N", "mgs_norm")),
    "dump-weights": (cmd_dump_weights, "dump the dense weight matrix as CSV", True, None),
}

# Every option in --help order: flag -> (the RunConfig field it sets, which
# is also its config-file key; argparse keywords).  --config sets no field:
# its file is applied first, then the flags that were given.
_OPTIONS = {
    "--problem": ("problem", {"help": "example1 | example2:n=11 | example3 | lv:m=3:seed=0"}),
    "--n": ("n_list", {"help": "comma-separated list of N values"}),
    "--method": ("method", {"choices": METHODS}),
    "--tol": ("tol", {"type": float}),
    "--max-sweeps": ("max_sweeps", {"type": int}),
    "--h": ("h_override", {"type": float, "help": "override the default step log(N)/N"}),
    "--out": ("output", {"help": "output CSV path ('-' for stdout)"}),
    "--config": (None, {"help": "JSON config file; flags override its values"}),
    "--plot-script": ("plot_script", {"help": "also write a companion matplotlib script"}),
}


@cache  # built once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="desinc",
        description="DE Sinc-collocation IVP solver and Gauss-Seidel convergence analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag, (_, kwargs) in _OPTIONS.items():
            p.add_argument(flag, **kwargs)
    return parser


def _parse_n(item: str) -> int | str:
    # an item that is no integer is kept as given, for RunConfig to reject
    try:
        return int(item)
    except ValueError:
        return item


def _load_config(args: argparse.Namespace) -> RunConfig:
    # argparse stores --max-sweeps as args.max_sweeps
    flags = {key: getattr(args, flag[2:].replace("-", "_"))
             for flag, (key, _) in _OPTIONS.items() if key is not None}
    data = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config file must hold a JSON object, got {json.dumps(data)}")
        unknown = set(data) - set(flags)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if flags["n_list"] is not None:
        # parsed here, not by argparse, so that a malformed list is an
        # invalid configuration (exit 2) rather than a usage error
        flags["n_list"] = [_parse_n(v) for v in flags["n_list"].split(",") if v]
    data.update((key, val) for key, val in flags.items() if val is not None)
    cfg = RunConfig(**data)
    # only here is the config path known; an output naming it would replace it
    for flag, path in (("--out", cfg.output), ("--plot-script", cfg.plot_script)):
        if args.config and path not in (None, "-") and (
                os.path.realpath(path) == os.path.realpath(args.config)):
            raise ValueError(f"{flag} names the --config file {args.config!r}: "
                             "it would overwrite the config")
    return cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        command, _, _, plot_cols = _COMMANDS[args.command]
        status = command(cfg)
        # written after a non-convergence too, since the CSV holds every row
        if cfg.plot_script is not None:
            x, y = plot_cols
            with open(cfg.plot_script, "w", encoding="utf-8") as fh:
                fh.write(_PLOT_TEMPLATE.format(script=cfg.plot_script, csv=cfg.output, x=x, y=y))
        return status
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
