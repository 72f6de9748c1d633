"""desinc benchmark: run one workload for a fixed time and print its metrics.

    python3 bench/run.py --workload solve-sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all          # every workload, one after another

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics from spans
recorded around desinc's public functions (see tracer.py), plus the
tracing overhead.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The full record, with
the environment and per-pass data, is written to
``.bench_out/<workload>/result-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed  # the standard library only, so numpy is not imported yet

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# BLAS threads per workload.  The scalar workloads call BLAS only on small
# vectors, where a second thread adds waiting, not speed, and makes their
# times spread more; the dense analysis uses every CPU.
BLAS_THREADS = {"solve-sweep": 1, "dense-output": 1, "gs-analysis": NPROC}
# set-up is the import of desinc plus the workload's preparation; each part
# is repeated and timed between host-speed probes, and setup_s is the sum of
# the two medians of the scaled times
IMPORT_REPS = 15
PREPARE_REPS = 5
# the fresh interpreter probes its own CPU's speed around the import
IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; import speed; before = speed.probe(); "
    "t = time.perf_counter(); import desinc, desinc.cli; s = time.perf_counter() - t; "
    "print(s, speed.scale(s, before, speed.probe()))"
)
WORKLOAD_NAMES = ("solve-sweep", "dense-output", "gs-analysis")
# the end-to-end metrics every workload reports; BENCHMARK.json bounds them
E2E_METRICS = ("setup_s", "wall_s", "peak_rss_mb", "fast_op_ms", "slow_op_ms")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_desinc():
    sys.path.insert(0, str(SRC))
    import desinc
    import desinc.cli  # noqa: F401  (the CLI workloads call desinc.cli.main)

    if Path(desinc.__file__).resolve().parent != SRC / "desinc":
        raise SystemExit(f"error: imported desinc from {desinc.__file__}, not from {SRC}")
    return desinc


def time_import() -> tuple[float, float]:
    """Raw and scaled import time of desinc in a fresh interpreter, as a
    user pays it."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)], cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    raw, scaled = out.stdout.strip().splitlines()[-1].split()
    return float(raw), float(scaled)


def environment(seed: int) -> dict:
    import numpy
    import scipy

    def blas(cfg):
        info = cfg.CONFIG["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.__config__),
        "scipy_blas": blas(scipy.__config__),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": NPROC,
        "cpu": cpu,
        "seed": seed,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git (which
    would search parent directories); 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_checks(ops, failures: list[str]) -> tuple[int, int]:
    failed = 0
    for op in ops:
        try:
            err = op.check()
        except Exception as exc:  # a check that crashes is a failed check
            err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failed += 1
            failures.append(f"{op.kind}: {err}")
    return len(ops), failed


# -- per-layer metrics ----------------------------------------------------

PER_LAYER = [
    # name, unit
    ("special.si.calls", "count"),
    ("special.si.self_s", "s"),
    ("special.j_kernel.calls", "count"),
    ("special.phi_de_inv.self_s", "s"),
    ("grid.build_grid.self_s", "s"),
    ("grid.underflow_nodes", "count"),
    ("weights.build_weights.calls", "count"),
    ("weights.build_weights.self_s", "s"),
    ("weights.split.self_s", "s"),
    ("weights.dense_bytes", "B"),
    ("solver.solve.self_s", "s"),
    ("solver.gauss_seidel_sweep.self_s", "s"),
    ("solver.jacobi_sweep.self_s", "s"),
    ("solver.sweeps", "count"),
    ("solver.evaluate.calls", "count"),
    ("solver.evaluate.self_s", "s"),
    ("solver.useful_rhs_frac", "frac"),
    ("analysis.analyze.self_s", "s"),
    ("analysis.mgs_norm_exact.self_s", "s"),
    ("analysis.check_assumptions.self_s", "s"),
    ("problems.rhs.calls", "count"),
    ("problems.rhs.self_s", "s"),
    ("problems.exact.calls", "count"),
    ("problems.exact.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.overhead_frac", "frac"),
]

SWEEP_SPANS = ("solver.gauss_seidel_sweep", "solver.jacobi_sweep")


def consistency(c: dict, reported_sweeps: int) -> list[str]:
    """Equalities that hold only if the rebinding caught every call."""
    calls = c["calls"].get
    sweeps = sum(calls(s, 0) for s in SWEEP_SPANS)
    expect = {
        "sweep spans = sweeps returned by solve": (sweeps, sum(s for _, _, s in c["solves"])),
        "sweep spans = sweeps in the outputs": (sweeps, reported_sweeps),
        "rhs calls = sum m*(sweeps+1)": (calls("problems.rhs", 0),
                                         sum(m * (s + 1) for m, _, s in c["solves"])),
        "j_kernel calls = sum m per evaluate": (calls("special.j_kernel", 0),
                                                sum(c["evaluate_m"])),
        "si calls = sum (4N+1) per build_weights + j_kernel calls": (
            calls("special.si", 0),
            sum(4 * n + 1 for n in c["build_weights_n"]) + calls("special.j_kernel", 0)),
    }
    return [f"{name}: {got} != {want}" for name, (got, want) in expect.items() if got != want]


def layer_metrics(prep: dict, passes: list[dict], overhead: float) -> dict:
    """Per-layer values for one traced preparation plus one pass: counters
    are exact, self times add the preparation to the median pass."""
    first = passes[0]["counters"]
    calls = dict(prep["counters"]["calls"])
    for k, v in first["calls"].items():
        calls[k] = calls.get(k, 0) + v
    solves = prep["counters"]["solves"] + first["solves"]

    def self_s(span):
        return prep["self_s"].get(span, 0.0) + statistics.median(
            p["self_s"].get(span, 0.0) for p in passes)

    useful = sum((m - u) * (s + 1) for m, u, s in solves)
    rhs_calls = calls.get("problems.rhs", 0)
    values = {
        "grid.underflow_nodes": prep["counters"]["grid_underflow"] + first["grid_underflow"],
        "weights.dense_bytes": prep["counters"]["dense_bytes"] + first["dense_bytes"],
        "solver.sweeps": sum(calls.get(s, 0) for s in SWEEP_SPANS),
        # no rhs call means none was wasted
        "solver.useful_rhs_frac": useful / rhs_calls if rhs_calls else 1.0,
        "cli.bytes_written": passes[0]["bytes_written"],
        "trace.overhead_frac": overhead,
    }
    for name, _ in PER_LAYER:
        if name in values:
            continue
        span, _, kind = name.rpartition(".")
        values[name] = calls.get(span, 0) if kind == "calls" else self_s(span)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


# -- the two modes ----------------------------------------------------------

def time_setup(workload) -> tuple[float, dict]:
    """setup_s, and the raw and scaled times of every import and
    preparation it was made from."""
    imports = [time_import() for _ in range(IMPORT_REPS)]
    prepares = [workload.speed.timed(workload.prepare)[1:] for _ in range(PREPARE_REPS)]
    setup_s = (statistics.median(s for _, s in imports)
               + statistics.median(s for _, s in prepares))
    return setup_s, {"import": imports, "prepare": prepares}


def run_untraced(workload, seconds: float, failures: list[str]):
    setup_s, setups = time_setup(workload)
    # a pass starts only while it can still end within the run's seconds,
    # counting the checks and probes of the previous pass
    passes, attempted, failed = [], 0, 0
    t_start = t_pass = time.perf_counter()
    while not passes or time.perf_counter() - t_start + last <= seconds:
        pr = workload.run_pass()
        a, f = run_checks(pr.ops, failures)
        attempted, failed = attempted + a, failed + f
        passes.append(pr)
        last, t_pass = time.perf_counter() - t_pass, time.perf_counter()
    summary = workload.summary(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    named = {"setup_s": (setup_s, "s"),
             "peak_rss_mb": (rss_mb, "MB"), "fail_frac": (failed / attempted, "frac"),
             **summary}
    named = {k: {"value": v, "unit": u} for k, (v, u) in named.items()}
    metrics = {k: named[k] for k in E2E_METRICS}
    detail = {"setup_s": setups, "issue_metrics": named,
              "passes": [{"wall_s": p.wall_s, "norm_wall_s": p.norm_wall_s,
                          "ops": [[op.kind, op.seconds, op.norm_s] for op in p.ops]}
                         for p in passes]}
    return metrics, attempted, failed, detail


def run_traced(desinc, workload, seconds: float, failures: list[str]):
    from tracer import Tracer

    tracer = Tracer()
    attempted = failed = 0

    def traced(fn):
        tracer.reset()
        tracer.install(desinc)
        tracer.recording = True
        try:
            result = fn()
        finally:
            tracer.recording = False
            tracer.uninstall()
        return result, {"counters": tracer.counters(), "self_s": dict(tracer.self_s)}

    def check_consistency(rec, reported):
        nonlocal attempted, failed
        errors = consistency(rec["counters"], reported)
        attempted += 1
        if errors:
            failed += 1
            failures.extend(errors)

    _, prep = traced(workload.prepare)
    check_consistency(prep, workload.prepared_sweeps)

    plain_walls, traced_passes = [], []
    t_start = t_pair = time.perf_counter()
    while not traced_passes or time.perf_counter() - t_start + last <= seconds:
        pr = workload.run_pass()
        a, f = run_checks(pr.ops, failures)
        attempted, failed = attempted + a, failed + f
        plain_walls.append(pr.norm_wall_s)

        pr, rec = traced(workload.run_pass)
        a, f = run_checks(pr.ops, failures)
        attempted, failed = attempted + a, failed + f
        rec["wall_s"] = pr.norm_wall_s
        rec["bytes_written"] = sum(os.path.getsize(op.path) for op in pr.ops if op.path)
        check_consistency(rec, pr.reported_sweeps())
        # counters of every traced pass must repeat the first pass exactly
        if traced_passes:
            attempted += 1
            if rec["counters"] != traced_passes[0]["counters"]:
                failed += 1
                failures.append("traced pass counters differ from the first traced pass")
        traced_passes.append(rec)
        last, t_pair = time.perf_counter() - t_pair, time.perf_counter()

    overhead = (statistics.median(p["wall_s"] for p in traced_passes)
                / statistics.median(plain_walls) - 1.0)
    metrics = layer_metrics(prep, traced_passes, overhead)
    detail = {"prep": prep, "traced_passes": traced_passes, "untraced_wall_s": plain_walls}
    return metrics, attempted, failed, detail


def run_one(args) -> int:
    desinc = import_desinc()
    from workloads import WORKLOADS

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](desinc, args.seed, str(out_dir))
    env = environment(args.seed)
    failures: list[str] = []
    if args.trace:
        metrics, attempted, failed, detail = run_traced(desinc, workload, args.seconds, failures)
    else:
        metrics, attempted, failed, detail = run_untraced(workload, args.seconds, failures)

    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": env, "metrics": metrics, "attempted": attempted, "failed": failed,
              "failures": failures, **detail}
    with open(out_dir / f"result-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=float)

    for msg in failures[:20]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(json.dumps({"env": env}))
    shown = detail.get("issue_metrics", metrics)
    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed}")
    for name, m in shown.items():
        print(f"  {name:36s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print each one's metrics."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        out = subprocess.run([sys.executable, __file__, "--workload", name,
                              "--seed", str(args.seed), "--seconds", str(args.seconds),
                              "--trace", str(args.trace)],
                             capture_output=True, text=True, timeout=900)
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if out.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {out.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        summary["correct"] &= res["correct"]
        summary["attempted"] += res["attempted"]
        summary["failed"] += res["failed"]
        summary["metrics"].update({f"{name}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "desinc" / "__init__.py").is_file():
        print(f"error: no desinc package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    # pin BLAS threads before numpy is first imported, here and in children
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS[args.workload])
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
