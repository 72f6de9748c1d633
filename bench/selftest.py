"""Self-test of the traced run and of BENCHMARK.json.

    python3 bench/selftest.py

For each workload it makes two traced runs with the same seed and checks
that

* each run is correct, which includes the consistency equalities of
  run.consistency (sweep spans = sweeps in the CSV outputs, rhs calls =
  sum m*(sweeps+1), si calls = sum (4N+1) per build_weights + j_kernel
  calls), so the rebinding caught every call;
* every counter repeats exactly across the two runs;
* the runs report exactly the per-layer metrics BENCHMARK.json lists.

It also makes one short untraced run per workload and checks that it
reports exactly the end-to-end metrics BENCHMARK.json lists.  Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 3
# a short budget still runs one traced and one untraced pass
SECONDS = "1"


def run(workload: str, trace: int) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(SEED), "--seconds", SECONDS, "--trace", str(trace)],
                         capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        sys.exit(f"{workload} trace={trace} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.splitlines()[-1])


def counters(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if k.endswith((".calls", "_nodes", "_bytes", "_written", ".sweeps", "_frac"))
            and k != "trace.overhead_frac"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer_names = {m["name"] for m in spec["per_layer"]}
    e2e_names = {m["name"] for m in spec["end_to_end"]}
    for w in spec["workloads"]:
        name = w["name"]
        first, second = run(name, 1), run(name, 1)
        for res in (first, second):
            if not res["correct"]:
                sys.exit(f"{name}: traced run failed its checks (see its stderr)")
            if set(res["metrics"]) != layer_names:
                sys.exit(f"{name}: per-layer metrics differ from BENCHMARK.json: "
                         f"{sorted(set(res['metrics']) ^ layer_names)}")
        c1, c2 = counters(first["metrics"]), counters(second["metrics"])
        if c1 != c2:
            diff = {k: (c1[k], c2[k]) for k in c1 if c1[k] != c2.get(k)}
            sys.exit(f"{name}: counters differ between two runs with seed {SEED}: {diff}")
        plain = run(name, 0)
        if not plain["correct"] or set(plain["metrics"]) != e2e_names:
            sys.exit(f"{name}: untraced run incorrect or metrics differ from BENCHMARK.json")
        print(f"ok {name}: {len(c1)} counters repeat exactly, "
              f"si calls {c1['special.si.calls']}, rhs calls {c1['problems.rhs.calls']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
