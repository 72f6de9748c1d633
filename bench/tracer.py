"""Span tracer that wraps desinc's public functions from outside the package.

Nothing under ``src/`` is edited: ``Tracer.install`` rebinds each traced
function in every ``desinc`` module that holds a reference to it (the
defining module included, so that calls made inside a module, such as
``solve`` -> ``gauss_seidel_sweep`` or ``j_kernel`` -> ``si``, are seen),
and ``Tracer.uninstall`` puts the originals back.

Spans are aggregated in memory as they close: per span name the number of
calls and the self time (span duration minus the time covered by its
direct child spans).  Keeping every span would cost several hundred MB on
the dense-output workload, which opens two spans per node per evaluate.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time

# (layer module, function) pairs wrapped in every desinc module that binds
# them.  The span name is "<layer>.<function>".
TRACED = [
    ("special", "si"),
    ("special", "j_kernel"),
    ("special", "phi_de_inv"),
    ("grid", "build_grid"),
    ("weights", "build_weights"),
    ("weights", "split"),
    ("solver", "solve"),
    ("solver", "gauss_seidel_sweep"),
    ("solver", "jacobi_sweep"),
    ("solver", "evaluate"),
    ("analysis", "analyze"),
    ("analysis", "mgs_norm_exact"),
    ("analysis", "check_assumptions"),
    ("cli", "main"),
]


class Tracer:
    """Aggregating span recorder plus the counters the spans imply."""

    def __init__(self):
        self._clock = time.perf_counter
        self._stack: list[list] = []  # [name, start, child_time]
        self._saved: list[tuple[object, str, object]] = []
        self.recording = False
        self.reset()

    def reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        # per solve call: (m, underflowed nodes, sweeps)
        self.solves: list[tuple[int, int, int]] = []
        self.build_weights_n: list[int] = []
        self.evaluate_m: list[int] = []
        self.grid_underflow = 0
        self.dense_bytes = 0

    # -- span bookkeeping ------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, self._clock(), 0.0])

    def _exit(self, name: str) -> None:
        end = self._clock()
        _, start, child = self._stack.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def _observe(self, name: str, args, result) -> None:
        # counters derived from the arguments and results at the boundary
        if name == "grid.build_grid":
            self.grid_underflow += int((result.dphi == 0.0).sum())
        elif name == "weights.build_weights":
            self.build_weights_n.append(result.grid.N)
            self.dense_bytes += 8 * result.m * result.m
        elif name == "weights.split":
            # e and f are dense m x m matrices
            self.dense_bytes += 2 * 8 * result.e.size
        elif name == "solver.solve":
            sol, trace = result
            grid = sol.grid
            self.solves.append((grid.m, int((grid.dphi == 0.0).sum()), len(trace.z_norms)))
        elif name == "solver.evaluate":
            self.evaluate_m.append(args[0].grid.m)

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span called name.  A call
        made directly from inside a span of the same name (the recursion
        si(-x) -> si(x)) is not counted again."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording or (tracer._stack and tracer._stack[-1][0] == name):
                return fn(*args, **kwargs)
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name)
            tracer._observe(name, args, result)
            return result

        return wrapper

    # -- installation ----------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        for modname, mod in list(sys.modules.items()):
            if modname != "desinc" and not modname.startswith("desinc."):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self, desinc_pkg) -> None:
        """Rebind every traced function, and problem_from_name so that the
        rhs and exact callables of each problem it returns are traced."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, fname in TRACED:
            mod = sys.modules[f"{desinc_pkg.__name__}.{layer}"]
            original = getattr(mod, fname)
            self._rebind(original, self.span(f"{layer}.{fname}", original))
        problems = sys.modules[f"{desinc_pkg.__name__}.problems"]
        original = problems.problem_from_name
        self._rebind(original, self._wrap_problem_factory(original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap_problem_factory(self, factory):
        span = self.span

        @functools.wraps(factory)
        def problem_from_name(spec):
            tp = factory(spec)
            prob = dataclasses.replace(tp.problem, rhs=span("problems.rhs", tp.problem.rhs))
            return dataclasses.replace(tp, problem=prob, exact=span("problems.exact", tp.exact))

        return problem_from_name

    # -- results ---------------------------------------------------------

    def counters(self) -> dict:
        """Deterministic counts for the work recorded since reset()."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "solves": list(self.solves),
            "build_weights_n": list(self.build_weights_n),
            "evaluate_m": list(self.evaluate_m),
            "grid_underflow": self.grid_underflow,
            "dense_bytes": self.dense_bytes,
        }
