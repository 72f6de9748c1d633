"""Host-speed probes: scale measured times to a fixed reference speed.

The benchmark runs on a few CPUs of a shared host whose speed changes by
up to 1.7x from one second to the next and from one run to the next, so
raw times of the same code differ by more than a regression bound.  A
probe times a fixed piece of work that is the benchmark's own code, so no
change to desinc moves it, and returns the host's slowness: the probe's
time over its time at the reference speed.  The benchmark probes before
and after every operation and reports the operation's time divided by the
mean of the two slownesses: the time it would take at the reference
speed.  Raw times stay in the result file.

There are two probes, one per kind of work, because the host slows them
differently:

* ``probe`` is pure-Python complex arithmetic (a Lentz continued
  fraction), the kind of work of desinc's scalar loops (``si``, per-node
  rhs calls, Gauss-Seidel rows);
* ``dense_probe`` is a 600 x 600 triangular solve with 600 right-hand
  sides plus a 32 MB copy, the kind of work of the dense analysis.
"""

from __future__ import annotations

import cmath
import math
import time

# The probes' times on a quiet host (Python 3.11, x86-64, 2 BLAS threads);
# round constants, only their being fixed matters.
PROBE_REF_S = 4e-4
DENSE_PROBE_REF_S = 1.2e-2
# arguments of the continued fractions of one probe repetition
_PROBE_ARGS = tuple(3.0 + 0.37 * k for k in range(24))
_REPS = 3
_DENSE_N = 600
_DENSE_COPY = 4_000_000


def _lentz(x: float) -> float:
    # Si(x) = pi/2 + Im(E1(ix)), E1 by the modified Lentz continued fraction
    b = complex(1.0, x)
    c = complex(1e300)
    d = 1.0 / b
    h = d
    for i in range(2, 400):
        a = -((i - 1) ** 2)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return 0.5 * math.pi + (h * cmath.exp(complex(0.0, -x))).imag


def _median_time(work) -> float:
    """Median of three timed repetitions, so an interrupt in one of them
    does not count."""
    times = []
    for _ in range(_REPS):
        t0 = time.perf_counter()
        work()
        times.append(time.perf_counter() - t0)
    return sorted(times)[_REPS // 2]


def _scalar_work() -> None:
    for x in _PROBE_ARGS:
        _lentz(x)


def probe() -> float:
    """Slowness of the host for interpreter-bound work (standard library
    only, so it can run before numpy is imported)."""
    return _median_time(_scalar_work) / PROBE_REF_S


_dense_work = None


def dense_probe() -> float:
    """Slowness of the host for dense linear algebra and memory traffic."""
    global _dense_work
    if _dense_work is None:
        import numpy as np
        from scipy.linalg import solve_triangular

        rng = np.random.default_rng(0)
        lower = np.tril(rng.standard_normal((_DENSE_N, _DENSE_N))) + _DENSE_N * np.eye(_DENSE_N)
        rhs = rng.standard_normal((_DENSE_N, _DENSE_N))
        block = rng.standard_normal(_DENSE_COPY)

        def _dense_work():
            solve_triangular(lower, rhs, lower=True)
            block.copy()

    return _median_time(_dense_work) / DENSE_PROBE_REF_S


class Speed:
    """Times operations between probes.  ``timed(fn)`` returns fn's result,
    its raw seconds and its seconds scaled to the reference speed; fn must
    not raise."""

    def __init__(self, probe_fn=probe):
        self.probe = probe_fn
        self.last = probe_fn()

    def reprobe(self) -> None:
        """Probe afresh, after untimed work such as output checks."""
        self.last = self.probe()

    def timed(self, fn):
        before = self.last
        t0 = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - t0
        self.last = self.probe()
        return result, seconds, scale(seconds, before, self.last)


def scale(seconds: float, before: float, after: float) -> float:
    """Seconds at the reference speed, from the slownesses probed just
    before and just after."""
    return seconds / (0.5 * (before + after))
