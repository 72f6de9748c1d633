"""Collocation grid for the DE Sinc method: uniform nodes s_j = j*h for
j = -N..N, their mapped times and transform derivatives.

Storage is 0-based: array index k corresponds to node index j = k - N, so
index N is the center node j = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .special import Interval, check_count, check_interval, check_positive_finite, dphi_de, phi_de

__all__ = ["DEGrid", "build_grid"]

# the largest N whose 2N+1 float64 nodes fit numpy's size limit, 2**59 - 1 on
# a 64-bit host; np.arange raises beyond it, and makes no nodes from 2**62 on
_MAX_N = (np.iinfo(np.intp).max // 8 - 1) // 2


@dataclass(frozen=True)
class DEGrid:
    """The DE collocation grid on iv with N and step h, log(N)/N by
    default.  Grids compare and hash by (iv, N, h); the node arrays are
    derived from them when the grid is built, and are read-only."""

    iv: Interval
    N: int
    h: float | None = None
    # nodes j*h, j = -N..N; mapped times phi(s_j), nondecreasing in [a, b];
    # phi'(s_j), nonnegative (0 only by underflow)
    s: np.ndarray = field(init=False, repr=False, compare=False)
    t: np.ndarray = field(init=False, repr=False, compare=False)
    dphi: np.ndarray = field(init=False, repr=False, compare=False)

    @property
    def m(self) -> int:
        """Number of nodes, 2N + 1."""
        return 2 * self.N + 1

    def __post_init__(self):
        iv, N, h = self.iv, self.N, self.h
        check_interval(iv)
        check_count("N", N, 2)
        if N > _MAX_N:
            raise ValueError(f"N must be at most {_MAX_N}, got {N!r}")
        h = default_step(N) if h is None else h
        check_positive_finite("h", h)
        if not math.isfinite(float(N) * float(h)):  # numpy scalars would warn on overflow
            raise ValueError(f"h must be small enough that N*h is finite, got {h} at N = {N}")
        h = float(h)  # as Interval stores its ends: a 0-d array is unhashable
        s = np.arange(-N, N + 1, dtype=float) * h
        object.__setattr__(self, "h", h)
        for name, v in (("s", s), ("t", phi_de(s, iv)), ("dphi", dphi_de(s, iv))):
            v.flags.writeable = False  # equal (iv, N, h) must mean equal arrays
            object.__setattr__(self, name, v)


def default_step(N: int) -> float:
    """Step size log(N)/N used throughout the experiments."""
    return math.log(N) / N


def build_grid(iv: Interval, N: int, h: float | None = None) -> DEGrid:
    """The DE collocation grid DEGrid(iv, N, h); h defaults to log(N)/N,
    and an explicit h may be supplied for experimentation."""
    return DEGrid(iv, N, h)
