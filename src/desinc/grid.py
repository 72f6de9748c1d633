"""Collocation grid for the DE Sinc method: uniform nodes s_j = j*h for
j = -N..N, their mapped times and transform derivatives.

Storage is 0-based: array index k corresponds to node index j = k - N, so
index N is the center node j = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .special import Interval, check_count, check_positive_finite, dphi_de, phi_de

__all__ = ["DEGrid", "build_grid"]


@dataclass(frozen=True)
class DEGrid:
    """A collocation grid, as build_grid returns it; building one by hand
    checks that its fields fit together."""

    iv: Interval
    N: int
    h: float
    s: np.ndarray  # nodes j*h, j = -N..N
    t: np.ndarray  # mapped times phi(s_j), nondecreasing in [a, b]
    dphi: np.ndarray  # phi'(s_j), nonnegative (0 only by underflow)

    @property
    def m(self) -> int:
        """Number of nodes, 2N + 1."""
        return 2 * self.N + 1

    def __post_init__(self):
        if not isinstance(self.iv, Interval):
            raise ValueError(f"iv must be an Interval, got {self.iv!r}")
        check_count("N", self.N, 2)
        check_positive_finite("h", self.h)
        for name in ("s", "t", "dphi"):
            v = getattr(self, name)
            if not (isinstance(v, np.ndarray) and v.dtype == float and v.shape == (self.m,)):
                raise ValueError(f"{name} must be a float array of shape ({self.m},)")


def default_step(N: int) -> float:
    """Step size log(N)/N used throughout the experiments."""
    return math.log(N) / N


def build_grid(iv: Interval, N: int, h: float | None = None) -> DEGrid:
    """Build the DE collocation grid on the given interval.

    h defaults to log(N)/N; an explicit h may be supplied for
    experimentation.
    """
    check_count("N", N, 2)
    h = default_step(N) if h is None else h
    check_positive_finite("h", h)
    if not math.isfinite(float(N) * float(h)):  # numpy scalars would warn on overflow
        raise ValueError(f"h must be small enough that N*h is finite, got {h} at N = {N}")
    j = np.arange(-N, N + 1, dtype=float)
    s = j * h
    t = phi_de(s, iv)
    dphi = dphi_de(s, iv)
    return DEGrid(iv=iv, N=N, h=h, s=s, t=t, dphi=dphi)
