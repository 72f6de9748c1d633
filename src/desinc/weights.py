"""Dense collocation weight matrix w_ij = phi'(s_j) * J(j,h)(s_i) and its
diagonal / strictly-lower / strictly-upper triangular split.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DEGrid
from .special import si

__all__ = ["WeightMatrix", "TriangularSplit", "build_weights", "split", "row_sum_norm"]


@dataclass(frozen=True)
class WeightMatrix:
    """Dense collocation weights on a grid.

    w[i, j] = dphi[j] * h * (1/2 + Si(pi(i-j))/pi), i.e. w = P diag(dphi)
    with P Toeplitz; w is a C-contiguous (m, m) array owned by this
    object.
    """

    m: int
    w: np.ndarray
    grid: DEGrid


@dataclass(frozen=True)
class TriangularSplit:
    d: np.ndarray  # diagonal of w, shape (m,)
    e: np.ndarray  # strictly lower triangle, full (m, m) with zeros elsewhere
    f: np.ndarray  # strictly upper triangle, full (m, m) with zeros elsewhere


def build_weights(grid: DEGrid) -> WeightMatrix:
    """Assemble the weight matrix for a grid.

    Only Si at integer multiples of pi is needed, so the sine integral is
    evaluated 4N+1 times (k = -2N..2N, in ascending order) regardless of
    matrix size.  The Toeplitz factor P[i, j] = gen[i - j + m - 1] is a
    strided view of the generator, so the only m x m pass is the scaling
    of its columns by dphi.
    """
    m = grid.m
    # gen[k + 2N] = h * (1/2 + Si(pi * k)/pi) for k = -2N..2N
    si_pi = np.array([si(math.pi * k) for k in range(-(m - 1), m)])
    gen = grid.h * (0.5 + si_pi / math.pi)
    p = np.lib.stride_tricks.sliding_window_view(gen, m)[:, ::-1]
    w = grid.dphi[None, :] * p
    return WeightMatrix(m=m, w=w, grid=grid)


def split(wm: WeightMatrix) -> TriangularSplit:
    """Exact partition of w into diagonal, strictly lower and strictly
    upper parts; no arithmetic is performed on the entries."""
    w = wm.w
    return TriangularSplit(
        d=np.diag(w).copy(),
        e=np.tril(w, k=-1),
        f=np.triu(w, k=1),
    )


def row_sum_norm(m) -> float:
    """Infinity norm: maximum absolute row sum."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if a.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(a), axis=1)))
