"""Convergence analysis of the Gauss-Seidel sweep: the exact infinity
norm of the comparison matrix (I - L|E|)^{-1} L(|D|+|F|), its closed-form
upper bound, and checks of the sufficient conditions for convergence.

No m x m matrix is formed.  |w_ij| = |p_{i-j}| * phi'_j with p_k the
entries of the Toeplitz factor P of WeightMatrix, so every row sum of |E|
or |D|+|F| is one entry of an FFT convolution of |p| with phi', and the
comparison norm is one blocked forward substitution on column 0 of P:
O(m) memory, O(m log^2 m) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import IterationTrace, IVProblem
from .special import (Interval, check_count, check_interval, check_nonnegative_finite,
                      check_positive_finite)
from .weights import WeightMatrix, _fft_convolve

__all__ = [
    "GSAnalysis",
    "AssumptionReport",
    "mgs_norm_exact",
    "mgs_bound",
    "check_assumptions",
    "convergence_factor_observed",
    "analyze",
]

# difference norms below this many ulps of the first one are roundoff
_ROUNDOFF_FLOOR = 1e2
# rows per block of mgs_norm_exact's forward substitution
_LEAF = 64


@dataclass(frozen=True)
class GSAnalysis:
    mgs_norm: float
    mgs_bound: float | None  # None when the bound hypothesis fails
    e_norm: float
    df_norm: float
    w: float
    contraction: bool


@dataclass(frozen=True)
class AssumptionReport:
    cond_iii_ok: bool | None  # w <= rho / M; None without rho or M
    cond_lbound_ok: bool | None  # the bound hypothesis, see _bound_hypothesis; None without L
    w: float


def mgs_norm_exact(wm: WeightMatrix, L: float) -> float:
    """Exact infinity norm of (I - L|E|)^{-1} L(|D|+|F|).

    Every factor is entrywise nonnegative, so the row sums of the product
    are the product applied to the all-ones vector: y solves the unit lower
    triangular system (I - L|E|) y = L (|D|+|F|) 1, and the norm is max(y).
    With g_j = phi'_j y_j, row i is y_i = L (df_i + sum_{j<i} |p_{i-j}| g_j).

    The rows are solved in blocks of _LEAF by divide and conquer: solve the
    first half of the rows, add its g to the sums of the second half by one
    FFT convolution with |p|, then solve the second half.  A block's own
    coupling is the strictly lower _LEAF x _LEAF Toeplitz block T of |p|,
    so the block solves (I - L T diag(phi'_B)) y_B = L (df_B + acc_B), with
    acc_B the sums over the rows before the block.
    That is O(m log^2 m + _LEAF^2 m) work in O(m + _LEAF^2) memory.

    The tails of the grid, where phi' underflows to 0 (812 of the 4097
    nodes at N = 2048 on [0, 1/2]), are skipped.  A block outside the nodes
    with phi' > 0 has the identity as its system, and LAPACK's solve of it
    returns its right side exactly, so y_B = L (df_B + acc_B) is set
    directly and g_B = 0.  y is therefore the same to the bit as when every
    block is solved (up to the payload of a NaN after an overflow).

    The accuracy is normwise, like that of the row sums of |w|: each
    convolution is off by about eps log2(m) times its largest sum.  The
    block system is solved with rows and columns reversed, which makes it
    upper triangular: LAPACK's partial pivoting then never swaps rows, the
    LU factors are the matrix itself, and the solve is back substitution
    over nonnegative terms, so the blocks' sums have no cancellation.

    An overflow anywhere means that the norm exceeds the largest double,
    and the result is inf.
    """
    check_positive_finite("L", L)
    norm = _mgs_rows(wm, L).max()
    # every term is nonnegative, so a NaN comes from 0 * inf after an overflow
    return float(norm) if norm < math.inf else math.inf


def _mgs_rows(wm: WeightMatrix, L: float) -> np.ndarray:
    """The row sums y of mgs_norm_exact's comparison matrix."""
    m, dphi = wm.m, wm.grid.dphi
    a = np.abs(wm.p_column)  # a[k] = |p_k|, k = 0..m-1
    nb = min(m, _LEAF)
    # rows first..last-1 hold every phi' > 0; none does if all underflow
    live = np.flatnonzero(dphi)
    first, last = (live[0], live[-1] + 1) if live.size else (0, 0)
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.arange(nb)
        # upper[r, c] = L |p_{c-r}| above the diagonal: L T with rows and
        # columns reversed
        upper = L * np.triu(a[np.abs(k[None, :] - k[:, None])], 1)
        eye = np.eye(nb)
        y = wm.abs_row_sums[1].copy()  # df_i, plus the sums over earlier blocks
        g = np.empty(m)

        def solve(lo: int, hi: int) -> None:
            n = hi - lo
            if hi <= first or lo >= last:  # a tail: the block system is I
                y[lo:hi] *= L
                g[lo:hi] = 0.0
                return
            if n <= _LEAF:
                lhs = eye[:n, :n] - upper[:n, :n] * dphi[lo:hi][::-1]
                y[lo:hi] = np.linalg.solve(lhs, L * y[lo:hi][::-1])[::-1]
                g[lo:hi] = dphi[lo:hi] * y[lo:hi]
                return
            # the first half of the blocks, rounded up
            mid = lo + _LEAF * ((n + 2 * _LEAF - 1) // (2 * _LEAF))
            solve(lo, mid)
            # row i >= mid gains sum_{lo<=j<mid} |p_{i-j}| g_j
            y[mid:hi] += _fft_convolve(g[lo:mid], a[1:n], mid - lo - 1, n - 1)
            solve(mid, hi)

        solve(0, m)
    return y


def _bound_hypothesis(L: float, iv: Interval, w: float) -> tuple[float, bool]:
    """1.1 * L * (b - a), and whether the bound hypothesis holds: that
    value is below 1, and w, the largest row sum of |w|, is at most
    1.1 * (b - a)."""
    lhs = 1.1 * (L * iv.length)
    return lhs, bool(lhs < 1.0 and w <= 1.1 * iv.length)


def mgs_bound(L: float, iv: Interval, h: float, N: int) -> float:
    """Closed-form upper bound on the comparison-matrix norm.

    Requires 1.1 * L * (b - a) < 1, and raises ValueError otherwise.  It
    also needs w <= 1.1 * (b - a), w the largest row sum of |w|, which
    these arguments cannot show; analyze and check_assumptions check both
    (_bound_hypothesis).  That second hypothesis is grounded by a probe, not
    quoted from the paper: no case meeting it had the value below the exact
    norm, while at N = 8, h = 20 on [0, 1/2] (w = 8.56) the value is 15.40
    against a norm of 33.60.  The value is independent of the problem
    dimension and, with h = log(N)/N, decreases as N grows.
    """
    check_positive_finite("L", L)
    check_interval(iv)
    check_positive_finite("h", h)
    check_count("N", N, 2)
    # w = 0 checks only the half of the hypothesis that the arguments show
    lhs, holds = _bound_hypothesis(L, iv, 0.0)
    if not holds:
        raise ValueError(f"bound hypothesis violated: 1.1*L*(b-a) = {lhs} >= 1")
    return float(L * iv.length * h / (1.0 - lhs) * (
        math.pi / 8.0 + (1.0 + math.log(2 * N)) / (4.0 * math.pi)
    ))


def check_assumptions(prob: IVProblem, wm: WeightMatrix) -> AssumptionReport:
    """Report whether the sufficient conditions for convergence hold.  Each
    flag is None only when the problem lacks a constant its condition uses.

    Reporting only: a failed condition does not mean the iteration
    diverges (the condition is sufficient, not necessary).
    """
    if wm.grid.iv != prob.iv:
        raise ValueError(f"weights on {wm.grid.iv} but problem on {prob.iv}")
    e_rows, df_rows = wm.abs_row_sums
    w = float(np.max(e_rows + df_rows))
    # roundoff allowance: the discrete w approaches b-a from below but can
    # land a few ulps above it, and rho/M often sits exactly on that value
    cond_iii = (None if prob.rho is None or prob.bound_m is None
                else bool(w <= prob.rho / prob.bound_m * (1.0 + 1e-12)))
    cond_lbound = None if prob.lip is None else _bound_hypothesis(prob.lip, prob.iv, w)[1]
    return AssumptionReport(cond_iii_ok=cond_iii, cond_lbound_ok=cond_lbound, w=w)


def convergence_factor_observed(trace: IterationTrace) -> float:
    """Geometric mean of successive sweep-difference ratios.

    Ratios are dropped once the difference norm falls below
    _ROUNDOFF_FLOOR * machine epsilon * (initial norm): past that point the
    iterates only move by roundoff and the ratios are meaningless.  A norm
    of exactly 0, a sweep that changed nothing, is below that floor.
    """
    z = trace.z_norms
    if len(z) < 3:
        raise ValueError("need at least 3 difference norms to estimate a factor")
    check_positive_finite("z_norms[0]", z[0])
    for k, v in enumerate(z[1:], 1):
        check_nonnegative_finite(f"z_norms[{k}]", v)
    floor = _ROUNDOFF_FLOOR * np.finfo(float).eps * z[0]
    ratios = [z[k + 1] / z[k] for k in range(len(z) - 1)
              if z[k] > floor and z[k + 1] > floor]
    if not ratios:
        raise ValueError("all difference norms below the roundoff floor")
    return float(np.exp(np.mean(np.log(ratios))))


def analyze(wm: WeightMatrix, L: float) -> GSAnalysis:
    """Full analysis row for one weight matrix and Lipschitz constant."""
    grid = wm.grid
    e_rows, df_rows = wm.abs_row_sums
    w = float(np.max(e_rows + df_rows))
    norm = mgs_norm_exact(wm, L)
    _, holds = _bound_hypothesis(L, grid.iv, w)
    bound = mgs_bound(L, grid.iv, grid.h, grid.N) if holds else None
    return GSAnalysis(mgs_norm=norm, mgs_bound=bound, e_norm=float(e_rows.max()),
                      df_norm=float(df_rows.max()), w=w, contraction=norm < 1.0)
