"""Convergence analysis of the Gauss-Seidel sweep: the exact infinity
norm of the comparison matrix (I - L|E|)^{-1} L(|D|+|F|), its closed-form
upper bound, and checks of the sufficient conditions for convergence.

No m x m matrix is formed.  |w_ij| = |p_{i-j}| * phi'_j with the 4N+1
generator values p_k of WeightMatrix, so every row sum of |E| or |D|+|F|
is one entry of an FFT convolution of |p| with phi', and the comparison
norm is one blocked forward substitution on the generator: O(m) memory,
O(m log^2 m) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import IterationTrace, IVProblem
from .special import Interval
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
    cond_iii_ok: bool | None  # w <= rho / M
    cond_lbound_ok: bool | None  # 1.1 * L * (b - a) < 1
    w: float
    details: str


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

    The accuracy is normwise, like that of the row sums of |w|: each
    convolution is off by about eps log2(m) times its largest sum.  The
    block system is solved with rows and columns reversed, which makes it
    upper triangular: LAPACK's partial pivoting then never swaps rows, the
    LU factors are the matrix itself, and the solve is back substitution
    over nonnegative terms, so the blocks' sums have no cancellation.

    An overflow anywhere means that the norm exceeds the largest double,
    and the result is inf.
    """
    if L <= 0.0:
        raise ValueError("Lipschitz constant must be positive")
    m, dphi = wm.m, wm.grid.dphi
    a = np.abs(wm.gen[m - 1:])  # a[k] = |p_k|, k = 0..m-1
    nb = min(m, _LEAF)
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
            if n <= _LEAF:
                lhs = eye[:n, :n] - upper[:n, :n] * dphi[lo:hi][::-1]
                y[lo:hi] = np.linalg.solve(lhs, L * y[lo:hi][::-1])[::-1]
                g[lo:hi] = dphi[lo:hi] * y[lo:hi]
                return
            # the first half of the blocks, rounded up
            mid = lo + _LEAF * ((n + 2 * _LEAF - 1) // (2 * _LEAF))
            solve(lo, mid)
            # row i >= mid gains sum_{lo<=j<mid} |p_{i-j}| g_j
            y[mid:hi] += _fft_convolve(g[lo:mid], a[1:n])[mid - lo - 1:n - 1]
            solve(mid, hi)

        solve(0, m)
        norm = y.max()
    # every term is nonnegative, so a NaN comes from 0 * inf after an overflow
    return float(norm) if norm < math.inf else math.inf


def _bound_hypothesis(L: float, iv: Interval) -> tuple[float, bool]:
    """1.1 * L * (b - a) and whether it is below 1, the bound hypothesis."""
    lhs = 1.1 * (L * iv.length)
    return lhs, lhs < 1.0


def mgs_bound(L: float, iv: Interval, h: float, N: int) -> float:
    """Closed-form upper bound on the comparison-matrix norm.

    Requires 1.1 * L * (b - a) < 1.  The value is independent of the
    problem dimension and, with h = log(N)/N, decreases as N grows.
    """
    if L <= 0.0:
        raise ValueError("Lipschitz constant must be positive")
    if h <= 0.0:
        raise ValueError("step size must be positive")
    if N < 2:
        raise ValueError("N must be at least 2")
    lhs, holds = _bound_hypothesis(L, iv)
    if not holds:
        raise ValueError(f"bound hypothesis violated: 1.1*L*(b-a) = {lhs} >= 1")
    return L * iv.length * h / (1.0 - lhs) * (
        math.pi / 8.0 + (1.0 + math.log(2 * N)) / (4.0 * math.pi)
    )


def check_assumptions(prob: IVProblem, wm: WeightMatrix) -> AssumptionReport:
    """Report whether the sufficient conditions for convergence hold.

    Reporting only: a failed condition does not mean the iteration
    diverges (the condition is sufficient, not necessary).
    """
    e_rows, df_rows = wm.abs_row_sums
    w = float(np.max(e_rows + df_rows))
    missing = [name for name, v in
               (("L", prob.lip), ("M", prob.bound_m), ("rho", prob.rho)) if v is None]
    if missing:
        return AssumptionReport(
            cond_iii_ok=None, cond_lbound_ok=None, w=w,
            details=f"incomplete: missing constants {', '.join(missing)}",
        )
    # roundoff allowance: the discrete w approaches b-a from below but can
    # land a few ulps above it, and rho/M often sits exactly on that value
    cond_iii = w <= prob.rho / prob.bound_m * (1.0 + 1e-12)
    lhs, cond_lbound = _bound_hypothesis(prob.lip, prob.iv)
    details = (
        f"w = {w:.6g}, rho/M = {prob.rho / prob.bound_m:.6g}, "
        f"1.1*L*(b-a) = {lhs:.6g}"
    )
    return AssumptionReport(cond_iii_ok=cond_iii, cond_lbound_ok=cond_lbound,
                            w=w, details=details)


def convergence_factor_observed(trace: IterationTrace) -> float:
    """Geometric mean of successive sweep-difference ratios.

    Ratios are dropped once the difference norm falls below
    _ROUNDOFF_FLOOR * machine epsilon * (initial norm): past that point the
    iterates only move by roundoff and the ratios are meaningless.
    """
    z = trace.z_norms
    if len(z) < 3:
        raise ValueError("need at least 3 difference norms to estimate a factor")
    if any(v == 0.0 for v in z):
        raise ValueError("difference norms must be nonzero")
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
    norm = mgs_norm_exact(wm, L)
    try:
        bound = mgs_bound(L, grid.iv, grid.h, grid.N)
    except ValueError:
        bound = None
    return GSAnalysis(mgs_norm=norm, mgs_bound=bound, e_norm=float(e_rows.max()),
                      df_norm=float(df_rows.max()), w=float(np.max(e_rows + df_rows)),
                      contraction=norm < 1.0)
