"""Convergence analysis of the Gauss-Seidel sweep: the exact infinity
norm of the comparison matrix (I - L|E|)^{-1} L(|D|+|F|), its closed-form
upper bound, and checks of the sufficient conditions for convergence.

No m x m matrix is formed.  |w_ij| = |p_{i-j}| * phi'_j with the 4N+1
generator values p_k of WeightMatrix, so every row sum of |E| or |D|+|F|
is one entry of a convolution of |p| with phi', and the comparison norm is
one forward substitution on the generator: O(m) memory, O(m^2) work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solver import IterationTrace, IVProblem
from .special import Interval
from .weights import WeightMatrix

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
    Row i of the forward substitution is one dot product of the generator
    with phi' * y over the rows already done, so the answer is exact in
    finitely many steps (the Neumann series of the inverse terminates).
    """
    if L <= 0.0:
        raise ValueError("Lipschitz constant must be positive")
    m, dphi = wm.m, wm.grid.dphi
    df_rows = wm.abs_row_sums[1]
    # rev[m - 1 - i : m - 1] = |p_i|, ..., |p_1|: row i of |E| without dphi
    rev = np.abs(wm.gen[::-1])
    y = np.empty(m)
    g = np.empty(m)  # g[j] = dphi[j] * y[j] for the rows done so far
    for i in range(m):
        y[i] = L * (df_rows[i] + rev[m - 1 - i:m - 1] @ g[:i])
        g[i] = dphi[i] * y[i]
    return float(y.max())


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
