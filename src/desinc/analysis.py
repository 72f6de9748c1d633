"""Convergence analysis of the Gauss-Seidel sweep: the exact infinity
norm of the comparison matrix (I - L|E|)^{-1} L(|D|+|F|), its closed-form
upper bound, and checks of the sufficient conditions for convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular

from .solver import IterationTrace, IVProblem
from .special import Interval
from .weights import TriangularSplit, WeightMatrix, row_sum_norm, split

__all__ = [
    "GSAnalysis",
    "AssumptionReport",
    "mgs_norm_exact",
    "mgs_bound",
    "check_assumptions",
    "convergence_factor_observed",
    "analyze",
]


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


def mgs_norm_exact(tsplit: TriangularSplit, L: float) -> float:
    """Exact infinity norm of (I - L|E|)^{-1} L(|D|+|F|).

    The system matrix is unit lower triangular, so forward substitution
    gives the exact answer in finitely many steps (the Neumann series of
    the inverse terminates).
    """
    if L <= 0.0:
        raise ValueError("Lipschitz constant must be positive")
    m = len(tsplit.d)
    sys = np.eye(m) - L * np.abs(tsplit.e)
    bmat = L * (np.diag(np.abs(tsplit.d)) + np.abs(tsplit.f))
    y = solve_triangular(sys, bmat, lower=True, unit_diagonal=True)
    return row_sum_norm(y)


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
    lba = L * iv.length
    if 1.1 * lba >= 1.0:
        raise ValueError(f"bound hypothesis violated: 1.1*L*(b-a) = {1.1 * lba} >= 1")
    return lba * h / (1.0 - 1.1 * lba) * (
        math.pi / 8.0 + (1.0 + math.log(2 * N)) / (4.0 * math.pi)
    )


def check_assumptions(prob: IVProblem, wm: WeightMatrix) -> AssumptionReport:
    """Report whether the sufficient conditions for convergence hold.

    Reporting only: a failed condition does not mean the iteration
    diverges (the condition is sufficient, not necessary).
    """
    w = row_sum_norm(wm.w)
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
    lba = 1.1 * prob.lip * prob.iv.length
    cond_lbound = lba < 1.0
    details = (
        f"w = {w:.6g}, rho/M = {prob.rho / prob.bound_m:.6g}, "
        f"1.1*L*(b-a) = {lba:.6g}"
    )
    return AssumptionReport(cond_iii_ok=cond_iii, cond_lbound_ok=cond_lbound,
                            w=w, details=details)


def convergence_factor_observed(trace: IterationTrace, floor_factor: float = 1e2) -> float:
    """Geometric mean of successive sweep-difference ratios.

    Ratios are dropped once the difference norm falls below
    floor_factor * machine epsilon * (initial norm): past that point the
    iterates only move by roundoff and the ratios are meaningless.
    """
    z = trace.z_norms
    if len(z) < 3:
        raise ValueError("need at least 3 difference norms to estimate a factor")
    if any(v == 0.0 for v in z):
        raise ValueError("difference norms must be nonzero")
    floor = floor_factor * np.finfo(float).eps * z[0]
    ratios = [z[k + 1] / z[k] for k in range(len(z) - 1)
              if z[k] > floor and z[k + 1] > floor]
    if not ratios:
        raise ValueError("all difference norms below the roundoff floor")
    return float(np.exp(np.mean(np.log(ratios))))


def analyze(wm: WeightMatrix, L: float) -> GSAnalysis:
    """Full analysis row for one weight matrix and Lipschitz constant."""
    grid = wm.grid
    tsplit = split(wm)
    e_norm = row_sum_norm(tsplit.e)
    df_norm = row_sum_norm(np.diag(tsplit.d) + tsplit.f)
    w = row_sum_norm(wm.w)
    norm = mgs_norm_exact(tsplit, L)
    try:
        bound = mgs_bound(L, grid.iv, grid.h, grid.N)
    except ValueError:
        bound = None
    return GSAnalysis(mgs_norm=norm, mgs_bound=bound, e_norm=e_norm,
                      df_norm=df_norm, w=w, contraction=norm < 1.0)
