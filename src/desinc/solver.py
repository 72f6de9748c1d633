"""Fixed-point solution of the nonlinear collocation system by Jacobi or
Gauss-Seidel sweeps, and evaluation of the reconstructed continuous
solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .grid import DEGrid
from .special import Interval, j_kernel, phi_de_inv
from .weights import WeightMatrix, build_weights

__all__ = [
    "IVProblem",
    "IterationTrace",
    "SincSolution",
    "NotConvergedError",
    "RhsEvaluationError",
    "jacobi_sweep",
    "gauss_seidel_sweep",
    "solve",
    "evaluate",
    "reference_solution",
]

DEFAULT_TOL = 1e-14
DEFAULT_MAX_SWEEPS = 50


class RhsEvaluationError(RuntimeError):
    """Right-hand-side evaluation failed at a specific node."""

    def __init__(self, node: int, t: float, cause: BaseException):
        super().__init__(f"rhs evaluation failed at node {node} (t = {t}): {cause}")
        self.node = node
        self.t = t
        self.__cause__ = cause


class NotConvergedError(RuntimeError):
    """The fixed-point iteration did not reach the tolerance.

    The partially converged solution and the full trace are attached for
    inspection.
    """

    def __init__(self, solution: "SincSolution", trace: "IterationTrace"):
        super().__init__(
            f"no convergence after {len(trace.z_norms)} sweeps "
            f"(last difference norm {trace.z_norms[-1]:.3e})"
        )
        self.solution = solution
        self.trace = trace


@dataclass(frozen=True)
class IVProblem:
    """Initial value problem dx/dt = rhs(t, x) on an interval.

    The optional constants are the Lipschitz constant (lip), the bound on
    the right-hand side over the ball of radius rho around the initial
    value (bound_m), and the ball radius itself (rho); they are only used
    by the analysis module.
    """

    n: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    x_a: np.ndarray
    iv: Interval
    lip: float | None = None
    bound_m: float | None = None
    rho: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x_a", np.atleast_1d(np.asarray(self.x_a, dtype=float)))
        if self.x_a.shape != (self.n,):
            raise ValueError(f"x_a must have shape ({self.n},), got {self.x_a.shape}")


@dataclass
class IterationTrace:
    z_norms: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] | None = None
    converged: bool = False


@dataclass(frozen=True)
class SincSolution:
    grid: DEGrid
    x_nodes: np.ndarray  # (m, n) converged node values
    f_nodes: np.ndarray  # (m, n) rhs values at the node values
    x_a: np.ndarray


def _eval_rhs(prob: IVProblem, grid: DEGrid, k: int, x: np.ndarray) -> np.ndarray:
    t = grid.t[k]
    try:
        out = np.asarray(prob.rhs(t, x), dtype=float)
    except Exception as exc:
        raise RhsEvaluationError(k - grid.N, t, exc) from exc
    return np.atleast_1d(out)


def _eval_rhs_all(prob: IVProblem, grid: DEGrid, x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    for k in range(grid.m):
        out[k] = _eval_rhs(prob, grid, k, x[k])
    return out


def jacobi_sweep(prob: IVProblem, wm: WeightMatrix, cur: np.ndarray) -> np.ndarray:
    """One Jacobi sweep: every node is recomputed from the previous sweep
    only."""
    fvals = _eval_rhs_all(prob, wm.grid, cur)
    return prob.x_a[None, :] + wm.w @ fvals


def gauss_seidel_sweep(
    prob: IVProblem,
    wm: WeightMatrix,
    state: np.ndarray,
    fvals: np.ndarray | None = None,
) -> np.ndarray:
    """One Gauss-Seidel sweep, updating nodes in ascending order in place.

    Node i is recomputed from already-updated values for j < i and
    previous-sweep values for j >= i.  Each rhs value is computed once per
    node per sweep and cached in fvals; callers may pass a cache holding
    the rhs at the current state to avoid recomputation, and the cache is
    left holding the rhs at the returned state.
    """
    grid = wm.grid
    if fvals is None:
        fvals = _eval_rhs_all(prob, grid, state)
    for i in range(grid.m):
        # fvals[i] still holds the previous-sweep value here, as required.
        state[i] = prob.x_a + wm.w[i] @ fvals
        fvals[i] = _eval_rhs(prob, grid, i, state[i])
    return state


def solve(
    prob: IVProblem,
    grid: DEGrid,
    method: str = "gauss_seidel",
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    store_iterates: bool = False,
    wm: WeightMatrix | None = None,
) -> tuple[SincSolution, IterationTrace]:
    """Iterate the chosen sweep from the constant initial guess x_a until
    the sweep-difference norm drops below tol.

    tol = 0 disables the convergence check: exactly max_sweeps sweeps are
    performed and the result is returned unconverged without raising.
    With tol > 0, failure to converge raises NotConvergedError carrying
    the solution and trace; the iteration stops at the first sweep whose
    difference norm is NaN or inf.
    """
    if method not in ("jacobi", "gauss_seidel"):
        raise ValueError(f"unknown method {method!r}")
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    if wm is None:
        wm = build_weights(grid)

    state = np.tile(prob.x_a, (grid.m, 1))
    trace = IterationTrace(iterates=[] if store_iterates else None)
    fvals = _eval_rhs_all(prob, grid, state) if method == "gauss_seidel" else None

    for _ in range(max_sweeps):
        prev = state.copy()
        if method == "jacobi":
            state = jacobi_sweep(prob, wm, state)
        else:
            state = gauss_seidel_sweep(prob, wm, state, fvals)
        z = float(np.max(np.abs(state - prev))) if grid.m else 0.0
        trace.z_norms.append(z)
        if store_iterates:
            trace.iterates.append(state.copy())
        if tol > 0.0 and z < tol:
            trace.converged = True
            break
        if tol > 0.0 and not np.isfinite(z):
            # a NaN or inf iterate cannot recover; the sweeps left would
            # only repeat the failing rhs calls
            break

    f_nodes = fvals if fvals is not None else _eval_rhs_all(prob, grid, state)
    sol = SincSolution(grid=grid, x_nodes=state.copy(), f_nodes=f_nodes.copy(), x_a=prob.x_a)
    if tol > 0.0 and not trace.converged:
        raise NotConvergedError(sol, trace)
    return sol, trace


def reference_solution(
    prob: IVProblem, grid: DEGrid, wm: WeightMatrix | None = None
) -> SincSolution:
    """Reference node values: exactly 10 Gauss-Seidel sweeps, no
    convergence check."""
    sol, _ = solve(prob, grid, method="gauss_seidel", tol=0.0, max_sweeps=10, wm=wm)
    return sol


def evaluate(sol: SincSolution, t: float) -> np.ndarray:
    """Evaluate the continuous approximate solution at any t in [a, b]."""
    grid = sol.grid
    if not grid.iv.a <= t <= grid.iv.b:
        raise ValueError(f"t = {t} outside interval [{grid.iv.a}, {grid.iv.b}]")
    s = phi_de_inv(t, grid.iv)
    kern = np.array([j_kernel(j, grid.h, s) for j in range(-grid.N, grid.N + 1)])
    return sol.x_a + (sol.f_nodes * grid.dphi[:, None] * kern[:, None]).sum(axis=0)
