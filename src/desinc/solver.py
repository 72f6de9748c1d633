"""Fixed-point solution of the nonlinear collocation system by Jacobi or
Gauss-Seidel sweeps, and evaluation of the reconstructed continuous
solution.
"""

from __future__ import annotations

import math
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
    """Right-hand-side evaluation failed at a specific node.

    solve sets sweep: 0 for the evaluation at the initial guess, k for
    sweep k.  It stays None when a sweep function is called directly.
    """

    def __init__(self, node: int, t: float, cause: BaseException):
        super().__init__(node, t)
        self.node = node
        self.t = t
        self.sweep: int | None = None
        self.__cause__ = cause

    def __str__(self) -> str:
        where = f"node {self.node} (t = {self.t})"
        if self.sweep is not None:
            where = f"sweep {self.sweep}, {where}"
        return f"rhs evaluation failed at {where}: {self.__cause__}"


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
    """Initial value problem dx/dt = rhs(t, x), x(a) = x_a of size n.

    The optional constants are the Lipschitz constant (lip), the bound on
    the right-hand side over the ball of radius rho around the initial
    value (bound_m), and the ball radius itself (rho); they are only used
    by the analysis module, and each must be positive and finite if given.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    x_a: np.ndarray
    iv: Interval
    lip: float | None = None
    bound_m: float | None = None
    rho: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "x_a", np.atleast_1d(np.asarray(self.x_a, dtype=float)))
        if self.x_a.ndim != 1:
            raise ValueError(f"x_a must be 1-D, got shape {self.x_a.shape}")
        for name in ("lip", "bound_m", "rho"):
            v = getattr(self, name)
            if v is not None and not 0.0 < v < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {v}")


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


def _eval_rhs(prob: IVProblem, grid: DEGrid, k: int, x: np.ndarray, out: np.ndarray,
              check_shape: bool = False) -> None:
    """Store rhs(t_k, x) into the node row out.  A failing rhs, or a
    result that cannot be stored in the row, raises RhsEvaluationError;
    so does, with check_shape, a result that the row would broadcast."""
    t = grid.t[k]
    try:
        f = prob.rhs(t, x)
        if check_shape and np.shape(f) != out.shape:
            raise ValueError(f"rhs returned shape {np.shape(f)}, expected {out.shape}")
        out[...] = f
    except Exception as exc:
        raise RhsEvaluationError(k - grid.N, t, exc) from exc


def _eval_rhs_all(prob: IVProblem, grid: DEGrid, x: np.ndarray) -> np.ndarray:
    # the shape of the first result is checked once per call, not per node,
    # to keep the per-node cost of the sweeps down
    out = np.empty_like(x)
    _eval_rhs(prob, grid, 0, x[0], out[0], check_shape=True)
    for k in range(1, grid.m):
        _eval_rhs(prob, grid, k, x[k], out[k])
    return out


def jacobi_sweep(
    prob: IVProblem,
    wm: WeightMatrix,
    state: np.ndarray,
    fvals: np.ndarray | None = None,
) -> np.ndarray:
    """One Jacobi sweep: every node is recomputed from the previous sweep
    only, into a new array; state is left unchanged.  fvals is the rhs
    cache described in gauss_seidel_sweep.  The weights are applied by
    WeightMatrix.matmul, which does not form the dense w.
    """
    grid = wm.grid
    if fvals is None:
        fvals = _eval_rhs_all(prob, grid, state)
    new = prob.x_a[None, :] + wm.matmul(fvals)
    fvals[:] = _eval_rhs_all(prob, grid, new)
    return new


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
    w, x_a = wm.w, prob.x_a
    for i in range(grid.m):
        row = state[i]
        # fvals[i] still holds the previous-sweep value here, as required.
        np.add(x_a, w[i] @ fvals, out=row)
        _eval_rhs(prob, grid, i, row, fvals[i])
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
    difference norm is NaN or inf.  A given wm must be built on a grid
    with the interval, N and h of grid.
    """
    if method not in ("jacobi", "gauss_seidel"):
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be nonnegative and finite, got {tol}")
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1")
    if wm is None:
        wm = build_weights(grid)
    elif (wm.grid.iv, wm.grid.N, wm.grid.h) != (grid.iv, grid.N, grid.h):
        raise ValueError("wm was built on a different grid: interval, N or h differ")

    state = np.tile(prob.x_a, (grid.m, 1))
    trace = IterationTrace(iterates=[] if store_iterates else None)
    # looked up per call, so that a wrapper rebound onto the name is called
    sweep = jacobi_sweep if method == "jacobi" else gauss_seidel_sweep

    # the sweep number is attached to a failing rhs here, once, so that
    # the per-node path does not carry it
    nu = 0
    try:
        fvals = _eval_rhs_all(prob, grid, state)
        for nu in range(1, max_sweeps + 1):
            prev = state.copy()
            state = sweep(prob, wm, state, fvals)
            z = float(np.max(np.abs(state - prev)))
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
    except RhsEvaluationError as err:
        err.sweep = nu
        raise

    sol = SincSolution(grid=grid, x_nodes=state.copy(), f_nodes=fvals.copy(), x_a=prob.x_a)
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
    s = phi_de_inv(t, grid.iv)
    kern = np.array([j_kernel(j, grid.h, s) for j in range(-grid.N, grid.N + 1)])
    return sol.x_a + (sol.f_nodes * grid.dphi[:, None] * kern[:, None]).sum(axis=0)
