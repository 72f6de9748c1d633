"""Fixed-point solution of the nonlinear collocation system by Jacobi or
Gauss-Seidel sweeps, and evaluation of the reconstructed continuous
solution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .grid import DEGrid
from .special import (Interval, check_count, check_interval, check_nonnegative_finite,
                      check_positive_finite, j_kernel, phi_de_inv, real_array)
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
# the sweep kinds solve takes, in the order the CLI lists them
METHODS = ("jacobi", "gauss_seidel")


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
    x_a must be a nonempty 1-D array (or a scalar) of finite real values.
    """

    rhs: Callable[[float, np.ndarray], np.ndarray]
    x_a: np.ndarray
    iv: Interval
    lip: float | None = None
    bound_m: float | None = None
    rho: float | None = None

    def __post_init__(self):
        check_interval(self.iv)
        given = self.x_a
        object.__setattr__(self, "x_a", np.atleast_1d(real_array("x_a", given)))
        if self.x_a.ndim != 1 or self.x_a.size == 0:
            raise ValueError(f"x_a must be 1-D and nonempty, got shape {self.x_a.shape}")
        if not np.all(np.isfinite(self.x_a)):
            raise ValueError(f"x_a must be finite, got {given!r}")
        for name in ("lip", "bound_m", "rho"):
            if getattr(self, name) is not None:
                check_positive_finite(name, getattr(self, name))


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


def _fill_rhs(prob: IVProblem, grid: DEGrid, rows: Iterable[np.ndarray],
              fvals: np.ndarray) -> None:
    """Store rhs(t_k, row k) into fvals[k] at every node k.  rows is state
    or an iterator over its rows, which zip pulls only after it has stored
    the last rhs value.  A failing rhs, or a result of another shape than
    a node row or of no real dtype, raises RhsEvaluationError."""
    rhs, shape, dtype = prob.rhs, prob.x_a.shape, fvals.dtype
    for node, t, row, f_row in zip(itertools.count(-grid.N), grid.t, rows, fvals):
        try:
            f = rhs(t, row)
            # the attribute reads are cheap; np.shape and real_array serve the rest
            if getattr(f, "shape", None) != shape and np.shape(f) != shape:
                raise ValueError(f"rhs returned shape {np.shape(f)}, expected {shape}")
            f_row[...] = f if getattr(f, "dtype", None) is dtype else real_array("rhs result", f)
        except Exception as exc:
            raise RhsEvaluationError(node, t, exc) from exc


def _check_sweep_arrays(prob: IVProblem, grid: DEGrid, state: np.ndarray,
                        fvals: np.ndarray) -> None:
    """Raise ValueError unless state and fvals are floating arrays of
    shape (m, n), which a sweep can update in place."""
    expected = (grid.m, prob.x_a.size)
    for name, a in (("state", state), ("fvals", fvals)):
        if not isinstance(a, np.ndarray):
            got = f"{type(a).__name__} of shape {np.shape(a)}"
        elif a.shape != expected or not np.issubdtype(a.dtype, np.floating):
            got = f"{a.dtype} array of shape {a.shape}"
        else:
            continue
        raise ValueError(f"{name} must be a floating array of shape {expected}, got {got}")


def jacobi_sweep(prob: IVProblem, wm: WeightMatrix, state: np.ndarray,
                 fvals: np.ndarray) -> None:
    """One Jacobi sweep in place: every node is recomputed from the
    previous sweep only, as state = x_a + w @ fvals, and fvals is then
    refilled at the new state.  The arrays are as in gauss_seidel_sweep.
    The weights are applied by WeightMatrix.matmul, which does not form
    the dense w.
    """
    grid = wm.grid
    _check_sweep_arrays(prob, grid, state, fvals)
    np.add(prob.x_a, wm.matmul(fvals), out=state)
    _fill_rhs(prob, grid, state, fvals)


def gauss_seidel_sweep(prob: IVProblem, wm: WeightMatrix, state: np.ndarray,
                       fvals: np.ndarray) -> None:
    """One Gauss-Seidel sweep, updating nodes in ascending order in place.

    Node i is recomputed from already-updated values for j < i and
    previous-sweep values for j >= i.  fvals must hold the rhs at state
    on entry; each node's rhs is computed once per sweep into it, so it
    holds the rhs at the updated state on exit.  state and fvals must be
    floating arrays of shape (m, n); anything else raises ValueError.

    w = P diag(dphi) is read from its Toeplitz factor in the row blocks of
    WeightMatrix.row_blocks, views that BLAS reads in place, so no m x m
    array is formed or copied.  The sweep keeps g = dphi * fvals.  At the
    start of a block, matrix products of its rows of P with g sum each row
    over the columns left and right of the block.  Each node then adds a
    dot product of fvals over the block's own columns, with its row of the
    block's diagonal block of w.  So every row is summed in another order
    than by one m-long dot product of the dense w, and node values differ
    by ulps.  Each row is updated as _fill_rhs pulls it.
    """
    _check_sweep_arrays(prob, wm.grid, state, fvals)
    x_a, dphi, add = prob.x_a, wm.grid.dphi, np.add

    def rows():
        # the rows before the current block hold this sweep's values, the
        # rows from it on last sweep's
        g = dphi[:, None] * fvals
        for i0, p_block, w_block in wm.row_blocks:
            i1 = i0 + len(p_block)
            # an empty product (first and last block) is zero
            acc = x_a + p_block[:, :i0] @ g[:i0] + p_block[:, i1:] @ g[i1:]
            # a view: its rows before i already hold this sweep's values
            f_block = fvals[i0:i1]
            for acc_i, w_i, row in zip(acc, w_block, state[i0:i1]):
                # add skips a global lookup, .dot np.dot's dispatch; @ is slower
                add(acc_i, w_i.dot(f_block), out=row)
                yield row
            np.multiply(dphi[i0:i1, None], f_block, out=g[i0:i1])

    _fill_rhs(prob, wm.grid, rows(), fvals)


def solve(
    prob: IVProblem,
    grid: DEGrid,
    method: str = "gauss_seidel",
    tol: float = DEFAULT_TOL,
    max_sweeps: int = DEFAULT_MAX_SWEEPS,
    store_iterates: bool = False,
) -> tuple[SincSolution, IterationTrace]:
    """Iterate the chosen sweep from the constant initial guess x_a until
    the sweep-difference norm drops below tol.

    tol = 0 disables the convergence check: exactly max_sweeps sweeps are
    performed and the result is returned unconverged without raising.
    With tol > 0, failure to converge raises NotConvergedError carrying
    the solution and trace; the iteration stops at the first sweep whose
    difference norm is NaN or inf.  grid must be on prob.iv; the weights
    are built from it, as their 4N+1 Toeplitz generator.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}")
    check_nonnegative_finite("tol", tol)
    check_count("max_sweeps", max_sweeps, 1)
    if grid.iv != prob.iv:
        raise ValueError(f"grid on {grid.iv} but problem on {prob.iv}")
    wm = build_weights(grid)

    state = np.tile(prob.x_a, (grid.m, 1))
    fvals = np.empty_like(state)
    trace = IterationTrace(iterates=[] if store_iterates else None)
    # looked up per call, so that a wrapper rebound onto the name is called
    sweep = jacobi_sweep if method == "jacobi" else gauss_seidel_sweep

    # the sweep number is attached to a failing rhs here, once, so that
    # the per-node path does not carry it
    nu = 0
    try:
        _fill_rhs(prob, grid, state, fvals)
        for nu in range(1, max_sweeps + 1):
            prev = state.copy()
            sweep(prob, wm, state, fvals)
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

    sol = SincSolution(grid=grid, x_nodes=state, f_nodes=fvals, x_a=prob.x_a)
    if tol > 0.0 and not trace.converged:
        raise NotConvergedError(sol, trace)
    return sol, trace


def reference_solution(prob: IVProblem, grid: DEGrid) -> SincSolution:
    """Reference node values: exactly 10 Gauss-Seidel sweeps from solve,
    which builds the weights of grid, with no convergence check."""
    sol, _ = solve(prob, grid, method="gauss_seidel", tol=0.0, max_sweeps=10)
    return sol


def evaluate(sol: SincSolution, t: float) -> np.ndarray:
    """Evaluate the continuous approximate solution at any t in [a, b]."""
    grid = sol.grid
    s = phi_de_inv(t, grid.iv)
    kern = np.array([j_kernel(j, grid.h, s) for j in range(-grid.N, grid.N + 1)])
    return sol.x_a + (sol.f_nodes * grid.dphi[:, None] * kern[:, None]).sum(axis=0)
