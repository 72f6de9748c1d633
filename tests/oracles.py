"""Independent reference implementations used only to check the library:
a fixed-step RK4 integrator, a quadrature-based sine integral, the weight
matrix in 40-digit mpmath arithmetic, a matrix product with exactly
rounded row sums, a literal double-loop Gauss-Seidel
sweep, the infinity norm of a dense matrix, the comparison-matrix norm
through a dense inverse and by a row-by-row forward substitution, the
Toda-lattice commutator check, and the exact Lotka-Volterra solution
computed one time at a time.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
import scipy.linalg
from scipy.integrate import quad


def rk4(rhs, x0, t0, t1, step=1e-5):
    """Classical RK4 with a fixed step; the designated trajectory oracle,
    entirely independent of the Sinc machinery."""
    x = np.array(x0, dtype=float)
    nsteps = max(1, int(round((t1 - t0) / step)))
    dt = (t1 - t0) / nsteps
    t = t0
    for _ in range(nsteps):
        k1 = rhs(t, x)
        k2 = rhs(t + dt / 2, x + dt / 2 * k1)
        k3 = rhs(t + dt / 2, x + dt / 2 * k2)
        k4 = rhs(t + dt, x + dt * k3)
        x = x + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        t += dt
    return x


def si_quadrature(x: float) -> float:
    """Sine integral by adaptive quadrature of sin(t)/t."""
    if x < 0:
        return -si_quadrature(-x)
    # split at multiples of pi so the oscillatory tail is resolved
    pieces = np.arange(0.0, x, np.pi).tolist() + [x]
    total = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        val, _ = quad(lambda t: np.sinc(t / np.pi), lo, hi, epsabs=1e-15, epsrel=1e-13)
        total += val
    return total


def weights_mpmath(grid) -> list[list]:
    """The weights w[i][j] = phi'(s_j) * h * (1/2 + Si(pi (i - j))/pi) as
    40-digit mpmath numbers, from the grid's own h and phi'(s_j) (both
    taken as exact) and mpmath's pi and Si."""
    with mpmath.workdps(40):
        h = mpmath.mpf(grid.h)
        p = {k: h * (mpmath.mpf(1) / 2 + mpmath.si(mpmath.pi * k) / mpmath.pi)
             for k in range(-(grid.m - 1), grid.m)}
        dphi = [mpmath.mpf(d) for d in grid.dphi]
        return [[dphi[j] * p[i - j] for j in range(grid.m)] for i in range(grid.m)]


def gauss_seidel_row_naive(x_a, w, tgrid, rhs, new, old, i):
    """Row i of the Gauss-Seidel update, summed term by term: the rhs is
    taken at the rows of new before i and at the rows of old from i on."""
    acc = np.array(x_a, dtype=float)
    for j in range(i):
        acc = acc + w[i, j] * rhs(tgrid[j], new[j])
    for j in range(i, len(tgrid)):
        acc = acc + w[i, j] * rhs(tgrid[j], old[j])
    return acc


def gauss_seidel_sweep_naive(x_a, w, tgrid, rhs, state):
    """Literal double-loop transcription of the Gauss-Seidel update, with
    no caching: every rhs value is recomputed on demand."""
    new = [np.array(v, dtype=float) for v in state]
    old = [np.array(v, dtype=float) for v in state]
    for i in range(len(tgrid)):
        new[i] = gauss_seidel_row_naive(x_a, w, tgrid, rhs, new, old, i)
    return np.array(new)


def matmul_fsum(w, f) -> np.ndarray:
    """w @ f with every row sum taken by math.fsum: the products are
    rounded once each, their sum is correctly rounded."""
    w, f = np.asarray(w, dtype=float), np.asarray(f, dtype=float)
    out = np.empty((w.shape[0], f.shape[1]))
    for c in range(f.shape[1]):
        out[:, c] = [math.fsum(row) for row in (w * f[:, c]).tolist()]
    return out


def central_difference(f, x, step=1e-6):
    return (f(x + step) - f(x - step)) / (2.0 * step)


def row_sum_norm(m) -> float:
    """Infinity norm: maximum absolute row sum."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    if a.size == 0:
        return 0.0
    return float(np.max(np.sum(np.abs(a), axis=1)))


def mgs_norm_dense(w, L):
    """Infinity norm of (I - L|E|)^{-1} L(|D|+|F|) for the weight matrix w,
    formed with a dense inverse and a full matrix product."""
    a = np.abs(np.asarray(w, dtype=float))
    m = a.shape[0]
    inv = np.linalg.inv(np.eye(m) - L * np.tril(a, k=-1))
    y = inv @ (L * np.triu(a))
    return float(np.max(np.sum(np.abs(y), axis=1)))


def mgs_norm_rowloop(wm, L):
    """Infinity norm of (I - L|E|)^{-1} L(|D|+|F|) by forward substitution
    on the generator, one row at a time: row i is one dot product of
    |p_i|, ..., |p_1| with phi' * y over the rows already done."""
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


def toda_rhs_check(s) -> float:
    """Maximum deviation of the commutator [A, A_-] from the tridiagonal
    form prescribed by the lattice equations."""
    a = s.lax_matrix()
    a_minus = np.tril(a, k=-1)
    comm = a @ a_minus - a_minus @ a
    expected = np.zeros_like(comm)
    e_pad = np.concatenate([[0.0], s.e, [0.0]])
    for k in range(s.m):
        expected[k, k] = e_pad[k + 1] - e_pad[k]
    for k in range(s.m - 1):
        expected[k + 1, k] = s.e[k] * (s.q[k + 1] - s.q[k])
    return float(np.max(np.abs(comm - expected)))


def lv_exact_per_t(q0, e0, t) -> np.ndarray:
    """Exact Lotka-Volterra solution at one time t, for the Toda state
    (q0, e0) at time 0: the Lax matrix built entry by entry, its
    exponential, an LR loop, scipy's triangular solve for the conjugated
    Lax matrix and the scalar Miura recursion."""
    m = len(q0)
    a0 = np.diag(np.asarray(q0, dtype=float))
    for k in range(m - 1):
        a0[k, k + 1] = 1.0
        a0[k + 1, k] = e0[k]
    if t == 0.0:
        at = a0
    else:
        u = scipy.linalg.expm(t * a0)
        low = np.eye(m)
        for k in range(m - 1):
            low[k + 1:, k] = u[k + 1:, k] / u[k, k]
            u[k + 1:, k:] -= np.outer(low[k + 1:, k], u[k, k:])
        at = scipy.linalg.solve_triangular(low, a0 @ low, lower=True, unit_diagonal=True)
    q, e = np.diag(at), np.diag(at, k=-1)
    x = np.empty(2 * m - 1)
    x[0] = q[0] - 1.0
    for k in range(1, m):
        x[2 * k - 1] = e[k - 1] / x[2 * k - 2]
        x[2 * k] = q[k] - x[2 * k - 1] - 1.0
    return x
