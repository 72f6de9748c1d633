"""Independent reference implementations used only to check the library:
a fixed-step RK4 integrator, a quadrature-based sine integral, the dense
weight matrix from the generator, the weight matrix in 40-digit mpmath
arithmetic, a matrix product with compensated row sums, a literal
double-loop Gauss-Seidel sweep and one with an m-long dot product per
node, the infinity norm of a dense matrix, the comparison-matrix norm
through a dense inverse and by a row-by-row forward substitution, its
row sums by the blocked divide and conquer with every block solved, the
Lax matrix of a Toda state, the Toda-lattice commutator check, and the
exact Lotka-Volterra solution in 40-digit mpmath arithmetic, one time at
a time.
"""

from __future__ import annotations

import mpmath
import numpy as np
from scipy.integrate import quad

from desinc.weights import _fft_convolve


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


# the last matrix dense_weights built, with its WeightMatrix: a solve
# that sweeps with gauss_seidel_sweep_rowdot asks for it once per sweep
_last_dense: tuple = (None, None)


def dense_weights(wm) -> np.ndarray:
    """The m x m weights w[i, j] = dphi[j] * gen[i - j + m - 1] of a
    WeightMatrix, each entry that one product, gathered by index grids.
    The array is read-only, since it is kept for the next call with the
    same wm."""
    global _last_dense
    if _last_dense[0] is not wm:
        i, j = np.ogrid[:wm.m, :wm.m]
        w = wm.grid.dphi[j] * wm.gen[i - j + wm.m - 1]
        w.flags.writeable = False
        _last_dense = (wm, w)
    return _last_dense[1]


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


def gauss_seidel_sweep_rowdot(prob, wm, state, fvals):
    """Gauss-Seidel sweep in place with one m-long dot product of the dense
    w per node, calling prob.rhs directly; same arguments, rhs calls and
    in-place contract as desinc.solver.gauss_seidel_sweep (fvals holds the
    rhs at state on entry and at the new state on exit, nothing is
    returned), whose rows it sums in another order."""
    t, w = wm.grid.t, dense_weights(wm)
    for i in range(wm.m):
        # fvals[i] still holds the previous-sweep value here
        state[i] = prob.x_a + w[i] @ fvals
        fvals[i] = prob.rhs(t[i], state[i])


def matmul_sum2(w, f) -> np.ndarray:
    """w @ f with every product rounded once and each row sum taken by
    Ogita, Rump and Oishi's Sum2 ("Accurate sum and dot product", SIAM J.
    Sci. Comput. 2005): a cascade of error-free TwoSum steps, vectorised
    over all rows and columns at once.

    Sum2 is not always correctly rounded, as math.fsum is, but it is
    within eps|s| + (k eps)^2 sum |w_ij f_jk| of the exact sum s of the k
    rounded products, so it is about (k eps)^2 of sum |w||f| from the
    correctly rounded sum: below 1e-25 of it at k = 2049, far inside the
    few-eps bounds it checks."""
    w, f = np.asarray(w, dtype=float), np.asarray(f, dtype=float)
    s = w[:, 0, None] * f[0]
    c = np.zeros_like(s)
    for j in range(1, w.shape[1]):
        x = w[:, j, None] * f[j]
        t = s + x
        z = t - s
        c += (s - (t - z)) + (x - z)
        s = t
    return s + c


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


def mgs_rows_every_block(wm, L, leaf=64):
    """The row sums y of (I - L|E|)^{-1} L(|D|+|F|) by the divide and
    conquer of desinc.analysis.mgs_norm_exact without its tail skip: every
    leaf block is solved by LAPACK, also where phi' = 0 makes its system
    the identity, and every merge is made, also of an all-zero g.  The
    same blocks, operations and operand order otherwise, so its y is the
    one mgs_norm_exact must match bit for bit."""
    m, dphi = wm.m, wm.grid.dphi
    a = np.abs(wm.p_column)
    nb = min(m, leaf)
    with np.errstate(over="ignore", invalid="ignore"):
        k = np.arange(nb)
        upper = L * np.triu(a[np.abs(k[None, :] - k[:, None])], 1)
        eye = np.eye(nb)
        y = wm.abs_row_sums[1].copy()
        g = np.empty(m)

        def solve(lo, hi):
            n = hi - lo
            if n <= leaf:
                lhs = eye[:n, :n] - upper[:n, :n] * dphi[lo:hi][::-1]
                y[lo:hi] = np.linalg.solve(lhs, L * y[lo:hi][::-1])[::-1]
                g[lo:hi] = dphi[lo:hi] * y[lo:hi]
                return
            mid = lo + leaf * ((n + 2 * leaf - 1) // (2 * leaf))
            solve(lo, mid)
            y[mid:hi] += _fft_convolve(g[lo:mid], a[1:n], mid - lo - 1, n - 1)
            solve(mid, hi)

        solve(0, m)
    return y


def lax_matrix(s) -> np.ndarray:
    """Lax matrix of one Toda state: q on the diagonal, e on the
    subdiagonal and ones on the superdiagonal."""
    return np.diag(s.q) + np.diag(np.ones(s.m - 1), 1) + np.diag(s.e, -1)


def toda_rhs_check(s) -> float:
    """Maximum deviation of the commutator [A, A_-] from the tridiagonal
    form prescribed by the lattice equations."""
    a = lax_matrix(s)
    a_minus = np.tril(a, k=-1)
    comm = a @ a_minus - a_minus @ a
    expected = np.zeros_like(comm)
    e_pad = np.concatenate([[0.0], s.e, [0.0]])
    for k in range(s.m):
        expected[k, k] = e_pad[k + 1] - e_pad[k]
    for k in range(s.m - 1):
        expected[k + 1, k] = s.e[k] * (s.q[k + 1] - s.q[k])
    return float(np.max(np.abs(comm - expected)))


def lv_exact_mpmath(q0, e0, t) -> np.ndarray:
    """Exact Lotka-Volterra solution at one time t, for the Toda state
    (q0, e0) at time 0, in 40-digit mpmath arithmetic: the Lax matrix built
    entry by entry, mpmath's expm of t times it, an LR loop without
    pivoting, the conjugated Lax matrix through mpmath's inverse of the
    lower factor, and the Miura recursion; only the result is rounded to
    float."""
    m = len(q0)
    with mpmath.workdps(40):
        a0 = mpmath.zeros(m, m)
        for k in range(m):
            a0[k, k] = mpmath.mpf(q0[k])
        for k in range(m - 1):
            a0[k, k + 1] = 1
            a0[k + 1, k] = mpmath.mpf(e0[k])
        u = mpmath.expm(mpmath.mpf(t) * a0)
        low = mpmath.eye(m)
        for k in range(m - 1):
            for i in range(k + 1, m):
                low[i, k] = u[i, k] / u[k, k]
                for j in range(k, m):
                    u[i, j] -= low[i, k] * u[k, j]
        at = low ** -1 * a0 * low
        x = [at[0, 0] - 1]
        for k in range(1, m):
            x.append(at[k, k - 1] / x[2 * k - 2])
            x.append(at[k, k] - x[2 * k - 1] - 1)
        return np.array([float(v) for v in x])
