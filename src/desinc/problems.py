"""Test problems with closed-form exact solutions, including the
Toda-lattice machinery that generates exact Lotka-Volterra trajectories
for an arbitrary odd number of species: one symmetric eigendecomposition
per state and one Cholesky factorization per stack of times.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .solver import IVProblem
from .special import Interval, check_count, read, real_array

__all__ = [
    "TestProblem",
    "TodaState",
    "example1",
    "example2",
    "example3",
    "lv_random",
    "toda_solve",
    "miura_to_lv",
    "lv_exact",
    "lv_rhs",
    "problem_from_name",
]


@dataclass(frozen=True)
class TestProblem:
    """An initial value problem with its closed-form solution.

    exact(t) accepts a scalar time, for which it returns the solution with
    shape (n,), or a 1-D array of times, for which it returns one row per
    time, shape (len(t), n).  The scalar is the 0-d case of the same array
    code, so exact(ts)[k] equals exact(ts[k]) bit for bit.
    """

    problem: IVProblem
    exact: Callable[[float | np.ndarray], np.ndarray]
    name: str


@dataclass(frozen=True)
class TodaState:
    """Lattice of size m: positions q (last axis of length m) and
    off-diagonal variables e (last axis of length m-1, nonzero for the
    Miura map).  Leading axes, shared by q and e, stack several states."""

    q: np.ndarray
    e: np.ndarray

    @property
    def m(self) -> int:
        return self.q.shape[-1]

    def __post_init__(self):
        object.__setattr__(self, "q", real_array("q", self.q))
        object.__setattr__(self, "e", real_array("e", self.e))
        if self.q.ndim < 1 or self.e.shape != self.q.shape[:-1] + (self.m - 1,):
            raise ValueError("q must be at least 1-D and e of shape q.shape[:-1] + (m-1,)")
        if not (np.all(np.isfinite(self.q)) and np.all(np.isfinite(self.e))):
            raise ValueError("state entries must be finite")


def example1() -> TestProblem:
    """Scalar linear growth x' = x on [0, 1/2], x(0) = 1."""
    prob = IVProblem(
        rhs=lambda t, x: x,
        x_a=np.array([1.0]),
        iv=Interval(0.0, 0.5),
        lip=1.0,
        bound_m=2.0,
        rho=1.0,
    )
    return TestProblem(problem=prob, exact=lambda t: np.exp(real_array("t", t))[..., None],
                       name="example1")


def example2(n: int = 11) -> TestProblem:
    """Semi-discrete heat equation x' = A x on [0, 1/8] with a unit spike
    at the center; n must be odd."""
    check_count("n", n, 3)
    if n % 2 == 0:
        raise ValueError(f"n must be odd and at least 3, got {n}")
    a = (np.diag(-2.0 * np.ones(n))
         + np.diag(np.ones(n - 1), 1)
         + np.diag(np.ones(n - 1), -1))
    x0 = np.zeros(n)
    x0[(n + 1) // 2 - 1] = 1.0

    k = np.arange(1, n + 1)
    ell = np.arange(1, n + 1)
    # eigen-expansion of the solution: modes sin(k*l*pi/(n+1)) with decay
    # rates 4 sin^2(l*pi/(2(n+1)))
    modes = np.sin(np.outer(k, ell) * math.pi / (n + 1))
    coeff = np.sin(ell * math.pi / 2.0) * 2.0 / (n + 1)
    rates = 4.0 * np.sin(ell * math.pi / (2.0 * (n + 1))) ** 2

    def exact(t: float | np.ndarray) -> np.ndarray:
        # an elementwise product summed over its last axis rounds every
        # row alike, where a matrix product may not between a stack and a
        # single row
        c = coeff * np.exp(-rates * real_array("t", t)[..., None])
        return (modes * c[..., None, :]).sum(axis=-1)

    prob = IVProblem(
        rhs=lambda t, x: a.dot(x),  # the same bits as a @ x, in half the time
        x_a=x0,
        iv=Interval(0.0, 0.125),
        lip=4.0,
        bound_m=6.0,
        rho=1.0,
    )
    return TestProblem(problem=prob, exact=exact, name=f"example2:n={n}")


def lv_rhs(t: float, x: np.ndarray) -> np.ndarray:
    """Lotka-Volterra field x_k' = x_k (x_{k+1} - x_{k-1}) with zero
    boundary species."""
    pad = np.zeros(len(x) + 2)
    pad[1:-1] = x
    return x * (pad[2:] - pad[:-2])


def example3() -> TestProblem:
    """Three-species Lotka-Volterra on [0, 1] with the closed-form
    solution built from the 2-site Toda lattice."""

    def exact(t: float | np.ndarray) -> np.ndarray:
        t = real_array("t", t)
        ch, th = np.cosh(t), np.tanh(t)
        x2 = 1.0 / (ch * (2.0 * ch + np.sinh(t)))
        return np.stack([2.0 + th, x2, 2.0 - th - x2], axis=-1)

    prob = IVProblem(
        rhs=lv_rhs,
        x_a=np.array([2.0, 0.5, 1.5]),
        iv=Interval(0.0, 1.0),
        rho=0.5,
    )
    return TestProblem(problem=prob, exact=exact, name="example3")


_LV_INTERVAL = Interval(0.0, 1.0)


def lv_random(m: int, seed: int = 0) -> TestProblem:
    """Random (2m-1)-species Lotka-Volterra problem whose exact solution
    comes from the Toda-lattice pipeline.

    The Toda state is drawn so that the Miura recursion stays away from
    zero on a moderate time range.
    """
    check_count("m", m, 2)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    s0 = TodaState(q=rng.uniform(2.5, 3.5, m), e=rng.uniform(0.25, 0.75, m - 1))
    x0 = miura_to_lv(s0)
    prob = IVProblem(rhs=lv_rhs, x_a=x0, iv=_LV_INTERVAL)
    return TestProblem(
        problem=prob,
        exact=lambda t: lv_exact(s0, t),
        name=f"lv:m={m}:seed={seed}",
    )


def toda_solve(s0: TodaState, t: float | np.ndarray) -> TodaState:
    """Exact Toda-lattice state at time t via the group-theoretic
    construction: LR-factor exp(t*A(0)) and conjugate A(0) by the lower
    factor.  An array of times gives the stack of states, one per time.

    Every e_k must be positive.  Then A(0) = D J D^{-1} with J symmetric
    tridiagonal (q on the diagonal, sqrt(e) beside it) and D diagonal, and
    an LR factorization commutes with that similarity, so the whole
    construction runs in J's frame: exp(t*J) = V diag(exp(t*lam)) V^T from
    one eigendecomposition, and A(t) = D (L^{-1} J L) D^{-1} for the lower
    factor L of exp(t*J).  That matrix is symmetric positive definite, so L
    is its Cholesky factor scaled to a unit diagonal.  Rows at t = 0 are s0
    itself, bit for bit.

    Any LR factorization of exp(t*J) breaks down as t grows: for m = 3 the
    worst relative error of a component is about 1e-11 at t = 5 and 3e-7
    at t = 10, and none is left by t = 15.  Where exp(t*J) is no longer
    numerically positive definite the call raises numpy's LinAlgError, a
    ValueError.
    """
    if not np.all(s0.e > 0.0):
        raise ValueError("toda_solve needs every e_k positive")
    r = np.sqrt(s0.e)
    j = np.zeros(s0.q.shape + (s0.m,))
    i = np.arange(s0.m)
    j[..., i, i] = s0.q
    j[..., i[:-1], i[1:]] = j[..., i[1:], i[:-1]] = r
    lam, v = np.linalg.eigh(j)
    t = real_array("t", t)[..., None]
    ex = np.exp(t * lam)
    # exp(tJ) summed over the eigenpairs elementwise, which rounds every
    # time alike, where a matrix product may not between a stack and one time
    c = np.linalg.cholesky(sum(v[..., :, k, None] * v[..., None, :, k] * ex[..., k, None, None]
                               for k in range(s0.m)))
    low = c / np.diagonal(c, axis1=-2, axis2=-1)[..., None, :]
    # B = L^{-1} J L: J L from J's three diagonals, then forward
    # substitution on the unit lower triangular L, one column at a time
    b = s0.q[..., :, None] * low
    b[..., :-1, :] += r[..., :, None] * low[..., 1:, :]
    b[..., 1:, :] += r[..., :, None] * low[..., :-1, :]
    for k in range(s0.m - 1):
        b[..., k + 1:, :] -= low[..., k + 1:, k, None] * b[..., k, None, :]
    # A(t)'s subdiagonal is d_{k+1}/d_k = sqrt(e_k) times B's
    q = np.diagonal(b, axis1=-2, axis2=-1)
    e = r * np.diagonal(b, offset=-1, axis1=-2, axis2=-1)
    return TodaState(q=np.where(t == 0.0, s0.q, q), e=np.where(t == 0.0, s0.e, e))


def miura_to_lv(s: TodaState) -> np.ndarray:
    """Map a Toda state (q, e) to the 2m-1 Lotka-Volterra variables via
    the forward recursion of the Miura transformation; a stacked state
    gives shape (..., 2m-1)."""
    m = s.m
    x = np.empty(s.q.shape[:-1] + (2 * m - 1,))
    thresh = 1e-12 * np.maximum(1.0, np.max(np.abs(s.q), axis=-1))
    x[..., 0] = s.q[..., 0] - 1.0
    for k in range(1, m):
        odd = x[..., 2 * k - 2]  # x_{2k-1} in 1-based indexing
        small = np.abs(odd) <= thresh
        if np.any(small):
            raise ValueError(f"Miura map undefined: x_{2 * k - 1} = {odd[small][0]:.3e} "
                             "is too close to zero")
        x[..., 2 * k - 1] = s.e[..., k - 1] / odd
        x[..., 2 * k] = s.q[..., k] - x[..., 2 * k - 1] - 1.0
    return x


def lv_exact(s0: TodaState, t: float | np.ndarray) -> np.ndarray:
    """Exact Lotka-Volterra solution at time t for 2m-1 species, from the
    Toda trajectory through s0 of size m; an array of times gives one row
    per time, and a repeated time gets the same row bit for bit."""
    return miura_to_lv(toda_solve(s0, t))


_FACTORIES = {"example1": example1, "example2": example2, "example3": example3, "lv": lv_random}


def problem_from_name(spec: str) -> TestProblem:
    """Resolve a problem name like 'example1', 'example2:n=11', 'example3'
    or 'lv:m=3:seed=7'.  Every error names the spec; a parameter's text is
    read as an integer where it is one, and judged by the factory alone."""

    def bad(reason) -> ValueError:
        return ValueError(f"bad parameters in problem {spec!r}: {reason}")

    parts = spec.split(":")
    name, params = parts[0], {}
    for p in parts[1:]:
        key, _, val = p.partition("=")
        if not val:
            raise ValueError(f"malformed problem parameter {p!r} in {spec!r}")
        if key in params:
            raise bad(f"{key} given twice")
        params[key] = read(int, val)
    factory = _FACTORIES.get(name)
    if factory is None:
        raise ValueError(f"unknown problem {spec!r}")
    # bound before the call, so that a TypeError raised inside the factory
    # is not taken for a bad parameter
    try:
        inspect.signature(factory).bind(**params)
    except TypeError as err:
        raise bad(err) from None
    try:
        return factory(**params)
    except ValueError as err:
        raise bad(err) from err
