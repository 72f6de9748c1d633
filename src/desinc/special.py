"""Scalar special functions: the sine integral and the
double-exponential variable transform with its derivative, inverse and
indefinite-integration kernel.

Si is scipy.special.sici's, so scipy.special is the one scipy subpackage
that `import desinc` loads; scipy.linalg loads on the first Toda exact
solution.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import sici

__all__ = [
    "Interval",
    "si",
    "phi_de",
    "dphi_de",
    "phi_de_inv",
    "j_kernel",
]


# the input rules of every public entry point and of the CLI (not exported)
def check_positive_finite(name: str, v) -> None:
    """Raise ValueError unless v is positive and finite."""
    if not 0.0 < v < math.inf:
        raise ValueError(f"{name} must be positive and finite, got {v}")


def check_count(name: str, v, k: int) -> None:
    """Raise ValueError unless v is an int or numpy integer, not a bool, of at least k."""
    if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or v < k:
        raise ValueError(f"{name} must be an integer of at least {k}, got {v!r}")


@dataclass(frozen=True)
class Interval:
    """Finite time interval [a, b] with a < b and a finite length."""

    a: float
    b: float

    def __post_init__(self):
        # b - a is finite only if a and b are, and positive only if a < b
        check_positive_finite(f"length of interval [{self.a}, {self.b}]", self.b - self.a)

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt, from scipy.special.sici."""
    return float(sici(x)[0])


def phi_de(s, iv: Interval):
    """Double-exponential transform mapping the real line onto (a, b)."""
    with np.errstate(over="ignore"):  # sinh is inf beyond |s| ~ 710; tanh is +-1 from ~3.2
        return 0.5 * iv.length * np.tanh(0.5 * np.pi * np.sinh(s)) + iv.midpoint


def dphi_de(s, iv: Interval):
    """Derivative of the DE transform; positive, may underflow to 0 for
    large |s|."""
    # the denominator overflows to inf for |s| beyond ~6.5 and the value
    # underflows to 0, which is accepted; the clip keeps cosh(s) finite,
    # since beyond |s| ~ 710 the quotient would be inf/inf = NaN
    s = np.clip(s, -20.0, 20.0)
    with np.errstate(over="ignore"):
        return (
            0.5 * iv.length * (0.5 * np.pi) * np.cosh(s)
            / np.cosh(0.5 * np.pi * np.sinh(s)) ** 2
        )


def phi_de_inv(t: float, iv: Interval) -> float:
    """Inverse of the DE transform at one real t in [a, b]: an int or
    float, numpy or not, or a 0-d array of one, but not a bool.

    Endpoint inputs are clamped inward to the nearest float inside (-1, 1)
    of the normalised coordinate u = (2t - a - b) / (b - a): the transform
    is a bijection onto the open interval, and the inverse is only ever
    needed for t in [a, b].  Clamping u rather than t works for any
    interval, including one far from 0 where (b - a) * eps is below an ulp
    of t.
    """
    if isinstance(t, bool) or not isinstance(t, (int, float, np.integer, np.floating)) and not (
            isinstance(t, np.ndarray) and t.ndim == 0 and t.dtype.kind in "iuf"):
        raise ValueError(f"t must be a real scalar, got {t!r}")
    if not iv.a <= t <= iv.b:
        raise ValueError(f"t = {t} outside interval [{iv.a}, {iv.b}]")
    u_max = math.nextafter(1.0, 0.0)
    u = min(max((2.0 * t - iv.a - iv.b) / iv.length, -u_max), u_max)
    return math.asinh(2.0 / math.pi * math.atanh(u))


def j_kernel(j: int, h: float, s: float) -> float:
    """Antiderivative of the shifted sinc basis function at s.

    Tends to 0 as s -> -inf and to h as s -> +inf; not monotone in between
    because the sine integral oscillates.
    """
    # check_positive_finite's test inline: it runs once per node per evaluate
    if not 0.0 < h < math.inf:
        raise ValueError(f"h must be positive and finite, got {h}")
    return h * (0.5 + si(math.pi * (s - j * h) / h) / math.pi)
