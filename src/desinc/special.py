"""Scalar special functions: the sine integral and the
double-exponential variable transform with its derivative, inverse and
indefinite-integration kernel.

All functions are pure and thread-safe.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Interval",
    "si",
    "phi_de",
    "dphi_de",
    "phi_de_inv",
    "j_kernel",
]

# Power series / continued fraction crossover for the sine integral.  The
# Maclaurin series loses ~1 digit per unit of x to cancellation, so it is
# only used where that loss is negligible.
_SI_SERIES_CUTOFF = 4.0


@dataclass(frozen=True)
class Interval:
    """Finite time interval [a, b] with a < b."""

    a: float
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.a) and math.isfinite(self.b)):
            raise ValueError("interval endpoints must be finite")
        if not self.a < self.b:
            raise ValueError(f"interval requires a < b, got [{self.a}, {self.b}]")

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


def _si_series(x: float) -> float:
    # Maclaurin series: sum (-1)^k x^(2k+1) / ((2k+1) (2k+1)!)
    term = x
    total = x
    x2 = x * x
    k = 1
    while True:
        term *= -x2 * (2 * k - 1) / ((2 * k + 1) * (2 * k + 1) * (2 * k))
        total += term
        if abs(term) < 1e-17 * abs(total):
            return total
        k += 1
        if k > 100:  # pragma: no cover - series converges long before this
            return total


def _si_continued_fraction(x: float) -> float:
    # Evaluate E1(ix) by the modified Lentz continued fraction and use
    # Si(x) = pi/2 + Im(E1(ix)) for x > 0.  This is the auxiliary-function
    # form f(x)cos(x) + g(x)sin(x) in disguise and is accurate to machine
    # precision for x well above 1.
    b = complex(1.0, x)
    tiny = 1e-300
    c = complex(1.0 / tiny)
    d = 1.0 / b
    h = d
    for i in range(2, 400):
        a = -((i - 1) ** 2)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    h *= cmath.exp(complex(0.0, -x))
    return 0.5 * math.pi + h.imag


def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt.

    Odd by construction; absolute error below 1e-14 over the real line.
    """
    if x < 0.0:
        return -si(-x)
    if x <= _SI_SERIES_CUTOFF:
        return _si_series(x)
    return _si_continued_fraction(x)


def phi_de(s, iv: Interval):
    """Double-exponential transform mapping the real line onto (a, b)."""
    return 0.5 * iv.length * np.tanh(0.5 * np.pi * np.sinh(s)) + iv.midpoint


def dphi_de(s, iv: Interval):
    """Derivative of the DE transform; positive, may underflow to 0 for
    large |s|."""
    with np.errstate(over="ignore"):
        # the denominator overflows to inf for |s| beyond ~6.5; the
        # resulting underflow to 0 is accepted
        return (
            0.5 * iv.length * (0.5 * np.pi) * np.cosh(s)
            / np.cosh(0.5 * np.pi * np.sinh(s)) ** 2
        )


def phi_de_inv(t: float, iv: Interval) -> float:
    """Inverse of the DE transform.

    Endpoint inputs are clamped inward to the nearest float inside (-1, 1)
    of the normalised coordinate u = (2t - a - b) / (b - a): the transform
    is a bijection onto the open interval, and the inverse is only ever
    needed for t in [a, b].  Clamping u rather than t works for any
    interval, including one far from 0 where (b - a) * eps is below an ulp
    of t.
    """
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
    if h <= 0.0:
        raise ValueError("step size h must be positive")
    return h * (0.5 + si(math.pi * (s - j * h) / h) / math.pi)
