"""Scalar special functions: the sine integral and the
double-exponential variable transform with its derivative, inverse and
indefinite-integration kernel.

Si is a port of the Si half of Cephes' sici, the algorithm that
scipy.special.sici runs, and equals sici(x)[0] bit for bit; so no
module of desinc imports scipy, at import or at run time.  All functions
are pure and thread-safe.
"""

from __future__ import annotations

import math
import sys
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


# the input rules of every public entry point and of the CLI (not exported)
def is_number(v, integer: bool = False) -> bool:
    """Whether v is a Python or numpy int or, unless integer, a float or a
    0-d array of an int or float; a bool is no number."""
    return not isinstance(v, bool) and (isinstance(v, (int, np.integer)) or not integer and (
        isinstance(v, (float, np.floating))
        or isinstance(v, np.ndarray) and v.ndim == 0 and v.dtype.kind in "iuf"))


# the largest double: an int above it is below math.inf but no float
_FLOAT_MAX = sys.float_info.max


def check_positive_finite(name: str, v) -> None:
    """Raise ValueError unless v is a number, positive and finite as a
    float."""
    if not (is_number(v) and 0.0 < v <= _FLOAT_MAX):
        raise ValueError(f"{name} must be positive and finite, got {v!r}")


def check_nonnegative_finite(name: str, v) -> None:
    """Raise ValueError unless v is a number, nonnegative and finite as a
    float."""
    if not (is_number(v) and 0.0 <= v <= _FLOAT_MAX):
        raise ValueError(f"{name} must be nonnegative and finite, got {v!r}")


def check_count(name: str, v, k: int) -> None:
    """Raise ValueError unless v is an integer number of at least k."""
    if not (is_number(v, integer=True) and v >= k):
        raise ValueError(f"{name} must be an integer of at least {k}, got {v!r}")


def check_interval(iv) -> None:
    """Raise ValueError unless iv is an Interval."""
    if not isinstance(iv, Interval):
        raise ValueError(f"iv must be an Interval, got {iv!r}")


@dataclass(frozen=True)
class Interval:
    """Finite time interval [a, b] with a < b and a finite length."""

    a: float
    b: float

    def __post_init__(self):
        if not (is_number(self.a) and is_number(self.b)):
            raise ValueError(f"ends of interval [{self.a!r}, {self.b!r}] must be real numbers")
        try:  # stored as floats, since a 0-d array end is unhashable
            a, b = float(self.a), float(self.b)
        except OverflowError:  # an int end beyond the float range
            a, b = -math.inf, math.inf
        # b - a is finite only if a and b are, and positive only if a < b
        check_positive_finite(f"length of interval [{self.a}, {self.b}]", b - a)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def length(self) -> float:
        return self.b - self.a

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.a + self.b)


_HALF_PI = 0.5 * math.pi


def si(x: float) -> float:
    """Sine integral Si(x) = int_0^x sin(t)/t dt of one real x, as a float.

    The Si half of Cephes' sici, the algorithm behind
    scipy.special.sici, with its coefficients and Horner order, so the
    result is sici(x)[0] bit for bit: x * SN(x^2) / SD(x^2) for |x| <= 4,
    and pi/2 - f cos x - g sin x beyond, where f and g are rational in
    z = 1/x^2 with one set of coefficients below 8 and another from 8 on.
    Si(-x) = -Si(x) exactly; Si(+-0) = +0.0, Si(+-inf) = +-pi/2, and NaN
    gives NaN.  x is converted with float() first, so a float32 x is
    evaluated in double precision.
    """
    # Each Horner chain is written out with Cephes' SN, SD, FN4, FD4, GN4,
    # GD4, FN8, FD8, GN8 and GD8 (the denominators FD* and GD* are monic):
    # a loop over coefficient tuples costs about twice as much per call,
    # and si runs once per node in evaluate.  Cephes' own x > 1e9 branch
    # falls through to the asymptotic one, so it has no counterpart here.
    x = float(x)
    a = abs(x)
    if a == 0.0:
        return 0.0
    if a <= 4.0:
        z = a * a
        sn = (((((-8.39167827910303881427e-11 * z
                 + 4.62591714427012837309e-8) * z
                - 9.75759303843632795789e-6) * z
               + 9.76945438170435310816e-4) * z
              - 4.13470316229406538752e-2) * z
             + 1.00000000000000000302e0)
        sd = (((((2.03269266195951942049e-12 * z
                 + 1.27997891179943299903e-9) * z
                + 4.41827842801218905784e-7) * z
               + 9.96412122043875552487e-5) * z
              + 1.42085239326149893930e-2) * z
             + 9.99999999999999996984e-1)
        s = a * sn / sd
    elif a == math.inf:
        s = _HALF_PI
    else:
        z = 1.0 / (a * a)
        if a < 8.0:
            fn = ((((((4.23612862892216586994e0 * z
                      + 5.45937717161812843388e0) * z
                     + 1.62083287701538329132e0) * z
                    + 1.67006611831323023771e-1) * z
                   + 6.81020132472518137426e-3) * z
                  + 1.08936580650328664411e-4) * z
                 + 5.48900223421373614008e-7)
            fd = (((((((z
                       + 8.16496634205391016773e0) * z
                      + 7.30828822505564552187e0) * z
                     + 1.86792257950184183883e0) * z
                    + 1.78792052963149907262e-1) * z
                   + 7.01710668322789753610e-3) * z
                  + 1.10034357153915731354e-4) * z
                 + 5.48900252756255700982e-7)
            gn = (((((((8.71001698973114191777e-2 * z
                       + 6.11379109952219284151e-1) * z
                      + 3.97180296392337498885e-1) * z
                     + 7.48527737628469092119e-2) * z
                    + 5.38868681462177273157e-3) * z
                   + 1.61999794598934024525e-4) * z
                  + 1.97963874140963632189e-6) * z
                 + 7.82579040744090311069e-9)
            gd = (((((((z
                       + 1.64402202413355338886e0) * z
                      + 6.66296701268987968381e-1) * z
                     + 9.88771761277688796203e-2) * z
                    + 6.22396345441768420760e-3) * z
                   + 1.73221081474177119497e-4) * z
                  + 2.02659182086343991969e-6) * z
                 + 7.82579218933534490868e-9)
        else:
            fn = ((((((((4.55880873470465315206e-1 * z
                        + 7.13715274100146711374e-1) * z
                       + 1.60300158222319456320e-1) * z
                      + 1.16064229408124407915e-2) * z
                     + 3.49556442447859055605e-4) * z
                    + 4.86215430826454749482e-6) * z
                   + 3.20092790091004902806e-8) * z
                  + 9.41779576128512936592e-11) * z
                 + 9.70507110881952024631e-14)
            fd = ((((((((z
                        + 9.17463611873684053703e-1) * z
                       + 1.78685545332074536321e-1) * z
                      + 1.22253594771971293032e-2) * z
                     + 3.58696481881851580297e-4) * z
                    + 4.92435064317881464393e-6) * z
                   + 3.21956939101046018377e-8) * z
                  + 9.43720590350276732376e-11) * z
                 + 9.70507110881952025725e-14)
            gn = ((((((((6.97359953443276214934e-1 * z
                        + 3.30410979305632063225e-1) * z
                       + 3.84878767649974295920e-2) * z
                      + 1.71718239052347903558e-3) * z
                     + 3.48941165502279436777e-5) * z
                    + 3.47131167084116673800e-7) * z
                   + 1.70404452782044526189e-9) * z
                  + 3.85945925430276600453e-12) * z
                 + 3.14040098946363334640e-15)
            gd = (((((((((z
                         + 1.68548898811011640017e0) * z
                        + 4.87852258695304967486e-1) * z
                       + 4.67913194259625806320e-2) * z
                      + 1.90284426674399523638e-3) * z
                     + 3.68475504442561108162e-5) * z
                    + 3.57043223443740838771e-7) * z
                   + 1.72693748966316146736e-9) * z
                  + 3.87830166023954706752e-12) * z
                 + 3.14040098946363335242e-15)
        f = fn / (a * fd)
        g = z * gn / gd
        s = _HALF_PI - f * math.cos(a) - g * math.sin(a)
    return -s if x < 0.0 else s


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
    if not is_number(t):
        raise ValueError(f"t must be a real scalar, got {t!r}")
    if not iv.a <= t <= iv.b:
        raise ValueError(f"t = {t} outside interval [{iv.a}, {iv.b}]")
    u_max = math.nextafter(1.0, 0.0)
    # float(t): a float32 t would round u to single precision
    u = min(max((2.0 * float(t) - iv.a - iv.b) / iv.length, -u_max), u_max)
    return math.asinh(2.0 / math.pi * math.atanh(u))


def j_kernel(j: int, h: float, s: float) -> float:
    """Antiderivative of the shifted sinc basis function at s.

    Tends to 0 as s -> -inf and to h as s -> +inf; not monotone in between
    because the sine integral oscillates.
    """
    # check_positive_finite inline, as it runs once per node per evaluate
    if h.__class__ is not float and not is_number(h) or not 0.0 < h <= _FLOAT_MAX:
        raise ValueError(f"h must be positive and finite, got {h!r}")
    return h * (0.5 + si(math.pi * (s - j * h) / h) / math.pi)
