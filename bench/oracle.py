"""Independent references for the output checks.

The weight matrix is rebuilt here from scipy.special.sici and the DE
transform written out again, so the checks do not share code with
desinc.special, desinc.weights or desinc.analysis.  Only the interval
length enters: the weights do not depend on where the interval starts.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import sici


def weights(length: float, N: int) -> np.ndarray:
    """w[i, j] = phi'(s_j) * h * (1/2 + Si(pi (i - j)) / pi), h = log(N)/N."""
    h = math.log(N) / N
    s = np.arange(-N, N + 1) * h
    with np.errstate(over="ignore"):
        dphi = 0.5 * length * 0.5 * np.pi * np.cosh(s) / np.cosh(0.5 * np.pi * np.sinh(s)) ** 2
    k = np.arange(-N, N + 1)
    diff = k[:, None] - k[None, :]
    return dphi[None, :] * h * (0.5 + sici(np.pi * diff)[0] / np.pi)


def mgs_norm(length: float, N: int, L: float) -> float:
    """||(I - L|E|)^{-1} L(|D| + |F|)||_inf through an explicit dense inverse."""
    w = np.abs(weights(length, N))
    lower = np.tril(w, k=-1)
    rest = w - lower
    y = np.linalg.inv(np.eye(len(w)) - L * lower) @ (L * rest)
    return float(np.max(np.abs(y).sum(axis=1)))
