"""Collocation weights w_ij = phi'(s_j) * J(j,h)(s_i), held as the 4N+1
values that generate their Toeplitz factor.

The product w @ f (the Jacobi sweep) is a linear convolution of the
generator with phi' * f, done by FFT without forming w.  The dense matrix,
with its diagonal / strictly-lower / strictly-upper triangular split, is
formed only on request: by the Gauss-Seidel sweep, which reads it row by
row (so also by the Gauss-Seidel reference solution of the trace command),
and by the dump-weights command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import DEGrid
from .special import si

__all__ = ["WeightMatrix", "TriangularSplit", "build_weights", "split"]


@dataclass(frozen=True)
class WeightMatrix:
    """Collocation weights on a grid.

    w[i, j] = dphi[j] * p_{i-j} with p_k = h * (1/2 + Si(pi k)/pi), i.e.
    w = P diag(dphi) with P Toeplitz.  Only the generator gen, with
    gen[k + m - 1] = p_k for k = -(m-1)..m-1, is stored.  matmul applies w
    through the generator's spectrum; the dense w is formed on first
    access, as a C-contiguous (m, m) array owned by this object.  Each is
    computed once and kept, and so are the row sums of |w|.

    matmul is accurate normwise: the error in column c of w @ f is a few
    eps times max_i (|w| |f|)_ic, so a row whose own (|w| |f|)_ic is much
    smaller has that absolute accuracy, not a relative one.  A non-finite
    value in f makes every row of its column NaN.
    """

    grid: DEGrid
    gen: np.ndarray

    def __post_init__(self):
        if self.gen.shape != (2 * self.m - 1,):
            raise ValueError(f"gen must have shape ({2 * self.m - 1},), got {self.gen.shape}")

    @property
    def m(self) -> int:
        return self.grid.m

    @cached_property
    def w(self) -> np.ndarray:
        # P[i, j] = gen[i - j + m - 1] is a strided view of the generator,
        # so the only m x m pass is the scaling of its columns by dphi
        p = np.lib.stride_tricks.sliding_window_view(self.gen, self.m)[:, ::-1]
        return self.grid.dphi[None, :] * p

    @cached_property
    def _spectrum(self) -> tuple[int, np.ndarray]:
        nfft = _fft_length(2 * self.m - 1)
        return nfft, np.fft.rfft(self.gen, nfft)

    def matmul(self, f: np.ndarray) -> np.ndarray:
        """w @ f for f of shape (m, n), as P @ (dphi * f) without forming w."""
        m = self.m
        nfft, spec = self._spectrum
        g = np.fft.rfft(self.grid.dphi[:, None] * f, nfft, axis=0)
        # row i of P @ g is entry i + m - 1 of the linear convolution of gen
        # with g; nfft >= 2m - 1 keeps those entries free of wrap-around
        return np.fft.irfft(spec[:, None] * g, nfft, axis=0)[m - 1:2 * m - 1]

    @cached_property
    def abs_row_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Row sums of |w| split at the diagonal, computed once from the
        generator without forming w: e_rows[i] = sum_{j<i} |w_ij| (the rows
        of |E|) and df_rows[i] = sum_{j>=i} |w_ij| (of |D|+|F|).  They are
        FFT convolutions, so a row far below the largest one, in the tails
        where dphi underflows, holds noise of either sign at about eps
        log2(m) times the largest."""
        m, dphi = self.m, self.grid.dphi
        p = np.abs(self.gen)  # p[k + m - 1] = |p_k|; dphi is nonnegative
        e_rows = np.zeros(m)
        # sum_j |p_{i-j}| dphi_j over i - j = 1..m-1, and over i - j = -(m-1)..0
        e_rows[1:] = _fft_convolve(p[m:], dphi)[:m - 1]
        df_rows = _fft_convolve(p[:m], dphi)[m - 1:]
        return e_rows, df_rows


def _fft_convolve(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The linear convolution of x and y, by FFT on a 5-smooth length.

    Accurate normwise: every entry is off by about eps times log2 of the
    length times ||x||_2 ||y||_2, so an entry far below the largest one has
    only that absolute accuracy."""
    n = len(x) + len(y) - 1
    nfft = _fft_length(n)
    return np.fft.irfft(np.fft.rfft(x, nfft) * np.fft.rfft(y, nfft), nfft)[:n]


def _fft_length(n: int) -> int:
    """The smallest length >= n with no prime factor above 5.  numpy's FFT
    is fast on those, and they lie closer above n than powers of two do:
    4320 rather than 8192 for n = 4097 (N = 1024), about 1.8x faster."""
    while True:
        k = n
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 1


@dataclass(frozen=True)
class TriangularSplit:
    d: np.ndarray  # diagonal of w, shape (m,)
    e: np.ndarray  # strictly lower triangle, full (m, m) with zeros elsewhere
    f: np.ndarray  # strictly upper triangle, full (m, m) with zeros elsewhere


def build_weights(grid: DEGrid) -> WeightMatrix:
    """Weights for a grid, from the generator of their Toeplitz factor.

    Only Si at integer multiples of pi is needed, so the sine integral is
    evaluated 4N+1 times (k = -2N..2N, in ascending order) regardless of
    matrix size.  No m x m array is built here.
    """
    m = grid.m
    # gen[k + 2N] = h * (1/2 + Si(pi * k)/pi) for k = -2N..2N
    si_pi = np.array([si(math.pi * k) for k in range(-(m - 1), m)])
    return WeightMatrix(grid=grid, gen=grid.h * (0.5 + si_pi / math.pi))


def split(wm: WeightMatrix) -> TriangularSplit:
    """Exact partition of the dense w into diagonal, strictly lower and
    strictly upper parts; no arithmetic is performed on the entries."""
    w = wm.w
    return TriangularSplit(
        d=np.diag(w).copy(),
        e=np.tril(w, k=-1),
        f=np.triu(w, k=1),
    )
