"""Collocation weights w_ij = phi'(s_j) * J(j,h)(s_i), held as the 4N+1
values that generate their Toeplitz factor.

The generator and the arrays derived from it here, none of them m x m,
are the only forms of the weights that are kept, and only this module
reads the generator.  Every FFT sum against it goes through _fft_convolve:
w @ f (the Jacobi sweep), the row sums of |w| and the merges of
analysis.mgs_norm_exact.  Everything else reads the Toeplitz factor
through WeightMatrix.row_blocks, its ROWS-row blocks from row 0 down with
the diagonal blocks of w beside them, or its first column through
WeightMatrix.p_column; only split, the dense diagonal / strictly-lower /
strictly-upper partition, forms w.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .grid import DEGrid
from .special import si

__all__ = ["WeightMatrix", "TriangularSplit", "build_weights", "split"]

# rows of P in each of WeightMatrix.row_blocks: the block height of the
# Gauss-Seidel sweep and of dump-weights
ROWS = 32


@dataclass(frozen=True)
class WeightMatrix:
    """Collocation weights on a grid.

    w[i, j] = dphi[j] * p_{i-j} with p_k = h * (1/2 + Si(pi k)/pi), i.e.
    w = P diag(dphi) with P Toeplitz.  The weights are given by the
    generator gen, with gen[k + m - 1] = p_k for k = -(m-1)..m-1; every
    other array here is derived from it on first use and kept, and none is
    m x m.  row_blocks reads ROWS rows of P at a time from one stack of
    shifted copies of gen.  matmul convolves gen with dphi * f by FFT,
    reusing gen's spectrum.

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
    def row_blocks(self) -> list[tuple[int, np.ndarray, np.ndarray]]:
        """(i0, P[i0:i1], w[i0:i1, i0:i1]) for i0 = 0, ROWS, 2 ROWS, ... and
        i1 = min(i0 + ROWS, m), read-only; w[i0:i1] is dphi * P[i0:i1].  The
        blocks of P are views into one stack of ROWS shifted copies of gen,
        which BLAS reads in place: unit column stride, row stride 2m - 1."""
        m, dphi = self.m, self.grid.dphi
        # stack[r, c] = gen[2m - 2 - c + r] for c >= r: row r is the
        # reversed generator shifted right by r, so row i0 + r of P,
        # gen[i0 + r - j + m - 1] over j, is stack[r, m - 1 - i0 + j]
        padded = np.concatenate([np.zeros(ROWS - 1), self.gen[::-1]])
        stack = np.lib.stride_tricks.sliding_window_view(padded, 2 * m - 1)[::-1].copy()
        stack.flags.writeable = False
        blocks = []
        for i0 in range(0, m, ROWS):
            i1 = min(i0 + ROWS, m)
            p_block = stack[:i1 - i0, m - 1 - i0:2 * m - 1 - i0]
            w_block = dphi[i0:i1] * p_block[:, i0:i1]
            w_block.flags.writeable = False
            blocks.append((i0, p_block, w_block))
        return blocks

    @property
    def p_column(self) -> np.ndarray:
        """Column 0 of P, p_0..p_{m-1}, as a read-only view."""
        col = self.gen[self.m - 1:]
        col.flags.writeable = False
        return col

    @cached_property
    def _spectra(self) -> dict:
        # FFTs of gen by length, kept for matmul's _fft_convolve calls
        return {}

    def matmul(self, f: np.ndarray) -> np.ndarray:
        """w @ f for f of shape (m, n), as P @ (dphi * f) without forming w:
        row i of P @ g is entry i + m - 1 of the linear convolution of gen
        with g."""
        m = self.m
        return _fft_convolve(self.gen, self.grid.dphi[:, None] * f, m - 1, 2 * m - 1,
                             self._spectra)

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
        e_rows[1:] = _fft_convolve(p[m:], dphi, 0, m - 1)
        df_rows = _fft_convolve(p[:m], dphi, m - 1, 2 * m - 1)
        return e_rows, df_rows


def _fft_convolve(x: np.ndarray, y: np.ndarray, lo: int, hi: int,
                  spectra: dict | None = None) -> np.ndarray:
    """Entries lo..hi-1 of the linear convolution of x with y, along axis 0
    of a 1-D or 2-D y, by FFT on a 5-smooth length.  A dict given as
    spectra keeps the FFT of x by length, for the next call with the same x.

    The window is free of wrap-around once nfft >= len(x) + len(y) - 1 - lo,
    so one that starts late takes a shorter FFT than the whole convolution.

    Accurate normwise: every entry is off by about eps times log2 of the
    length times ||x||_2 ||y||_2 (per column of y), so an entry far below
    the largest one has only that absolute accuracy."""
    nfft = _fft_length(max(hi, len(x) + len(y) - 1 - lo))
    spectra = {} if spectra is None else spectra
    if nfft not in spectra:
        spectra[nfft] = np.fft.rfft(x, nfft)
    fx = spectra[nfft]
    if y.ndim == 2:
        fx = fx[:, None]
    return np.fft.irfft(fx * np.fft.rfft(y, nfft, axis=0), nfft, axis=0)[lo:hi]


@cache
def _fft_length(n: int) -> int:
    """The smallest length >= n with no prime factor above 5.  numpy's FFT
    is fast on those, and they lie closer above n than powers of two do:
    4320 rather than 8192 for n = 4097 (N = 1024), about 1.8x faster.
    Cached, since the search steps through every length up to the answer
    (about 46 us at n = 4097 on a 2-vCPU Xeon) and every Jacobi sweep and
    merge of analysis.mgs_norm_exact asks again for the same few."""
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
    strictly upper parts; each entry is the one product dphi[j] * P[i, j]."""
    w = np.concatenate([wm.grid.dphi * p_block for _, p_block, _ in wm.row_blocks])
    return TriangularSplit(
        d=np.diag(w).copy(),
        e=np.tril(w, k=-1),
        f=np.triu(w, k=1),
    )
