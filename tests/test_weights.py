import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from desinc import weights
from desinc.grid import build_grid
from desinc.special import Interval, si
from desinc.weights import ROWS, WeightMatrix, build_weights, split

from oracles import dense_weights, matmul_fsum, row_sum_norm, si_quadrature, weights_mpmath


def all_p_rows(wm):
    """P as the row blocks of row_blocks, stacked."""
    return np.concatenate([p_block for _, p_block, _ in wm.row_blocks])


def eq35_bound(iv, h, N):
    return iv.length * h * (math.pi / 8 + (1 + math.log(2 * N)) / (4 * math.pi))


class TestBuildWeights:
    def test_diagonal_entries(self):
        g = build_grid(Interval(0.0, 1.0), 6)
        wm = build_weights(g)
        assert np.allclose(np.diag(dense_weights(wm)), g.dphi * g.h / 2, rtol=1e-15)

    def test_entry_against_quadrature_oracle(self):
        g = build_grid(Interval(0.0, 1.0), 4)
        wm = build_weights(g)
        expected = g.dphi[0] * g.h * (0.5 + si_quadrature(2 * math.pi) / math.pi)
        assert dense_weights(wm)[2, 0] == pytest.approx(expected, rel=1e-13)

    def test_lower_triangle_nonnegative(self):
        g = build_grid(Interval(0.0, 0.5), 8)
        wm = build_weights(g)
        assert np.all(np.tril(dense_weights(wm), k=-1) >= 0.0)

    def test_small_e_norm_bound(self):
        g = build_grid(Interval(0.0, 0.5), 4)
        wm = build_weights(g)
        e = np.tril(dense_weights(wm), k=-1)
        assert row_sum_norm(e) <= 1.1 * 0.5

    @pytest.mark.parametrize("N", [2, 4, 8, 16, 32, 64, 128, 256])
    @pytest.mark.parametrize("iv", [Interval(0.0, 0.5), Interval(0.0, 1.0), Interval(-1.0, 2.0)])
    def test_row_sum_bounds_sweep(self, N, iv):
        g = build_grid(iv, N)
        wm = build_weights(g)
        ts = split(wm)
        e_norm = row_sum_norm(ts.e)
        df_norm = row_sum_norm(np.diag(ts.d) + ts.f)
        assert e_norm <= 1.1 * iv.length
        assert df_norm <= eq35_bound(iv, g.h, N)
        assert row_sum_norm(dense_weights(wm)) <= e_norm + df_norm + 1e-15

    @settings(max_examples=30, deadline=None)
    @given(N=st.integers(2, 40),
           a=st.floats(-10.0, 10.0),
           length=st.floats(0.01, 10.0))
    def test_toeplitz_assembly_matches_double_loop(self, N, a, length):
        g = build_grid(Interval(a, a + length), N)
        wm = build_weights(g)
        loop = np.empty((g.m, g.m))
        for i in range(g.m):
            for j in range(g.m):
                loop[i, j] = g.dphi[j] * (g.h * (0.5 + si(math.pi * (i - j)) / math.pi))
        assert np.array_equal(dense_weights(wm), loop)
        assert np.array_equal(g.dphi * all_p_rows(wm), loop)

    @pytest.mark.parametrize("N", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("iv", [Interval(0.0, 0.5), Interval(0.0, 1.0), Interval(-1.0, 2.0)])
    def test_matches_mpmath_weights(self, N, iv):
        # column j is phi'(s_j) times p_k = h (1/2 + Si(pi k)/pi), |p_k| < 1.1 h,
        # so its error is measured in eps * h * phi'(s_j); a few roundings
        # give at most 2 of those (1.53 is the worst seen on these grids)
        g = build_grid(iv, N)
        w = dense_weights(build_weights(g))
        ref = weights_mpmath(g)
        eps = np.finfo(float).eps
        with mpmath.workdps(40):
            for j in range(g.m):
                bound = 2.0 * eps * g.h * mpmath.mpf(g.dphi[j])
                for i in range(g.m):
                    assert abs(mpmath.mpf(w[i, j]) - ref[i][j]) <= bound, (i, j)

    def test_no_nan_at_large_n(self):
        g = build_grid(Interval(0.0, 1.0), 512)
        wm = build_weights(g)
        assert np.all(np.isfinite(dense_weights(wm)))

    # m = 65: whole blocks, the last partial one, inside, at the edges,
    # past the end and empty
    @pytest.mark.parametrize("i0, i1", [(0, 32), (32, 64), (64, 96), (64, 65), (40, 41),
                                        (60, 70), (0, 0), (65, 70)])
    def test_p_rows_are_rows_of_w(self, i0, i1):
        g = build_grid(Interval(-1.0, 2.0), 32)
        wm = build_weights(g)
        w = dense_weights(wm)
        # every block is a view into one ROWS-row stack of at most
        # ROWS (2m - 1 + ROWS) values, so no m x m array exists
        stack = wm.row_blocks[0][1].base
        assert stack.shape[0] == ROWS and stack.size <= ROWS * (2 * g.m - 1 + ROWS)
        read = []
        for b0, p_block, _ in wm.row_blocks:
            assert p_block.shape == (min(b0 + ROWS, g.m) - b0, g.m)
            lo, hi = max(i0, b0), min(i1, b0 + len(p_block))
            if lo >= hi:
                continue
            rows = p_block[lo - b0:hi - b0]
            assert rows.base is stack and not rows.flags.writeable
            # BLAS reads the rows in place: unit column stride, row stride 2m - 1
            assert rows.strides == (rows.itemsize * (2 * g.m - 1), rows.itemsize)
            assert np.array_equal(g.dphi * rows, w[lo:hi])
            read.extend(range(lo, hi))
        assert read == list(range(i0, min(i1, g.m)))

    @pytest.mark.parametrize("N", [2, 16, 32, 40])
    def test_diag_blocks_are_diagonal_blocks_of_w(self, N):
        # m = 5, 33, 65 and 81: one short block, a whole one and one row,
        # two whole ones and one row, and two whole ones and a partial one
        g = build_grid(Interval(-1.0, 2.0), N)
        wm = build_weights(g)
        w = dense_weights(wm)
        starts = range(0, g.m, ROWS)
        assert [i0 for i0, _, _ in wm.row_blocks] == list(starts)
        for i0, p_block, w_block in wm.row_blocks:
            i1 = min(i0 + ROWS, g.m)
            assert np.array_equal(w_block, w[i0:i1, i0:i1])
            assert np.array_equal(w_block, g.dphi[i0:i1] * p_block[:, i0:i1])
            assert not w_block.flags.writeable

    def test_p_column_is_column_0_of_p(self):
        g = build_grid(Interval(-1.0, 2.0), 32)
        wm = build_weights(g)
        col = wm.p_column
        assert np.array_equal(col, [g.h * (0.5 + si(math.pi * k) / math.pi) for k in range(g.m)])
        assert np.array_equal(col, all_p_rows(wm)[:, 0]) and not col.flags.writeable

    @pytest.mark.parametrize("shape", [(3,), (8,), (10,), (11,), (9, 1)])
    def test_rejects_generator_of_wrong_shape(self, shape):
        # at N = 2 (m = 5) the generator holds 2m - 1 = 9 values; an
        # 11-value one gave a 7 x 5 w and 5-row products without an error
        g = build_grid(Interval(0.0, 1.0), 2)
        with pytest.raises(ValueError, match=r"gen must have shape \(9,\)"):
            WeightMatrix(grid=g, gen=np.ones(shape))


class TestMatmul:
    # with the default step, phi' underflows to 0 at the outer nodes from
    # N = 453 on; the fsum reference costs up to 0.7 us per entry of w, so
    # the larger N come with fewer columns
    @settings(max_examples=8, deadline=None)
    @given(N=st.integers(2, 1024),
           iv=st.sampled_from([Interval(0.0, 0.5), Interval(-1.0, 2.0), Interval(1e6, 1e6 + 1)]),
           n=st.sampled_from([1, 3, 11]),
           seed=st.integers(0, 2**32 - 1))
    @example(N=2, iv=Interval(0.0, 0.5), n=3, seed=0)
    @example(N=3, iv=Interval(-1.0, 2.0), n=11, seed=1)
    @example(N=1024, iv=Interval(0.0, 0.5), n=1, seed=2)
    @example(N=600, iv=Interval(1e6, 1e6 + 1), n=1, seed=3)
    def test_matches_dense_product(self, N, iv, n, seed):
        # the FFT product is accurate normwise: per column, within a few eps
        # of the largest row of |w| |f|, and so is the dense BLAS product it
        # replaced (worst seen over 1458 such cases: 2.6 and 3.1 eps)
        assume(N * n <= 1024)
        g = build_grid(iv, N)
        wm = build_weights(g)
        f = np.random.default_rng(seed).normal(size=(g.m, n))
        w = dense_weights(wm)
        ref = matmul_fsum(w, f)
        bound = 4 * np.finfo(float).eps * np.max(np.abs(w) @ np.abs(f), axis=0)
        assert np.all(np.abs(wm.matmul(f) - ref) <= bound)
        assert np.all(np.abs(w @ f - ref) <= bound)

    @pytest.mark.parametrize("n", [1, 3])
    def test_kept_spectrum_changes_no_bit(self, n, monkeypatch):
        # after the first call the generator's FFT is kept: a later call
        # transforms only dphi * f and equals an uncached convolution
        g = build_grid(Interval(0.0, 1.0), 64)
        wm = build_weights(g)
        f = np.random.default_rng(n).normal(size=(g.m, n))
        fresh = weights._fft_convolve(wm.gen, g.dphi[:, None] * f, g.m - 1, 2 * g.m - 1)
        rfft, calls = np.fft.rfft, []
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: calls.append(1) or rfft(*a, **k))
        assert np.array_equal(wm.matmul(f), fresh) and len(calls) == 2
        assert np.array_equal(wm.matmul(f), fresh) and len(calls) == 3


class TestFftConvolve:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("ncol", [None, 1, 3])
    def test_windows_match_direct_convolution(self, seed, ncol, monkeypatch):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=rng.integers(2, 300))
        y = rng.normal(size=(rng.integers(2, 300),) + ((ncol,) if ncol else ()))
        n = len(x) + len(y) - 1
        late = int(rng.integers(1, (n - 1) // 2 + 1))
        # from the start, the whole convolution, and a late window whose
        # wrap-free length n - late is below n, like a merge of mgs_norm_exact
        windows = [(0, int(rng.integers(1, n + 1))), (0, n), (late, n - late)]
        lengths = []
        length = weights._fft_length
        monkeypatch.setattr(weights, "_fft_length",
                            lambda k: lengths.append(length(k)) or lengths[-1])
        ys = [y[:, c] for c in range(ncol)] if ncol else [y]
        for lo, hi in windows:
            got = weights._fft_convolve(x, y, lo, hi)
            assert got.shape == (hi - lo,) + y.shape[1:]
            assert lengths[-1] >= max(hi, n - lo)
            for c, yc in enumerate(ys):
                ref = np.convolve(x, yc)[lo:hi]
                tol = (4 * np.finfo(float).eps * math.log2(lengths[-1])
                       * np.linalg.norm(x) * np.linalg.norm(yc))
                assert np.max(np.abs((got[:, c] if ncol else got) - ref)) <= tol
        assert len(lengths) == len(windows)


class TestAbsRowSums:
    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(2, 2048),
           a=st.floats(-10.0, 10.0),
           length=st.floats(0.01, 10.0),
           scale=st.sampled_from([0.25, 1.0, 4.0]))
    def test_match_direct_convolution(self, N, a, length, scale):
        g = build_grid(Interval(a, a + length), N, math.log(N) / N * scale)
        wm = build_weights(g)
        m, p = wm.m, np.abs(wm.gen)
        e_ref = np.concatenate([[0.0], np.convolve(p[m:], g.dphi)[:m - 1]])
        df_ref = np.convolve(p[:m], g.dphi)[m - 1:]
        for rows, ref in zip(wm.abs_row_sums, (e_ref, df_ref)):
            # normwise: far below the largest sum only absolute accuracy
            tol = 4.0 * np.finfo(float).eps * math.log2(m) * ref.max()
            assert np.max(np.abs(rows - ref)) <= tol


class TestSplit:
    def test_reassembly_exact(self):
        g = build_grid(Interval(0.0, 1.0), 5)
        wm = build_weights(g)
        ts = split(wm)
        assert np.array_equal(np.diag(ts.d) + ts.e + ts.f, dense_weights(wm))

    def test_triangle_structure(self):
        g = build_grid(Interval(0.0, 1.0), 3)
        ts = split(build_weights(g))
        assert np.array_equal(ts.e, np.tril(ts.e, k=-1))
        assert np.array_equal(ts.f, np.triu(ts.f, k=1))


class TestRowSumNorm:
    def test_zero_matrix(self):
        assert row_sum_norm(np.zeros((4, 4))) == 0.0

    def test_identity(self):
        assert row_sum_norm(np.eye(5)) == 1.0

    def test_mixed_signs(self):
        assert row_sum_norm([[1.0, -2.0], [3.0, 4.0]]) == 7.0

    def test_rejects_non_matrix(self):
        with pytest.raises(ValueError):
            row_sum_norm(np.zeros(3))
