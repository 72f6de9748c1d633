import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from desinc.grid import build_grid
from desinc.special import Interval, si
from desinc.weights import WeightMatrix, build_weights, split

from oracles import matmul_fsum, row_sum_norm, si_quadrature, weights_mpmath


def eq35_bound(iv, h, N):
    return iv.length * h * (math.pi / 8 + (1 + math.log(2 * N)) / (4 * math.pi))


class TestBuildWeights:
    def test_diagonal_entries(self):
        g = build_grid(Interval(0.0, 1.0), 6)
        wm = build_weights(g)
        assert np.allclose(np.diag(wm.w), g.dphi * g.h / 2, rtol=1e-15)

    def test_entry_against_quadrature_oracle(self):
        g = build_grid(Interval(0.0, 1.0), 4)
        wm = build_weights(g)
        expected = g.dphi[0] * g.h * (0.5 + si_quadrature(2 * math.pi) / math.pi)
        assert wm.w[2, 0] == pytest.approx(expected, rel=1e-13)

    def test_lower_triangle_nonnegative(self):
        g = build_grid(Interval(0.0, 0.5), 8)
        wm = build_weights(g)
        assert np.all(np.tril(wm.w, k=-1) >= 0.0)

    def test_small_e_norm_bound(self):
        g = build_grid(Interval(0.0, 0.5), 4)
        wm = build_weights(g)
        e = np.tril(wm.w, k=-1)
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
        assert row_sum_norm(wm.w) <= e_norm + df_norm + 1e-15

    @settings(max_examples=30, deadline=None)
    @given(N=st.integers(2, 40),
           a=st.floats(-10.0, 10.0),
           length=st.floats(0.01, 10.0))
    def test_toeplitz_assembly_matches_double_loop(self, N, a, length):
        g = build_grid(Interval(a, a + length), N)
        w = build_weights(g).w
        loop = np.empty((g.m, g.m))
        for i in range(g.m):
            for j in range(g.m):
                loop[i, j] = g.dphi[j] * (g.h * (0.5 + si(math.pi * (i - j)) / math.pi))
        assert np.array_equal(w, loop)
        assert w.flags.c_contiguous

    @pytest.mark.parametrize("N", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("iv", [Interval(0.0, 0.5), Interval(0.0, 1.0), Interval(-1.0, 2.0)])
    def test_matches_mpmath_weights(self, N, iv):
        # column j is phi'(s_j) times p_k = h (1/2 + Si(pi k)/pi), |p_k| < 1.1 h,
        # so its error is measured in eps * h * phi'(s_j); a few roundings
        # give at most 2 of those (1.53 is the worst seen on these grids)
        g = build_grid(iv, N)
        w = build_weights(g).w
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
        assert np.all(np.isfinite(wm.w))

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
        ref = matmul_fsum(wm.w, f)
        bound = 4 * np.finfo(float).eps * np.max(np.abs(wm.w) @ np.abs(f), axis=0)
        assert np.all(np.abs(wm.matmul(f) - ref) <= bound)
        assert np.all(np.abs(wm.w @ f - ref) <= bound)


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
        assert np.array_equal(np.diag(ts.d) + ts.e + ts.f, wm.w)

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
