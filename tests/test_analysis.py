import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from desinc import analysis, weights
from desinc.analysis import (
    analyze,
    check_assumptions,
    convergence_factor_observed,
    mgs_bound,
    mgs_norm_exact,
)
from desinc.grid import build_grid
from desinc.problems import example1, example2
from desinc.solver import IterationTrace, IVProblem, solve
from desinc.special import Interval
from desinc.weights import WeightMatrix, build_weights, split

from oracles import (dense_weights, mgs_norm_dense, mgs_norm_rowloop, mgs_rows_every_block,
                     row_sum_norm)


def neumann_oracle(tsplit, L):
    """Explicit Neumann-sum computation of the comparison-matrix norm."""
    m = len(tsplit.d)
    le = L * np.abs(tsplit.e)
    inv = np.zeros((m, m))
    power = np.eye(m)
    for _ in range(m):
        inv += power
        power = power @ le
    y = inv @ (L * (np.diag(np.abs(tsplit.d)) + np.abs(tsplit.f)))
    return float(np.max(np.sum(np.abs(y), axis=1)))


class TestMgsNormExact:
    def test_paper_configuration(self):
        g = build_grid(Interval(0.0, 0.5), 64)
        norm = mgs_norm_exact(build_weights(g), L=1.0)
        assert 0.01 <= norm <= 0.03

    def test_no_lower_coupling(self):
        # synthetic generator: p_0 = 1, p_k = -0.1 above the diagonal and 0
        # below it, with phi' = 1, so the norm is L times the first row sum
        # of |D|+|F|, 1 + 0.1 * (m - 1)
        m = 4
        gen = np.concatenate([np.full(m - 1, -0.1), [1.0], np.zeros(m - 1)])
        wm = WeightMatrix(grid=SimpleNamespace(m=m, dphi=np.ones(m)), gen=gen)
        assert mgs_norm_exact(wm, L=0.3) == pytest.approx(0.3 * 1.3, rel=1e-15)
        assert mgs_norm_dense(dense_weights(wm), 0.3) == pytest.approx(0.3 * 1.3, rel=1e-15)

    def test_matches_neumann_oracle_small(self):
        g = build_grid(Interval(0.0, 1.0), 3)
        wm = build_weights(g)
        assert mgs_norm_exact(wm, L=0.7) == pytest.approx(neumann_oracle(split(wm), 0.7),
                                                          abs=1e-13)

    @pytest.mark.parametrize("N", [2, 4, 8, 16])
    def test_neumann_equivalence_sweep(self, N):
        g = build_grid(Interval(0.0, 0.5), N)
        wm = build_weights(g)
        assert mgs_norm_exact(wm, L=1.0) == pytest.approx(neumann_oracle(split(wm), 1.0),
                                                          abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(2, 48),
           a=st.floats(-1.0, 1.0),
           length=st.floats(0.05, 2.0),
           L=st.floats(0.0, 1.5, exclude_min=True))
    def test_matches_dense_inverse(self, N, a, length, L):
        wm = build_weights(build_grid(Interval(a, a + length), N))
        ref = mgs_norm_dense(dense_weights(wm), L)
        assert mgs_norm_exact(wm, L) == pytest.approx(ref, rel=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(N=st.integers(2, 2048),
           a=st.floats(-10.0, 10.0),
           length=st.floats(0.01, 10.0),
           lba=st.floats(1e-6, 1.0))
    # m = 4097 rows: 64 full blocks and a last block of one row
    @example(N=2048, a=0.0, length=0.5, lba=0.5)
    # far outside the paper's L(b - a) < 1, where an iteration in place of
    # the triangular solves drifts or diverges
    @example(N=256, a=0.0, length=1.0, lba=50.0)
    @example(N=64, a=0.0, length=10.0, lba=10.0)
    def test_matches_row_loop(self, N, a, length, lba):
        wm = build_weights(build_grid(Interval(a, a + length), N))
        L = lba / length
        assert mgs_norm_exact(wm, L) == pytest.approx(mgs_norm_rowloop(wm, L), rel=1e-14)

    def test_rejects_nonpositive_l(self):
        wm = build_weights(build_grid(Interval(0.0, 1.0), 2))
        with pytest.raises(ValueError):
            mgs_norm_exact(wm, L=0.0)

    # every term is nonnegative, so an overflowed row makes the norm +inf:
    # at L = 1e300 a block solved in row order with partial pivoting meets
    # a singular matrix, at L = 1e4 the row loop returns NaN from phi' = 0
    # times an infinite y at the underflowed nodes, and at L = 1e308
    # entries of L|E| themselves overflow
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("L, b, N", [(1e300, 1.0, 16), (1e4, 10.0, 1024),
                                         (1e308, 10.0, 16)])
    def test_overflow_gives_inf(self, L, b, N):
        wm = build_weights(build_grid(Interval(0.0, b), N))
        assert mgs_norm_exact(wm, L) == math.inf
        assert analyze(wm, L).contraction is False


def same_bits(x, y) -> bool:
    """Whether two float arrays are equal bit for bit, a NaN matching any
    NaN: an overflow leaves NaNs whose payload is no result."""
    nan = np.isnan(x)
    return bool(np.array_equal(nan, np.isnan(y))
                and np.array_equal(x[~nan].view(np.int64), y[~nan].view(np.int64)))


class TestMgsTailSkip:
    """mgs_norm_exact skips the blocks where phi' underflows to 0; its
    rows and norm must be those of solving every block."""

    @settings(max_examples=25, deadline=None)
    @given(N=st.integers(2, 4096),
           a=st.floats(-10.0, 10.0),
           length=st.floats(0.01, 10.0),
           L=st.floats(1e-6, 100.0))
    # the paper's interval at the largest N of the analyze benchmark
    @example(N=2048, a=0.0, length=0.5, L=1.0)
    # the overflows of TestMgsNormExact.test_overflow_gives_inf
    @example(N=16, a=0.0, length=1.0, L=1e300)
    @example(N=1024, a=0.0, length=10.0, L=1e4)
    @example(N=16, a=0.0, length=10.0, L=1e308)
    def test_bit_identical_to_every_block_solved(self, N, a, length, L):
        wm = build_weights(build_grid(Interval(a, a + length), N))
        ref = mgs_rows_every_block(wm, L)
        assert same_bits(analysis._mgs_rows(wm, L), ref)
        norm = ref.max()
        assert mgs_norm_exact(wm, L) == (float(norm) if norm < math.inf else math.inf)

    def test_tail_leaves_call_no_solve(self, monkeypatch):
        wm = build_weights(build_grid(Interval(0.0, 0.5), 2048))
        live = np.flatnonzero(wm.grid.dphi)
        first, last = live[0], live[-1] + 1
        # 812 of the 4097 nodes have phi' = 0, in both tails
        assert wm.m - (last - first) == 812 and first > analysis._LEAF
        calls = []
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or solve(*args))
        mgs_norm_exact(wm, 1.0)
        # the leaves are rows lo..lo+63 for lo = 0, 64, ... (the last one
        # row); one solve per leaf that meets rows first..last-1
        leaves = range(0, wm.m, analysis._LEAF)
        meeting = sum(lo < last and lo + analysis._LEAF > first for lo in leaves)
        assert len(leaves) == 65 and len(calls) == meeting < 65


class TestMgsBound:
    def test_paper_value(self):
        assert mgs_bound(1.0, Interval(0.0, 0.5), math.log(64) / 64, 64) == pytest.approx(
            0.06197, abs=5e-5
        )

    def test_vanishes_with_small_l(self):
        iv = Interval(0.0, 0.5)
        assert mgs_bound(1e-12, iv, 0.05, 16) < 1e-12

    def test_ratio_to_exact(self):
        g = build_grid(Interval(0.0, 0.5), 64)
        exact = mgs_norm_exact(build_weights(g), L=1.0)
        bound = mgs_bound(1.0, g.iv, g.h, 64)
        assert 1.5 < bound / exact < 6.0

    def test_rejects_violated_hypothesis(self):
        with pytest.raises(ValueError):
            mgs_bound(2.0, Interval(0.0, 0.5), 0.05, 16)  # 1.1*L*(b-a) = 1.1

    @pytest.mark.parametrize("N", [4, 8, 16, 32, 64, 128, 256])
    def test_dominates_exact_norm(self, N):
        g = build_grid(Interval(0.0, 0.5), N)
        exact = mgs_norm_exact(build_weights(g), L=1.0)
        assert exact <= mgs_bound(1.0, g.iv, g.h, N)

    def test_decreasing_in_n(self):
        vals = [mgs_bound(1.0, Interval(0.0, 0.5), math.log(N) / N, N)
                for N in (8, 16, 32, 64, 128, 256)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestCheckAssumptions:
    def test_example1_constants(self):
        tp = example1()
        wm = build_weights(build_grid(tp.problem.iv, 32))
        rep = check_assumptions(tp.problem, wm)
        assert rep.cond_iii_ok and rep.cond_lbound_ok
        assert rep.w == pytest.approx(0.5, abs=0.06)

    def test_example2_constants(self):
        tp = example2(11)
        wm = build_weights(build_grid(tp.problem.iv, 32))
        rep = check_assumptions(tp.problem, wm)
        assert rep.cond_iii_ok and rep.cond_lbound_ok

    def test_large_lipschitz_fails_flag(self):
        prob = IVProblem(rhs=lambda t, x: x, x_a=np.array([1.0]),
                         iv=Interval(0.0, 1.0), lip=10.0, bound_m=2.0, rho=1.0)
        wm = build_weights(build_grid(prob.iv, 8))
        rep = check_assumptions(prob, wm)
        assert rep.cond_lbound_ok is False

    def test_rejects_weights_of_another_interval(self):
        # on [0, 1] weights it reported w = 1 next to 1.1*L*(b-a) = 0.55
        # from the problem's [0, 0.5]
        tp = example1()
        wm = build_weights(build_grid(Interval(0.0, 1.0), 16))
        with pytest.raises(ValueError, match=r"b=1\.0.*b=0\.5"):
            check_assumptions(tp.problem, wm)

    @pytest.mark.parametrize("names", [
        names for k in range(4) for names in itertools.combinations(("lip", "bound_m", "rho"), k)],
        ids=lambda names: "+".join(names) or "none")
    def test_flag_absent_only_without_its_constants(self, names):
        # with any one of L, M and rho missing both flags were None
        prob = IVProblem(rhs=lambda t, x: x, x_a=np.array([1.0]), iv=Interval(0.0, 0.5),
                         **{name: 1.0 for name in names})
        rep = check_assumptions(prob, build_weights(build_grid(prob.iv, 64)))
        assert (rep.cond_lbound_ok is None) == ("lip" not in names)
        assert (rep.cond_iii_ok is None) == ("rho" not in names or "bound_m" not in names)

    @pytest.mark.parametrize("const", [np.float64, np.array], ids=["float64", "0-d"])
    def test_flags_are_python_bools(self, const):
        # numpy constants gave numpy.bool flags, which cli._fmt writes as True
        prob = IVProblem(rhs=lambda t, x: x, x_a=np.array([1.0]), iv=Interval(0.0, 0.5),
                         lip=const(1.0), bound_m=const(2.0), rho=const(1.0))
        rep = check_assumptions(prob, build_weights(build_grid(prob.iv, 16)))
        assert type(rep.cond_iii_ok) is bool and type(rep.cond_lbound_ok) is bool


class TestConvergenceFactorObserved:
    def test_geometric_sequence_recovered(self):
        r = 0.07
        trace = IterationTrace(z_norms=[r**k for k in range(8)])
        assert convergence_factor_observed(trace) == pytest.approx(r, rel=1e-12)

    def test_example1_below_norm_bound(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 64)
        wm = build_weights(g)
        _, trace = solve(tp.problem, g, tol=1e-15)
        factor = convergence_factor_observed(trace)
        assert factor <= mgs_norm_exact(wm, tp.problem.lip)
        assert 0.005 <= factor <= 0.05

    def test_roundoff_tail_is_skipped(self):
        trace = IterationTrace(z_norms=[1.0, 0.01, 1e-4, 1e-6, 3e-16, 2.9e-16, 3.1e-16])
        factor = convergence_factor_observed(trace)
        assert factor == pytest.approx(1e-2, rel=1e-6)

    def test_exact_zero_is_below_roundoff_floor(self):
        # from sweep 14 on the Gauss-Seidel iterates repeat exactly, so the
        # difference norm is 0; that raised "must be positive and finite"
        tp = example1()
        _, trace = solve(tp.problem, build_grid(tp.problem.iv, 8), tol=0.0, max_sweeps=30)
        z = trace.z_norms
        assert z[13] == 0.0 and z[12] > 0.0
        factor = convergence_factor_observed(trace)
        assert factor == convergence_factor_observed(IterationTrace(z_norms=z[:13]))
        assert factor == pytest.approx(0.0423, abs=5e-5)

    # a bool was taken for 1, a string, None or complex norm raised
    # TypeError and an array numpy's ambiguity error, and 10**400 an
    # OverflowError in the ratios
    @pytest.mark.parametrize("v", [-1.0, math.nan, math.inf, True, "1", None, 1j,
                                   np.array([0.1, 0.2]), 10**400],
                             ids=lambda v: "10**400" if type(v) is int else repr(v))
    def test_rejects_negative_or_non_finite_later_norm(self, v):
        with pytest.raises(ValueError, match=r"z_norms\[2\] must be nonnegative and finite"):
            convergence_factor_observed(IterationTrace(z_norms=[1.0, 0.1, v, 1e-3]))

    def test_rejects_short_or_zero(self):
        with pytest.raises(ValueError):
            convergence_factor_observed(IterationTrace(z_norms=[1.0, 0.1]))
        with pytest.raises(ValueError):
            convergence_factor_observed(IterationTrace(z_norms=[1.0, 0.0, 0.1]))


class TestAnalyze:
    def test_row_fields_consistent(self):
        g = build_grid(Interval(0.0, 0.5), 16)
        wm = build_weights(g)
        res = analyze(wm, 1.0)
        assert res.contraction
        assert res.mgs_norm <= res.mgs_bound
        assert res.e_norm <= 1.1 * g.iv.length
        assert res.w <= res.e_norm + res.df_norm + 1e-15

    @pytest.mark.parametrize("const", [np.float64, np.array], ids=["float64", "0-d"])
    def test_bound_is_python_float(self, const):
        res = analyze(build_weights(build_grid(Interval(0.0, 0.5), 16)), const(1.0))
        assert type(res.mgs_bound) is float and type(res.contraction) is bool

    def test_bound_absent_when_hypothesis_fails(self):
        g = build_grid(Interval(0.0, 1.0), 8)
        res = analyze(build_weights(g), L=2.0)
        assert res.mgs_bound is None

    def test_bound_absent_when_w_exceeds_interval(self):
        # h = 20 makes w = 8.56 against 1.1 * (b - a) = 0.55; the closed
        # form then read 15.40 against an exact norm of 33.60
        tp = example1()
        g = build_grid(tp.problem.iv, 8, 20.0)
        wm = build_weights(g)
        res = analyze(wm, tp.problem.lip)
        assert res.w > 1.1 * g.iv.length
        assert mgs_bound(tp.problem.lip, g.iv, g.h, g.N) < res.mgs_norm
        assert res.mgs_bound is None
        assert check_assumptions(tp.problem, wm).cond_lbound_ok is False

    @settings(max_examples=60, deadline=None)
    @given(N=st.integers(2, 64),
           a=st.floats(-10.0, 10.0),
           length=st.floats(0.01, 10.0))
    # the convolution and the dense sum round differently here:
    # 0.04507947584191648 against 0.04507947584191649 (math.fsum's value)
    @example(N=16, a=0.0, length=0.5)
    def test_row_sums_match_dense_split(self, N, a, length):
        wm = build_weights(build_grid(Interval(a, a + length), N))
        e_rows, df_rows = wm.abs_row_sums
        assert e_rows.max() == pytest.approx(row_sum_norm(split(wm).e), rel=1e-14)
        assert df_rows.max() == pytest.approx(row_sum_norm(np.triu(dense_weights(wm))), rel=1e-14)

    def test_analysis_builds_no_dense_matrix(self, peak_bytes):
        # the dense w would be 8 m^2 bytes
        tp = example1()
        wm = build_weights(build_grid(tp.problem.iv, 1024))
        peak = peak_bytes(lambda: (analyze(wm, tp.problem.lip),
                                   check_assumptions(tp.problem, wm)))
        assert peak < 8 * wm.m**2 / 8

    def test_analysis_builds_no_row_stack(self):
        # mgs_norm_exact reads column 0 of P; the row blocks of P and w are
        # for the sweep and dump-weights only
        tp = example1()
        wm = build_weights(build_grid(tp.problem.iv, 64))
        analyze(wm, tp.problem.lip)
        check_assumptions(tp.problem, wm)
        assert "row_blocks" not in vars(wm)

    def test_w_column_matches_check_assumptions(self):
        tp = example2(11)
        wm = build_weights(build_grid(tp.problem.iv, 16))
        assert analyze(wm, tp.problem.lip).w == check_assumptions(tp.problem, wm).w

    def test_row_sums_computed_once(self, monkeypatch):
        # analyze and check_assumptions on one weight matrix share its two
        # row-sum convolutions; at N = 16 the m = 33 rows are one block of
        # mgs_norm_exact, which then convolves nothing itself
        calls = []
        convolve = weights._fft_convolve
        for module in (weights, analysis):
            monkeypatch.setattr(module, "_fft_convolve",
                                lambda *a: calls.append(1) or convolve(*a))
        tp = example1()
        wm = build_weights(build_grid(tp.problem.iv, 16))
        analyze(wm, tp.problem.lip)
        check_assumptions(tp.problem, wm)
        mgs_norm_exact(wm, tp.problem.lip)
        assert len(calls) == 2


@st.composite
def linear_problems(draw, multipliers=(0.25, 0.5, 1.0, 2.0, 4.0)):
    """A random x' = A x with L = ||A||_inf and L(b - a) in (0, 0.9], so
    that 1.1 L (b - a) < 1 holds with room for rounding, on a shifted
    interval, with its grid, whose h is log(N)/N times one of multipliers.
    N n is capped at 512 to keep the sweeps cheap."""
    n = draw(st.integers(1, 5))
    N = draw(st.integers(4, min(256, 512 // n)))
    a = draw(st.floats(-10.0, 10.0))
    iv = Interval(a, a + draw(st.floats(0.05, 2.0)))
    lba = draw(st.floats(1e-6, 0.9))
    h = math.log(N) / N * draw(st.sampled_from(multipliers))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    A = rng.normal(size=(n, n))
    A *= lba / (np.abs(A).sum(axis=1).max() * iv.length)
    L = float(np.abs(A).sum(axis=1).max())
    prob = IVProblem(rhs=lambda t, x: A @ x, x_a=rng.uniform(-1.0, 1.0, n), iv=iv, lip=L)
    return prob, build_grid(iv, N, h)


class TestConvergenceTheorem:
    """The paper's two results on random linear problems, with
    q = mgs_norm_exact: the closed-form bound dominates q, and q bounds
    the Gauss-Seidel error contraction."""

    @settings(max_examples=25, deadline=None)
    @given(case=linear_problems())
    def test_bound_and_contraction(self, case):
        prob, g = case
        wm = build_weights(g)
        q = mgs_norm_exact(wm, prob.lip)
        assert mgs_bound(prob.lip, g.iv, g.h, g.N) >= q
        # 40 sweeps reach the fixed point to roundoff for every q here
        sol, trace = solve(prob, g, tol=0.0, max_sweeps=40, store_iterates=True)
        fixed = sol.x_nodes
        iterates = [np.tile(prob.x_a, (g.m, 1))] + trace.iterates
        err = [float(np.max(np.abs(x - fixed))) for x in iterates]
        # below this the errors are roundoff in the fixed point itself
        floor = 1e-12 * float(np.max(np.abs(fixed)))
        for k in range(1, len(err)):
            if err[k] < floor:
                break
            assert err[k] <= q * err[k - 1]
            if q < 1.0:
                assert err[k] <= q / (1.0 - q) * trace.z_norms[k - 1]

    # h up to 256 log(N)/N: at N = 16 the multiplier 64 gives w = 9.49 on
    # [0, 1], past the 1.1 (b - a) that the bound needs
    @settings(max_examples=40, deadline=None)
    @given(case=linear_problems(multipliers=(0.25, 1.0, 4.0, 16.0, 64.0, 256.0)))
    def test_bound_present_exactly_where_it_dominates(self, case):
        prob, g = case
        res = analyze(build_weights(g), prob.lip)
        fails = res.w > 1.1 * g.iv.length or 1.1 * (prob.lip * g.iv.length) >= 1.0
        assert (res.mgs_bound is None) == fails
        if not fails:
            assert res.mgs_bound >= res.mgs_norm


@st.composite
def near_bound_hypothesis(draw):
    """(L, a, b) with 1.1 L (b - a) within a few ulps of 1."""
    a = draw(st.floats(-10.0, 10.0))
    b = a + draw(st.floats(0.01, 10.0))
    L = 1.0 / (1.1 * (b - a))
    for _ in range(draw(st.integers(0, 4))):
        L = math.nextafter(L, draw(st.sampled_from([0.0, math.inf])))
    return L, a, b


class TestBoundHypothesis:
    @settings(max_examples=60, deadline=None)
    @given(case=near_bound_hypothesis(), with_m_rho=st.booleans())
    # analyze gave a finite bound here while check_assumptions reported the
    # hypothesis failed: 1.1 * L * (b - a) and 1.1 * (L * (b - a)) round apart
    @example(case=(9.494542381883877, 0.0, 0.09574878625277462), with_m_rho=True)
    # without M and rho, cond_lbound_ok was None whatever L was
    @example(case=(10.0, 0.0, 0.5), with_m_rho=False)
    def test_bound_absent_exactly_when_hypothesis_fails(self, case, with_m_rho):
        L, a, b = case
        consts = {"bound_m": 1.0, "rho": 1.0} if with_m_rho else {}
        prob = IVProblem(rhs=lambda t, x: x, x_a=1.0, iv=Interval(a, b), lip=L, **consts)
        wm = build_weights(build_grid(prob.iv, 4))
        assert check_assumptions(prob, wm).cond_lbound_ok == (
            analyze(wm, L).mgs_bound is not None)
