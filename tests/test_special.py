import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import sici

from desinc.analysis import mgs_bound
from desinc.grid import DEGrid, build_grid
from desinc.solver import IVProblem, evaluate, solve
from desinc.special import Interval, dphi_de, j_kernel, phi_de, phi_de_inv, si

from oracles import central_difference, si_quadrature

# frozen from the quadrature oracle (si_quadrature(pi), epsabs 1e-15)
SI_PI = 1.851937051982466
# frozen high-precision tanh((pi/2) sinh 1)
TANH_HALF_PI_SINH_1 = 0.9513679640727469
# absolute tolerance against 40-digit mpmath: two ulps of Si's limit pi/2
SI_TOL = 2.0 * np.finfo(float).eps * math.pi / 2


def si_error(x: float):
    """|si(x) - Si(x)| with Si(x) from mpmath at 40 digits."""
    with mpmath.workdps(40):
        return abs(mpmath.mpf(si(x)) - mpmath.si(x))


class TestSi:
    def test_zero(self):
        assert si(0.0) == 0.0

    def test_at_pi_bracket(self):
        assert 1.85 < si(math.pi) < 1.86

    def test_at_pi_value(self):
        assert si(math.pi) == pytest.approx(SI_PI, abs=1e-14)

    def test_against_quadrature(self):
        for x in (0.3, 1.0, 2.0, 3.9, 4.1, 7.3, 12.0, 16.0, 25.0, 100.0):
            assert si(x) == pytest.approx(si_quadrature(x), abs=1e-14)

    def test_at_pi_multiples_against_mpmath(self):
        # the weights need Si at exactly these points (worst seen: 3.4e-16)
        for k in range(8193):
            assert si_error(math.pi * k) <= SI_TOL, k

    def test_random_against_mpmath(self):
        # worst seen: 4.1e-16
        for x in np.random.default_rng(1).uniform(-300.0, 300.0, 3000):
            assert si_error(float(x)) <= SI_TOL, x

    def test_odd_exact(self):
        rng = np.random.default_rng(42)
        for x in rng.uniform(-50.0, 50.0, 1000):
            assert si(-x) + si(x) == 0.0

    def test_tail_bound(self):
        # |pi/2 - Si(x)| <= 1/x for x > 0
        for x in np.logspace(-3, 4, 200):
            assert abs(math.pi / 2 - si(x)) <= 1.0 / x

    def test_large_argument_limit(self):
        assert si(1e8) == pytest.approx(math.pi / 2, abs=1e-7)

    def test_bit_identical_to_scipy_sici(self):
        # si ports the algorithm behind scipy.special.sici, so it must
        # reproduce every bit, the sign of zero included: at the weights'
        # points pi*k, at dense random points, at both branch edges and
        # their neighbouring floats, and at zeros, subnormals, huge values,
        # infinities and NaN
        rng = np.random.default_rng(25)
        edges = [e for x in (4.0, 8.0) for e in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))]
        xs = np.concatenate([
            math.pi * np.arange(-20000, 20001),
            rng.uniform(-10.0, 10.0, 100_000),
            rng.uniform(-1e4, 1e4, 100_000),
            edges, np.negative(edges),
            [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
             1e9, -1e9, 1e300, -1e300, math.inf, -math.inf, math.nan],
        ])
        got = np.array([si(float(x)) for x in xs])
        ref = sici(xs)[0]
        same = (got.view(np.uint64) == ref.view(np.uint64)) | (np.isnan(got) & np.isnan(ref))
        assert same.all(), xs[~same][:10]

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(allow_nan=False))
    def test_bit_identical_to_scipy_sici_anywhere(self, x):
        assert np.float64(si(x)).view(np.uint64) == np.float64(sici(x)[0]).view(np.uint64)

    # scipy's float32 loop ran on a float32 x: si(np.float32(2.5)) gave
    # 1.7785202264785767 instead of 1.7785201734438267
    @pytest.mark.parametrize("x", [np.float32(2.5), np.array(np.float32(2.5))],
                             ids=["float32", "0-d float32"])
    def test_narrow_float_x_in_double_precision(self, x):
        assert si(x) == si(float(x)) == 1.7785201734438267


class TestPhiDE:
    def test_midpoint(self):
        assert phi_de(0.0, Interval(0.0, 1.0)) == pytest.approx(0.5, abs=1e-16)

    def test_limit_at_large_s(self):
        iv = Interval(-2.0, 3.0)
        assert phi_de(20.0, iv) == pytest.approx(3.0, abs=1e-15)
        assert phi_de(-20.0, iv) == pytest.approx(-2.0, abs=1e-15)

    def test_value_at_one(self):
        assert phi_de(1.0, Interval(0.0, 1.0)) == pytest.approx(
            0.5 * (1.0 + TANH_HALF_PI_SINH_1), rel=1e-15
        )

    def test_monotone(self):
        # strict monotonicity holds until tanh saturates in doubles
        # (|s| ~ 3.5); past that, endpoint saturation is accepted just
        # like the dphi underflow
        iv = Interval(0.0, 1.0)
        rng = np.random.default_rng(7)
        for _ in range(200):
            s1, s2 = sorted(rng.uniform(-3.0, 3.0, 2))
            if s1 < s2:
                assert phi_de(s1, iv) < phi_de(s2, iv)

    def test_range_open(self):
        iv = Interval(0.0, 1.0)
        s = np.linspace(-3, 3, 101)
        t = phi_de(s, iv)
        assert np.all(t > 0.0) and np.all(t < 1.0)


class TestDphiDE:
    def test_at_zero(self):
        assert dphi_de(0.0, Interval(0.0, 1.0)) == pytest.approx(math.pi / 4, rel=1e-15)

    def test_scales_with_length(self):
        assert dphi_de(0.0, Interval(0.0, 0.5)) == pytest.approx(math.pi / 8, rel=1e-15)

    def test_positive(self):
        iv = Interval(0.0, 1.0)
        assert np.all(dphi_de(np.linspace(-5, 5, 201), iv) > 0.0)

    def test_matches_finite_difference(self):
        iv = Interval(-1.0, 2.0)
        for s in np.linspace(-5.0, 5.0, 41):
            fd = central_difference(lambda u: phi_de(u, iv), s)
            d = dphi_de(s, iv)
            assert abs(d - fd) <= 1e-8 * max(1.0, abs(d))


class TestPhiDEInv:
    def test_midpoint(self):
        assert phi_de_inv(0.5, Interval(-1.0, 2.0)) == pytest.approx(0.0, abs=1e-16)

    def test_round_trip(self):
        iv = Interval(0.0, 1.0)
        for t in (0.3, 0.05, 0.92):
            assert phi_de(phi_de_inv(t, iv), iv) == pytest.approx(t, rel=1e-12)

    @pytest.mark.parametrize("iv", [Interval(0.0, 1.0), Interval(1e6, 1e6 + 1.0)],
                             ids=["unit", "shifted"])
    def test_endpoints_clamped_finite(self, iv):
        # on the shifted interval one ulp of t exceeds (b - a) * eps
        assert math.isfinite(phi_de_inv(iv.a, iv))
        assert math.isfinite(phi_de_inv(iv.b, iv))
        assert phi_de_inv(iv.a, iv) < 0 < phi_de_inv(iv.b, iv)
        prob = IVProblem(rhs=lambda t, x: x, x_a=np.array([1.0]), iv=iv)
        sol, _ = solve(prob, build_grid(iv, 16))
        assert evaluate(sol, iv.b)[0] == pytest.approx(math.e, rel=1e-9)

    @settings(max_examples=200, deadline=None)
    @given(s=st.floats(-4.0, 4.0),
           a=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e6, 1e6)),
           length=st.floats(0.01, 10.0))
    def test_inverts_phi_de(self, s, a, length):
        iv = Interval(a, a + length)
        t = float(phi_de(s, iv))
        assume(iv.a < t < iv.b)  # an endpoint only says s is large
        # an error of eps * scale in t moves s by that over phi'(s); the
        # factor 4 covers the few roundings on either side
        eps = np.finfo(float).eps
        scale = max(abs(iv.a), abs(iv.b)) + length
        tol = 4.0 * eps * (scale / float(dphi_de(s, iv)) + abs(s))
        assert abs(phi_de_inv(t, iv) - s) <= tol

    def test_rejects_outside(self):
        iv = Interval(0.0, 1.0)
        with pytest.raises(ValueError):
            phi_de_inv(-0.1, iv)
        with pytest.raises(ValueError):
            phi_de_inv(1.1, iv)

    # a float32 t was carried into u in single precision: 0.1 gave
    # -0.42807675181 instead of -0.42807672469
    @pytest.mark.parametrize("t", [np.float32(0.1), np.array(np.float32(0.1))],
                             ids=["float32", "0-d float32"])
    def test_narrow_float_t_in_double_precision(self, t):
        iv = Interval(0.0, 0.5)
        assert phi_de_inv(t, iv) == phi_de_inv(float(t), iv)

    def test_monotone_growth_vs_bisection(self):
        iv = Interval(0.0, 1.0)
        prev = None
        for t in (0.9, 0.99, 0.999, 0.9999):
            s = phi_de_inv(t, iv)
            # bisection oracle on phi_de
            lo, hi = 0.0, 10.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if phi_de(mid, iv) < t:
                    lo = mid
                else:
                    hi = mid
            assert s == pytest.approx(0.5 * (lo + hi), abs=1e-9)
            if prev is not None:
                assert s > prev
            prev = s


class TestJKernel:
    def test_center_value(self):
        for j, h in ((0, 0.1), (3, 0.07), (-5, 0.2)):
            assert j_kernel(j, h, j * h) == pytest.approx(h / 2, rel=1e-15)

    def test_one_step_right(self):
        h = 0.3
        assert j_kernel(0, h, h) == pytest.approx(h * (0.5 + SI_PI / math.pi), rel=1e-14)

    def test_left_tail_bound(self):
        h = 0.25
        for k in range(1, 20):
            assert abs(j_kernel(0, h, -k * h)) < h / (k * math.pi**2) + 1e-13

    def test_limits(self):
        h = 0.1
        assert j_kernel(0, h, -400.0) == pytest.approx(0.0, abs=1e-4)
        assert j_kernel(0, h, 400.0) == pytest.approx(h, abs=1e-4)

    def test_bounded_on_right(self):
        rng = np.random.default_rng(3)
        si_max = si(math.pi)
        for _ in range(300):
            j = rng.integers(-10, 11)
            h = rng.uniform(0.01, 0.5)
            s = j * h + rng.uniform(1e-6, 20.0)
            v = j_kernel(int(j), h, s)
            assert 0.0 < v < h * (0.5 + si_max / math.pi)

    def test_derivative_is_sinc_basis(self):
        # d/ds J(j, h)(s) = sinc((s - jh)/h): 1 at its own node, 0 at the others
        h = 0.2
        for j in (-3, 0, 2):
            for s in (j * h, (j + 1) * h, (j - 2) * h, j * h + 0.37, -1.1):
                slope = central_difference(lambda u: j_kernel(j, h, u), s)
                assert slope == pytest.approx(np.sinc((s - j * h) / h), abs=1e-8)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            j_kernel(0, -0.1, 0.0)


class TestInterval:
    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Interval(1.0, 1.0)
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Interval(0.0, math.inf)
        # finite endpoints whose length overflows: build_grid used to give
        # t = [-inf, ..., nan, ..., inf] and phi' = inf at every node
        with pytest.raises(ValueError, match="length of interval"):
            Interval(-1e308, 1e308)

    @pytest.mark.parametrize("a, b", [("0", "1"), (0, True), (None, 1.0), (0.0, 1j)])
    def test_rejects_end_that_is_no_number(self, a, b):
        # strings, None and complex ends raised TypeError; a bool end was 1
        with pytest.raises(ValueError, match=r"^ends of interval \[.*\] must be real numbers$"):
            Interval(a, b)

    def test_array_end_is_stored_as_float(self):
        # a 0-d array end made the interval unhashable
        iv = Interval(np.array(0.0), np.int64(1))
        assert (type(iv.a), type(iv.b)) == (float, float)
        assert hash(iv) == hash(Interval(0.0, 1.0)) and iv == Interval(0.0, 1.0)

    def test_rejects_int_end_beyond_float_range(self):
        with pytest.raises(ValueError, match="length of interval"):
            Interval(0, 10**400)

    @pytest.mark.parametrize("iv", [(0.0, 0.5), None, 0.5], ids=["tuple", "None", "float"])
    @pytest.mark.parametrize("make", [
        lambda iv: build_grid(iv, 8),
        lambda iv: DEGrid(iv, 8),
        lambda iv: IVProblem(rhs=lambda t, x: x, x_a=1.0, iv=iv),
        lambda iv: mgs_bound(1.0, iv, 0.1, 8),
    ], ids=["build_grid", "DEGrid", "IVProblem", "mgs_bound"])
    def test_every_iv_argument_must_be_an_interval(self, make, iv):
        # IVProblem took a tuple, and solve then failed on the grid's
        # interval; mgs_bound raised AttributeError
        with pytest.raises(ValueError, match=r"^iv must be an Interval, got "):
            make(iv)
