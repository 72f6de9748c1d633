import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import expm

from desinc import problems
from desinc.grid import build_grid
from desinc.problems import (
    TodaState,
    example1,
    example2,
    example3,
    lv_exact,
    lv_random,
    lv_rhs,
    miura_to_lv,
    problem_from_name,
    toda_solve,
)
from desinc.solver import IVProblem
from desinc.special import Interval

from oracles import lax_matrix, lv_exact_mpmath, rk4, toda_rhs_check

PAPER_TODA = TodaState(q=np.array([3.0, 3.0]), e=np.array([1.0]))


def toda_ode_rhs(t, y):
    # flattened (q, e) Toda field, for the RK4 oracle
    m = (len(y) + 1) // 2
    q, e = y[:m], y[m:]
    e_pad = np.concatenate([[0.0], e, [0.0]])
    dq = e_pad[1:] - e_pad[:-1]
    de = e * (q[1:] - q[:-1])
    return np.concatenate([dq, de])


class TestExamples:
    @pytest.mark.parametrize("tp_factory", [example1, example2, example3])
    def test_exact_matches_initial_value(self, tp_factory):
        tp = tp_factory()
        assert np.allclose(tp.exact(tp.problem.iv.a), tp.problem.x_a, atol=1e-12)

    @pytest.mark.parametrize("tp_factory", [example1, example2, example3])
    def test_exact_satisfies_ode(self, tp_factory):
        tp = tp_factory()
        iv = tp.problem.iv
        rng = np.random.default_rng(11)
        step = 1e-6 * iv.length
        for t in rng.uniform(iv.a + 0.01, iv.b - 0.01, 20):
            fd = (tp.exact(t + step) - tp.exact(t - step)) / (2 * step)
            assert np.max(np.abs(fd - tp.problem.rhs(t, tp.exact(t)))) < 1e-7

    def test_example1_values(self):
        tp = example1()
        assert tp.exact(0.0)[0] == 1.0
        assert tp.exact(0.5)[0] == pytest.approx(math.exp(0.5), rel=1e-15)
        assert tp.problem.rhs(0.1, np.array([2.0]))[0] == 2.0
        assert (tp.problem.lip, tp.problem.bound_m, tp.problem.rho) == (1.0, 2.0, 1.0)

    def test_example2_spike_initial_value(self):
        tp = example2(11)
        x0 = tp.exact(0.0)
        expected = np.zeros(11)
        expected[5] = 1.0
        assert np.max(np.abs(x0 - expected)) < 1e-12

    def test_example2_matrix_norm_is_four(self):
        tp = example2(11)
        e = np.eye(11)
        a = np.column_stack([tp.problem.rhs(0.0, e[:, k]) for k in range(11)])
        assert np.max(np.sum(np.abs(a), axis=1)) == 4.0
        assert tp.problem.lip == 4.0

    def test_example2_against_rk4(self):
        tp = example2(11)
        ref = rk4(tp.problem.rhs, tp.problem.x_a, 0.0, 0.125, step=1e-5)
        assert np.max(np.abs(tp.exact(0.125) - ref)) < 1e-10

    @given(n=st.sampled_from([3, 11, 101]), seed=st.integers(0, 2**32 - 1))
    def test_example2_rhs_bits_of_matrix_product(self, n, seed):
        # the rhs is a.dot(x), which the solver calls on row views of its
        # state; it must round as a @ x did, or the solve CSVs would move
        tp = example2(n)
        e = np.eye(n)
        a = np.column_stack([tp.problem.rhs(0.0, e[:, k]) for k in range(n)])
        rng = np.random.default_rng(seed)
        state = rng.normal(size=(9, n)) * 10.0 ** rng.integers(-8, 8, size=(9, 1))
        for i in range(len(state)):
            assert np.array_equal((a @ state[i]).view(np.int64),
                                  tp.problem.rhs(0.0, state[i]).view(np.int64))

    def test_example2_rejects_even_n(self):
        with pytest.raises(ValueError):
            example2(10)

    def test_example3_initial_and_endpoint(self):
        tp = example3()
        assert np.allclose(tp.exact(0.0), [2.0, 0.5, 1.5], atol=0)
        x2 = 1.0 / (math.cosh(1.0) * (2.0 * math.cosh(1.0) + math.sinh(1.0)))
        assert np.allclose(
            tp.exact(1.0),
            [2.0 + math.tanh(1.0), x2, 2.0 - math.tanh(1.0) - x2],
            rtol=1e-15,
        )


class TestTodaRhsCheck:
    def test_hand_computed_two_site(self):
        assert toda_rhs_check(PAPER_TODA) == pytest.approx(0.0, abs=1e-14)
        # diagonal of [A, A_-] is (e_1, -e_1) = (1, -1) for q1 = q2
        a = lax_matrix(PAPER_TODA)
        a_minus = np.tril(a, k=-1)
        comm = a @ a_minus - a_minus @ a
        assert np.allclose(np.diag(comm), [1.0, -1.0], atol=0)

    def test_zero_e_gives_zero_commutator(self):
        s = TodaState(q=np.array([1.0, 2.0, 3.0]), e=np.zeros(2))
        assert toda_rhs_check(s) == 0.0

    def test_random_state_structure(self):
        rng = np.random.default_rng(9)
        s = TodaState(q=rng.normal(size=4), e=rng.uniform(0.5, 1.5, 3))
        assert toda_rhs_check(s) < 1e-14


class TestTodaSolve:
    def test_time_zero_is_identity(self):
        out = toda_solve(PAPER_TODA, 0.0)
        assert np.array_equal(out.q, PAPER_TODA.q)
        assert np.array_equal(out.e, PAPER_TODA.e)

    @pytest.mark.parametrize("e", [[0.5, 0.0], [-0.25, 0.5]])
    def test_rejects_nonpositive_e(self, e):
        # the symmetric frame of the Lax matrix takes sqrt(e)
        s0 = TodaState(q=np.array([3.0, 3.0, 3.0]), e=np.array(e))
        with pytest.raises(ValueError, match="e_k positive"):
            toda_solve(s0, 0.5)

    def test_paper_lax_exponential(self):
        # exp(A(0)) is the matrix toda_solve factors; the paper gives it in
        # closed form for the two-site lattice
        out = expm(lax_matrix(PAPER_TODA))
        e4, e2 = math.exp(4.0), math.exp(2.0)
        expected = 0.5 * np.array([[e4 + e2, e4 - e2], [e4 - e2, e4 + e2]])
        assert np.allclose(out, expected, rtol=1e-12)

    @pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
    def test_paper_closed_form(self, t):
        out = toda_solve(PAPER_TODA, t)
        assert out.q[0] == pytest.approx(3.0 + math.tanh(t), abs=1e-10)
        assert out.q[1] == pytest.approx(3.0 - math.tanh(t), abs=1e-10)
        assert out.e[0] == pytest.approx(1.0 / math.cosh(t) ** 2, abs=1e-10)

    def test_against_rk4(self):
        rng = np.random.default_rng(13)
        s0 = TodaState(q=rng.uniform(2.0, 4.0, 3), e=rng.uniform(0.5, 1.0, 2))
        t = 0.2
        y = rk4(toda_ode_rhs, np.concatenate([s0.q, s0.e]), 0.0, t, step=1e-4)
        out = toda_solve(s0, t)
        assert np.max(np.abs(np.concatenate([out.q, out.e]) - y)) < 1e-8

    @pytest.mark.parametrize("t", [0.25, 0.75, 1.5])
    def test_isospectral(self, t):
        rng = np.random.default_rng(21)
        s0 = TodaState(q=rng.uniform(2.0, 4.0, 4), e=rng.uniform(0.5, 1.0, 3))
        out = toda_solve(s0, t)
        ev0 = np.sort(np.linalg.eigvals(lax_matrix(s0)).real)
        evt = np.sort(np.linalg.eigvals(lax_matrix(out)).real)
        assert np.max(np.abs(ev0 - evt)) < 1e-10

    def test_large_time_raises_instead_of_a_negative_e(self):
        # exp(tJ) of lv_random(3, 3)'s state is no longer numerically
        # positive definite at t = 20; the LR loop returned e_2 = -1.9e-9
        # there, which the Toda flow cannot reach from e > 0
        rng = np.random.default_rng(3)  # the draw lv_random(3, 3) makes
        s0 = TodaState(q=rng.uniform(2.5, 3.5, 3), e=rng.uniform(0.25, 0.75, 2))
        with pytest.raises(ValueError):
            toda_solve(s0, 20.0)


    # a string time was read as a number, and a complex one raised TypeError
    @pytest.mark.parametrize("t", ["0.5", b"1", True, [True, False], [0.5j], {}], ids=repr)
    def test_rejects_time_not_real(self, t):
        with pytest.raises(ValueError, match="^t must be real, got "):
            toda_solve(PAPER_TODA, t)
        with pytest.raises(ValueError, match="^t must be real, got "):
            lv_exact(PAPER_TODA, t)


class TestMiura:
    def test_paper_initial_values(self):
        assert np.allclose(miura_to_lv(PAPER_TODA), [2.0, 0.5, 1.5], atol=0)

    def test_round_trip_rebuilds_state(self):
        rng = np.random.default_rng(17)
        s = TodaState(q=rng.uniform(2.5, 3.5, 3), e=rng.uniform(0.25, 0.75, 2))
        x = miura_to_lv(s)
        x_pad = np.concatenate([[0.0], x])
        q = np.array([1.0 + x_pad[2 * k - 2] + x_pad[2 * k - 1] for k in range(1, 4)])
        e = np.array([x_pad[2 * k - 1] * x_pad[2 * k] for k in range(1, 3)])
        assert np.allclose(q, s.q, rtol=1e-15)
        assert np.allclose(e, s.e, rtol=1e-15)

    def test_near_zero_pivot_rejected(self):
        s = TodaState(q=np.array([1.0, 3.0]), e=np.array([1.0]))  # x_1 = 0
        with pytest.raises(ValueError, match="^Miura map undefined: x_1 "):
            miura_to_lv(s)

    def test_near_zero_pivot_in_stack_reported(self):
        # x_3 = q_2 - e_1/(q_1 - 1) - 1 vanishes in the second state only
        q = np.array([[3.0, 3.0, 3.0], [3.0, 1.5, 3.0], [3.0, 3.0, 3.0]])
        s = TodaState(q=q, e=np.ones((3, 2)))
        with pytest.raises(ValueError) as err:
            miura_to_lv(s)
        assert str(err.value) == "Miura map undefined: x_3 = 0.000e+00 is too close to zero"

    def test_stack_equals_per_state(self):
        rng = np.random.default_rng(19)
        s = TodaState(q=rng.uniform(2.5, 3.5, (5, 4)), e=rng.uniform(0.25, 0.75, (5, 3)))
        x = miura_to_lv(s)
        assert x.shape == (5, 7)
        for k in range(5):
            assert np.array_equal(x[k], miura_to_lv(TodaState(q=s.q[k], e=s.e[k])))

    def test_mapped_trajectory_satisfies_lv(self):
        rng = np.random.default_rng(23)
        s0 = TodaState(q=rng.uniform(2.5, 3.5, 3), e=rng.uniform(0.25, 0.75, 2))
        step = 1e-6
        for t in (0.2, 0.5, 0.8):
            fd = (lv_exact(s0, t + step) - lv_exact(s0, t - step)) / (2 * step)
            x = lv_exact(s0, t)
            assert np.max(np.abs(fd - lv_rhs(t, x))) < 1e-7


class TestTodaStateStack:
    def test_size_is_last_axis_of_q(self):
        assert PAPER_TODA.m == 2
        assert TodaState(q=np.ones((5, 4)), e=np.ones((5, 3))).m == 4

    @pytest.mark.parametrize("q, e", [(3.0, np.ones(0)), (np.ones(3), np.ones(3)),
                                      (np.ones(0), np.ones(0))])
    def test_rejects_bad_shapes(self, q, e):
        with pytest.raises(ValueError):
            TodaState(q=q, e=e)

    def test_rejects_mismatched_stack(self):
        with pytest.raises(ValueError):
            TodaState(q=np.ones((3, 2)), e=np.ones((2, 1)))
        with pytest.raises(ValueError):
            TodaState(q=np.ones((3, 2)), e=np.ones(1))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["q", "e"])
    @pytest.mark.parametrize("stack", [(), (3,)], ids=["single", "stack"])
    def test_rejects_non_finite_entries(self, bad, field, stack):
        entries = {"q": np.full(stack + (3,), 3.0), "e": np.full(stack + (2,), 0.5)}
        entries[field][..., -1] = bad
        with pytest.raises(ValueError, match="state entries must be finite"):
            TodaState(**entries)

    # strings and bytes were read as numbers, and a dict or complex entry
    # raised numpy's TypeError
    @pytest.mark.parametrize("field, bad", [
        ("q", ["3", "3"]), ("q", [b"3", b"3"]), ("q", [True, True]), ("q", {}),
        ("q", [3.0, None]), ("q", [3.0, 2**70]), ("e", ["1"]), ("e", [1j]), ("e", [True]),
    ], ids=repr)
    def test_rejects_entries_not_real(self, field, bad):
        entries = {"q": [3.0, 3.0], "e": [1.0], field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be real, got "):
            TodaState(**entries)


def _exact_problems():
    return [example1(), example2(11), example3()] + [lv_random(3, seed) for seed in range(8)]


class TestBatchedExact:
    """exact(t) over an array of times against the scalar calls and the
    formulas it replaced."""

    @pytest.mark.parametrize("tp", _exact_problems(), ids=lambda tp: tp.name)
    def test_stack_equals_scalar_calls(self, tp):
        iv = tp.problem.iv
        # the grid holds nodes rounded onto both endpoints
        ts = np.concatenate([build_grid(iv, 64).t, [iv.a, iv.b, 0.5 * (iv.a + iv.b)]])
        stacked = tp.exact(ts)
        assert stacked.shape == (len(ts), tp.problem.x_a.size)
        scalar = np.array([tp.exact(float(t)) for t in ts])
        assert scalar.shape == stacked.shape
        assert np.array_equal(stacked, scalar)
        assert tp.exact(ts[:0]).shape == (0, tp.problem.x_a.size)

    # example1 took '0.5' for 0.5, and every exact took True for 1.0
    @pytest.mark.parametrize("t", ["0.5", b"1", True, [True, False], [0.5j], {}], ids=repr)
    @pytest.mark.parametrize("tp", _exact_problems()[:4], ids=lambda tp: tp.name)
    def test_rejects_time_not_real(self, tp, t):
        with pytest.raises(ValueError, match="^t must be real, got "):
            tp.exact(t)

    def test_example1_matches_math_exp(self):
        ts = np.random.default_rng(1).uniform(0.0, 0.5, 2000)
        expected = np.array([math.exp(t) for t in ts])
        assert np.all(np.abs(example1().exact(ts)[:, 0] - expected) <= np.spacing(expected))

    def test_example3_matches_math_formulas(self):
        ts = np.random.default_rng(2).uniform(0.0, 1.0, 2000)

        def formula(t):
            x2 = 1.0 / (math.cosh(t) * (2.0 * math.cosh(t) + math.sinh(t)))
            return [2.0 + math.tanh(t), x2, 2.0 - math.tanh(t) - x2]

        expected = np.array([formula(t) for t in ts])
        # numpy's cosh, sinh and tanh differ from math's by an ulp or two,
        # which the formula carries into every component: within 2 ulp of
        # the largest component (1.5 is the worst seen in 100000 draws)
        ulp = np.spacing(np.max(np.abs(expected), axis=1, keepdims=True))
        assert np.all(np.abs(example3().exact(ts) - expected) <= 2.0 * ulp)

    @pytest.mark.parametrize("seed", range(8))
    def test_lv_matches_per_time_pipeline(self, seed):
        tp = lv_random(3, seed)
        rng = np.random.default_rng(seed)  # the draw lv_random makes
        q0, e0 = rng.uniform(2.5, 3.5, 3), rng.uniform(0.25, 0.75, 2)
        ts = build_grid(tp.problem.iv, 64).t
        # the grid repeats its end times; each distinct one is solved once
        uts, where = np.unique(ts, return_inverse=True)
        expected = np.array([lv_exact_mpmath(q0, e0, t) for t in uts])[where]
        # the Miura recursion cancels, so small components carry the
        # absolute error of the large ones: ulps of the largest component
        ulp = np.spacing(np.max(np.abs(expected), axis=1, keepdims=True))
        assert np.all(np.abs(tp.exact(ts) - expected) <= 4.0 * ulp)

    @pytest.mark.parametrize("m", [2, 4, 5])
    @pytest.mark.parametrize("seed", range(8))
    def test_lv_matches_oracle_at_other_sizes(self, m, seed):
        # the Cholesky factor of exp(tJ) against the oracle's LR loop on
        # exp(tA); the LR loop it replaced reached 4 ulps here
        tp = lv_random(m, seed)
        rng = np.random.default_rng(seed)  # the draw lv_random makes
        q0, e0 = rng.uniform(2.5, 3.5, m), rng.uniform(0.25, 0.75, m - 1)
        ts = build_grid(tp.problem.iv, 64).t
        uts, where = np.unique(ts, return_inverse=True)
        expected = np.array([lv_exact_mpmath(q0, e0, t) for t in uts])[where]
        ulp = np.spacing(np.max(np.abs(expected), axis=1, keepdims=True))
        assert np.all(np.abs(tp.exact(ts) - expected) <= 5.0 * ulp)

    def test_lv_repeated_unsorted_times(self):
        # every repeat gets the same row as its own scalar call
        tp = lv_random(3, 5)
        ts = np.array([0.7, 0.0, 1.0, 0.7, 0.25, 1.0, 0.0, 0.7])
        scalar = np.array([tp.exact(float(t)) for t in ts])
        assert tp.exact(ts).tobytes() == scalar.tobytes()


class TestLvRhs:
    @given(x=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=9))
    def test_matches_concatenate_formula(self, x):
        x = np.array(x)
        up = np.concatenate([x[1:], [0.0]])
        down = np.concatenate([[0.0], x[:-1]])
        assert lv_rhs(0.0, x).tobytes() == (x * (up - down)).tobytes()

    def test_single_species_field_is_zero(self):
        assert np.array_equal(lv_rhs(0.0, np.array([1.7])), [0.0])


class TestLvExact:
    def test_paper_state_at_zero(self):
        assert np.allclose(lv_exact(PAPER_TODA, 0.0), [2.0, 0.5, 1.5], atol=0)

    def test_matches_example3_closed_form(self):
        tp = example3()
        for t in (0.1, 0.7, 1.0):
            assert np.max(np.abs(lv_exact(PAPER_TODA, t) - tp.exact(t))) < 1e-12

    def test_matches_rk4_for_three_sites(self):
        rng = np.random.default_rng(29)
        s0 = TodaState(q=rng.uniform(2.5, 3.5, 3), e=rng.uniform(0.25, 0.75, 2))
        x0 = miura_to_lv(s0)
        t = 0.5
        ref = rk4(lv_rhs, x0, 0.0, t, step=1e-4)
        assert np.max(np.abs(lv_exact(s0, t) - ref)) < 1e-7

    @pytest.mark.parametrize("t", [0.3, np.array(0.3), np.array([0.3, 0.0, 0.3])])
    def test_shape_follows_t(self, t):
        assert lv_random(3).exact(t).shape == np.shape(t) + (5,)


class TestProblemFromName:
    def test_known_names(self):
        assert problem_from_name("example1").name == "example1"
        assert problem_from_name("example2:n=11").problem.x_a.size == 11
        assert problem_from_name("example3").problem.x_a.size == 3
        tp = problem_from_name("lv:m=3:seed=7")
        assert tp.problem.x_a.size == 5
        assert np.allclose(tp.exact(0.0), tp.problem.x_a, atol=1e-14)

    def test_lv_reproducible(self):
        a = lv_random(3, seed=4)
        b = lv_random(3, seed=4)
        assert np.array_equal(a.problem.x_a, b.problem.x_a)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            problem_from_name("example9")
        with pytest.raises(ValueError):
            problem_from_name("example2:n")

    @pytest.mark.parametrize("spec", ["lv:x=3", "example2:m=3", "lv", "example1:n=3"])
    def test_rejects_parameters_the_problem_does_not_take(self, spec):
        with pytest.raises(ValueError, match=re.escape(repr(spec))):
            problem_from_name(spec)

    def test_type_error_inside_factory_not_masked(self, monkeypatch):
        def broken(n: int = 11):
            raise TypeError("inside the factory")

        monkeypatch.setitem(problems._FACTORIES, "example2", broken)
        with pytest.raises(TypeError, match="inside the factory"):
            problem_from_name("example2:n=5")

    def test_pivot_in_lv_spec_is_a_bad_parameter(self, monkeypatch):
        # a problem whose state hits a zero pivot is a bad value like any
        # other, so problem_from_name names the spec, where
        # the old MiuraPivotError, a RuntimeError, passed through
        def pivot(m):
            return miura_to_lv(TodaState(q=np.array([1.0, 3.0]), e=np.array([1.0])))

        monkeypatch.setitem(problems._FACTORIES, "lv", pivot)
        with pytest.raises(ValueError, match=r"^bad parameters in problem 'lv:m=2': Miura map"):
            problem_from_name("lv:m=2")


@pytest.mark.parametrize("name, call", [
    ("x_a", lambda v: IVProblem(rhs=lambda t, x: x, x_a=v, iv=Interval(0.0, 1.0))),
    ("q", lambda v: TodaState(q=v, e=[1.0])),
    ("t", lambda v: example1().exact(v)),
    ("t", lambda v: toda_solve(PAPER_TODA, v)),
], ids=["x_a", "q", "exact-t", "toda-t"])
def test_ragged_nested_list_rejected_by_name(name, call):
    # numpy's "setting an array element with a sequence" named no parameter
    ragged = [[0.1], [0.1, 0.2]]
    with pytest.raises(ValueError) as err:
        call(ragged)
    assert str(err.value) == f"{name} must be real, got {ragged!r}"
