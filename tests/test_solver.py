import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desinc.analysis import mgs_norm_exact
from desinc.grid import build_grid
from desinc.problems import example1, example2, example3, lv_rhs
from desinc.solver import (
    IVProblem,
    NotConvergedError,
    RhsEvaluationError,
    evaluate,
    gauss_seidel_sweep,
    jacobi_sweep,
    reference_solution,
    solve,
)
from desinc.special import Interval
from desinc.weights import WeightMatrix, build_weights

from oracles import gauss_seidel_row_naive, gauss_seidel_sweep_naive


def zero_problem(n=2):
    return IVProblem(rhs=lambda t, x: np.zeros(n), x_a=np.arange(1.0, n + 1.0),
                     iv=Interval(0.0, 1.0))


class TestIVProblem:
    def test_dimension_is_x_a_size(self):
        assert IVProblem(rhs=lv_rhs, x_a=2.0, iv=Interval(0.0, 1.0)).x_a.shape == (1,)
        assert zero_problem(3).x_a.size == 3

    @pytest.mark.parametrize("x_a", [np.ones((2, 2)), np.ones((1, 3))])
    def test_rejects_x_a_not_1d(self, x_a):
        with pytest.raises(ValueError, match="1-D"):
            IVProblem(rhs=lv_rhs, x_a=x_a, iv=Interval(0.0, 1.0))

    # lip=-5, bound_m=-1 made check_assumptions report cond_lbound_ok, and
    # lip=nan, rho=inf made it report cond_iii_ok
    @pytest.mark.parametrize("consts", [
        {"lip": -5.0, "bound_m": -1.0},
        {"lip": math.nan, "rho": math.inf},
        {"lip": 0.0},
        {"bound_m": math.inf},
        {"rho": -0.5},
        {"rho": math.nan},
    ])
    def test_rejects_constant_not_positive_finite(self, consts):
        with pytest.raises(ValueError, match="positive and finite"):
            IVProblem(rhs=lv_rhs, x_a=1.0, iv=Interval(0.0, 1.0), **consts)


class TestJacobiSweep:
    def test_zero_rhs_maps_to_initial_value(self):
        prob = zero_problem()
        g = build_grid(prob.iv, 4)
        wm = build_weights(g)
        cur = np.random.default_rng(0).normal(size=(g.m, prob.x_a.size))
        out = jacobi_sweep(prob, wm, cur)
        assert np.allclose(out, prob.x_a, atol=0)

    def test_linear_growth_from_ones(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 4)
        wm = build_weights(g)
        cur = np.ones((g.m, 1))
        out = jacobi_sweep(tp.problem, wm, cur)
        # rhs = x = 1 at every node, so node i becomes 1 + sum_j w_ij
        expected = 1.0 + wm.w.sum(axis=1)
        assert np.allclose(out[:, 0], expected, rtol=1e-15)

    def test_fixed_point_satisfies_collocation_system(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 16)
        wm = build_weights(g)
        sol, _ = solve(tp.problem, g, tol=1e-15, wm=wm)
        after = jacobi_sweep(tp.problem, wm, sol.x_nodes)
        assert np.max(np.abs(after - sol.x_nodes)) < 1e-14

    def test_rhs_cache_follows_returned_state(self):
        tp = example3()
        g = build_grid(tp.problem.iv, 8)
        wm = build_weights(g)
        state = np.tile(tp.problem.x_a, (g.m, 1))
        fvals = np.array([tp.problem.rhs(t, x) for t, x in zip(g.t, state)])
        before = state.copy()
        out = jacobi_sweep(tp.problem, wm, state, fvals)
        assert out is not state and np.array_equal(state, before)
        assert np.array_equal(fvals, [tp.problem.rhs(t, x) for t, x in zip(g.t, out)])


class TestGaussSeidelSweep:
    def test_zero_rhs(self):
        prob = zero_problem()
        g = build_grid(prob.iv, 3)
        wm = build_weights(g)
        state = np.random.default_rng(1).normal(size=(g.m, prob.x_a.size))
        out = gauss_seidel_sweep(prob, wm, state)
        assert np.allclose(out, prob.x_a, atol=0)

    def test_matches_double_loop_oracle(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 2)
        wm = build_weights(g)
        state = np.tile(tp.problem.x_a, (g.m, 1))
        expected = gauss_seidel_sweep_naive(
            tp.problem.x_a, wm.w, g.t, tp.problem.rhs, state.copy()
        )
        out = gauss_seidel_sweep(tp.problem, wm, state.copy())
        assert np.max(np.abs(out - expected)) < 1e-15

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(2, 24),
           n=st.integers(1, 4),
           field=st.sampled_from(["linear", "lv"]),
           length=st.floats(0.05, 2.0),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_double_loop_oracle_random(self, N, n, field, length, seed):
        rng = np.random.default_rng(seed)
        if field == "linear":
            a = rng.uniform(-1.0, 1.0, (n, n))
            rhs = lambda t, x: a @ x
        else:
            rhs = lv_rhs
        prob = IVProblem(rhs=rhs, x_a=rng.uniform(-1.0, 1.0, n),
                         iv=Interval(0.0, length))
        g = build_grid(prob.iv, N)
        wm = build_weights(g)
        state = rng.uniform(-2.0, 2.0, (g.m, n))
        before = state.copy()
        fvals = np.array([rhs(t, x) for t, x in zip(g.t, state)])
        out = gauss_seidel_sweep(prob, wm, state, fvals)
        assert out is state
        # Each row is checked against the literal update at the sweep's own
        # earlier rows.  Whole sweeps would also differ by the rounding
        # carried from row to row, which the quadratic lv field amplifies
        # (to 1.4e-13 relative at N=10, length 2, where the rows reach 1e34)
        # until the sweep overflows; overflowed rows must overflow in both.
        expected = np.array([gauss_seidel_row_naive(prob.x_a, wm.w, g.t, rhs, out, before, i)
                             for i in range(g.m)])
        finite = np.isfinite(expected).all(axis=1)
        assert np.array_equal(np.isfinite(out).all(axis=1), finite)
        # the oracle sums term by term, the sweep by a dot product
        err = np.abs(out[finite] - expected[finite])
        scale = max(1.0, np.max(np.abs(expected[finite]), initial=0.0))
        assert np.max(err, initial=0.0) <= 1e-13 * scale
        assert np.array_equal(fvals, [rhs(t, x) for t, x in zip(g.t, out)], equal_nan=True)

    def test_ascending_order_is_load_bearing(self):
        # updating in descending order must give a different sweep result
        tp = example1()
        g = build_grid(tp.problem.iv, 2)
        wm = build_weights(g)
        state0 = np.full((g.m, 1), 1.0)
        ascending = gauss_seidel_sweep(tp.problem, wm, state0.copy())

        state = state0.copy()
        fvals = np.array([tp.problem.rhs(t, state[k]) for k, t in enumerate(g.t)])
        for i in reversed(range(g.m)):
            state[i] = tp.problem.x_a + wm.w[i] @ fvals
            fvals[i] = tp.problem.rhs(g.t[i], state[i])
        assert np.max(np.abs(ascending - state)) > 1e-6

    def test_two_node_linear_coupling_term(self):
        # on a synthetic 2-node system with rhs = x, one GS sweep differs
        # from one Jacobi sweep exactly by the lower-triangle coupling.
        # Generator (p_-1, p_0, p_1) = (0.2, 1, 1.5) and phi' = (0.2, 0.25)
        # give w = [[0.2, 0.05], [0.3, 0.25]].
        class FakeGrid:
            m = 2
            N = 0
            t = np.array([0.3, 0.7])
            dphi = np.array([0.2, 0.25])

        wm = WeightMatrix(grid=FakeGrid(), gen=np.array([0.2, 1.0, 1.5]))
        w = wm.w
        assert np.allclose(w, [[0.2, 0.05], [0.3, 0.25]], rtol=1e-15, atol=0)
        prob = IVProblem(rhs=lambda t, x: x, x_a=np.array([1.0]),
                         iv=Interval(0.0, 1.0))
        u, v = 1.3, 0.8
        state = np.array([[u], [v]])
        jac = jacobi_sweep(prob, wm, state.copy())
        gs = gauss_seidel_sweep(prob, wm, state.copy())
        assert gs[0, 0] == jac[0, 0]
        assert gs[1, 0] - jac[1, 0] == pytest.approx(w[1, 0] * (jac[0, 0] - u), rel=1e-14)

    def test_rhs_failure_carries_node_index(self):
        def bad_rhs(t, x):
            if t > 0.4:
                raise FloatingPointError("boom")
            return x

        prob = IVProblem(rhs=bad_rhs, x_a=np.array([1.0]), iv=Interval(0.0, 1.0))
        g = build_grid(prob.iv, 4)
        wm = build_weights(g)
        with pytest.raises(RhsEvaluationError) as err:
            gauss_seidel_sweep(prob, wm, np.ones((g.m, 1)))
        assert err.value.t > 0.4
        assert "node" in str(err.value)


class TestSolve:
    def test_zero_rhs_converges_in_one_sweep(self):
        prob = zero_problem()
        g = build_grid(prob.iv, 4)
        sol, trace = solve(prob, g, tol=1e-15)
        assert trace.converged
        assert trace.z_norms == [0.0]
        assert np.allclose(sol.x_nodes, prob.x_a, atol=0)

    def test_example1_converges_fast(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 64)
        sol, trace = solve(tp.problem, g, tol=1e-15)
        assert trace.converged
        # roughly two orders of magnitude per sweep
        for a, b in zip(trace.z_norms[1:], trace.z_norms[2:-1]):
            assert b <= 0.05 * a

    def test_jacobi_needs_more_sweeps_than_gs(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 64)
        _, gs = solve(tp.problem, g, method="gauss_seidel", tol=1e-14)
        _, jac = solve(tp.problem, g, method="jacobi", tol=1e-14, max_sweeps=200)
        assert len(gs.z_norms) < len(jac.z_norms)

    def test_contraction_bounded_by_comparison_matrix_norm(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 32)
        wm = build_weights(g)
        rate = mgs_norm_exact(wm, tp.problem.lip)
        _, trace = solve(tp.problem, g, tol=1e-13, wm=wm)
        z = trace.z_norms
        for a, b in zip(z[1:], z[2:]):
            assert b <= rate * a + 1e-16

    def test_iterates_stay_in_ball(self):
        tp = example1()  # rho = 1 around x_a = 1
        g = build_grid(tp.problem.iv, 32)
        _, trace = solve(tp.problem, g, tol=1e-14, store_iterates=True)
        for it in trace.iterates:
            assert np.max(np.abs(it - tp.problem.x_a)) <= tp.problem.rho

    def test_dimension_independent_z_norms(self):
        traces = []
        for n in (11, 101):
            tp = example2(n)
            g = build_grid(tp.problem.iv, 32)
            _, trace = solve(tp.problem, g, tol=1e-14)
            traces.append(trace.z_norms)
        assert len(traces[0]) == len(traces[1])
        for a, b in zip(*traces):
            assert a == pytest.approx(b, abs=1e-12)

    def test_not_converged_carries_trace_and_solution(self):
        tp = example3()
        g = build_grid(tp.problem.iv, 16)
        with pytest.raises(NotConvergedError) as err:
            solve(tp.problem, g, tol=1e-14, max_sweeps=2)
        assert len(err.value.trace.z_norms) == 2
        assert err.value.solution.x_nodes.shape == (g.m, 3)

    @pytest.mark.parametrize("method", ["gauss_seidel", "jacobi"])
    def test_non_finite_rhs_stops_at_first_sweep(self, method):
        calls = []

        def rhs(t, x):
            calls.append(t)
            return x if t <= 0.4 else np.full_like(x, np.nan)

        prob = IVProblem(rhs=rhs, x_a=np.array([1.0]), iv=Interval(0.0, 1.0))
        g = build_grid(prob.iv, 16)
        with pytest.raises(NotConvergedError) as err:
            solve(prob, g, method=method, tol=1e-14, max_sweeps=50)
        assert len(err.value.trace.z_norms) == 1
        assert math.isnan(err.value.trace.z_norms[0])
        assert len(calls) <= 2 * g.m

    @pytest.mark.parametrize("method", ["gauss_seidel", "jacobi"])
    def test_infinite_rhs_stops_at_first_sweep(self, method):
        # the Jacobi product is an FFT, which spreads one inf into NaN in
        # every row; the iteration must still stop after the first sweep
        calls = []

        def rhs(t, x):
            calls.append(t)
            return x if t <= 0.4 else np.full_like(x, np.inf)

        prob = IVProblem(rhs=rhs, x_a=np.array([1.0]), iv=Interval(0.0, 1.0))
        g = build_grid(prob.iv, 16)
        with pytest.raises(NotConvergedError) as err:
            solve(prob, g, method=method, tol=1e-14, max_sweeps=50)
        assert len(err.value.trace.z_norms) == 1
        assert not math.isfinite(err.value.trace.z_norms[0])
        assert len(calls) <= 2 * g.m

    def test_jacobi_solve_forms_no_dense_weights(self):
        tp = example3()
        g = build_grid(tp.problem.iv, 64)
        wm = build_weights(g)
        solve(tp.problem, g, method="jacobi", wm=wm)
        assert "w" not in wm.__dict__

    @pytest.mark.parametrize("method", ["gauss_seidel", "jacobi"])
    def test_f_nodes_are_rhs_at_x_nodes(self, method):
        tp = example3()
        g = build_grid(tp.problem.iv, 16)
        sol, _ = solve(tp.problem, g, method=method, tol=0.0, max_sweeps=4)
        expected = [tp.problem.rhs(t, x) for t, x in zip(g.t, sol.x_nodes)]
        assert np.array_equal(sol.f_nodes, expected)

    @pytest.mark.parametrize("stage", ["initial", "gauss_seidel", "jacobi"])
    def test_wrong_length_rhs_carries_node(self, stage):
        # from t = 0.4 on the rhs returns two values for a one-dimensional
        # problem, which cannot be stored in the node row
        def rhs(t, x):
            return x if t <= 0.4 else np.ones(2)

        prob = IVProblem(rhs=rhs, x_a=np.array([1.0]), iv=Interval(0.0, 1.0))
        g = build_grid(prob.iv, 8)
        wm = build_weights(g)
        with pytest.raises(RhsEvaluationError) as err:
            if stage == "initial":
                solve(prob, g, wm=wm)
            else:
                sweep = gauss_seidel_sweep if stage == "gauss_seidel" else jacobi_sweep
                sweep(prob, wm, np.ones((g.m, 1)), np.ones((g.m, 1)))
        k = int(np.argmax(g.t > 0.4))
        assert (err.value.node, err.value.t) == (k - g.N, g.t[k])
        assert isinstance(err.value.__cause__, ValueError)
        # solve reports its evaluation at the initial guess as sweep 0; a
        # sweep called directly knows no sweep number
        assert err.value.sweep == (0 if stage == "initial" else None)
        assert ("sweep 0" in str(err.value)) == (stage == "initial")

    @pytest.mark.parametrize("method", ["gauss_seidel", "jacobi"])
    def test_rhs_failure_names_sweep(self, method):
        # every sweep evaluates the rhs once per node, after the m
        # evaluations at the initial guess: call 3m + 5 is node 5 of sweep 3
        prob0 = example1().problem
        g = build_grid(prob0.iv, 8)
        calls = []

        def rhs(t, x):
            if len(calls) == 3 * g.m + 5:
                raise FloatingPointError("boom")
            calls.append(t)
            return x

        prob = dataclasses.replace(prob0, rhs=rhs)
        with pytest.raises(RhsEvaluationError) as err:
            solve(prob, g, method=method, tol=0.0, max_sweeps=10)
        assert (err.value.sweep, err.value.node, err.value.t) == (3, 5 - g.N, g.t[5])
        assert f"sweep 3, node {5 - g.N} (t = {g.t[5]}): boom" in str(err.value)

    @pytest.mark.parametrize("stage", ["initial", "gauss_seidel", "jacobi"])
    def test_short_rhs_result_rejected(self, stage):
        # one value for a three-dimensional problem would broadcast across
        # the node row and give a wrong solution that reports converged
        prob = IVProblem(rhs=lambda t, x: np.array([x.sum()]),
                         x_a=np.array([1.0, 2.0, 3.0]), iv=Interval(0.0, 1.0))
        g = build_grid(prob.iv, 8)
        wm = build_weights(g)
        with pytest.raises(RhsEvaluationError) as err:
            if stage == "initial":
                solve(prob, g, wm=wm)
            else:
                sweep = gauss_seidel_sweep if stage == "gauss_seidel" else jacobi_sweep
                sweep(prob, wm, np.ones((g.m, 3)))
        assert (err.value.node, err.value.t) == (-g.N, g.t[0])
        assert isinstance(err.value.__cause__, ValueError)
        assert "(1,)" in str(err.value)

    def test_rejects_bad_arguments(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 4)
        with pytest.raises(ValueError):
            solve(tp.problem, g, method="sor")
        with pytest.raises(ValueError):
            solve(tp.problem, g, tol=-1.0)
        with pytest.raises(ValueError):
            solve(tp.problem, g, max_sweeps=0)

    @pytest.mark.parametrize("iv, N, h", [
        pytest.param(Interval(0.0, 0.5), 16, 0.5, id="h"),
        pytest.param(Interval(0.0, 0.5), 17, None, id="N"),
        pytest.param(Interval(0.0, 1.0), 16, None, id="interval"),
    ])
    def test_rejects_weights_of_another_grid(self, iv, N, h):
        # with the weights of h = 0.5 on the default-step grid, example1 at
        # N = 16 reported converged with E1 = 0.172 instead of 6e-11
        tp = example1()
        g = build_grid(tp.problem.iv, 16)
        wm = build_weights(build_grid(iv, N, h))
        with pytest.raises(ValueError, match="different grid"):
            solve(tp.problem, g, wm=wm)
        with pytest.raises(ValueError, match="different grid"):
            reference_solution(tp.problem, g, wm=wm)

    def test_accepts_weights_of_identical_rebuilt_grid(self):
        tp = example1()
        wm = build_weights(build_grid(tp.problem.iv, 16))
        sol, _ = solve(tp.problem, build_grid(tp.problem.iv, 16), wm=wm)
        assert np.max(np.abs(sol.x_nodes - tp.exact(sol.grid.t))) < 1e-9

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_rejects_non_finite_tol(self, tol):
        # NaN would compare false with every z and inf would accept the
        # first sweep
        tp = example1()
        g = build_grid(tp.problem.iv, 4)
        with pytest.raises(ValueError, match="finite"):
            solve(tp.problem, g, tol=tol)


class TestEvaluate:
    def test_zero_rhs_constant(self):
        prob = zero_problem()
        g = build_grid(prob.iv, 4)
        sol, _ = solve(prob, g, tol=1e-15)
        for t in (0.0, 0.37, 1.0):
            assert np.allclose(evaluate(sol, t), prob.x_a, atol=1e-15)

    def test_consistent_with_node_values(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 32)
        sol, _ = solve(tp.problem, g, tol=1e-15)
        for k in (0, 10, 32, 50, 64):
            assert np.allclose(evaluate(sol, g.t[k]), sol.x_nodes[k], atol=1e-12)

    def test_example1_off_node_accuracy(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 64)
        sol, _ = solve(tp.problem, g, tol=1e-15)
        assert evaluate(sol, 0.25)[0] == pytest.approx(math.exp(0.25), abs=1e-10)

    def test_rejects_outside_interval(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 4)
        sol, _ = solve(tp.problem, g, tol=1e-12)
        with pytest.raises(ValueError):
            evaluate(sol, 0.6)


class TestReferenceSolution:
    def test_zero_rhs(self):
        prob = zero_problem()
        g = build_grid(prob.iv, 4)
        ref = reference_solution(prob, g)
        assert np.allclose(ref.x_nodes, prob.x_a, atol=0)

    def test_eleventh_sweep_changes_little(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 64)
        wm = build_weights(g)
        ref = reference_solution(tp.problem, g, wm=wm)
        after = gauss_seidel_sweep(tp.problem, wm, ref.x_nodes.copy())
        assert np.max(np.abs(after - ref.x_nodes)) < 1e-14

    def test_matches_tight_solve(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 64)
        ref = reference_solution(tp.problem, g)
        sol, _ = solve(tp.problem, g, tol=1e-15, max_sweeps=50)
        assert np.max(np.abs(ref.x_nodes - sol.x_nodes)) < 1e-13
