import math

import numpy as np
import pytest

from desinc.analysis import mgs_norm_exact
from desinc.grid import build_grid
from desinc.problems import example1, example2, example3
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
from desinc.weights import WeightMatrix, build_weights, split

from oracles import gauss_seidel_sweep_naive


def zero_problem(n=2):
    return IVProblem(n=n, rhs=lambda t, x: np.zeros(n), x_a=np.arange(1.0, n + 1.0),
                     iv=Interval(0.0, 1.0))


class TestJacobiSweep:
    def test_zero_rhs_maps_to_initial_value(self):
        prob = zero_problem()
        g = build_grid(prob.iv, 4)
        wm = build_weights(g)
        cur = np.random.default_rng(0).normal(size=(g.m, prob.n))
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


class TestGaussSeidelSweep:
    def test_zero_rhs(self):
        prob = zero_problem()
        g = build_grid(prob.iv, 3)
        wm = build_weights(g)
        state = np.random.default_rng(1).normal(size=(g.m, prob.n))
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
        # from one Jacobi sweep exactly by the lower-triangle coupling
        w = np.array([[0.2, 0.05], [0.3, 0.25]])

        class FakeGrid:
            m = 2
            N = 0
            t = np.array([0.3, 0.7])

        wm = WeightMatrix(m=2, w=w, grid=FakeGrid())
        prob = IVProblem(n=1, rhs=lambda t, x: x, x_a=np.array([1.0]),
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

        prob = IVProblem(n=1, rhs=bad_rhs, x_a=np.array([1.0]), iv=Interval(0.0, 1.0))
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
        rate = mgs_norm_exact(split(wm), tp.problem.lip)
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

        prob = IVProblem(n=1, rhs=rhs, x_a=np.array([1.0]), iv=Interval(0.0, 1.0))
        g = build_grid(prob.iv, 16)
        with pytest.raises(NotConvergedError) as err:
            solve(prob, g, method=method, tol=1e-14, max_sweeps=50)
        assert len(err.value.trace.z_norms) == 1
        assert math.isnan(err.value.trace.z_norms[0])
        assert len(calls) <= 2 * g.m

    def test_rejects_bad_arguments(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 4)
        with pytest.raises(ValueError):
            solve(tp.problem, g, method="sor")
        with pytest.raises(ValueError):
            solve(tp.problem, g, tol=-1.0)
        with pytest.raises(ValueError):
            solve(tp.problem, g, max_sweeps=0)


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
