import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from desinc.analysis import mgs_norm_exact
from desinc.grid import build_grid
from desinc import solver
from desinc.problems import example1, example2, example3, lv_rhs, problem_from_name
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

from oracles import (dense_weights, gauss_seidel_row_naive, gauss_seidel_sweep_naive,
                     gauss_seidel_sweep_rowdot)


def zero_problem(n=2):
    return IVProblem(rhs=lambda t, x: np.zeros(n), x_a=np.arange(1.0, n + 1.0),
                     iv=Interval(0.0, 1.0))


def rhs_at(prob, t, state):
    """The rhs cache a sweep takes: the rhs at every row of state."""
    return np.array([prob.rhs(tk, x) for tk, x in zip(t, state)], dtype=float)


class TestIVProblem:
    def test_dimension_is_x_a_size(self):
        assert IVProblem(rhs=lv_rhs, x_a=2.0, iv=Interval(0.0, 1.0)).x_a.shape == (1,)
        assert zero_problem(3).x_a.size == 3

    @pytest.mark.parametrize("x_a", [np.ones((2, 2)), np.ones((1, 3))])
    def test_rejects_x_a_not_1d(self, x_a):
        with pytest.raises(ValueError, match="1-D"):
            IVProblem(rhs=lv_rhs, x_a=x_a, iv=Interval(0.0, 1.0))

    # an empty x_a failed inside solve with numpy's "zero-size array to
    # reduction operation maximum", [nan] ran one sweep and then raised
    # NotConvergedError, and [1+1j] was kept as [1.] with a ComplexWarning
    @pytest.mark.parametrize("x_a", [np.array([]), [], [math.nan], [1.0, math.inf], -math.inf,
                                     [1 + 1j], np.array([1.0, 2.0], dtype=complex)])
    def test_rejects_x_a_empty_or_not_finite(self, x_a):
        with pytest.raises(ValueError, match="x_a"):
            IVProblem(rhs=lv_rhs, x_a=x_a, iv=Interval(0.0, 1.0))

    # an array and a list of the same values both read "got [nan]"
    @pytest.mark.parametrize("x_a, message", [
        ([math.nan], "x_a must be finite, got [nan]"),
        (np.array([math.nan]), "x_a must be finite, got array([nan])"),
        (np.array([1 + 1j]), "x_a must be real, got array([1.+1.j])"),
    ])
    def test_rejected_x_a_shown_with_repr(self, x_a, message):
        with pytest.raises(ValueError) as err:
            IVProblem(rhs=lv_rhs, x_a=x_a, iv=Interval(0.0, 1.0))
        assert str(err.value) == message

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
        state = np.random.default_rng(0).normal(size=(g.m, prob.x_a.size))
        jacobi_sweep(prob, wm, state, rhs_at(prob, g.t, state))
        assert np.allclose(state, prob.x_a, atol=0)

    def test_linear_growth_from_ones(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 4)
        wm = build_weights(g)
        state = np.ones((g.m, 1))
        jacobi_sweep(tp.problem, wm, state, rhs_at(tp.problem, g.t, state))
        # rhs = x = 1 at every node, so node i becomes 1 + sum_j w_ij
        expected = 1.0 + dense_weights(wm).sum(axis=1)
        assert np.allclose(state[:, 0], expected, rtol=1e-15)

    def test_fixed_point_satisfies_collocation_system(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 16)
        wm = build_weights(g)
        sol, _ = solve(tp.problem, g, tol=1e-15)
        after = sol.x_nodes.copy()
        jacobi_sweep(tp.problem, wm, after, sol.f_nodes.copy())
        assert np.max(np.abs(after - sol.x_nodes)) < 1e-14

    def test_updates_state_and_rhs_cache_in_place(self):
        tp = example3()
        g = build_grid(tp.problem.iv, 8)
        wm = build_weights(g)
        state = np.tile(tp.problem.x_a, (g.m, 1))
        fvals = rhs_at(tp.problem, g.t, state)
        expected = tp.problem.x_a + wm.matmul(fvals)
        assert jacobi_sweep(tp.problem, wm, state, fvals) is None
        assert np.array_equal(state, expected)
        assert np.array_equal(fvals, rhs_at(tp.problem, g.t, state))


class TestGaussSeidelSweep:
    def test_zero_rhs(self):
        prob = zero_problem()
        g = build_grid(prob.iv, 3)
        wm = build_weights(g)
        state = np.random.default_rng(1).normal(size=(g.m, prob.x_a.size))
        gauss_seidel_sweep(prob, wm, state, rhs_at(prob, g.t, state))
        assert np.allclose(state, prob.x_a, atol=0)

    def test_matches_double_loop_oracle(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 2)
        wm = build_weights(g)
        state = np.tile(tp.problem.x_a, (g.m, 1))
        expected = gauss_seidel_sweep_naive(
            tp.problem.x_a, dense_weights(wm), g.t, tp.problem.rhs, state.copy()
        )
        gauss_seidel_sweep(tp.problem, wm, state, rhs_at(tp.problem, g.t, state))
        assert np.max(np.abs(state - expected)) < 1e-15

    @settings(max_examples=40, deadline=None)
    @given(N=st.integers(2, 40),
           n=st.integers(1, 4),
           field=st.sampled_from(["linear", "lv"]),
           length=st.floats(0.05, 2.0),
           seed=st.integers(0, 2**32 - 1))
    @example(N=21, n=4, field="lv", length=2.0, seed=1)
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
        # Each row is checked against the literal update at the sweep's own
        # earlier rows.  Whole sweeps would also differ by the rounding
        # carried from row to row, which the quadratic lv field amplifies
        # (to 1.4e-13 relative at N=10, length 2, where the rows reach 1e34)
        # until the sweep overflows; overflowed rows must overflow in both,
        # so here overflow is expected and raises no warning (the explicit
        # example overflows at node 18).
        with np.errstate(over="ignore", invalid="ignore"):
            assert gauss_seidel_sweep(prob, wm, state, fvals) is None
            out = state
            w = dense_weights(wm)
            expected = np.array([gauss_seidel_row_naive(prob.x_a, w, g.t, rhs, out, before, i)
                                 for i in range(g.m)])
            refilled = [rhs(t, x) for t, x in zip(g.t, out)]
        finite = np.isfinite(expected).all(axis=1)
        assert np.array_equal(np.isfinite(out).all(axis=1), finite)
        # the oracle sums term by term, the sweep per block and per node
        err = np.abs(out[finite] - expected[finite])
        scale = max(1.0, np.max(np.abs(expected[finite]), initial=0.0))
        assert np.max(err, initial=0.0) <= 1e-13 * scale
        assert np.array_equal(fvals, refilled, equal_nan=True)

    # m = 31, 33, 63, 65, 97 and 201: one node short of a block edge, one
    # past it, and more than one block
    @pytest.mark.parametrize("N", [15, 16, 31, 32, 48, 100])
    @pytest.mark.parametrize("spec", ["example2:n=11", "lv:m=3:seed=0"])
    def test_block_edges_match_rowdot_oracle(self, N, spec):
        prob = problem_from_name(spec).problem
        g = build_grid(prob.iv, N)
        wm = build_weights(g)
        rng = np.random.default_rng(N)
        state = prob.x_a * rng.uniform(0.5, 1.5, (g.m, prob.x_a.size))
        fvals = np.array([prob.rhs(t, x) for t, x in zip(g.t, state)])
        expected = state.copy()
        gauss_seidel_sweep_rowdot(prob, wm, expected, fvals.copy())
        gauss_seidel_sweep(prob, wm, state, fvals)
        eps = np.finfo(float).eps
        assert np.all(np.abs(state - expected) <= 4 * eps * np.maximum(1.0, np.abs(expected)))
        assert np.array_equal(fvals, rhs_at(prob, g.t, state))

    def test_ascending_order_is_load_bearing(self):
        # updating in descending order must give a different sweep result
        tp = example1()
        g = build_grid(tp.problem.iv, 2)
        wm = build_weights(g)
        state0 = np.full((g.m, 1), 1.0)
        ascending = state0.copy()
        gauss_seidel_sweep(tp.problem, wm, ascending, rhs_at(tp.problem, g.t, ascending))

        state = state0.copy()
        fvals = np.array([tp.problem.rhs(t, state[k]) for k, t in enumerate(g.t)])
        for i in reversed(range(g.m)):
            state[i] = tp.problem.x_a + dense_weights(wm)[i] @ fvals
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
        w = dense_weights(wm)
        assert np.allclose(w, [[0.2, 0.05], [0.3, 0.25]], rtol=1e-15, atol=0)
        prob = IVProblem(rhs=lambda t, x: x, x_a=np.array([1.0]),
                         iv=Interval(0.0, 1.0))
        u, v = 1.3, 0.8
        state = np.array([[u], [v]])
        jac, gs = state.copy(), state.copy()
        jacobi_sweep(prob, wm, jac, rhs_at(prob, FakeGrid.t, jac))
        gauss_seidel_sweep(prob, wm, gs, rhs_at(prob, FakeGrid.t, gs))
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
        state = np.ones((g.m, 1))
        with pytest.raises(RhsEvaluationError) as err:
            # rhs = x at the ones up to t = 0.4, so ones are its cache there
            gauss_seidel_sweep(prob, wm, state, np.ones((g.m, 1)))
        assert err.value.t > 0.4
        assert "node" in str(err.value)
        # the sweep stops at the failing node: no row after it is updated
        k = err.value.node + g.N
        assert g.t[k] == err.value.t and not np.all(state[:k + 1] == 1.0)
        assert np.all(state[k + 1:] == 1.0)


def shapes_named(name, m, a):
    """A pattern for an error naming the array, the expected shape (m, 1)
    and the shape of a."""
    return f"{name} .*{re.escape(str((m, 1)))}.*{re.escape(str(np.shape(a)))}"


class TestSweepArguments:
    """Both sweeps reject a state or rhs cache they cannot update in place:
    an integer array would truncate the rhs values, and a wrong shape would
    fail only at some node, with an error that does not name it."""

    @staticmethod
    def case(N=4):
        tp = example1()
        prob = dataclasses.replace(tp.problem, rhs=lambda t, x: 1.5 * x)
        g = build_grid(prob.iv, N)
        return prob, build_weights(g), g.m

    @pytest.mark.parametrize("sweep", [jacobi_sweep, gauss_seidel_sweep])
    @pytest.mark.parametrize("make", [
        lambda m: np.ones((m, 1), dtype=int),
        lambda m: np.ones((m - 1, 1)),
        lambda m: np.ones((m + 1, 1)),
        lambda m: np.ones((m, 2)),
        lambda m: np.ones(m),
        lambda m: [[1.0]] * m,
    ], ids=["int", "short", "long", "wide", "1-D", "list"])
    def test_rejects_bad_state(self, sweep, make):
        prob, wm, m = self.case()
        state = make(m)
        with pytest.raises(ValueError, match=shapes_named("state", m, state)):
            sweep(prob, wm, state, np.ones((m, 1)))

    @pytest.mark.parametrize("sweep", [jacobi_sweep, gauss_seidel_sweep])
    @pytest.mark.parametrize("make", [
        lambda m: np.ones((m, 1), dtype=int),
        lambda m: np.ones((m - 1, 1)),
        lambda m: np.ones(m),
    ], ids=["int", "short", "1-D"])
    def test_rejects_bad_fvals(self, sweep, make):
        prob, wm, m = self.case()
        fvals = make(m)
        with pytest.raises(ValueError, match=shapes_named("fvals", m, fvals)):
            sweep(prob, wm, np.ones((m, 1)), fvals)

    @pytest.mark.parametrize("sweep", [jacobi_sweep, gauss_seidel_sweep])
    def test_float32_state_accepted(self, sweep):
        prob, wm, m = self.case()
        state = np.ones((m, 1), dtype=np.float32)
        # rhs = 1.5 x
        sweep(prob, wm, state, np.full((m, 1), 1.5))
        assert np.all(np.isfinite(state))


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
        _, trace = solve(tp.problem, g, tol=1e-13)
        z = trace.z_norms
        for a, b in zip(z[1:], z[2:]):
            assert b <= rate * a + 1e-16

    def test_iterates_stay_in_ball(self):
        tp = example1()  # rho = 1 around x_a = 1
        g = build_grid(tp.problem.iv, 32)
        _, trace = solve(tp.problem, g, tol=1e-14, store_iterates=True)
        for it in trace.iterates:
            assert np.max(np.abs(it - tp.problem.x_a)) <= tp.problem.rho

    def test_solution_does_not_alias_stored_iterates(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 16)
        sol, trace = solve(tp.problem, g, tol=1e-14, store_iterates=True)
        last = trace.iterates[-1].copy()
        assert np.array_equal(sol.x_nodes, last)
        sol.x_nodes[:] = -1.0
        assert np.array_equal(trace.iterates[-1], last)

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
        # numpy warns as the inf turns into NaN in the GS dot product or in
        # the Jacobi FFT
        with pytest.warns(RuntimeWarning), pytest.raises(NotConvergedError) as err:
            solve(prob, g, method=method, tol=1e-14, max_sweeps=50)
        assert len(err.value.trace.z_norms) == 1
        assert not math.isfinite(err.value.trace.z_norms[0])
        assert len(calls) <= 2 * g.m

    # the four problems of the benchmark, with the sweep replaced by the
    # row-dot oracle through the name solve looks up
    @pytest.mark.parametrize("N", [256, 1024])
    @pytest.mark.parametrize("spec", ["example1", "example2:n=11", "example3", "lv:m=3:seed=0"])
    def test_blocked_solve_matches_rowdot_solve(self, N, spec, monkeypatch):
        prob = problem_from_name(spec).problem
        g = build_grid(prob.iv, N)
        sol, trace = solve(prob, g)
        monkeypatch.setattr(solver, "gauss_seidel_sweep", gauss_seidel_sweep_rowdot)
        ref, ref_trace = solve(prob, g)
        assert len(trace.z_norms) == len(ref_trace.z_norms)
        scale = np.maximum(1.0, np.abs(ref.x_nodes))
        assert np.max(np.abs(sol.x_nodes - ref.x_nodes) / scale) <= 1e-14

    # the dense w is 8 m^2 bytes, and a Gauss-Seidel solve that formed it
    # peaked above that; none of these may come near it
    @pytest.mark.parametrize("run", ["jacobi", "gauss_seidel", "reference_solution"])
    def test_forms_no_dense_weights(self, run, peak_bytes):
        tp = example1()
        g = build_grid(tp.problem.iv, 1024)
        if run == "reference_solution":
            peak = peak_bytes(lambda: reference_solution(tp.problem, g))
        else:
            peak = peak_bytes(lambda: solve(tp.problem, g, method=run))
        assert peak < 8 * g.m**2 / 8

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
                solve(prob, g)
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
                solve(prob, g)
            else:
                sweep = gauss_seidel_sweep if stage == "gauss_seidel" else jacobi_sweep
                sweep(prob, wm, np.ones((g.m, 3)), np.ones((g.m, 3)))
        assert (err.value.node, err.value.t) == (-g.N, g.t[0])
        assert isinstance(err.value.__cause__, ValueError)
        assert "(1,)" in str(err.value)

    @pytest.mark.parametrize("method", solver.METHODS)
    @pytest.mark.parametrize("call", ["solve", "sweep"])
    def test_late_short_rhs_result_rejected(self, call, method):
        # the short result comes only once t > 0.4; a shape check at node 0
        # alone let it broadcast, and the solve reported converged after 21
        # sweeps with x(b) near (15.4, 16.9, 18.5)
        def rhs(t, x):
            return x if t <= 0.4 else np.array([x.sum()])

        prob = IVProblem(rhs=rhs, x_a=np.array([1.0, 2.0, 3.0]), iv=Interval(0.0, 1.0))
        g = build_grid(prob.iv, 16)
        with pytest.raises(RhsEvaluationError) as err:
            if call == "solve":
                solve(prob, g, method=method)
            else:
                sweep = gauss_seidel_sweep if method == "gauss_seidel" else jacobi_sweep
                sweep(prob, build_weights(g), np.ones((g.m, 3)), np.ones((g.m, 3)))
        k = int(np.argmax(g.t > 0.4))
        assert (err.value.node, err.value.t) == (k - g.N, g.t[k])
        assert err.value.sweep == (0 if call == "solve" else None)
        assert isinstance(err.value.__cause__, ValueError)
        assert "(1,)" in str(err.value)

    # the filter of RuntimeWarnings to errors turned numpy's ComplexWarning
    # into one and hid that, without it, the assignment to the node row
    # dropped the imaginary part: (1+1j)*x on [0, 1/2] converged to
    # x(1/2) = 1.6487, the answer of x' = x
    @pytest.mark.filterwarnings("default")
    @pytest.mark.parametrize("rhs", [lambda t, x: (1 + 1j) * x, lambda t, x: x + 0j,
                                     lambda t, x: [np.complex128(x[0])]],
                             ids=["complex", "zero-imaginary", "list"])
    @pytest.mark.parametrize("stage", ["initial", "gauss_seidel", "jacobi"])
    def test_complex_rhs_result_rejected(self, stage, rhs):
        prob = IVProblem(rhs=rhs, x_a=[1.0], iv=Interval(0.0, 0.5))
        g = build_grid(prob.iv, 16)
        with pytest.raises(RhsEvaluationError) as err:
            if stage == "initial":
                solve(prob, g)
            else:
                sweep = gauss_seidel_sweep if stage == "gauss_seidel" else jacobi_sweep
                sweep(prob, build_weights(g), np.ones((g.m, 1)), np.ones((g.m, 1)))
        assert (err.value.node, err.value.t) == (-g.N, g.t[0])
        assert isinstance(err.value.__cause__, ValueError)
        assert "complex" in str(err.value)

    @pytest.mark.parametrize("method", solver.METHODS)
    def test_list_rhs_solves(self, method):
        # a list has no shape attribute, so the check falls back to np.shape
        prob = example2(3).problem
        listed = dataclasses.replace(prob, rhs=lambda t, x: list(prob.rhs(t, x)))
        g = build_grid(prob.iv, 40)
        sol, trace = solve(listed, g, method=method)
        ref, ref_trace = solve(prob, g, method=method)
        assert trace.z_norms == ref_trace.z_norms
        assert np.array_equal(sol.x_nodes, ref.x_nodes)

    # m = 81: two whole blocks of the Gauss-Seidel sweep and a partial one
    @pytest.mark.parametrize("method", solver.METHODS)
    def test_rhs_called_once_per_node_per_sweep(self, method):
        prob = example2(3).problem
        calls = []
        counted = dataclasses.replace(prob, rhs=lambda t, x: calls.append(t) or prob.rhs(t, x))
        g = build_grid(prob.iv, 40)
        wm = build_weights(g)
        state = np.tile(prob.x_a, (g.m, 1))
        fvals = rhs_at(prob, g.t, state)
        sweep = gauss_seidel_sweep if method == "gauss_seidel" else jacobi_sweep
        for _ in range(3):
            calls.clear()
            sweep(counted, wm, state, fvals)
            # m calls, one per node in ascending order
            assert calls == list(g.t)
        calls.clear()
        _, trace = solve(counted, g, method=method)
        assert len(calls) == g.m * (len(trace.z_norms) + 1)

    def test_rejects_bad_arguments(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 4)
        with pytest.raises(ValueError):
            solve(tp.problem, g, method="sor")
        with pytest.raises(ValueError):
            solve(tp.problem, g, tol=-1.0)
        with pytest.raises(ValueError):
            solve(tp.problem, g, max_sweeps=0)

    def test_rejects_grid_of_another_interval(self):
        # example1 lives on [0, 0.5]; on a [0, 1] grid it converged with
        # x(b) = 2.718, against the exact 1.649 at b = 0.5
        tp = example1()
        with pytest.raises(ValueError, match=r"a=1\.0.*a=0\.0, b=0\.5"):
            solve(tp.problem, build_grid(Interval(1.0, 2.0), 16))
        with pytest.raises(ValueError, match=r"b=1\.0.*b=0\.5"):
            reference_solution(tp.problem, build_grid(Interval(0.0, 1.0), 16))

    # the weights come from the grid handed in, built once per call, so no
    # caller can pair a grid with the weights of another
    def test_builds_weights_once_from_its_grid(self, monkeypatch):
        built = []

        def counting(grid):
            built.append(grid)
            return build_weights(grid)

        monkeypatch.setattr(solver, "build_weights", counting)
        tp = example1()
        grids = [build_grid(tp.problem.iv, N) for N in (8, 16, 16)]
        solve(tp.problem, grids[0], method="gauss_seidel")
        solve(tp.problem, grids[1], method="jacobi")
        reference_solution(tp.problem, grids[2])
        assert [id(g) for g in built] == [id(g) for g in grids]

    @pytest.mark.parametrize("tol",[float("nan"), float("inf")])
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

    # a 1-element array raised a bare TypeError from math.asinh, a longer
    # one numpy's "truth value ... ambiguous", and a bool was taken as 0 or 1
    @pytest.mark.parametrize("t", [np.array([0.25]), np.array([0.1, 0.2]), [0.25], "0.25",
                                   None, True, np.True_, np.array(True), 0.25 + 0j,
                                   np.array(0.25 + 0j), np.array(0.25, dtype=object)],
                             ids=repr)
    def test_rejects_t_that_is_no_real_scalar(self, t):
        tp = example1()
        sol, _ = solve(tp.problem, build_grid(tp.problem.iv, 4), tol=1e-12)
        with pytest.raises(ValueError, match="t must be a real scalar"):
            evaluate(sol, t)

    @pytest.mark.parametrize("t", [0, 0.25, np.float64(0.25), np.int64(0), np.array(0.25)],
                             ids=repr)
    def test_accepts_real_scalar_t(self, t):
        tp = example1()
        sol, _ = solve(tp.problem, build_grid(tp.problem.iv, 4), tol=1e-12)
        assert np.array_equal(evaluate(sol, t), evaluate(sol, float(t)))


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
        ref = reference_solution(tp.problem, g)
        after = ref.x_nodes.copy()
        gauss_seidel_sweep(tp.problem, wm, after, ref.f_nodes.copy())
        assert np.max(np.abs(after - ref.x_nodes)) < 1e-14

    def test_matches_tight_solve(self):
        tp = example1()
        g = build_grid(tp.problem.iv, 64)
        ref = reference_solution(tp.problem, g)
        sol, _ = solve(tp.problem, g, tol=1e-15, max_sweeps=50)
        assert np.max(np.abs(ref.x_nodes - sol.x_nodes)) < 1e-13
