"""Acceptance gate: one test per criterion, each printing a PASS/FAIL
line with the measured quantities (run with -s to see them all)."""

import math

import numpy as np

from desinc.analysis import convergence_factor_observed, mgs_bound, mgs_norm_exact
from desinc.grid import build_grid
from desinc.problems import (
    TodaState,
    example1,
    example2,
    example3,
    lv_exact,
    lv_rhs,
    miura_to_lv,
    toda_solve,
)
from desinc.solver import NotConvergedError, solve
from desinc.special import Interval, si
from desinc.weights import build_weights, split

from oracles import rk4, row_sum_norm

IV_HALF = Interval(0.0, 0.5)


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def e1_error(tp, sol, grid):
    return max(float(np.max(np.abs(sol.x_nodes[k] - tp.exact(t))))
               for k, t in enumerate(grid.t))


def test_criterion_1_bound_formula_point_check():
    val = mgs_bound(1.0, IV_HALF, math.log(64) / 64, 64)
    report(1, abs(val - 0.06197) <= 0.0005, f"bound = {val:.6f}, target 0.06197 +- 0.0005")


def test_criterion_2_exact_norm_check():
    g = build_grid(IV_HALF, 64)
    norm = mgs_norm_exact(build_weights(g), L=1.0)
    bound = mgs_bound(1.0, IV_HALF, g.h, 64)
    ok = 0.01 <= norm <= 0.03 and norm <= bound
    report(2, ok, f"exact norm = {norm:.6f}, bound = {bound:.6f}")


def test_criterion_3_bound_dominance_sweep():
    failures = []
    for n in (4, 8, 16, 32, 64, 128, 256):
        g = build_grid(IV_HALF, n)
        wm = build_weights(g)
        ts = split(wm)
        norm = mgs_norm_exact(wm, L=1.0)
        bound = mgs_bound(1.0, IV_HALF, g.h, n)
        e_norm = row_sum_norm(ts.e)
        df_norm = row_sum_norm(np.diag(ts.d) + ts.f)
        df_bound = IV_HALF.length * g.h * (math.pi / 8 + (1 + math.log(2 * n)) / (4 * math.pi))
        if not (norm <= bound and e_norm <= 1.1 * IV_HALF.length and df_norm <= df_bound):
            failures.append(n)
    report(3, not failures, f"N sweep {{4..256}}, failures: {failures or 'none'}")


def test_criterion_4_example1_accuracy():
    tp = example1()
    g = build_grid(tp.problem.iv, 64)
    sol, _ = solve(tp.problem, g, method="gauss_seidel", tol=1e-15)
    e1 = e1_error(tp, sol, g)
    report(4, e1 < 1e-12, f"E1(64) = {e1:.3e}")


def test_criterion_5_gauss_seidel_speed():
    tp = example1()
    g = build_grid(tp.problem.iv, 64)
    wm = build_weights(g)
    _, trace = solve(tp.problem, g, tol=1e-15)
    factor = convergence_factor_observed(trace)
    norm = mgs_norm_exact(wm, tp.problem.lip)
    ok = factor <= 0.05 and factor <= norm
    report(5, ok, f"observed factor = {factor:.4f}, exact norm = {norm:.4f}")


def test_criterion_6_dimension_independence():
    results = {}
    for n in (11, 101):
        tp = example2(n)
        g = build_grid(tp.problem.iv, 64)
        sol, trace = solve(tp.problem, g, tol=1e-15)
        results[n] = (trace.z_norms, e1_error(tp, sol, g))
    z11, e11 = results[11]
    z101, e101 = results[101]
    same = len(z11) == len(z101) and all(abs(a - b) <= 1e-12 for a, b in zip(z11, z101))
    ok = same and e11 < 1e-10 and e101 < 1e-10
    report(6, ok, f"z-norms overlap: {same}, E1(n=11) = {e11:.3e}, E1(n=101) = {e101:.3e}")


def test_criterion_7_gs_beats_jacobi():
    tp = example1()
    g = build_grid(tp.problem.iv, 64)
    _, gs = solve(tp.problem, g, method="gauss_seidel", tol=1e-14)
    _, jac = solve(tp.problem, g, method="jacobi", tol=1e-14, max_sweeps=500)
    n_gs, n_jac = len(gs.z_norms), len(jac.z_norms)
    report(7, 2 * n_gs <= n_jac, f"GS sweeps = {n_gs}, Jacobi sweeps = {n_jac}")


def test_criterion_8_sine_integral_properties():
    bound_ok = all(abs(math.pi / 2 - si(x)) <= 1.0 / x for x in np.logspace(-3, 4, 200))
    si_pi = si(math.pi)
    ok = bound_ok and 1.85 < si_pi < 1.86
    report(8, ok, f"tail bound holds: {bound_ok}, Si(pi) = {si_pi:.6f}")


def test_criterion_9_toda_lv_pipeline():
    s0 = TodaState(q=np.array([3.0, 3.0]), e=np.array([1.0]))
    toda_ok = True
    for t in (0.1, 0.5, 1.0):
        out = toda_solve(s0, t)
        exact = (3 + math.tanh(t), 3 - math.tanh(t), 1 / math.cosh(t) ** 2)
        toda_ok &= (abs(out.q[0] - exact[0]) < 1e-10
                    and abs(out.q[1] - exact[1]) < 1e-10
                    and abs(out.e[0] - exact[2]) < 1e-10)
    tp = example3()
    lv_ok = all(np.max(np.abs(lv_exact(s0, t) - tp.exact(t))) < 1e-10
                for t in (0.1, 0.5, 1.0))
    rng = np.random.default_rng(31)
    s3 = TodaState(q=rng.uniform(2.5, 3.5, 3), e=rng.uniform(0.25, 0.75, 2))
    ref = rk4(lv_rhs, miura_to_lv(s3), 0.0, 1.0, step=1e-5)
    resid = float(np.max(np.abs(lv_exact(s3, 1.0) - ref)))
    ok = toda_ok and lv_ok and resid < 1e-7
    report(9, ok, f"2-site closed form: {toda_ok}, 3-species cross-check: {lv_ok}, "
                  f"3-site RK4 residual = {resid:.3e}")


def test_criterion_10_example3_end_to_end():
    tp = example3()
    g = build_grid(tp.problem.iv, 64)
    try:
        sol, trace = solve(tp.problem, g, tol=1e-14, store_iterates=True)
    except NotConvergedError as err:
        sol, trace = err.solution, err.trace
    e1 = e1_error(tp, sol, g)
    iterates = np.array(trace.iterates)
    in_ball = bool(
        np.all((iterates[:, :, 0] >= 1.5) & (iterates[:, :, 0] <= 2.5))
        and np.all((iterates[:, :, 1] >= 0.0) & (iterates[:, :, 1] <= 1.0))
        and np.all((iterates[:, :, 2] >= 1.0) & (iterates[:, :, 2] <= 2.0))
    )
    report(10, e1 < 1e-9 and in_ball,
           f"E1(64) = {e1:.3e}, iterates in ball: {in_ball} "
           f"(max x1 over iterates = {iterates[:, :, 0].max():.4f})")
