import math
import warnings

import numpy as np
import pytest

from desinc.grid import DEGrid, build_grid, default_step
from desinc.special import Interval, phi_de

from oracles import central_difference


def test_default_step_matches_experiment_choice():
    g = build_grid(Interval(0.0, 0.5), 64)
    assert g.h == pytest.approx(0.06498, abs=5e-6)
    assert g.h == math.log(64) / 64


def test_small_grid_layout():
    g = build_grid(Interval(0.0, 1.0), 2)
    h = default_step(2)
    assert np.allclose(g.s, [-2 * h, -h, 0.0, h, 2 * h])
    assert g.t[2] == pytest.approx(0.5, abs=1e-16)
    assert g.m == 5


def test_nodes_strictly_increasing_inside_interval():
    iv = Interval(0.0, 1.0)
    g = build_grid(iv, 8)
    assert np.all(np.diff(g.t) > 0)
    assert g.t[0] > iv.a and g.t[-1] < iv.b


def test_nodes_nondecreasing_in_closed_interval_at_large_n():
    # in double precision the outer times round onto each other and onto
    # the endpoints: on [0, 1] at N = 1024 only 931 of 2049 are distinct
    iv = Interval(0.0, 1.0)
    g = build_grid(iv, 1024)
    assert np.all(np.diff(g.t) >= 0)
    assert g.t[0] == iv.a and g.t[-1] == iv.b
    assert np.unique(g.t).size < g.m


def test_center_node_is_zero():
    g = build_grid(Interval(-3.0, 7.0), 16)
    assert g.s[g.N] == 0.0
    assert np.allclose(np.diff(g.s), g.h)


@pytest.mark.parametrize("N", [2, 4, 8, 16, 32, 64, 128, 256])
def test_symmetry_about_midpoint(N):
    iv = Interval(0.25, 1.75)
    g = build_grid(iv, N)
    assert np.max(np.abs(g.t + g.t[::-1] - (iv.a + iv.b))) < 1e-12


def test_dphi_matches_finite_difference_of_map():
    iv = Interval(0.0, 1.0)
    g = build_grid(iv, 12)
    for k in range(1, g.m - 1):
        fd = central_difference(lambda u: phi_de(u, iv), g.s[k])
        assert abs(g.dphi[k] - fd) <= 1e-6 * max(1.0, abs(g.dphi[k]))


def test_dphi_never_negative():
    g = build_grid(Interval(0.0, 1.0), 256)
    assert np.all(g.dphi >= 0.0)


def test_custom_step_override():
    g = build_grid(Interval(0.0, 1.0), 4, h=0.5)
    assert g.h == 0.5
    assert g.s[-1] == 2.0


def test_rejects_bad_inputs():
    iv = Interval(0.0, 1.0)
    with pytest.raises(ValueError):
        build_grid(iv, 1)
    with pytest.raises(ValueError):
        build_grid(iv, 4, h=0.0)
    with pytest.raises(ValueError):
        build_grid(iv, 4, h=-0.1)


def test_hand_built_grid_equals_build_grid():
    g = build_grid(Interval(0.0, 1.0), 4)
    assert DEGrid(g.iv, g.N, g.h, g.s, g.t, g.dphi) == g


# DEGrid(iv, True, ...) was built with m = 3 for a 9-node grid, and
# build_weights then returned a generator of the wrong length
@pytest.mark.parametrize("field, value, match", [
    ("iv", (0.0, 1.0), "^iv must be an Interval"),
    ("s", np.arange(7.0), r"^s must be a float array of shape \(9,\)$"),
    ("t", np.arange(9), r"^t must be a float array of shape \(9,\)$"),
    ("dphi", [1.0] * 9, r"^dphi must be a float array of shape \(9,\)$"),
    ("s", np.zeros((9, 1)), r"^s must be a float array"),
])
def test_grid_fields_must_fit_together(field, value, match):
    g = build_grid(Interval(0.0, 1.0), 4)
    fields = {"iv": g.iv, "N": g.N, "h": g.h, "s": g.s, "t": g.t, "dphi": g.dphi, field: value}
    with pytest.raises(ValueError, match=match):
        DEGrid(**fields)


# at h = 1e308 the outer nodes s = j*h were infinite: a RuntimeWarning,
# and NaN weights downstream; a numpy h must not warn in the check itself
@pytest.mark.parametrize("h", [float("nan"), float("inf"), 1e308,
                               pytest.param(np.float64(1e308), id="numpy-1e308")])
def test_rejects_non_finite_step(h):
    with pytest.raises(ValueError, match="^h must be .*finite"):
        build_grid(Interval(0.0, 1.0), 4, h=h)


def test_step_beyond_sinh_overflow_gives_endpoints():
    # N*h = 800 > 710 overflowed sinh and cosh: two RuntimeWarnings, and
    # phi' = inf/inf = NaN at the outer nodes
    iv = Interval(0.0, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        g = build_grid(iv, 8, h=100.0)
    assert np.all(np.isfinite(g.t)) and np.all((iv.a <= g.t) & (g.t <= iv.b))
    assert np.all(g.dphi >= 0.0)
    assert g.t[0] == iv.a and g.t[-1] == iv.b
