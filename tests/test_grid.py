import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from desinc.grid import DEGrid, build_grid, default_step
from desinc.special import Interval, dphi_de, phi_de

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
    # grids built apart used to raise numpy's ambiguous truth value error
    iv = Interval(0.0, 1.0)
    g = build_grid(iv, 4)
    assert DEGrid(Interval(0.0, 1.0), 4) == g
    assert DEGrid(iv, 4, math.log(4) / 4) == g
    assert DEGrid(iv, 4, 0.5) != g and DEGrid(iv, 5) != g


@pytest.mark.parametrize("field, value, match", [
    ("iv", (0.0, 1.0), "^iv must be an Interval"),
])
def test_grid_fields_must_fit_together(field, value, match):
    fields = {"iv": Interval(0.0, 1.0), "N": 4, "h": None, field: value}
    with pytest.raises(ValueError, match=match):
        DEGrid(**fields)


def test_rejection_quotes_the_value():
    # a string h read as "got 0.1", like a valid step
    with pytest.raises(ValueError, match="^h must be positive and finite, got '0.1'$"):
        build_grid(Interval(0.0, 1.0), 8, "0.1")


intervals = st.builds(
    lambda a, length: Interval(a, a + length),
    st.floats(-1e6, 1e6), st.floats(1e-3, 1e3))
steps = st.one_of(st.none(), st.floats(1e-3, 2.0),
                  st.floats(1e-3, 2.0).map(np.float64), st.floats(1e-3, 2.0).map(np.array))


@settings(max_examples=60, deadline=None)
@given(iv=intervals, N=st.integers(2, 64), h=steps, h2=st.floats(1e-3, 2.0))
def test_grid_is_its_interval_n_and_step(iv, N, h, h2):
    g, twin = DEGrid(iv, N, h), DEGrid(Interval(iv.a, iv.b), N, h)
    assert g == twin and hash(g) == hash(twin) and len({g, twin}) == 1
    step = default_step(N) if h is None else h
    assert type(g.h) is float and g.h == step
    s = np.arange(-N, N + 1, dtype=float) * step
    for got, want in ((g.s, s), (g.t, phi_de(s, iv)), (g.dphi, dphi_de(s, iv))):
        assert got.dtype == float and got.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            got[0] = 1.0
    assert DEGrid(iv, N) == build_grid(iv, N)
    moved, s2 = dataclasses.replace(g, h=h2), np.arange(-N, N + 1, dtype=float) * h2
    assert moved.h == h2 and moved.s.tobytes() == s2.tobytes()
    assert moved.t.tobytes() == phi_de(s2, iv).tobytes()


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
