"""Effective diversity order: slope extraction and the asymptotic claims."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaysel import diversity as dv

from conftest import CTRL, sym_config


def test_pure_power_law_gives_constant_order():
    grid = list(range(10, 41, 5))
    curve = dv.SweepCurve(tuple((s, 3.0 / 10 ** (s / 10.0)) for s in grid))
    for _, d in dv.effective_diversity(curve):
        assert d == pytest.approx(1.0, abs=1e-12)


def test_constant_curve_gives_zero_order():
    grid = list(range(10, 41, 5))
    curve = dv.SweepCurve(tuple((s, 0.37) for s in grid))
    for _, d in dv.effective_diversity(curve):
        assert d == pytest.approx(0.0, abs=1e-12)


def test_curve_validation():
    with pytest.raises(ValueError):
        dv.SweepCurve(((10.0, 1.0),))
    with pytest.raises(ValueError):
        dv.SweepCurve(((10.0, 1.0), (10.0, 0.5)))
    with pytest.raises(ValueError):
        dv.SweepCurve(((10.0, 1.0), (12.0, 0.0)))


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-6.0, max_value=2.0), min_size=4, max_size=10, unique=True
    ),
    st.lists(
        st.floats(min_value=-6.0, max_value=2.0), min_size=4, max_size=10, unique=True
    ),
)
def test_log_additivity_of_products(exp_a, exp_b):
    n = min(len(exp_a), len(exp_b))
    grid = [10.0 + 3.0 * i for i in range(n)]
    va = [10.0 ** e for e in exp_a[:n]]
    vb = [10.0 ** e for e in exp_b[:n]]
    ca = dv.SweepCurve(tuple(zip(grid, va)))
    cb = dv.SweepCurve(tuple(zip(grid, vb)))
    cab = dv.SweepCurve(tuple((g, x * y) for g, x, y in zip(grid, va, vb)))
    da = np.array([d for _, d in dv.effective_diversity(ca)])
    db = np.array([d for _, d in dv.effective_diversity(cb)])
    dab = np.array([d for _, d in dv.effective_diversity(cab)])
    np.testing.assert_allclose(dab, da + db, rtol=1e-9, atol=1e-9)


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_scale_invariance(scale):
    grid = [10.0, 15.0, 20.0, 25.0]
    vals = [0.3, 0.05, 0.007, 0.001]
    base = dv.effective_diversity(dv.SweepCurve(tuple(zip(grid, vals))))
    scaled = dv.effective_diversity(
        dv.SweepCurve(tuple((g, scale * v) for g, v in zip(grid, vals)))
    )
    for (_, d1), (_, d2) in zip(base, scaled):
        assert d1 == pytest.approx(d2, rel=1e-9, abs=1e-12)


def test_fit_slope_requires_points_in_window():
    curve = dv.SweepCurve(((10.0, 1.0), (20.0, 0.1), (30.0, 0.01)))
    assert dv.fit_slope(curve, 10.0, 30.0) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        dv.fit_slope(curve, 40.0, 50.0)


def test_aser_sweep_round_trip():
    cfg = sym_config(M=2, power=1.0, rho_f=0.9)
    curve = dv.aser_sweep(cfg, [10.0, 15.0, 20.0, 25.0], CTRL)
    assert len(curve.points) == 4
    assert all(v > 0 for _, v in curve.points)


@pytest.mark.parametrize("grid", [[0.0, 4000.0], [-4000.0, 0.0], [0.0, math.inf]])
def test_aser_sweep_rejects_points_without_a_linear_power(grid):
    # 10^400 overflows a float and 10^-400 underflows to 0
    cfg = sym_config(M=2, power=1.0, rho_f=0.9)
    with pytest.raises(ValueError, match="no finite positive linear power"):
        dv.aser_sweep(cfg, grid, CTRL)


def test_asymptotic_checks_delay_scenario():
    cfg = sym_config(M=4, power=1.0, rho_e=1.0, rho_f=0.9)
    report = dv.asymptotic_checks(cfg, list(range(25, 37, 2)), CTRL)
    assert report["scenario"] == "feedback-delay"
    assert report["passed"]
    assert report["observed"] == pytest.approx(1.0, abs=0.15)


def test_asymptotic_checks_full_diversity():
    cfg = sym_config(M=3, power=1.0, rho_e=1.0, rho_f=1.0)
    report = dv.asymptotic_checks(cfg, list(range(25, 37, 2)), CTRL)
    assert report["scenario"] == "full-diversity"
    assert report["passed"]
    assert report["observed"] == pytest.approx(3.0, abs=0.3)


def test_asymptotic_checks_estimation_floor():
    cfg = sym_config(M=3, power=1.0, rho_e=0.99, rho_f=0.9)
    report = dv.asymptotic_checks(cfg, list(range(25, 47, 5)), CTRL)
    assert report["scenario"] == "estimation-error-floor"
    assert report["passed"]
    assert report["observed"] < 0.2


def test_asymptotic_checks_rejects_narrow_range():
    cfg = sym_config(M=2, power=1.0, rho_f=0.9)
    with pytest.raises(ValueError):
        dv.asymptotic_checks(cfg, [20.0, 21.0, 22.0, 23.0], CTRL)
