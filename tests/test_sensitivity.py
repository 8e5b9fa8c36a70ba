"""Tests for the shot-noise sensitivity budget and its power sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize_scalar

from sivodmr.sensitivity import (
    LaserSweep,
    MwSweep,
    SensitivityBudget,
    estimate_sensitivity,
    laser_sweep_sensitivity,
    mw_optimum_dbm,
    mw_sweep_sensitivity,
    project_saturation,
)
from sivodmr.spectrum import MwResponseParams, SaturationParams, mw_response, photon_rate

# frozen from eta = 0.77/gyro * fwhm/(C sqrt(R)) with gyro =
# 2.802468116327e10 Hz/T, C = 1.8e-3, fwhm = 13 MHz, R = 935e6/(1+300/85)
ETA_85MW = 1.3811346e-5  # T/sqrt(Hz)
# frozen ratio sqrt(R(85 mW)/R(1 mW)) of the default saturation curve
RATIO_1_TO_85 = 8.15193
# frozen 12.3 uT/sqrt(Hz) * sqrt(R(85 mW)/935 Mcps)
ETA_PROJECTED = 5.7794194e-6  # T/sqrt(Hz)


def test_sensitivity_anchor_85_mw(consts):
    rate = photon_rate(85.0, SaturationParams())
    eta = estimate_sensitivity(1.8e-3, 13e6, rate, consts)
    assert eta == pytest.approx(ETA_85MW, rel=1e-5)
    assert 12.2e-6 <= eta <= 14.9e-6


@settings(max_examples=40, deadline=None)
@given(k=st.floats(min_value=1e-3, max_value=1e3))
def test_exact_scaling_laws(k):
    base = estimate_sensitivity(1.8e-3, 13e6, 2.064e8)
    assert estimate_sensitivity(1.8e-3, 13e6, k * 2.064e8) == pytest.approx(
        base / math.sqrt(k), rel=1e-12
    )
    assert estimate_sensitivity(k * 1.8e-3, 13e6, 2.064e8) == pytest.approx(
        base / k, rel=1e-12
    )
    assert estimate_sensitivity(1.8e-3, k * 13e6, 2.064e8) == pytest.approx(
        k * base, rel=1e-12
    )


def test_quadrupled_rate_halves_eta(consts):
    base = estimate_sensitivity(1.8e-3, 13e6, 2.064e8, consts)
    assert estimate_sensitivity(1.8e-3, 13e6, 4 * 2.064e8, consts) == pytest.approx(
        base / 2.0, rel=1e-12
    )


def test_estimate_rejects_non_positive(consts):
    for bad, name in [
        ((0.0, 13e6, 2e8), "contrast"),
        ((1.8e-3, -1.0, 2e8), "fwhm_hz"),
        ((1.8e-3, 13e6, 0.0), "rate_cps"),
        ((1.8e-3, math.inf, 2e8), "fwhm_hz"),  # non-finite, e.g. 1e308 MHz in Hz
    ]:
        with pytest.raises(ValueError, match=name):
            estimate_sensitivity(*bad, consts)


def test_estimate_rejects_overflowing_result(consts):
    # finite, valid inputs whose eta overflows; no RuntimeWarning reaches the caller
    for bad in [
        (1e-300, 1e300, 2e8),
        (1e-300, 13e6, 1e-300),  # the denominator underflows to zero
        (np.array([1.8e-3, 1e-300]), np.array([13e6, 1e300]), 2e8),
    ]:
        with pytest.raises(ValueError, match="sensitivity overflows"):
            estimate_sensitivity(*bad, consts)
    with pytest.raises(ValueError, match="sensitivity overflows"):
        SensitivityBudget(1e-300, 1e300, 2e8, consts)
    with pytest.raises(ValueError, match="sensitivity overflows"):
        laser_sweep_sensitivity([1.0, 85.0], 1e-300, 1e300, SaturationParams(), consts)


def test_budget_self_consistency(consts):
    budget = SensitivityBudget(1.8e-3, 13e6, 2.064e8, consts)
    assert budget.eta_t_per_sqrt_hz == estimate_sensitivity(1.8e-3, 13e6, 2.064e8, consts)
    with pytest.raises(ValueError, match="contrast"):
        SensitivityBudget(-1.8e-3, 13e6, 2.064e8, consts)
    # eta is derived, not an argument: replace() on an input yields the new eta
    budget = replace(SensitivityBudget(1.8e-3, 13e6, 2.064e8), contrast=2e-3)
    assert budget.eta_t_per_sqrt_hz == estimate_sensitivity(2e-3, 13e6, 2.064e8)


def test_laser_sweep_monotone_and_ratio(consts):
    sweep = laser_sweep_sensitivity(
        np.linspace(1.0, 85.0, 85), 1.8e-3, 13e6, SaturationParams(), consts
    )
    assert isinstance(sweep, LaserSweep)
    assert np.all(np.diff(sweep.eta_t_per_sqrt_hz) < 0)
    assert np.all(np.diff(sweep.rate_cps) > 0)
    ratio = sweep.eta_t_per_sqrt_hz[0] / sweep.eta_t_per_sqrt_hz[-1]
    assert ratio == pytest.approx(RATIO_1_TO_85, abs=1e-3)
    assert 7.9 <= ratio <= 10.1
    expected_rate = photon_rate(42.0, SaturationParams())
    idx = int(np.argmin(np.abs(sweep.powers_mw - 42.0)))
    assert sweep.rate_cps[idx] == pytest.approx(expected_rate, rel=1e-12)


def test_laser_sweep_half_rate_point(consts):
    sat = SaturationParams()
    sweep = laser_sweep_sensitivity([sat.p0_mw], 1.8e-3, 13e6, sat, consts)
    eta_sat = estimate_sensitivity(1.8e-3, 13e6, sat.i_s_cps, consts)
    assert sweep.eta_t_per_sqrt_hz[0] == pytest.approx(
        eta_sat * math.sqrt(2.0), rel=1e-12
    )


def test_laser_sweep_rejects_bad_powers(consts):
    with pytest.raises(ValueError):
        laser_sweep_sensitivity([1.0, -2.0], 1.8e-3, 13e6, SaturationParams(), consts)
    with pytest.raises(ValueError):
        laser_sweep_sensitivity([], 1.8e-3, 13e6, SaturationParams(), consts)


def test_mw_sweep_single_interior_minimum(consts):
    mw = MwResponseParams()
    grid = np.arange(0.0, 30.0 + 1e-9, 0.01)
    sweep = mw_sweep_sensitivity(grid, mw, 2.064e8, consts)
    assert isinstance(sweep, MwSweep)
    signs = np.sign(np.diff(sweep.eta_t_per_sqrt_hz))
    # exactly one descending-to-ascending turn across the dense grid
    assert np.sum((signs[:-1] < 0) & (signs[1:] > 0)) == 1
    assert sweep.optimum_dbm == pytest.approx(mw_optimum_dbm(mw), abs=0.011)
    assert 18.8 <= sweep.optimum_dbm <= 19.2


def test_mw_sweep_columns_consistent(consts):
    mw = MwResponseParams()
    sweep = mw_sweep_sensitivity([10.0, 16.0, 22.0], mw, 2.064e8, consts)
    for i, dbm in enumerate([10.0, 16.0, 22.0]):
        c, w = mw_response(dbm, mw)
        assert sweep.contrast[i] == pytest.approx(c, rel=1e-12)
        assert sweep.fwhm_hz[i] == pytest.approx(w, rel=1e-12)
        assert sweep.eta_t_per_sqrt_hz[i] == pytest.approx(
            estimate_sensitivity(c, w, 2.064e8, consts), rel=1e-12
        )



def test_sweeps_match_per_point_values(consts):
    # the array sweeps against the scalar functions called point by point
    sat, mw = SaturationParams(), MwResponseParams()
    powers = np.geomspace(0.05, 2000.0, 397)
    laser = laser_sweep_sensitivity(powers, 1.8e-3, 13e6, sat, consts)
    rates = [photon_rate(p, sat) for p in powers.tolist()]
    np.testing.assert_allclose(laser.rate_cps, rates, rtol=1e-15, atol=0)
    np.testing.assert_allclose(
        laser.eta_t_per_sqrt_hz,
        [estimate_sensitivity(1.8e-3, 13e6, r, consts) for r in rates],
        rtol=1e-15, atol=0,
    )
    dbm = np.arange(-20.0, 45.0, 0.05)
    sweep = mw_sweep_sensitivity(dbm, mw, 2.064e8, consts)
    lines = [mw_response(d, mw) for d in dbm.tolist()]
    np.testing.assert_allclose(sweep.contrast, [c for c, _ in lines], rtol=1e-15, atol=0)
    np.testing.assert_allclose(sweep.fwhm_hz, [w for _, w in lines], rtol=1e-15, atol=0)
    np.testing.assert_allclose(
        sweep.eta_t_per_sqrt_hz,
        [estimate_sensitivity(c, w, 2.064e8, consts) for c, w in lines],
        rtol=1e-15, atol=0,
    )


def test_sweeps_keep_scalar_validation(consts):
    sat = SaturationParams()
    for bad in ([1.0, math.nan], [1.0, math.inf]):
        with pytest.raises(ValueError):
            laser_sweep_sensitivity(bad, 1.8e-3, 13e6, sat, consts)
    for contrast, fwhm in ((0.0, 13e6), (1.8e-3, -1.0), (math.nan, 13e6)):
        with pytest.raises(ValueError):
            laser_sweep_sensitivity([1.0, 2.0], contrast, fwhm, sat, consts)
    for bad in ([10.0, -math.inf], [10.0, math.nan]):  # zero and undefined contrast
        with pytest.raises(ValueError):
            mw_sweep_sensitivity(bad, MwResponseParams(), 2.064e8, consts)
    with pytest.raises(ValueError, match="rate_cps"):
        mw_sweep_sensitivity([10.0, 20.0], MwResponseParams(), 0.0, consts)
    with pytest.raises(ValueError, match="empty"):
        mw_sweep_sensitivity([], MwResponseParams(), 2.064e8, consts)
    with pytest.raises(ValueError):
        photon_rate(np.array([1.0, 0.0]), sat)

def test_mw_endpoints_exceed_optimum(consts):
    mw = MwResponseParams()
    sweep = mw_sweep_sensitivity([mw.p_sat_dbm - 20.0, mw_optimum_dbm(mw), mw.p_sat_dbm + 20.0], mw, 2.064e8, consts)
    assert sweep.eta_t_per_sqrt_hz[0] > sweep.eta_t_per_sqrt_hz[1]
    assert sweep.eta_t_per_sqrt_hz[2] > sweep.eta_t_per_sqrt_hz[1]


def test_analytic_saturation_factor_is_two():
    # independent check of the closed-form optimum of (1+s)^{3/2}/s
    res = minimize_scalar(
        lambda s: (1.0 + s) ** 1.5 / s, bounds=(0.05, 50.0), method="bounded",
        options={"xatol": 1e-10},
    )
    assert res.x == pytest.approx(2.0, abs=1e-6)
    assert mw_optimum_dbm(MwResponseParams(p_sat_dbm=16.0)) == pytest.approx(
        16.0 + 10.0 * math.log10(2.0), rel=1e-12
    )


def test_projection_to_saturated_counts():
    eta = project_saturation(12.3e-6, 85.0, SaturationParams())
    assert eta == pytest.approx(ETA_PROJECTED, rel=1e-5)
    assert 4.6e-6 <= eta <= 6.2e-6


def test_projection_fixed_points():
    sat = SaturationParams()
    assert project_saturation(10e-6, sat.p0_mw, sat) == pytest.approx(
        10e-6 / math.sqrt(2.0), rel=1e-12
    )
    # far above saturation the projection changes nothing
    assert project_saturation(10e-6, 1e9, sat) == pytest.approx(10e-6, rel=1e-6)
    with pytest.raises(ValueError):
        project_saturation(-1.0, 85.0, sat)
    with pytest.raises(ValueError):
        project_saturation(10e-6, 0.0, sat)
