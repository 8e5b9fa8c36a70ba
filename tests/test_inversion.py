"""Tests for the (B0, theta) inverter and the closed-form axial estimator."""

import math

import numpy as np
import pytest

from sivodmr.inversion import (
    COND_THRESHOLD,
    RESOLUTION_B_T,
    RESOLUTION_THETA_RAD,
    AxialInversion,
    AxialModelError,
    InversionResult,
    NoSolutionError,
    angle_sweep,
    axial_invert,
    invert_field,
)
from sivodmr.spin_model import FieldVector, closed_form_axial, transition_pair, transition_table

GAUSS = 1e-4

# closed-form axial pair at 120 G, frozen from nu = |gamma B -/+ 2D| with
# gamma = 2.802468116327e10 Hz/T and D = 35 MHz
NU1_120G = 266_296_173.9592
NU2_120G = 406_296_173.9592


def _forward(b0_gauss, theta_deg, consts):
    fv = FieldVector(b0_t=b0_gauss * GAUSS, theta_rad=math.radians(theta_deg))
    tp = transition_pair(fv, consts)
    return tp.nu1_hz, tp.nu2_hz


def test_zero_field_pair_degenerate(consts):
    res = invert_field(70e6, 70e6, consts)
    assert res.b0_t == pytest.approx(0.0, abs=1e-8)
    assert res.degenerate
    assert res.reason == "sigma-overlap"
    # spec-level invariant: degenerate comes with an ill condition or an
    # unresolvable field
    assert res.condition > COND_THRESHOLD or res.b0_t < RESOLUTION_B_T


@pytest.mark.parametrize("theta_deg", [0.0, 30.0, 60.0])
@pytest.mark.parametrize("b0_gauss", [0.2, 0.3, 0.5, 0.8])
def test_sub_gauss_fields_reproduce_the_pair(consts, b0_gauss, theta_deg):
    # below one grid step in B0 every seed starts at B0 = 0, where the
    # Kramers pairs are degenerate and refinement must still find its way out
    nu1, nu2 = _forward(b0_gauss, theta_deg, consts)
    res = invert_field(nu1, nu2, consts)
    assert res.residual_hz < 1.0
    if theta_deg <= 30.0:  # at 60 deg a rival field near 50 deg fits as well
        assert res.b0_t / GAUSS == pytest.approx(b0_gauss, abs=1e-5)
        assert math.degrees(res.theta_rad) == pytest.approx(theta_deg, abs=1e-3)


def test_rounded_axial_pair_recovers_sixty_gauss(consts):
    res = invert_field(98.148e6, 238.148e6, consts)
    assert res.b0_t / GAUSS == pytest.approx(60.0, abs=1e-3)
    assert math.degrees(res.theta_rad) == pytest.approx(0.0, abs=0.05)
    assert res.residual_hz < 1.0


def test_roundtrip_sixty_gauss_thirty_degrees(consts):
    nu1, nu2 = _forward(60.0, 30.0, consts)
    res = invert_field(nu1, nu2, consts)
    assert res.b0_t / GAUSS == pytest.approx(60.0, abs=1e-4)
    assert math.degrees(res.theta_rad) == pytest.approx(30.0, abs=1e-3)
    assert res.residual_hz < 1.0
    assert not res.degenerate
    assert res.n_compatible == 1


@pytest.mark.parametrize("b0_gauss", [30.0, 60.0, 90.0, 120.0])
@pytest.mark.parametrize("theta_deg", [10.0, 20.0, 30.0])
def test_roundtrip_grid_below_mirror_threshold(consts, b0_gauss, theta_deg):
    # below ~35 deg at these fields the pair determines the field uniquely
    nu1, nu2 = _forward(b0_gauss, theta_deg, consts)
    res = invert_field(nu1, nu2, consts)
    assert res.b0_t / GAUSS == pytest.approx(b0_gauss, abs=1e-3)
    assert math.degrees(res.theta_rad) == pytest.approx(theta_deg, abs=0.01)
    assert res.residual_hz < 1.0
    assert res.n_compatible == 1
    assert not res.degenerate


def test_off_node_point_refines_below_grid_spacing(consts):
    nu1, nu2 = _forward(47.3, 17.6, consts)
    res = invert_field(nu1, nu2, consts)
    assert res.b0_t / GAUSS == pytest.approx(47.3, abs=1e-3)
    assert math.degrees(res.theta_rad) == pytest.approx(17.6, abs=0.01)


def test_exact_axial_input_flags_unidentifiable_angle(consts):
    # at theta = 0 the frequencies are stationary in angle, so the local
    # Jacobian loses a column and the inversion honestly reports it
    nu1, nu2 = _forward(90.0, 0.0, consts)
    res = invert_field(nu1, nu2, consts)
    assert res.b0_t / GAUSS == pytest.approx(90.0, abs=1e-3)
    assert res.degenerate and res.reason == "ill-conditioned"
    assert res.condition > COND_THRESHOLD


def test_mirror_pair_detected_and_reported(consts):
    # above the gap-minimizing angle a second field reproduces the same
    # pair exactly; the deterministic reduction returns the smaller-B0
    # basin and surfaces the rival through alt_*
    nu1, nu2 = _forward(80.0, 70.0, consts)
    res = invert_field(nu1, nu2, consts)
    assert res.degenerate
    assert res.reason == "ambiguous"
    assert res.n_compatible >= 2
    assert res.condition > COND_THRESHOLD
    assert res.b0_t <= 80.0 * GAUSS
    assert res.alt_b0_t / GAUSS == pytest.approx(80.0, abs=1e-3)
    assert math.degrees(res.alt_theta_rad) == pytest.approx(70.0, abs=0.01)
    # the selected rival itself reproduces the input within the floor
    n1_alt, n2_alt = transition_table(
        np.array([res.b0_t]), np.array([res.theta_rad]), consts
    )
    assert abs(n1_alt[0] - nu1) < 1.0 and abs(n2_alt[0] - nu2) < 1.0


def test_inversion_is_deterministic_and_order_invariant(consts):
    nu1, nu2 = _forward(80.0, 70.0, consts)
    first = invert_field(nu1, nu2, consts)
    again = invert_field(nu1, nu2, consts)
    swapped = invert_field(nu2, nu1, consts)
    assert first == again == swapped


@pytest.mark.parametrize("theta_deg", [52.5, 54.74, 56.5])
@pytest.mark.parametrize("b0_gauss", [20.0, 60.0, 120.0])
def test_noise_near_gap_minimum_always_flags(consts, rng, theta_deg, b0_gauss):
    sigma = 1e5  # Hz
    nu1, nu2 = _forward(b0_gauss, theta_deg, consts)
    for _ in range(2):
        res = invert_field(
            nu1 + sigma * rng.standard_normal(),
            nu2 + sigma * rng.standard_normal(),
            consts,
            sigma_hz=sigma,
        )
        assert res.degenerate, f"unflagged at B={b0_gauss} G, theta={theta_deg} deg"
        assert res.reason is not None


def test_condition_quiet_away_from_fold_spikes_at_fold(consts):
    nu1, nu2 = _forward(60.0, 30.0, consts)
    away = invert_field(nu1, nu2, consts)
    nu1, nu2 = _forward(60.0, 54.74, consts)
    fold = invert_field(nu1, nu2, consts)
    assert away.condition < 100.0
    assert fold.condition > COND_THRESHOLD
    assert fold.degenerate


def test_unreachable_pair_raises(consts):
    with pytest.raises(NoSolutionError) as err:
        invert_field(500e6, 900e6, consts)
    assert err.value.best_residual_hz > 1e6


def test_invert_input_validation(consts):
    with pytest.raises(ValueError):
        invert_field(-70e6, 70e6, consts)
    with pytest.raises(ValueError):
        invert_field(70e6, 0.0, consts)
    with pytest.raises(ValueError):
        invert_field(70e6, 80e6, consts, b_max_t=0.0)
    with pytest.raises(ValueError):
        invert_field(70e6, 80e6, consts, sigma_hz=-1.0)


def test_result_invariants_enforced():
    with pytest.raises(ValueError):
        InversionResult(
            b0_t=1e-3, theta_rad=0.1, residual_hz=-1.0, degenerate=False, condition=1.0
        )
    with pytest.raises(ValueError):
        InversionResult(
            b0_t=1e-3, theta_rad=0.1, residual_hz=0.0, degenerate=True, condition=1.0
        )


def test_axial_invert_frozen_120_gauss(consts):
    res = axial_invert(NU1_120G, NU2_120G, consts)
    assert isinstance(res, AxialInversion)
    assert res.b0_t / GAUSS == pytest.approx(120.0, abs=1e-6)
    assert res.consistency_hz == pytest.approx(0.0, abs=1e-3)


def test_axial_invert_rejects_zero_field_pair(consts):
    with pytest.raises(AxialModelError) as err:
        axial_invert(70e6, 70e6, consts)
    assert err.value.consistency_hz == pytest.approx(4 * consts.d_hz, rel=1e-12)
    assert err.value.b0_t / GAUSS == pytest.approx(24.978, abs=1e-2)


def test_axial_invert_rejects_tilted_field(consts):
    nu1, nu2 = _forward(60.0, 20.0, consts)
    with pytest.raises(AxialModelError):
        axial_invert(nu1, nu2, consts)


def test_axial_invert_validation(consts):
    with pytest.raises(ValueError):
        axial_invert(200e6, 100e6, consts)
    with pytest.raises(ValueError):
        axial_invert(-1.0, 100e6, consts)


@pytest.mark.parametrize("b0_gauss", [40.0, 60.0, 100.0])
def test_axial_agrees_with_full_inverter(consts, b0_gauss):
    tp = closed_form_axial(b0_gauss * GAUSS, consts)
    full = invert_field(tp.nu1_hz, tp.nu2_hz, consts)
    axial = axial_invert(tp.nu1_hz, tp.nu2_hz, consts)
    assert abs(full.b0_t - axial.b0_t) / GAUSS < 0.05


def test_angle_sweep_matches_forward_model(consts):
    thetas = np.linspace(0.0, math.pi / 2, 19)
    th, nu1, nu2 = angle_sweep(60.0 * GAUSS, thetas, consts)
    ref1, ref2 = transition_table(np.full_like(thetas, 60.0 * GAUSS), thetas, consts)
    assert th.shape == nu1.shape == nu2.shape == thetas.shape
    np.testing.assert_allclose(nu1, ref1, rtol=0, atol=1e-6)
    np.testing.assert_allclose(nu2, ref2, rtol=0, atol=1e-6)
    assert np.all(nu2 >= nu1)
    with pytest.raises(ValueError):
        angle_sweep(0.0, thetas, consts)
