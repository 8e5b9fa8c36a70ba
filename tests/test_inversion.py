"""Tests for the (B0, theta) inverter and the closed-form axial estimator."""

import math
import warnings

import numpy as np
import pytest

from sivodmr.inversion import (
    COND_THRESHOLD,
    DEFAULT_B_MAX_T,
    RESOLUTION_B_T,
    RESOLUTION_THETA_RAD,
    AxialInversion,
    AxialModelError,
    InversionResult,
    NoSolutionError,
    _gap_minimizing_theta,
    _refine,
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


def test_exact_pair_below_resolution_flags_zero_field(consts):
    res = invert_field(*_forward(0.005, 0.0, consts), consts)
    assert res.reason == "zero-field"
    assert res.degenerate


def test_noise_beyond_resolution_flags_unresolved(consts):
    # at 2 G the angle is weakly determined: 30 kHz of line noise maps to
    # more than RESOLUTION_THETA_RAD, 10 kHz to less
    pair = _forward(2.0, 30.0, consts)
    res = invert_field(*pair, consts, sigma_hz=30e3)
    assert res.reason == "unresolved"
    assert res.n_compatible == 1
    assert invert_field(*pair, consts, sigma_hz=10e3).reason is None


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


def test_stacked_refinement_rows_match_solo_runs(consts):
    # a result never depends on its batch mates: B0 = 0 and 5e-8 T starts
    # (forward-difference Jacobian) share the stack with ordinary starts
    nu1, nu2 = _forward(0.5, 30.0, consts)
    starts = np.array(
        [[0.0, 0.5], [5e-8, 1.0], [1e-4, 0.2], [50 * GAUSS, 0.8], [80 * GAUSS, 1.2]]
    )
    stacked = _refine(starts, nu1, nu2, consts, DEFAULT_B_MAX_T)
    for start, (b0, theta, rms, jac) in zip(starts, stacked):
        [(b0_solo, theta_solo, rms_solo, jac_solo)] = _refine(
            start[None], nu1, nu2, consts, DEFAULT_B_MAX_T
        )
        assert (b0, theta, rms) == (b0_solo, theta_solo, rms_solo)
        assert jac.tobytes() == jac_solo.tobytes()
    assert stacked[0][2] < 1.0  # the B0 = 0 start climbs to the field

    b0s, thetas = starts[1:, 0], starts[1:, 1]
    apex = _gap_minimizing_theta(b0s, thetas, consts)
    for k in range(b0s.size):
        assert apex[k] == _gap_minimizing_theta(b0s[k : k + 1], thetas[k : k + 1], consts)[0]


@pytest.mark.parametrize("theta_rad", [0.0, math.pi / 2])
def test_refine_zeroes_theta_column_on_the_angle_edges(consts, theta_rad):
    # the lines are even in theta about both edges, so d(nu)/d(theta) is
    # exactly zero there rather than Hellmann-Feynman rounding noise
    nu1, nu2 = _forward(60.0, math.degrees(theta_rad), consts)
    [(_, theta, _, jac)] = _refine(
        np.array([[60.0 * GAUSS, theta_rad]]), nu1, nu2, consts, DEFAULT_B_MAX_T
    )
    assert theta == theta_rad
    assert jac[:, 1].tolist() == [0.0, 0.0]


def test_fixed_grid_bands_are_right_or_flagged(consts):
    # exact pairs from the bands where a narrow or edge basin used to be
    # missed without a flag: the fold edge near 90 deg, sub-gauss fields,
    # and a fault field found by the benchmark
    near_90 = (89.5, 89.75, 89.9, 89.99)
    cases = [(b0, th) for th in near_90 for b0 in np.arange(5.0, 120.1, 2.5).tolist()]
    sub_gauss = (0.05, 0.1, 0.2, 0.4, 0.8)
    cases += [(b0, th) for b0 in sub_gauss for th in (0.0, 30.0, 45.0, 60.0, 89.0)]
    cases.append((61.884686535515186, 89.76732823173803))
    wrong = []
    for b0_gauss, theta_deg in cases:
        res = invert_field(*_forward(b0_gauss, theta_deg, consts), consts)
        if not (
            res.degenerate
            or abs(res.b0_t / GAUSS - b0_gauss) <= 0.1
            and abs(math.degrees(res.theta_rad) - theta_deg) <= 0.5
        ):
            wrong.append((b0_gauss, theta_deg))
    assert not wrong, f"{len(wrong)}/{len(cases)} unflagged misses: {wrong[:5]}"


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


def test_pair_beyond_every_line_raises_without_overflow(consts):
    # no line of the domain exceeds 2D + 3 gamma b_max, so this pair is out
    # of reach before any refinement, and its best residual stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoSolutionError) as err:
            invert_field(1e306, 2e6, consts)
    assert math.isfinite(err.value.best_residual_hz)
    assert err.value.best_residual_hz > 1e305


def test_damping_cap_stops_rows_stranded_on_a_line_selection_jump(consts, monkeypatch):
    # at (70 G, 40 deg) refinement rows land on jumps of the pumped-pair
    # selection that no damped step can cross; the damping cap stops them
    # (36 table calls, 93 uncapped) and the reduction keeps the same answer
    nu1, nu2 = _forward(70.0, 40.0, consts)
    invert_field(nu1, nu2, consts)  # warm the grid cache
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return transition_table(*args, **kwargs)

    monkeypatch.setattr("sivodmr.inversion.transition_table", counted)
    res = invert_field(nu1, nu2, consts)
    assert len(calls) <= 45
    assert res.b0_t == pytest.approx(70.0 * GAUSS, abs=1e-12)
    assert math.degrees(res.theta_rad) == pytest.approx(40.0, abs=1e-9)
    assert res.reason == "ambiguous"
    assert res.n_compatible == 2
    assert res.alt_b0_t == pytest.approx(0.0072205, abs=1e-7)


def test_invert_input_validation(consts):
    with pytest.raises(ValueError):
        invert_field(-70e6, 70e6, consts)
    with pytest.raises(ValueError):
        invert_field(70e6, 0.0, consts)
    with pytest.raises(ValueError):
        invert_field(70e6, 80e6, consts, b_max_t=0.0)
    with pytest.raises(ValueError):
        invert_field(70e6, 80e6, consts, sigma_hz=-1.0)
    # non-finite inputs are named before any search runs
    for kwargs in (
        {"nu1_hz": math.inf},
        {"nu2_hz": math.nan},
        {"sigma_hz": math.inf},
        {"b_max_t": math.inf},
    ):
        args = {"nu1_hz": 70e6, "nu2_hz": 80e6, "consts": consts, **kwargs}
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be finite"):
            invert_field(**args)


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
