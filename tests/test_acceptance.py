"""Acceptance suite: one test per release criterion, with stated tolerances.

Each test records a single PASS/FAIL line (printed in the terminal summary by
conftest) before asserting, so the final report always carries one line per
criterion even when a criterion fails.
"""

import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import record_acceptance
from sivodmr.fitting import (
    _lorentzian_model,
    fit_lorentzian_multi,
    fit_saturation,
    fit_zfs_series,
)
from sivodmr.inversion import NoSolutionError, invert_field
from sivodmr.sensitivity import (
    estimate_sensitivity,
    mw_sweep_sensitivity,
    project_saturation,
)
from sivodmr.spectrum import (
    AcquisitionConfig,
    MwResponseParams,
    SaturationParams,
    mw_response,
    photon_rate,
    synthesize_spectrum,
)
from sivodmr.spin_model import (
    FieldVector,
    PhysicalConstants,
    build_hamiltonian,
    closed_form_axial,
    diagonalize,
    transition_pair,
    transition_table,
)

GAUSS = 1e-4  # tesla per gauss


def test_criterion_01_zero_field_resonance():
    """Zero field: both lines sit at 2D, to 1e-6 MHz, for several D values."""
    worst = 0.0
    for d_mhz in (30.0, 35.0, 36.6):
        consts = PhysicalConstants(d_hz=d_mhz * 1e6)
        tp = transition_pair(FieldVector(b0_t=0.0, theta_rad=0.0), consts)
        worst = max(worst, abs(tp.nu1_hz - 2 * consts.d_hz), abs(tp.nu2_hz - 2 * consts.d_hz))
    passed = worst <= 1.0  # 1e-6 MHz
    record_acceptance(1, passed, f"zero-field pair at 2D, worst dev {worst:.2e} Hz (tol 1 Hz)")
    assert passed


def test_criterion_02_axial_oracle(consts):
    """Eigensolver matches the closed-form axial energies to 1 kHz over 0-200 G."""
    b = np.linspace(0.0, 200.0 * GAUSS, 200)
    nu1, nu2 = transition_table(b, np.zeros_like(b), consts)
    worst = 0.0
    for bi, n1, n2 in zip(b, nu1, nu2):
        cf = closed_form_axial(bi, consts)
        worst = max(worst, abs(n1 - cf.nu1_hz), abs(n2 - cf.nu2_hz))
    tp = transition_pair(FieldVector(b0_t=60.0 * GAUSS, theta_rad=0.0), consts)
    pair_dev = max(abs(tp.nu1_hz - 98.148e6), abs(tp.nu2_hz - 238.148e6))
    passed = worst <= 1e3 and pair_dev <= 500.0
    record_acceptance(
        2, passed,
        f"closed-form axial agreement worst {worst:.2e} Hz (tol 1 kHz); "
        f"60 G pair dev {pair_dev:.1f} Hz from (98.148, 238.148) MHz",
    )
    assert worst <= 1e3
    assert pair_dev <= 500.0


def test_criterion_03_field_sweep_monotone_and_split(consts):
    """Above the level crossing both axial lines rise and stay 4D apart."""
    b = np.linspace(0.0, 120.0 * GAUSS, 241)
    nu1, nu2 = transition_table(b, np.zeros_like(b), consts)
    above = consts.gyro_hz_per_t * b > 2 * consts.d_hz
    mono1 = bool(np.all(np.diff(nu1[above]) > 0))
    mono2 = bool(np.all(np.diff(nu2[above]) > 0))
    split_dev = float(np.max(np.abs((nu2 - nu1)[above] - 4 * consts.d_hz)))
    passed = mono1 and mono2 and split_dev <= 1e3
    record_acceptance(
        3, passed,
        f"axial sweep monotone above crossing ({mono1}/{mono2}); "
        f"4D split dev {split_dev:.2e} Hz (tol 1 kHz)",
    )
    assert mono1 and mono2
    assert split_dev <= 1e3


def test_criterion_04_magic_angle(consts):
    """The line-gap minimum at 60 G lands near 54.7 degrees."""
    b = 60.0 * GAUSS
    coarse = np.arange(0.0, 90.0 + 1e-9, 0.5)
    n1, n2 = transition_table(np.full_like(coarse, b), np.radians(coarse), consts)
    k = int(np.argmin(n2 - n1))
    lo, hi = max(coarse[k] - 1.0, 0.0), min(coarse[k] + 1.0, 90.0)
    fine = np.arange(lo, hi + 1e-9, 0.01)
    f1, f2 = transition_table(np.full_like(fine, b), np.radians(fine), consts)
    theta_star = float(fine[int(np.argmin(f2 - f1))])
    passed = 52.0 <= theta_star <= 58.0
    record_acceptance(
        4, passed, f"gap minimum at {theta_star:.2f} deg (0.01 deg scan, band [52, 58])"
    )
    assert passed


def test_criterion_05_sensitivity_anchor(consts):
    eta = estimate_sensitivity(1.8e-3, 13e6, photon_rate(85.0), consts)
    passed = 12.2e-6 <= eta <= 14.9e-6
    record_acceptance(
        5, passed, f"eta(85 mW) = {eta * 1e6:.2f} uT/sqrt(Hz) (band [12.2, 14.9])"
    )
    assert passed


def test_criterion_06_laser_sweep_ratio(consts):
    eta1 = estimate_sensitivity(1.8e-3, 13e6, photon_rate(1.0), consts)
    eta85 = estimate_sensitivity(1.8e-3, 13e6, photon_rate(85.0), consts)
    ratio = eta1 / eta85
    passed = 7.9 <= ratio <= 10.1
    record_acceptance(6, passed, f"eta(1 mW)/eta(85 mW) = {ratio:.3f} (band [7.9, 10.1])")
    assert passed


def test_criterion_07_saturation_projection():
    eta = project_saturation(12.3e-6, 85.0)
    passed = 4.6e-6 <= eta <= 6.2e-6
    record_acceptance(
        7, passed, f"full-saturation projection {eta * 1e6:.2f} uT/sqrt(Hz) (band [4.6, 6.2])"
    )
    assert passed


def test_criterion_08_mw_optimum(consts):
    mw = MwResponseParams()  # p_sat_dbm = 16
    dbm = np.arange(0.0, 30.0 + 1e-9, 0.01)
    sweep = mw_sweep_sensitivity(dbm, mw, consts=consts)
    grid_opt = float(sweep.optimum_dbm)
    # The shot-noise figure of merit reduces to (1+s)^{3/2}/s in the drive
    # saturation parameter s; its stationary point should sit at s = 2.
    res = minimize_scalar(lambda s: (1 + s) ** 1.5 / s, bracket=(0.5, 2.0, 8.0))
    s_star = float(res.x)
    passed = 18.8 <= grid_opt <= 19.2 and abs(s_star - 2.0) <= 1e-6
    record_acceptance(
        8, passed,
        f"mw optimum {grid_opt:.2f} dBm (band [18.8, 19.2]); "
        f"analytic s* = {s_star:.8f} (tol 1e-6 from 2)",
    )
    assert 18.8 <= grid_opt <= 19.2
    assert abs(s_star - 2.0) <= 1e-6


def test_criterion_09_saturation_fit_roundtrip():
    sat = SaturationParams()  # 935 Mcps, 300 mW
    powers = np.geomspace(1.0, 300.0, 61)
    counts = np.array([photon_rate(p, sat) for p in powers])

    clean = fit_saturation(powers, counts)
    rel_clean = max(
        abs(clean.value("i_s_cps") - sat.i_s_cps) / sat.i_s_cps,
        abs(clean.value("p0_mw") - sat.p0_mw) / sat.p0_mw,
    )

    rng = np.random.default_rng(909)
    rel_is, rel_p0 = [], []
    for _ in range(50):
        noisy = counts * (1.0 + 0.01 * rng.standard_normal(counts.size))
        res = fit_saturation(powers, noisy)
        rel_is.append(abs(res.value("i_s_cps") - sat.i_s_cps) / sat.i_s_cps)
        rel_p0.append(abs(res.value("p0_mw") - sat.p0_mw) / sat.p0_mw)
    med = max(float(np.median(rel_is)), float(np.median(rel_p0)))

    passed = rel_clean <= 1e-6 and med <= 0.02
    record_acceptance(
        9, passed,
        f"saturation fit: noiseless rel {rel_clean:.2e} (tol 1e-6); "
        f"1% noise median rel {med:.4f} over 50 repeats (tol 0.02)",
    )
    assert rel_clean <= 1e-6
    assert med <= 0.02


def test_criterion_10_odmr_fit_roundtrip(consts):
    field = FieldVector(b0_t=60.0 * GAUSS, theta_rad=0.0)
    truth = transition_pair(field, consts)
    sat, mw = SaturationParams(), MwResponseParams()
    _, true_fwhm = mw_response(18.0, mw)
    good = 0
    for seed in range(100):
        cfg = AcquisitionConfig(
            f_start_hz=50e6, f_stop_hz=280e6, n_points=92001,
            dwell_s=10e-3, laser_mw=85.0, mw_dbm=18.0, seed=seed,
        )
        spec = synthesize_spectrum(cfg, field, consts, sat, mw)
        res = fit_lorentzian_multi(spec, n_peaks=2)
        if not res.converged:
            continue
        c_ok = (
            abs(res.value("center1_hz") - truth.nu1_hz) <= 0.005 * truth.nu1_hz
            and abs(res.value("center2_hz") - truth.nu2_hz) <= 0.005 * truth.nu2_hz
        )
        w_ok = (
            abs(res.value("fwhm1_hz") - true_fwhm) <= 0.05 * true_fwhm
            and abs(res.value("fwhm2_hz") - true_fwhm) <= 0.05 * true_fwhm
        )
        if c_ok and w_ok:
            good += 1
    passed = good >= 95
    record_acceptance(
        10, passed,
        f"two-line fit recovery {good}/100 seeds within 0.5% centers / 5% widths (need 95)",
    )
    assert passed


def test_criterion_11_inversion_roundtrip(consts):
    # Clause A: 500 random fields, angles outside the near-degenerate band,
    # recovered within 0.1 G and 0.5 deg from exact line positions.
    rng = np.random.default_rng(11_2026)
    n = 500
    b_true = rng.uniform(5.0, 120.0, n) * GAUSS
    u = rng.uniform(0.0, 80.0, n)
    theta_true = np.radians(np.where(u < 50.0, u, u + 10.0))
    ok = flagged_misses = misses = 0
    for b0, th in zip(b_true, theta_true):
        tp = transition_pair(FieldVector(b0_t=b0, theta_rad=th), consts)
        res = invert_field(tp.nu1_hz, tp.nu2_hz, consts)
        if (
            abs(res.b0_t - b0) <= 0.1 * GAUSS
            and abs(math.degrees(res.theta_rad - th)) <= 0.5
        ):
            ok += 1
        else:
            misses += 1
            flagged_misses += int(res.degenerate)
    clause_a = ok == n

    # Clause B: every angle in the near-degenerate band, with 100 kHz noise on
    # the line positions, must come back carrying the degenerate flag.
    total = unflagged = 0
    for b_g in (5.0, 10.0, 20.0, 40.0, 60.0, 90.0, 120.0):
        for th_d in (52.5, 53.5, 54.5, 54.74, 55.5, 56.5):
            tp = transition_pair(
                FieldVector(b0_t=b_g * GAUSS, theta_rad=math.radians(th_d)), consts
            )
            for seed in (1, 2, 3):
                nrng = np.random.default_rng(seed * 7919 + int(b_g))
                n1 = tp.nu1_hz + nrng.normal(0.0, 1e5)
                n2 = tp.nu2_hz + nrng.normal(0.0, 1e5)
                total += 1
                try:
                    res = invert_field(min(n1, n2), max(n1, n2), consts, sigma_hz=1e5)
                except NoSolutionError:
                    unflagged += 1
                    continue
                unflagged += int(not res.degenerate)
    clause_b = unflagged == 0

    record_acceptance(
        11, clause_a and clause_b,
        f"roundtrip {ok}/{n} within 0.1 G / 0.5 deg "
        f"({flagged_misses}/{misses} misses self-flag degenerate); "
        f"noisy band flags {total - unflagged}/{total}",
    )
    assert clause_b, f"{unflagged}/{total} noisy near-band cases missing the degenerate flag"
    # Known limitation: the two lines cross near the magic angle, so a sorted
    # line pair from one side of the crossing is exactly reproduced, with the
    # lines' labels swapped, by a mirror field on the other side.  Ties
    # resolve to the smaller field, which picks
    # the wrong branch for roughly a third of the draws; those come back
    # degenerate-flagged with the rival attached rather than silently wrong.
    assert clause_a, (
        f"{ok}/{n} roundtrips inside tolerance; {flagged_misses}/{misses} misses "
        "carry the degenerate flag with the mirror solution attached"
    )


def test_criterion_12_zfs_series_flat():
    consts = PhysicalConstants(d_hz=36.6e6)
    sat, mw = SaturationParams(), MwResponseParams()
    field = FieldVector(b0_t=0.0, theta_rad=0.0)
    powers = [1.0, 2.0, 5.0, 10.0, 20.0, 40.0, 60.0, 80.0]
    spectra = []
    for k, p in enumerate(powers):
        cfg = AcquisitionConfig(
            f_start_hz=53.2e6, f_stop_hz=93.2e6, n_points=1201,
            dwell_s=30.0, laser_mw=p, mw_dbm=18.0, seed=103000 + k,
        )
        spectra.append(synthesize_spectrum(cfg, field, consts, sat, mw))
    series = fit_zfs_series(spectra, powers)
    spread = float(series.zfs_hz.max() - series.zfs_hz.min())
    bound = max(float(series.sigma_hz.max()), 0.05e6)
    mean_mhz = float(series.zfs_hz.mean()) / 1e6
    passed = bool(series.converged.all()) and spread <= bound and abs(mean_mhz - 73.2) <= 0.3
    record_acceptance(
        12, passed,
        f"fitted zero-field line spread {spread / 1e3:.1f} kHz over 1-80 mW "
        f"(bound {bound / 1e3:.1f} kHz), mean {mean_mhz:.3f} MHz",
    )
    assert series.converged.all()
    assert spread <= bound
    assert abs(mean_mhz - 73.2) <= 0.3


def test_criterion_13_numerical_hygiene():
    rng = np.random.default_rng(1313)

    # Eigen-reconstruction and orthonormality on 1000 random Hamiltonians.
    worst_rec = worst_orth = worst_trace = 0.0
    for _ in range(1000):
        consts = PhysicalConstants(
            d_hz=rng.uniform(10e6, 50e6), g_factor=rng.uniform(1.9, 2.1)
        )
        fv = FieldVector(
            b0_t=rng.uniform(0.0, 200.0 * GAUSS), theta_rad=rng.uniform(0.0, math.pi / 2)
        )
        h = build_hamiltonian(fv, consts)
        scale = float(np.max(np.abs(h.entries)))
        es = diagonalize(h)
        v = es.vectors
        rec = v @ np.diag(es.energies_hz) @ v.conj().T
        worst_rec = max(worst_rec, float(np.max(np.abs(rec - h.entries))) / scale)
        worst_orth = max(
            worst_orth, float(np.max(np.abs(v.conj().T @ v - np.eye(4))))
        )
        worst_trace = max(worst_trace, abs(float(np.trace(h.entries).real)) / scale)

    # Fit Jacobian vs central finite differences on 100 random parameter sets.
    # Step sizes follow each parameter's natural variation scale (the model
    # changes over one linewidth, not over one unit of center frequency).
    freq = np.linspace(50e6, 280e6, 200)
    worst_jac = 0.0
    for _ in range(100):
        amps = rng.uniform(1e-4, 5e-3, 2) * rng.choice((-1.0, 1.0), 2)
        params = np.array([
            rng.uniform(0.9, 1.1),
            rng.uniform(80e6, 140e6), rng.uniform(2e6, 20e6), amps[0],
            rng.uniform(180e6, 260e6), rng.uniform(2e6, 20e6), amps[1],
        ])
        steps = 1e-4 * np.array([
            1.0, params[2], params[2], abs(params[3]),
            params[5], params[5], abs(params[6]),
        ])
        _, jac = _lorentzian_model(freq, params, 2)
        for i in range(params.size):
            up, dn = params.copy(), params.copy()
            up[i] += steps[i]
            dn[i] -= steps[i]
            fd = (_lorentzian_model(freq, up, 2)[0] - _lorentzian_model(freq, dn, 2)[0]) / (2 * steps[i])
            col_scale = float(np.max(np.abs(jac[:, i])))
            worst_jac = max(worst_jac, float(np.max(np.abs(fd - jac[:, i]))) / col_scale)

    passed = (
        worst_rec <= 1e-9 and worst_orth <= 1e-12
        and worst_trace <= 1e-12 and worst_jac <= 1e-6
    )
    record_acceptance(
        13, passed,
        f"reconstruction {worst_rec:.1e} (tol 1e-9), orthonormality {worst_orth:.1e} "
        f"(tol 1e-12), trace {worst_trace:.1e} (tol 1e-12), jacobian-vs-FD "
        f"{worst_jac:.1e} (tol 1e-6); 1000/1000/1000/100 samples",
    )
    assert worst_rec <= 1e-9
    assert worst_orth <= 1e-12
    assert worst_trace <= 1e-12
    assert worst_jac <= 1e-6
