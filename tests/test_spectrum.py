"""Spectrum-synthesis tests with frozen numeric anchors.

Anchors (computed independently from the stated formulas):
  photon_rate(85 mW; 935 Mcps, 300 mW)  = 935e6 * 85/385 = 206_428_571.43 cps
  photon_rate(300 mW)                   = 467.5 Mcps (half of I_s)
  mw_response(18 dBm; 2.7e-3, 7.5 MHz, 16 dBm):
      s = 10^0.2 = 1.5848932 -> contrast 1.65547e-3, fwhm 12.0582 MHz
  two peaks (98.148 / 238.148 MHz, 13 MHz, 1.8e-3) at 98.148 MHz:
      1.8e-3 + 1.8e-3/(1 + (140/6.5)^2) = 1.803872e-3
  shot noise at 206.43 Mcps, 10 ms: sigma = 1/sqrt(2.0642857e6) = 6.9601e-4
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest

import sivodmr.spectrum
from sivodmr.fitting import COARSE_POINTS, fit_lorentzian_multi
from sivodmr.spectrum import (
    _BLOCK,
    AcquisitionConfig,
    MwResponseParams,
    OdmrSpectrum,
    SaturationParams,
    _lorentzian_model,
    mw_response,
    photon_rate,
    shot_noise_sigma,
    synthesize_spectrum,
)
from sivodmr.spin_model import FieldVector, transition_pair

GAUSS = 1e-4


def _lines(f_hz, *peaks):
    """The shared line model on zero baseline: one (center, fwhm, amp) per peak."""
    params = np.array([0.0] + [x for peak in peaks for x in peak])
    return _lorentzian_model(np.array(f_hz, dtype=float, ndmin=1), params, len(peaks))[0]


def test_lorentzian_center_and_half_width():
    peak = (1.0e8, 13e6, 1.8e-3)
    assert _lines(1.0e8, peak)[0] == pytest.approx(1.8e-3, rel=1e-12)
    assert _lines(1.0e8 + 6.5e6, peak)[0] == pytest.approx(0.9e-3, rel=1e-12)
    assert _lines(1.0e8 - 6.5e6, peak)[0] == pytest.approx(0.9e-3, rel=1e-12)


def test_lorentzian_two_peak_sum_anchor():
    total = _lines(98.148e6, (98.148e6, 13e6, 1.8e-3), (238.148e6, 13e6, 1.8e-3))[0]
    assert total == pytest.approx(1.803872e-3, rel=1e-5)


def test_lorentzian_vectorized_and_validated():
    f = np.array([0.9e8, 1.0e8, 1.1e8])
    vals = _lines(f, (1.0e8, 10e6, 2e-3))
    assert vals.shape == (3,)
    assert vals[1] == pytest.approx(2e-3)
    assert vals[0] == vals[2]


def test_photon_rate_anchors():
    sat = SaturationParams()
    assert sat.i_s_cps == 935e6 and sat.p0_mw == 300.0
    assert photon_rate(300.0, sat) == pytest.approx(467.5e6, rel=1e-12)
    assert photon_rate(85.0, sat) == pytest.approx(206_428_571.43, rel=1e-9)
    assert photon_rate(1e6, sat) == pytest.approx(935e6, rel=1e-3)
    with pytest.raises(ValueError):
        photon_rate(0.0, sat)
    with pytest.raises(ValueError):
        photon_rate(-5.0, sat)


def test_photon_rate_monotone_concave():
    sat = SaturationParams()
    p = np.linspace(1.0, 500.0, 200)
    rates = np.array([photon_rate(x, sat) for x in p])
    assert np.all(np.diff(rates) > 0)
    assert np.all(np.diff(rates, 2) <= 0)


def test_saturation_params_validation():
    with pytest.raises(ValueError):
        SaturationParams(i_s_cps=0.0)
    with pytest.raises(ValueError):
        SaturationParams(p0_mw=-1.0)


def test_mw_response_at_saturation_power():
    params = MwResponseParams()
    contrast, fwhm = mw_response(params.p_sat_dbm, params)
    assert contrast == pytest.approx(params.c_max / 2.0, rel=1e-12)
    assert fwhm == pytest.approx(params.fwhm0_hz * math.sqrt(2.0), rel=1e-12)


def test_mw_response_weak_drive_limit():
    params = MwResponseParams()
    contrast, fwhm = mw_response(params.p_sat_dbm - 60.0, params)
    assert contrast < 1e-3 * params.c_max * 2
    assert fwhm == pytest.approx(params.fwhm0_hz, rel=1e-5)


def test_mw_response_anchor_18_dbm():
    contrast, fwhm = mw_response(18.0, MwResponseParams())
    assert contrast == pytest.approx(1.65547e-3, rel=1e-5)
    assert fwhm == pytest.approx(12.0582e6, rel=1e-5)


def test_mw_response_strictly_increasing():
    params = MwResponseParams()
    dbm = np.linspace(-10.0, 30.0, 100)
    pairs = [mw_response(x, params) for x in dbm]
    contrast = np.array([p[0] for p in pairs])
    fwhm = np.array([p[1] for p in pairs])
    assert np.all(np.diff(contrast) > 0)
    assert np.all(np.diff(fwhm) > 0)


def test_mw_response_params_validation():
    with pytest.raises(ValueError):
        MwResponseParams(c_max=0.0)
    with pytest.raises(ValueError):
        MwResponseParams(c_max=1.5)
    with pytest.raises(ValueError):
        MwResponseParams(fwhm0_hz=-1.0)
    with pytest.raises(ValueError, match="p_sat_dbm"):
        MwResponseParams(p_sat_dbm=math.nan)


def test_acquisition_config_validation():
    with pytest.raises(ValueError):
        AcquisitionConfig(2e8, 1e8, 100)
    with pytest.raises(ValueError):
        AcquisitionConfig(1e8, 2e8, 1)
    with pytest.raises(ValueError):
        AcquisitionConfig(1e8, 2e8, 100, dwell_s=0.0)
    with pytest.raises(ValueError):
        AcquisitionConfig(1e8, 2e8, 100, laser_mw=0.0)
    with pytest.raises(ValueError, match="mw_dbm"):
        AcquisitionConfig(1e8, 2e8, 100, mw_dbm=math.inf)


def test_odmr_spectrum_validation():
    with pytest.raises(ValueError):
        OdmrSpectrum(np.array([1.0, 2.0, 2.0]), np.zeros(3))
    with pytest.raises(ValueError):
        OdmrSpectrum(np.array([1.0, 2.0]), np.zeros(3))
    with pytest.raises(ValueError):
        OdmrSpectrum(np.array([1.0, 2.0]), np.array([0.0, math.nan]))


def reference_spectrum_error(freq, signal):
    """The message of the grid and signal checks, written as plain passes."""
    if freq.size < 2 or np.any(np.diff(freq) <= 0):
        return "frequency grid must be strictly increasing"
    if not (np.all(np.isfinite(freq)) and np.all(np.isfinite(signal))):
        return "frequencies and signals must be finite"
    return None


def test_odmr_spectrum_checks_match_the_plain_passes():
    nan, inf = math.nan, math.inf
    cases = [
        ([1.0, nan, 3.0], [0.0, 0.0, 0.0]),     # NaN in an increasing grid
        ([1.0, 2.0, 3.0], [0.0, nan, 0.0]),     # NaN in the signal
        ([1.0, 3.0, 2.0], [0.0, 0.0, 0.0]),     # a non-increasing grid
        ([1.0, 2.0, 2.0], [0.0, 0.0, 0.0]),     # a repeated frequency
        ([2.0, 1.0, nan], [0.0, 0.0, 0.0]),     # both: the order is reported
        ([3.0, nan, 1.0], [0.0, 0.0, 0.0]),     # a NaN hides the fall
        ([-inf, 1.0, 2.0], [0.0, 0.0, 0.0]),    # infinities at either end
        ([1.0, 2.0, inf], [0.0, 0.0, 0.0]),
        ([inf, inf], [0.0, 0.0]),
        ([1.0, 2.0], [inf, 0.0]),
        ([1.0], [0.0]),
        ([], []),
    ]
    rng = np.random.default_rng(8)
    for _ in range(200):
        freq = np.cumsum(rng.uniform(-0.05, 1.0, 12))
        signal = rng.normal(size=12)
        for arr in (freq, signal):
            if rng.uniform() < 0.4:
                arr[rng.integers(12)] = rng.choice([nan, inf, -inf])
        cases.append((freq, signal))
    for freq, signal in cases:
        freq, signal = np.array(freq, dtype=float), np.array(signal, dtype=float)
        # both difference inf - inf, as the checks always have
        with np.errstate(invalid="ignore"):
            want = reference_spectrum_error(freq, signal)
            if want is None:
                OdmrSpectrum(freq, signal)
                continue
            with pytest.raises(ValueError) as err:
                OdmrSpectrum(freq, signal)
        assert str(err.value) == want, (freq, signal)


def test_noiseless_spectrum_is_exact_lorentzian_sum(consts):
    cfg = AcquisitionConfig(50e6, 280e6, 461, mw_dbm=18.0)
    field = FieldVector(60 * GAUSS, 0.0)
    spec = synthesize_spectrum(cfg, field, consts)
    contrast, fwhm = mw_response(18.0)
    pair = transition_pair(field, consts)
    # the closed form written out, not the model that synthesis calls
    f = spec.freq_hz
    expect = contrast / (1.0 + ((f - pair.nu1_hz) / (fwhm / 2.0)) ** 2) + contrast / (
        1.0 + ((f - pair.nu2_hz) / (fwhm / 2.0)) ** 2
    )
    assert np.max(np.abs(spec.signal - expect)) <= 1e-12
    assert spec.meta is not None and spec.meta.off_grid_warning is False


def test_zero_field_merged_dip_depth(consts):
    # grid chosen so 70 MHz is exactly on a grid point
    cfg = AcquisitionConfig(40e6, 100e6, 61, mw_dbm=18.0)
    spec = synthesize_spectrum(cfg, FieldVector(0.0, 0.0), consts)
    contrast, _ = mw_response(18.0)
    k = int(np.argmax(spec.signal))
    assert spec.freq_hz[k] == pytest.approx(70e6, abs=1.0)
    assert spec.signal[k] == pytest.approx(2.0 * contrast, rel=1e-9)


def test_axial_60g_extrema_near_model_lines(consts):
    cfg = AcquisitionConfig(50e6, 280e6, 461)
    spec = synthesize_spectrum(cfg, FieldVector(60 * GAUSS, 0.0), consts)
    s = spec.signal
    interior = (s[1:-1] > s[:-2]) & (s[1:-1] > s[2:])
    peaks = np.where(interior)[0] + 1
    assert peaks.size == 2
    step = spec.freq_hz[1] - spec.freq_hz[0]
    got = np.sort(spec.freq_hz[peaks])
    assert abs(got[0] - 98.148087e6) <= step / 2
    assert abs(got[1] - 238.148087e6) <= step / 2


def test_shot_noise_sigma_anchor():
    assert shot_noise_sigma(206_428_571.43, 10e-3) == pytest.approx(6.9601e-4, rel=1e-4)
    with pytest.raises(ValueError):
        shot_noise_sigma(0.0, 1e-2)


def test_seeded_noise_statistics_and_reproducibility(consts):
    cfg = AcquisitionConfig(50e6, 280e6, 100_000, laser_mw=85.0, dwell_s=10e-3, seed=42)
    field = FieldVector(0.0, 0.0)  # lines far below grid: almost pure noise window
    spec_a = synthesize_spectrum(cfg, field, consts)
    spec_b = synthesize_spectrum(cfg, field, consts)
    assert np.array_equal(spec_a.signal, spec_b.signal)

    noiseless = synthesize_spectrum(
        AcquisitionConfig(50e6, 280e6, 100_000, laser_mw=85.0, dwell_s=10e-3), field, consts
    )
    noise = spec_a.signal - noiseless.signal
    sigma = shot_noise_sigma(photon_rate(85.0), 10e-3)
    assert np.std(noise) == pytest.approx(sigma, rel=0.02)
    assert abs(np.mean(noise)) < 5 * sigma / math.sqrt(noise.size)

    other = synthesize_spectrum(
        AcquisitionConfig(50e6, 280e6, 100_000, laser_mw=85.0, dwell_s=10e-3, seed=43),
        field,
        consts,
    )
    assert not np.array_equal(spec_a.signal, other.signal)


def test_off_grid_warning(consts):
    cfg = AcquisitionConfig(120e6, 200e6, 81)
    spec = synthesize_spectrum(cfg, FieldVector(60 * GAUSS, 0.0), consts)
    assert spec.meta.off_grid_warning is True
    cfg_wide = AcquisitionConfig(50e6, 280e6, 81)
    spec_wide = synthesize_spectrum(cfg_wide, FieldVector(60 * GAUSS, 0.0), consts)
    assert spec_wide.meta.off_grid_warning is False


@pytest.mark.parametrize("n_points", [461, 4_601, 92_001])
def test_noiseless_spectrum_is_a_fixed_point_of_the_fit(consts, n_points):
    # synthesis and the fit evaluate one line model, so a fit started at the
    # synthesis vector has nothing to move; 92 001 points first fit binned
    # data, which starts the full-resolution stage a little off that vector
    cfg = AcquisitionConfig(50e6, 280e6, n_points, mw_dbm=18.0)
    field = FieldVector(40 * GAUSS, 0.6)
    contrast, fwhm = mw_response(18.0)
    pair = transition_pair(field, consts)
    truth = np.array([0.0, pair.nu1_hz, fwhm, contrast, pair.nu2_hz, fwhm, contrast])
    res = fit_lorentzian_multi(synthesize_spectrum(cfg, field, consts), 2, init=truth)
    assert res.converged
    if n_points < 2 * COARSE_POINTS:
        assert np.array_equal(res.values, truth)
        assert res.residual_rms == 0.0
        assert res.iterations == 1
    else:
        lines = [1, 2, 4, 5]
        assert np.max(np.abs(res.values[lines] - truth[lines])) <= 1e-6


def test_synthesis_reaches_the_lines_through_the_module_name(consts, monkeypatch):
    # the benchmark times the line pair of each synthesis by replacing
    # sivodmr.spectrum.transition_pair, so synthesis must call that name
    calls = []

    def recorder(field, *args, **kwargs):
        calls.append(field)
        return transition_pair(field, *args, **kwargs)

    monkeypatch.setattr(sivodmr.spectrum, "transition_pair", recorder)
    field = FieldVector(60 * GAUSS, 0.3)
    synthesize_spectrum(AcquisitionConfig(50e6, 280e6, 461), field, consts)
    synthesize_spectrum(AcquisitionConfig(50e6, 280e6, 461, seed=1), field, consts)
    assert calls == [field, field]


@pytest.mark.parametrize("n_peaks", [1, 2])
def test_lorentzian_values_only_path_is_bit_equal(rng, n_peaks):
    freq = np.linspace(50e6, 280e6, 4601)
    for _ in range(10):
        params = [rng.normal(0, 1e-3)]
        for _ in range(n_peaks):
            params += [rng.uniform(60e6, 270e6), rng.uniform(1e6, 30e6), rng.uniform(-3e-3, 3e-3)]
        params = np.array(params)
        model, jac = _lorentzian_model(freq, params, n_peaks, jacobian=False)
        assert jac is None
        assert np.array_equal(model, _lorentzian_model(freq, params, n_peaks)[0])


def test_synthesis_asks_for_no_jacobian(consts, monkeypatch):
    jacobian_flags = []

    def spy(freq, params, n_peaks, **kwargs):
        jacobian_flags.append(kwargs.get("jacobian", True))
        return _lorentzian_model(freq, params, n_peaks, **kwargs)

    monkeypatch.setattr(sivodmr.spectrum, "_lorentzian_model", spy)
    field = FieldVector(60 * GAUSS, 0.3)
    synthesize_spectrum(AcquisitionConfig(50e6, 280e6, 461), field, consts)
    synthesize_spectrum(AcquisitionConfig(50e6, 280e6, 461, seed=1), field, consts)
    assert jacobian_flags == [False, False]


def test_blocked_synthesis_is_bit_equal_to_the_fit_model_at_the_true_lines(consts):
    # synthesis writes blocks of _BLOCK points, the Jacobian path one array;
    # every operation is elementwise, so they agree bit for bit, and a
    # noiseless fit started at its own lines has a residual of exactly 0
    # and stays there
    cfgs = [AcquisitionConfig(50e6, 280e6, n) for n in (2 * _BLOCK + 7, 4601)]
    contrast, fwhm = mw_response(cfgs[0].mw_dbm)
    for k in range(10):
        field = FieldVector((55 + 2 * k) * GAUSS, 0.15 * k)
        pair = transition_pair(field, consts)
        lines = np.array([0.0, pair.nu1_hz, fwhm, contrast, pair.nu2_hz, fwhm, contrast])
        for cfg in cfgs:
            spec = synthesize_spectrum(cfg, field, consts)
            assert not spec.meta.off_grid_warning
            assert np.array_equal(spec.signal, _lorentzian_model(spec.freq_hz, lines, 2)[0])
        res = fit_lorentzian_multi(spec, 2, init=lines)
        assert res.converged and res.residual_rms == 0.0
        assert np.array_equal(res.values, lines)


@pytest.mark.parametrize("n_points", [2, 401, _BLOCK, _BLOCK + 1, 92001])
@pytest.mark.parametrize("seed", [None, 3502])
@pytest.mark.parametrize("band_hz", [(50e6, 280e6), (82_855_707.6, 526_760_638.3)])
def test_blocked_synthesis_is_bit_equal_to_linspace_and_one_normal_draw(
    consts, n_points, seed, band_hz
):
    # the grid is filled and the noise drawn block by block; both must be
    # what np.linspace and one rng.normal(0, sigma, n) draw give, bit for bit.
    # On the second band f_start + (n - 1) * step misses f_stop at each n,
    # so the last point must be f_stop itself, as np.linspace sets it
    cfg = AcquisitionConfig(*band_hz, n_points, laser_mw=85.0, seed=seed)
    field = FieldVector(60 * GAUSS, 0.3)
    spec = synthesize_spectrum(cfg, field, consts)
    freq = np.linspace(cfg.f_start_hz, cfg.f_stop_hz, n_points)
    pair = transition_pair(field, consts)
    contrast, fwhm = mw_response(cfg.mw_dbm)
    lines = np.array([0.0, pair.nu1_hz, fwhm, contrast, pair.nu2_hz, fwhm, contrast])
    signal = _lorentzian_model(freq, lines, 2, jacobian=False)[0]
    if seed is not None:
        sigma = shot_noise_sigma(photon_rate(cfg.laser_mw), cfg.dwell_s)
        signal = signal + np.random.default_rng(seed).normal(0.0, sigma, n_points)
    assert np.array_equal(spec.freq_hz, freq)
    assert np.array_equal(spec.signal, signal)


def test_synthesis_allocates_little_beyond_its_spectrum(consts):
    # the grid and signal are the only full-size arrays: at 92 001 points
    # they take 1.40 MiB, and the blocks' temporaries about 0.4 MiB more
    # (a full-size grid, signal and noise draw took 2.11 MiB)
    cfg = AcquisitionConfig(50e6, 280e6, 92001, laser_mw=85.0, seed=3503)
    field = FieldVector(60 * GAUSS, 0.3)
    synthesize_spectrum(cfg, field, consts)
    tracemalloc.start()
    try:
        spec = synthesize_spectrum(cfg, field, consts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert spec.freq_hz.size == 92001
    assert peak <= 2.0 * 2**20
