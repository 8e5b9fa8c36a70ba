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

import numpy as np
import pytest

from sivodmr.spectrum import (
    AcquisitionConfig,
    LorentzianPeak,
    MwResponseParams,
    OdmrSpectrum,
    SaturationParams,
    lorentzian_value,
    mw_response,
    photon_rate,
    shot_noise_sigma,
    synthesize_spectrum,
)
from sivodmr.spin_model import FieldVector

GAUSS = 1e-4


def test_lorentzian_center_and_half_width():
    peak = LorentzianPeak(1.0e8, 13e6, 1.8e-3)
    assert lorentzian_value(peak, 1.0e8) == pytest.approx(1.8e-3, rel=1e-12)
    assert lorentzian_value(peak, 1.0e8 + 6.5e6) == pytest.approx(0.9e-3, rel=1e-12)
    assert lorentzian_value(peak, 1.0e8 - 6.5e6) == pytest.approx(0.9e-3, rel=1e-12)


def test_lorentzian_two_peak_sum_anchor():
    p1 = LorentzianPeak(98.148e6, 13e6, 1.8e-3)
    p2 = LorentzianPeak(238.148e6, 13e6, 1.8e-3)
    total = lorentzian_value(p1, 98.148e6) + lorentzian_value(p2, 98.148e6)
    assert total == pytest.approx(1.803872e-3, rel=1e-5)


def test_lorentzian_vectorized_and_validated():
    peak = LorentzianPeak(1.0e8, 10e6, 2e-3)
    f = np.array([0.9e8, 1.0e8, 1.1e8])
    vals = lorentzian_value(peak, f)
    assert vals.shape == (3,)
    assert vals[1] == pytest.approx(2e-3)
    assert vals[0] == vals[2]
    with pytest.raises(ValueError):
        LorentzianPeak(1.0e8, 0.0, 1e-3)
    with pytest.raises(ValueError):
        LorentzianPeak(1.0e8, 1e6, math.inf)
    with pytest.raises(ValueError, match="center_hz"):
        LorentzianPeak(math.nan, 1e6, 1e-3)


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


def test_noiseless_spectrum_is_exact_lorentzian_sum(consts):
    cfg = AcquisitionConfig(50e6, 280e6, 461, mw_dbm=18.0)
    field = FieldVector(60 * GAUSS, 0.0)
    spec = synthesize_spectrum(cfg, field, consts)
    contrast, fwhm = mw_response(18.0)
    from sivodmr.spin_model import transition_pair

    pair = transition_pair(field, consts)
    expect = lorentzian_value(
        LorentzianPeak(pair.nu1_hz, fwhm, contrast), spec.freq_hz
    ) + lorentzian_value(LorentzianPeak(pair.nu2_hz, fwhm, contrast), spec.freq_hz)
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
