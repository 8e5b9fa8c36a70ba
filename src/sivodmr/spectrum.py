"""Forward synthesis of ODMR spectra.

Composes the spin-model resonance frequencies with Lorentzian line shapes,
a laser-power saturation curve for the photon rate, a microwave-power
response for contrast and linewidth, and an effective shot-noise floor.

Sign convention: dips are stored as positive contrast, signal = dPL/PL >= 0
on a zero baseline; plotting layers may invert for display.

The per-point noise model sigma = 1/sqrt(R * dwell) folds all detection
electronics into one effective Gaussian floor; the true noise budget of a
real instrument (lock-in time constant, detector gain) is not modeled.

The line shape is written once, in _lorentzian_model: synthesis evaluates
it and fitting.py fits it.  Its Jacobian is built parameter-major, one
contiguous row per parameter handed out as the (n, n_params) transpose
view, because writing strided columns of an (n, n_params) array cost more
than the model's arithmetic.  Both callers evaluate it in blocks of at
most _BLOCK points, each written into a caller's array (out=): synthesis
into its signal, the fit into one (2 + 3 n_peaks, _BLOCK) buffer whose
rows it multiplies out block by block, so no full-size Jacobian or
temporary exists and each block stays in cache from model to product.
Synthesis asks for the values only (jacobian=False), which keep the
Jacobian path's operation order; every operation is elementwise, so a
synthesised spectrum is bit-equal to the fit's model at the true lines,
whatever the blocks.

Synthesis allocates the grid and the signal as the two rows of one
(2, n) array, and that array is its only full-size allocation: each
block's grid points are np.linspace's, bit for bit, and its noise is
drawn into one block buffer by standard_normal and scaled by sigma,
which is bit-equal to one rng.normal(0, sigma, n) draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spin_model import FieldVector, PhysicalConstants, transition_pair

DEFAULT_I_S_CPS = 935.0e6   # saturation count rate (cps)
DEFAULT_P0_MW = 300.0       # laser saturation power (mW)
DEFAULT_C_MAX = 2.7e-3      # asymptotic ODMR contrast
DEFAULT_FWHM0_HZ = 7.5e6    # unbroadened linewidth (Hz)
DEFAULT_P_SAT_DBM = 16.0    # MW saturation power (dBm)
DEFAULT_LASER_MW = 60.0     # acquisition laser power (mW)
DEFAULT_MW_DBM = 18.0       # acquisition MW power (dBm)
DEFAULT_DWELL_S = 10e-3     # dwell per frequency point (s)

# points per line-shape evaluation: a fit's (8, _BLOCK) buffer is 1 MiB, which
# stays in a core's L2 cache (BENCH_28.json times the sizes around it)
_BLOCK = 16384


@dataclass(frozen=True)
class SaturationParams:
    """Photon-rate saturation curve parameters I(P) = I_s / (1 + P0/P)."""

    i_s_cps: float = DEFAULT_I_S_CPS
    p0_mw: float = DEFAULT_P0_MW

    def __post_init__(self) -> None:
        if not (self.i_s_cps > 0 and math.isfinite(self.i_s_cps)):
            raise ValueError(f"i_s_cps must be positive, got {self.i_s_cps}")
        if not (self.p0_mw > 0 and math.isfinite(self.p0_mw)):
            raise ValueError(f"p0_mw must be positive, got {self.p0_mw}")


@dataclass(frozen=True)
class MwResponseParams:
    """Microwave saturation model: contrast c_max*s/(1+s), width fwhm0*sqrt(1+s).

    s is the dimensionless drive saturation 10^((P_dbm - p_sat_dbm)/10).
    """

    c_max: float = DEFAULT_C_MAX
    fwhm0_hz: float = DEFAULT_FWHM0_HZ
    p_sat_dbm: float = DEFAULT_P_SAT_DBM

    def __post_init__(self) -> None:
        if not (0.0 < self.c_max < 1.0):
            raise ValueError(f"c_max must lie in (0, 1), got {self.c_max}")
        if not (self.fwhm0_hz > 0 and math.isfinite(self.fwhm0_hz)):
            raise ValueError(f"fwhm0_hz must be positive, got {self.fwhm0_hz}")
        if not math.isfinite(self.p_sat_dbm):
            raise ValueError(f"p_sat_dbm must be finite, got {self.p_sat_dbm}")


@dataclass(frozen=True)
class AcquisitionConfig:
    """Sweep grid, powers and integration time for one synthetic acquisition.

    seed = None means noiseless; any integer seed adds reproducible Gaussian
    noise with sigma = 1/sqrt(photon_rate * dwell_s) per point.
    """

    f_start_hz: float
    f_stop_hz: float
    n_points: int
    dwell_s: float = DEFAULT_DWELL_S
    laser_mw: float = DEFAULT_LASER_MW
    mw_dbm: float = DEFAULT_MW_DBM
    seed: int | None = None

    def __post_init__(self) -> None:
        if not (self.f_stop_hz > self.f_start_hz):
            raise ValueError("f_stop_hz must exceed f_start_hz")
        if int(self.n_points) != self.n_points or self.n_points < 2:
            raise ValueError(f"n_points must be an integer >= 2, got {self.n_points}")
        if not (self.dwell_s > 0 and math.isfinite(self.dwell_s)):
            raise ValueError(f"dwell_s must be positive, got {self.dwell_s}")
        if not (self.laser_mw > 0 and math.isfinite(self.laser_mw)):
            raise ValueError(f"laser_mw must be positive, got {self.laser_mw}")
        if not math.isfinite(self.mw_dbm):
            raise ValueError(f"mw_dbm must be finite, got {self.mw_dbm}")


@dataclass(frozen=True)
class SpectrumMeta:
    """Acquisition snapshot carried with a synthesized spectrum.

    off_grid_warning is set when at least one model resonance falls outside
    the frequency grid (the spectrum is still produced).
    """

    acquisition: AcquisitionConfig
    field: FieldVector
    consts: PhysicalConstants
    off_grid_warning: bool = False


@dataclass(frozen=True)
class OdmrSpectrum:
    """Frequency grid plus normalized signal, with optional acquisition meta."""

    freq_hz: np.ndarray
    signal: np.ndarray
    meta: SpectrumMeta | None = None

    def __post_init__(self) -> None:
        f = np.asarray(self.freq_hz, dtype=float)
        s = np.asarray(self.signal, dtype=float)
        if f.ndim != 1 or f.shape != s.shape:
            raise ValueError("freq_hz and signal must be matching 1-D arrays")
        # one comparison pass over the grid: a NaN fails it too, so only a
        # grid that fails it is differenced to tell the two faults apart,
        # and a grid that passes can hold an infinity only at its ends
        increasing = f.size >= 2 and bool((f[1:] > f[:-1]).all())
        if not increasing and (f.size < 2 or (np.diff(f) <= 0).any()):
            raise ValueError("frequency grid must be strictly increasing")
        if not (increasing and math.isfinite(f[0]) and math.isfinite(f[-1])
                and np.isfinite(s).all()):
            raise ValueError("frequencies and signals must be finite")
        object.__setattr__(self, "freq_hz", f)
        object.__setattr__(self, "signal", s)


def _lorentzian_model(
    freq: np.ndarray,
    params: np.ndarray,
    n_peaks: int,
    *,
    jacobian: bool = True,
    out: np.ndarray | None = None,
):
    """Model values and Jacobian: baseline + sum of Lorentzians.

    Parameter layout: [baseline, center1, fwhm1, amp1, (center2, fwhm2, amp2)].
    Returns (model, J).  The result is written into out when given, which
    every call overwrites whole, else into a fresh array: with jacobian=True
    a (2 + 3 n_peaks, n) array of contiguous rows whose leading rows take
    the Jacobian, parameter by parameter, and whose last row the model,
    so that J is the transpose view of the leading rows and the model a view
    of the last; with jacobian=False the n model values, and J is None.
    The values are bit-equal on both paths: both compute u = f - f0,
    u /= w/2, den = u*u + 1 and a/den in that order.
    """
    if not jacobian:
        model = np.empty(freq.size) if out is None else out
        model.fill(params[0])
        for k in range(n_peaks):
            f0, w, a = params[1 + 3 * k : 4 + 3 * k]
            u = freq - f0
            u /= w / 2.0
            den = np.multiply(u, u, out=u)
            den += 1.0
            model += np.divide(a, den, out=den)
        return model, None
    rows = np.empty((2 + 3 * n_peaks, freq.size)) if out is None else out
    model = rows[-1]
    model.fill(params[0])
    rows[0] = 1.0
    for k in range(n_peaks):
        f0, w, a = params[1 + 3 * k : 4 + 3 * k]
        d_center, d_fwhm, d_amp = rows[1 + 3 * k : 4 + 3 * k]
        # den lives in the amp row and w * den * den in the center row until
        # each is overwritten last; every product keeps the order of
        # 4a u / (w den den), 2a u u / (w den den) and 1 / den.
        u = freq - f0
        u /= w / 2.0
        den = np.multiply(u, u, out=d_amp)
        den += 1.0
        model += a / den
        wden2 = np.multiply(den, w, out=d_center)
        wden2 *= den
        np.multiply(u, 2.0 * a, out=d_fwhm)
        d_fwhm *= u
        d_fwhm /= wden2
        np.divide(1.0, den, out=d_amp)
        u *= 4.0 * a
        np.divide(u, wden2, out=d_center)
    return model, rows[:-1].T


def photon_rate(laser_mw, sat: SaturationParams = SaturationParams()):
    """Detected photon rate I(P) = I_s / (1 + P0/P) in counts per second.

    Elementwise on an array of powers; every power must be positive and finite.
    """
    if not np.all((laser_mw > 0) & np.isfinite(laser_mw)):
        raise ValueError(f"laser power must be positive, got {laser_mw}")
    return sat.i_s_cps / (1.0 + sat.p0_mw / laser_mw)


def mw_response(mw_dbm, params: MwResponseParams = MwResponseParams()):
    """(contrast, fwhm_hz) at the given microwave power, elementwise on arrays.

    Two-level saturation: contrast saturates as s/(1+s) while the line
    power-broadens as sqrt(1+s); both grow monotonically with drive.  A
    power whose s overflows a float raises ValueError naming mw_dbm.
    """
    try:
        with np.errstate(over="raise"):
            s = 10.0 ** ((mw_dbm - params.p_sat_dbm) / 10.0)
    except (OverflowError, FloatingPointError):
        # OverflowError from a Python float, FloatingPointError from numpy
        raise ValueError(
            f"mw_dbm too large: drive saturation 10^((mw_dbm - {params.p_sat_dbm:g})/10) "
            f"overflows at {np.max(mw_dbm):g} dBm"
        ) from None
    contrast = params.c_max * s / (1.0 + s)
    fwhm_hz = params.fwhm0_hz * np.sqrt(1.0 + s)
    return contrast, fwhm_hz


def shot_noise_sigma(rate_cps: float, dwell_s: float) -> float:
    """Effective per-point noise on the normalized signal, 1/sqrt(R * dwell)."""
    if not (rate_cps > 0 and dwell_s > 0):
        raise ValueError("rate and dwell must be positive")
    return 1.0 / math.sqrt(rate_cps * dwell_s)


def synthesize_spectrum(
    cfg: AcquisitionConfig,
    field: FieldVector,
    consts: PhysicalConstants = PhysicalConstants(),
    sat: SaturationParams = SaturationParams(),
    mwparams: MwResponseParams = MwResponseParams(),
) -> OdmrSpectrum:
    """Forward-model one ODMR sweep.

    Baseline 0 plus one Lorentzian per model resonance, both lines sharing
    the (contrast, fwhm) of mw_response(cfg.mw_dbm).  With a seed the signal
    gains i.i.d. Gaussian noise at the shot-noise floor of the laser power;
    output is bit-reproducible for a fixed seed.  A resonance outside the
    grid only raises the off_grid_warning flag in the meta.
    """
    pair = transition_pair(field, consts)
    contrast, fwhm_hz = mw_response(cfg.mw_dbm, mwparams)
    lines = np.array([0.0, pair.nu1_hz, fwhm_hz, contrast, pair.nu2_hz, fwhm_hz, contrast])
    n = int(cfg.n_points)
    freq, signal = np.empty((2, n))
    # np.linspace's points, f_start + k * step with the last one f_stop itself
    # (a step that underflows to 0, where np.linspace divides before it
    # multiplies, has repeated points, which OdmrSpectrum refuses either way)
    step = (cfg.f_stop_hz - cfg.f_start_hz) / (n - 1)
    if cfg.seed is not None:
        sigma = shot_noise_sigma(photon_rate(cfg.laser_mw, sat), cfg.dwell_s)
        rng = np.random.default_rng(cfg.seed)
        noise = np.empty(min(n, _BLOCK))
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        grid = freq[block]
        np.multiply(np.arange(start, start + grid.size), step, out=grid)
        grid += cfg.f_start_hz
        if start + grid.size == n:
            grid[-1] = cfg.f_stop_hz
        _lorentzian_model(grid, lines, 2, jacobian=False, out=signal[block])
        if cfg.seed is not None:
            # the standard normals of rng.normal(0, sigma, n), in its order
            draw = rng.standard_normal(out=noise[: grid.size])
            draw *= sigma
            signal[block] += draw
    covered = (
        cfg.f_start_hz <= pair.nu1_hz <= cfg.f_stop_hz
        and cfg.f_start_hz <= pair.nu2_hz <= cfg.f_stop_hz
    )
    meta = SpectrumMeta(cfg, field, consts, off_grid_warning=not covered)
    return OdmrSpectrum(freq, signal, meta)
