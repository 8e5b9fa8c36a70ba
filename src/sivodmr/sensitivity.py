"""Shot-noise magnetic sensitivity budgeting for CW ODMR.

eta = 0.77 * (1/gyro) * fwhm / (contrast * sqrt(rate)).  The prefactor is
the maximum-slope factor of a Lorentzian line, 4/(3 sqrt 3) = 0.770: the
line's steepest slope is 3 sqrt(3)/4 * contrast/fwhm (Dreau et al., PRB 84,
195204, 2011).  SLOPE_PREFACTOR keeps the rounded 0.77.  Sweeps against
laser power use the photo-emission saturation curve (contrast and width
held fixed), and sweeps against microwave power use the two-level
saturation response, whose figure of merit (1+s)^{3/2}/s is minimized at
s = 2, i.e. 3 dB above the saturation power.

Each input is checked once: estimate_sensitivity requires contrast,
linewidth and rate to be positive and finite, and its result finite, and
photon_rate checks the laser power.  SensitivityBudget derives its eta
from estimate_sensitivity at construction rather than taking it as an
argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .spectrum import MwResponseParams, SaturationParams, mw_response, photon_rate
from .spin_model import PhysicalConstants

SLOPE_PREFACTOR = 0.77          # 4/(3 sqrt 3), Lorentzian max-slope readout factor


def estimate_sensitivity(
    contrast: float,
    fwhm_hz: float,
    rate_cps: float,
    consts: PhysicalConstants = PhysicalConstants(),
):
    """Shot-noise-limited DC sensitivity in T/sqrt(Hz), elementwise on arrays.

    Finite inputs can still overflow eta (a huge linewidth over a tiny
    contrast); that raises ValueError instead of returning inf.
    """
    for name, value in (("contrast", contrast), ("fwhm_hz", fwhm_hz), ("rate_cps", rate_cps)):
        if not np.all((value > 0) & np.isfinite(value)):
            raise ValueError(f"{name} must be positive and finite")
    with np.errstate(over="ignore", divide="ignore"):
        eta = (
            SLOPE_PREFACTOR
            / consts.gyro_hz_per_t
            * fwhm_hz
            / (contrast * np.sqrt(rate_cps))
        )
    if not np.all(np.isfinite(eta)):
        raise ValueError(
            "sensitivity overflows a float: eta = 0.77 fwhm_hz / (gyro contrast sqrt(rate_cps)) "
            "is not finite"
        )
    return eta


@dataclass(frozen=True)
class SensitivityBudget:
    """The (C, linewidth, photon rate) triple with its derived sensitivity."""

    contrast: float
    fwhm_hz: float
    rate_cps: float
    eta_t_per_sqrt_hz: float = field(init=False)
    consts: PhysicalConstants = PhysicalConstants()

    def __post_init__(self) -> None:
        eta = estimate_sensitivity(self.contrast, self.fwhm_hz, self.rate_cps, self.consts)
        object.__setattr__(self, "eta_t_per_sqrt_hz", eta)


@dataclass(frozen=True, eq=False)
class LaserSweep:
    """Sensitivity vs laser power at fixed contrast and linewidth."""

    powers_mw: np.ndarray
    rate_cps: np.ndarray
    eta_t_per_sqrt_hz: np.ndarray


def laser_sweep_sensitivity(
    powers_mw,
    contrast: float,
    fwhm_hz: float,
    sat: SaturationParams = SaturationParams(),
    consts: PhysicalConstants = PhysicalConstants(),
) -> LaserSweep:
    """eta(P) table: the photon rate saturates, so eta falls monotonically."""
    powers = np.asarray(powers_mw, dtype=float).ravel()
    if powers.size == 0:
        raise ValueError("laser power list must not be empty")
    rates = photon_rate(powers, sat)
    return LaserSweep(powers, rates, estimate_sensitivity(contrast, fwhm_hz, rates, consts))


@dataclass(frozen=True, eq=False)
class MwSweep:
    """Sensitivity vs MW power with the broadening/contrast trade-off."""

    mw_dbm: np.ndarray
    contrast: np.ndarray
    fwhm_hz: np.ndarray
    eta_t_per_sqrt_hz: np.ndarray
    optimum_dbm: float


def mw_sweep_sensitivity(
    mw_dbm_list,
    mw: MwResponseParams = MwResponseParams(),
    rate_cps: float = 206.4e6,
    consts: PhysicalConstants = PhysicalConstants(),
) -> MwSweep:
    """eta(P_mw) table plus its argmin over the supplied grid."""
    dbm = np.asarray(mw_dbm_list, dtype=float).ravel()
    if dbm.size == 0:
        raise ValueError("mw power list must not be empty")
    contrasts, fwhms = mw_response(dbm, mw)
    etas = estimate_sensitivity(contrasts, fwhms, rate_cps, consts)
    return MwSweep(dbm, contrasts, fwhms, etas, float(dbm[int(np.argmin(etas))]))


def mw_optimum_dbm(mw: MwResponseParams = MwResponseParams()) -> float:
    """Analytic MW optimum: s* = 2, i.e. p_sat + 10 log10(2) in dBm.

    eta is proportional to (1+s)^{3/2}/s under the adopted response model
    and that ratio has a single interior minimum at s = 2.
    """
    return mw.p_sat_dbm + 10.0 * math.log10(2.0)


def project_saturation(
    eta_at_p: float, p_mw: float, sat: SaturationParams = SaturationParams()
) -> float:
    """Project a measured eta at laser power P to the saturated-count limit.

    eta scales as 1/sqrt(rate), so eta_sat = eta(P) * sqrt(I(P)/I_s).
    """
    if not (eta_at_p > 0):
        raise ValueError("eta_at_p must be positive")
    return eta_at_p * math.sqrt(photon_rate(p_mw, sat) / sat.i_s_cps)
