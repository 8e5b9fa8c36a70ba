"""Flat key = value run configuration shared by all CLI commands.

Precedence: built-in defaults, then the file named by the ODMR_CONFIG
environment variable, then an explicit --config path.  Unknown keys are
rejected rather than ignored so typos fail loudly.
"""

import os
from dataclasses import dataclass, fields, replace

from .inversion import DEFAULT_B_MAX_T
from .spectrum import (
    DEFAULT_C_MAX,
    DEFAULT_DWELL_S,
    DEFAULT_FWHM0_HZ,
    DEFAULT_I_S_CPS,
    DEFAULT_LASER_MW,
    DEFAULT_MW_DBM,
    DEFAULT_P0_MW,
    DEFAULT_P_SAT_DBM,
    AcquisitionConfig,
    MwResponseParams,
    SaturationParams,
)
from .spin_model import DEFAULT_D_HZ, DEFAULT_G_FACTOR, PhysicalConstants

ENV_VAR = "ODMR_CONFIG"
GAUSS_PER_T = 1e4


class ConfigError(ValueError):
    """Malformed config file or unknown/invalid key."""


@dataclass(frozen=True)
class RunConfig:
    """CLI-facing defaults in bench units (MHz, gauss, mW, dBm, ms).

    The physical and acquisition defaults are the library's own, converted
    to bench units; only the frequency grid is the CLI's.
    """

    d_mhz: float = DEFAULT_D_HZ / 1e6
    g_factor: float = DEFAULT_G_FACTOR
    i_s_mcps: float = DEFAULT_I_S_CPS / 1e6
    p0_mw: float = DEFAULT_P0_MW
    c_max: float = DEFAULT_C_MAX
    fwhm0_mhz: float = DEFAULT_FWHM0_HZ / 1e6
    p_sat_dbm: float = DEFAULT_P_SAT_DBM
    laser_mw: float = DEFAULT_LASER_MW
    mw_dbm: float = DEFAULT_MW_DBM
    fmin_mhz: float = 50.0
    fmax_mhz: float = 280.0
    points: int = 461
    dwell_ms: float = DEFAULT_DWELL_S * 1e3
    b_max_gauss: float = DEFAULT_B_MAX_T * GAUSS_PER_T

    def consts(self) -> PhysicalConstants:
        return PhysicalConstants(d_hz=self.d_mhz * 1e6, g_factor=self.g_factor)

    def saturation(self) -> SaturationParams:
        return SaturationParams(i_s_cps=self.i_s_mcps * 1e6, p0_mw=self.p0_mw)

    def mw(self) -> MwResponseParams:
        return MwResponseParams(
            c_max=self.c_max, fwhm0_hz=self.fwhm0_mhz * 1e6, p_sat_dbm=self.p_sat_dbm
        )

    def acquisition(self, seed: int | None = None) -> AcquisitionConfig:
        return AcquisitionConfig(
            f_start_hz=self.fmin_mhz * 1e6,
            f_stop_hz=self.fmax_mhz * 1e6,
            n_points=self.points,
            dwell_s=self.dwell_ms * 1e-3,
            laser_mw=self.laser_mw,
            mw_dbm=self.mw_dbm,
            seed=seed,
        )


# the field types are classes (float, int) because annotations here are not postponed
_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse `key = value` lines; `#` starts a comment, blanks are skipped."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _FIELD_TYPES[key](val)
        except ValueError as err:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {val!r}") from err
    return values


def load_config(path: str | None = None, env: dict | None = None) -> RunConfig:
    """Defaults, overlaid by $ODMR_CONFIG if set, overlaid by `path` if given."""
    env = os.environ if env is None else env
    cfg = RunConfig()
    for candidate in (env.get(ENV_VAR), path):
        if not candidate:
            continue
        with open(candidate, "r", encoding="utf-8") as fh:
            cfg = replace(cfg, **parse_config_text(fh.read(), source=candidate))
    return cfg
