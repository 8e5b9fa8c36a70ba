"""Command-line surface: simulate, fit, invert, sweep, sensitivity.

Flags use bench units (MHz, gauss, degrees, mW, dBm); file and JSON
payloads are SI with `_display` companions in bench units.  Exit codes:
0 success, 2 usage error, 1 any other failure (one `error:` line).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, replace

import numpy as np

from .config import GAUSS_PER_T, load_config
from .fitting import FitResult, fit_lorentzian_multi, fit_saturation
from .inversion import axial_invert, invert_field
from .io import (
    CsvFormatError,
    read_spectrum_csv,
    read_sweep_csv,
    write_spectrum_csv,
    write_sweep_csv,
    write_text,
)
from .sensitivity import SensitivityBudget, laser_sweep_sensitivity, mw_sweep_sensitivity
from .spectrum import photon_rate, synthesize_spectrum
from .spin_model import FieldVector, transition_table
from .svgplot import line_plot_svg


class UsageError(Exception):
    """Bad flag combination or range; maps to exit code 2."""


def _checked_float(name: str, accept, rule: str):
    """Float flag parser that takes finite values passing accept.

    The parser carries name as its __name__, which argparse prints for a
    value that is not a number ("invalid _positive value: 'abc'").
    """

    def parse(text: str) -> float:
        value = float(text)
        if not (math.isfinite(value) and accept(value)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = name
    return parse


_finite = _checked_float("_finite", lambda v: True, "finite")
_positive = _checked_float("_positive", lambda v: v > 0, "positive and finite")
_non_negative = _checked_float("_non_negative", lambda v: v >= 0, "non-negative and finite")
_fraction = _checked_float("_fraction", lambda v: 0 < v < 1, "in (0, 1)")


def _emit_json(payload: dict, out: str | None) -> None:
    write_text(out, json.dumps(payload, indent=2) + "\n")


def _grid_points(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 points, got {text}")
    return value


# ---------------------------------------------------------------- simulate


def cmd_simulate(args, cfg) -> int:
    # the grid and acquisition flags are named after the RunConfig keys they override
    keys = ("fmin_mhz", "fmax_mhz", "points", "laser_mw", "mw_dbm", "dwell_ms")
    cfg = replace(cfg, **{k: getattr(args, k) for k in keys if getattr(args, k) is not None})
    if not (cfg.fmax_mhz > cfg.fmin_mhz):
        raise UsageError("--fmax-mhz must exceed --fmin-mhz")
    acq = cfg.acquisition(seed=args.seed)
    field = FieldVector(
        b0_t=args.b0_gauss / GAUSS_PER_T, theta_rad=math.radians(args.theta_deg)
    )
    spec = synthesize_spectrum(acq, field, cfg.consts(), cfg.saturation(), cfg.mw())
    if spec.meta is not None and spec.meta.off_grid_warning:
        print("warning: a resonance lies outside the frequency grid", file=sys.stderr)
    meta = {
        "b0_gauss": args.b0_gauss,
        "theta_deg": args.theta_deg,
        "laser_mw": acq.laser_mw,
        "mw_dbm": acq.mw_dbm,
        "dwell_ms": acq.dwell_s * 1e3,
    }
    if args.seed is not None:
        meta["seed"] = args.seed
    write_spectrum_csv(args.out, spec, meta)
    if args.svg:
        svg = line_plot_svg(
            spec.freq_hz / 1e6,
            [("signal", spec.signal)],
            xlabel="frequency (MHz)",
            ylabel="relative PL dip",
            title=f"B0 = {args.b0_gauss:g} G, theta = {args.theta_deg:g} deg",
        )
        write_text(args.svg, svg)
    return 0


# --------------------------------------------------------------------- fit


def _fit_result_payload(res: FitResult, hz_keys: tuple[str, ...]) -> dict:
    payload: dict = {}
    for name, value in res.params.items():
        payload[name] = value
        if name.startswith(hz_keys):
            payload[f"{name.replace('_hz', '')}_mhz_display"] = value / 1e6
    for name in res.names:
        payload[f"sigma_{name}"] = res.sigma(name)
    payload["residual_rms"] = res.residual_rms
    payload["iterations"] = res.iterations
    payload["converged"] = res.converged
    return payload


def cmd_fit(args, cfg) -> int:
    if args.kind == "odmr":
        spec, _meta = read_spectrum_csv(args.input)
        res = fit_lorentzian_multi(spec, n_peaks=args.peaks)
        payload = _fit_result_payload(res, ("center", "fwhm"))
    else:
        header, cols, _meta = read_sweep_csv(args.input)
        if len(header) < 2:
            raise CsvFormatError(f"{args.input}: need power and count columns")
        res = fit_saturation(cols[0], cols[1])
        payload = _fit_result_payload(res, ())
        payload["i_s_mcps_display"] = res.value("i_s_cps") / 1e6
    if not res.converged:
        print("warning: fit did not converge; results are best-effort", file=sys.stderr)
    _emit_json(payload, args.out)
    return 0


# ------------------------------------------------------------------ invert


def cmd_invert(args, cfg) -> int:
    consts = cfg.consts()
    nu1_hz, nu2_hz = args.nu1_mhz * 1e6, args.nu2_mhz * 1e6
    if args.axial:
        res = axial_invert(nu1_hz, nu2_hz, consts)
        payload = {
            **asdict(res),
            "b0_gauss_display": res.b0_t * GAUSS_PER_T,
            "consistency_mhz_display": res.consistency_hz / 1e6,
        }
    else:
        res = invert_field(
            nu1_hz,
            nu2_hz,
            consts,
            b_max_t=cfg.b_max_gauss / GAUSS_PER_T,
            sigma_hz=args.sigma_khz * 1e3,
        )
        if res.degenerate:
            print(
                f"warning: degenerate inversion ({res.reason}); "
                "the reported field is not unique at this noise level",
                file=sys.stderr,
            )
        payload = {
            **asdict(res),
            "b0_gauss_display": res.b0_t * GAUSS_PER_T,
            "theta_deg_display": math.degrees(res.theta_rad),
        }
    _emit_json(payload, args.out)
    return 0


# ------------------------------------------------------------------- sweep


_DEFAULT_POINTS = {"field": 121, "angle": 91, "laser": 85, "mw": 301}


def cmd_sweep(args, cfg) -> int:
    """One table per kind: an x column, the kind's columns, then CSV and SVG."""
    consts = cfg.consts()
    points = _DEFAULT_POINTS[args.kind] if args.points is None else args.points
    if args.kind == "field":
        if not (args.bmax_gauss > args.bmin_gauss):
            raise UsageError("--bmax-gauss must exceed --bmin-gauss")
        x = np.linspace(args.bmin_gauss, args.bmax_gauss, points)
        b0_t, theta_rad = x / GAUSS_PER_T, np.full_like(x, math.radians(args.theta_deg))
        x_name, xlabel = "b0_gauss", "B0 (G)"
        meta = {"kind": "field", "theta_deg": args.theta_deg}
    elif args.kind == "angle":
        x = np.linspace(0.0, 90.0, points)
        b0_t, theta_rad = np.full_like(x, args.b0_gauss / GAUSS_PER_T), np.radians(x)
        x_name, xlabel = "theta_deg", "theta (deg)"
        meta = {"kind": "angle", "b0_gauss": args.b0_gauss}
    elif args.kind == "laser":
        if not (args.pmax_mw > args.pmin_mw):
            raise UsageError("--pmax-mw must exceed --pmin-mw")
        x = np.linspace(args.pmin_mw, args.pmax_mw, points)
        sweep = laser_sweep_sensitivity(
            x, args.contrast, args.fwhm_mhz * 1e6, cfg.saturation(), consts
        )
        x_name, xlabel = "laser_mw", "laser power (mW)"
        names, columns = ["rate_cps"], [sweep.rate_cps]
        meta = {"kind": "laser", "contrast": args.contrast, "fwhm_mhz": args.fwhm_mhz}
    else:
        if not (args.dbm_max > args.dbm_min):
            raise UsageError("--dbm-max must exceed --dbm-min")
        x = np.linspace(args.dbm_min, args.dbm_max, points)
        rate = photon_rate(args.laser_mw, cfg.saturation())
        sweep = mw_sweep_sensitivity(x, cfg.mw(), rate, consts)
        x_name, xlabel = "mw_dbm", "MW power (dBm)"
        names, columns = ["contrast", "fwhm_hz"], [sweep.contrast, sweep.fwhm_hz]
        meta = {"kind": "mw", "laser_mw": args.laser_mw, "optimum_dbm": sweep.optimum_dbm}
    if args.kind in ("field", "angle"):
        nu1, nu2 = transition_table(b0_t, theta_rad, consts)
        names, columns = ["nu1_hz", "nu2_hz"], [nu1, nu2]
        series = [("nu1 (MHz)", nu1 / 1e6), ("nu2 (MHz)", nu2 / 1e6)]
        ylabel = "frequency (MHz)"
    else:
        names, columns = names + ["eta_t_per_sqrt_hz"], columns + [sweep.eta_t_per_sqrt_hz]
        series = [("eta (uT/sqrt(Hz))", sweep.eta_t_per_sqrt_hz * 1e6)]
        ylabel = "sensitivity (uT/sqrt(Hz))"
    write_sweep_csv(args.out, [x_name, *names], [x, *columns], meta)
    if args.svg:
        write_text(args.svg, line_plot_svg(x, series, xlabel=xlabel, ylabel=ylabel))
    return 0


# ------------------------------------------------------------- sensitivity


def cmd_sensitivity(args, cfg) -> int:
    if args.rate_cps is not None:
        rate = args.rate_cps
    else:
        rate = photon_rate(args.laser_mw, cfg.saturation())
    budget = SensitivityBudget(args.contrast, args.fwhm_mhz * 1e6, rate, cfg.consts())
    payload = {
        "contrast": budget.contrast,
        "fwhm_hz": budget.fwhm_hz,
        "rate_cps": budget.rate_cps,
        "eta_t_per_sqrt_hz": budget.eta_t_per_sqrt_hz,
        "contrast_permille_display": budget.contrast * 1e3,
        "fwhm_mhz_display": budget.fwhm_hz / 1e6,
        "eta_ut_per_sqrt_hz_display": budget.eta_t_per_sqrt_hz * 1e6,
    }
    _emit_json(payload, args.out)
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sivodmr",
        description="Simulate, fit and invert V2 silicon-vacancy ODMR spectra.",
    )
    parser.add_argument("--config", help="key = value config file (overrides $ODMR_CONFIG)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="synthesize an ODMR spectrum CSV")
    p.add_argument("--b0-gauss", type=_non_negative, required=True)
    p.add_argument("--theta-deg", type=_finite, default=0.0)
    p.add_argument("--fmin-mhz", type=_positive, default=None)
    p.add_argument("--fmax-mhz", type=_positive, default=None)
    p.add_argument("--points", type=_grid_points, default=None)
    p.add_argument("--laser-mw", type=_positive, default=None)
    p.add_argument("--mw-dbm", type=_finite, default=None)
    p.add_argument("--dwell-ms", type=_positive, default=None)
    p.add_argument("--seed", type=int, default=None, help="omit for a noiseless spectrum")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.add_argument("--svg", default=None, help="also write an SVG plot")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a CSV data file")
    p.add_argument("kind", choices=["odmr", "saturation"])
    p.add_argument("input", help="input CSV path")
    p.add_argument("--peaks", type=int, choices=[1, 2], default=2,
                   help="Lorentzian count for odmr fits")
    p.add_argument("--out", default="-", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("invert", help="recover (B0, theta) from two resonances")
    p.add_argument("--nu1-mhz", type=_positive, required=True)
    p.add_argument("--nu2-mhz", type=_positive, required=True)
    # the closed-form axial estimate has no noise model to take a sigma
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--axial", action="store_true", help="closed-form axial inversion")
    mode.add_argument("--sigma-khz", type=_non_negative, default=0.0,
                      help="1-sigma frequency noise driving degeneracy checks")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("sweep", help="tabulate resonances or sensitivity vs a control")
    # one parser per kind, so that a flag the kind does not use is a usage error
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", default="-", help="output CSV path (default stdout)")
    shared.add_argument("--svg", default=None)
    shared.add_argument("--points", type=_grid_points, default=None)
    kinds = p.add_subparsers(dest="kind", required=True)
    k = kinds.add_parser("field", parents=[shared], help="lines vs field at a fixed angle")
    k.add_argument("--bmin-gauss", type=_non_negative, default=0.0)
    k.add_argument("--bmax-gauss", type=_positive, default=120.0)
    k.add_argument("--theta-deg", type=_finite, default=0.0)
    k = kinds.add_parser("angle", parents=[shared], help="lines vs angle at a fixed field")
    k.add_argument("--b0-gauss", type=_positive, default=60.0)
    k = kinds.add_parser("laser", parents=[shared], help="sensitivity vs laser power")
    k.add_argument("--pmin-mw", type=_positive, default=1.0)
    k.add_argument("--pmax-mw", type=_positive, default=85.0)
    k.add_argument("--contrast", type=_fraction, default=1.8e-3)
    k.add_argument("--fwhm-mhz", type=_positive, default=13.0)
    k = kinds.add_parser("mw", parents=[shared], help="sensitivity vs MW power")
    k.add_argument("--dbm-min", type=_finite, default=0.0)
    k.add_argument("--dbm-max", type=_finite, default=30.0)
    k.add_argument("--laser-mw", type=_positive, default=85.0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sensitivity", help="shot-noise sensitivity budget as JSON")
    p.add_argument("--contrast", type=_fraction, required=True)
    p.add_argument("--fwhm-mhz", type=_positive, required=True)
    # a given rate leaves nothing for a laser power to set
    source = p.add_mutually_exclusive_group()
    source.add_argument("--rate-cps", type=_positive, default=None)
    source.add_argument("--laser-mw", type=_positive, default=85.0,
                        help="used when --rate-cps is omitted")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sensitivity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, load_config(args.config))
    except UsageError as err:
        parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
