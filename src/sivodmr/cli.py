"""Command-line surface: simulate, fit, invert, sweep, sensitivity.

Flags use bench units (MHz, gauss, degrees, mW, dBm); file and JSON
payloads are SI with `_display` companions in bench units.  Exit codes:
0 success, 1 I/O or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .config import ConfigError, load_config
from .fitting import (
    FitResult,
    IllConditionedFitError,
    fit_lorentzian_multi,
    fit_saturation,
)
from .inversion import (
    AxialModelError,
    NoSolutionError,
    angle_sweep,
    axial_invert,
    invert_field,
)
from .io import (
    CsvFormatError,
    read_spectrum_csv,
    read_sweep_csv,
    write_spectrum_csv,
    write_sweep_csv,
    write_text,
)
from .sensitivity import (
    laser_sweep_sensitivity,
    mw_sweep_sensitivity,
    sensitivity_budget,
)
from .spectrum import photon_rate, synthesize_spectrum
from .spin_model import FieldVector, transition_table
from .svgplot import line_plot_svg

GAUSS_PER_T = 1e4


class UsageError(Exception):
    """Bad flag combination or range; maps to exit code 2."""


def _positive(text: str) -> float:
    value = float(text)
    if not (value > 0):
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _non_negative(text: str) -> float:
    value = float(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _emit_json(payload: dict, out: str | None) -> None:
    write_text(out, json.dumps(payload, indent=2) + "\n")


def _grid_points(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError(f"need at least 2 points, got {text}")
    return value


# ---------------------------------------------------------------- simulate


def cmd_simulate(args, cfg) -> int:
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
            "b0_t": res.b0_t,
            "consistency_hz": res.consistency_hz,
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
            "b0_t": res.b0_t,
            "theta_rad": res.theta_rad,
            "residual_hz": res.residual_hz,
            "degenerate": res.degenerate,
            "reason": res.reason,
            "condition": res.condition,
            "n_compatible": res.n_compatible,
            "alt_b0_t": res.alt_b0_t,
            "alt_theta_rad": res.alt_theta_rad,
            "b0_gauss_display": res.b0_t * GAUSS_PER_T,
            "theta_deg_display": math.degrees(res.theta_rad),
        }
    _emit_json(payload, args.out)
    return 0


# ------------------------------------------------------------------- sweep


def _sweep_svg(args, x, series, xlabel, ylabel) -> None:
    if args.svg:
        write_text(args.svg, line_plot_svg(x, series, xlabel=xlabel, ylabel=ylabel))


def cmd_sweep(args, cfg) -> int:
    consts = cfg.consts()
    if args.kind == "field":
        if not (args.bmax_gauss > args.bmin_gauss):
            raise UsageError("--bmax-gauss must exceed --bmin-gauss")
        b_gauss = np.linspace(args.bmin_gauss, args.bmax_gauss, args.points)
        theta = math.radians(args.theta_deg)
        nu1, nu2 = transition_table(b_gauss / GAUSS_PER_T, np.full_like(b_gauss, theta), consts)
        write_sweep_csv(
            args.out,
            ["b0_gauss", "nu1_hz", "nu2_hz"],
            [b_gauss, nu1, nu2],
            {"kind": "field", "theta_deg": args.theta_deg},
        )
        _sweep_svg(
            args, b_gauss, [("nu1 (MHz)", nu1 / 1e6), ("nu2 (MHz)", nu2 / 1e6)],
            "B0 (G)", "frequency (MHz)",
        )
    elif args.kind == "angle":
        theta_deg = np.linspace(0.0, 90.0, args.points)
        _th, nu1, nu2 = angle_sweep(
            args.b0_gauss / GAUSS_PER_T, np.radians(theta_deg), consts
        )
        write_sweep_csv(
            args.out,
            ["theta_deg", "nu1_hz", "nu2_hz"],
            [theta_deg, nu1, nu2],
            {"kind": "angle", "b0_gauss": args.b0_gauss},
        )
        _sweep_svg(
            args, theta_deg, [("nu1 (MHz)", nu1 / 1e6), ("nu2 (MHz)", nu2 / 1e6)],
            "theta (deg)", "frequency (MHz)",
        )
    elif args.kind == "laser":
        if not (args.pmax_mw > args.pmin_mw):
            raise UsageError("--pmax-mw must exceed --pmin-mw")
        powers = np.linspace(args.pmin_mw, args.pmax_mw, args.points)
        sweep = laser_sweep_sensitivity(
            powers, args.contrast, args.fwhm_mhz * 1e6, cfg.saturation(), consts
        )
        write_sweep_csv(
            args.out,
            ["laser_mw", "rate_cps", "eta_t_per_sqrt_hz"],
            [sweep.powers_mw, sweep.rate_cps, sweep.eta_t_per_sqrt_hz],
            {"kind": "laser", "contrast": args.contrast, "fwhm_mhz": args.fwhm_mhz},
        )
        _sweep_svg(
            args, powers, [("eta (uT/sqrt(Hz))", sweep.eta_t_per_sqrt_hz * 1e6)],
            "laser power (mW)", "sensitivity (uT/sqrt(Hz))",
        )
    else:
        if not (args.dbm_max > args.dbm_min):
            raise UsageError("--dbm-max must exceed --dbm-min")
        dbm = np.linspace(args.dbm_min, args.dbm_max, args.points)
        rate = photon_rate(args.laser_mw, cfg.saturation())
        sweep = mw_sweep_sensitivity(dbm, cfg.mw(), rate, consts)
        write_sweep_csv(
            args.out,
            ["mw_dbm", "contrast", "fwhm_hz", "eta_t_per_sqrt_hz"],
            [sweep.mw_dbm, sweep.contrast, sweep.fwhm_hz, sweep.eta_t_per_sqrt_hz],
            {"kind": "mw", "laser_mw": args.laser_mw, "optimum_dbm": sweep.optimum_dbm},
        )
        _sweep_svg(
            args, dbm, [("eta (uT/sqrt(Hz))", sweep.eta_t_per_sqrt_hz * 1e6)],
            "MW power (dBm)", "sensitivity (uT/sqrt(Hz))",
        )
    return 0


# ------------------------------------------------------------- sensitivity


def cmd_sensitivity(args, cfg) -> int:
    if args.rate_cps is not None:
        rate = args.rate_cps
    else:
        rate = photon_rate(args.laser_mw, cfg.saturation())
    budget = sensitivity_budget(args.contrast, args.fwhm_mhz * 1e6, rate, cfg.consts())
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
    p.add_argument("--theta-deg", type=float, default=0.0)
    p.add_argument("--fmin-mhz", type=_positive, default=None)
    p.add_argument("--fmax-mhz", type=_positive, default=None)
    p.add_argument("--points", type=_grid_points, default=None)
    p.add_argument("--laser-mw", type=_positive, default=None)
    p.add_argument("--mw-dbm", type=float, default=None)
    p.add_argument("--dwell-ms", type=_positive, default=None)
    p.add_argument("--seed", type=int, default=None, help="omit for a noiseless spectrum")
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.add_argument("--svg", default=None, help="also write an SVG plot")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit a CSV data file")
    p.add_argument("kind", choices=["odmr", "saturation"])
    p.add_argument("input", help="input CSV path")
    p.add_argument("--peaks", type=int, default=2, help="Lorentzian count for odmr fits")
    p.add_argument("--out", default="-", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("invert", help="recover (B0, theta) from two resonances")
    p.add_argument("--nu1-mhz", type=_positive, required=True)
    p.add_argument("--nu2-mhz", type=_positive, required=True)
    p.add_argument("--axial", action="store_true", help="closed-form axial inversion")
    p.add_argument("--sigma-khz", type=_non_negative, default=0.0,
                   help="1-sigma frequency noise driving degeneracy checks")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("sweep", help="tabulate resonances or sensitivity vs a control")
    p.add_argument("kind", choices=["field", "angle", "laser", "mw"])
    p.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p.add_argument("--svg", default=None)
    p.add_argument("--points", type=_grid_points, default=None)
    p.add_argument("--bmin-gauss", type=_non_negative, default=0.0)
    p.add_argument("--bmax-gauss", type=_positive, default=120.0)
    p.add_argument("--theta-deg", type=float, default=0.0)
    p.add_argument("--b0-gauss", type=_positive, default=60.0)
    p.add_argument("--pmin-mw", type=_positive, default=1.0)
    p.add_argument("--pmax-mw", type=_positive, default=85.0)
    p.add_argument("--contrast", type=_positive, default=1.8e-3)
    p.add_argument("--fwhm-mhz", type=_positive, default=13.0)
    p.add_argument("--dbm-min", type=float, default=0.0)
    p.add_argument("--dbm-max", type=float, default=30.0)
    p.add_argument("--laser-mw", type=_positive, default=85.0)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("sensitivity", help="shot-noise sensitivity budget as JSON")
    p.add_argument("--contrast", type=_positive, required=True)
    p.add_argument("--fwhm-mhz", type=_positive, required=True)
    p.add_argument("--rate-cps", type=_positive, default=None)
    p.add_argument("--laser-mw", type=_positive, default=85.0,
                   help="used when --rate-cps is omitted")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sensitivity)

    return parser


_DEFAULT_POINTS = {"field": 121, "angle": 91, "laser": 85, "mw": 301}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "points", None) is None and hasattr(args, "points"):
        args.points = _DEFAULT_POINTS.get(getattr(args, "kind", ""), None)
    try:
        cfg = load_config(args.config)
        if args.command == "simulate":
            overrides = {
                "fmin_mhz": args.fmin_mhz,
                "fmax_mhz": args.fmax_mhz,
                "points": args.points,
                "laser_mw": args.laser_mw,
                "mw_dbm": args.mw_dbm,
                "dwell_ms": args.dwell_ms,
            }
            from dataclasses import replace

            cfg = replace(cfg, **{k: v for k, v in overrides.items() if v is not None})
        return args.func(args, cfg)
    except UsageError as err:
        parser.print_usage(sys.stderr)
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (
        OSError,
        ConfigError,
        CsvFormatError,
        NoSolutionError,
        AxialModelError,
        IllConditionedFitError,
        ValueError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
