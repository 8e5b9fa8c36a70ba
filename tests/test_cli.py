"""End-to-end tests of the command-line surface through main(argv)."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import sivodmr
from sivodmr.cli import main
from sivodmr.config import GAUSS_PER_T, RunConfig
from sivodmr.inversion import DEFAULT_B_MAX_T
from sivodmr.io import CsvFormatError, read_spectrum_csv, read_sweep_csv, write_sweep_csv
from sivodmr.spectrum import AcquisitionConfig, MwResponseParams, SaturationParams
from sivodmr.spin_model import PhysicalConstants
from sivodmr.svgplot import line_plot_svg


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out), err


def test_simulate_noiseless_minima_near_resonances(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    code, _, err = run(
        capsys, "simulate", "--b0-gauss", "60", "--theta-deg", "0", "--out", str(out)
    )
    assert code == 0
    spec, meta = read_spectrum_csv(str(out))
    assert meta["b0_gauss"] == "60.0"
    step = spec.freq_hz[1] - spec.freq_hz[0]
    for lo, hi, center in ((80e6, 120e6, 98.148e6), (220e6, 260e6, 238.148e6)):
        window = (spec.freq_hz > lo) & (spec.freq_hz < hi)
        peak_f = spec.freq_hz[window][np.argmax(spec.signal[window])]
        assert abs(peak_f - center) <= 0.55 * step


def test_simulate_seeded_outputs_reproducible(tmp_path, capsys):
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    for path, seed in ((a, "7"), (b, "7"), (c, "8")):
        code, _, _ = run(
            capsys, "simulate", "--b0-gauss", "60", "--seed", seed, "--out", str(path)
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


def test_simulate_zero_field_single_dip_at_2d(tmp_path, capsys):
    out = tmp_path / "zf.csv"
    code, _, err = run(capsys, "simulate", "--b0-gauss", "0", "--out", str(out))
    assert code == 0
    assert "warning" not in err
    spec, _ = read_spectrum_csv(str(out))
    assert spec.freq_hz[np.argmax(spec.signal)] == pytest.approx(70e6, abs=0.5e6)

    # the 238 MHz line of 60 G lies above a 150 MHz grid: still a spectrum
    code, _, err = run(
        capsys, "simulate", "--b0-gauss", "60", "--fmax-mhz", "150", "--out", str(out)
    )
    assert code == 0
    assert "warning: a resonance lies outside the frequency grid" in err


def test_simulate_svg_output(tmp_path, capsys):
    out, svg = tmp_path / "s.csv", tmp_path / "s.svg"
    # simulate and every sweep kind: one polyline per series, the kind's x label
    for argv, lines, xlabel in (
        (["simulate", "--b0-gauss", "60"], 1, "frequency (MHz)"),
        (["sweep", "field"], 2, "B0 (G)"),
        (["sweep", "angle"], 2, "theta (deg)"),
        (["sweep", "laser"], 1, "laser power (mW)"),
        (["sweep", "mw"], 1, "MW power (dBm)"),
    ):
        svg.unlink(missing_ok=True)
        code, _, _ = run(capsys, *argv, "--out", str(out), "--svg", str(svg))
        assert code == 0
        text = svg.read_text()
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert text.count("<polyline") == lines
        assert f">{xlabel}</text>" in text


def test_line_plot_svg_rejects_empty_and_centres_flat():
    with pytest.raises(ValueError, match="at least one series"):
        line_plot_svg([0.0, 1.0], [], xlabel="x", ylabel="y")
    text = line_plot_svg([0.0, 1.0, 2.0], [("flat", [3.0, 3.0, 3.0])], xlabel="x", ylabel="y")
    assert 'points="64.00,201.00 344.00,201.00 624.00,201.00"' in text


def test_fit_odmr_roundtrip_noiseless(tmp_path, capsys):
    out = tmp_path / "spec.csv"
    run(capsys, "simulate", "--b0-gauss", "60", "--points", "2001", "--out", str(out))
    payload, _ = run_json(capsys, "fit", "odmr", str(out))
    assert payload["converged"] is True
    assert payload["center1_hz"] == pytest.approx(98.148087e6, rel=1e-5)
    assert payload["center2_hz"] == pytest.approx(238.148087e6, rel=1e-5)
    assert payload["center1_mhz_display"] == pytest.approx(98.148087, rel=1e-5)
    assert payload["sigma_center1_hz"] >= 0.0


def test_fit_odmr_warns_when_not_converged(tmp_path, capsys, monkeypatch):
    out = tmp_path / "spec.csv"
    run(capsys, "simulate", "--b0-gauss", "60", "--points", "2001", "--out", str(out))
    fit = sivodmr.cli.fit_lorentzian_multi
    monkeypatch.setattr(
        "sivodmr.cli.fit_lorentzian_multi",
        lambda *a, **k: replace(fit(*a, **k), converged=False),
    )
    payload, err = run_json(capsys, "fit", "odmr", str(out))
    assert payload["converged"] is False
    assert err == "warning: fit did not converge; results are best-effort\n"


def test_fit_saturation_roundtrip_via_sweep(tmp_path, capsys):
    table = tmp_path / "laser.csv"
    code, _, _ = run(capsys, "sweep", "laser", "--out", str(table))
    assert code == 0
    payload, _ = run_json(capsys, "fit", "saturation", str(table))
    assert payload["i_s_cps"] == pytest.approx(935e6, rel=1e-6)
    assert payload["p0_mw"] == pytest.approx(300.0, rel=1e-6)
    assert payload["i_s_mcps_display"] == pytest.approx(935.0, rel=1e-6)
    assert payload["converged"] is True


def test_fit_saturation_flat_data_exits_one(tmp_path, capsys):
    table = tmp_path / "flat.csv"
    write_sweep_csv(
        str(table), ["laser_mw", "rate_cps"], [np.linspace(1, 80, 12), np.full(12, 5e8)]
    )
    code, _, err = run(capsys, "fit", "saturation", str(table))
    assert code == 1
    assert "i_s_cps" in err and "p0_mw" in err

    write_sweep_csv(str(table), ["laser_mw"], [np.linspace(1, 80, 12)])
    code, _, err = run(capsys, "fit", "saturation", str(table))
    assert code == 1
    assert "need power and count columns" in err


def test_invert_cli_full_and_axial(capsys):
    payload, _ = run_json(capsys, "invert", "--nu1-mhz", "98.148", "--nu2-mhz", "238.148")
    assert payload["b0_gauss_display"] == pytest.approx(60.0, abs=1e-3)
    assert payload["theta_deg_display"] == pytest.approx(0.0, abs=0.05)

    payload, err = run_json(capsys, "invert", "--nu1-mhz", "70", "--nu2-mhz", "70")
    assert payload["degenerate"] is True
    assert payload["b0_gauss_display"] == pytest.approx(0.0, abs=1e-4)
    assert "degenerate" in err

    payload, _ = run_json(
        capsys, "invert", "--axial",
        "--nu1-mhz", "266.2961739592", "--nu2-mhz", "406.2961739592",
    )
    assert payload["b0_gauss_display"] == pytest.approx(120.0, abs=1e-6)
    assert payload["consistency_hz"] == pytest.approx(0.0, abs=1e-2)

    code, _, err = run(capsys, "invert", "--axial", "--nu1-mhz", "70", "--nu2-mhz", "70")
    assert code == 1
    assert "axial" in err


def test_sweep_field_endpoints(tmp_path, capsys):
    out = tmp_path / "field.csv"
    code, _, _ = run(capsys, "sweep", "field", "--out", str(out))
    assert code == 0
    header, cols, meta = read_sweep_csv(str(out))
    assert header == ["b0_gauss", "nu1_hz", "nu2_hz"]
    assert meta["kind"] == "field"
    assert cols[0][0] == 0.0 and cols[0][-1] == 120.0
    assert cols[1][0] == pytest.approx(70e6, abs=1e3)
    assert cols[2][0] == pytest.approx(70e6, abs=1e3)
    assert cols[1][-1] == pytest.approx(266.296174e6, abs=1e3)
    assert cols[2][-1] == pytest.approx(406.296174e6, abs=1e3)


def test_sweep_angle_gap_minimum_in_band(tmp_path, capsys):
    out = tmp_path / "angle.csv"
    code, _, _ = run(capsys, "sweep", "angle", "--b0-gauss", "60", "--out", str(out))
    assert code == 0
    header, cols, _ = read_sweep_csv(str(out))
    assert header == ["theta_deg", "nu1_hz", "nu2_hz"]
    gap = cols[2] - cols[1]
    theta_min = cols[0][int(np.argmin(gap))]
    assert 50.0 <= theta_min <= 60.0


def test_sweep_laser_ratio(tmp_path, capsys):
    out = tmp_path / "laser.csv"
    code, _, _ = run(capsys, "sweep", "laser", "--out", str(out))
    assert code == 0
    _, cols, _ = read_sweep_csv(str(out))
    eta = cols[2]
    assert np.all(np.diff(eta) < 0)
    assert eta[0] / eta[-1] == pytest.approx(8.152, abs=0.01)


def test_sweep_mw_optimum(tmp_path, capsys):
    out = tmp_path / "mw.csv"
    code, _, _ = run(capsys, "sweep", "mw", "--out", str(out))
    assert code == 0
    _, cols, meta = read_sweep_csv(str(out))
    assert 18.8 <= float(meta["optimum_dbm"]) <= 19.2
    eta = cols[3]
    assert eta[0] > eta.min() and eta[-1] > eta.min()


def test_sensitivity_json(capsys):
    payload, _ = run_json(
        capsys, "sensitivity", "--contrast", "1.8e-3", "--fwhm-mhz", "13"
    )
    assert payload["eta_t_per_sqrt_hz"] == pytest.approx(1.3811346e-5, rel=1e-5)
    assert payload["eta_ut_per_sqrt_hz_display"] == pytest.approx(13.811, abs=0.01)
    assert payload["rate_cps"] == pytest.approx(206428571.43, rel=1e-8)

    # a given rate replaces the laser-power rate; eta scales as 1/sqrt(rate)
    payload, _ = run_json(
        capsys, "sensitivity", "--contrast", "1.8e-3", "--fwhm-mhz", "13",
        "--rate-cps", "1e8",
    )
    assert payload["rate_cps"] == 1e8
    assert payload["eta_t_per_sqrt_hz"] == pytest.approx(
        1.3811346e-5 * math.sqrt(206428571.43 / 1e8), rel=1e-6
    )


def test_usage_errors_exit_two(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--b0-gauss", "-5", "--out", "-"])
    assert exc.value.code == 2
    code, _, err = run(
        capsys, "sweep", "field", "--bmin-gauss", "50", "--bmax-gauss", "10",
        "--out", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "bmax" in err
    for argv in (
        ["invert", "--nu1-mhz", "inf", "--nu2-mhz", "100"],
        ["invert", "--nu1-mhz", "70", "--nu2-mhz", "nan"],
        ["invert", "--nu1-mhz", "70", "--nu2-mhz", "100", "--sigma-khz", "inf"],
        ["simulate", "--b0-gauss", "nan"],
        ["simulate", "--b0-gauss", "60", "--theta-deg", "nan"],
        ["simulate", "--b0-gauss", "60", "--mw-dbm", "inf"],
        ["sweep", "field", "--theta-deg", "inf"],
        ["sweep", "mw", "--dbm-min", "nan", "--dbm-max", "10"],
        ["sweep", "mw", "--dbm-max=-inf"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "finite" in capsys.readouterr().err
    # the axial estimate takes no sigma: giving one is an error, not dropped
    with pytest.raises(SystemExit) as exc:
        main(["invert", "--nu1-mhz", "98.148", "--nu2-mhz", "238.148", "--axial",
              "--sigma-khz", "50"])
    assert exc.value.code == 2
    assert "not allowed with argument --axial" in capsys.readouterr().err
    # ODMR contrast is a fraction: 2 (meant as 2 permille) and 1 are usage errors
    for argv in (
        ["sensitivity", "--contrast", "2", "--fwhm-mhz", "13"],
        ["sensitivity", "--contrast", "0", "--fwhm-mhz", "13"],
        ["sweep", "laser", "--contrast", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--contrast: must be in (0, 1)" in capsys.readouterr().err
    # argparse names the flag's parser for a value that is not a number
    for argv, parser_name in (
        (["simulate", "--b0-gauss", "abc"], "_non_negative"),
        (["simulate", "--b0-gauss", "60", "--theta-deg", "abc"], "_finite"),
        (["invert", "--nu1-mhz", "abc", "--nu2-mhz", "100"], "_positive"),
        (["sensitivity", "--contrast", "abc", "--fwhm-mhz", "13"], "_fraction"),
        (["sweep", "field", "--points", "abc"], "_grid_points"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"invalid {parser_name} value: 'abc'" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["fit", "odmr", str(tmp_path / "x.csv"), "--peaks", "3"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "angle", "--points", "1"])
    assert exc.value.code == 2
    assert "at least 2 points" in capsys.readouterr().err
    for argv, flag in (
        (["sweep", "laser", "--pmin-mw", "10", "--pmax-mw", "10"], "pmax"),
        (["sweep", "mw", "--dbm-min", "20", "--dbm-max", "5"], "dbm-max"),
        (["simulate", "--b0-gauss", "60", "--fmin-mhz", "200", "--fmax-mhz", "100"], "fmax"),
        (["simulate", "--b0-gauss", "60", "--fmin-mhz", "300"], "fmax"),  # default 280
    ):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path / "x.csv"))
        assert code == 2
        assert flag in err


def test_io_errors_exit_one(tmp_path, capsys):
    code, _, err = run(capsys, "fit", "odmr", str(tmp_path / "missing.csv"))
    assert code == 1

    bad = tmp_path / "bad.csv"
    bad.write_text("# odmr-csv v1\nfrequency_hz,signal\nfoo,bar\n")
    code, _, err = run(capsys, "fit", "odmr", str(bad))
    assert code == 1
    assert ":3:" in err  # names the offending line


def test_malformed_sweep_csv_names_the_line(tmp_path):
    bad = tmp_path / "bad.csv"
    for rows, detail in (
        ("1.0,2.0\n3.0\n", "5: expected 2 columns"),   # wrong column count
        ("1.0,2.0\n3.0,x\n", "5: non-numeric"),        # non-numeric cell
        ("1.0,2.0\n\n3.0\n", "6: expected 2 columns"),  # a blank line is skipped, yet counted
    ):
        bad.write_text("# sweep-csv v1\n# kind=laser\nlaser_mw,rate_cps\n" + rows)
        with pytest.raises(CsvFormatError, match=f"bad.csv:{detail}"):
            read_sweep_csv(str(bad))
    for text, read, detail in (
        ("laser_mw,rate_cps\n1.0,2.0\n", read_sweep_csv, "bad.csv:1: expected magic line"),
        ("# sweep-csv v1\n# kind=laser\n", read_sweep_csv, "bad.csv:3: missing header row"),
        ("# odmr-csv v1\nfreq,signal\n1.0,0.0\n2.0,0.0\n", read_spectrum_csv,
         "bad.csv:2: expected header 'frequency_hz,signal'"),
        ("# odmr-csv v1\nfrequency_hz,signal\n1.0,0.0\n", read_spectrum_csv,
         "bad.csv: need at least 2 data rows, got 1"),
    ):
        bad.write_text(text)
        with pytest.raises(CsvFormatError, match=detail):
            read(str(bad))
    with pytest.raises(ValueError, match="one equally sized column per header entry"):
        write_sweep_csv(str(bad), ["a", "b"], [np.zeros(3), np.zeros(4)])


@pytest.mark.parametrize(
    "exc",
    [
        np.linalg.LinAlgError("Singular matrix"),
        RuntimeError("numerical failure"),
        # a bug's TypeError or KeyError is one error line too, never a traceback
        TypeError("bad operand"),
        KeyError("missing"),
    ],
)
def test_numerical_failure_exits_one(capsys, monkeypatch, exc):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr("sivodmr.cli.invert_field", fail)
    code, out, err = run(capsys, "invert", "--nu1-mhz", "98.148", "--nu2-mhz", "238.148")
    assert code == 1
    assert out == ""
    assert err == f"error: {exc}\n"


def test_numerical_overflow_exits_one(capsys):
    for argv, message in (
        # 10 ** ((4000 - 16) / 10) overflows a float inside mw_response
        (["simulate", "--b0-gauss", "60", "--mw-dbm", "4000"], "mw_dbm too large"),
        (["sweep", "mw", "--dbm-max", "4000"], "mw_dbm too large"),
        # gamma * 1e304 T overflows in the Hamiltonian build
        (["simulate", "--b0-gauss", "1e308"], "b0_t too large"),
        # 1e308 MHz is inf in Hz: no Infinity JSON, no inf column
        (["sensitivity", "--contrast", "1e-3", "--fwhm-mhz", "1e308"], "fwhm_hz must be"),
        (["sweep", "laser", "--fwhm-mhz", "1e308"], "fwhm_hz must be"),
        # finite inputs whose eta overflows: no Infinity JSON, no inf column
        (["sensitivity", "--contrast", "1e-300", "--fwhm-mhz", "1e300"], "sensitivity overflows"),
        (["sweep", "laser", "--contrast", "1e-300", "--fwhm-mhz", "1e300"],
         "sensitivity overflows"),
        # a line far past every line of the domain: its squared miss overflows
        (["invert", "--nu1-mhz", "1e300", "--nu2-mhz", "2"], "no field reproduces"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        # one line: no RuntimeWarning and no traceback
        assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_run_config_defaults_are_the_library_defaults():
    cfg = RunConfig()
    assert cfg.consts() == PhysicalConstants()
    assert cfg.saturation() == SaturationParams()
    assert cfg.mw() == MwResponseParams()
    assert cfg.acquisition() == AcquisitionConfig(
        cfg.fmin_mhz * 1e6, cfg.fmax_mhz * 1e6, cfg.points
    )
    assert cfg.b_max_gauss / GAUSS_PER_T == DEFAULT_B_MAX_T


def test_config_file_and_env(tmp_path, capsys, monkeypatch):
    env_cfg = tmp_path / "env.cfg"
    env_cfg.write_text("# a comment-only line and a blank line are skipped\n\nd_mhz = 36.6\n")
    flag_cfg = tmp_path / "flag.cfg"
    flag_cfg.write_text("d_mhz = 30.0  # overrides the env file\n")
    out = tmp_path / "f.csv"

    monkeypatch.setenv("ODMR_CONFIG", str(env_cfg))
    code, _, _ = run(
        capsys, "sweep", "field", "--points", "2", "--bmax-gauss", "1", "--out", str(out)
    )
    assert code == 0
    _, cols, _ = read_sweep_csv(str(out))
    assert cols[1][0] == pytest.approx(2 * 36.6e6, rel=1e-12)

    code, _, _ = run(
        capsys, "--config", str(flag_cfg), "sweep", "field",
        "--points", "2", "--bmax-gauss", "1", "--out", str(out),
    )
    assert code == 0
    _, cols, _ = read_sweep_csv(str(out))
    assert cols[1][0] == pytest.approx(2 * 30e6, rel=1e-12)


def test_unknown_config_key_exits_one(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    for text, detail in (
        ("bogus_key = 1\n", "bad.cfg:1: unknown key 'bogus_key'"),
        ("\nd_mhz 35\n", "bad.cfg:2: expected 'key = value'"),
        ("d_mhz = abc\n", "bad.cfg:1: bad value for d_mhz: 'abc'"),
        ("points = 4.5\n", "bad.cfg:1: bad value for points: '4.5'"),  # points is an int
    ):
        cfg.write_text(text)
        code, _, err = run(
            capsys, "--config", str(cfg), "sensitivity", "--contrast", "1e-3",
            "--fwhm-mhz", "13",
        )
        assert code == 1
        assert detail in err


def test_help_available_everywhere(capsys):
    for argv in (["--help"], ["simulate", "--help"], ["fit", "--help"],
                 ["invert", "--help"], ["sweep", "--help"], ["sensitivity", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()


def test_import_loads_numpy_only():
    # a fresh interpreter: the package and its CLI must not pull in scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(sivodmr.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, sivodmr, sivodmr.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert out.stdout.strip() == "[]"
