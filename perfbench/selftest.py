"""Self-test of the benchmark.

Usage: python3 perfbench/selftest.py

1. Runs the benchmark command on every workload at a tiny size (one round,
   and one traced run) and checks its result line.
2. Feeds every output check a planted wrong answer and asserts that the
   check reports it.
3. Checks that host scaling divides times and multiplies rates by the
   round's slowness, and leaves an unscaled workload's times raw.
Exits 0 when every test passes.
"""

import dataclasses
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
import workloads as W  # noqa: E402
from sivodmr import FieldVector  # noqa: E402

API = W.program_api()
MHZ = 1e6


def expect(cond, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def rejects(reason, what: str) -> None:
    expect(reason is not None, f"check accepted a planted wrong answer: {what}")


def bench(workload: str, trace: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "0.01", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=HERE.parent, capture_output=True, text=True, timeout=300)
    expect(proc.returncode == 0, f"{workload} exited {proc.returncode}: {proc.stdout[-600:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# one round per workload: (operations per round, fault operations per round)
ROUNDS = {
    "invert_survey": (len(W.survey_fields()) + W.InvertSurvey.N_NOISY + 1, 1),
    "spectrum_roundtrip": (len(W.load_fields()), 0),
    "forward_map": (W.ForwardMap.N_SEEDED + 1, 1),
}


def test_command_tiny() -> None:
    for workload, (ops, faults) in ROUNDS.items():
        out = bench(workload, 0)
        expect(out["correct"] is True, f"{workload}: wrong results")
        expect((out["attempted"], out["failed"]) == (ops, faults),
               f"{workload}: attempted/failed {out['attempted']}/{out['failed']}, "
               f"want {ops}/{faults}")
        names = {"ops_per_s", "op_p50_ms", "setup_s", "peak_rss_mb"}
        expect(set(out["metrics"]) == names, f"{workload}: metrics {sorted(out['metrics'])}")
        expect(all(m["value"] > 0 for m in out["metrics"].values()), f"{workload}: zero metric")


def test_command_traced() -> None:
    out = bench("spectrum_roundtrip", 1)
    expect(out["correct"] is True, "traced run: wrong results")
    import run
    expect(set(out["metrics"]) == set(run.LAYER_UNITS), "traced run: metric names")
    for name in ("spin_model.table_ms", "inversion.invert_ms", "fitting.fit_ms",
                 "io.write_ms", "cli.import_s", "cli.invert_s"):
        expect(out["metrics"][name]["value"] > 0, f"traced run: {name} is 0")


def test_forward_check() -> None:
    rng = np.random.default_rng(1)
    b0 = rng.uniform(W.B_MIN_T, W.B_MAX_T, 40)
    theta = rng.uniform(W.THETA_MIN_RAD, math.pi / 2, 40)
    theta[:3] = 0.0
    nu1, nu2 = API.transition_table(b0, theta, W.CONSTS)
    solo = [(k, *API.transition_table(b0[k:k + 1], theta[k:k + 1], W.CONSTS)) for k in (0, 7)]
    solo = [(k, float(a[0]), float(b[0])) for k, a, b in solo]
    expect(ref.check_lines(b0, theta, nu1, nu2, solo) is None,
           "forward check rejects a right batch")
    moved = nu2.copy()
    moved[11] += 1 * MHZ
    rejects(ref.check_lines(b0, theta, nu1, moved, solo), "a line moved by 1 MHz")
    rejects(ref.check_lines(b0, theta, nu2, nu1, solo), "nu1 and nu2 swapped")
    # at theta = 0 replace the pair by two other exact gaps of the same field
    g = ref.gaps(b0[:1], theta[:1])[0]
    other = sorted(x for x in g if min(abs(x - nu1[0]), abs(x - nu2[0])) > 1 * MHZ)[:2]
    planted1, planted2 = nu1.copy(), nu2.copy()
    planted1[0], planted2[0] = other
    rejects(ref.check_lines(b0, theta, planted1, planted2, solo), "axial pair of other gaps")
    rejects(ref.check_lines(b0, theta, nu1, nu2, [(7, solo[1][1] + MHZ, solo[1][2])]),
            "a field whose lines change when solved alone")
    err = RuntimeError("Jacobi sweep limit exceeded")
    wl = W.ForwardMap(API)
    expect(wl.is_fault(err, "x") and not wl.is_fault(ValueError("sweep limit"), "x"),
           "forward_map fault classification")


def _invert(b_gauss, theta_deg, sigma_hz=0.0):
    fv = FieldVector(b_gauss * ref.GAUSS_T, math.radians(theta_deg))
    tp = API.transition_pair(fv, W.CONSTS)
    res = API.invert_field(tp.nu1_hz, tp.nu2_hz, W.CONSTS, sigma_hz=sigma_hz)
    return tp, fv, res


def test_inversion_check() -> None:
    tp, fv, res = _invert(60.0, 20.0)
    expect(not res.degenerate, "60 G / 20 deg should invert cleanly")
    expect(ref.check_inversion(tp.nu1_hz, tp.nu2_hz, res, fv.b0_t, fv.theta_rad) is None,
           "inversion check rejects a right answer")
    shifted = dataclasses.replace(res, b0_t=res.b0_t + ref.GAUSS_T)
    rejects(ref.check_inversion(tp.nu1_hz, tp.nu2_hz, shifted, fv.b0_t, fv.theta_rad),
            "field shifted by 1 G")
    # a flagged answer must still reproduce the pair
    flagged = dataclasses.replace(shifted, degenerate=True, reason="ambiguous")
    rejects(ref.check_inversion(tp.nu1_hz, tp.nu2_hz, flagged, fv.b0_t, fv.theta_rad),
            "flagged field shifted by 1 G")
    turned = dataclasses.replace(res, theta_rad=res.theta_rad + math.radians(1.0))
    rejects(ref.check_inversion(tp.nu1_hz, tp.nu2_hz, turned, fv.b0_t, fv.theta_rad),
            "angle turned by 1 deg")
    # a rival field that reproduces the pair exactly but is not flagged
    rival = dataclasses.replace(res, b0_t=fv.b0_t + ref.GAUSS_T)
    reason = ref.check_inversion(*_pair_at(rival), rival, fv.b0_t, fv.theta_rad)
    rejects(reason, "unflagged rival")
    expect(reason.startswith(ref.SILENT_MISS), "unflagged rival is a silent miss")
    tp, fv, res = _invert(40.0, 54.5, sigma_hz=W.NOISE_HZ)
    unflagged = dataclasses.replace(res, degenerate=False, reason=None)
    rejects(ref.check_inversion(tp.nu1_hz, tp.nu2_hz, unflagged, fv.b0_t, fv.theta_rad,
                                must_flag=True), "noisy in-band pair without the flag")
    wl = W.InvertSurvey(API)
    expect(wl.fault_op.fault and wl.check(wl.fault_op, wl.run(wl.fault_op)) is not None,
           "the fixed fault field inverts without a fault")


def _pair_at(res):
    tp = API.transition_pair(FieldVector(res.b0_t, res.theta_rad), W.CONSTS)
    return tp.nu1_hz, tp.nu2_hz


def test_chain_checks() -> None:
    wl = W.SpectrumRoundtrip(API)
    op = W.ChainOp(*wl.fields[0], 11)
    fit, inv = wl.run(op)
    expect(wl.check(op, (fit, inv)) is None, "chain check rejects a right round trip")
    moved = dataclasses.replace(fit, values=fit.values + np.where(
        np.array(fit.names) == "center1_hz", 1 * MHZ, 0.0))
    rejects(wl.check(op, (moved, inv)), "fitted center moved by 1 MHz")
    wide = dataclasses.replace(fit, values=fit.values * np.where(
        np.array(fit.names) == "fwhm2_hz", 1.2, 1.0))
    rejects(wl.check(op, (wide, inv)), "fitted width 20 % too wide")
    stalled = dataclasses.replace(fit, converged=False)
    rejects(wl.check(op, (stalled, inv)), "fit that did not converge")
    off = dataclasses.replace(inv, b0_t=inv.b0_t + ref.GAUSS_T)
    rejects(wl.check(op, (fit, off)), "inverted field shifted by 1 G")
    expect(wl.is_fault(None, "any") is False, "spectrum_roundtrip has no counted fault")


class _Sleeper(W.Workload):
    """Five 2 ms operations a round that always pass."""

    name = "sleeper"

    def round(self, rng) -> list:
        return [W.InvertOp(0.0, 0.0, 0.0, 0.0, 0.0) for _ in range(5)]

    def run(self, op):
        time.sleep(0.002)

    def check(self, op, out):
        return None


def test_host_scaling() -> None:
    import run

    for scaled in (True, False):
        wl = _Sleeper(API)
        wl.host_scaled = scaled
        phase = run.measure(wl, None, 0.01)
        expect(len(phase.rounds) == 1, f"{len(phase.rounds)} rounds, want 1")
        (passed, busy, slow), = phase.rounds
        expect(passed == 5 and slow > 0 and (scaled or slow == 1.0),
               f"round {passed} ops, slowness {slow}, scaled={scaled}")
        expect(math.isclose(phase.ops_per_s(), passed / busy * slow), "scaled rate")
        raw_p50 = statistics.median(phase.raw_latencies)
        expect(math.isclose(phase.p50_ms(), raw_p50 / slow * 1e3), "scaled op_p50_ms")


def test_frozen_inputs() -> None:
    proc = subprocess.run([sys.executable, str(HERE / "freeze.py"), "--check"],
                          capture_output=True, text=True, timeout=300)
    expect(proc.returncode == 0, proc.stdout.strip())


def main() -> int:
    tests = [test_forward_check, test_inversion_check, test_chain_checks, test_host_scaling,
             test_frozen_inputs, test_command_tiny, test_command_traced]
    failures = 0
    for test in tests:
        try:
            test()
            print(f"PASS {test.__name__}", flush=True)
        except AssertionError as err:
            failures += 1
            print(f"FAIL {test.__name__}: {err}", flush=True)
    print(f"{len(tests) - failures}/{len(tests)} self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
