"""The three workloads of the benchmark, and the CLI session of traced runs.

Each workload makes the operations of one round from the seeded generator,
runs one operation as a timed call into sivodmr, and checks its output
against the reference model (``reference.py``).  An operation marked
``fault`` is a fixed input, the same in every round and every run, that
hits a fault of the program named in the README; when it fails in the way
that fault does, it counts as failed.  Any other failed check is a wrong
result.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference as ref
import sivodmr
import sivodmr.cli
from sivodmr import AcquisitionConfig, FieldVector, PhysicalConstants

CONSTS = PhysicalConstants(d_hz=ref.D_HZ, g_factor=ref.G_FACTOR)
G = ref.GAUSS_T
FIELDS_FILE = Path(__file__).resolve().parent / "fields.json"
SWEEP_LIMIT = "sweep limit"  # text of the eigensolver fault's RuntimeError

# The measurement chain of spectrum_roundtrip and cli_session.
F_START_HZ, F_STOP_HZ, N_POINTS = 50e6, 280e6, 92001
LASER_MW, MW_DBM, DWELL_S = 85.0, 18.0, 10e-3

# invert_survey's exact pairs lie in criterion 11 clause A's domain (B0
# 5-120 G, theta outside 50-60 deg), minus two regions where some exact
# pairs come back as a rival field without the degenerate flag, on some
# fields only: theta at or above THETA_FAULT_DEG, and B0 in LEVEL_CROSSING_G
# (around the crossing gamma B0 = D at 12.49 G, where it happens at
# 1.75-7.25 deg).  The first is the fault kept as the fixed FAULT_FIELD in
# every round.  An inversion takes 5 to 400 ms depending on the field, so
# the exact fields are a frozen set, one draw from default_rng(SURVEY_SEED)
# in each of SURVEY_CELLS B0 x theta cells: every run holds the same mix
# of cheap and dear fields.  The noisy pairs' fields are frozen for the
# same reason (one costs 20 to 450 ms, mostly by field), stratified on 5-120
# G and 52.5-56.5 deg; the seed gives the noise on their lines and the order
# of every round.
THETA_FAULT_DEG = 85.0
LEVEL_CROSSING_G = (11.5, 13.5)
FAULT_FIELD = (61.884686535515186, 89.76732823173803)  # G, deg
SURVEY_SEED = 2208
SURVEY_CELLS = (12, 6)
NOISE_HZ = 100e3

# forward_map batches are the size of the inversion grid (201 x 91).  The
# batched eigensolver fails when a field with a weak transverse coupling
# (gamma B0 sin theta from a few Hz to about 13 kHz) shares a batch with
# fields that need more sweeps.  That happened on 3 of 6 batches drawn over
# the whole domain, on some seeds and not others, so seeded batches draw
# B0 >= B_MIN_T and theta >= THETA_MIN_RAD, plus exact axial fields, which
# never rotate; the fixed full-domain batch FAULT_BATCH_SEED keeps the
# fault in every round.
BATCH = 201 * 91
B_MIN_T, B_MAX_T = 5 * G, 200 * G
THETA_MIN_RAD = math.radians(5.0)
N_AXIAL = 8
N_SOLO = 4
FAULT_BATCH_SEED = 0


def program_api() -> SimpleNamespace:
    """The entry points the benchmark calls; the traced phase wraps them."""
    return SimpleNamespace(
        transition_table=sivodmr.transition_table,
        transition_pair=sivodmr.transition_pair,
        synthesize_spectrum=sivodmr.synthesize_spectrum,
        fit_lorentzian_multi=sivodmr.fit_lorentzian_multi,
        invert_field=sivodmr.invert_field,
        cli_main=sivodmr.cli.main,
    )


def load_fields() -> list[tuple[float, float]]:
    """Frozen (B0 gauss, theta deg) list of spectrum_roundtrip and cli_session."""
    with open(FIELDS_FILE, encoding="utf-8") as fh:
        data = json.load(fh)
    return [(float(f["b0_gauss"]), float(f["theta_deg"])) for f in data["fields"]]


def _stratified(rng, n: int) -> np.ndarray:
    """n draws on [0, 1), one in each of n equal strata, in random order."""
    return rng.permutation((np.arange(n) + rng.uniform(0.0, 1.0, n)) / n)


def _survey_b0(u: np.ndarray) -> np.ndarray:
    """Map [0, 1) onto 5-120 G without LEVEL_CROSSING_G."""
    lo, hi = LEVEL_CROSSING_G
    b = 5.0 + u * (115.0 - (hi - lo))
    return np.where(b < lo, b, b + (hi - lo))


def _survey_theta(u: np.ndarray) -> np.ndarray:
    """Map [0, 1) onto 0-50 deg and 60 deg-THETA_FAULT_DEG."""
    t = u * (THETA_FAULT_DEG - 10.0)
    return np.where(t < 50.0, t, t + 10.0)


def survey_fields() -> list[tuple[float, float]]:
    """Frozen (B0 gauss, theta deg) exact fields of invert_survey."""
    nb, nt = SURVEY_CELLS
    rng = np.random.default_rng(SURVEY_SEED)
    i, j = np.meshgrid(np.arange(nb), np.arange(nt), indexing="ij")
    b = _survey_b0((i.ravel() + rng.uniform(0.0, 1.0, nb * nt)) / nb)
    t = _survey_theta((j.ravel() + rng.uniform(0.0, 1.0, nb * nt)) / nt)
    return [(float(x), float(y)) for x, y in zip(b, t)]


def noisy_fields(n: int) -> list[tuple[float, float]]:
    """Frozen (B0 gauss, theta deg) fields of invert_survey's noisy pairs."""
    rng = np.random.default_rng(SURVEY_SEED + 1)
    b = 5.0 + 115.0 * _stratified(rng, n)
    t = 52.5 + 4.0 * _stratified(rng, n)
    return [(float(x), float(y)) for x, y in zip(b, t)]


def _field(b0_gauss: float, theta_deg: float) -> FieldVector:
    # the same arithmetic as `sivodmr simulate`, so both paths share the truth
    return FieldVector(b0_t=b0_gauss / 1e4, theta_rad=math.radians(theta_deg))


class Workload:
    """One workload: ``round`` makes operations, ``run`` is the timed call.

    ``check`` returns None for a right output or the reason it is wrong;
    ``is_fault`` tells whether a failed fixed ``fault`` operation failed
    the way the counted fault does.  ``workdir`` serves the CLI session,
    which writes files.
    """

    name = ""
    probe = "import"  # probe.py mode of the set-up samples
    host_scaled = True  # scale the loop's times by hostclock.py

    def __init__(self, api, workdir=None):
        self.api = api
        self.workdir = workdir

    def warm(self) -> None:
        """Fill caches before timing starts."""

    def is_fault(self, out, reason: str) -> bool:
        return False


@dataclass
class InvertOp:
    nu1: float
    nu2: float
    sigma_hz: float
    b_true: float
    theta_true: float
    must_flag: bool = False
    fault: bool = False


class InvertSurvey(Workload):
    name = "invert_survey"
    probe = "invert"
    N_NOISY = 12

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.exact_ops = [self._exact(b, t) for b, t in survey_fields()]
        self.noisy_ops = [self._exact(b, t) for b, t in noisy_fields(self.N_NOISY)]
        self.fault_op = self._exact(*FAULT_FIELD, fault=True)

    def _exact(self, b_gauss, theta_deg, fault=False) -> InvertOp:
        fv = _field(b_gauss, theta_deg)
        tp = self.api.transition_pair(fv, CONSTS)
        return InvertOp(tp.nu1_hz, tp.nu2_hz, 0.0, fv.b0_t, fv.theta_rad, fault=fault)

    def warm(self) -> None:
        self.api.invert_field(self.fault_op.nu1, self.fault_op.nu2, CONSTS)

    def round(self, rng) -> list:
        ops = list(self.exact_ops)
        for exact in self.noisy_ops:
            n1, n2 = exact.nu1 + rng.normal(0.0, NOISE_HZ), exact.nu2 + rng.normal(0.0, NOISE_HZ)
            ops.append(InvertOp(min(n1, n2), max(n1, n2), NOISE_HZ, exact.b_true,
                                exact.theta_true, must_flag=True))
        ops.append(self.fault_op)
        return [ops[k] for k in rng.permutation(len(ops))]

    def run(self, op):
        return self.api.invert_field(op.nu1, op.nu2, CONSTS, sigma_hz=op.sigma_hz)

    def check(self, op, out) -> str | None:
        return ref.check_inversion(op.nu1, op.nu2, out, op.b_true, op.theta_true, op.must_flag)

    def is_fault(self, out, reason: str) -> bool:
        return reason.startswith(ref.SILENT_MISS)


@dataclass
class BatchOp:
    b0: np.ndarray
    theta: np.ndarray
    solo: np.ndarray
    fault: bool = False


class ForwardMap(Workload):
    """Its times stay raw: over five seeds they spread 0.02 raw and 0.12
    scaled, as its large batches did not slow with the host clock's kernel."""

    name = "forward_map"
    host_scaled = False
    N_SEEDED = 9

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        frng = np.random.default_rng(FAULT_BATCH_SEED)
        b0 = frng.uniform(0.0, B_MAX_T, BATCH)
        theta = frng.uniform(0.0, math.pi / 2, BATCH)
        self.fault_op = BatchOp(b0, theta, np.arange(N_SOLO), fault=True)

    def warm(self) -> None:
        self.api.transition_table(self.fault_op.b0[:64], self.fault_op.theta[:64], CONSTS)

    def round(self, rng) -> list:
        ops = []
        for _ in range(self.N_SEEDED):
            b0 = rng.uniform(B_MIN_T, B_MAX_T, BATCH)
            theta = rng.uniform(THETA_MIN_RAD, math.pi / 2, BATCH)
            theta[:N_AXIAL] = 0.0
            solo = np.concatenate(([0], rng.choice(np.arange(N_AXIAL, BATCH), N_SOLO - 1)))
            ops.append(BatchOp(b0, theta, solo))
        ops.append(self.fault_op)
        return ops

    def run(self, op):
        return self.api.transition_table(op.b0, op.theta, CONSTS)

    def check(self, op, out) -> str | None:
        solo = []
        for k in op.solo:
            tp = self.api.transition_pair(FieldVector(op.b0[k], op.theta[k]), CONSTS)
            solo.append((int(k), tp.nu1_hz, tp.nu2_hz))
        return ref.check_lines(op.b0, op.theta, out[0], out[1], solo)

    def is_fault(self, out, reason: str) -> bool:
        return isinstance(out, RuntimeError) and SWEEP_LIMIT in str(out)


@dataclass
class ChainOp:
    b0_gauss: float
    theta_deg: float
    noise_seed: int
    fault: bool = False


def _chain_ops(fields, rng, n) -> list:
    """n distinct fields in random order, each with its own noise seed."""
    picks = rng.permutation(len(fields))[:n]
    seeds = rng.integers(0, 2**31, size=n)
    return [ChainOp(*fields[int(k)], int(s)) for k, s in zip(picks, seeds)]


def _check_chain(op, centers, fit: dict, inv) -> str | None:
    """Fit and inversion of one chain; ``fit`` maps the fit's names to values."""
    fv = _field(op.b0_gauss, op.theta_deg)
    if not fit["converged"]:
        return "two-line fit did not converge"
    reason = ref.check_fit(centers, [fit["sigma_center1_hz"], fit["sigma_center2_hz"]],
                           [fit["fwhm1_hz"], fit["fwhm2_hz"]],
                           [fit["sigma_fwhm1_hz"], fit["sigma_fwhm2_hz"]],
                           fv.b0_t, fv.theta_rad, MW_DBM)
    if reason is None:
        nu1, nu2 = sorted(centers)
        reason = ref.check_inversion(nu1, nu2, inv, fv.b0_t, fv.theta_rad)
    return reason


class SpectrumRoundtrip(Workload):
    """A round visits every frozen field once, so the mix of fast and slow
    fields is the same in every run and only the noise and order change."""

    name = "spectrum_roundtrip"
    probe = "invert"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fields = load_fields()

    def warm(self) -> None:
        self.run(ChainOp(*self.fields[0], 0))

    def round(self, rng) -> list:
        return _chain_ops(self.fields, rng, len(self.fields))

    def run(self, op):
        cfg = AcquisitionConfig(F_START_HZ, F_STOP_HZ, N_POINTS, dwell_s=DWELL_S,
                                laser_mw=LASER_MW, mw_dbm=MW_DBM, seed=op.noise_seed)
        spec = self.api.synthesize_spectrum(cfg, _field(op.b0_gauss, op.theta_deg), CONSTS)
        fit = self.api.fit_lorentzian_multi(spec, n_peaks=2)
        sigma = max(fit.sigma("center1_hz"), fit.sigma("center2_hz"))
        inv = self.api.invert_field(fit.value("center1_hz"), fit.value("center2_hz"),
                                    CONSTS, sigma_hz=sigma)
        return fit, inv

    def check(self, op, out) -> str | None:
        fit, inv = out
        values = dict(fit.params, converged=fit.converged)
        values.update((f"sigma_{n}", fit.sigma(n)) for n in fit.names)
        return _check_chain(op, [fit.value("center1_hz"), fit.value("center2_hz")],
                            values, inv)


class CliSession(Workload):
    """simulate, fit odmr and invert through ``sivodmr.cli.main``, in this
    interpreter: the closing operation of traced runs."""

    name = "cli_session"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.fields = load_fields()

    def warm(self) -> None:
        self.run(ChainOp(*self.fields[0], 0))

    def _cli(self, argv) -> None:
        code = self.api.cli_main(argv)
        if code != 0:
            raise RuntimeError(f"sivodmr {argv[0]} exited with {code}")

    def run(self, op):
        spec, fit_out, inv_out = (str(Path(self.workdir) / n)
                                  for n in ("spec.csv", "fit.json", "inv.json"))
        self._cli(["simulate", "--b0-gauss", repr(op.b0_gauss),
                   "--theta-deg", repr(op.theta_deg),
                   "--points", str(N_POINTS), "--fmin-mhz", repr(F_START_HZ / 1e6),
                   "--fmax-mhz", repr(F_STOP_HZ / 1e6), "--laser-mw", repr(LASER_MW),
                   "--mw-dbm", repr(MW_DBM), "--dwell-ms", repr(DWELL_S * 1e3),
                   "--seed", str(op.noise_seed), "--out", spec])
        self._cli(["fit", "odmr", spec, "--out", fit_out])
        with open(fit_out, encoding="utf-8") as fh:
            fit = json.load(fh)
        # the argv strings carry the pair, so the check uses what they parse to
        args = [repr(fit["center1_hz"] / 1e6), repr(fit["center2_hz"] / 1e6),
                repr(max(fit["sigma_center1_hz"], fit["sigma_center2_hz"]) / 1e3)]
        self._cli(["invert", "--nu1-mhz", args[0], "--nu2-mhz", args[1],
                   "--sigma-khz", args[2], "--out", inv_out])
        with open(inv_out, encoding="utf-8") as fh:
            inv = json.load(fh)
        return fit, inv, [float(a) for a in args]

    def check(self, op, out) -> str | None:
        fit, inv, (nu1_mhz, nu2_mhz, _sigma_khz) = out
        return _check_chain(op, [nu1_mhz * 1e6, nu2_mhz * 1e6], fit, SimpleNamespace(**inv))


# CliSession is not a workload of its own: its three process start-ups per
# operation spread past the timing bounds (README, "Dropped workload"); the
# traced run still drives it in-process for the io and cli layers.
WORKLOADS = {w.name: w for w in (InvertSurvey, SpectrumRoundtrip, ForwardMap)}
