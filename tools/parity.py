"""Bit-identity digests of sivodmr's numerical outputs.

Run from the root of a checkout, against the tree whose sources are on the
path:

    PYTHONPATH=<tree>/src python3 tools/parity.py [--dump PATH]

It prints one JSON line with a sha256 digest and a count for each of six
groups of outputs.  Two trees whose digests agree give bit-identical
results on every input here, so a change meant to move no output bit can be
checked by running this on the parent and on the change:

- lines and jacobian: transition_table sorted, labelled, and labelled
  with the Jacobian (the only Jacobian it gives) on 20 000 seeded fields
  (0-200 G, 0-90 deg) plus 40 edge rows (B0 = 0, 1e-300 T, 1 nT-1 uT,
  gamma B0 = D and 2D, 60 G and 200 G at theta = 0, pi/2, 0.3 and 1 rad;
  the Jacobian of the B0 = 0 rows in a call of their own, whose error
  text is recorded on a tree that refuses it).  lines hashes every line
  the calls return, jacobian every Jacobian, so a change meant to move
  only Jacobian rows shows whether the lines stayed bit-identical;
- invert: every field of invert_field's InversionResult, or the raised
  error, on 1 757 pairs: 300 random exact and 200 random 100 kHz-noisy
  pairs over 0.5-150 G, 188 exact pairs at 89.5-89.99 deg, 200 in the
  12.1-12.55 G x 0.5-10 deg level-crossing band, 25 sub-gauss pairs, the
  500 clause A and 126 clause B pairs of acceptance criterion 11, 6 noisy
  pairs off the nominal constants, 100 pairs with 100 kHz of noise at
  85-90 deg and 100 with 1 MHz of noise over 0-90 deg (0.5-150 G, sigma
  the noise), and 12 pairs within 5 kHz of the zero-field pair (2D, 2D)
  with sigma = 0 whose lines sum to less than 4D, which no field reaches
  (every line pair of the domain sums to 4D or more), so that no root
  reproduces them;
- synth: the frequency grid, signal and off-grid flag of
  synthesize_spectrum, noiseless and seeded, at 461, 4 601 and 92 001
  points, at 60 G and 0 rad, 40 G and 0.6 rad, zero field, and 80 G and
  0.2 rad, whose upper line lies off the 50-280 MHz grid (24 spectra);
- fits_unbinned: values, sigmas, residual, iterations and converged of 4
  two-line ODMR fits of 4 601 points and 8 saturation fits, none of which
  takes the binned first stage of fit_lorentzian_multi;
- fits_binned: the same of 7 ODMR fits of 92 001 points, which start on
  binned data: the 4 two-line fits above, a one-line fit of the merged
  zero-field line and two two-line fits from an explicit init, so that the
  seeded and the init= starts are both covered.  The second init lies far
  from the lines, and its binned stage rejects an evaluated trial after an
  accepted point, so a fit whose Jacobian buffer that trial overwrites is
  covered.  Each of the 7 fits finishes on the per-bin Simpson nodes, in
  2 rounds, and evaluates no point at full resolution.  A change to the
  binned or the node stage moves only this digest.

With --dump PATH it also writes records to PATH as JSON: for the invert
group, each pair's case group, inputs and every InversionResult field or
the raised error; for the two fit groups, every FitResult field of every
fit.  A change meant to move an invert digest can then be counted, group
by group, against the parent's dump, and one meant to move a fit digest
bounded in sigma units (write both dumps with the same version of this
tool, run once on each tree):

    PYTHONPATH=src python3 tools/parity.py --compare PARENT.json CHANGE.json

reads two such dumps and prints, for each invert case group, how many
records moved in field (beyond the inverter's dedupe tolerance, 2e-8 T or
2e-5 rad), in reason or in n_compatible, or changed between a result and an
error, with each moved record; then, for each InversionResult field and
for the error, how many records changed at any bit, moved or not, so that
a change below the move tolerance shows too; and for each fit group the
largest shift of a fitted value in units of the first dump's sigma, the
largest relative shift of a sigma and of residual_rms, how many fits
changed iterations and, counted apart, how many changed converged, so that
an expected change of iteration count cannot hide a flip of converged, and
how many records changed at any bit, the ODMR and the saturation fits
counted apart.  A change that only reorders a sum, such as a blocked
normal matrix, is bounded by these.

Every input is drawn from fixed seeds.  The numeric thread pools are held
to one thread, as in perfbench, so the BLAS calls do not change with the
host.  A run takes a few seconds on a 2-vCPU host.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from sivodmr.fitting import fit_lorentzian_multi, fit_saturation  # noqa: E402
from sivodmr.inversion import InversionResult, NoSolutionError, invert_field  # noqa: E402
from sivodmr.spectrum import (  # noqa: E402
    AcquisitionConfig,
    SaturationParams,
    photon_rate,
    synthesize_spectrum,
)
from sivodmr.spin_model import (  # noqa: E402
    FieldVector,
    PhysicalConstants,
    transition_pair,
    transition_table,
)

GAUSS = 1e-4


class Digest:
    """A sha256 over a sequence of float arrays and strings, with a count of items."""

    def __init__(self) -> None:
        self._hash = hashlib.sha256()
        self.count = 0
        self.records: list[dict] = []

    def array(self, a) -> None:
        a = np.ascontiguousarray(a, dtype=float)
        self._hash.update(repr(a.shape).encode())
        self._hash.update(a.tobytes())

    def text(self, s: str) -> None:
        self._hash.update(s.encode())
        self._hash.update(b"\0")

    def result(self) -> dict:
        return {"sha256": self._hash.hexdigest(), "count": self.count}


def _edge_rows(consts: PhysicalConstants) -> tuple[np.ndarray, np.ndarray]:
    gamma = consts.gyro_hz_per_t
    b0s = [0.0, 1e-300, 1e-9, 1e-8, 1e-7, 1e-6,
           consts.d_hz / gamma, 2.0 * consts.d_hz / gamma, 60 * GAUSS, 200 * GAUSS]
    thetas = [0.0, math.pi / 2, 0.3, 1.0]
    bb, tt = np.meshgrid(b0s, thetas, indexing="ij")
    return bb.ravel(), tt.ravel()


def table_digests(consts: PhysicalConstants) -> tuple[dict, dict]:
    """The lines digest and the Jacobian digest of the same transition_table calls."""
    rng = np.random.default_rng(18_001)
    b0 = rng.uniform(0.0, 200 * GAUSS, 20_000)
    theta = rng.uniform(0.0, math.pi / 2, 20_000)
    eb, et = _edge_rows(consts)
    b0, theta = np.concatenate([b0, eb]), np.concatenate([theta, et])
    lines, jacobian = Digest(), Digest()
    positive = b0 > 0
    for labelled in (False, True):
        lines.array(np.stack(transition_table(b0, theta, consts, labelled=labelled)))
    nu1, nu2, jac = transition_table(
        b0[positive], theta[positive], consts, jacobian=True, labelled=True
    )
    lines.array(np.stack([nu1, nu2]))
    jacobian.array(jac)
    try:
        *_, jac = transition_table(
            b0[~positive], theta[~positive], consts, jacobian=True, labelled=True
        )
    except ValueError as exc:
        jacobian.text(f"ValueError {exc}")
    else:
        jacobian.array(jac)
    lines.count = jacobian.count = b0.size
    return lines.result(), jacobian.result()


def _pair(b0_t: float, theta_rad: float, consts: PhysicalConstants) -> tuple[float, float]:
    tp = transition_pair(FieldVector(b0_t=b0_t, theta_rad=theta_rad), consts)
    return tp.nu1_hz, tp.nu2_hz


def _inversion_cases(consts: PhysicalConstants):
    """(group, nu1, nu2, consts, sigma_hz) for each pair of the verification set."""
    rng = np.random.default_rng(18_002)
    for b_g, th in zip(rng.uniform(0.5, 150.0, 300), rng.uniform(0.0, math.pi / 2, 300)):
        yield ("random_exact", *_pair(b_g * GAUSS, th, consts), consts, 0.0)
    for b_g, th in zip(rng.uniform(0.5, 150.0, 200), rng.uniform(0.0, math.pi / 2, 200)):
        nu1, nu2 = _pair(b_g * GAUSS, th, consts)
        n1, n2 = nu1 + rng.normal(0.0, 1e5), nu2 + rng.normal(0.0, 1e5)
        yield ("random_noisy", min(n1, n2), max(n1, n2), consts, 1e5)
    for b_g, th_d in zip(rng.uniform(0.5, 150.0, 188), rng.uniform(89.5, 89.99, 188)):
        yield ("near_90", *_pair(b_g * GAUSS, math.radians(th_d), consts), consts, 0.0)
    for b_g, th_d in zip(rng.uniform(12.1, 12.55, 200), rng.uniform(0.5, 10.0, 200)):
        yield ("crossing_band", *_pair(b_g * GAUSS, math.radians(th_d), consts), consts, 0.0)
    for b_g in (0.1, 0.2, 0.3, 0.5, 0.8):
        for th_d in (0.0, 15.0, 30.0, 60.0, 90.0):
            yield ("sub_gauss", *_pair(b_g * GAUSS, math.radians(th_d), consts), consts, 0.0)
    # acceptance criterion 11, clause A then clause B
    crng = np.random.default_rng(11_2026)
    b_true = crng.uniform(5.0, 120.0, 500) * GAUSS
    u = crng.uniform(0.0, 80.0, 500)
    for b0, th in zip(b_true, np.radians(np.where(u < 50.0, u, u + 10.0))):
        yield ("criterion_11_a", *_pair(b0, th, consts), consts, 0.0)
    for b_g in (5.0, 10.0, 20.0, 40.0, 60.0, 90.0, 120.0):
        for th_d in (52.5, 53.5, 54.5, 54.74, 55.5, 56.5):
            nu1, nu2 = _pair(b_g * GAUSS, math.radians(th_d), consts)
            for seed in (1, 2, 3):
                nrng = np.random.default_rng(seed * 7919 + int(b_g))
                n1, n2 = nu1 + nrng.normal(0.0, 1e5), nu2 + nrng.normal(0.0, 1e5)
                yield ("criterion_11_b", min(n1, n2), max(n1, n2), consts, 1e5)
    # off-nominal constants, noisy
    for d_hz, g, b_g, th_d in ((34.0e6, 2.0, 30.0, 20.0), (36.0e6, 2.01, 80.0, 70.0),
                               (35.0e6, 1.99, 8.0, 45.0), (30.0e6, 2.0023, 140.0, 10.0),
                               (40.0e6, 2.0023, 50.0, 85.0), (35.5e6, 2.005, 100.0, 60.0)):
        other = PhysicalConstants(d_hz=d_hz, g_factor=g)
        nu1, nu2 = _pair(b_g * GAUSS, math.radians(th_d), other)
        n1, n2 = nu1 + rng.normal(0.0, 1e5), nu2 + rng.normal(0.0, 1e5)
        yield ("off_nominal", min(n1, n2), max(n1, n2), other, 1e5)
    # the paths that neither a root nor the theta = 0 edge covers: noisy
    # pairs near the theta = pi/2 edge, megahertz noise, and exact-looking
    # pairs just below the zero-field pair, which no field reaches
    erng = np.random.default_rng(33_001)
    for sigma, lo, hi, group in ((1e5, 85.0, 90.0, "noisy_85_90"),
                                 (1e6, 0.0, 90.0, "noisy_1mhz")):
        for b_g, th_d in zip(erng.uniform(0.5, 150.0, 100), erng.uniform(lo, hi, 100)):
            nu1, nu2 = _pair(b_g * GAUSS, math.radians(th_d), consts)
            n1, n2 = nu1 + erng.normal(0.0, sigma), nu2 + erng.normal(0.0, sigma)
            yield (group, min(n1, n2), max(n1, n2), consts, sigma)
    valley = 0
    while valley < 12:
        d1, d2 = erng.uniform(-5e3, 5e3, 2)
        if d1 + d2 < 0.0:
            n1, n2 = 2.0 * consts.d_hz + d1, 2.0 * consts.d_hz + d2
            yield ("valley", min(n1, n2), max(n1, n2), consts, 0.0)
            valley += 1


def inversion_digest(consts: PhysicalConstants) -> Digest:
    d = Digest()
    for group, nu1, nu2, cs, sigma in _inversion_cases(consts):
        record = {"group": group, "nu1_hz": nu1, "nu2_hz": nu2, "sigma_hz": sigma}
        try:
            res = invert_field(nu1, nu2, cs, sigma_hz=sigma)
        except NoSolutionError as exc:
            d.text(f"NoSolutionError {exc.best_residual_hz!r}")
            record["error"] = {"NoSolutionError": exc.best_residual_hz}
        else:
            d.text(repr(res))
            record["result"] = dataclasses.asdict(res)
        d.records.append(record)
        d.count += 1
    return d


def synth_digest(consts: PhysicalConstants) -> dict:
    d = Digest()
    fields = (FieldVector(60 * GAUSS, 0.0), FieldVector(40 * GAUSS, 0.6),
              FieldVector(0.0, 0.0), FieldVector(80 * GAUSS, 0.2))
    for n_points in (461, 4_601, 92_001):
        for field in fields:
            for seed in (None, 5):
                cfg = AcquisitionConfig(
                    f_start_hz=50e6, f_stop_hz=280e6, n_points=n_points,
                    laser_mw=85.0, mw_dbm=18.0, seed=seed,
                )
                spec = synthesize_spectrum(cfg, field, consts)
                d.array(spec.freq_hz)
                d.array(spec.signal)
                d.text(repr(spec.meta.off_grid_warning))
                d.count += 1
    return d.result()


def _fit_record(d: Digest, res) -> None:
    d.records.append({"names": list(res.names), "values": res.values.tolist(),
                      "sigmas": res.sigmas.tolist(), "residual_rms": res.residual_rms,
                      "iterations": res.iterations, "converged": res.converged})
    d.array(res.values)
    d.array(res.sigmas)
    d.text(f"{res.residual_rms!r} {res.iterations} {res.converged}")
    d.count += 1


def _odmr_spectrum(consts: PhysicalConstants, n_points: int, field: FieldVector, seed: int):
    cfg = AcquisitionConfig(
        f_start_hz=50e6, f_stop_hz=280e6, n_points=n_points,
        dwell_s=10e-3, laser_mw=85.0, mw_dbm=18.0, seed=seed,
    )
    return synthesize_spectrum(cfg, field, consts)


def _odmr_fits(d: Digest, consts: PhysicalConstants, n_points: int) -> None:
    for field in (FieldVector(60 * GAUSS, 0.0), FieldVector(40 * GAUSS, 0.6)):
        for seed in (3, 4):
            _fit_record(d, fit_lorentzian_multi(_odmr_spectrum(consts, n_points, field, seed), 2))


def unbinned_fit_digest(consts: PhysicalConstants) -> Digest:
    d = Digest()
    _odmr_fits(d, consts, 4_601)
    powers = np.geomspace(1.0, 300.0, 61)
    counts = np.array([photon_rate(p, SaturationParams()) for p in powers])
    _fit_record(d, fit_saturation(powers, counts))
    rng = np.random.default_rng(18_003)
    for _ in range(7):
        noisy = counts * (1.0 + 0.01 * rng.standard_normal(counts.size))
        _fit_record(d, fit_saturation(powers, noisy))
    return d


def binned_fit_digest(consts: PhysicalConstants) -> Digest:
    d = Digest()
    _odmr_fits(d, consts, 92_001)
    zero_field = _odmr_spectrum(consts, 92_001, FieldVector(0.0, 0.0), 6)
    _fit_record(d, fit_lorentzian_multi(zero_field, 1))
    axial = _odmr_spectrum(consts, 92_001, FieldVector(60 * GAUSS, 0.0), 7)
    for init in ([0.0, 95e6, 12e6, 1.5e-3, 240e6, 12e6, 1.5e-3],
                 [1e-3, 80e6, 40e6, 5e-4, 260e6, 40e6, 5e-4]):
        _fit_record(d, fit_lorentzian_multi(axial, 2, init=init))
    return d


# closer fields are one basin to the inverter (inversion._DEDUPE_B_T and
# _DEDUPE_THETA_RAD), so a smaller shift is not a move
MOVE_B_T = 2e-8
MOVE_THETA_RAD = 2e-5


def _moves(old: dict, new: dict) -> list[str]:
    """What moved between two invert records of one pair: field, reason, n_compatible, error."""
    if ("result" in old) != ("result" in new):
        return ["error"]
    if "result" not in old:
        return []
    a, b = old["result"], new["result"]
    moved = []
    if (abs(a["b0_t"] - b["b0_t"]) > MOVE_B_T
            or abs(a["theta_rad"] - b["theta_rad"]) > MOVE_THETA_RAD):
        moved.append("field")
    moved += [key for key in ("reason", "n_compatible") if a[key] != b[key]]
    return moved


def _changed_bits(old: dict, new: dict) -> list[str]:
    """The InversionResult fields, or the error, whose value differs at any bit."""
    if ("result" in old) != ("result" in new):
        return []
    if "result" not in old:
        return [] if repr(old["error"]) == repr(new["error"]) else ["error"]
    a, b = old["result"], new["result"]
    return [key for key in a if repr(a[key]) != repr(b[key])]


def _summary(record: dict) -> str:
    if "result" not in record:
        return f"error {record['error']}"
    r = record["result"]
    return (f"({r['b0_t'] / GAUSS:.4f} G, {math.degrees(r['theta_rad']):.3f} deg) "
            f"{r['reason']} n={r['n_compatible']}")


def _worst_ratio(delta: np.ndarray, scale: np.ndarray) -> float:
    """max(delta / scale), where a nonzero delta over a zero scale is inf and 0/0 is 0."""
    return float(np.max(np.divide(
        delta, scale, out=np.where(delta > 0, np.inf, 0.0), where=scale > 0
    )))


def compare(parent_path: str, change_path: str) -> None:
    """Print what moved from the parent's --dump to the change's, group by group."""
    with open(parent_path, encoding="utf-8") as fh:
        parent = json.load(fh)
    with open(change_path, encoding="utf-8") as fh:
        change = json.load(fh)
    groups: dict[str, list] = {}
    for old, new in zip(parent["invert"], change["invert"], strict=True):
        if (old["group"], old["nu1_hz"], old["nu2_hz"]) != (new["group"], new["nu1_hz"], new["nu2_hz"]):
            raise ValueError("the two dumps hold different invert inputs")
        groups.setdefault(old["group"], []).append((old, new, _moves(old, new)))
    fields = [f.name for f in dataclasses.fields(InversionResult)] + ["error"]
    for group, rows in groups.items():
        counts = {key: sum(key in m for _, _, m in rows)
                  for key in ("field", "reason", "n_compatible", "error")}
        moved = [(old, new, m) for old, new, m in rows if m]
        detail = ", ".join(f"{key} {n}" for key, n in counts.items())
        print(f"invert {group}: {len(moved)}/{len(rows)} moved ({detail})")
        changed = [_changed_bits(old, new) for old, new, _ in rows]
        bits = ", ".join(f"{key} {sum(key in c for c in changed)}" for key in fields)
        print(f"  {sum(map(bool, changed))}/{len(rows)} changed at any bit ({bits})")
        for old, new, m in moved:
            print(f"  {old['nu1_hz']!r} {old['nu2_hz']!r} sigma {old['sigma_hz']:g}: "
                  f"{_summary(old)} -> {_summary(new)} [{', '.join(m)}]")
    for group in ("fits_unbinned", "fits_binned"):
        shift = sigma_shift = rms_shift = 0.0
        iterations = converged = 0
        changed = {"odmr": [0, 0], "saturation": [0, 0]}
        for old, new in zip(parent[group], change[group], strict=True):
            if old["names"] != new["names"]:
                raise ValueError(f"the two dumps hold different {group} fits")
            values, sigmas = np.array(old["values"]), np.array(old["sigmas"])
            delta = np.abs(np.array(new["values"]) - values)
            shift = max(shift, _worst_ratio(delta, sigmas))
            sigma_shift = max(sigma_shift, _worst_ratio(
                np.abs(np.array(new["sigmas"]) - sigmas), sigmas))
            rms_shift = max(rms_shift, _worst_ratio(
                np.array([abs(new["residual_rms"] - old["residual_rms"])]),
                np.array([old["residual_rms"]])))
            iterations += old["iterations"] != new["iterations"]
            converged += old["converged"] != new["converged"]
            kind = changed["saturation" if old["names"][0] == "i_s_cps" else "odmr"]
            kind[0] += repr(old) != repr(new)
            kind[1] += 1
        bits = ", ".join(f"{kind} {n}/{total}" for kind, (n, total) in changed.items() if total)
        print(f"{group}: {len(parent[group])} fits, largest value shift {shift:.3g} sigma, "
              f"largest relative shift {sigma_shift:.3g} in sigma and {rms_shift:.3g} "
              f"in residual_rms; {iterations} changed iterations, {converged} changed "
              f"converged; changed at any bit: {bits}")


def main() -> None:
    parser = argparse.ArgumentParser(description="Bit-identity digests of sivodmr's outputs.")
    parser.add_argument("--dump", metavar="PATH",
                        help="also write every inversion and fit record as JSON")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="count what moved between two --dump files, and stop")
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return
    consts = PhysicalConstants()
    lines, jacobian = table_digests(consts)
    out = {"lines": lines, "jacobian": jacobian, "synth": synth_digest(consts)}
    dumped = {
        "invert": inversion_digest(consts),
        "fits_unbinned": unbinned_fit_digest(consts),
        "fits_binned": binned_fit_digest(consts),
    }
    out.update((name, d.result()) for name, d in dumped.items())
    print(json.dumps(out, sort_keys=True))
    if args.dump:
        with open(args.dump, "w", encoding="utf-8") as fh:
            json.dump({name: d.records for name, d in dumped.items()}, fh, indent=1)


if __name__ == "__main__":
    main()
