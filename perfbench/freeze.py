"""Regenerate perfbench/fields.json, the frozen inputs of two workloads.

Usage: python3 perfbench/freeze.py [--check]

Draws GEN_DRAWS fields from the generator seeded with GEN_SEED (B0 uniform
on 5-120 G, theta uniform on 0-85 deg, rounded to 1e-4 G and 1e-4 deg so
that the CLI's argv carries them exactly) and keeps those whose two model
lines a two-line fit can resolve: both lie at least 3 FWHM inside the
50-280 MHz window and at least 3 FWHM apart.  No draw is kept or dropped
for how the program handles it.  Angles above 85 deg are not drawn: there
the inverter returns some fields as a rival without the degenerate flag,
depending on the noise (the fault that invert_survey counts).

``spectrum_roundtrip`` and ``cli_session`` read the stored file, so a
later change to sivodmr's line selection does not silently change their
inputs; ``--check`` reports whether the stored file still equals what the
rule gives today.
"""

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import reference as ref  # noqa: E402
from sivodmr import FieldVector, PhysicalConstants, transition_pair  # noqa: E402

GEN_SEED = 2208_13173
GEN_DRAWS = 200
THETA_MAX_DEG = 85.0
F_LO_HZ, F_HI_HZ = 50e6, 280e6
MW_DBM = 18.0
MARGIN_FWHM = 3.0
OUT = HERE / "fields.json"


def generate() -> dict:
    consts = PhysicalConstants(d_hz=ref.D_HZ, g_factor=ref.G_FACTOR)
    fwhm = ref.expected_fwhm_hz(MW_DBM)
    margin = MARGIN_FWHM * fwhm
    rng = np.random.default_rng(GEN_SEED)
    b_gauss = np.round(rng.uniform(5.0, 120.0, GEN_DRAWS), 4)
    theta_deg = np.round(rng.uniform(0.0, THETA_MAX_DEG, GEN_DRAWS), 4)
    kept = []
    for b, t in zip(b_gauss.tolist(), theta_deg.tolist()):
        tp = transition_pair(FieldVector(b / 1e4, math.radians(t)), consts)
        if (tp.nu1_hz >= F_LO_HZ + margin and tp.nu2_hz <= F_HI_HZ - margin
                and tp.nu2_hz - tp.nu1_hz >= margin):
            kept.append({"b0_gauss": b, "theta_deg": t,
                         "nu1_hz": tp.nu1_hz, "nu2_hz": tp.nu2_hz})
    return {
        "generator": "python3 perfbench/freeze.py",
        "seed": GEN_SEED,
        "draws": GEN_DRAWS,
        "rule": (f"both lines >= {MARGIN_FWHM:g} FWHM ({margin:.6g} Hz) inside "
                 f"[{F_LO_HZ:g}, {F_HI_HZ:g}] Hz and >= {MARGIN_FWHM:g} FWHM apart"),
        "fields": kept,
    }


def main() -> int:
    data = generate()
    if "--check" in sys.argv:
        with open(OUT, encoding="utf-8") as fh:
            same = json.load(fh) == json.loads(json.dumps(data))
        print("fields.json matches the rule" if same else "fields.json differs from the rule")
        return 0 if same else 1
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")
    print(f"kept {len(data['fields'])} of {data['draws']} draws")
    return 0


if __name__ == "__main__":
    sys.exit(main())
