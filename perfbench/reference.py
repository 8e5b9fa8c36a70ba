"""Reference spin-3/2 model and the output checks of the benchmark.

Written apart from sivodmr: its own spin matrices, its own Hamiltonian H/h
and LAPACK's ``numpy.linalg.eigvalsh``.  Every check in the benchmark asks
this model, never the program's eigensolver.  Each check returns ``None``
when the output is right, or a one-line reason when it is not.
"""

from __future__ import annotations

import math

import numpy as np

MU_B_OVER_H_HZ_PER_T = 1.39962449e10  # Bohr magneton over Planck constant
D_HZ = 35.0e6                         # zero-field splitting parameter D
G_FACTOR = 2.0023
GAMMA_HZ_PER_T = G_FACTOR * MU_B_OVER_H_HZ_PER_T
GAUSS_T = 1e-4

# Drive-power response of the lines: width fwhm0 * sqrt(1 + s) with the
# saturation parameter s = 10^((P - P_sat)/10).
FWHM0_HZ = 7.5e6
P_SAT_DBM = 16.0

FIELD_TOL_T = 0.1 * GAUSS_T           # inversion tolerance: 0.1 G ...
ANGLE_TOL_RAD = math.radians(0.5)     # ... and 0.5 degrees
LINE_TOL_HZ = 1.0                     # forward lines against reference gaps
CENTER_SIGMAS = 6.0                   # fitted centers: 6 sigma
N_SIGMAS = 5.0                        # fitted widths: 5 sigma ...
SILENT_MISS = "silent miss"           # prefix of the inversion fault's reason
WIDTH_RTOL = 0.05                     # ... or 5 % for widths

# Basis m = +3/2, +1/2, -1/2, -3/2.  <m+1|S+|m> = sqrt(15/4 - m(m+1)) gives
# sqrt(3), 2, sqrt(3) above the diagonal of S+, halved in S_x.
_R3 = math.sqrt(3.0) / 2.0
SX = np.array(
    [[0.0, _R3, 0.0, 0.0],
     [_R3, 0.0, 1.0, 0.0],
     [0.0, 1.0, 0.0, _R3],
     [0.0, 0.0, _R3, 0.0]]
)
SZ = np.diag([1.5, 0.5, -0.5, -1.5])
_ZFS = SZ @ SZ - 1.25 * np.eye(4)     # S_z^2 - S(S+1)/3
_PAIRS = [(i, j) for i in range(4) for j in range(i + 1, 4)]


def hamiltonian(b0_t, theta_rad) -> np.ndarray:
    """H/h in Hz for arrays of fields: D(S_z^2 - 5/4) + gamma B0 (cos S_z + sin S_x)."""
    b0 = np.atleast_1d(np.asarray(b0_t, dtype=float))
    th = np.atleast_1d(np.asarray(theta_rad, dtype=float))
    zeeman = (GAMMA_HZ_PER_T * b0)[:, None, None]
    return D_HZ * _ZFS + zeeman * (
        np.cos(th)[:, None, None] * SZ + np.sin(th)[:, None, None] * SX
    )


def gaps(b0_t, theta_rad) -> np.ndarray:
    """The six eigenvalue gaps E_j - E_i (i < j) per field, shape (n, 6), in Hz."""
    e = np.linalg.eigvalsh(hamiltonian(b0_t, theta_rad))
    return np.stack([e[:, j] - e[:, i] for i, j in _PAIRS], axis=1)


def axial_pair(b0_t):
    """Closed-form lines at theta = 0: |gamma B0 - 2D| and gamma B0 + 2D."""
    z = GAMMA_HZ_PER_T * np.asarray(b0_t, dtype=float)
    return np.abs(z - 2.0 * D_HZ), z + 2.0 * D_HZ


def expected_fwhm_hz(mw_dbm: float) -> float:
    s = 10.0 ** ((mw_dbm - P_SAT_DBM) / 10.0)
    return FWHM0_HZ * math.sqrt(1.0 + s)


def _miss_hz(nu, gap_row) -> float:
    return float(np.min(np.abs(np.asarray(gap_row) - nu)))


def check_lines(b0_t, theta_rad, nu1, nu2, solo=()) -> str | None:
    """A batch of forward lines: sorted, each one of the six gaps, axial closed form.

    ``solo`` lists (index, nu1, nu2) for fields solved again on their own;
    they must repeat the batch result, so a line does not depend on its batch.
    """
    b0 = np.asarray(b0_t, dtype=float)
    th = np.asarray(theta_rad, dtype=float)
    nu1 = np.asarray(nu1, dtype=float)
    nu2 = np.asarray(nu2, dtype=float)
    if nu1.shape != b0.shape or nu2.shape != b0.shape:
        return f"expected {b0.size} line pairs, got shapes {nu1.shape} and {nu2.shape}"
    if not (np.all(np.isfinite(nu1)) and np.all(np.isfinite(nu2))):
        return "non-finite line"
    unsorted = np.flatnonzero(nu1 > nu2)
    if unsorted.size:
        k = int(unsorted[0])
        return f"nu1 > nu2 at field {k}: {nu1[k]!r} > {nu2[k]!r}"
    g = gaps(b0, th)
    for name, nu in (("nu1", nu1), ("nu2", nu2)):
        miss = np.min(np.abs(g - nu[:, None]), axis=1)
        k = int(np.argmax(miss))
        if miss[k] > LINE_TOL_HZ:
            return (f"{name} at field {k} ({b0[k] / GAUSS_T:.6g} G, "
                    f"{math.degrees(th[k]):.6g} deg) is {miss[k]:.4g} Hz from every gap")
    axial = np.flatnonzero(th == 0.0)
    if axial.size:
        a1, a2 = axial_pair(b0[axial])
        dev = np.maximum(np.abs(nu1[axial] - a1), np.abs(nu2[axial] - a2))
        k = int(np.argmax(dev))
        if dev[k] > LINE_TOL_HZ:
            return f"axial field {int(axial[k])} is {dev[k]:.4g} Hz from the closed form"
    for k, s1, s2 in solo:
        dev = max(abs(s1 - nu1[k]), abs(s2 - nu2[k]))
        if dev > LINE_TOL_HZ:
            return f"field {k} solved alone differs from its batch by {dev:.4g} Hz"
    return None


def check_inversion(nu1, nu2, res, b_true_t, theta_true_rad, must_flag=False) -> str | None:
    """The inversion rule.

    The returned field lies within 0.1 G and 0.5 deg of the truth, or it
    carries the degenerate flag; noisy in-band pairs (``must_flag``) must
    carry it.  Either way the reference gaps at the returned field
    reproduce the input pair within sqrt(2) * residual_hz + 1 Hz.
    """
    g = gaps(res.b0_t, res.theta_rad)[0]
    allowed = math.sqrt(2.0) * res.residual_hz + 1.0
    for name, nu in (("nu1", nu1), ("nu2", nu2)):
        miss = _miss_hz(nu, g)
        if not miss <= allowed:
            return (f"returned field ({res.b0_t / GAUSS_T:.6g} G, "
                    f"{math.degrees(res.theta_rad):.6g} deg) misses {name} by "
                    f"{miss:.4g} Hz (allowed {allowed:.4g} Hz)")
    if must_flag and not res.degenerate:
        return "noisy in-band pair came back without the degenerate flag"
    close = (abs(res.b0_t - b_true_t) <= FIELD_TOL_T
             and abs(res.theta_rad - theta_true_rad) <= ANGLE_TOL_RAD)
    if not (close or res.degenerate):
        return (f"{SILENT_MISS}: ({b_true_t / GAUSS_T:.6g} G, "
                f"{math.degrees(theta_true_rad):.6g} deg) "
                f"came back as ({res.b0_t / GAUSS_T:.6g} G, "
                f"{math.degrees(res.theta_rad):.6g} deg) without the degenerate flag")
    return None


def check_fit(centers, center_sigmas, widths, width_sigmas, b_true_t, theta_true_rad,
              mw_dbm) -> str | None:
    """Fitted centers within 6 sigma of a reference gap; widths near fwhm0 sqrt(1 + s).

    A center passes within 6 of its sigmas, not 5: the noise draw of seed
    176336538 puts the least-squares center of line 1 at (39.5176 G,
    75.1648 deg) 5.19 sigma low, by the linear projection of that noise
    alone, so a 5-sigma rule fails an honest fit.  A width passes within
    5 % of the expected width or within 5 of its own sigmas, whichever is
    wider: at 92 001 points a width's sigma is about 1.5 %, so 5 % alone is
    a 3.4-sigma test that honest fits fail now and then.
    """
    g = gaps(b_true_t, theta_true_rad)[0]
    for k, (c, s) in enumerate(zip(centers, center_sigmas), start=1):
        miss = _miss_hz(c, g)
        if not (s > 0 and miss <= CENTER_SIGMAS * s):
            return f"center{k} {c!r} Hz is {miss:.4g} Hz from every gap (sigma {s:.4g} Hz)"
    want = expected_fwhm_hz(mw_dbm)
    for k, (w, s) in enumerate(zip(widths, width_sigmas), start=1):
        if not abs(w - want) <= max(WIDTH_RTOL * want, N_SIGMAS * s):
            return (f"fwhm{k} {w:.6g} Hz (sigma {s:.4g} Hz) is not within 5 % "
                    f"or 5 sigma of {want:.6g} Hz")
    return None
