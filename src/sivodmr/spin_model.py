"""Spin-3/2 model of the silicon-vacancy (V2) ground state in 4H-SiC.

Builds the electron-spin Hamiltonian for a static field of magnitude B0
tilted by theta from the defect c-axis and extracts the two microwave
transitions that carry optical contrast in an ODMR experiment.  The
Hamiltonian is written once, as a real symmetric tridiagonal float64
batch.  Every line comes from one real path (transition_table, and
transition_pair as its one-row case): LAPACK eigvalsh gives the energies,
and the cofactors of the tridiagonal H give each state's m = +/-1/2 weight
and its <Sz> and <Sx> without forming an eigenvector.  A large batch runs
in blocks of _TABLE_BLOCK rows, one eigvalsh call each, so its working
memory does not grow with the batch and each row is bit-equal to a
one-row call.  Below about a
picotesla, B0 = 0 included, <Sz> and <Sx> take the Kramers doublets'
B0 -> 0+ limit, so the line Jacobian is analytic at every field.  Only
diagonalize, the complex path for any Hermitian input, calls eigh and
phases its eigenvectors.

Internal units are strict SI: energies and frequencies in Hz (the
Hamiltonian is written as H/h), magnetic fields in tesla, angles in
radians.  Gauss, MHz and degrees belong to the command-line layer only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

MU_B_OVER_H = 1.39962449e10  # Bohr magneton over Planck constant (Hz/T)

DEFAULT_D_HZ = 35.0e6   # zero-field splitting parameter D (Hz), 2D = resonance at B0 = 0
DEFAULT_G_FACTOR = 2.0023

# Basis order everywhere: m = +3/2, +1/2, -1/2, -3/2.
_M_VALUES = (1.5, 0.5, -0.5, -1.5)
_M_ARRAY = np.array(_M_VALUES)


def _build_spin_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # ladder elements <m+1|S+|m> = sqrt(S(S+1) - m(m+1)) for S = 3/2
    s = 1.5
    sp = np.zeros((4, 4), dtype=complex)
    for k in range(1, 4):
        m = _M_VALUES[k]
        sp[k - 1, k] = math.sqrt(s * (s + 1) - m * (m + 1))
    sm = sp.conj().T
    sx = 0.5 * (sp + sm)
    sy = -0.5j * (sp - sm)
    sz = np.diag(_M_VALUES).astype(complex)
    return sx, sy, sz


_SX, _SY, _SZ = _build_spin_operators()
# Sx and Sz are real in this basis, so the batch path stays in float64
_SX_REAL, _SZ_REAL = _SX.real.copy(), _SZ.real.copy()
_SZ2_TERM = _SZ_REAL @ _SZ_REAL - (5.0 / 4.0) * np.eye(4)  # S_z^2 - S(S+1)/3 for S = 3/2


# Entry k of H/h (row-major) is gamma*B0 * _H_FACTOR[k] * row _H_TRIG_ROW[k] of
# (cos(theta), sin(theta), 0), plus _H_D_TERM[k] * D: the products of
# D*(Sz^2 - 5/4) + gamma*B0*(cos(theta) Sz + sin(theta) Sx) in that order.
# Sz is diagonal and Sx has no diagonal, so no entry has both terms.
_H_TRIG_ROW = np.where(_SZ_REAL != 0, 0, np.where(_SX_REAL != 0, 1, 2)).ravel()
_H_FACTOR = (_SZ_REAL + _SX_REAL).reshape(16, 1)
_H_D_TERM = _SZ2_TERM.reshape(16, 1)


def spin_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sx, Sy, Sz) as 4x4 complex arrays in the m = +3/2..-3/2 basis."""
    return _SX.copy(), _SY.copy(), _SZ.copy()


@dataclass(frozen=True)
class PhysicalConstants:
    """Fixed parameters of the spin model.

    gyro_hz_per_t = g_factor * MU_B_OVER_H is derived at construction and
    is not an argument, so dataclasses.replace on g_factor carries it along.
    """

    d_hz: float = DEFAULT_D_HZ
    g_factor: float = DEFAULT_G_FACTOR
    gyro_hz_per_t: float = field(init=False)

    def __post_init__(self) -> None:
        if not (self.d_hz > 0 and math.isfinite(self.d_hz)):
            raise ValueError(f"d_hz must be positive and finite, got {self.d_hz}")
        if not (self.g_factor > 0 and math.isfinite(self.g_factor)):
            raise ValueError(f"g_factor must be positive and finite, got {self.g_factor}")
        object.__setattr__(self, "gyro_hz_per_t", self.g_factor * MU_B_OVER_H)


@dataclass(frozen=True)
class FieldVector:
    """Static field of magnitude b0_t at polar angle theta_rad from the c-axis.

    The model only depends on theta through cos/sin combinations that are
    invariant under theta -> -theta and theta -> pi - theta, so the angle is
    canonicalized into [0, pi/2] at construction.
    """

    b0_t: float
    theta_rad: float = 0.0

    def __post_init__(self) -> None:
        if not (self.b0_t >= 0 and math.isfinite(self.b0_t)):
            raise ValueError(f"b0_t must be non-negative and finite, got {self.b0_t}")
        if not math.isfinite(self.theta_rad):
            raise ValueError(f"theta_rad must be finite, got {self.theta_rad}")
        t = math.fmod(abs(self.theta_rad), math.pi)
        if t > math.pi / 2:
            t = math.pi - t
        object.__setattr__(self, "theta_rad", t)


@dataclass(frozen=True)
class SpinMatrix:
    """4x4 Hermitian, traceless matrix in Hz (validated at construction)."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.entries, dtype=complex)
        if h.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {h.shape}")
        object.__setattr__(self, "entries", h)
        scale = float(np.max(np.abs(h)))
        tol = 1e-9 * max(scale, 1.0)
        dev = np.abs(h - h.conj().T)
        if np.max(dev) > tol:
            i, j = np.unravel_index(int(np.argmax(dev)), dev.shape)
            raise ValueError(
                f"matrix is not Hermitian: worst entry ({i},{j}) vs ({j},{i}) "
                f"differs by {dev[i, j]:.3e} Hz"
            )
        tr = abs(complex(np.trace(h)))
        if tr > tol:
            raise ValueError(f"matrix is not traceless: |trace| = {tr:.3e} Hz")


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues (Hz) and matching eigenvector columns."""

    energies_hz: np.ndarray
    vectors: np.ndarray

    def __post_init__(self) -> None:
        e = np.asarray(self.energies_hz, dtype=float)
        v = np.asarray(self.vectors, dtype=complex)
        if e.shape != (4,) or v.shape != (4, 4):
            raise ValueError("EigenSystem expects 4 energies and a 4x4 vector matrix")
        if np.any(np.diff(e) < -1e-6):
            raise ValueError("energies must be in ascending order")
        object.__setattr__(self, "energies_hz", e)
        object.__setattr__(self, "vectors", v)


@dataclass(frozen=True)
class TransitionPair:
    """The two contrast-carrying resonance frequencies, nu1_hz <= nu2_hz."""

    nu1_hz: float
    nu2_hz: float

    def __post_init__(self) -> None:
        if not (self.nu1_hz >= 0 and self.nu2_hz >= self.nu1_hz):
            raise ValueError(
                f"require 0 <= nu1_hz <= nu2_hz, got ({self.nu1_hz}, {self.nu2_hz})"
            )


def _check_zeeman(b0_t: np.ndarray, theta_rad: np.ndarray, consts: PhysicalConstants) -> None:
    """Raise ValueError naming the largest b0_t if any entry of H/h overflows.

    Every caller passes finite fields, so the only way to a non-finite
    entry is an overflow of gamma*B0 or of its product with an entry of
    cos(theta) Sz + sin(theta) Sx, at most 3/2.  A bound on gamma*max(B0)
    clears almost every batch, and a batch it does not clear is tested
    exactly, row by row, with no floating-point warning on the way.
    """
    b0_max = float(b0_t.max(initial=0.0))
    if consts.gyro_hz_per_t * b0_max * 1.5 == math.inf:
        # scaled by 2**-64, which is exact for any B0 near overflow and cannot
        # overflow, a product overflows exactly when it reaches 2**960
        zeeman = consts.gyro_hz_per_t * (b0_t * 2.0**-64)
        top = zeeman * np.maximum(np.abs(np.cos(theta_rad) * _SZ_REAL[0, 0]),
                                  np.abs(np.sin(theta_rad)))
        if (zeeman >= 2.0**960).any() or (top >= 2.0**960).any():
            raise ValueError(f"b0_t too large: gyro_hz_per_t * b0_t overflows at {b0_max:g} T")


def _hamiltonian_batch(
    b0_t: np.ndarray, theta_rad: np.ndarray, consts: PhysicalConstants
) -> np.ndarray:
    """H/h = D*(Sz^2 - S(S+1)/3) + g*muB/h*B0*(Sz cos(theta) + Sx sin(theta)),
    a real symmetric (n, 4, 4) float64 stack over matched field arrays.

    The stack is the transpose view of a (16, n) array whose row k holds
    entry k of every H, built by one operation per step for all 16 rows
    (see _H_FACTOR).  An entry that would overflow raises ValueError
    naming b0_t first (_check_zeeman).
    """
    _check_zeeman(b0_t, theta_rad, consts)
    trig = np.zeros((3, b0_t.size))
    np.cos(theta_rad, out=trig[0])
    np.sin(theta_rad, out=trig[1])
    h = trig.take(_H_TRIG_ROW, axis=0)
    h *= _H_FACTOR
    h *= consts.gyro_hz_per_t * b0_t
    h += consts.d_hz * _H_D_TERM
    return h.T.reshape(-1, 4, 4)


def build_hamiltonian(fv: FieldVector, consts: PhysicalConstants) -> SpinMatrix:
    """The one-field Hamiltonian H/h (Hz) as a validated complex SpinMatrix."""
    h = _hamiltonian_batch(np.array([fv.b0_t]), np.array([fv.theta_rad]), consts)
    return SpinMatrix(h[0])


def diagonalize(h: SpinMatrix | np.ndarray) -> EigenSystem:
    """Eigen-decomposition of a 4x4 Hermitian matrix by LAPACK eigh.

    Energies ascend; each eigenvector column is multiplied by the phase
    that makes its first component above 1e-12 of the column's largest
    real and positive.  Raises ValueError for non-Hermitian input (with the
    worst entry named).
    """
    if not isinstance(h, SpinMatrix):
        h = SpinMatrix(np.asarray(h))
    energies, v = np.linalg.eigh(h.entries)
    mags = np.abs(v)
    first = np.argmax(mags > 1e-12 * mags.max(axis=0), axis=0)
    lead = v[first, np.arange(4)]
    return EigenSystem(energies, v * (lead.conj() / np.abs(lead)))


def _state_terms(
    b0: np.ndarray, th: np.ndarray, consts: PhysicalConstants, *, expectations: bool
):
    """Per-state terms of a batch of Hamiltonians, from eigenvalues alone.

    Returns (levels, weights), each eigenvalue-major: levels is the (4, n)
    ascending eigenvalues of one LAPACK eigvalsh call or, with
    expectations=True, the (4, 3, n) eigenvalue, <Sz> and <Sx> of each
    state, and weights the m = +/-1/2 character |v_1|^2 + |v_2|^2 of each
    state.

    No eigenvector is formed.  H is real symmetric tridiagonal, so at a
    simple eigenvalue lambda each product v_k v_l of its unit eigenvector
    is a cofactor of lambda - H (a leading times a trailing principal
    minor) over p'(lambda), the sum of the diagonal cofactors.  The
    cofactors need each level apart from the others by more than rounding:
    a row whose off-diagonal is at most 1e-12 D (theta = 0, or B0 sin(theta)
    below about 1e-15 T, where the Kramers pairs are split by no more than
    that) takes the basis states as eigenvectors, in the stable sort order
    of the diagonal, which also covers its ties.  Where two levels are
    still degenerate to rounding (the +/-3/2 pair near theta = pi/2 at low
    field), p' is rounding noise and <Sz> and <Sx> are kept within the
    spectra of Sz and Sx.

    With expectations=True, a row with gamma B0 <= 1e-9 D (about 1.2 pT at
    the default constants, B0 = 0 included) takes the B0 -> 0+ limit for
    <Sz> and <Sx>: the first-order states of the two Kramers doublets,
    lower member first.  For the +/-1/2 doublet (positions 0 and 1)
    <Sz> = -/+ cos(theta)/(2r) and <Sx> = -/+ 2 sin(theta)/r, with
    r = sqrt(cos^2(theta) + 4 sin^2(theta)); for the +/-3/2 doublet
    (positions 2 and 3) <Sz> = -/+ 3/2 sign(cos(theta)) and <Sx> = 0.  Its
    levels and weights are those above, so line selection is unchanged.
    """
    h = _hamiltonian_batch(b0, th, consts)
    # of H only its diagonal a_k and zs = H[1, 2] = gamma B0 sin(theta) are
    # needed (H[0, 1] = H[2, 3] = sqrt(3)/2 zs); it goes before the
    # cofactors' temporaries come
    a = np.diagonal(h, axis1=1, axis2=2).T.copy()
    zs = h[:, 1, 2].copy()
    energies = np.linalg.eigvalsh(h).T
    del h
    n = zs.size
    # x[k, i] = lambda_i - a_k, (4, 4, n); t = x0 x1 - 3/4 zs^2 and
    # f = x2 x3 - 3/4 zs^2 are the leading and trailing 2x2 minors
    x = energies - a[:, None]
    zs2 = zs * zs
    tf = x[0::2] * x[1::2]
    tf -= 0.75 * zs2
    levels = energies
    if expectations:
        terms = np.empty((3, 4, n))
        terms[0] = energies
        s = terms[1:]  # <Sz> and <Sx>
        levels = terms.transpose(1, 0, 2)
        # p' <Sx> = 2 sum_k Sx[k, k+1] times the off-diagonal cofactors
        # sqrt(3)/2 zs f, zs x0 x3 and sqrt(3)/2 zs t
        np.add(tf[0], tf[1], out=s[1])
        s[1] *= 0.75
        s[1] += x[0] * x[3]
        s[1] *= 2.0 * zs
    # diagonal cofactors d_k = p' v_k^2 = (x1 f, x0 f, x3 t, x2 t) - zs^2 (x3, 0, 0, x0)
    d = (x.reshape(2, 2, 4, n)[:, ::-1] * tf[::-1, None]).reshape(4, 4, n)
    x[::-3] *= zs2
    d[::3] -= x[::-3]
    del x, tf
    basis = np.abs(zs) <= 1e-12 * consts.d_hz
    if basis.any():
        # eigenvalue i belongs to basis state order[i]: d_k is 1 there, p' = 1
        order = np.argsort(a[:, basis], axis=0, kind="stable")
        d[:, :, basis] = order == np.arange(4)[:, None, None]
        if expectations:
            s[1][:, basis] = 0.0
    p = d.sum(axis=0)
    weights = (d[1] + d[2]) / p
    if expectations:
        s[0] = (_M_ARRAY @ d.reshape(4, -1)).reshape(4, n)
        s /= p
        s.clip(-1.5, 1.5, out=s)
        low = b0 <= 1e-9 * consts.d_hz / consts.gyro_hz_per_t
        if low.any():
            # within +/-1/2, Sz and Sx act as sigma_z/2 and sigma_x; between
            # +/-3/2, Sx has no element
            cos, sin = np.cos(th[low]), np.sin(th[low])
            r = np.hypot(cos, 2.0 * sin)
            lower_first = np.array([[-1.0], [1.0]])
            s[0][:2, low] = lower_first * (cos / (2.0 * r))
            s[1][:2, low] = lower_first * (2.0 * sin / r)
            s[0][2:, low] = lower_first * (1.5 * np.sign(cos))
            s[1][2:, low] = 0.0
    return levels, weights


def _select_transitions_batch(weights: np.ndarray) -> np.ndarray:
    """Which of the two line layouts each row of a batch of eigensystems has.

    Optical pumping equalizes the populations of the two eigenstates with
    the largest m = +/-1/2 character, so the gap between those two pumped
    states carries no contrast.  Each remaining (bright) state connects to
    a pumped partner: lower bright state to lower pumped state, upper to
    upper, which keeps the lines continuous while eigenstates mix.
    weights is the (4, n) m = +/-1/2 character of each row's eigenstates
    in ascending order of energy; the pumped pair is the two largest, a
    tie going to the lower state.  Returns the (n,) mask of rows whose
    pumped pair sits at the spectrum's edge, the two lowest states (weak
    axial field, below the gamma*B0 = 2D level crossing) or the two
    highest: their lines are A = E2 - E0 and B = E3 - E1.  In the other
    rows the pumped pair interleaves the bright one and the lines are the
    outer adjacent gaps, A = E1 - E0 and B = E3 - E2.  Line A is the lower
    bright state's line and B the upper one's.  The lines are labelled,
    not sorted: near the magic angle A and B cross, and each keeps its
    label through the crossing.
    """
    # min and max of the lower two states' weights, then of the upper two
    low = np.minimum(weights[0::2], weights[1::2])
    high = np.maximum(weights[0::2], weights[1::2])
    return (low[0] >= high[1]) | (low[1] > high[0])


def _line_gaps(levels: np.ndarray, edge: np.ndarray) -> np.ndarray:
    """Lines (A, B), upper minus lower state, of per-state quantities: (4, ...) -> (2, ...)."""
    lines = np.where(edge, levels[2:0:-1], levels[1:3])
    lines[0] -= levels[0]
    np.subtract(levels[3], lines[1], out=lines[1])
    return lines


# rows per block of transition_table: each block's Hamiltonians, eigvalsh call,
# cofactors and Jacobian take about 1 MiB of temporaries at any batch size;
# of 1 024-8 192 rows, 2 048 ran fastest with the Jacobian and within noise of
# the fastest without it (BENCH_35.json)
_TABLE_BLOCK = 2048


def transition_table(
    b0_t: np.ndarray,
    theta_rad: np.ndarray,
    consts: PhysicalConstants,
    *,
    jacobian: bool = False,
    labelled: bool = False,
):
    """Vectorized (nu1_hz, nu2_hz) over matched arrays of field and angle.

    By default each row is sorted, nu1 <= nu2.  With labelled=True the rows
    hold line A, then line B, of _select_transitions_batch: the two lines
    cross near the magic angle, and the labels follow each line through the
    crossing where the sorted pair folds along nu1 = nu2.  The energies,
    the m = +/-1/2 weights that select the lines and the expectation values
    behind the Jacobian come from eigvalsh and the cofactors of the
    tridiagonal H (_state_terms); no eigenvector is formed.  A batch of
    more than _TABLE_BLOCK rows is evaluated block by block, one eigvalsh
    call each, into the returned arrays, so its temporaries do not grow
    with the batch; every step is per row, so each row is bit-equal to a
    one-row call.  A b0_t that overflows H raises ValueError, naming the
    batch's largest b0_t, before any block is evaluated.

    With jacobian=True, which needs labelled=True because the sorted pair
    has no derivative where it folds, a third array of shape (n, 2, 2) holds
    d(A, B)/d(B0, theta) in Hz/T and Hz/rad, by Hellmann-Feynman:
    dE_k/dp = <k|dH/dp|k>, with dH/dB0 = gamma (cos(theta) Sz + sin(theta) Sx)
    and dH/dtheta = gamma B0 (cos(theta) Sx - sin(theta) Sz).  At B0 = 0 the
    Kramers pairs are degenerate and the lines have only one-sided
    derivatives; below about a picotesla the expectations are the B0 -> 0+
    limit (_state_terms), so the B0 column is that one-sided slope,
    dA/dB0 = -dB/dB0 = gamma (r/2 - 3/2 |cos(theta)|), and the theta
    column is zero at B0 = 0.  Near theta = pi/2 the +/-3/2 pair
    splits only by 3 gamma B0 cos(theta) and a term of third order in B0;
    below about 1e-7 T, where both fall to about 1e-5 Hz, the pair can be
    degenerate to rounding, and the slopes of its lines are then rounding
    noise, bounded as unit eigenvectors would bound them
    (|<Sz>|, |<Sx>| <= 3/2).  The lines are even in theta about 0 and
    pi/2, so the theta column is exactly zero where theta is 0 or pi/2.
    """
    if jacobian and not labelled:
        raise ValueError("the Jacobian is of the labelled lines: pass labelled=True")
    b0 = np.asarray(b0_t, dtype=float).ravel()
    th = np.asarray(theta_rad, dtype=float).ravel()
    if b0.shape != th.shape:
        raise ValueError("b0_t and theta_rad must have matching shapes")
    if not (b0.min(initial=math.inf) >= 0 and b0.max(initial=0.0) < math.inf
            and np.isfinite(th).all()):
        raise ValueError("fields must be non-negative and angles finite")
    if b0.size <= _TABLE_BLOCK:
        return _table_rows(b0, th, consts, jacobian, labelled)
    # an overflow in any block raises before the first block is evaluated
    _check_zeeman(b0, th, consts)
    nu = np.empty((2, b0.size))
    jac = np.empty((b0.size, 2, 2)) if jacobian else None
    for start in range(0, b0.size, _TABLE_BLOCK):
        rows = slice(start, start + _TABLE_BLOCK)
        block = _table_rows(b0[rows], th[rows], consts, jacobian, labelled)
        nu[0, rows], nu[1, rows] = block[:2]
        if jacobian:
            jac[rows] = block[2]
    return (nu[0], nu[1], jac) if jacobian else (nu[0], nu[1])


def _table_rows(
    b0: np.ndarray, th: np.ndarray, consts: PhysicalConstants, jacobian: bool, labelled: bool
):
    """transition_table of one block of validated rows."""
    levels, weights = _state_terms(b0, th, consts, expectations=jacobian)
    # (line, row), or with the Jacobian (line, energy/Sz/Sx, row)
    lines = _line_gaps(levels, _select_transitions_batch(weights))
    if not jacobian:
        if not labelled:
            lines = np.where(lines[0] > lines[1], lines[::-1], lines)
        return lines[0], lines[1]
    nu, ds = lines[:, 0], lines[:, 1:]
    cos_ds, sin_ds = ds * np.cos(th), ds * np.sin(th)
    jac = np.empty((b0.size, 2, 2))
    jt = jac.transpose(2, 1, 0)  # (B0/theta, line, row)
    np.add(cos_ds[:, 0], sin_ds[:, 1], out=jt[0])
    jt[0] *= consts.gyro_hz_per_t
    np.subtract(cos_ds[:, 1], sin_ds[:, 0], out=jt[1])
    jt[1] *= consts.gyro_hz_per_t * b0
    # the lines are even in theta about 0 and pi/2
    jt[1][:, (th == 0.0) | (th == math.pi / 2)] = 0.0
    return nu[0], nu[1], jac


def transition_pair(fv: FieldVector, consts: PhysicalConstants) -> TransitionPair:
    """One field's lines: row 0 of a one-field transition_table."""
    nu1, nu2 = transition_table(np.array([fv.b0_t]), np.array([fv.theta_rad]), consts)
    return TransitionPair(float(nu1[0]), float(nu2[0]))


def closed_form_axial(b0_t: float, consts: PhysicalConstants) -> TransitionPair:
    """Exact axial-field (theta = 0) transition frequencies.

    nu1 = |gamma*B0 - 2D| and nu2 = gamma*B0 + 2D; the lower branch closes at
    the level crossing gamma*B0 = 2D and reopens beyond it.
    """
    if b0_t < 0 or not math.isfinite(b0_t):
        raise ValueError(f"b0_t must be non-negative and finite, got {b0_t}")
    zeeman = consts.gyro_hz_per_t * b0_t
    nu1 = abs(zeeman - 2.0 * consts.d_hz)
    nu2 = zeeman + 2.0 * consts.d_hz
    return TransitionPair(nu1, nu2)
