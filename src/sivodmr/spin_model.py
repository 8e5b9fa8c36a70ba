"""Spin-3/2 model of the silicon-vacancy (V2) ground state in 4H-SiC.

Builds the electron-spin Hamiltonian for a static field of magnitude B0
tilted by theta from the defect c-axis, diagonalizes it with LAPACK eigh,
and extracts the two microwave transitions that carry optical contrast in
an ODMR experiment.  The Hamiltonian is written once, as a real symmetric
float64 batch; every line comes from one real eigen path (transition_table,
and transition_pair as its one-row case), and only diagonalize, the
complex path for any Hermitian input, phases its eigenvectors.

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


def _hamiltonian_batch(
    b0_t: np.ndarray, theta_rad: np.ndarray, consts: PhysicalConstants
) -> np.ndarray:
    """H/h = D*(Sz^2 - S(S+1)/3) + g*muB/h*B0*(Sz cos(theta) + Sx sin(theta)),
    a real symmetric (n, 4, 4) float64 stack over matched field arrays.
    Every caller passes finite fields, so the only way to a non-finite
    entry is an overflow of gamma*B0, which raises ValueError naming b0_t."""
    cos_t = np.cos(theta_rad)[:, None, None]
    sin_t = np.sin(theta_rad)[:, None, None]
    try:
        with np.errstate(over="raise"):
            zeeman = (consts.gyro_hz_per_t * b0_t)[:, None, None]
            return consts.d_hz * _SZ2_TERM + zeeman * (cos_t * _SZ_REAL + sin_t * _SX_REAL)
    except FloatingPointError:
        raise ValueError(
            f"b0_t too large: gyro_hz_per_t * b0_t overflows at {np.max(b0_t):g} T"
        ) from None


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


def _select_transitions_batch(vectors: np.ndarray) -> np.ndarray:
    """Eigenstate pairs of the two ODMR-active lines of a batch of eigensystems.

    Optical pumping equalizes the populations of the two eigenstates with
    the largest m = +/-1/2 character, so the gap between those two pumped
    states carries no contrast.  Each remaining (bright) state connects to
    a pumped partner: lower bright state to lower pumped state, upper to
    upper, which keeps the lines continuous while eigenstates mix.  When
    the pumped pair interleaves the bright pair this yields the two outer
    adjacent gaps (E2-E1, E4-E3); when the pumped states are the two lowest
    levels (weak axial field, below the gamma*B0 = 2D level crossing) it
    yields (E3-E1, E4-E2).  vectors is the (n, 4, 4) batch of eigenvector
    columns in ascending order of energy.  Returns an (n, 2, 2) index array
    holding the (lower, upper) eigenstate of line A, the lower bright
    state's line, then of line B, the upper one's.  The lines are labelled,
    not sorted: near the magic angle A and B cross, and each keeps its
    label through the crossing.
    """
    # m = +/-1/2 amplitude rows are 1 and 2 in the basis order
    char = np.abs(vectors[:, 1, :]) ** 2 + np.abs(vectors[:, 2, :]) ** 2
    order = np.argsort(-char, axis=1, kind="stable")
    pumped = np.sort(order[:, :2], axis=1)
    # pumped pair at the spectrum's edge ({0,1} or {2,3}) <=> bright and
    # pumped states do not interleave
    edge = (pumped[:, 0] == 0) & (pumped[:, 1] == 1)
    edge |= (pumped[:, 0] == 2) & (pumped[:, 1] == 3)
    # interleaved: lines (0,1) and (2,3); edge: lines (0,2) and (1,3)
    return np.where(edge[:, None, None], [[0, 2], [1, 3]], [[0, 1], [2, 3]])


def _line_gaps(levels: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """Per-line difference upper - lower of a per-state quantity, (n, 4, ...) -> (n, 2, ...)."""
    rows = np.arange(levels.shape[0])[:, None]
    return levels[rows, lines[:, :, 1]] - levels[rows, lines[:, :, 0]]


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
    crossing where the sorted pair folds along nu1 = nu2.

    With jacobian=True a third array of shape (n, 2, 2) holds
    d(nu1, nu2)/d(B0, theta) in Hz/T and Hz/rad, by Hellmann-Feynman:
    dE_k/dp = <k|dH/dp|k>, with dH/dB0 = gamma (cos(theta) Sz + sin(theta) Sx)
    and dH/dtheta = gamma B0 (cos(theta) Sx - sin(theta) Sz).  At B0 = 0 the
    Kramers pairs are degenerate and the lines have only one-sided
    derivatives, which Hellmann-Feynman does not give, so jacobian=True
    requires B0 > 0.  At theta = pi/2 the +/-3/2 pair splits only at third
    order in B0 and stays degenerate to rounding below about 1e-8 T, where
    the theta column (at most 1.5 gamma B0) is unreliable.
    """
    b0 = np.asarray(b0_t, dtype=float).ravel()
    th = np.asarray(theta_rad, dtype=float).ravel()
    if b0.shape != th.shape:
        raise ValueError("b0_t and theta_rad must have matching shapes")
    if np.any(b0 < 0) or not np.all(np.isfinite(b0)) or not np.all(np.isfinite(th)):
        raise ValueError("fields must be non-negative and angles finite")
    if jacobian and np.any(b0 == 0):
        raise ValueError("the Jacobian needs B0 > 0 (Kramers degeneracy at zero field)")
    # H is real symmetric, so LAPACK returns real eigenvectors; line
    # selection, gaps and <k|dH|k> do not depend on their phase or sign
    energies, vectors = np.linalg.eigh(_hamiltonian_batch(b0, th, consts))
    lines = _select_transitions_batch(vectors)
    nu = _line_gaps(energies, lines)
    if not labelled:
        swap = nu[:, 0] > nu[:, 1]
        nu = np.where(swap[:, None], nu[:, ::-1], nu)
        lines = np.where(swap[:, None, None], lines[:, ::-1], lines)
    if not jacobian:
        return nu[:, 0], nu[:, 1]
    sz, sx = (np.einsum("njk,jl,nlk->nk", vectors, op, vectors) for op in (_SZ_REAL, _SX_REAL))
    cos_t = np.cos(th)[:, None]
    sin_t = np.sin(th)[:, None]
    gamma = consts.gyro_hz_per_t
    # per-eigenstate dE_k/d(B0, theta), (n, 4, 2)
    slopes = np.stack(
        [gamma * (cos_t * sz + sin_t * sx), gamma * b0[:, None] * (cos_t * sx - sin_t * sz)],
        axis=-1,
    )
    return nu[:, 0], nu[:, 1], _line_gaps(slopes, lines)


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
