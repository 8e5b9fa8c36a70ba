"""Spin-3/2 model of the silicon-vacancy (V2) ground state in 4H-SiC.

Builds the electron-spin Hamiltonian for a static field of magnitude B0
tilted by theta from the defect c-axis, diagonalizes it with LAPACK eigh,
and extracts the two microwave transitions that carry optical contrast in
an ODMR experiment.

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
_SZ2_TERM = _SZ @ _SZ - (5.0 / 4.0) * np.eye(4)  # S_z^2 - S(S+1)/3 for S = 3/2


def spin_operators() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (Sx, Sy, Sz) as 4x4 complex arrays in the m = +3/2..-3/2 basis."""
    return _SX.copy(), _SY.copy(), _SZ.copy()


@dataclass(frozen=True)
class PhysicalConstants:
    """Fixed parameters of the spin model.

    gyro_hz_per_t is derived as g_factor * MU_B_OVER_H when omitted; a
    caller-supplied value must agree with that product.
    """

    d_hz: float = DEFAULT_D_HZ
    g_factor: float = DEFAULT_G_FACTOR
    gyro_hz_per_t: float = field(default=0.0)

    def __post_init__(self) -> None:
        if not (self.d_hz > 0 and math.isfinite(self.d_hz)):
            raise ValueError(f"d_hz must be positive and finite, got {self.d_hz}")
        if not (self.g_factor > 0 and math.isfinite(self.g_factor)):
            raise ValueError(f"g_factor must be positive and finite, got {self.g_factor}")
        derived = self.g_factor * MU_B_OVER_H
        if self.gyro_hz_per_t == 0.0:
            object.__setattr__(self, "gyro_hz_per_t", derived)
        elif abs(self.gyro_hz_per_t - derived) > 1e-12 * derived:
            raise ValueError(
                "gyro_hz_per_t inconsistent with g_factor * MU_B_OVER_H: "
                f"{self.gyro_hz_per_t!r} vs {derived!r}"
            )


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
    """The two contrast-carrying resonance frequencies, nu1_hz <= nu2_hz.

    Strengths are squared drive-operator matrix elements |<i|S.n|j>|^2 of the
    corresponding eigenstate pairs (dimensionless).
    """

    nu1_hz: float
    nu2_hz: float
    strength1: float
    strength2: float

    def __post_init__(self) -> None:
        if not (self.nu1_hz >= 0 and self.nu2_hz >= self.nu1_hz):
            raise ValueError(
                f"require 0 <= nu1_hz <= nu2_hz, got ({self.nu1_hz}, {self.nu2_hz})"
            )
        if self.strength1 < 0 or self.strength2 < 0:
            raise ValueError("transition strengths must be non-negative")


def build_hamiltonian(fv: FieldVector, consts: PhysicalConstants) -> SpinMatrix:
    """H/h = D*(Sz^2 - S(S+1)/3) + g*muB/h*B0*(Sz cos(theta) + Sx sin(theta))."""
    zeeman_hz = consts.gyro_hz_per_t * fv.b0_t
    h = consts.d_hz * _SZ2_TERM + zeeman_hz * (
        math.cos(fv.theta_rad) * _SZ + math.sin(fv.theta_rad) * _SX
    )
    return SpinMatrix(h)


def _hamiltonian_batch(
    b0_t: np.ndarray, theta_rad: np.ndarray, consts: PhysicalConstants
) -> np.ndarray:
    zeeman = (consts.gyro_hz_per_t * b0_t)[:, None, None]
    cos_t = np.cos(theta_rad)[:, None, None]
    sin_t = np.sin(theta_rad)[:, None, None]
    return consts.d_hz * _SZ2_TERM + zeeman * (cos_t * _SZ + sin_t * _SX)


def _eigh_batch(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """LAPACK eigh of a batch of Hermitian matrices, with phased eigenvectors.

    Returns ascending eigenvalues and eigenvector columns, each column
    multiplied by the phase that makes its first component above 1e-12 of
    the column's largest real and positive.
    """
    energies, v = np.linalg.eigh(h)
    mags = np.abs(v)
    first = np.argmax(mags > 1e-12 * mags.max(axis=-2, keepdims=True), axis=-2)
    lead = np.take_along_axis(v, first[..., None, :], axis=-2)
    return energies, v * (lead.conj() / np.abs(lead))


def diagonalize(h: SpinMatrix | np.ndarray) -> EigenSystem:
    """Eigen-decomposition of a 4x4 Hermitian matrix by LAPACK eigh.

    Raises ValueError for non-Hermitian input (with the worst entry named).
    """
    if not isinstance(h, SpinMatrix):
        h = SpinMatrix(np.asarray(h))
    energies, vectors = _eigh_batch(h.entries[None, :, :])
    return EigenSystem(energies[0], vectors[0])


def _drive_matrix(drive_axis) -> np.ndarray:
    n = np.asarray(drive_axis, dtype=float)
    if n.shape != (3,):
        raise ValueError("drive_axis must be a 3-vector")
    norm = float(np.linalg.norm(n))
    if norm == 0 or not np.all(np.isfinite(n)):
        raise ValueError("drive_axis must be a finite, non-zero 3-vector")
    n = n / norm
    return n[0] * _SX + n[1] * _SY + n[2] * _SZ


def _select_transitions_batch(
    energies: np.ndarray, vectors: np.ndarray
) -> np.ndarray:
    """Eigenstate pairs of the two ODMR-active lines of a batch of eigensystems.

    Optical pumping equalizes the populations of the two eigenstates with
    the largest m = +/-1/2 character, so the gap between those two pumped
    states carries no contrast.  Each remaining (bright) state connects to
    a pumped partner: lower bright state to lower pumped state, upper to
    upper, which keeps the lines continuous while eigenstates mix.  When
    the pumped pair interleaves the bright pair this yields the two outer
    adjacent gaps (E2-E1, E4-E3); when the pumped states are the two lowest
    levels (weak axial field, below the gamma*B0 = 2D level crossing) it
    yields (E3-E1, E4-E2).  Returns an (n, 2, 2) index array holding the
    (lower, upper) eigenstate of line nu1, then of line nu2, nu1 <= nu2.
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
    lines = np.where(edge[:, None, None], [[0, 2], [1, 3]], [[0, 1], [2, 3]])
    freq = _line_gaps(energies, lines)
    swap = freq[:, 0] > freq[:, 1]
    return np.where(swap[:, None, None], lines[:, ::-1], lines)


def _line_gaps(levels: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """Per-line difference upper - lower of a per-state quantity, (n, 4) -> (n, 2)."""
    upper = np.take_along_axis(levels, lines[:, :, 1], axis=1)
    return upper - np.take_along_axis(levels, lines[:, :, 0], axis=1)


def transition_frequencies(
    eig: EigenSystem, drive_axis=(1.0, 0.0, 0.0)
) -> TransitionPair:
    """The two contrast-carrying transitions of a diagonalized Hamiltonian.

    At zero field both lines sit at 2D; for an axial field they are
    |gamma*B0 - 2D| and gamma*B0 + 2D.  The gap between the two pumped
    (m = +/-1/2 like) states never appears: optical pumping leaves it
    without population difference, hence without ODMR contrast.  Above the
    axial level crossing the result is the two outer adjacent gaps of the
    ascending spectrum, E2-E1 and E4-E3.  Each line carries its squared
    drive matrix element; the drive axis influences the strengths only,
    never the frequencies.
    """
    sn = _drive_matrix(drive_axis)
    lines = _select_transitions_batch(eig.energies_hz[None, :], eig.vectors[None, :, :])
    nu1, nu2 = _line_gaps(eig.energies_hz[None, :], lines)[0]
    drive = eig.vectors.conj().T @ sn @ eig.vectors
    s1, s2 = np.abs(drive[lines[0, :, 0], lines[0, :, 1]]) ** 2
    return TransitionPair(float(nu1), float(nu2), float(s1), float(s2))


def transition_pair(
    fv: FieldVector, consts: PhysicalConstants, drive_axis=(1.0, 0.0, 0.0)
) -> TransitionPair:
    """Full forward path: build the Hamiltonian, diagonalize, select lines."""
    return transition_frequencies(diagonalize(build_hamiltonian(fv, consts)), drive_axis)


def transition_table(
    b0_t: np.ndarray,
    theta_rad: np.ndarray,
    consts: PhysicalConstants,
    *,
    jacobian: bool = False,
):
    """Vectorized (nu1_hz, nu2_hz) over matched arrays of field and angle.

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
    energies, vectors = _eigh_batch(_hamiltonian_batch(b0, th, consts))
    lines = _select_transitions_batch(energies, vectors)
    nu = _line_gaps(energies, lines)
    if not jacobian:
        return nu[:, 0], nu[:, 1]
    cos_t = np.cos(th)[:, None, None]
    sin_t = np.sin(th)[:, None, None]
    dh_db0 = consts.gyro_hz_per_t * (cos_t * _SZ + sin_t * _SX)
    dh_dtheta = b0[:, None, None] * consts.gyro_hz_per_t * (cos_t * _SX - sin_t * _SZ)
    jac = np.stack(
        [
            _line_gaps(np.einsum("nja,njk,nka->na", vectors.conj(), dh, vectors).real, lines)
            for dh in (dh_db0, dh_dtheta)
        ],
        axis=-1,
    )
    return nu[:, 0], nu[:, 1], jac


def closed_form_axial(b0_t: float, consts: PhysicalConstants) -> TransitionPair:
    """Exact axial-field (theta = 0) transition frequencies.

    nu1 = |gamma*B0 - 2D| and nu2 = gamma*B0 + 2D; the lower branch closes at
    the level crossing gamma*B0 = 2D and reopens beyond it.  Both lines carry
    the axial drive element |<+-1/2|Sx|+-3/2>|^2 = 3/4.
    """
    if b0_t < 0 or not math.isfinite(b0_t):
        raise ValueError(f"b0_t must be non-negative and finite, got {b0_t}")
    zeeman = consts.gyro_hz_per_t * b0_t
    nu1 = abs(zeeman - 2.0 * consts.d_hz)
    nu2 = zeeman + 2.0 * consts.d_hz
    return TransitionPair(nu1, nu2, 0.75, 0.75)
