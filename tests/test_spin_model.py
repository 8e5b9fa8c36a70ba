"""Spin-model tests.

The LAPACK eigh path is validated against an independent oracle:
eigenvalues as roots of the characteristic polynomial, with coefficients
from Newton's identities on matrix-power traces and roots from numpy's
companion-matrix solver.  Frozen numeric anchors below were computed from
the closed-form axial energies E(m) = D*(m^2 - 5/4) + gamma*B0*m with
gamma = 2.0023 * 1.39962449e10 Hz/T = 2.802468116327e10 Hz/T.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sivodmr.spin_model import (
    MU_B_OVER_H,
    EigenSystem,
    FieldVector,
    PhysicalConstants,
    SpinMatrix,
    TransitionPair,
    build_hamiltonian,
    closed_form_axial,
    diagonalize,
    spin_operators,
    transition_frequencies,
    transition_pair,
    transition_table,
)

GAUSS = 1e-4  # tesla

# Frozen axial anchors (Hz), D = 35 MHz, g = 2.0023:
#   gamma*B0 at 60 G  = 168_148_086.97962 Hz
#   gamma*B0 at 120 G = 336_296_173.95924 Hz
NU1_60G = 98_148_086.9796
NU2_60G = 238_148_086.9796
NU1_120G = 266_296_173.9592
NU2_120G = 406_296_173.9592
E_60G_AXIAL = (-217_222_130.469, -119_074_043.490, 49_074_043.490, 287_222_130.469)


def charpoly_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Oracle: eigenvalues as roots of det(H - lambda I) = 0.

    Coefficients of the monic quartic come from Newton's identities on the
    power-sum traces p_k = tr(H^k); roots from numpy's companion matrix.
    Completely independent of the LAPACK eigh path under test.
    """
    h = np.asarray(h, dtype=complex)
    h2 = h @ h
    h3 = h2 @ h
    p1 = np.trace(h).real
    p2 = np.trace(h2).real
    p3 = np.trace(h3).real
    p4 = np.trace(h2 @ h2).real
    e1 = p1
    e2 = (e1 * p1 - p2) / 2.0
    e3 = (e2 * p1 - e1 * p2 + p3) / 3.0
    e4 = (e3 * p1 - e2 * p2 + e1 * p3 - p4) / 4.0
    roots = np.roots([1.0, -e1, e2, -e3, e4])
    assert np.max(np.abs(roots.imag)) < 1e-3 * max(np.max(np.abs(roots)), 1.0)
    return np.sort(roots.real)


def test_spin_operator_matrix_elements():
    sx, sy, sz = spin_operators()
    assert np.allclose(np.diag(sz), [1.5, 0.5, -0.5, -1.5])
    assert np.allclose(sz, np.diag(np.diag(sz)))
    root3_2 = math.sqrt(3.0) / 2.0
    assert sx[0, 1] == pytest.approx(root3_2)
    assert sx[1, 2] == pytest.approx(1.0)
    assert sx[2, 3] == pytest.approx(root3_2)
    for op in (sx, sy, sz):
        assert np.allclose(op, op.conj().T)


def test_spin_operator_algebra():
    sx, sy, sz = spin_operators()
    assert np.allclose(sx @ sy - sy @ sx, 1j * sz, atol=1e-14)
    assert np.allclose(sy @ sz - sz @ sy, 1j * sx, atol=1e-14)
    assert np.allclose(sz @ sx - sx @ sz, 1j * sy, atol=1e-14)
    s_sq = sx @ sx + sy @ sy + sz @ sz
    assert np.allclose(s_sq, (15.0 / 4.0) * np.eye(4), atol=1e-14)


def test_physical_constants_derives_gyro():
    c = PhysicalConstants()
    assert c.d_hz == 35.0e6
    assert c.gyro_hz_per_t == pytest.approx(2.0023 * MU_B_OVER_H, rel=1e-15)
    # gamma is derived, not a field: replace() on g_factor yields the new gamma
    assert replace(c, g_factor=2.1).gyro_hz_per_t == 2.1 * MU_B_OVER_H
    with pytest.raises(TypeError):
        PhysicalConstants(gyro_hz_per_t=2.0023 * MU_B_OVER_H)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"d_hz": 0.0},
        {"d_hz": -35e6},
        {"g_factor": 0.0},
        {"g_factor": math.nan},
    ],
)
def test_physical_constants_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        PhysicalConstants(**kwargs)


def test_field_vector_canonicalizes_theta():
    assert FieldVector(1e-3, -0.3).theta_rad == pytest.approx(0.3)
    assert FieldVector(1e-3, math.pi - 0.3).theta_rad == pytest.approx(0.3)
    assert FieldVector(1e-3, math.pi + 0.3).theta_rad == pytest.approx(0.3)
    assert FieldVector(1e-3, 2 * math.pi + 0.3).theta_rad == pytest.approx(0.3)
    with pytest.raises(ValueError):
        FieldVector(-1e-3, 0.0)
    with pytest.raises(ValueError):
        FieldVector(math.inf, 0.0)
    with pytest.raises(ValueError, match="theta_rad must be finite"):
        FieldVector(1e-3, math.nan)


@given(theta=st.floats(-12.0, 12.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_field_vector_theta_always_in_first_quadrant(theta):
    fv = FieldVector(6e-3, theta)
    assert 0.0 <= fv.theta_rad <= math.pi / 2 + 1e-12
    # the Hamiltonian only sees cos(theta)*Sz + sin(theta)*Sx, and the
    # canonical angle must generate a unitarily equivalent matrix: equal
    # |cos| and equal |sin| up to the simultaneous sign flip Sz -> -Sz
    assert abs(math.cos(fv.theta_rad)) == pytest.approx(abs(math.cos(theta)), abs=1e-12)
    assert abs(math.sin(fv.theta_rad)) == pytest.approx(abs(math.sin(theta)), abs=1e-12)


def test_zero_field_hamiltonian_is_diagonal(consts):
    h = build_hamiltonian(FieldVector(0.0, 0.7), consts).entries
    assert np.allclose(h, np.diag([35e6, -35e6, -35e6, 35e6]), atol=1e-3)


def test_axial_hamiltonian_diagonal_entries_at_60_gauss(consts):
    h = build_hamiltonian(FieldVector(60 * GAUSS, 0.0), consts).entries
    expected = (287_222_130.46943, 49_074_043.48981, -119_074_043.48981, -217_222_130.46943)
    assert np.allclose(np.diag(h).real, expected, rtol=1e-12)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) == 0.0


def test_transverse_hamiltonian_off_diagonal_at_60_gauss(consts):
    h = build_hamiltonian(FieldVector(60 * GAUSS, math.pi / 2), consts).entries
    zeeman = consts.gyro_hz_per_t * 60 * GAUSS
    assert abs(h[0, 1]) == pytest.approx(zeeman * math.sqrt(3.0) / 2.0, rel=1e-12)
    assert abs(h[0, 0] - 35e6) < 1e-3


def test_spin_matrix_rejects_non_hermitian():
    bad = np.diag([1.0, -1.0, -1.0, 1.0]).astype(complex) * 1e6
    bad[0, 1] = 5e3
    with pytest.raises(ValueError, match=r"\(0,1\)"):
        SpinMatrix(bad)


def test_spin_matrix_rejects_trace():
    with pytest.raises(ValueError, match="traceless"):
        SpinMatrix(np.eye(4, dtype=complex) * 1e6)
    with pytest.raises(ValueError, match="4x4"):
        SpinMatrix(np.zeros((3, 3)))


def test_eigensystem_rejects_descending_energies():
    with pytest.raises(ValueError, match="ascending"):
        EigenSystem(np.array([1.0, 0.0, 2.0, 3.0]), np.eye(4, dtype=complex))
    with pytest.raises(ValueError, match="4 energies"):
        EigenSystem(np.arange(3.0), np.eye(3))


def test_transition_pair_validation():
    with pytest.raises(ValueError):
        TransitionPair(2.0e8, 1.0e8, 0.5, 0.5)
    with pytest.raises(ValueError):
        TransitionPair(1.0e8, 2.0e8, -0.1, 0.5)


def test_diagonalize_diagonal_input_sorts_and_permutes():
    eig = diagonalize(np.diag([35e6, -35e6, -35e6, 35e6]).astype(complex))
    assert np.allclose(eig.energies_hz, [-35e6, -35e6, 35e6, 35e6])
    # permuted identity vectors, one 1.0 per column
    assert np.allclose(np.abs(eig.vectors).max(axis=0), 1.0)
    assert np.allclose(np.abs(eig.vectors).sum(axis=0), 1.0)


def test_diagonalize_matches_charpoly_at_60_gauss_30_degrees(consts):
    h = build_hamiltonian(FieldVector(60 * GAUSS, math.radians(30.0)), consts)
    eig = diagonalize(h)
    assert np.allclose(eig.energies_hz, charpoly_eigenvalues(h.entries), atol=1.0)


def test_diagonalize_axial_energies_frozen(consts):
    eig = diagonalize(build_hamiltonian(FieldVector(60 * GAUSS, 0.0), consts))
    assert np.allclose(eig.energies_hz, E_60G_AXIAL, atol=0.01)


def test_diagonalize_matches_charpoly_random_fields(consts, rng):
    b0 = rng.uniform(0.5 * GAUSS, 200 * GAUSS, size=300)
    th = rng.uniform(0.0, math.pi / 2, size=300)
    for b, t in zip(b0, th):
        h = build_hamiltonian(FieldVector(b, t), consts)
        eig = diagonalize(h)
        assert np.allclose(eig.energies_hz, charpoly_eigenvalues(h.entries), atol=5.0)


def test_diagonalize_random_hermitian_traceless(rng):
    # not from the Hamiltonian family: arbitrary Hermitian traceless input
    for _ in range(50):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h = (g + g.conj().T) * 5e7
        h -= np.trace(h) / 4.0 * np.eye(4)
        eig = diagonalize(h)
        assert np.allclose(eig.energies_hz, charpoly_eigenvalues(h), atol=5.0)
        recon = eig.vectors @ np.diag(eig.energies_hz) @ eig.vectors.conj().T
        assert np.max(np.abs(recon - h)) <= 1e-9 * np.max(np.abs(eig.energies_hz))


def test_eigen_reconstruction_orthonormality_trace(consts, rng):
    b0 = rng.uniform(0.0, 200 * GAUSS, size=300)
    th = rng.uniform(0.0, math.pi / 2, size=300)
    for b, t in zip(b0, th):
        h = build_hamiltonian(FieldVector(b, t), consts).entries
        eig = diagonalize(h)
        scale = np.max(np.abs(eig.energies_hz))
        recon = eig.vectors @ np.diag(eig.energies_hz) @ eig.vectors.conj().T
        assert np.max(np.abs(recon - h)) <= 1e-9 * scale
        gram = eig.vectors.conj().T @ eig.vectors
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-9
        assert abs(eig.energies_hz.sum()) <= 1.0  # traceless: sum of energies ~ 0


def test_eigenvector_phase_convention_deterministic(consts):
    h = build_hamiltonian(FieldVector(47 * GAUSS, 0.61), consts)
    v1 = diagonalize(h).vectors
    v2 = diagonalize(h).vectors
    assert np.array_equal(v1, v2)
    # leading nonzero component of each column is real and positive
    for k in range(4):
        col = v1[:, k]
        lead = col[np.argmax(np.abs(col) > 1e-12 * np.abs(col).max())]
        assert lead.imag == pytest.approx(0.0, abs=1e-12)
        assert lead.real > 0


def test_zero_field_transitions_all_d(consts):
    for d_mhz in (30.0, 35.0, 36.6):
        c = PhysicalConstants(d_hz=d_mhz * 1e6)
        pair = transition_pair(FieldVector(0.0, 0.0), c)
        assert pair.nu1_hz == pytest.approx(2 * c.d_hz, abs=1.0)
        assert pair.nu2_hz == pytest.approx(2 * c.d_hz, abs=1.0)


def test_frozen_axial_anchors(consts):
    p60 = transition_pair(FieldVector(60 * GAUSS, 0.0), consts)
    assert p60.nu1_hz == pytest.approx(NU1_60G, abs=0.01)
    assert p60.nu2_hz == pytest.approx(NU2_60G, abs=0.01)
    p120 = transition_pair(FieldVector(120 * GAUSS, 0.0), consts)
    assert p120.nu1_hz == pytest.approx(NU1_120G, abs=0.02)
    assert p120.nu2_hz == pytest.approx(NU2_120G, abs=0.02)


def test_closed_form_axial_values(consts):
    p = closed_form_axial(60 * GAUSS, consts)
    assert p.nu1_hz == pytest.approx(NU1_60G, abs=0.01)
    assert p.nu2_hz == pytest.approx(NU2_60G, abs=0.01)
    assert p.strength1 == pytest.approx(0.75)
    assert p.strength2 == pytest.approx(0.75)
    # below the level crossing the lower branch reflects
    low = closed_form_axial(10 * GAUSS, consts)
    zeeman = consts.gyro_hz_per_t * 10 * GAUSS
    assert low.nu1_hz == pytest.approx(2 * consts.d_hz - zeeman, rel=1e-12)
    assert low.nu2_hz == pytest.approx(2 * consts.d_hz + zeeman, rel=1e-12)
    with pytest.raises(ValueError):
        closed_form_axial(-1e-4, consts)


def test_eigensolver_matches_closed_form_axial(consts):
    b0 = np.linspace(0.0, 200 * GAUSS, 200)
    nu1, nu2 = transition_table(b0, np.zeros_like(b0), consts)
    expect = [closed_form_axial(b, consts) for b in b0]
    assert np.max(np.abs(nu1 - [p.nu1_hz for p in expect])) <= 1e3
    assert np.max(np.abs(nu2 - [p.nu2_hz for p in expect])) <= 1e3


def test_axial_sum_and_difference_rules(consts):
    crossing = 2 * consts.d_hz / consts.gyro_hz_per_t
    b0 = np.linspace(crossing * 1.05, 200 * GAUSS, 50)
    nu1, nu2 = transition_table(b0, np.zeros_like(b0), consts)
    assert np.max(np.abs((nu2 - nu1) - 4 * consts.d_hz)) <= 1e3
    assert np.max(np.abs((nu1 + nu2) - 2 * consts.gyro_hz_per_t * b0)) <= 1e3


def test_axial_strengths_and_drive_axis(consts):
    pair_x = transition_pair(FieldVector(60 * GAUSS, 0.0), consts, drive_axis=(1, 0, 0))
    assert pair_x.strength1 == pytest.approx(0.75, abs=1e-9)
    assert pair_x.strength2 == pytest.approx(0.75, abs=1e-9)
    # a longitudinal drive cannot flip m by one: strengths vanish
    pair_z = transition_pair(FieldVector(60 * GAUSS, 0.0), consts, drive_axis=(0, 0, 1))
    assert pair_z.strength1 == pytest.approx(0.0, abs=1e-9)
    assert pair_z.strength2 == pytest.approx(0.0, abs=1e-9)
    # frequencies never depend on the drive axis
    pair_mix = transition_pair(
        FieldVector(60 * GAUSS, 0.0), consts, drive_axis=(0.3, 0.2, 0.9)
    )
    assert pair_mix.nu1_hz == pytest.approx(pair_x.nu1_hz, abs=1e-6)
    assert pair_mix.nu2_hz == pytest.approx(pair_x.nu2_hz, abs=1e-6)
    with pytest.raises(ValueError):
        transition_pair(FieldVector(60 * GAUSS, 0.0), consts, drive_axis=(0, 0, 0))


def test_drive_axis_invariance_of_frequencies_off_axis(consts, rng):
    fv = FieldVector(44 * GAUSS, 0.83)
    base = transition_pair(fv, consts)
    for _ in range(10):
        axis = rng.normal(size=3)
        p = transition_pair(fv, consts, drive_axis=axis)
        assert p.nu1_hz == pytest.approx(base.nu1_hz, abs=1e-6)
        assert p.nu2_hz == pytest.approx(base.nu2_hz, abs=1e-6)


def test_theta_symmetry(consts, rng):
    for _ in range(40):
        b = rng.uniform(0.0, 150 * GAUSS)
        t = rng.uniform(0.0, math.pi / 2)
        p = transition_pair(FieldVector(b, t), consts)
        q = transition_pair(FieldVector(b, math.pi - t), consts)
        r = transition_pair(FieldVector(b, -t), consts)
        assert q.nu1_hz == pytest.approx(p.nu1_hz, rel=1e-9)
        assert q.nu2_hz == pytest.approx(p.nu2_hz, rel=1e-9)
        assert r.nu1_hz == pytest.approx(p.nu1_hz, rel=1e-9)
        assert r.nu2_hz == pytest.approx(p.nu2_hz, rel=1e-9)


def test_transition_continuity_in_theta_at_60_gauss(consts):
    theta = np.radians(np.arange(0.0, 90.0 + 1e-9, 0.1))
    b0 = np.full_like(theta, 60 * GAUSS)
    nu1, nu2 = transition_table(b0, theta, consts)
    assert np.max(np.abs(np.diff(nu1))) < 1e6  # < 1 MHz per 0.1 degree
    assert np.max(np.abs(np.diff(nu2))) < 1e6


def test_gap_minimum_near_magic_angle(consts):
    theta = np.radians(np.arange(40.0, 70.0 + 1e-9, 0.05))
    b0 = np.full_like(theta, 60 * GAUSS)
    nu1, nu2 = transition_table(b0, theta, consts)
    gap = np.abs(nu2 - nu1)
    best = math.degrees(theta[int(np.argmin(gap))])
    assert 52.0 <= best <= 58.0
    # the gap never fully closes but gets small compared to 4D
    assert gap.min() < 0.01 * 4 * consts.d_hz


def test_transition_table_matches_single_point_path(consts, rng):
    # the reference is the complex, phased diagonalize path, independent of
    # the table's real eigensolve; transition_pair is a one-row table call
    b0 = rng.uniform(0.0, 150 * GAUSS, size=25)
    th = rng.uniform(0.0, math.pi / 2, size=25)
    nu1, nu2 = transition_table(b0, th, consts)
    for k in range(25):
        fv = FieldVector(b0[k], th[k])
        p = transition_frequencies(diagonalize(build_hamiltonian(fv, consts)))
        assert nu1[k] == pytest.approx(p.nu1_hz, abs=1e-6)
        assert nu2[k] == pytest.approx(p.nu2_hz, abs=1e-6)
        pair = transition_pair(fv, consts)
        assert (pair.nu1_hz, pair.nu2_hz) == (nu1[k], nu2[k])


def test_transition_table_input_validation(consts):
    with pytest.raises(ValueError):
        transition_table(np.array([1e-3, 2e-3]), np.array([0.0]), consts)
    with pytest.raises(ValueError):
        transition_table(np.array([-1e-3]), np.array([0.0]), consts)
    empty = transition_table(np.array([]), np.array([]), consts)
    assert empty[0].size == 0 and empty[1].size == 0
    with pytest.raises(TypeError):  # jacobian is keyword-only
        transition_table(np.array([1e-3]), np.array([0.0]), consts, True)


def test_transition_frequencies_requires_unit_axis_shape(consts):
    eig = diagonalize(build_hamiltonian(FieldVector(60 * GAUSS, 0.2), consts))
    with pytest.raises(ValueError):
        transition_frequencies(eig, drive_axis=(1.0, 0.0))


def _random_grid_batch():
    rng = np.random.default_rng(0)
    n = 201 * 91  # the inversion grid's size
    return rng.uniform(0.0, 200 * GAUSS, n), rng.uniform(0.0, math.pi / 2, n)


@pytest.mark.parametrize(
    "b0, theta, picks",
    [
        pytest.param(
            np.array([4.088578567704611e-3, 1.4276368037952103e-2]),
            np.array([3.589796066839179e-5, 1.4218994241711864]),
            [0, 1],
            id="weakly-coupled-field-with-tilted-field",
        ),
        pytest.param(*_random_grid_batch(), range(0, 201 * 91, 1663), id="grid-size-batch"),
    ],
)
def test_batch_lines_do_not_depend_on_batch_mates(consts, b0, theta, picks):
    nu1, nu2 = transition_table(b0, theta, consts)
    for k in picks:
        solo = transition_pair(FieldVector(b0[k], theta[k]), consts)
        assert nu1[k] == pytest.approx(solo.nu1_hz, abs=1e-6)
        assert nu2[k] == pytest.approx(solo.nu2_hz, abs=1e-6)


def test_transition_table_jacobian_matches_central_differences(consts):
    rng = np.random.default_rng(4242)
    crossing = 2 * consts.d_hz / consts.gyro_hz_per_t  # gamma*B0 = 2D
    b0 = np.concatenate(([60 * GAUSS, 60 * GAUSS, 1.02 * crossing],
                         rng.uniform(1 * GAUSS, 200 * GAUSS, 20)))
    theta = np.concatenate(([0.0, math.pi / 2, 0.3], rng.uniform(0.0, math.pi / 2, 20)))
    nu1, nu2, jac = transition_table(b0, theta, consts, jacobian=True)
    plain1, plain2 = transition_table(b0, theta, consts)
    assert np.array_equal(nu1, plain1) and np.array_equal(nu2, plain2)
    db, dth = 1e-9, 1e-6
    fd_b = (np.array(transition_table(b0 + db, theta, consts))
            - np.array(transition_table(b0 - db, theta, consts))) / (2 * db)
    fd_t = (np.array(transition_table(b0, theta + dth, consts))
            - np.array(transition_table(b0, theta - dth, consts))) / (2 * dth)
    # errors relative to the natural scales gamma (Hz/T) and gamma*B0 (Hz/rad)
    gamma = consts.gyro_hz_per_t
    assert np.all(np.abs(jac[:, :, 0] - fd_b.T) <= 1e-7 * gamma)
    assert np.all(np.abs(jac[:, :, 1] - fd_t.T) <= 1e-7 * gamma * b0[:, None])


def test_transition_table_jacobian_near_zero_field(consts):
    # 2 nT: the Kramers pairs split by only ~50 Hz, yet the slopes are exact;
    # at B0 = 0 they are one-sided and the Jacobian is refused
    theta = np.array([0.0, 0.5, 1.0, 1.5])
    b0 = np.full_like(theta, 2e-9)
    _, _, jac = transition_table(b0, theta, consts, jacobian=True)
    db, dth = 1e-9, 1e-3
    fd_b = (np.array(transition_table(b0 + db, theta, consts))
            - np.array(transition_table(b0 - db, theta, consts))) / (2 * db)
    fd_t = (np.array(transition_table(b0, theta + dth, consts))
            - np.array(transition_table(b0, theta - dth, consts))) / (2 * dth)
    gamma = consts.gyro_hz_per_t
    assert np.all(np.abs(jac[:, :, 0] - fd_b.T) <= 1e-6 * gamma)
    assert np.all(np.abs(jac[:, :, 1] - fd_t.T) <= 1e-3 * gamma * b0[:, None])
    with pytest.raises(ValueError):
        transition_table(np.array([0.0]), np.array([0.3]), consts, jacobian=True)
