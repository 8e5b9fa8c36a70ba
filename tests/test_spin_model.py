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
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sivodmr.spin_model
from sivodmr.spin_model import (
    MU_B_OVER_H,
    EigenSystem,
    FieldVector,
    PhysicalConstants,
    SpinMatrix,
    TransitionPair,
    _TABLE_BLOCK,
    _hamiltonian_batch,
    _select_transitions_batch,
    _state_terms,
    build_hamiltonian,
    closed_form_axial,
    diagonalize,
    spin_operators,
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
        TransitionPair(2.0e8, 1.0e8)
    with pytest.raises(ValueError):
        TransitionPair(-1.0, 2.0e8)


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


def test_labelled_lines_cross_at_the_magic_angle_without_a_jump(consts):
    # at 100 G the sorted pair folds where the lines meet; the labelled
    # lines pass through each other, each moving smoothly
    theta = np.radians(np.arange(50.0, 60.0 + 1e-9, 0.01))
    b0 = np.full_like(theta, 100 * GAUSS)
    line_a, line_b = transition_table(b0, theta, consts, labelled=True)
    diff = line_a - line_b
    assert diff.min() < 0.0 < diff.max()
    for line in (line_a, line_b):
        steps = np.abs(np.diff(line))
        assert steps.max() <= 3.0 * np.median(steps)


def test_sorted_table_is_the_row_sort_of_the_labelled_one(consts, rng):
    b0 = np.concatenate([rng.uniform(0.0, 200 * GAUSS, 2000), [0.0, 0.0, 1e-9, 1e-9]])
    theta = np.concatenate([rng.uniform(0.0, math.pi / 2, 2000), [0.0, math.pi / 2] * 2])
    nu1, nu2 = transition_table(b0, theta, consts)
    line_a, line_b = transition_table(b0, theta, consts, labelled=True)
    swap = line_a > line_b
    assert 0 < swap.sum() < swap.size
    assert np.array_equal(nu1, np.where(swap, line_b, line_a))
    assert np.array_equal(nu2, np.where(swap, line_a, line_b))
    # the Jacobian comes with the labelled lines, bit for bit, and where the
    # lines tie (the B0 = 0 rows) each keeps its own one-sided B0 slope,
    # falling on one line and rising on the other
    jac_a, jac_b, jac = transition_table(b0, theta, consts, jacobian=True, labelled=True)
    assert np.array_equal(jac_a, line_a) and np.array_equal(jac_b, line_b)
    zero = b0 == 0
    assert np.all(line_a[zero] == line_b[zero])
    assert np.all(jac[zero, 0, 0] == -jac[zero, 1, 0]) and np.all(jac[zero, :, 0] != 0)
    assert (jac[zero, 0, 0] < 0).any() and (jac[zero, 0, 0] > 0).any()


def test_transition_table_matches_single_point_path(consts, rng):
    # the reference selects lines from the complex, phased diagonalize
    # path, independent of the table's real eigensolve
    b0 = rng.uniform(0.0, 150 * GAUSS, size=25)
    th = rng.uniform(0.0, math.pi / 2, size=25)
    nu1, nu2 = transition_table(b0, th, consts)
    for k in range(25):
        eig = diagonalize(build_hamiltonian(FieldVector(b0[k], th[k]), consts))
        e = eig.energies_hz
        weights = np.abs(eig.vectors[1]) ** 2 + np.abs(eig.vectors[2]) ** 2
        edge = _select_transitions_batch(weights[:, None])[0]
        lines = (e[2] - e[0], e[3] - e[1]) if edge else (e[1] - e[0], e[3] - e[2])
        ref1, ref2 = sorted(lines)
        assert nu1[k] == pytest.approx(ref1, abs=1e-6)
        assert nu2[k] == pytest.approx(ref2, abs=1e-6)
    # transition_pair is a one-row table call: its pair is the row bit for
    # bit, also at zero field, at 1 nT and on the angle edges
    b0 = np.concatenate([b0, [0.0, 0.0, 1e-9, 1e-9, 60 * GAUSS, 60 * GAUSS]])
    th = np.concatenate([th, [0.0, math.pi / 2, 0.0, math.pi / 2, 0.0, math.pi / 2]])
    nu1, nu2 = transition_table(b0, th, consts)
    for k in range(b0.size):
        pair = transition_pair(FieldVector(b0[k], th[k]), consts)
        assert (pair.nu1_hz, pair.nu2_hz) == (nu1[k], nu2[k])


def test_cofactor_terms_match_eigh_eigenvectors(consts, rng):
    # the per-state terms come from eigvalsh and the cofactors of lambda - H;
    # the reference takes them from LAPACK eigh's eigenvectors, on fields
    # whose levels all lie more than 1 kHz apart (theta = 0 rows included)
    b0 = rng.uniform(0.0, 200 * GAUSS, 3000)
    theta = rng.uniform(0.0, math.pi / 2, 3000)
    theta[::30] = 0.0
    h = _hamiltonian_batch(b0, theta, consts)
    ref_energies, v = np.linalg.eigh(h)
    apart = np.diff(ref_energies, axis=1).min(axis=1) > 1e3
    assert apart.sum() >= 2000 and (theta[apart] == 0).sum() >= 50
    sx, _, sz = spin_operators()
    ref_w = v[:, 1] ** 2 + v[:, 2] ** 2
    ref_sz = np.einsum("nki,kl,nli->ni", v, sz.real, v)
    ref_sx = np.einsum("nki,kl,nli->ni", v, sx.real, v)
    levels, weights = _state_terms(b0, theta, consts, expectations=True)
    assert np.max(np.abs(levels[:, 0].T - ref_energies)[apart]) <= 1e-5
    for got, ref in ((weights, ref_w), (levels[:, 1], ref_sz), (levels[:, 2], ref_sx)):
        assert np.max(np.abs(got.T - ref)[apart]) <= 1e-9
    # without expectations only the energies and weights come back, the same ones
    energies, plain_weights = _state_terms(b0, theta, consts, expectations=False)
    assert np.array_equal(energies, levels[:, 0]) and np.array_equal(plain_weights, weights)


def test_diagonal_rows_take_the_basis_states(consts):
    # B0 = 0 at every angle, theta = 0 (through both level crossings,
    # gamma B0 = D and 2D) and 1e-300 T, where the off-diagonal is far below
    # rounding: the eigenvectors are basis states, also where levels tie
    gamma, d = consts.gyro_hz_per_t, consts.d_hz
    theta = np.linspace(0.0, math.pi / 2, 7)
    for b in (0.0, 1e-300):
        nu1, nu2 = transition_table(np.full_like(theta, b), theta, consts)
        assert np.all(nu1 == 2 * d) and np.all(nu2 == 2 * d)
    # on the axis line A is the lower line at each of these fields
    b0 = np.array([1e-300, 1e-9, d / gamma, 2 * d / gamma, 60 * GAUSS, 100 * GAUSS])
    nu1, nu2, jac = transition_table(
        b0, np.zeros_like(b0), consts, jacobian=True, labelled=True
    )
    for k, b in enumerate(b0):
        ref = closed_form_axial(b, consts)
        assert nu1[k] == pytest.approx(ref.nu1_hz, abs=1e-6)
        assert nu2[k] == pytest.approx(ref.nu2_hz, abs=1e-6)
    # each line joins adjacent m, so its slope is gamma * (+/-1) exactly;
    # the lower one falls below the gamma B0 = 2D crossing and rises above
    # it (the first row and the crossing itself are ties)
    assert np.all(np.abs(jac[:, :, 0]) == gamma)
    assert np.array_equal(jac[[1, 2, 4, 5], :, 0] / gamma, [[-1, 1], [-1, 1], [1, 1], [1, 1]])
    assert np.all(jac[:, :, 1] == 0.0)


def test_theta_column_vanishes_at_the_right_angle(consts):
    # at theta = pi/2 the +/-3/2 pair is degenerate to rounding below about
    # 1e-7 T; the lines are still even in theta about pi/2, and the slope of
    # each along theta is exactly zero, down to B0 = 0
    gamma = consts.gyro_hz_per_t
    b0 = np.array([0.0, 1e-300, 1e-16, 1e-9, 1e-8, 1e-7, 1e-6])
    *_, jac = transition_table(
        b0, np.full_like(b0, math.pi / 2), consts, jacobian=True, labelled=True
    )
    assert np.all(jac[:, :, 1] == 0.0)
    # just off pi/2 the pair stays degenerate to rounding at these fields:
    # the slopes are noise, but no larger than unit vectors' can be, where
    # each <Sz> and <Sx> lies in [-3/2, 3/2]
    b0 = np.array([3.966060170831465e-15, 1.671952536901142e-13,
                   2.961998247604565e-11, 6.072455417884667e-09])
    theta = np.array([1.5707696268051288, 1.5707956732578083,
                      1.5707963235431524, 1.5707963267628666])
    *_, jac = transition_table(b0, theta, consts, jacobian=True, labelled=True)
    bound = 3.0 * math.sqrt(2.0)
    assert np.all(np.abs(jac[:, :, 0]) <= bound * gamma)
    assert np.all(np.abs(jac[:, :, 1]) <= bound * gamma * b0[:, None])


@pytest.mark.parametrize("theta_rad", [0.0, math.pi / 2])
def test_theta_column_is_exactly_zero_on_the_angle_edges(consts, theta_rad):
    # the lines are even in theta about both edges, so d(nu)/d(theta) there
    # is exactly zero rather than Hellmann-Feynman rounding noise: at zero
    # field, below and above both crossings gamma B0 = D and 2D, and at 60 G
    gamma, d = consts.gyro_hz_per_t, consts.d_hz
    b0 = np.array([0.0, 1e-9, 0.5 * d / gamma, 1.5 * d / gamma, 3.0 * d / gamma,
                   60 * GAUSS, 200 * GAUSS])
    *_, jac = transition_table(
        b0, np.full_like(b0, theta_rad), consts, jacobian=True, labelled=True
    )
    assert jac[:, :, 1].tolist() == [[0.0, 0.0]] * b0.size
    assert np.all(np.abs(jac[1:, :, 0]) > 0.0)


def test_transition_table_input_validation(consts):
    with pytest.raises(ValueError):
        transition_table(np.array([1e-3, 2e-3]), np.array([0.0]), consts)
    with pytest.raises(ValueError):
        transition_table(np.array([-1e-3]), np.array([0.0]), consts)
    empty = transition_table(np.array([]), np.array([]), consts)
    assert empty[0].size == 0 and empty[1].size == 0
    with pytest.raises(TypeError):  # jacobian is keyword-only
        transition_table(np.array([1e-3]), np.array([0.0]), consts, True)
    # the sorted pair has no derivative where it folds
    with pytest.raises(ValueError, match="pass labelled=True"):
        transition_table(np.array([1e-3]), np.array([0.0]), consts, jacobian=True)


def test_overflowing_field_raises_value_error_without_warnings(consts):
    # gamma * B0 overflows a float: both entry points name b0_t, and no
    # numpy overflow warning reaches the caller on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="b0_t too large"):
            transition_table(np.array([1e-3, 1e300]), np.array([0.0, 0.3]), consts)
        with pytest.raises(ValueError, match="b0_t too large"):
            build_hamiltonian(FieldVector(b0_t=1e300, theta_rad=0.3), consts)
        # below the float range, an entry overflows only where its factor
        # (at most 3/2 cos(theta) on the diagonal, sin(theta) off it) takes
        # gamma B0 past it: at theta = 0 from 1/1.5 of the range, at pi/2
        # only where gamma B0 itself overflows
        gamma = consts.gyro_hz_per_t
        edge = np.finfo(float).max / gamma / 1.5
        for b0 in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf), 1.2 * edge):
            over = math.isinf(gamma * float(b0) * 1.5)
            for theta, raises in ((0.0, over), (math.pi / 2, False)):
                fields = np.array([b0]), np.array([theta])
                if raises:
                    with pytest.raises(ValueError, match="b0_t too large"):
                        _hamiltonian_batch(*fields, consts)
                else:
                    assert np.isfinite(_hamiltonian_batch(*fields, consts)).all()


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
    nu1, nu2, jac = transition_table(b0, theta, consts, jacobian=True, labelled=True)
    plain1, plain2 = transition_table(b0, theta, consts, labelled=True)
    assert np.array_equal(nu1, plain1) and np.array_equal(nu2, plain2)
    db, dth = 1e-9, 1e-6
    fd_b = (np.array(transition_table(b0 + db, theta, consts, labelled=True))
            - np.array(transition_table(b0 - db, theta, consts, labelled=True))) / (2 * db)
    fd_t = (np.array(transition_table(b0, theta + dth, consts, labelled=True))
            - np.array(transition_table(b0, theta - dth, consts, labelled=True))) / (2 * dth)
    # errors relative to the natural scales gamma (Hz/T) and gamma*B0 (Hz/rad)
    gamma = consts.gyro_hz_per_t
    assert np.all(np.abs(jac[:, :, 0] - fd_b.T) <= 1e-7 * gamma)
    assert np.all(np.abs(jac[:, :, 1] - fd_t.T) <= 1e-7 * gamma * b0[:, None])


def _zero_field_slope(theta, consts):
    """Line A's B0 slope as B0 -> 0+, gamma (r/2 - 3/2 |cos(theta)|); line B's is its negative.

    The +/-1/2 doublet splits by gamma B0 r with r = sqrt(cos^2 + 4 sin^2),
    the +/-3/2 doublet by 3 gamma B0 |cos(theta)|, and line A joins the
    lower member of the first to the lower member of the second.
    """
    r = np.hypot(np.cos(theta), 2.0 * np.sin(theta))
    return consts.gyro_hz_per_t * (r / 2.0 - 1.5 * np.abs(np.cos(theta)))


def test_jacobian_below_a_picotesla_is_the_doublet_limit(consts):
    # at 1e-16 T and 1e-13 T the cofactors cannot resolve the Kramers
    # doublets; the slopes are their first-order limit, not those of the
    # basis states (which missed by up to gamma at 1e-16 T)
    gamma = consts.gyro_hz_per_t
    theta = np.array([0.5, 1.0, math.pi / 2 - 1e-3])
    slope = _zero_field_slope(theta, consts)
    for b in (1e-16, 1e-13, 1e-10):
        b0 = np.full_like(theta, b)
        *_, jac = transition_table(b0, theta, consts, jacobian=True, labelled=True)
        assert np.all(np.abs(jac[:, 0, 0] - slope) <= 1e-6 * gamma)
        assert np.all(np.abs(jac[:, 1, 0] + slope) <= 1e-6 * gamma)
    # at 1e-10 T the rows take the cofactor path, which a central difference
    # confirms (at 1e-12 T the difference would read rounding)
    fd = (np.array(transition_table(1.5 * b0, theta, consts, labelled=True))
          - np.array(transition_table(0.5 * b0, theta, consts, labelled=True))) / b
    assert np.all(np.abs(jac[:, :, 0] - fd.T) <= 1e-6 * gamma)


def test_transition_table_jacobian_near_zero_field(consts):
    # 2 nT: the Kramers pairs split by only ~50 Hz, yet the slopes are exact;
    # at B0 = 0 they are the one-sided derivatives of the doublet limit
    theta = np.array([0.0, 0.5, 1.0, 1.5])
    b0 = np.full_like(theta, 2e-9)
    _, _, jac = transition_table(b0, theta, consts, jacobian=True, labelled=True)
    db, dth = 1e-9, 1e-3
    fd_b = (np.array(transition_table(b0 + db, theta, consts, labelled=True))
            - np.array(transition_table(b0 - db, theta, consts, labelled=True))) / (2 * db)
    fd_t = (np.array(transition_table(b0, theta + dth, consts, labelled=True))
            - np.array(transition_table(b0, theta - dth, consts, labelled=True))) / (2 * dth)
    gamma = consts.gyro_hz_per_t
    assert np.all(np.abs(jac[:, :, 0] - fd_b.T) <= 1e-6 * gamma)
    assert np.all(np.abs(jac[:, :, 1] - fd_t.T) <= 1e-3 * gamma * b0[:, None])
    zero = np.zeros_like(theta)
    lines0 = np.array(transition_table(zero, theta, consts, labelled=True))
    *_, jac = transition_table(zero, theta, consts, jacobian=True, labelled=True)
    slope = _zero_field_slope(theta, consts)
    assert np.all(np.abs(jac[:, :, 0] - np.column_stack([slope, -slope])) <= 1e-12 * gamma)
    assert np.all(jac[:, :, 1] == 0.0)
    db = 1e-10
    fd_b = (np.array(transition_table(zero + db, theta, consts, labelled=True)) - lines0) / db
    assert np.all(np.abs(jac[:, :, 0] - fd_b.T) <= 1e-6 * gamma)


_TABLE_PATHS = ({}, {"labelled": True}, {"labelled": True, "jacobian": True})


def test_blocked_table_rows_are_bit_equal_to_one_row_calls(consts):
    # a batch of more than _TABLE_BLOCK rows is evaluated block by block;
    # every row, also on a block's first and last row, must be the one-row
    # call's bit for bit, on every path, at sizes around one and two blocks
    gamma, d = consts.gyro_hz_per_t, consts.d_hz
    edge_fields = [  # (B0 in T, theta in rad)
        (60 * GAUSS, 0.0),
        (60 * GAUSS, math.pi / 2),
        (0.0, 0.7),
        (3e-13, 1.1),  # sub-picotesla: the doublet limit of <Sz> and <Sx>
        (d / gamma, 0.0),  # gamma B0 = D and 2D: the axial level crossings
        (2 * d / gamma, 0.0),
        (d / gamma, 0.4),
        (2 * d / gamma, 1.2),
    ]
    block = _TABLE_BLOCK
    n = 2 * block + 1
    edges = [0, block - 2, block - 1, block, 2 * block - 1, 2 * block]
    rng = np.random.default_rng(3501)
    b0 = rng.uniform(0.0, 200 * GAUSS, n)
    theta = rng.uniform(0.0, math.pi / 2, n)

    def one_row(kw, b, t):
        return [out[0] for out in transition_table(np.array([b]), np.array([t]), consts, **kw)]

    reference = {i: [one_row(kw, b0[k], theta[k]) for k in range(n)]
                 for i, kw in enumerate(_TABLE_PATHS)}
    for field in edge_fields:
        b0[edges], theta[edges] = field
        for i, kw in enumerate(_TABLE_PATHS):
            special = one_row(kw, *field)
            for k in edges:
                reference[i][k] = special
            for size in (block - 1, block, block + 1, n):
                got = transition_table(b0[:size], theta[:size], consts, **kw)
                assert len(got) == len(special)
                for j, out in enumerate(got):
                    want = np.array([reference[i][k][j] for k in range(size)])
                    assert out.shape == want.shape
                    assert np.array_equal(out, want), (field, kw, size, j)


def test_overflow_in_a_later_block_raises_before_any_block(consts, monkeypatch):
    # the overflow check covers the whole batch first: the error names the
    # batch's largest B0, wherever it lies, and no block's eigensolve runs
    evaluated = []

    def spy(*args, **kwargs):
        evaluated.append(args[0].size)
        return _state_terms(*args, **kwargs)

    monkeypatch.setattr(sivodmr.spin_model, "_state_terms", spy)
    n = 2 * _TABLE_BLOCK + 1
    b0 = np.full(n, 60 * GAUSS)
    theta = np.full(n, 0.3)
    b0[_TABLE_BLOCK + 5] = 1e301
    b0[n - 1] = 1e300
    for kw in _TABLE_PATHS:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"b0_t too large.* at 1e\+301 T"):
                transition_table(b0, theta, consts, **kw)
    assert evaluated == []
    # without the overflow the same batch is evaluated in three blocks
    b0[[_TABLE_BLOCK + 5, n - 1]] = 60 * GAUSS
    transition_table(b0, theta, consts)
    assert evaluated == [_TABLE_BLOCK, _TABLE_BLOCK, 1]


@pytest.mark.parametrize("jacobian, bound_mib", [(False, 1.5), (True, 2.5)])
def test_grid_size_table_call_has_bounded_temporaries(consts, jacobian, bound_mib):
    # an 18 291-row call (the inversion grid's size) evaluated whole took
    # 7.0 MiB of traced memory, 9.2 MiB with the Jacobian; in blocks it takes
    # its outputs plus one block's temporaries, about 1.2 and 2.0 MiB
    b0, theta = _random_grid_batch()
    kw = {"jacobian": jacobian, "labelled": jacobian}
    transition_table(b0, theta, consts, **kw)
    tracemalloc.start()
    try:
        out = transition_table(b0, theta, consts, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out[0].size == b0.size
    assert peak <= bound_mib * 2**20
