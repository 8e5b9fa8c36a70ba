"""Tests for the (B0, theta) inverter and the closed-form axial estimator."""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import least_squares

from sivodmr.inversion import (
    COND_THRESHOLD,
    DEFAULT_B_MAX_T,
    NUMERIC_FLOOR_HZ,
    RESOLUTION_B_T,
    RESOLUTION_THETA_RAD,
    AxialInversion,
    AxialModelError,
    InversionResult,
    NoSolutionError,
    _COND_CAP,
    _DEDUPE_B_T,
    _DEDUPE_THETA_RAD,
    _forward_grid,
    _half_pi_branches,
    _half_pi_fits,
    _half_pi_lines,
    _half_pi_minimum,
    _quartic_starts,
    _scaled_condition,
    _solutions,
    axial_invert,
    invert_field,
)
import sivodmr.inversion
from sivodmr.spin_model import FieldVector, closed_form_axial, transition_pair, transition_table

GAUSS = 1e-4

# closed-form axial pair at 120 G, frozen from nu = |gamma B -/+ 2D| with
# gamma = 2.802468116327e10 Hz/T and D = 35 MHz
NU1_120G = 266_296_173.9592
NU2_120G = 406_296_173.9592


def _forward(b0_gauss, theta_deg, consts):
    fv = FieldVector(b0_t=b0_gauss * GAUSS, theta_rad=math.radians(theta_deg))
    tp = transition_pair(fv, consts)
    return tp.nu1_hz, tp.nu2_hz


def _labelled(b0_gauss, theta_deg, consts):
    """The lines (A, B) at one field, the ordering the inverter fits."""
    a, b = transition_table(
        np.array([b0_gauss * GAUSS]), np.radians([theta_deg]), consts, labelled=True
    )
    return a[0], b[0]


def count_table_calls(monkeypatch):
    """Record one entry per transition_table call the inverter makes."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return transition_table(*args, **kwargs)

    monkeypatch.setattr("sivodmr.inversion.transition_table", counted)
    return calls


def test_zero_field_pair_degenerate(consts):
    res = invert_field(70e6, 70e6, consts)
    assert res.b0_t == pytest.approx(0.0, abs=1e-8)
    assert res.degenerate
    assert res.reason == "sigma-overlap"
    # spec-level invariant: degenerate comes with an ill condition or an
    # unresolvable field
    assert res.condition > COND_THRESHOLD or res.b0_t < RESOLUTION_B_T


def test_exact_pair_below_resolution_flags_zero_field(consts):
    res = invert_field(*_forward(0.005, 0.0, consts), consts)
    assert res.reason == "zero-field"
    assert res.degenerate


def test_noise_beyond_resolution_flags_unresolved(consts):
    # at 2 G the angle is weakly determined: 30 kHz of line noise maps to
    # more than RESOLUTION_THETA_RAD, 10 kHz to less
    pair = _forward(2.0, 30.0, consts)
    res = invert_field(*pair, consts, sigma_hz=30e3)
    assert res.reason == "unresolved"
    assert res.n_compatible == 1
    assert invert_field(*pair, consts, sigma_hz=10e3).reason is None


@pytest.mark.parametrize("theta_deg", [0.0, 30.0, 60.0])
@pytest.mark.parametrize("b0_gauss", [0.2, 0.3, 0.5, 0.8])
def test_sub_gauss_fields_reproduce_the_pair(consts, b0_gauss, theta_deg):
    # near B0 = 0 the Kramers pairs are nearly degenerate, and the roots
    # must still land on the field
    nu1, nu2 = _forward(b0_gauss, theta_deg, consts)
    res = invert_field(nu1, nu2, consts)
    assert res.residual_hz < 1.0
    if theta_deg <= 30.0:  # at 60 deg a rival field near 50 deg fits as well
        assert res.b0_t / GAUSS == pytest.approx(b0_gauss, abs=1e-5)
        assert math.degrees(res.theta_rad) == pytest.approx(theta_deg, abs=1e-3)


def test_refine_climbs_from_zero_field(consts):
    # at B0 = 0 the Kramers pairs are degenerate and both orderings meet;
    # the theta = pi/2 edge fit does not stop on that end but climbs from
    # it to a sub-gauss field below the first node, D/4 = 3.1 G
    a, b = _labelled(0.5, 90.0, consts)
    starts, targets = _half_pi_fits(min(a, b), max(a, b), consts, DEFAULT_B_MAX_T)
    evaluated = sivodmr.inversion._evaluated(starts, targets, consts)
    b0, theta, rms, _ = min(evaluated, key=lambda s: s[2])
    assert rms < 1.0
    assert theta == math.pi / 2
    assert b0 / GAUSS == pytest.approx(0.5, abs=1e-6)


def test_inverter_reaches_eigensolves_through_the_module_name(consts, monkeypatch):
    # the benchmark times and counts the inverter's eigensolves by replacing
    # sivodmr.inversion.transition_table: the grid and the one call of
    # each inversion that evaluates its candidates must go through that name
    calls = []

    def recorder(b0_t, theta_rad, *args, **kwargs):
        calls.append((len(b0_t), kwargs.get("jacobian", False)))
        return transition_table(b0_t, theta_rad, *args, **kwargs)

    _forward_grid.cache_clear()
    monkeypatch.setattr(sivodmr.inversion, "transition_table", recorder)
    try:
        nu1, nu2 = _forward(60.0, 30.0, consts)
        invert_field(nu1, nu2, consts)
        invert_field(nu1 + 3e4, nu2 - 2e4, consts, sigma_hz=5e4)
    finally:
        _forward_grid.cache_clear()
    # perfbench/probe.py --grid reads these two names and times the one
    # grid-size call, so they and that call stay until the probe changes
    grid_size = sivodmr.inversion.GRID_N_B * sivodmr.inversion.GRID_N_THETA
    assert [n for n, _ in calls].count(grid_size) == 1
    assert calls[0] == (grid_size, False)
    assert sum(1 for n, jacobian in calls if jacobian and n < grid_size) == 2


def test_line_path_makes_no_eigenvector_solve(consts, monkeypatch):
    # lines, their selection and their Jacobian come from eigvalsh and the
    # cofactors of the tridiagonal H; numpy.linalg.eigh, which took about
    # 40 % of a grid-size table call, fails here if it comes back
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.eigh called on the line path")

    b0 = np.array([1e-9, 5 * GAUSS, 60 * GAUSS, 150 * GAUSS])
    theta = np.radians([0.0, 30.0, 54.7, 90.0])
    _forward_grid.cache_clear()
    monkeypatch.setattr(np.linalg, "eigh", refuse)
    try:
        transition_table(b0, theta, consts)
        transition_table(b0, theta, consts, labelled=True)
        transition_table(b0, theta, consts, jacobian=True, labelled=True)
        nu1, nu2 = _forward(60.0, 30.0, consts)
        res = invert_field(nu1, nu2, consts)
        assert abs(res.b0_t / GAUSS - 60.0) <= 0.1
        assert abs(math.degrees(res.theta_rad) - 30.0) <= 0.5
        invert_field(nu1 + 3e4, nu2 - 2e4, consts, sigma_hz=5e4)
    finally:
        _forward_grid.cache_clear()


def test_fixed_grid_bands_are_right_or_flagged(consts):
    # exact pairs from the bands where a narrow or edge basin used to be
    # missed without a flag: the fold edge near 90 deg, sub-gauss fields,
    # a fault field found by the benchmark, and the level-crossing band
    # gamma B0 ~ D, where the map curves strongly within a coarse-grid cell
    # and seeds interpolated on that grid missed 32 of these 200 fields'
    # exact rivals
    near_90 = (89.5, 89.75, 89.9, 89.99)
    cases = [(b0, th) for th in near_90 for b0 in np.arange(5.0, 120.1, 2.5).tolist()]
    sub_gauss = (0.05, 0.1, 0.2, 0.4, 0.8)
    cases += [(b0, th) for b0 in sub_gauss for th in (0.0, 30.0, 45.0, 60.0, 89.0)]
    cases.append((61.884686535515186, 89.76732823173803))
    crossing = np.round(np.arange(12.1, 12.551, 0.05), 2).tolist()
    cases += [(b0, th) for b0 in crossing for th in np.arange(0.5, 10.01, 0.5).tolist()]
    wrong = []
    for b0_gauss, theta_deg in cases:
        res = invert_field(*_forward(b0_gauss, theta_deg, consts), consts)
        if not (
            res.degenerate
            or abs(res.b0_t / GAUSS - b0_gauss) <= 0.1
            and abs(math.degrees(res.theta_rad) - theta_deg) <= 0.5
        ):
            wrong.append((b0_gauss, theta_deg))
    assert not wrong, f"{len(wrong)}/{len(cases)} unflagged misses: {wrong[:5]}"


@functools.lru_cache(maxsize=2)
def _dense_grid(consts):
    """B0 and theta nodes of a dense scan of the domain, with the labelled lines at every node.

    Finer where the map curves: below 1 G, around the level crossings
    gamma B0 = D and 2D, and near both angle edges.
    """
    b_nodes = GAUSS * np.unique(np.concatenate([
        np.linspace(0.0, 200.0, 401), np.linspace(0.0, 1.0, 51),
        np.linspace(11.5, 13.5, 201), np.linspace(24.0, 26.0, 81),
    ]))
    th_nodes = np.radians(np.unique(np.concatenate([
        np.linspace(0.0, 90.0, 181), np.linspace(0.0, 3.0, 61), np.linspace(87.0, 90.0, 61),
    ])))
    bb, tt = np.meshgrid(b_nodes, th_nodes, indexing="ij")
    lines = np.stack(transition_table(bb.ravel(), tt.ravel(), consts, labelled=True))
    return b_nodes, th_nodes, lines.reshape(2, *bb.shape)


def _oracle_preimages(pairs, consts):
    """Every field of the domain that reproduces each exact pair, found without the quartic.

    A dense scan of the labelled lines (_dense_grid) keeps each node that
    is a local minimum of the pair's miss, for either ordering as (A, B),
    and that misses it by no more than twice the node's span, the larger
    over four axes of the smaller of the forward and backward line changes
    (so a one-sided jump of the line selection does not widen it).
    scipy's least_squares, with finite differences, polishes each such
    node, moved 0.01 deg off an angle edge; the polished points within the
    numeric floor, deduplicated as the inverter deduplicates, are the
    preimages.
    """
    b_nodes, th_nodes, lines = _dense_grid(consts)
    n0, n1 = lines.shape[1:]

    def neighbours(a, di, dj):
        return a[..., 1 + di:1 + di + n0, 1 + dj:1 + dj + n1]

    padded = np.pad(lines, ((0, 0), (1, 1), (1, 1)), mode="reflect")
    span = np.max([
        np.minimum(
            np.abs(neighbours(padded, di, dj) - lines).max(axis=0),
            np.abs(neighbours(padded, -di, -dj) - lines).max(axis=0),
        )
        for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1))
    ], axis=0)
    found = []
    for nu1, nu2 in pairs:
        points = []
        for target in ((nu1, nu2), (nu2, nu1)):
            diff = lines - np.array(target)[:, None, None]
            dist = np.pad(np.hypot(*diff), 1, constant_values=np.inf)
            lowest = np.min([neighbours(dist, di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)],
                            axis=0)
            keep = (np.abs(diff).max(axis=0) <= 2.0 * span) & (dist[1:-1, 1:-1] == lowest)

            def miss_mhz(x, target=target):
                a, b = transition_table(
                    np.array([x[0] * GAUSS]), np.radians([x[1]]), consts, labelled=True
                )
                return [(a[0] - target[0]) / 1e6, (b[0] - target[1]) / 1e6]

            for i, j in np.argwhere(keep):
                # off the angle edges, where the lines are even in theta
                # and a finite-difference step cannot leave the edge
                start = [b_nodes[i] / GAUSS, min(max(math.degrees(th_nodes[j]), 0.01), 89.99)]
                sol = least_squares(
                    miss_mhz, start,
                    bounds=([0.0, 0.0], [DEFAULT_B_MAX_T / GAUSS, 90.0]),
                    xtol=1e-15, ftol=1e-15, gtol=1e-15, diff_step=1e-9, max_nfev=200,
                )
                rms = 1e6 * math.sqrt(np.mean(np.square(miss_mhz(sol.x))))
                if rms < NUMERIC_FLOOR_HZ:
                    points.append((rms, sol.x[0] * GAUSS, math.radians(sol.x[1])))
        distinct = []
        for _, b0, theta in sorted(points):
            if not any(
                abs(b0 - d[0]) <= _DEDUPE_B_T and abs(theta - d[1]) <= _DEDUPE_THETA_RAD
                for d in distinct
            ):
                distinct.append((b0, theta))
        found.append(distinct)
    return found


def test_every_exact_preimage_matches_an_independent_oracle(consts):
    # random fields, the level-crossing band, sub-gauss fields, both angle
    # edges and two magic-angle mirrors: the truth and the reported field
    # must be oracle preimages, and n_compatible their number
    rng = np.random.default_rng(7)
    fields = list(zip(rng.uniform(5.0, 150.0, 10), rng.uniform(0.0, 90.0, 10)))
    fields += list(zip(rng.uniform(12.1, 12.55, 8), rng.uniform(0.5, 10.0, 8)))
    fields += [(0.1, 89.0), (0.1, 30.0), (0.3, 60.0), (0.5, 45.0), (0.8, 10.0), (0.2, 80.0)]
    fields += [(40.0, 0.5), (90.0, 1.0), (12.5132, 3.384), (150.0, 2.0)]
    fields += [(30.0, 89.5), (61.88, 89.77), (100.0, 89.9), (8.0, 88.0)]
    fields += [(100.0, 40.0), (80.0, 70.0)]
    pairs = [_forward(b0, th, consts) for b0, th in fields]

    def held(points, b0, theta):
        return any(
            abs(b0 - p[0]) <= 2 * _DEDUPE_B_T and abs(theta - p[1]) <= 2 * _DEDUPE_THETA_RAD
            for p in points
        )

    wrong = []
    for (b0_g, th_d), pair, points in zip(fields, pairs, _oracle_preimages(pairs, consts)):
        res = invert_field(*pair, consts)
        if not (
            held(points, b0_g * GAUSS, math.radians(th_d))
            and held(points, res.b0_t, res.theta_rad)
            and res.n_compatible == len(points)
        ):
            wrong.append((b0_g, th_d, res.n_compatible, len(points)))
    assert not wrong, f"{len(wrong)}/{len(fields)} disagree with the oracle: {wrong}"


def _oracle_best_residual(pair, consts, n_polish=2):
    """The lowest RMS miss of the pair over the domain, found without the quartic or the edge fits.

    On _dense_grid, the n_polish lowest nodes that are local minima of the
    miss, for each ordering of the pair as (A, B), are polished by scipy's
    least_squares as in _oracle_preimages; the lowest miss, polished or at
    a node, wins.
    """
    b_nodes, th_nodes, lines = _dense_grid(consts)
    n0, n1 = lines.shape[1:]
    best = math.inf
    for target in (pair, pair[::-1]):
        rms = np.sqrt(np.mean(np.square(lines - np.array(target)[:, None, None]), axis=0))
        padded = np.pad(rms, 1, constant_values=np.inf)
        lowest = np.min([padded[1 + di:1 + di + n0, 1 + dj:1 + dj + n1]
                         for di in (-1, 0, 1) for dj in (-1, 0, 1)], axis=0)
        minima = np.argwhere(rms == lowest)
        minima = minima[np.argsort(rms[tuple(minima.T)])[:n_polish]]

        def miss_mhz(x, target=target):
            a, b = transition_table(
                np.array([x[0] * GAUSS]), np.radians([x[1]]), consts, labelled=True
            )
            return [(a[0] - target[0]) / 1e6, (b[0] - target[1]) / 1e6]

        for i, j in minima:
            start = [b_nodes[i] / GAUSS, min(max(math.degrees(th_nodes[j]), 0.01), 89.99)]
            sol = least_squares(
                miss_mhz, start, bounds=([0.0, 0.0], [DEFAULT_B_MAX_T / GAUSS, 90.0]),
                xtol=1e-15, ftol=1e-15, gtol=1e-15, diff_step=1e-9, max_nfev=200,
            )
            polished = 1e6 * math.sqrt(np.mean(np.square(miss_mhz(sol.x))))
            best = min(best, polished, float(rms[i, j]))
    return best


def test_noisy_and_valley_pairs_take_one_table_call_and_reach_the_oracle(consts, monkeypatch):
    # random pairs with 100 kHz and 1 MHz of noise, half of them at
    # 85-90 deg, where roots fall onto the theta = pi/2 edge, and pairs
    # within 5 kHz of the zero-field pair (2D, 2D), exact and noisy: each
    # takes one table call, and the lowest residual among the inverter's
    # solutions is within 1 Hz of a dense scan polished by scipy, or better
    rng = np.random.default_rng(33_004)
    cases = []
    for sigma, n_random, n_edge in ((1e5, 8, 8), (1e6, 6, 6)):
        theta = np.concatenate([rng.uniform(0.0, 90.0, n_random), rng.uniform(85.0, 90.0, n_edge)])
        for b0_gauss, theta_deg in zip(rng.uniform(0.5, 150.0, theta.size), theta):
            nu1, nu2 = _forward(b0_gauss, theta_deg, consts) + rng.normal(0.0, sigma, 2)
            cases.append(((min(nu1, nu2), max(nu1, nu2)), sigma))
    for sigma in (0.0, 0.0, 0.0, 0.0, 1e3, 1e3, 1e3, 1e3):
        nu1, nu2 = 2.0 * consts.d_hz + rng.uniform(-5e3, 5e3, 2)
        cases.append(((min(nu1, nu2), max(nu1, nu2)), sigma))
    invert_field(70e6, 71e6, consts)  # warm the grid cache
    calls = count_table_calls(monkeypatch)
    costly, worse = [], []
    for pair, sigma in cases:
        calls.clear()
        try:
            invert_field(*pair, consts, sigma_hz=sigma)
        except NoSolutionError:
            pass
        if len(calls) != 1:
            costly.append((pair, sigma, len(calls)))
        best = min(s[2] for s in _solutions(*pair, consts, DEFAULT_B_MAX_T, sigma))
        oracle = _oracle_best_residual(pair, consts)
        if best > oracle + 1.0:
            worse.append((pair, sigma, best, oracle))
    assert not costly
    assert not worse


def test_zero_field_valley_pairs_take_one_table_call(consts, monkeypatch):
    # exact (sigma = 0) pairs just below the zero-field pair: their lines
    # sum to less than 4D, which no field reaches, so no root reproduces
    # them.  Refining every root along the flat valley of minima there
    # took 67-805 table calls per inversion; the roots' complex pair now
    # brings in the edge fits, and one call evaluates them.  Every line pair
    # of the domain sums to 4D or more, so the RMS miss is at least
    # 2D - (nu1 + nu2)/2, which the theta = 0 fit below the crossing
    # reaches; the report stays within twice that and flags zero field
    rng = np.random.default_rng(33_003)
    pairs = []
    while len(pairs) < 12:
        d1, d2 = rng.uniform(-5e3, 5e3, 2)
        if d1 + d2 < 0.0:
            pairs.append((2.0 * consts.d_hz + min(d1, d2), 2.0 * consts.d_hz + max(d1, d2)))
    invert_field(70e6, 71e6, consts)  # warm the grid cache
    calls = count_table_calls(monkeypatch)
    for nu1, nu2 in pairs:
        calls.clear()
        res = invert_field(nu1, nu2, consts)
        assert len(calls) == 1
        assert res.reason == "zero-field"
        floor = 2.0 * consts.d_hz - (nu1 + nu2) / 2.0
        best = min(s[2] for s in _solutions(nu1, nu2, consts, DEFAULT_B_MAX_T, 0.0))
        assert best == pytest.approx(floor, abs=1e-3)
        assert floor - 1e-3 <= res.residual_hz <= 2.0 * best


@pytest.mark.parametrize(
    "pair, sigma_hz, reason",
    [
        ((69_996_737.717, 69_999_594.541), 0.0, "zero-field"),
        ((69_996_737.717, 69_999_594.541), 1e3, "zero-field"),
        ((61_903_379.418, 80_202_840.213), 1e6, "unresolved"),
    ],
)
def test_pairs_whose_noise_drops_the_half_pi_rival_stay_flagged(consts, pair, sigma_hz, reason):
    # _solutions picks its candidates by sigma, and a noisy pair whose roots
    # are not clipped onto theta = pi/2 gets no pi/2 edge fit: the valley
    # pair keeps its (0.00051 G, 90 deg) rival at sigma = 0 and loses it at
    # 1 kHz, and at 1 MHz the second pair's pi/2 fit (3.24 G, 778 kHz RMS,
    # inside 3 sigma) is never evaluated.  Each answer stays flagged, so a
    # lost rival is never a silently wrong field
    res = invert_field(*pair, consts, sigma_hz=sigma_hz)
    assert res.degenerate
    assert res.reason == reason


def test_half_pi_lines_match_the_table_on_both_sides_of_the_crossing(consts):
    # on theta = pi/2 H/h splits into two 2 x 2 blocks; the closed-form
    # labelled lines and their B0 slopes are the table's, below and above
    # gamma B0 = 2D, where the line selection switches, and the second
    # derivatives are those of the first
    gamma, d = consts.gyro_hz_per_t, consts.d_hz
    b0 = np.linspace(0.0, 200 * GAUSS, 20_001)
    b0 = b0[b0 != 2.0 * d / gamma]  # the selection's weight tie
    a, b, jac = transition_table(
        b0, np.full_like(b0, math.pi / 2), consts, jacobian=True, labelled=True
    )
    x = gamma * b0
    upper = x > 2.0 * d
    assert 1000 < upper.sum() < upper.size - 1000
    lines = np.array([_half_pi_lines(v, d, u) for v, u in zip(x.tolist(), upper.tolist())])
    assert np.max(np.abs(lines[:, 0] - a)) <= 1e-5
    assert np.max(np.abs(lines[:, 1] - b)) <= 1e-5
    assert np.max(np.abs(gamma * lines[:, 2:4] - jac[:, :, 0])) <= 1e-7 * gamma
    h = 1e-3 * d
    for v in (0.3 * d, 0.5 * d, 1.7 * d, 2.3 * d, 5.0 * d, 15.0 * d):
        lo, hi = _half_pi_lines(v - h, d, v > 2 * d), _half_pi_lines(v + h, d, v > 2 * d)
        line = _half_pi_lines(v, d, v > 2 * d)
        for k in (0, 1):
            assert (hi[k] - lo[k]) / (2 * h) == pytest.approx(line[2 + k], rel=1e-6, abs=1e-9)
            assert (hi[2 + k] - lo[2 + k]) / (2 * h) * d == pytest.approx(
                line[4 + k] * d, rel=1e-5, abs=1e-9)


def _half_pi_reference(x, d):
    """The labelled lines on theta = pi/2 from the sorted block levels, as arrays."""
    r1, r2 = np.sqrt(d * d - d * x + x * x), np.sqrt(d * d + d * x + x * x)
    e = np.sort(np.stack([x / 2 - r1, x / 2 + r1, -x / 2 - r2, -x / 2 + r2]), axis=0)
    below = x < 2.0 * d
    return (np.where(below, e[2] - e[0], e[1] - e[0]),
            np.where(below, e[3] - e[1], e[3] - e[2]))


def test_half_pi_fits_are_no_worse_than_a_dense_scan(consts):
    # on each side of gamma B0 = 2D and for each ordering, the edge fit
    # reaches the lowest miss of a dense scan of the block levels, unless
    # that lies at B0 = 0.  There A = B and the orderings meet, so a fit
    # may skip that end (and return none if it has no other minimum), but
    # the better of the two fits still reaches the lowest miss of both scans
    gamma, d = consts.gyro_hz_per_t, consts.d_hz
    rng = np.random.default_rng(33_005)
    pairs = []
    for sigma in (1e5, 1e6):
        for b0_gauss, theta_deg in zip(rng.uniform(0.5, 150.0, 10), rng.uniform(80.0, 90.0, 10)):
            pairs.append(np.add(_forward(b0_gauss, theta_deg, consts), rng.normal(0.0, sigma, 2)))
    pairs += [rng.uniform(1e6, 600e6, 2) for _ in range(20)]
    pairs += [2.0 * d + rng.uniform(-5e3, 5e3, 2) for _ in range(5)]
    branches = _half_pi_branches(d, gamma * DEFAULT_B_MAX_T)
    assert [upper for *_, upper in branches] == [False, True]
    for nodes, lines, upper in branches:
        xs = np.linspace(nodes[0], nodes[-1], 200_001)
        ref_a, ref_b = _half_pi_reference(xs, d)
        for t1, t2 in (sorted(p) for p in pairs):
            fits, scans = [], []
            for ta, tb in ((t1, t2), (t2, t1)):
                scan = (ref_a - ta) ** 2 + (ref_b - tb) ** 2
                scans.append(scan.min())
                x = _half_pi_minimum(nodes, lines, (ta, tb), d, upper)
                if x is None:
                    assert not upper and scan.argmin() == 0
                    continue
                assert x > 0.0 or ta == tb
                a, b, *_ = _half_pi_lines(x, d, upper)
                fits.append((a - ta) ** 2 + (b - tb) ** 2)
                if upper or scan.argmin() > 0:
                    assert fits[-1] <= scans[-1] * (1.0 + 1e-12) + 1e-6
            assert min(fits) <= min(scans) * (1.0 + 1e-12) + 1e-6
    # the fits come in that order: each ordering below, then above, 2D
    starts, targets = _half_pi_fits(*sorted(pairs[0]), consts, DEFAULT_B_MAX_T)
    assert [theta for _, theta in starts] == [math.pi / 2] * 4
    assert targets == [tuple(sorted(pairs[0])), tuple(sorted(pairs[0]))[::-1]] * 2


def test_quartic_starts_place_only_real_roots_inside_the_domain(consts):
    # a placed start is a real root that the clip leaves where it is; only
    # the others call for edge fits
    pair = _forward(60.0, 30.0, consts)
    starts, _, placed, _ = _quartic_starts(*pair, consts, DEFAULT_B_MAX_T)
    # the truth, the (31.4 G, 26.5 deg) preimage of the other ordering, and
    # two roots with v < 0 clipped onto theta = pi/2
    assert placed == [True, True, False, False]
    assert starts[0][0] / GAUSS == pytest.approx(60.0, abs=1e-9)
    assert starts[0][1] / math.radians(1.0) == pytest.approx(30.0, abs=1e-9)
    assert [theta for _, theta in starts[2:]] == [math.pi / 2, math.pi / 2]
    # a search cap below 60 G clips the truth onto the cap
    starts, _, placed, _ = _quartic_starts(*pair, consts, 50.0 * GAUSS)
    assert placed == [False, True, False, False]
    assert starts[0][0] == 50.0 * GAUSS
    # 1 MHz of noise on (4.07 G, 5.9 deg) splits a real pair of roots into
    # a complex one, which gives one start, at its real part
    starts, _, placed, _ = _quartic_starts(
        57_413_493.74117136, 81_029_365.31477349, consts, DEFAULT_B_MAX_T
    )
    assert placed == [True, False, True]


def _roots_reference(t1, t2, consts, b_max_t):
    """_quartic_starts as numpy.roots and array bookkeeping give it."""
    a2, b2 = (t1 / consts.d_hz) ** 2, (t2 / consts.d_hz) ** 2
    roots = np.roots([
        16.0 / 25.0,
        0.0,
        -(17.0 * (a2 + b2) - 56.0) / 50.0,
        (a2 - b2) / 4.0,
        -(9.0 * a2 * a2 - 82.0 * a2 * b2 - 224.0 * a2 + 9.0 * b2 * b2 - 224.0 * b2 + 2816.0)
        / 1600.0,
    ])
    s, first = np.unique(roots.real, return_index=True)
    u = (4.0 * s * s + (a2 + b2) / 2.0 - 4.0) / 5.0
    v = (u + s * (a2 - b2) / 4.0) / 3.0
    b0 = np.sqrt(np.maximum(u, 0.0)) * (consts.d_hz / consts.gyro_hz_per_t)
    cos2 = np.divide(v, u, out=np.ones_like(u), where=u > 0.0).clip(0.0, 1.0)
    starts = np.column_stack([np.minimum(b0, b_max_t), np.arccos(np.sqrt(cos2))])
    targets = np.where((s < 0.0)[:, None], [t1, t2], [t2, t1])
    real = roots.imag[first] == 0.0
    placed = real & (0.0 <= v) & (v <= u) & (b0 <= b_max_t)
    return starts, targets, placed, real, np.iscomplexobj(roots) and bool(roots.imag.any())


def test_quartic_starts_match_the_numpy_roots_formulation(consts):
    rng = np.random.default_rng(26_001)
    pairs = [_forward(b, t, consts)
             for b, t in zip(rng.uniform(0.5, 150.0, 200), rng.uniform(0.0, 90.0, 200))]
    noisy = [tuple(sorted(np.add(pair, rng.normal(0.0, 1e6, 2)))) for pair in pairs[:100]]
    # 1 MHz of noise on (4.07 G, 5.9 deg): a real pair of roots turns complex
    noisy.append((57_413_493.74117136, 81_029_365.31477349))
    # pairs no field need reproduce: some complex pairs have their real
    # part inside the domain, where only the imaginary part leaves it unplaced
    arbitrary = [tuple(sorted(rng.uniform(1e6, 600e6, 2))) for _ in range(50)]
    # the quartic's constant term is exactly 0 here, which numpy.roots
    # strips and the companion matrix keeps
    zero_field = (2.0 * consts.d_hz, 2.0 * consts.d_hz)
    complex_pairs = 0
    for pair in pairs + noisy + arbitrary + [zero_field]:
        starts, targets, placed, real = _quartic_starts(*pair, consts, DEFAULT_B_MAX_T)
        ref_starts, ref_targets, ref_placed, ref_real, split = _roots_reference(
            *pair, consts, DEFAULT_B_MAX_T
        )
        np.testing.assert_array_max_ulp(np.array(starts), ref_starts, maxulp=4)
        assert targets == [tuple(t) for t in ref_targets.tolist()]
        assert placed == ref_placed.tolist()
        assert real == ref_real.tolist()
        complex_pairs += split
    assert complex_pairs >= 1


def test_closed_form_condition_matches_svd(consts):
    # the inverter's condition is that of the Jacobian with its columns
    # scaled to the domain, capped at _COND_CAP; LAPACK's SVD is the reference
    scale = np.diag([DEFAULT_B_MAX_T, math.pi / 2])

    def reference(jac):
        s = np.linalg.svd(jac @ scale, compute_uv=False)
        return s[0], min(s[0] / s[1], _COND_CAP)

    rng = np.random.default_rng(26_002)
    b0 = rng.uniform(0.5, 150.0, 100) * GAUSS
    theta = rng.uniform(0.0, math.pi / 2, 100)
    *_, table = transition_table(b0, theta, consts, jacobian=True, labelled=True)
    jacobians = list(table)
    # near rank-1: singular values 1e9 and 1e9 / ratio in the scaled space,
    # between random rotations, up to and past the cap
    for ratio in (1e2, 1e6, 1e9, 1e11, 5e11, 1e13, 1e15):
        for _ in range(10):
            u, _r = np.linalg.qr(rng.normal(size=(2, 2)))
            v, _r = np.linalg.qr(rng.normal(size=(2, 2)))
            scaled = u @ np.diag([1e9, 1e9 / ratio]) @ v.T
            jacobians.append(scaled @ np.linalg.inv(scale))
    for jac in jacobians:
        s_max, condition = _scaled_condition(jac, DEFAULT_B_MAX_T)
        ref_s_max, ref_condition = reference(jac)
        assert s_max == pytest.approx(ref_s_max, rel=8 * np.finfo(float).eps)
        tol = 8 * ref_condition * np.finfo(float).eps
        if ref_condition * (1.0 - tol) >= _COND_CAP:
            assert condition == _COND_CAP
        else:
            assert condition == pytest.approx(ref_condition, rel=tol)

    # exactly singular, all zero or not finite: the cap
    gamma = consts.gyro_hz_per_t
    for jac in ([[gamma, 0.0], [-gamma, 0.0]],  # the theta column of B0 = 0
                [[1.0, 2.0], [3.0, 6.0]],
                [[0.0, 0.0], [0.0, 0.0]],
                [[gamma, math.nan], [gamma, 1.0]],
                [[math.inf, 1.0], [gamma, 1.0]]):
        assert _scaled_condition(np.array(jac), DEFAULT_B_MAX_T)[1] == _COND_CAP


def test_megahertz_noisy_pairs_reach_an_exact_preimage(consts):
    # each pair has an exact preimage in the domain, (61.188 G, 46.14 deg),
    # (3.948 G, 55.32 deg) and (9.828 G, 30.23 deg).  Mesh seeds missed the
    # first two and raised NoSolutionError with best residuals of 2.71 and
    # 1.81 MHz.  The third raised it with 1.63 MHz: the 3 sigma floor let a
    # smaller-B0 fit beyond NO_SOLUTION_RMS_HZ be reported, and that
    # residual was then tested
    for pair in ((167_339_267.73275846, 196_291_801.46579912),
                 (71_615_570.28514194, 71_977_024.54737374),
                 (58_328_000.74873568, 91_505_699.39422719)):
        res = invert_field(*pair, consts, sigma_hz=1e6)
        assert res.residual_hz < 1.0


def test_noisy_axial_pairs_come_back_on_axis_or_flagged(consts, monkeypatch):
    # 100 kHz of noise on the 60 G and 20 G axial pairs: the best fit of the
    # first sits off-axis at 2.4 deg with a rival on the theta = 0 edge that
    # must be reported, and the second has no fit off the edge at all
    res = invert_field(98_352_178.89175855, 237_892_520.47648862, consts, sigma_hz=1e5)
    assert res.degenerate or (
        abs(res.b0_t / GAUSS - 60.0) <= 0.1 and math.degrees(res.theta_rad) <= 0.5
    )
    res = invert_field(13_758_131.223649612, 125_747_482.8034788, consts, sigma_hz=1e5)
    assert abs(res.b0_t / GAUSS - 20.0) <= 0.1 and math.degrees(res.theta_rad) <= 0.5
    # below the crossing gamma B0 = 2D the theta = 0 edge fit is
    # gamma B0 = (nu2 - nu1) / 2, and it stands as it is
    rng = np.random.default_rng(24)
    calls = count_table_calls(monkeypatch)
    wrong, costly = [], []
    for b0_gauss in (3.0, 5.0, 8.0, 10.0):
        nu1, nu2 = _forward(b0_gauss, 0.0, consts)
        for _ in range(3):
            pair = sorted((nu1 + rng.normal(0.0, 1e5), nu2 + rng.normal(0.0, 1e5)))
            calls.clear()
            res = invert_field(*pair, consts, sigma_hz=1e5)
            if len(calls) > 10:
                costly.append((b0_gauss, len(calls)))
            if not res.degenerate and not (
                abs(res.b0_t / GAUSS - b0_gauss) <= 0.1 and math.degrees(res.theta_rad) <= 0.5
            ):
                wrong.append((b0_gauss, res.b0_t / GAUSS, math.degrees(res.theta_rad)))
    assert not wrong
    assert not costly


def test_rounded_axial_pair_recovers_sixty_gauss(consts):
    res = invert_field(98.148e6, 238.148e6, consts)
    assert res.b0_t / GAUSS == pytest.approx(60.0, abs=1e-3)
    assert math.degrees(res.theta_rad) == pytest.approx(0.0, abs=0.05)
    assert res.residual_hz < 1.0


def test_roundtrip_sixty_gauss_thirty_degrees(consts):
    nu1, nu2 = _forward(60.0, 30.0, consts)
    res = invert_field(nu1, nu2, consts)
    assert res.b0_t / GAUSS == pytest.approx(60.0, abs=1e-4)
    assert math.degrees(res.theta_rad) == pytest.approx(30.0, abs=1e-3)
    assert res.residual_hz < 1.0
    assert not res.degenerate
    assert res.n_compatible == 1


@pytest.mark.parametrize("b0_gauss", [30.0, 60.0, 90.0, 120.0])
@pytest.mark.parametrize("theta_deg", [10.0, 20.0, 30.0])
def test_roundtrip_grid_below_mirror_threshold(consts, b0_gauss, theta_deg):
    # below ~35 deg at these fields the pair determines the field uniquely
    nu1, nu2 = _forward(b0_gauss, theta_deg, consts)
    res = invert_field(nu1, nu2, consts)
    assert res.b0_t / GAUSS == pytest.approx(b0_gauss, abs=1e-3)
    assert math.degrees(res.theta_rad) == pytest.approx(theta_deg, abs=0.01)
    assert res.residual_hz < 1.0
    assert res.n_compatible == 1
    assert not res.degenerate


def test_off_node_point_refines_below_grid_spacing(consts):
    nu1, nu2 = _forward(47.3, 17.6, consts)
    res = invert_field(nu1, nu2, consts)
    assert res.b0_t / GAUSS == pytest.approx(47.3, abs=1e-3)
    assert math.degrees(res.theta_rad) == pytest.approx(17.6, abs=0.01)


def test_exact_axial_input_flags_unidentifiable_angle(consts):
    # at theta = 0 the frequencies are stationary in angle, so the local
    # Jacobian loses a column and the inversion honestly reports it
    nu1, nu2 = _forward(90.0, 0.0, consts)
    res = invert_field(nu1, nu2, consts)
    assert res.b0_t / GAUSS == pytest.approx(90.0, abs=1e-3)
    assert res.degenerate and res.reason == "ill-conditioned"
    assert res.condition > COND_THRESHOLD


def test_mirror_pair_detected_and_reported(consts):
    # above the gap-minimizing angle a second field reproduces the same
    # pair exactly; the deterministic reduction returns the smaller-B0
    # basin and surfaces the rival through alt_*
    nu1, nu2 = _forward(80.0, 70.0, consts)
    res = invert_field(nu1, nu2, consts)
    assert res.degenerate
    assert res.reason == "ambiguous"
    assert res.n_compatible >= 2
    assert res.condition > COND_THRESHOLD
    assert res.b0_t <= 80.0 * GAUSS
    assert res.alt_b0_t / GAUSS == pytest.approx(80.0, abs=1e-3)
    assert math.degrees(res.alt_theta_rad) == pytest.approx(70.0, abs=0.01)
    # the selected rival itself reproduces the input within the floor
    n1_alt, n2_alt = transition_table(
        np.array([res.b0_t]), np.array([res.theta_rad]), consts
    )
    assert abs(n1_alt[0] - nu1) < 1.0 and abs(n2_alt[0] - nu2) < 1.0


def test_inversion_is_deterministic_and_order_invariant(consts):
    nu1, nu2 = _forward(80.0, 70.0, consts)
    first = invert_field(nu1, nu2, consts)
    again = invert_field(nu1, nu2, consts)
    swapped = invert_field(nu2, nu1, consts)
    assert first == again == swapped


@pytest.mark.parametrize("theta_deg", [52.5, 54.74, 56.5])
@pytest.mark.parametrize("b0_gauss", [20.0, 60.0, 120.0])
def test_noise_near_gap_minimum_always_flags(consts, rng, theta_deg, b0_gauss):
    sigma = 1e5  # Hz
    nu1, nu2 = _forward(b0_gauss, theta_deg, consts)
    for _ in range(2):
        res = invert_field(
            nu1 + sigma * rng.standard_normal(),
            nu2 + sigma * rng.standard_normal(),
            consts,
            sigma_hz=sigma,
        )
        assert res.degenerate, f"unflagged at B={b0_gauss} G, theta={theta_deg} deg"
        assert res.reason is not None


def test_condition_quiet_away_from_fold_spikes_at_fold(consts):
    nu1, nu2 = _forward(60.0, 30.0, consts)
    away = invert_field(nu1, nu2, consts)
    nu1, nu2 = _forward(60.0, 54.74, consts)
    fold = invert_field(nu1, nu2, consts)
    assert away.condition < 100.0
    assert fold.condition > COND_THRESHOLD
    assert fold.degenerate


def test_unreachable_pair_raises(consts, monkeypatch):
    with pytest.raises(NoSolutionError) as err:
        invert_field(500e6, 900e6, consts)
    assert err.value.best_residual_hz > 1e6
    # an exact pair (row 3 of default_rng(3).uniform(1e6, 600e6, (300, 2)),
    # sorted) whose placed roots all miss without a sign of it: its six edge
    # fits come in a second table call, and the best of them, 25.6 MHz
    # off, is the error's residual, within 1 Hz of the oracle's or better
    pair = (96_683_609.86761007, 287_951_727.58635956)
    invert_field(70e6, 71e6, consts)  # warm the grid cache
    calls = count_table_calls(monkeypatch)
    with pytest.raises(NoSolutionError) as err:
        invert_field(*pair, consts)
    assert len(calls) == 2
    assert err.value.best_residual_hz <= _oracle_best_residual(pair, consts) + 1.0


def test_pair_beyond_every_line_raises_without_overflow(consts):
    # no line of the domain exceeds 2D + 3 gamma b_max, so this pair is out
    # of reach before any candidate is evaluated, and its best residual
    # stays finite
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoSolutionError) as err:
            invert_field(1e306, 2e6, consts)
    assert math.isfinite(err.value.best_residual_hz)
    assert err.value.best_residual_hz > 1e305


def test_pair_on_a_line_selection_jump_takes_one_table_call(consts, monkeypatch):
    # (70 G, 40 deg) lies next to jumps of the pumped-pair selection; the
    # quartic's roots hold both exact preimages, so one table call verifies
    # them and the reduction keeps the same answer
    nu1, nu2 = _forward(70.0, 40.0, consts)
    invert_field(nu1, nu2, consts)  # warm the grid cache
    calls = count_table_calls(monkeypatch)
    res = invert_field(nu1, nu2, consts)
    assert len(calls) == 1
    assert res.b0_t == pytest.approx(70.0 * GAUSS, abs=1e-12)
    assert math.degrees(res.theta_rad) == pytest.approx(40.0, abs=1e-9)
    assert res.reason == "ambiguous"
    assert res.n_compatible == 2
    assert res.alt_b0_t == pytest.approx(0.0072205, abs=1e-7)
    # at and near zero field the table's Jacobian is analytic too, so these
    # pairs take one call, not a second for a forward difference: the exact
    # zero-field pair, and a pair 4 kHz apart, noisy and exact
    for pair, sigma, b0, theta, reason in (
        ((70e6, 70e6), 0.0, 0.0, 0.0, "sigma-overlap"),
        ((70e6 - 2e3, 70e6 + 2e3), 1e3, 7.136566472774936e-08, 0.0, "zero-field"),
        ((70e6 - 2e3, 70e6 + 2e3), 0.0, 7.13656680367032e-08, 1.485111805341741e-4, "zero-field"),
    ):
        calls.clear()
        res = invert_field(*pair, consts, sigma_hz=sigma)
        assert len(calls) == 1
        assert res.b0_t == pytest.approx(b0, abs=_DEDUPE_B_T)
        assert res.theta_rad == pytest.approx(theta, abs=_DEDUPE_THETA_RAD)
        assert res.reason == reason


def test_noisy_pair_with_placed_roots_takes_one_table_call(consts, monkeypatch):
    # the same pair with (30, -20) kHz of noise at sigma = 100 kHz: both
    # exact preimages are placed roots and stand as they are, the roots
    # whose pumped pair is other lines are dropped, and the two theta = 0
    # edge fits miss by more than the 3 sigma floor.  Refining every root
    # took 16 table calls for the same answer
    nu1, nu2 = _forward(70.0, 40.0, consts)
    invert_field(nu1, nu2, consts)  # warm the grid cache
    calls = count_table_calls(monkeypatch)
    res = invert_field(nu1 + 3e4, nu2 - 2e4, consts, sigma_hz=1e5)
    assert len(calls) == 1
    assert res.b0_t == pytest.approx(0.00700014181459242, abs=1e-12)
    assert res.theta_rad == pytest.approx(0.6983833789233223, abs=1e-9)
    assert res.residual_hz < NUMERIC_FLOOR_HZ
    assert res.reason == "ambiguous"
    assert res.n_compatible == 2
    assert res.alt_b0_t == pytest.approx(0.0072204015, abs=1e-9)


def test_noisy_pair_keeps_its_rival_on_the_right_angle_edge(consts, monkeypatch):
    # 100 kHz of noise on a field near 32 deg: two roots fall onto
    # theta = pi/2, whose fit finds a field there 138 kHz from the pair,
    # inside the 3 sigma floor, beside the exact preimage at 88.07 deg.
    # Gauss-Newton from those roots stopped at 15.44 G, 5.4 MHz off, and
    # missed it; one table call evaluates the fit with the roots
    pair = (73_353_449.14855823, 140_356_435.04951134)
    invert_field(*pair, consts)  # warm the grid cache
    calls = count_table_calls(monkeypatch)
    res = invert_field(*pair, consts, sigma_hz=1e5)
    assert len(calls) == 1
    assert res.b0_t / GAUSS == pytest.approx(31.90939, abs=1e-4)
    assert res.reason == "ambiguous" and res.n_compatible == 3
    assert res.alt_theta_rad == math.pi / 2
    assert res.alt_b0_t / GAUSS == pytest.approx(38.1277, abs=1e-3)
    edge = [s for s in _solutions(*pair, consts, DEFAULT_B_MAX_T, 1e5) if s[1] == math.pi / 2]
    assert min(s[2] for s in edge) == pytest.approx(138_170.0, abs=1.0)


def test_pair_past_the_cap_stands_on_the_cap(consts, monkeypatch):
    # the field of the pair lies 0.2 G past a 50 G cap: its root, clipped
    # onto the cap at the root's angle, is the fit the inverter reports (a
    # damped Gauss-Newton run along the cap reached 516 723 Hz from it),
    # and the root past the cap brings in the edge fits of the same call
    pair = _forward(50.2, 30.0, consts)
    cap = 50.0 * GAUSS
    invert_field(*pair, consts, b_max_t=cap)  # warm the grid cache
    calls = count_table_calls(monkeypatch)
    for sigma in (0.0, 1e5):
        calls.clear()
        res = invert_field(*pair, consts, b_max_t=cap, sigma_hz=sigma)
        assert len(calls) == 1
        assert res.b0_t == cap
        assert math.degrees(res.theta_rad) == pytest.approx(30.0, abs=0.01)
        assert 516_723.0 <= res.residual_hz <= 517_000.0


def test_invert_input_validation(consts):
    with pytest.raises(ValueError):
        invert_field(-70e6, 70e6, consts)
    with pytest.raises(ValueError):
        invert_field(70e6, 0.0, consts)
    with pytest.raises(ValueError):
        invert_field(70e6, 80e6, consts, b_max_t=0.0)
    with pytest.raises(ValueError):
        invert_field(70e6, 80e6, consts, sigma_hz=-1.0)
    # non-finite inputs are named before any search runs
    for kwargs in (
        {"nu1_hz": math.inf},
        {"nu2_hz": math.nan},
        {"sigma_hz": math.inf},
        {"b_max_t": math.inf},
    ):
        args = {"nu1_hz": 70e6, "nu2_hz": 80e6, "consts": consts, **kwargs}
        with pytest.raises(ValueError, match=f"{next(iter(kwargs))} must be finite"):
            invert_field(**args)


def test_result_invariants_enforced():
    with pytest.raises(ValueError):
        InversionResult(
            b0_t=1e-3, theta_rad=0.1, residual_hz=-1.0, degenerate=False, condition=1.0
        )
    with pytest.raises(ValueError):
        InversionResult(
            b0_t=1e-3, theta_rad=0.1, residual_hz=0.0, degenerate=True, condition=1.0
        )


def test_axial_invert_frozen_120_gauss(consts):
    res = axial_invert(NU1_120G, NU2_120G, consts)
    assert isinstance(res, AxialInversion)
    assert res.b0_t / GAUSS == pytest.approx(120.0, abs=1e-6)
    assert res.consistency_hz == pytest.approx(0.0, abs=1e-3)


def test_axial_invert_rejects_zero_field_pair(consts):
    with pytest.raises(AxialModelError) as err:
        axial_invert(70e6, 70e6, consts)
    assert err.value.consistency_hz == pytest.approx(4 * consts.d_hz, rel=1e-12)
    assert err.value.b0_t / GAUSS == pytest.approx(24.978, abs=1e-2)


def test_axial_invert_rejects_tilted_field(consts):
    nu1, nu2 = _forward(60.0, 20.0, consts)
    with pytest.raises(AxialModelError):
        axial_invert(nu1, nu2, consts)


def test_axial_invert_validation(consts):
    with pytest.raises(ValueError):
        axial_invert(200e6, 100e6, consts)
    with pytest.raises(ValueError):
        axial_invert(-1.0, 100e6, consts)
    for args, name in (
        ((math.inf, math.inf), "nu1_hz"),
        ((math.nan, 100e6), "nu1_hz"),
        ((100e6, math.inf), "nu2_hz"),
        ((100e6, math.nan), "nu2_hz"),
    ):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            axial_invert(*args, consts)


@pytest.mark.parametrize("b0_gauss", [40.0, 60.0, 100.0])
def test_axial_agrees_with_full_inverter(consts, b0_gauss):
    tp = closed_form_axial(b0_gauss * GAUSS, consts)
    full = invert_field(tp.nu1_hz, tp.nu2_hz, consts)
    axial = axial_invert(tp.nu1_hz, tp.nu2_hz, consts)
    assert abs(full.b0_t - axial.b0_t) / GAUSS < 0.05
