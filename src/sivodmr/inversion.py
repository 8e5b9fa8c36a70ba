"""Invert a measured resonance pair (nu1, nu2) back to the field (B0, theta).

The inverter works on labelled lines, not on the sorted pair: line A (the
lower bright state's line) and line B (the upper one's) cross near the
magic angle, and a measured pair cannot tell which of its lines is A.  So
both orderings, (nu1, nu2) and (nu2, nu1), are sought as (A, B).  The
labelled map has no fold at A = B; a mirror field that reproduces the
sorted pair is a solution of the other ordering.  Away from the angle
edges, a second parameter point can still reproduce the pair exactly.
The inverter therefore refines every candidate basin it can find and
reduces them in one pass: duplicates collapse to the lowest residual, one
floor rule keeps the solutions that reproduce the pair, the smallest B0
(then theta) among them is reported and the rest are its rivals.
Diagnostics: a local Jacobian condition estimate, a secant condition over
rival basins, the noise-mapped parameter sigmas of the fitting layer's
covariance rule, and a degenerate flag with the reason that raised it.

The candidates come from one mesh-containment rule: the cached coarse grid
of labelled lines is split into triangles, and every triangle whose (A, B)
image holds an ordering of the pair, within a padding of its barycentric
coordinates, seeds the linear preimage of that ordering.  An exact pair
tests only the B0 rows whose cached bounds hold it.  Only a pair that no
triangle holds starts from the best grid node, in its better ordering.

The candidates of one inversion, each with its own ordering, are refined
as one lock-step stack of the shared Gauss-Newton core, so each trial
costs one transition_table call (eigenvalues and tridiagonal cofactors,
no eigenvectors) for the whole stack; each candidate still follows the
path it would follow alone.  A row whose damping climbs past
_REFINE_MAX_DAMPING stops where it is: such rows sit on a jump of the
forward map (a flip of the pumped-pair line selection) that no step can
cross, and without the cap they held their whole stack for up to ~90
trials.

All quantities SI: Hz, tesla, radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fitting import _covariance_sigmas, _damped_gauss_newton
from .spin_model import PhysicalConstants, transition_table

DEFAULT_B_MAX_T = 0.02          # 200 G search cap
# perfbench/probe.py --grid reads GRID_N_B * GRID_N_THETA and waits for one
# transition_table call of that size, so the grid can go only after that
# probe has changed: without such a call every traced benchmark run fails.
GRID_N_B = 201                  # coarse-grid nodes in B0
GRID_N_THETA = 91               # coarse-grid nodes in theta
COND_THRESHOLD = 1e4            # condition above this marks a degenerate inversion
NO_SOLUTION_RMS_HZ = 1e6        # best residual above this means "unreachable"
NUMERIC_FLOOR_HZ = 1.0          # residuals below this are numerically "exact"
AXIAL_TOL_HZ = 2e6              # axial_invert's limit on |nu2 - nu1 - 4D|
RESOLUTION_B_T = 1e-5           # 0.1 G: instrument-scale field resolution
RESOLUTION_THETA_RAD = math.radians(0.5)  # instrument-scale angle resolution
_COND_CAP = 1e12
_DEDUPE_B_T = 2e-8              # refinement floor: closer solutions are one basin
_DEDUPE_THETA_RAD = 2e-5
_ZERO_FIELD_T = 1e-7            # below this B0 the Kramers pairs count as degenerate
_REFINE_MAX_ITER = 40           # Gauss-Newton iterations per candidate refinement
_REFINE_MAX_DAMPING = 1e3       # Marquardt lambda past which a refinement row gives up


class NoSolutionError(RuntimeError):
    """The frequency pair cannot be produced by any field within b_max."""

    def __init__(self, best_residual_hz: float):
        self.best_residual_hz = best_residual_hz
        super().__init__(
            f"no field reproduces the requested pair within the search domain "
            f"(best residual {best_residual_hz:.3e} Hz)"
        )


class AxialModelError(RuntimeError):
    """The pair is inconsistent with an axially aligned field."""

    def __init__(self, b0_t: float, consistency_hz: float, tol_hz: float):
        self.b0_t = b0_t
        self.consistency_hz = consistency_hz
        super().__init__(
            f"axial model violated: |nu2 - nu1 - 4D| = {consistency_hz:.3e} Hz "
            f"exceeds {tol_hz:.3e} Hz (field not aligned with the c-axis)"
        )


@dataclass(frozen=True)
class InversionResult:
    """Recovered field with misfit and identifiability diagnostics.

    degenerate is raised for any of: the two input lines agree within the
    fit sigma, the condition estimate (local or inter-basin secant) exceeds
    COND_THRESHOLD, B0 sits below the resolvable floor, or the noise maps
    to a parameter uncertainty beyond the resolution constants.  reason
    carries which trigger fired; n_compatible counts parameter points that
    reproduce the pair within the noise floor, and alt_b0_t/alt_theta_rad
    give the best rival when there is one.
    """

    b0_t: float
    theta_rad: float
    residual_hz: float
    degenerate: bool
    condition: float
    reason: str | None = None
    n_compatible: int = 1
    alt_b0_t: float | None = None
    alt_theta_rad: float | None = None

    def __post_init__(self) -> None:
        if self.residual_hz < 0:
            raise ValueError("residual_hz must be non-negative")
        if self.degenerate and self.reason is None:
            raise ValueError("a degenerate result must carry its reason")


@lru_cache(maxsize=8)
def _forward_grid(d_hz: float, g_factor: float, b_max_t: float):
    """The coarse grid's labelled lines and the affine maps of its triangles.

    Returns (g, tri, lo, hi).  g is the (2, GRID_N_B, GRID_N_THETA) array of
    the lines (A, B) at the nodes.  tri holds nine (2, GRID_N_B - 1,
    GRID_N_THETA - 1) rows over the triangles, lower ones first, then upper,
    each indexed by its cell (i, j).  Each cell splits along its
    anti-diagonal into a lower triangle, nodes (i, j), (i+1, j), (i, j+1),
    and an upper one, nodes (i+1, j+1), (i, j+1), (i+1, j).  The rows hold
    the (A, B) image of the first node, then the inverse of the 2x2 edge
    matrix, which maps (A, B) minus that image to the barycentric
    coordinates of the second and third nodes, then the norms that scale
    noise into each of the three coordinates.  A triangle whose image has
    no area (two nodes at B0 = 0) gets NaN rows and never matches.  lo and
    hi are (2, GRID_N_B - 1): per line and B0 row, the bounds of the images
    of the row's triangles padded by 0.5 in each barycentric coordinate.
    """
    consts = PhysicalConstants(d_hz=d_hz, g_factor=g_factor)
    b_nodes = np.linspace(0.0, b_max_t, GRID_N_B)
    th_nodes = np.linspace(0.0, math.pi / 2, GRID_N_THETA)
    bb, tt = np.meshgrid(b_nodes, th_nodes, indexing="ij")
    g = np.stack(transition_table(bb.ravel(), tt.ravel(), consts, labelled=True))
    g = g.reshape(2, *bb.shape)
    nodes = (
        (g[:, :-1, :-1], g[:, 1:, :-1], g[:, :-1, 1:]),  # lower triangles
        (g[:, 1:, 1:], g[:, :-1, 1:], g[:, 1:, :-1]),  # upper triangles
    )
    # nine rows over (lower/upper, i, j); the first node of each triangle and
    # its two edges are (line, lower/upper, i, j)
    tri = np.empty((9, 2, GRID_N_B - 1, GRID_N_THETA - 1))
    v0, e1, e2 = tri[:2], np.empty_like(tri[:2]), np.empty_like(tri[:2])
    for k, (p, q, r) in enumerate(nodes):
        v0[:, k] = p
        np.subtract(q, p, out=e1[:, k])
        np.subtract(r, p, out=e2[:, k])
    det = e1[0] * e2[1] - e2[0] * e1[1]
    # inverse of the edge matrix [e1 e2]: [[e2[1], -e2[0]], [-e1[1], e1[0]]] / det
    tri[2], tri[3], tri[4], tri[5] = e2[1], -e2[0], -e1[1], e1[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        tri[2:6] /= det
    tri[2:6, det == 0] = np.nan
    m11, m12, m21, m22 = tri[2:6]
    np.hypot(m11, m12, out=tri[6])
    np.hypot(m21, m22, out=tri[7])
    np.hypot(m11 + m21, m12 + m22, out=tri[8])
    # corner k of a triangle padded by 0.5 is 2.5 X_k - 0.5 (X_0 + X_1 + X_2)
    lo = np.full((2, GRID_N_B - 1), np.inf)
    hi = -lo
    for corners in nodes:
        half_sum = 0.5 * (corners[0] + corners[1] + corners[2])
        for x in corners:
            padded = 2.5 * x - half_sum
            np.minimum(lo, padded.min(axis=2), out=lo)
            np.maximum(hi, padded.max(axis=2), out=hi)
    return g, tri, lo, hi


def _mesh_seeds(tri, lo, hi, t1: float, t2: float, sigma_hz: float) -> list:
    """Linear preimages, in grid units, of every triangle whose image holds (t1, t2) as (A, B).

    Each barycentric coordinate may fall 0.5 below zero, and with noise a
    further 3 sigma mapped through the triangle's map, so that a pair just
    beyond a fold edge (theta = 0 or pi/2) still finds its cell.  An exact
    pair tests only the B0 rows from the first to the last whose bounds
    (lo, hi) hold it; a noisy pair, whose pads have no such bound, tests
    every row.  Preimages within a quarter cell of a kept one collapse into
    it.
    """
    start, stop = 0, GRID_N_B - 1
    if sigma_hz == 0:
        held = np.flatnonzero((lo[0] <= t1) & (t1 <= hi[0]) & (lo[1] <= t2) & (t2 <= hi[1]))
        if held.size == 0:
            return []
        start, stop = held[0], held[-1] + 1
    v1, v2, m11, m12, m21, m22, n1, n2, n3 = tri[:, :, start:stop]
    d1, d2 = t1 - v1, t2 - v2
    l1 = m11 * d1 + m12 * d2
    l2 = m21 * d1 + m22 * d2
    pads = (0.5, 0.5, 0.5)
    if sigma_hz > 0:
        pads = [0.5 + 3.0 * sigma_hz * n for n in (n1, n2, n3)]
    hit = (l1 >= -pads[0]) & (l2 >= -pads[1]) & (l1 + l2 <= 1.0 + pads[2])
    upper, i, j = np.nonzero(hit)
    i += start
    sign = 1 - 2 * upper
    seeds = []
    for u in zip((i + upper + sign * l1[hit]).tolist(), (j + upper + sign * l2[hit]).tolist()):
        for s in seeds:
            if abs(u[0] - s[0]) <= 0.25 and abs(u[1] - s[1]) <= 0.25:
                break
        else:
            seeds.append(u)
    return seeds


def _refine(starts, targets, consts, b_max_t):
    """Damped Gauss-Newton on the 2x2 systems of a (k, 2) stack of starts.

    Row k fits the labelled lines (A, B) to targets[k], one ordering of the
    measured pair.  The k refinements run in lock step, with one
    transition_table call per trial for all of them; each follows the
    trajectory it follows alone.  The Jacobian is Hellmann-Feynman.  Trial
    points are clipped into [0, b_max_t] x [0, pi/2]; steps are judged
    small against the instrument resolution.  Below _ZERO_FIELD_T, where
    the degenerate Kramers pairs leave Hellmann-Feynman undefined, the B0
    column is a forward difference and the theta column is zero; rounds
    holding such a row make a second table call for them.  On the angle
    edges theta = 0 and pi/2 the theta column is zero too.  A row whose
    lambda passes _REFINE_MAX_DAMPING exits unconverged at its last
    accepted point: a step that the local linear model cannot take after
    that much damping is a jump of the forward map, and further damping
    only made its stack wait on it.  Returns (b0, theta, rms residual,
    Jacobian) per start.

    A round is mostly fixed numpy overhead on stacks of 1-10 rows, so its
    common case, every row at or above _ZERO_FIELD_T, makes the one table
    call, writes its lines straight into the residual array and hands the
    table's Jacobian to the core as it is; the theta column is zeroed only
    when a row sits on an edge.  Every table call goes through the name
    transition_table of this module, where perfbench counts and times it.
    """
    hi = np.array([b_max_t, math.pi / 2])
    targets = np.asarray(targets, dtype=float)

    def project(p):
        return p.clip(0.0, hi)

    def fun(p, rows):
        r = np.empty((len(p), 2))
        low = p[:, 0] < _ZERO_FIELD_T
        if low.any():
            jac = np.zeros((len(p), 2, 2))
            high = ~low
            if high.any():
                r[high, 0], r[high, 1], jac[high] = transition_table(
                    p[high, 0], p[high, 1], consts, jacobian=True, labelled=True
                )
            b0, th = p[low, 0], p[low, 1]
            nu1, nu2 = transition_table(
                np.concatenate([b0, b0 + _ZERO_FIELD_T]), np.concatenate([th, th]), consts,
                labelled=True,
            )
            m = b0.size
            r[low, 0], r[low, 1] = nu1[:m], nu2[:m]
            jac[low, :, 0] = np.column_stack([nu1[m:] - nu1[:m], nu2[m:] - nu2[:m]]) / _ZERO_FIELD_T
        else:
            r[:, 0], r[:, 1], jac = transition_table(
                p[:, 0], p[:, 1], consts, jacobian=True, labelled=True
            )
        # the lines are even in theta about 0 and pi/2, so d(nu)/d(theta) is
        # zero there; Hellmann-Feynman gives rounding noise in its place
        edge = (p[:, 1] == 0.0) | (p[:, 1] == hi[1])
        if edge.any():
            jac[edge, :, 1] = 0.0
        r -= targets[rows]
        return r, jac

    p, _, jac, ssr, _, _ = _damped_gauss_newton(
        fun,
        project(np.asarray(starts, dtype=float)),
        np.array([RESOLUTION_B_T, RESOLUTION_THETA_RAD]),
        project,
        _REFINE_MAX_ITER,
        _REFINE_MAX_DAMPING,
    )
    return list(zip(p[:, 0], p[:, 1], np.sqrt(ssr / 2.0), jac))


def invert_field(
    nu1_hz: float,
    nu2_hz: float,
    consts: PhysicalConstants = PhysicalConstants(),
    b_max_t: float = DEFAULT_B_MAX_T,
    sigma_hz: float = 0.0,
) -> InversionResult:
    """Recover (B0, theta) from a resonance pair by mesh-seeded Gauss-Newton.

    Minimizes (nu1 - model1)^2 + (nu2 - model2)^2 over B0 in [0, b_max_t]
    and theta in [0, pi/2], with either ordering of the pair taken as the
    labelled lines (A, B): every triangle of a 201 x 91 coarse grid (cached
    per constants) whose image holds an ordering seeds a damped
    Gauss-Newton refinement at that ordering's linear preimage; among the
    solutions that reproduce the pair the smallest B0, then the smallest
    theta, is reported and the rest are its rivals.  sigma_hz is the 1-sigma
    frequency uncertainty of the inputs (e.g. the fitted line-center sigma)
    and drives the degeneracy diagnostics; rival parameter points that
    reproduce the pair within max(3 sigma, the numeric floor) are counted
    in n_compatible and flag the result as ambiguous.

    Raises NoSolutionError when no field in the domain comes within
    NO_SOLUTION_RMS_HZ of the requested pair (before any refinement when the
    larger line is beyond every line the domain holds), and ValueError for
    an argument that is not finite or out of range.
    """
    for name, value in (("nu1_hz", nu1_hz), ("nu2_hz", nu2_hz), ("sigma_hz", sigma_hz),
                        ("b_max_t", b_max_t)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (nu1_hz > 0 and nu2_hz > 0):
        raise ValueError("both frequencies must be positive")
    if not (b_max_t > 0):
        raise ValueError("b_max_t must be positive")
    if sigma_hz < 0:
        raise ValueError("sigma_hz must be non-negative")
    t1, t2 = sorted((float(nu1_hz), float(nu2_hz)))

    grid, tri, lo, hi = _forward_grid(consts.d_hz, consts.g_factor, b_max_t)
    # each grid node takes the better of the two orderings as (A, B)
    orderings = np.array([[t1, t2], [t2, t1]])
    # |E| <= ||H|| <= D + 3/2 gamma B0, so no line exceeds 2D + 3 gamma b_max;
    # past that by sqrt(2) NO_SOLUTION_RMS_HZ the larger line alone puts the
    # RMS residual out of reach.  The best node's RMS is taken as the larger
    # miss times a factor <= 1, which stays finite where squares overflow.
    top_hz = 2.0 * consts.d_hz + 3.0 * consts.gyro_hz_per_t * b_max_t
    if t2 - top_hz > math.sqrt(2.0) * NO_SOLUTION_RMS_HZ:
        miss = np.abs(grid - orderings[:, :, None, None])
        big = miss.max(axis=1)
        rms = big * np.sqrt(0.5 + 0.5 * (miss.min(axis=1) / big) ** 2)
        raise NoSolutionError(float(rms.min()))
    seeds, targets = [], []
    for pair in orderings:
        found = _mesh_seeds(tri, lo, hi, *pair, sigma_hz)
        seeds += found
        targets += [pair] * len(found)
    if not seeds:
        # no triangle holds the pair: refine from the best node, which
        # raises NoSolutionError below for a pair out of reach
        ssr = ((grid - orderings[:, :, None, None]) ** 2).sum(axis=1)
        k, i, j = np.unravel_index(np.argmin(ssr), ssr.shape)
        seeds, targets = [(i, j)], [orderings[k]]
    step = [b_max_t / (GRID_N_B - 1), math.pi / 2 / (GRID_N_THETA - 1)]
    solutions = _refine(np.array(seeds, dtype=float) * step, targets, consts, b_max_t)

    # one reduction: collapse duplicates (same basin reached twice) to the
    # lowest residual, keep what lies inside the floor (the best always
    # does), take the smallest B0, then smallest theta; the rest are rivals,
    # each farther from it than the dedupe tolerance
    solutions.sort(key=lambda s: (s[2], s[0], s[1]))
    distinct = []
    for s in solutions:
        if not any(
            abs(s[0] - d[0]) <= _DEDUPE_B_T and abs(s[1] - d[1]) <= _DEDUPE_THETA_RAD
            for d in distinct
        ):
            distinct.append(s)
    # the largest residual that still reproduces the pair: the noise floor,
    # the numeric floor or twice the best fit's residual (distinct[0])
    floor = max(3.0 * sigma_hz, NUMERIC_FLOOR_HZ, 2.0 * distinct[0][2])
    compatible = sorted((s for s in distinct if s[2] <= floor), key=lambda s: (s[0], s[1]))
    (b0, theta, rms, jac), rivals = compatible[0], compatible[1:]

    if rms > NO_SOLUTION_RMS_HZ:
        raise NoSolutionError(rms)

    svals = np.linalg.svd(jac @ np.diag([b_max_t, math.pi / 2]), compute_uv=False)
    if svals[-1] <= 0 or not np.all(np.isfinite(svals)):
        condition = _COND_CAP
    else:
        condition = float(min(svals[0] / svals[-1], _COND_CAP))
    alt = None
    if rivals:
        alt = max(rivals, key=lambda s: (abs(s[0] - b0) / b_max_t) ** 2 + (s[1] - theta) ** 2)
        param_dist = math.hypot((alt[0] - b0) / b_max_t * 2, (alt[1] - theta) / (math.pi / 2))
        data_dist = max(abs(alt[2] - rms), 1e-12)
        condition = float(min(max(condition, svals[0] * param_dist / data_dist), _COND_CAP))

    reason = None
    if (t2 - t1) <= sigma_hz:
        reason = "sigma-overlap"
    elif b0 <= max(RESOLUTION_B_T / 10.0, 2.0 * sigma_hz / consts.gyro_hz_per_t):
        reason = "zero-field"
    elif any(
        abs(s[0] - b0) > RESOLUTION_B_T or abs(s[1] - theta) > RESOLUTION_THETA_RAD
        for s in rivals
    ):
        reason = "ambiguous"
    elif rivals:
        reason = "split-basin"
    elif condition > COND_THRESHOLD:
        reason = "ill-conditioned"
    elif sigma_hz > 0 and np.any(
        # condition <= COND_THRESHOLD here, so no Jacobian column vanishes and
        # the column-scaled normal matrix is far from singular: cannot raise
        _covariance_sigmas(jac, sigma_hz, ("b0_t", "theta_rad"))
        > [RESOLUTION_B_T, RESOLUTION_THETA_RAD]
    ):
        reason = "unresolved"

    return InversionResult(
        b0_t=float(b0),
        theta_rad=float(theta),
        residual_hz=float(rms),
        degenerate=reason is not None,
        condition=float(condition),
        reason=reason,
        n_compatible=len(compatible),
        alt_b0_t=None if alt is None else float(alt[0]),
        alt_theta_rad=None if alt is None else float(alt[1]),
    )


@dataclass(frozen=True)
class AxialInversion:
    """Closed-form axial field estimate with its model-consistency residual."""

    b0_t: float
    consistency_hz: float


def axial_invert(
    nu1_hz: float,
    nu2_hz: float,
    consts: PhysicalConstants = PhysicalConstants(),
) -> AxialInversion:
    """Closed-form inversion assuming theta = 0: B0 = (nu1 + nu2) / (2 gamma).

    Valid above the level crossing (gamma B0 > 2D), where nu2 - nu1 = 4D;
    the reported consistency residual |nu2 - nu1 - 4D| measures how axial
    the field really is, and beyond AXIAL_TOL_HZ an AxialModelError is raised
    (e.g. the zero-field pair (2D, 2D) maps to gamma B0 = 2D but violates
    the 4D split by the full 4D).
    """
    for name, value in (("nu1_hz", nu1_hz), ("nu2_hz", nu2_hz)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not (nu2_hz >= nu1_hz):
        raise ValueError("require nu2_hz >= nu1_hz")
    if nu1_hz <= 0:
        raise ValueError("frequencies must be positive")
    b0 = (nu1_hz + nu2_hz) / (2.0 * consts.gyro_hz_per_t)
    consistency = abs((nu2_hz - nu1_hz) - 4.0 * consts.d_hz)
    if consistency > AXIAL_TOL_HZ:
        raise AxialModelError(b0, consistency, AXIAL_TOL_HZ)
    return AxialInversion(b0, consistency)
