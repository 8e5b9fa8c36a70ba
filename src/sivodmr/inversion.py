"""Invert a measured resonance pair (nu1, nu2) back to the field (B0, theta).

The forward map from (B0, theta) to the sorted frequency pair folds across
the angle that minimizes |nu2 - nu1| at fixed field: away from that fold a
second, mirror-image parameter point generally reproduces the same pair
exactly.  The inverter therefore refines every candidate basin it can find
and reduces them in one pass: duplicates collapse to the lowest residual,
one floor rule keeps the solutions that reproduce the pair, the smallest
B0 (then theta) among them is reported and the rest are its rivals.
Diagnostics: a local Jacobian condition estimate, a secant condition over
rival basins, the noise-mapped parameter sigmas of the fitting layer's
covariance rule, and a degenerate flag with the reason that raised it.

The candidates come from one mesh-containment rule: the cached coarse grid
is split into triangles, and every triangle whose (nu1, nu2) image holds
the pair, within a padding of its barycentric coordinates, seeds the linear
preimage of the pair.  Only a pair that no triangle holds starts from the
best grid node.  The sorted pair also folds along nu1 = nu2 inside a single
cell, which no linear triangle unfolds, so a reflection probe across the
local gap-minimizing angle adds the mirror seeds.

The candidates of one inversion are refined as one lock-step stack of the
shared Gauss-Newton core, and the mirror probes as a second, so each trial
costs one transition_table call (real, unphased eigenvectors) for the whole
stack; each candidate still follows the path it would follow alone.
A row whose damping climbs past _REFINE_MAX_DAMPING stops where it is:
such rows sit on a jump of the forward map (a flip of the pumped-pair
line selection) that no step can cross, and without the cap they held
their whole stack for up to ~90 trials.

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
GRID_N_B = 201                  # coarse-grid nodes in B0
GRID_N_THETA = 91               # coarse-grid nodes in theta
COND_THRESHOLD = 1e4            # condition above this marks a degenerate inversion
NO_SOLUTION_RMS_HZ = 1e6        # best residual above this means "unreachable"
NUMERIC_FLOOR_HZ = 1.0          # residuals below this are numerically "exact"
RESOLUTION_B_T = 1e-5           # 0.1 G: instrument-scale field resolution
RESOLUTION_THETA_RAD = math.radians(0.5)  # instrument-scale angle resolution
_PROBE_GAP_HZ = 5e6             # probe the mirror basin when the lines are this close
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
    """The coarse grid's lines and the affine maps of its triangles.

    Returns the (2, GRID_N_B, GRID_N_THETA) array of (nu1, nu2) at the
    nodes and tri, six contiguous rows over the triangles.  Each cell splits
    along its anti-diagonal into a lower triangle, nodes (i, j), (i+1, j),
    (i, j+1), and an upper one, nodes (i+1, j+1), (i, j+1), (i+1, j); the
    upper ones follow the lower ones.  The rows hold the (nu1, nu2) image of
    the first node, then the inverse of the 2x2 edge matrix, which maps nu
    minus that image to the barycentric coordinates of the second and third
    nodes.  A triangle whose image has no area (two nodes at B0 = 0) gets
    NaN rows and never matches.
    """
    consts = PhysicalConstants(d_hz=d_hz, g_factor=g_factor)
    b_nodes = np.linspace(0.0, b_max_t, GRID_N_B)
    th_nodes = np.linspace(0.0, math.pi / 2, GRID_N_THETA)
    bb, tt = np.meshgrid(b_nodes, th_nodes, indexing="ij")
    g = np.stack(transition_table(bb.ravel(), tt.ravel(), consts)).reshape(2, *bb.shape)
    # (line, lower/upper, i, j): the first node of each triangle, then its two edges
    v0 = np.stack([g[:, :-1, :-1], g[:, 1:, 1:]], axis=1)
    e1 = np.stack([g[:, 1:, :-1], g[:, :-1, 1:]], axis=1) - v0
    e2 = np.stack([g[:, :-1, 1:], g[:, 1:, :-1]], axis=1) - v0
    det = e1[0] * e2[1] - e2[0] * e1[1]
    # inverse of the edge matrix [e1 e2]: [[e2[1], -e2[0]], [-e1[1], e1[0]]] / det
    tri = np.concatenate([v0, e2[1:], -e2[:1], -e1[1:], e1[:1]])
    with np.errstate(divide="ignore", invalid="ignore"):
        tri[2:] /= det
    tri[2:, det == 0] = np.nan
    return g, tri.reshape(6, -1)


def _mesh_seeds(tri: np.ndarray, t1: float, t2: float, sigma_hz: float) -> list:
    """Linear preimages, in grid units, of every triangle whose image holds the pair.

    Each barycentric coordinate may fall 0.5 below zero, and with noise a
    further 3 sigma mapped through the triangle's map, so that a pair just
    beyond a fold edge (theta = 0 or pi/2) still finds its cell.  Preimages
    within a quarter cell of a kept one collapse into it.
    """
    v1, v2, m11, m12, m21, m22 = tri
    d1, d2 = t1 - v1, t2 - v2
    l1 = m11 * d1 + m12 * d2
    l2 = m21 * d1 + m22 * d2
    pads = (0.5, 0.5, 0.5)
    if sigma_hz > 0:
        pads = [0.5 + 3.0 * sigma_hz * np.hypot(a, b)
                for a, b in ((m11, m12), (m21, m22), (m11 + m21, m12 + m22))]
    hit = np.flatnonzero((l1 >= -pads[0]) & (l2 >= -pads[1]) & (l1 + l2 <= 1.0 + pads[2]))
    upper, i, j = np.unravel_index(hit, (2, GRID_N_B - 1, GRID_N_THETA - 1))
    sign = 1 - 2 * upper
    seeds = []
    for u in zip((i + upper + sign * l1[hit]).tolist(), (j + upper + sign * l2[hit]).tolist()):
        if all(max(abs(u[0] - s[0]), abs(u[1] - s[1])) > 0.25 for s in seeds):
            seeds.append(u)
    return seeds


def _refine(starts, t1, t2, consts, b_max_t):
    """Damped Gauss-Newton on the 2x2 systems of a (k, 2) stack of starts.

    The k refinements run in lock step, with one transition_table call per
    trial for all of them; each follows the trajectory it follows alone.
    The Jacobian is Hellmann-Feynman.  Trial points are clipped into
    [0, b_max_t] x [0, pi/2]; steps are judged small against the instrument
    resolution.  Below _ZERO_FIELD_T, where the degenerate Kramers pairs
    leave Hellmann-Feynman undefined, the B0 column is a forward difference
    and the theta column is zero; rounds holding such a row make a second
    table call for them.  On the angle edges theta = 0 and pi/2 the theta
    column is zero too.  A row whose lambda passes _REFINE_MAX_DAMPING exits
    unconverged at its last accepted point: a step that the local linear
    model cannot take after that much damping is a jump of the forward map,
    and further damping only made its stack wait on it.  Returns (b0,
    theta, rms residual, Jacobian) per start.
    """
    hi = np.array([b_max_t, math.pi / 2])

    def project(p):
        return np.clip(p, 0.0, hi)

    def fun(p):
        nu = np.empty((len(p), 2))
        jac = np.zeros((len(p), 2, 2))
        low = p[:, 0] < _ZERO_FIELD_T
        high = ~low
        if high.any():
            nu1, nu2, jac[high] = transition_table(p[high, 0], p[high, 1], consts, jacobian=True)
            nu[high] = np.column_stack([nu1, nu2])
        if low.any():
            b0, th = p[low, 0], p[low, 1]
            nu1, nu2 = transition_table(
                np.concatenate([b0, b0 + _ZERO_FIELD_T]), np.concatenate([th, th]), consts
            )
            m = b0.size
            nu[low] = np.column_stack([nu1[:m], nu2[:m]])
            jac[low, :, 0] = np.column_stack([nu1[m:] - nu1[:m], nu2[m:] - nu2[:m]]) / _ZERO_FIELD_T
        # the lines are even in theta about 0 and pi/2, so d(nu)/d(theta) is
        # zero there; Hellmann-Feynman gives rounding noise in its place
        jac[(p[:, 1] == 0.0) | (p[:, 1] == hi[1]), :, 1] = 0.0
        return nu - [t1, t2], jac

    p, _, jac, ssr, _, _, _ = _damped_gauss_newton(
        fun,
        project(np.asarray(starts, dtype=float)),
        np.array([RESOLUTION_B_T, RESOLUTION_THETA_RAD]),
        project,
        _REFINE_MAX_ITER,
        _REFINE_MAX_DAMPING,
    )
    return list(zip(p[:, 0], p[:, 1], np.sqrt(ssr / 2.0), jac))


def _fit_floor(solutions, sigma_hz: float) -> float:
    """Largest residual that still reproduces the pair (noise, numeric or best-fit floor)."""
    return max(3.0 * sigma_hz, NUMERIC_FLOOR_HZ, 2.0 * min(s[2] for s in solutions))


def _gap_minimizing_theta(b0_t: np.ndarray, theta0: np.ndarray, consts) -> np.ndarray:
    """Angles minimizing |nu2 - nu1| at fixed field, searched near theta0.

    Matched arrays of seeds, one table call per stage for all of them.
    Two grid stages: the fold can separate rival basins by well under the
    coarse spacing, so the apex must be located to ~1e-4 rad.
    """
    center, half, n = theta0, 0.12, 97
    for _ in range(2):
        th = np.clip(np.linspace(center - half, center + half, n, axis=-1), 0.0, math.pi / 2)
        nu1, nu2 = transition_table(np.repeat(b0_t, n), th.ravel(), consts)
        center = th[np.arange(th.shape[0]), np.argmin((nu2 - nu1).reshape(th.shape), axis=1)]
        half, n = 1.5 * (2.0 * half / (n - 1)), 61
    return center


def invert_field(
    nu1_hz: float,
    nu2_hz: float,
    consts: PhysicalConstants = PhysicalConstants(),
    b_max_t: float = DEFAULT_B_MAX_T,
    sigma_hz: float = 0.0,
) -> InversionResult:
    """Recover (B0, theta) from a resonance pair by mesh-seeded Gauss-Newton.

    Minimizes (nu1 - model1)^2 + (nu2 - model2)^2 over B0 in [0, b_max_t]
    and theta in [0, pi/2]: every triangle of a 201 x 91 coarse grid
    (cached per constants) whose image holds the pair seeds a damped
    Gauss-Newton refinement at the pair's linear preimage; among the
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

    grid, tri = _forward_grid(consts.d_hz, consts.g_factor, b_max_t)
    # |E| <= ||H|| <= D + 3/2 gamma B0, so no line exceeds 2D + 3 gamma b_max;
    # past that by sqrt(2) NO_SOLUTION_RMS_HZ the larger line alone puts the
    # RMS residual out of reach.  The best node's RMS is taken as the larger
    # miss times a factor <= 1, which stays finite where squares overflow.
    top_hz = 2.0 * consts.d_hz + 3.0 * consts.gyro_hz_per_t * b_max_t
    if t2 - top_hz > math.sqrt(2.0) * NO_SOLUTION_RMS_HZ:
        miss = np.abs([grid[0] - t1, grid[1] - t2])
        hi = miss.max(axis=0)
        rms = hi * np.sqrt(0.5 + 0.5 * (miss.min(axis=0) / hi) ** 2)
        raise NoSolutionError(float(rms.min()))
    seeds = _mesh_seeds(tri, t1, t2, sigma_hz)
    if not seeds:
        # no triangle holds the pair: refine from the best node, which
        # raises NoSolutionError below for a pair out of reach
        ssr = (grid[0] - t1) ** 2 + (grid[1] - t2) ** 2
        seeds = [np.unravel_index(np.argmin(ssr), ssr.shape)]
    step = [b_max_t / (GRID_N_B - 1), math.pi / 2 / (GRID_N_THETA - 1)]
    solutions = _refine(np.array(seeds, dtype=float) * step, t1, t2, consts, b_max_t)

    # near the gap fold two basins can sit closer than the coarse grid can
    # separate: probe the mirror image across the local gap-minimizing angle
    if (t2 - t1) <= max(_PROBE_GAP_HZ, 5.0 * sigma_hz):
        floor = _fit_floor(solutions, sigma_hz)
        seeds = np.array([s[:2] for s in solutions if s[2] <= floor])
        b0, th0 = seeds[:, 0], seeds[:, 1]
        mirror = 2.0 * _gap_minimizing_theta(b0, th0, consts) - th0
        solutions += _refine(np.column_stack([b0, mirror]), t1, t2, consts, b_max_t)

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
    floor = _fit_floor(distinct, sigma_hz)
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
    tol_hz: float = 2e6,
) -> AxialInversion:
    """Closed-form inversion assuming theta = 0: B0 = (nu1 + nu2) / (2 gamma).

    Valid above the level crossing (gamma B0 > 2D), where nu2 - nu1 = 4D;
    the reported consistency residual |nu2 - nu1 - 4D| measures how axial
    the field really is, and beyond tol_hz an AxialModelError is raised
    (e.g. the zero-field pair (2D, 2D) maps to gamma B0 = 2D but violates
    the 4D split by the full 4D).
    """
    if not (nu2_hz >= nu1_hz):
        raise ValueError("require nu2_hz >= nu1_hz")
    if nu1_hz <= 0:
        raise ValueError("frequencies must be positive")
    b0 = (nu1_hz + nu2_hz) / (2.0 * consts.gyro_hz_per_t)
    consistency = abs((nu2_hz - nu1_hz) - 4.0 * consts.d_hz)
    if consistency > tol_hz:
        raise AxialModelError(b0, consistency, tol_hz)
    return AxialInversion(b0, consistency)
