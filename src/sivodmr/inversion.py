"""Invert a measured resonance pair (nu1, nu2) back to the field (B0, theta).

The forward map from (B0, theta) to the sorted frequency pair folds across
the angle that minimizes |nu2 - nu1| at fixed field: away from that fold a
second, mirror-image parameter point generally reproduces the same pair
exactly.  The inverter therefore refines every candidate basin it can find
(coarse-grid local minima plus a reflection probe across the local
gap-minimizing angle), reduces deterministically (lowest residual, ties to
smaller B0 then smaller theta), and reports honest diagnostics: a local
Jacobian condition estimate, a secant condition over rival basins, and a
degenerate flag with the reason that raised it.

All quantities SI: Hz, tesla, radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fitting import _damped_gauss_newton
from .spin_model import PhysicalConstants, transition_table

DEFAULT_B_MAX_T = 0.02          # 200 G search cap
GRID_N_B = 201                  # coarse-grid nodes in B0
GRID_N_THETA = 91               # coarse-grid nodes in theta
COND_THRESHOLD = 1e4            # condition above this marks a degenerate inversion
NO_SOLUTION_RMS_HZ = 1e6        # best residual above this means "unreachable"
NUMERIC_FLOOR_HZ = 1.0          # residuals below this are numerically "exact"
RESOLUTION_B_T = 1e-5           # 0.1 G: instrument-scale field resolution
RESOLUTION_THETA_RAD = math.radians(0.5)  # instrument-scale angle resolution
_MAX_CANDIDATES = 8
_PROBE_GAP_HZ = 5e6             # probe the mirror basin when the lines are this close
_COND_CAP = 1e12
_DEDUPE_B_T = 2e-8              # refinement floor: closer solutions are one basin
_DEDUPE_THETA_RAD = 2e-5
_ZERO_FIELD_T = 1e-7            # below this B0 the Kramers pairs count as degenerate


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
    consts = PhysicalConstants(d_hz=d_hz, g_factor=g_factor)
    b_nodes = np.linspace(0.0, b_max_t, GRID_N_B)
    th_nodes = np.linspace(0.0, math.pi / 2, GRID_N_THETA)
    bb, tt = np.meshgrid(b_nodes, th_nodes, indexing="ij")
    nu1, nu2 = transition_table(bb.ravel(), tt.ravel(), consts)
    shape = (GRID_N_B, GRID_N_THETA)
    return b_nodes, th_nodes, nu1.reshape(shape), nu2.reshape(shape)


def _local_minima(surface: np.ndarray) -> np.ndarray:
    """Indices of 8-neighborhood local minima (plateau edges included)."""
    padded = np.pad(surface, 1, constant_values=np.inf)
    center = padded[1:-1, 1:-1]
    is_min = np.ones_like(center, dtype=bool)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            is_min &= center <= padded[1 + di : 1 + di + center.shape[0],
                                       1 + dj : 1 + dj + center.shape[1]]
    return np.argwhere(is_min)


def _rms(nu1, nu2, t1, t2) -> np.ndarray:
    return np.sqrt(((nu1 - t1) ** 2 + (nu2 - t2) ** 2) / 2.0)


def _refine(b0, theta, t1, t2, consts, b_max_t, max_iter=40):
    """Damped Gauss-Newton on the 2x2 system with the Hellmann-Feynman Jacobian.

    Trial points are clipped into [0, b_max_t] x [0, pi/2]; steps are judged
    small against the instrument resolution.  Below _ZERO_FIELD_T, where the
    degenerate Kramers pairs leave Hellmann-Feynman undefined, the B0 column
    is a forward difference and the theta column is zero.
    """
    hi = np.array([b_max_t, math.pi / 2])

    def project(p):
        return np.clip(p, 0.0, hi)

    def fun(p):
        if p[0] >= _ZERO_FIELD_T:
            nu1, nu2, jac = transition_table(p[:1], p[1:], consts, jacobian=True)
            return np.array([nu1[0] - t1, nu2[0] - t2]), jac[0]
        b0 = p[0] + np.array([0.0, _ZERO_FIELD_T])
        nu1, nu2 = transition_table(b0, np.full(2, p[1]), consts)
        jac = np.array([[nu1[1] - nu1[0], 0.0], [nu2[1] - nu2[0], 0.0]]) / _ZERO_FIELD_T
        return np.array([nu1[0] - t1, nu2[0] - t2]), jac

    p, _, jac, ssr, _, _, _ = _damped_gauss_newton(
        fun,
        project(np.array([b0, theta], dtype=float)),
        np.array([RESOLUTION_B_T, RESOLUTION_THETA_RAD]),
        project,
        max_iter,
    )
    return p, math.sqrt(ssr / 2.0), jac


def _scaled_condition(jac: np.ndarray, b_max_t: float) -> float:
    scaled = jac @ np.diag([b_max_t, math.pi / 2])
    svals = np.linalg.svd(scaled, compute_uv=False)
    if svals[-1] <= 0 or not np.all(np.isfinite(svals)):
        return _COND_CAP
    return float(min(svals[0] / svals[-1], _COND_CAP))


def _gap_minimizing_theta(b0_t: float, theta0: float, consts) -> float:
    """Angle minimizing |nu2 - nu1| at fixed field, searched near theta0.

    Two grid stages: the fold can separate rival basins by well under the
    coarse spacing, so the apex must be located to ~1e-4 rad.
    """
    center, half, n = theta0, 0.12, 97
    for _ in range(2):
        th = np.clip(np.linspace(center - half, center + half, n), 0.0, math.pi / 2)
        nu1, nu2 = transition_table(np.full_like(th, b0_t), th, consts)
        center = float(th[int(np.argmin(nu2 - nu1))])
        half, n = 1.5 * (2.0 * half / (n - 1)), 61
    return center


def invert_field(
    nu1_hz: float,
    nu2_hz: float,
    consts: PhysicalConstants = PhysicalConstants(),
    b_max_t: float = DEFAULT_B_MAX_T,
    sigma_hz: float = 0.0,
) -> InversionResult:
    """Recover (B0, theta) from a resonance pair by grid-seeded Gauss-Newton.

    Minimizes (nu1 - model1)^2 + (nu2 - model2)^2 over B0 in [0, b_max_t]
    and theta in [0, pi/2]: a 201 x 91 coarse grid (cached per constants)
    seeds damped Gauss-Newton refinements of every candidate basin; the
    reported solution is the deterministic argmin (lowest residual, ties
    broken to smaller B0, then smaller theta).  sigma_hz is the 1-sigma
    frequency uncertainty of the inputs (e.g. the fitted line-center sigma)
    and drives the degeneracy diagnostics; rival parameter points that
    reproduce the pair within max(3 sigma, the numeric floor) are counted
    in n_compatible and flag the result as ambiguous.

    Raises NoSolutionError when no field in the domain comes within
    NO_SOLUTION_RMS_HZ of the requested pair.
    """
    if not (nu1_hz > 0 and nu2_hz > 0):
        raise ValueError("both frequencies must be positive")
    if not (b_max_t > 0):
        raise ValueError("b_max_t must be positive")
    if sigma_hz < 0:
        raise ValueError("sigma_hz must be non-negative")
    t1, t2 = sorted((float(nu1_hz), float(nu2_hz)))

    b_nodes, th_nodes, g1, g2 = _forward_grid(consts.d_hz, consts.g_factor, b_max_t)
    surface = _rms(g1, g2, t1, t2)

    minima = _local_minima(surface)
    order = np.argsort(surface[minima[:, 0], minima[:, 1]], kind="stable")
    candidates: list[tuple[int, int]] = []
    for k in order:
        i, j = int(minima[k, 0]), int(minima[k, 1])
        if any(abs(i - i0) <= 2 and abs(j - j0) <= 2 for i0, j0 in candidates):
            continue
        candidates.append((i, j))
        if len(candidates) >= _MAX_CANDIDATES:
            break

    solutions = []
    for i, j in candidates:
        if surface[i, j] > max(10 * NO_SOLUTION_RMS_HZ, 20 * surface.min()):
            continue
        p, rms, jac = _refine(b_nodes[i], th_nodes[j], t1, t2, consts, b_max_t)
        solutions.append((p[0], p[1], rms, jac))
    if not solutions:
        p, rms, jac = _refine(
            b_nodes[GRID_N_B // 2], th_nodes[GRID_N_THETA // 2], t1, t2, consts, b_max_t
        )
        solutions.append((p[0], p[1], rms, jac))

    # near the gap fold two basins can sit closer than the coarse grid can
    # separate: probe the mirror image across the local gap-minimizing angle
    best_rms = min(s[2] for s in solutions)
    fit_floor = max(3.0 * sigma_hz, NUMERIC_FLOOR_HZ, 2.0 * best_rms)
    if (t2 - t1) <= max(_PROBE_GAP_HZ, 5.0 * sigma_hz):
        seeds = [s for s in solutions if s[2] <= fit_floor] or solutions[:1]
        for b0, th0, _, _ in list(seeds):
            th_star = _gap_minimizing_theta(b0, th0, consts)
            mirror = 2.0 * th_star - th0
            p, rms, jac = _refine(b0, mirror, t1, t2, consts, b_max_t)
            solutions.append((p[0], p[1], rms, jac))

    # collapse duplicates (same basin reached twice): keep the lowest residual
    solutions.sort(key=lambda s: (s[2], s[0], s[1]))
    distinct = []
    for s in solutions:
        if any(
            abs(s[0] - d[0]) <= _DEDUPE_B_T and abs(s[1] - d[1]) <= _DEDUPE_THETA_RAD
            for d in distinct
        ):
            continue
        distinct.append(s)

    best_rms = distinct[0][2]
    fit_floor = max(3.0 * sigma_hz, NUMERIC_FLOOR_HZ, 2.0 * best_rms)
    compatible = [s for s in distinct if s[2] <= fit_floor]
    if not compatible:
        compatible = [distinct[0]]
    # deterministic reduction: lowest residual with ties (anything inside the
    # floor) broken to smaller B0, then smaller theta
    compatible.sort(key=lambda s: (s[0], s[1]))
    b0, theta, rms, jac = compatible[0]

    if rms > NO_SOLUTION_RMS_HZ:
        raise NoSolutionError(rms)

    condition = _scaled_condition(jac, b_max_t)
    rivals = [
        s
        for s in compatible[1:]
        if abs(s[0] - b0) > _DEDUPE_B_T or abs(s[1] - theta) > _DEDUPE_THETA_RAD
    ]
    alt = None
    if rivals:
        alt = max(rivals, key=lambda s: (abs(s[0] - b0) / b_max_t) ** 2 + (s[1] - theta) ** 2)
        param_dist = math.hypot((alt[0] - b0) / b_max_t * 2, (alt[1] - theta) / (math.pi / 2))
        data_dist = max(abs(alt[2] - rms), 1e-12)
        scaled = jac @ np.diag([b_max_t, math.pi / 2])
        smax = float(np.linalg.svd(scaled, compute_uv=False)[0])
        condition = float(min(max(condition, smax * param_dist / data_dist), _COND_CAP))

    sigma_b = sigma_theta = 0.0
    if sigma_hz > 0:
        scaled_j = jac
        try:
            cov = np.linalg.inv(scaled_j.T @ scaled_j) * sigma_hz**2
            sigma_b = math.sqrt(max(cov[0, 0], 0.0))
            sigma_theta = math.sqrt(max(cov[1, 1], 0.0))
        except np.linalg.LinAlgError:
            sigma_b = sigma_theta = math.inf

    reason = None
    if (t2 - t1) <= sigma_hz:
        reason = "sigma-overlap"
    elif b0 <= max(RESOLUTION_B_T / 10.0, 2.0 * sigma_hz / consts.gyro_hz_per_t):
        reason = "zero-field"
    elif rivals and any(
        abs(s[0] - b0) > RESOLUTION_B_T or abs(s[1] - theta) > RESOLUTION_THETA_RAD
        for s in rivals
    ):
        reason = "ambiguous"
    elif rivals:
        reason = "split-basin"
    elif condition > COND_THRESHOLD:
        reason = "ill-conditioned"
    elif sigma_b > RESOLUTION_B_T or sigma_theta > RESOLUTION_THETA_RAD:
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


def angle_sweep(b0_t: float, theta_rad, consts: PhysicalConstants = PhysicalConstants()):
    """Forward table (theta, nu1, nu2) at fixed field magnitude."""
    if not (b0_t > 0):
        raise ValueError("b0_t must be positive")
    theta = np.asarray(theta_rad, dtype=float).ravel()
    nu1, nu2 = transition_table(np.full_like(theta, b0_t), theta, consts)
    return theta, nu1, nu2
