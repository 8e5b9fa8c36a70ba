"""Invert a measured resonance pair (nu1, nu2) back to the field (B0, theta).

The inverter works on labelled lines, not on the sorted pair: line A (the
lower bright state's line) and line B (the upper one's) cross near the
magic angle, and a measured pair cannot tell which of its lines is A.  So
both orderings, (nu1, nu2) and (nu2, nu1), are sought as (A, B).  The
labelled map has no fold at A = B; a mirror field that reproduces the
sorted pair is a solution of the other ordering.  Away from the angle
edges, a second parameter point can still reproduce the pair exactly.
The inverter therefore collects every candidate field and reduces them in
one pass: duplicates collapse to the lowest residual, one floor rule keeps
the solutions that reproduce the pair, the smallest B0 (then theta) among
them is reported and the rest are its rivals.  Diagnostics: a local
Jacobian condition estimate, a secant condition over rival basins, the
noise-mapped parameter sigmas of the fitting layer's covariance rule, and
a degenerate flag with the reason that raised it.

The candidates are the roots of one quartic (_quartic_starts): H/h's
characteristic polynomial depends on the field only through (gamma B0)^2
and (gamma B0 cos(theta))^2, so every field whose levels hold the pair
comes from a real root, and the root's sign names the ordering.  A noisy
pair adds the two closed-form least-squares fits on the theta = 0 edge,
one on each side of the level crossing.  One transition_table call
(eigenvalues and tridiagonal cofactors, no eigenvectors) evaluates every
candidate with its analytic Jacobian, at B0 = 0 as elsewhere.  A
candidate within NUMERIC_FLOOR_HZ of the pair is a solution as it
stands, and so is an edge fit.  A placed root (real, and inside the
domain without clipping) that misses is dropped: its levels hold the
pair, but the line selection there pumps other lines.  Only the other
roots, the real part of a complex pair or a root clipped into the domain,
are refined, one at a time, by the shared Gauss-Newton core; for a noisy
pair a root clipped onto theta = 0 is not, because the edge fits cover
that edge.  An exact pair that some root reproduces has all its preimages
among the roots and refines nothing; one that no root reproduces refines
every root.

The quartic's roots are the eigenvalues of its 4 x 4 companion matrix,
the matrix numpy.roots builds, from one numpy.linalg.eigvals call; the
at most four roots and the at most six candidates are then handled as
Python floats.  The local condition estimate is the ratio of the
closed-form singular values of the 2 x 2 Jacobian with its columns scaled
to the domain (_scaled_condition).  One inversion works on about four
table rows, so its cost is fixed per-call overhead, not arithmetic.
Traced over perfbench's invert_survey mix (seed 2601, a 2-vCPU host), an
inversion made 1.0 table call on 4.3 rows and took a median 0.34 ms:
0.19 ms in the table call and 0.13 ms in the inverter's own code.

The coarse grid of labelled lines is still built, once per constants, at
the first inversion; it gives the finite best residual of a pair beyond
every line the domain holds.

All quantities SI: Hz, tesla, radians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .fitting import _covariance_sigmas, _damped_gauss_newton, _normal_equations
# every table call goes through this module's name transition_table,
# where perfbench counts and times it
from .spin_model import PhysicalConstants, transition_table

DEFAULT_B_MAX_T = 0.02          # 200 G search cap
# the coarse grid is built at the first inversion and serves only a pair
# beyond every line; perfbench/probe.py --grid reads GRID_N_B * GRID_N_THETA
# and waits for its one transition_table call of that size, so the grid can
# go only after that probe has changed: without such a call every traced
# benchmark run fails.
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
def _forward_grid(d_hz: float, g_factor: float, b_max_t: float) -> np.ndarray:
    """The (2, GRID_N_B, GRID_N_THETA) labelled lines (A, B) at the coarse grid's nodes."""
    consts = PhysicalConstants(d_hz=d_hz, g_factor=g_factor)
    b_nodes = np.linspace(0.0, b_max_t, GRID_N_B)
    th_nodes = np.linspace(0.0, math.pi / 2, GRID_N_THETA)
    bb, tt = np.meshgrid(b_nodes, th_nodes, indexing="ij")
    g = np.stack(transition_table(bb.ravel(), tt.ravel(), consts, labelled=True))
    return g.reshape(2, *bb.shape)


def _quartic_starts(t1: float, t2: float, consts: PhysicalConstants, b_max_t: float):
    """The fields whose four levels hold the lines (t1, t2), clipped into the domain.

    H/h's characteristic polynomial depends on the field only through
    u = (gamma B0 / D)^2 and v = (gamma B0 cos(theta) / D)^2.  In units of
    D, with a = t1/D and b = t2/D, both line layouts put the levels at
    s +/- a/2 and -s +/- b/2 for one unknown s; matching the polynomial's
    coefficients gives u and v from s and leaves one quartic in s.  Line
    A's level pair lies below line B's, so a root s < 0 makes t1 line A and
    a root s > 0 makes t1 line B.  A complex pair of roots contributes its
    real part once: noise or rounding near a double root splits a real pair
    into a complex one, whose real part still seeds the nearest minimum.
    Returns three lists of k entries: the starts (B0, theta), the targets
    (A, B) and whether each start is placed, a real root with 0 <= v <= u
    and B0 <= b_max_t, which the clip leaves where it is.
    """
    a2, b2 = (t1 / consts.d_hz) ** 2, (t2 / consts.d_hz) ** 2
    lead = 16.0 / 25.0
    coeffs = (
        0.0,
        -(17.0 * (a2 + b2) - 56.0) / 50.0,
        (a2 - b2) / 4.0,
        -(9.0 * a2 * a2 - 82.0 * a2 * b2 - 224.0 * a2 + 9.0 * b2 * b2 - 224.0 * b2 + 2816.0)
        / 1600.0,
    )
    # the companion matrix that numpy.roots builds, and its one eigvals
    # call, without numpy.roots' wrapping; unlike numpy.roots it keeps a
    # zero constant term, whose root 0 the eigensolver then finds
    companion = np.eye(4, k=-1)
    companion[0] = [-c / lead for c in coeffs]
    # each real part once, ascending, with whether its first root is real
    real = {}
    for root in np.linalg.eigvals(companion).tolist():
        real.setdefault(root.real, root.imag == 0.0)
    b0_scale = consts.d_hz / consts.gyro_hz_per_t
    b0s, cosines, targets, placed = [], [], [], []
    for s in sorted(real):
        u = (4.0 * s * s + (a2 + b2) / 2.0 - 4.0) / 5.0
        v = (u + s * (a2 - b2) / 4.0) / 3.0
        b0 = math.sqrt(max(u, 0.0)) * b0_scale
        b0s.append(min(b0, b_max_t))
        cosines.append(math.sqrt(min(max(v / u, 0.0), 1.0)) if u > 0.0 else 1.0)
        targets.append((t1, t2) if s < 0.0 else (t2, t1))
        placed.append(real[s] and 0.0 <= v <= u and b0 <= b_max_t)
    starts = list(zip(b0s, np.arccos(cosines).tolist()))
    return starts, targets, placed


def _scaled_condition(jac: np.ndarray, b_max_t: float) -> tuple[float, float]:
    """(s_max, condition) of the 2x2 Jacobian with its columns scaled to the domain.

    The singular values of [[p, q], [r, t]] are closed form:
    s_max = (hypot(p + t, r - q) + hypot(p - t, r + q)) / 2 and
    s_min = |pt - qr| / s_max, here with p and q divided by s_max first so
    that the determinant cannot overflow.  A singular or non-finite
    Jacobian reads _COND_CAP, and so does any condition beyond it.
    """
    (p, q), (r, t) = jac.tolist()
    p, q, r, t = p * b_max_t, q * (math.pi / 2), r * b_max_t, t * (math.pi / 2)
    s_max = (math.hypot(p + t, r - q) + math.hypot(p - t, r + q)) / 2.0
    if not (0.0 < s_max < math.inf):
        return s_max, _COND_CAP
    s_min = abs(p / s_max * t - q / s_max * r)
    if not s_min > 0.0:
        return s_max, _COND_CAP
    return s_max, min(s_max / s_min, _COND_CAP)


def _refine(start, target, consts: PhysicalConstants, b_max_t: float):
    """Damped Gauss-Newton from one start in the domain toward the lines target (A, B).

    Trial points are clipped into [0, b_max_t] x [0, pi/2], and steps are
    judged small against the instrument resolution.  Each round is one
    transition_table call with the analytic Jacobian, which holds at B0 = 0
    too.  Returns (b0, theta, rms residual, Jacobian).  The Jacobian is the
    value that the core hands back for its accepted point, so it is the
    one at the solution, not a rejected trial's.
    """
    hi = np.array([b_max_t, math.pi / 2])

    def project(p):
        return p.clip(0.0, hi)

    def fun(p):
        a, b, jac = transition_table(p[:1], p[1:], consts, jacobian=True, labelled=True)
        return *_normal_equations(np.concatenate([a, b]) - target, jac[0]), jac[0]

    p, jac, _, ssr, _, _ = _damped_gauss_newton(
        fun, start, np.array([RESOLUTION_B_T, RESOLUTION_THETA_RAD]), project
    )
    return p[0], p[1], math.sqrt(ssr / 2.0), jac


def invert_field(
    nu1_hz: float,
    nu2_hz: float,
    consts: PhysicalConstants = PhysicalConstants(),
    b_max_t: float = DEFAULT_B_MAX_T,
    sigma_hz: float = 0.0,
) -> InversionResult:
    """Recover (B0, theta) from a resonance pair from the roots of one quartic.

    Minimizes (nu1 - model1)^2 + (nu2 - model2)^2 over B0 in [0, b_max_t]
    and theta in [0, pi/2], with either ordering of the pair taken as the
    labelled lines (A, B).  The candidates are the quartic's roots and, for
    a noisy pair, the two theta = 0 edge fits: there A = |gamma B0 - 2D| and
    B = gamma B0 + 2D, so gamma B0 = (nu1 + nu2)/2 above the crossing and
    (nu2 - nu1)/2 below it.  One table call evaluates them all.  A candidate
    that reproduces the pair within NUMERIC_FLOOR_HZ, and every edge fit,
    is a solution as it stands; a placed root that misses is dropped; only
    the unplaced roots (a complex pair's real part, or a root clipped into
    the domain, except onto theta = 0 for a noisy pair) are refined by
    damped Gauss-Newton, one at a time.  An exact pair that no root
    reproduces refines every root.  Among the solutions that reproduce the
    pair the smallest B0, then the smallest theta, is reported and the rest
    are its rivals.  sigma_hz is the 1-sigma frequency uncertainty of the
    inputs (e.g. the fitted line-center sigma) and drives the degeneracy
    diagnostics; rival parameter points that reproduce the pair within
    max(3 sigma, the numeric floor), capped at NO_SOLUTION_RMS_HZ, are
    counted in n_compatible and flag the result as ambiguous.

    Raises NoSolutionError when the best solution misses the requested pair
    by more than NO_SOLUTION_RMS_HZ (before any candidate is evaluated when
    the larger line is beyond every line the domain holds), and ValueError
    for an argument that is not finite or out of range.
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

    grid = _forward_grid(consts.d_hz, consts.g_factor, b_max_t)
    # |E| <= ||H|| <= D + 3/2 gamma B0, so no line exceeds 2D + 3 gamma b_max;
    # past that by sqrt(2) NO_SOLUTION_RMS_HZ the larger line alone puts the
    # RMS residual out of reach.  The best node, in the better ordering of
    # the pair, gives the RMS as the larger miss times a factor <= 1, which
    # stays finite where squares overflow.
    top_hz = 2.0 * consts.d_hz + 3.0 * consts.gyro_hz_per_t * b_max_t
    if t2 - top_hz > math.sqrt(2.0) * NO_SOLUTION_RMS_HZ:
        miss = np.abs(grid - np.array([[t1, t2], [t2, t1]])[:, :, None, None])
        big = miss.max(axis=1)
        rms = big * np.sqrt(0.5 + 0.5 * (miss.min(axis=1) / big) ** 2)
        raise NoSolutionError(float(rms.min()))
    starts, targets, placed = _quartic_starts(t1, t2, consts, b_max_t)
    n_roots = len(starts)
    if sigma_hz > 0:
        # a noisy pair near theta = 0 can have its best fit on that edge,
        # where no root lies.  There A = |gamma B0 - 2D| and B = gamma B0 + 2D,
        # so the least-squares fit is closed form on each side of the crossing
        for gamma_b0 in ((t1 + t2) / 2.0, (t2 - t1) / 2.0):
            starts.append((min(gamma_b0 / consts.gyro_hz_per_t, b_max_t), 0.0))
            targets.append((t1, t2))
    # one table call evaluates every candidate
    b0s, thetas = zip(*starts)
    a, b, jac = transition_table(b0s, thetas, consts, jacobian=True, labelled=True)
    rms = []
    for x, y, (ta, tb) in zip(a.tolist(), b.tolist(), targets):
        x, y = x - ta, y - tb
        rms.append(math.sqrt((x * x + y * y) / 2.0))
    exact = [e <= NUMERIC_FLOOR_HZ for e in rms]
    # a candidate that reproduces the pair is a solution as it stands, and
    # so are the edge fits.  A placed root that misses is dropped: its levels
    # hold the pair, but the pumped pair there is other lines, which no step
    # reaches.  An exact pair that some root reproduces has all its
    # preimages among the roots; one that none reproduces refines them all
    if sigma_hz == 0:
        refine = range(0 if any(exact) else n_roots)
    else:
        # the edge fits cover a root clipped onto theta = 0
        refine = [i for i in range(n_roots)
                  if not (placed[i] or exact[i] or starts[i][1] == 0.0)]
    solutions = [(*starts[i], rms[i], jac[i]) for i in range(len(starts))
                 if exact[i] or i >= n_roots]
    solutions += [_refine(starts[i], targets[i], consts, b_max_t) for i in refine]

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
    # the numeric floor or twice the best fit's residual (distinct[0]), but
    # never beyond NO_SOLUTION_RMS_HZ
    best = distinct[0][2]
    if best > NO_SOLUTION_RMS_HZ:
        raise NoSolutionError(best)
    floor = min(max(3.0 * sigma_hz, NUMERIC_FLOOR_HZ, 2.0 * best), NO_SOLUTION_RMS_HZ)
    compatible = sorted((s for s in distinct if s[2] <= floor), key=lambda s: (s[0], s[1]))
    (b0, theta, rms, jac), rivals = compatible[0], compatible[1:]

    s_max, condition = _scaled_condition(jac, b_max_t)
    alt = None
    if rivals:
        alt = max(rivals, key=lambda s: (abs(s[0] - b0) / b_max_t) ** 2 + (s[1] - theta) ** 2)
        param_dist = math.hypot((alt[0] - b0) / b_max_t * 2, (alt[1] - theta) / (math.pi / 2))
        data_dist = max(abs(alt[2] - rms), 1e-12)
        condition = float(min(max(condition, s_max * param_dist / data_dist), _COND_CAP))

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
        _covariance_sigmas(jac.T @ jac, sigma_hz, ("b0_t", "theta_rad"))
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
