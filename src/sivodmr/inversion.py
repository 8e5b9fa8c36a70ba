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
comes from a real root, and the root's sign names the ordering.  Edge fits
join them where the roots leave an angle edge uncovered: least-squares
fits of the pair along theta = 0 or theta = pi/2, in Python floats, with
no table call.  On theta = 0, A = |gamma B0 - 2D| and B = gamma B0 + 2D,
so the fit is closed form on each side of the level crossing.  On
theta = pi/2, H/h splits into two 2 x 2 blocks: with x = gamma B0 and
R1,2 = sqrt(D^2 -/+ D x + x^2), A = 2 R2 and B = 2 R1 below x = 2D, and
A = x + R2 - R1 and B = x - R2 + R1 above it (_half_pi_lines); a
safeguarded 1-D Newton fit of each ordering on each side, bracketed on
fixed nodes, finds the lowest misfit there (_half_pi_fits).  A noisy pair
takes the two theta = 0 fits, and the four theta = pi/2 fits when a root
is clipped onto that edge or onto the cap B0 = b_max, or is the real part
of a complex pair.  An exact pair (sigma = 0) takes all six when its roots
show that they may not reproduce it: no root is placed (real, and inside
the domain without clipping), two are complex, or one lies past the cap.
One transition_table call (eigenvalues and tridiagonal cofactors, no
eigenvectors) evaluates every candidate with its analytic Jacobian, at
B0 = 0 as elsewhere.  A root within NUMERIC_FLOOR_HZ of the pair is a
solution as it stands, and so is every edge fit.  A placed root that
misses is dropped: its levels hold the pair, but the line selection there
pumps other lines.  So is a root clipped onto an angle edge or a complex
pair's real part: the edge fits replace them, since the lines are even in
theta on the angle edges and a non-exact minimum inside the domain would
need a singular Jacobian.  The B0 = b_max edge has no fit of its own: a
root clipped onto it stands as a candidate at the root's angle, and the
edge fits' ends on the cap cover its two corners.  An exact pair whose
placed roots all miss, with none of those signs, takes the six edge fits
in a second table call.

A rival need not reproduce the pair exactly: any solution within the
floor, max(3 sigma, NUMERIC_FLOOR_HZ, twice the best residual), counts,
an edge fit as much as a root.  The pair cannot exclude a field that
fits it within its noise, so such a field is counted in n_compatible and
flags the result, rather than being dropped for not being exact.

The quartic's roots are the eigenvalues of its 4 x 4 companion matrix,
the matrix numpy.roots builds, from one numpy.linalg.eigvals call; the
at most four roots and the at most ten candidates are then handled as
Python floats.  The local condition estimate is the ratio of the
closed-form singular values of the 2 x 2 Jacobian with its columns scaled
to the domain (_scaled_condition).  One inversion works on a few table
rows, so its cost is fixed per-call overhead, not arithmetic.
Traced over perfbench's spectrum_roundtrip chain (seed 3311, a 2-vCPU
host), an inversion made 1.00 table call on 6.96 rows, 0.25 ms per
operation in the table, and the median inversion took 0.41 ms, 0.16 ms of
it in the inverter's own code.

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

from .fitting import _covariance_sigmas
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
_DEDUPE_B_T = 2e-8              # dedupe floor: closer solutions are one basin
_DEDUPE_THETA_RAD = 2e-5
_EDGE_FIT_ROUNDS = 60           # Newton or bisection rounds of one theta = pi/2 fit


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
    Returns four lists of k entries: the starts (B0, theta), the targets
    (A, B), whether each start is placed, a real root with 0 <= v <= u
    and B0 <= b_max_t, which the clip leaves where it is, and whether it
    is a real root.
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
    b0s, cosines, targets, placed, reals = [], [], [], [], []
    for s in sorted(real):
        u = (4.0 * s * s + (a2 + b2) / 2.0 - 4.0) / 5.0
        v = (u + s * (a2 - b2) / 4.0) / 3.0
        b0 = math.sqrt(max(u, 0.0)) * b0_scale
        b0s.append(min(b0, b_max_t))
        cosines.append(math.sqrt(min(max(v / u, 0.0), 1.0)) if u > 0.0 else 1.0)
        targets.append((t1, t2) if s < 0.0 else (t2, t1))
        placed.append(real[s] and 0.0 <= v <= u and b0 <= b_max_t)
        reals.append(real[s])
    starts = list(zip(b0s, np.arccos(cosines).tolist()))
    return starts, targets, placed, reals


def _half_pi_lines(x: float, d: float, upper: bool):
    """The labelled lines (A, B) on theta = pi/2 at gamma B0 = x, with two x-derivatives.

    There H/h = D(Sz^2 - 5/4) + x Sx commutes with m -> -m and splits into
    two 2 x 2 blocks, with levels x/2 +/- R1 and -x/2 +/- R2, where
    R1,2 = sqrt(D^2 -/+ D x + x^2).  Below x = 2D line A is 2 R2 and line B
    is 2 R1; above it (upper) A = x + R2 - R1 and B = x - R2 + R1.  Returns
    (A, B, A', B', A'', B'') as Python floats.
    """
    r1 = math.sqrt(d * d - d * x + x * x)
    r2 = math.sqrt(d * d + d * x + x * x)
    # 2 R' and 2 R'' of each block: R' = (2x -/+ D) / 2R and R'' = 3D^2 / 4R^3
    p1, p2 = (2.0 * x - d) / r1, (2.0 * x + d) / r2
    c1, c2 = 1.5 * d * d / (r1 * r1 * r1), 1.5 * d * d / (r2 * r2 * r2)
    if not upper:
        return 2.0 * r2, 2.0 * r1, p2, p1, c2, c1
    slope, curve = (p2 - p1) / 2.0, (c2 - c1) / 2.0
    return x + r2 - r1, x - r2 + r1, 1.0 + slope, 1.0 - slope, curve, -curve


@lru_cache(maxsize=8)
def _half_pi_branches(d: float, x_max: float):
    """Each side of x = 2D on theta = pi/2 as (nodes, their lines, upper), up to the cap x_max.

    The nodes lie D/4 apart below the crossing and 25 % apart above it,
    where the lines curve less and less.  Built once per constants and cap,
    at the first fit that needs them.
    """
    lower = sorted({min(k * d / 4.0, x_max) for k in range(9)})
    upper = [2.0 * d]
    while upper[-1] * 1.25 < x_max:
        upper.append(upper[-1] * 1.25)
    upper.append(x_max)
    return tuple(
        (tuple(nodes), tuple(_half_pi_lines(x, d, is_upper) for x in nodes), is_upper)
        for nodes, is_upper in ((lower, False), (upper, True))
        if nodes[0] < nodes[-1]
    )


def _half_pi_minimum(nodes, lines, target, d: float, upper: bool) -> float | None:
    """The x on one side's nodes' span that minimizes |(A, B)(x) - target|^2.

    The stationary points are the roots of phi = (A - ta) A' + (B - tb) B',
    half the derivative.  Each sign change of phi from - to + between two
    nodes brackets a local minimum, which safeguarded Newton polishes: a
    step that leaves the bracket, or meets no positive curvature, bisects
    it instead.  An end of the span where phi points out of it is a local
    minimum too, except x = 0: there A = B = 2D, the two orderings meet,
    and phi = t2 - t1 for one and t1 - t2 for the other, so that end is a
    minimum of the pair's misfit only where it is stationary (t1 = t2).
    The lowest of these wins; None when there is none.
    """
    ta, tb = target
    slopes = [(a - ta) * da + (b - tb) * db for a, b, da, db, _, _ in lines]
    best = []
    for k in (0, -1):
        outward = slopes[k] > 0.0 and nodes[k] > 0.0 if k == 0 else slopes[k] < 0.0
        if outward or slopes[k] == 0.0:
            best.append(((lines[k][0] - ta) ** 2 + (lines[k][1] - tb) ** 2, nodes[k]))
    tol = 1e-9 * d
    for k in range(len(nodes) - 1):
        if not slopes[k] < 0.0 <= slopes[k + 1]:
            continue
        lo, hi = nodes[k], nodes[k + 1]
        x = lo - slopes[k] * (hi - lo) / (slopes[k + 1] - slopes[k])
        for _ in range(_EDGE_FIT_ROUNDS):
            a, b, da, db, dda, ddb = _half_pi_lines(x, d, upper)
            slope = (a - ta) * da + (b - tb) * db
            if slope < 0.0:
                lo = x
            elif slope > 0.0:
                hi = x
            else:
                break
            curvature = da * da + db * db + (a - ta) * dda + (b - tb) * ddb
            step = x - slope / curvature if curvature > 0.0 else lo
            if not lo < step < hi:
                step = (lo + hi) / 2.0
            if abs(step - x) <= tol:
                break
            x = step
        best.append(((a - ta) ** 2 + (b - tb) ** 2, x))
    return min(best)[1] if best else None


def _half_pi_fits(t1: float, t2: float, consts: PhysicalConstants, b_max_t: float):
    """Least-squares fits of the pair along theta = pi/2: each ordering on each side of x = 2D.

    Every fit runs in Python floats on the closed-form lines of
    _half_pi_lines, with no table call, and ends at the cap gamma b_max_t.
    Returns the starts (B0, pi/2) and their targets (A, B), up to four of
    each.
    """
    d, gamma = consts.d_hz, consts.gyro_hz_per_t
    starts, targets = [], []
    for nodes, lines, upper in _half_pi_branches(d, gamma * b_max_t):
        for target in ((t1, t2), (t2, t1)):
            x = _half_pi_minimum(nodes, lines, target, d, upper)
            if x is not None:
                starts.append((x / gamma, math.pi / 2))
                targets.append(target)
    return starts, targets


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


def _edge_fits(t1: float, t2: float, consts: PhysicalConstants, b_max_t: float,
               axial: bool, half_pi: bool):
    """The starts and targets of the edge fits: on theta = 0 when axial, on pi/2 when half_pi.

    On theta = 0, A = |gamma B0 - 2D| and B = gamma B0 + 2D, so the
    least-squares fit is closed form on each side of the crossing:
    gamma B0 = (t1 + t2)/2 above it and (t2 - t1)/2 below it.  The four
    theta = pi/2 fits come from _half_pi_fits.
    """
    starts, targets = [], []
    if axial:
        for gamma_b0 in ((t1 + t2) / 2.0, (t2 - t1) / 2.0):
            starts.append((min(gamma_b0 / consts.gyro_hz_per_t, b_max_t), 0.0))
            targets.append((t1, t2))
    if half_pi:
        more_starts, more_targets = _half_pi_fits(t1, t2, consts, b_max_t)
        starts += more_starts
        targets += more_targets
    return starts, targets


def _evaluated(starts, targets, consts: PhysicalConstants):
    """(B0, theta, rms residual, Jacobian) of every start, from one transition_table call."""
    b0s, thetas = zip(*starts)
    a, b, jac = transition_table(b0s, thetas, consts, jacobian=True, labelled=True)
    out = []
    for (b0, theta), x, y, (ta, tb), j in zip(starts, a.tolist(), b.tolist(), targets, jac):
        x, y = x - ta, y - tb
        out.append((b0, theta, math.sqrt((x * x + y * y) / 2.0), j))
    return out


def _solutions(t1: float, t2: float, consts: PhysicalConstants, b_max_t: float,
               sigma_hz: float):
    """Every candidate that stands as a solution: (B0, theta, rms residual, Jacobian).

    A root that reproduces the pair within NUMERIC_FLOOR_HZ stands, and so
    does a root that the clip put onto the cap B0 = b_max_t, at the root's
    angle, since the cap has no fit of its own; every edge fit stands too.
    The other roots are dropped: a placed root that misses holds the pair
    in its levels, but the line selection there pumps other lines, and the
    edge fits replace a root clipped onto an angle edge or a complex pair's
    real part.  A noisy pair always takes the two theta = 0 fits, and the four
    theta = pi/2 fits when a root is clipped onto that edge or onto the cap
    B0 = b_max_t, or is the real part of a complex pair.  An exact pair
    (sigma_hz = 0) takes all six when no root is placed, two roots are
    complex or a root lies past the cap, the signs that the roots may not
    reproduce it; one table call then evaluates every candidate.  An exact
    pair whose placed roots all miss without such a sign takes them in a
    second table call.
    """
    starts, targets, placed, real = _quartic_starts(t1, t2, consts, b_max_t)
    n_roots = len(starts)
    if sigma_hz > 0:
        # a root clipped onto theta = 0 is covered by the theta = 0 fits
        half_pi = any(not p and theta != 0.0 for p, (_, theta) in zip(placed, starts))
        axial = True
    else:
        past_cap = any(not p and b0 == b_max_t for p, (b0, _) in zip(placed, starts))
        axial = half_pi = past_cap or not (any(placed) and all(real))
    edge_starts, edge_targets = _edge_fits(t1, t2, consts, b_max_t, axial, half_pi)
    evaluated = _evaluated(starts + edge_starts, targets + edge_targets, consts)
    solutions = [s for s, p in zip(evaluated, placed)
                 if s[2] <= NUMERIC_FLOOR_HZ or not p and s[0] == b_max_t]
    solutions += evaluated[n_roots:]
    if not (sigma_hz > 0 or half_pi or any(s[2] <= NUMERIC_FLOOR_HZ for s in solutions)):
        # an exact pair whose roots all miss, though they did not show it
        solutions += _evaluated(*_edge_fits(t1, t2, consts, b_max_t, True, True), consts)
    return solutions


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
    labelled lines (A, B).  The candidates are the quartic's roots and the
    least-squares fits along the angle edges: on theta = 0, where
    A = |gamma B0 - 2D| and B = gamma B0 + 2D, gamma B0 = (nu1 + nu2)/2
    above the crossing and (nu2 - nu1)/2 below it; on theta = pi/2, a 1-D
    Newton fit of each ordering on each side of gamma B0 = 2D on the
    closed-form lines there.  A noisy pair always takes the theta = 0
    fits, and the theta = pi/2 fits when a root is clipped onto that edge
    or onto the cap, or is a complex pair's real part; an exact pair takes
    both when its roots show they may not reproduce it.  One table call
    evaluates them all.  A root that reproduces the pair within
    NUMERIC_FLOOR_HZ, a root clipped onto the cap B0 = b_max_t and every
    edge fit is a solution as it stands; the other roots are dropped.  An
    exact pair whose placed roots all miss without showing it takes the
    edge fits in a second table call.  Among the solutions that reproduce
    the pair the smallest B0, then the smallest theta, is reported and the
    rest are its rivals.  sigma_hz is the 1-sigma frequency uncertainty of
    the inputs (e.g. the fitted line-center sigma) and drives the
    degeneracy diagnostics; rival parameter points that reproduce the pair
    within max(3 sigma, the numeric floor), capped at NO_SOLUTION_RMS_HZ,
    are counted in n_compatible and flag the result as ambiguous, whether
    they reproduce it exactly or, like an edge fit, only within that floor.

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
    solutions = _solutions(t1, t2, consts, b_max_t, sigma_hz)

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
