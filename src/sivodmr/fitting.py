"""Nonlinear least-squares fitting of ODMR spectra and saturation curves.

One damped Gauss-Newton core drives both model families (multi-Lorentzian
spectra and photon-rate saturation), with analytic Jacobians, Marquardt
diagonal damping and monotone step acceptance.  It solves one problem at a time; callers
constrain it through a projection of each trial point, and every trial
that is not finite is rejected by one rule.  Parameter uncertainties come
from the linearized covariance sigma^2 * inv(J^T J) with
sigma^2 = residual_rms^2; residuals are assumed i.i.d. Gaussian, which is a
documented simplification.  Lorentzian fits are seeded from the most
prominent maxima of the smoothed trace, found by a monotone-stack
prominence scan.  The Lorentzian line model and its Jacobian come from
spectrum.py, the same formula that synthesises spectra.

A Lorentzian fit of N >= 2 * COARSE_POINTS points runs coarse to fine.
It bins the data first: N // COARSE_POINTS consecutive points per bin, the
remainder in a short last bin, each bin at its mean frequency and mean
signal.  The baseline median and the prominence seed come from the bin
means, not the N points; the signal scale stays max|signal - baseline|
over the full trace.  The core fits the bins from that seed or the init,
with the same model, scales and projection, to its own convergence test
(at most MAX_ITERATIONS rounds).  Bins are safe because a bin is narrow
against any line that the full-resolution fit could resolve: the binned
trace keeps at least COARSE_POINTS points over the same sweep, as many as
an unbinned fit of COARSE_POINTS points has.  On a uniform grid a bin spans
at most 1/COARSE_POINTS of the sweep, 56 kHz of a 230 MHz sweep, against
synthesised lines at least 7.5 MHz wide.  Averaging a Lorentzian of FWHM w
over a bin of width h changes it by at most (h/w)^2 / 3 of its depth, and
the bin's mean frequency cancels the linear term, so the binned optimum
lies a small fraction of a sigma from the full one.

The fit then finishes on per-bin moments.  The data enter a Lorentzian
fit only through sums over the sweep of smooth functions of f times 1 or
s: JtJ = sum J J^T, Jt r = sum J m - sum J s and SSR = sum (m - s)^2.  One
blocked pass over the data (_simpson_nodes) cuts the trace into node bins
of k points, the last bin short, with k = floor(w_min / (NODE_BINS_PER_FWHM
* mean spacing)) for w_min the binned optimum's narrowest FWHM.  For a
smooth g, the sum of g(f) over a bin of n points and width h is
n g(fbar) + g'(fbar) sum d + g''(fbar) sum d^2 / 2 + O(n h^3 |g'''|) with
offsets d = f - fbar, and the sum of g(f) s expands the same way in
sum s, sum d s and sum d^2 s.  So three Simpson nodes fbar - eps, fbar and
fbar + eps, eps = sqrt(3 sum d^2 / n), carry the bin: their grid weights w
match its moments 0-2 of d (n/6, 2n/3, n/6) and their data weights v match
those three sums of s.  With pseudo-data y = v / w, the rows sqrt(w) J and
sqrt(w) (m - y) give JtWJ and JtW (m - y), which equal the full trace's
JtJ and Jt r to O((h/w)^3) for a line of FWHM w.  The SSR is the nodes'
SSR plus sum s^2 - sum v^2 / w, clipped at 0.  The damped core runs on the
nodes from the binned optimum with its own convergence test, and the
covariance is the nodes' JtJ at the point it returns.  A 92 001-point
chain spectrum with 12 MHz lines has about 3 700 nodes, fewer than its
4 182 bins, and no evaluation touches the 92 001 points after the one
moment pass.  The node bins follow the narrowest line because a fixed
number of them is too coarse for narrow lines on a wide sweep: on 30-2000
MHz with 8 MHz lines, 1 365 fixed bins put the values up to 1.1e-2 sigma
from the full fit, the width rule under 1e-4 sigma.  A bin of under 4
points would have no fewer nodes than points, so then the nodes are
skipped.

A guard takes the node result only when the binned stage converged, the
node stage converged and every value moved from the binned optimum by at
most NODE_SHIFT_SIGMAS of its sigma.  Otherwise, as on a noiseless trace,
whose sigmas are at rounding level, from an init far from the lines, or
with bins too narrow for nodes, the damped core runs on the full trace
from the binned optimum with its own convergence test; it evaluates that
point at full resolution once.  FitResult.iterations counts the rounds of
the stage that returns: the node stage's (2 on nearly every chain
spectrum) or the full stage's.  Over 368 chain spectra the node result
lay within 4.9e-5 sigma of a fit run to convergence on the full trace.

An evaluation hands the core the normal equations of its point, never the
residuals or the Jacobian.  A Lorentzian fit sums them block by block: one
(2 + 3 n_peaks, _BLOCK) buffer per fit takes each block's Jacobian rows
and residual row, and its Gram matrix is added to a running sum whose
parts are J^T J, J^T r and the SSR.  No full-size Jacobian exists, each
block stays in cache from the model to the product, and the binned stage
is one block.  The blocks change only the order of the sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import _BLOCK, OdmrSpectrum, _lorentzian_model

MAX_ITERATIONS = 200
STEP_RTOL = 1e-8      # per-parameter relative step for convergence
SSR_RTOL = 1e-10      # relative residual-change for convergence
COND_LIMIT = 1e12     # correlation-matrix condition beyond which a fit is degenerate
SEED_FWHM_HZ = 10e6   # initial linewidth guess when no init is given
COARSE_POINTS = 4096  # fits of at least twice this many points start on binned data
NODE_BINS_PER_FWHM = 64  # a node bin spans about 1/64 of the narrowest fitted FWHM
NODE_SHIFT_SIGMAS = 0.1  # largest |node - binned optimum| / sigma the node stage may take


class IllConditionedFitError(RuntimeError):
    """The normal equations are singular; carries the degenerate parameter pair."""

    def __init__(self, param_a: str, param_b: str, detail: str = ""):
        self.param_pair = (param_a, param_b)
        msg = f"ill-conditioned fit: parameters {param_a!r} and {param_b!r} are degenerate"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


@dataclass(frozen=True)
class FitResult:
    """Fitted parameters with 1-sigma uncertainties and solver diagnostics.

    iterations counts the accepted rounds of the stage that returns: for a
    binned Lorentzian fit whose node stage passes its guard, the rounds on
    the per-bin nodes, otherwise the damped core's rounds on the full data.
    converged means converged by the core's test.
    """

    names: tuple[str, ...]
    values: np.ndarray
    sigmas: np.ndarray
    residual_rms: float
    iterations: int
    converged: bool

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        s = np.asarray(self.sigmas, dtype=float)
        if len(self.names) != v.size or v.shape != s.shape:
            raise ValueError("names, values and sigmas must have matching lengths")
        if np.any(s < 0):
            raise ValueError("sigmas must be non-negative")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "sigmas", s)

    @property
    def params(self) -> dict[str, float]:
        return dict(zip(self.names, self.values.tolist()))

    def value(self, name: str) -> float:
        return float(self.values[self.names.index(name)])

    def sigma(self, name: str) -> float:
        return float(self.sigmas[self.names.index(name)])


def _damped_gauss_newton(fun, p0, scales, project):
    """Minimize a sum of squared residuals from p0, given its normal equations.

    fun maps a point to (ssr, JtJ, Jt r): the sum of squared residuals, the
    normal matrix and the gradient term of the residuals r and their
    Jacobian J at that point.  The core never sees r or J, so a fun may sum
    its normal equations block by block, as a Lorentzian fit does, and no
    full-size Jacobian need exist.

    Marquardt damping on the normal equations, (JtJ + lam*diag(JtJ)) d = -Jt r;
    lam shrinks tenfold after an accepted step and grows tenfold on rejection,
    so accepted residuals are monotonically non-increasing.  Convergence:
    every |step_i| <= STEP_RTOL * scales_i, or the relative SSR change drops
    below SSR_RTOL.  scales are fixed, data-derived magnitudes so that the
    iteration is exactly equivariant under axis shifts and rescalings.

    project maps a trial point to the feasible point that replaces it.  A
    trial that is not finite, because project marked it NaN or because the
    damped system was singular, is rejected like a rise in SSR: lam grows
    tenfold and the next round retries.  The run ends converged, after
    MAX_ITERATIONS rounds, or unconverged at its last accepted point once lam
    passes 1e12.  Returns p, JtJ, ssr, iterations, converged, all of the
    accepted point p.
    """
    p = np.array(p0, dtype=float)
    step_tol = STEP_RTOL * np.asarray(scales, dtype=float)
    ssr, jtj, jtr = fun(p)
    lam = 1e-3
    converged = False
    iterations = 1
    damp = _marquardt_diagonal(jtj)
    diag = np.diag_indices(p.size)
    while lam <= 1e12:
        a = jtj.copy()
        a[diag] += lam * damp
        try:
            trial = p + np.linalg.solve(a, -jtr)
        except np.linalg.LinAlgError:
            trial = np.full_like(p, np.nan)
        trial = project(trial)
        if not np.isfinite(trial).all():
            lam *= 10.0
            continue
        evaluated = fun(trial)
        ssr_try = evaluated[0]
        if not ssr_try <= ssr:
            lam *= 10.0
            continue
        converged = bool(
            (np.abs(trial - p) <= step_tol).all()
            or abs(ssr - ssr_try) <= SSR_RTOL * max(ssr, 1e-300)
        )
        p, (ssr, jtj, jtr) = trial, evaluated
        lam = max(lam / 10.0, 1e-12)
        if converged or iterations >= MAX_ITERATIONS:
            break
        iterations += 1
        damp = _marquardt_diagonal(jtj)
    return p, jtj, ssr, iterations, converged


def _marquardt_diagonal(jtj: np.ndarray) -> np.ndarray:
    """The zero-safe Marquardt diagonal of JtJ.

    A zero diagonal entry of JtJ damps with the largest one (or 1), so that
    a parameter the residuals do not see still takes bounded steps.
    """
    diag = np.diagonal(jtj)
    top = diag.max()
    return np.where(diag <= 0, top if top > 0 else 1.0, diag)


def _normal_equations(r: np.ndarray, jac: np.ndarray):
    """ssr, JtJ and Jt r of residuals r with Jacobian jac, as a core fun returns them."""
    return float(r @ r), jac.T @ jac, jac.T @ r


def _lorentzian_normal_equations(freq, signal, p, n_peaks, rows, root_weight=None):
    """ssr, JtJ and Jt r of the residuals model - signal at p, block by block.

    rows is a (2 + 3 n_peaks, m) scratch array with m >= min(_BLOCK,
    freq.size).  Each block of at most _BLOCK points writes its Jacobian
    rows and its residual row into rows and adds rows @ rows.T to one Gram
    matrix, whose blocks are JtJ, Jt r and ssr: the full Jacobian is never
    formed, and a block's rows stay in cache from the model to the product.
    With root_weight, the square roots of per-point weights W, every row is
    scaled by it first, which gives JtWJ, JtW r and r.W r.
    """
    gram = np.zeros((rows.shape[0], rows.shape[0]))
    for start in range(0, freq.size, _BLOCK):
        f = freq[start : start + _BLOCK]
        block = rows[:, : f.size]
        model = _lorentzian_model(f, p, n_peaks, out=block)[0]
        np.subtract(model, signal[start : start + _BLOCK], out=model)
        if root_weight is not None:
            block *= root_weight[start : start + _BLOCK]
        gram += block @ block.T
    return float(gram[-1, -1]), gram[:-1, :-1], gram[:-1, -1]


def _simpson_nodes(freq, signal, k, rows):
    """Weighted nodes whose normal equations stand in for the whole trace's.

    One pass over the data in runs of k points, the last run short, each a
    bin with its n points, mean frequency fbar and, for the offsets
    d = f - fbar, the sums of d, d^2, s, d s and d^2 s.  The pass writes d
    and d^2 into the first two rows of the fit's scratch buffer rows, whole
    bins at a time (k <= rows.shape[1]), so it makes no full-size
    temporary.  A bin becomes the nodes fbar - eps, fbar, fbar + eps,
    eps = sqrt(3 sum d^2 / n), whose grid weights w match the bin's moments
    0-2 of d (n/6, 2n/3, n/6 up to the rounding of sum d) and whose data
    weights v match sum s, sum d s and sum d^2 s the same way; a bin with
    eps = 0 keeps one node, fbar, with w = n and v = sum s.  Returns the
    nodes, sqrt(w), the pseudo-data y = v / w and sum s^2 - sum v^2 / w,
    the part of the SSR that the nodes do not see.
    """
    n_full = freq.size // k * k
    per_chunk = rows.shape[1] // k * k
    chunks = [(a, min(a + per_chunk, n_full), k) for a in range(0, n_full, per_chunk)]
    if n_full < freq.size:
        chunks.append((n_full, freq.size, freq.size - n_full))
    moments = np.empty((7, n_full // k + (n_full < freq.size)))
    sum_sq, j = 0.0, 0
    for a, b, size in chunks:
        f = freq[a:b].reshape(-1, size)
        s = signal[a:b].reshape(-1, size)
        n, fbar, sd, sd2, ss, sds, sd2s = moments[:, j : j + f.shape[0]]
        j += f.shape[0]
        # row sums as products with a ones vector, which BLAS does fastest
        ones = np.ones(size)
        n.fill(size)
        np.divide(f @ ones, size, out=fbar)
        d, d2 = (row[: b - a].reshape(-1, size) for row in rows[:2])
        np.subtract(f, fbar[:, None], out=d)
        np.multiply(d, d, out=d2)
        np.matmul(d, ones, out=sd)
        np.matmul(d2, ones, out=sd2)
        np.matmul(s, ones, out=ss)
        np.einsum("ij,ij->i", d, s, out=sds)
        np.einsum("ij,ij->i", d2, s, out=sd2s)
        sum_sq += float(signal[a:b] @ signal[a:b])
    n, fbar, sd, sd2, ss, sds, sd2s = moments
    eps = np.sqrt(3.0 * sd2 / n)
    wide = eps > 0
    e = np.where(wide, eps, 1.0)
    w_even, w_odd = sd2 / (e * e), sd / e
    v_even, v_odd = sd2s / (e * e), sds / e
    x = np.stack([fbar - eps, fbar, fbar + eps], axis=1)
    w = np.stack([(w_even - w_odd) / 2.0, n - w_even, (w_even + w_odd) / 2.0], axis=1)
    v = np.stack([(v_even - v_odd) / 2.0, ss - v_even, (v_even + v_odd) / 2.0], axis=1)
    keep = np.stack([wide, np.ones_like(wide), wide], axis=1)
    x, w, v = x[keep], w[keep], v[keep]
    y = v / w
    return x, np.sqrt(w), y, sum_sq - float(v @ y)


def _covariance_sigmas(jtj: np.ndarray, residual_rms: float, names) -> np.ndarray:
    """1-sigma uncertainties from the linearized covariance at the solution.

    jtj is J^T J at the solution, as _damped_gauss_newton returns it, so a
    fit forms no normal matrix of its own.  Raises IllConditionedFitError
    when a Jacobian column vanished (a zero or non-finite diagonal entry)
    or the correlation matrix of J^T J is numerically singular, naming the
    most degenerate parameter pair.
    """
    col = np.sqrt(np.diag(jtj))
    if np.any(col == 0) or not np.all(np.isfinite(col)):
        dead = [k for k in range(col.size) if not (np.isfinite(col[k]) and col[k] > 0)]
        a = names[dead[0]]
        b = names[dead[1]] if len(dead) > 1 else names[(dead[0] + 1) % len(names)]
        raise IllConditionedFitError(a, b, "a Jacobian column vanished")
    corr = jtj / np.outer(col, col)
    if np.linalg.cond(corr) > COND_LIMIT:
        off = np.abs(corr - np.eye(col.size))
        i, j = np.unravel_index(int(np.argmax(off)), off.shape)
        raise IllConditionedFitError(names[i], names[j], "singular normal equations")
    cov = np.linalg.inv(jtj) * residual_rms**2
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def _local_maxima(x: np.ndarray) -> np.ndarray:
    """Indices of the strict local maxima of x, flat tops included.

    A maximum is a run of equal values entered by a strict rise and left by
    a strict fall; its index is the run's midpoint (left + right) // 2.
    The ends of x are never maxima.
    """
    starts = np.flatnonzero(np.concatenate(([True], x[1:] != x[:-1])))
    ends = np.append(starts[1:], x.size) - 1
    level = x[starts]
    inner = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    return (starts[inner] + ends[inner]) // 2


def _side_minima(heights: np.ndarray, valleys: np.ndarray) -> np.ndarray:
    """min(valleys[j + 1 : i + 1]) for each i, j the nearest earlier strictly higher peak.

    With no such peak, j = -1.  One monotone-stack scan: the stack holds
    the peaks not yet topped, with strictly falling heights, each with the
    lowest valley between it and the stack entry below it.
    """
    out = []
    stack: list[tuple[float, float]] = []
    for height, low in zip(heights.tolist(), valleys.tolist()):
        while stack and stack[-1][0] <= height:
            low = min(low, stack.pop()[1])
        stack.append((height, low))
        out.append(low)
    return np.array(out)


def _prominences(x: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Topographic prominences of the ascending maxima peaks of x.

    A peak's prominence is its height minus the higher of the two minima
    of x between it and the nearest strictly higher point on each side (or
    the end of x).  That point lies next to the nearest strictly higher
    maximum, so the result is exact whenever peaks holds every maximum of
    x at least as high as its lowest entry.  The valleys between
    consecutive peaks come from one reduceat; a monotone-stack scan run
    left to right and right to left takes the lowest valley on each side.
    """
    heights = x[peaks]
    # valleys[i] = min(x[peaks[i - 1]:peaks[i]]), with x's ends as outer bounds
    valleys = np.minimum.reduceat(x, np.concatenate(([0], peaks)))
    left = _side_minima(heights, valleys[:-1])
    right = _side_minima(heights[::-1], valleys[:0:-1])[::-1]
    return heights - np.maximum(left, right)


def _prominent_maxima(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices and prominences of the n most prominent local maxima of x.

    Ordered by descending prominence, ties toward the later index (a
    stable ascending sort of all prominences, reversed).  Prominences are
    found for the K highest maxima only, a set closed under "nearest
    strictly higher maximum".  No maximum left out can beat the n-th best
    once that exceeds the next height minus min(x); until then K grows, up
    to all maxima.
    """
    peaks = _local_maxima(x)
    heights = x[peaks]
    total = peaks.size
    k = min(total, 16 * n)
    while True:
        if k < total:
            part = np.argpartition(heights, total - k - 1)
            kept = np.sort(part[total - k :])
            bound = heights[part[total - k - 1]] - x.min()
        else:
            kept = np.arange(total)
        prom = _prominences(x, peaks[kept])
        order = np.argsort(prom, kind="stable")[::-1][:n]
        if k == total or prom[order[-1]] > bound:
            return peaks[kept[order]], prom[order]
        k = min(total, 8 * k)


def _seed_lorentzian(
    freq: np.ndarray, signal: np.ndarray, n_peaks: int, baseline: float
) -> np.ndarray:
    """Initial guess: smooth, then take the largest-prominence maxima.

    Moving-average window of 5 points; missing peaks (merged or absent
    lines) fall back to evenly spaced positions across the grid.  The
    smoothed trace is bracketed by baseline-level samples so a line whose
    crest sits near the window edge keeps its full prominence instead of
    being measured against its own truncated shoulder.  baseline is the
    median of signal, which the caller computes once for both uses.
    """
    smoothed = np.convolve(np.pad(signal, 2, mode="edge"), np.full(5, 0.2), mode="valid")
    span = freq[-1] - freq[0]
    bracketed = np.concatenate(([baseline], smoothed, [baseline]))
    idx = _prominent_maxima(bracketed, n_peaks)[0] - 1
    centers = [float(freq[i]) for i in idx]
    amps = [max(float(smoothed[i] - baseline), 1e-12) for i in idx]
    fallback_amp = max(float(np.max(smoothed) - baseline), 1e-12)
    k = 1
    while len(centers) < n_peaks:
        cand = freq[0] + span * k / (n_peaks + 1)
        if all(abs(cand - c) > span / 20.0 for c in centers):
            centers.append(float(cand))
            amps.append(fallback_amp)
        k += 1
    order = np.argsort(centers)
    params = [baseline]
    for k in order:
        params += [centers[k], SEED_FWHM_HZ, amps[k]]
    return np.array(params)


def fit_lorentzian_multi(spec: OdmrSpectrum, n_peaks: int, init=None) -> FitResult:
    """Fit a baseline plus n_peaks Lorentzians to an ODMR spectrum.

    Parameter names: baseline, then centerK_hz / fwhmK_hz / ampK per peak,
    ordered by ascending seeded center.  A failed convergence is reported
    through converged=False, never an exception; singular normal equations
    raise IllConditionedFitError.  A fit of at least 2 * COARSE_POINTS
    points converges on binned data and then on per-bin Simpson nodes, or,
    where the guard refuses the nodes, in the damped full-resolution stage
    (see the module docstring).
    """
    if n_peaks not in (1, 2):
        raise ValueError(f"n_peaks must be 1 or 2, got {n_peaks}")
    freq = spec.freq_hz
    signal = spec.signal
    if freq.size < 4 + 3 * n_peaks:
        raise ValueError(
            f"need at least {4 + 3 * n_peaks} points to fit {n_peaks} peak(s), "
            f"got {freq.size}"
        )
    names = ["baseline"]
    for k in range(n_peaks):
        names += [f"center{k + 1}_hz", f"fwhm{k + 1}_hz", f"amp{k + 1}"]
    if init is not None:
        init = np.array(init, dtype=float)
        if init.shape != (1 + 3 * n_peaks,):
            raise ValueError(f"init must have {1 + 3 * n_peaks} entries: {names}")
        if not np.all(np.isfinite(init)):
            raise ValueError(f"init must be finite, got {init.tolist()}")
        if np.any(init[2::3][:n_peaks] <= 0):
            raise ValueError("initial widths must be positive")

    binned = freq.size >= 2 * COARSE_POINTS
    if binned:
        # bin means of a strictly increasing grid are strictly increasing
        starts = np.arange(0, freq.size, freq.size // COARSE_POINTS)
        counts = np.diff(starts, append=freq.size)
        f_seed = np.add.reduceat(freq, starts) / counts
        s_seed = np.add.reduceat(signal, starts) / counts
    else:
        f_seed, s_seed = freq, signal
    baseline = float(np.median(s_seed))
    p0 = _seed_lorentzian(f_seed, s_seed, n_peaks, baseline) if init is None else init

    span = float(freq[-1] - freq[0])
    # max |signal - baseline| bit for bit, since fl(x - baseline) is monotone in x
    sig_scale = max(float(signal.max() - baseline), float(baseline - signal.min()), 1e-12)
    scales = np.array([sig_scale] + [span, span, sig_scale] * n_peaks)
    width_slots = [2 + 3 * k for k in range(n_peaks)]

    # one block buffer serves every evaluation of the fit, binned, on the
    # nodes or at full resolution, and the moment pass that makes the nodes
    rows = np.empty((2 + 3 * n_peaks, min(_BLOCK, freq.size)))

    def fun(p, f=freq, s=signal, root_weight=None):
        return _lorentzian_normal_equations(f, s, p, n_peaks, rows, root_weight)

    def project(p):
        return np.where(np.all(p[width_slots] > 0), p, np.nan)

    if binned:
        def coarse(p):
            return fun(p, f_seed, s_seed)

        p0, _, _, _, settled = _damped_gauss_newton(coarse, p0, scales, project)
        # points per node bin, which spans about 1 / NODE_BINS_PER_FWHM of the
        # narrowest line; a bin of under 4 points has no fewer nodes than points
        k = p0[width_slots].min() / (NODE_BINS_PER_FWHM * span / (freq.size - 1))
        k = min(k, rows.shape[1])
        if settled and k >= 4:
            nodes, root_w, pseudo, unseen = _simpson_nodes(freq, signal, int(k), rows)

            def nodal(p):
                ssr, jtj, jtr = fun(p, nodes, pseudo, root_w)
                return max(ssr + unseen, 0.0), jtj, jtr

            p, jtj, ssr, iterations, converged = _damped_gauss_newton(
                nodal, p0, scales, project
            )
            residual_rms = math.sqrt(ssr / freq.size)
            try:
                sigmas = _covariance_sigmas(jtj, residual_rms, names)
            except IllConditionedFitError:  # NaN sigmas fail the guard
                sigmas = np.full_like(p, np.nan)
            if converged and np.all(np.abs(p - p0) <= NODE_SHIFT_SIGMAS * sigmas):
                return FitResult(tuple(names), p, sigmas, residual_rms, iterations, True)
    p, jtj, ssr, iterations, converged = _damped_gauss_newton(fun, p0, scales, project)
    residual_rms = math.sqrt(ssr / freq.size)
    sigmas = _covariance_sigmas(jtj, residual_rms, names)
    return FitResult(tuple(names), p, sigmas, residual_rms, iterations, converged)


def _saturation_model(powers: np.ndarray, params: np.ndarray):
    i_s, p0 = params
    base = 1.0 / (1.0 + p0 / powers)
    model = i_s * base
    jac = np.empty((powers.size, 2))
    jac[:, 0] = base
    jac[:, 1] = -i_s * base * base / powers
    return model, jac


def fit_saturation(powers_mw, counts_cps) -> FitResult:
    """Fit I(P) = I_s / (1 + P0/P) to measured count rates.

    Parameter names: i_s_cps, p0_mw.  Initialized at I_s = 2 max(counts),
    P0 = median(powers).  Flat count data leaves P0 unidentifiable and
    raises IllConditionedFitError.
    """
    powers = np.asarray(powers_mw, dtype=float)
    counts = np.asarray(counts_cps, dtype=float)
    if powers.ndim != 1 or powers.shape != counts.shape:
        raise ValueError("powers and counts must be matching 1-D arrays")
    if np.unique(powers).size < 3:
        raise ValueError("need at least 3 distinct powers")
    if not (np.all(powers > 0) and np.all(np.isfinite([powers, counts]))):
        raise ValueError("powers must be positive and finite, and counts finite")
    names = ("i_s_cps", "p0_mw")
    if float(np.ptp(counts)) <= 1e-9 * max(float(np.max(np.abs(counts))), 1e-300):
        raise IllConditionedFitError(*names, "count rate does not vary with power")
    p0 = np.array([2.0 * float(np.max(counts)), float(np.median(powers))])
    scales = np.array([max(float(np.max(np.abs(counts))), 1e-12), float(np.median(powers))])

    def fun(p):
        model, jac = _saturation_model(powers, p)
        return _normal_equations(model - counts, jac)

    def project(p):
        return np.where(np.all(p > 0), p, np.nan)

    p, jtj, ssr, iterations, converged = _damped_gauss_newton(fun, p0, scales, project)
    if p[1] < 1e-6 * float(np.min(powers)):
        raise IllConditionedFitError(*names, "saturation power collapsed to zero")
    residual_rms = math.sqrt(ssr / powers.size)
    sigmas = _covariance_sigmas(jtj, residual_rms, names)
    return FitResult(names, p, sigmas, residual_rms, iterations, converged)


@dataclass(frozen=True)
class ZfsSeries:
    """Fitted zero-field line centers across laser powers, with a flatness score."""

    powers_mw: np.ndarray
    zfs_hz: np.ndarray
    sigma_hz: np.ndarray
    converged: np.ndarray
    flatness_hz: float


def fit_zfs_series(spectra, powers_mw) -> ZfsSeries:
    """Fit each zero-field spectrum with one Lorentzian; report center vs power.

    The merged zero-field line sits at 2D, so its center is the ZFS marker.
    flatness_hz = max |center - mean(center)| across the series.
    """
    spectra = list(spectra)
    powers = np.asarray(powers_mw, dtype=float)
    if len(spectra) == 0:
        raise ValueError("need at least one spectrum")
    if powers.shape != (len(spectra),):
        raise ValueError("one laser power per spectrum required")
    centers, sigmas, converged = [], [], []
    for spec in spectra:
        res = fit_lorentzian_multi(spec, n_peaks=1)
        centers.append(res.value("center1_hz"))
        sigmas.append(res.sigma("center1_hz"))
        converged.append(res.converged)
    zfs = np.array(centers)
    flatness = float(np.max(np.abs(zfs - zfs.mean())))
    return ZfsSeries(powers, zfs, np.array(sigmas), np.array(converged), flatness)
