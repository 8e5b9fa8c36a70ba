"""Nonlinear least-squares fitting of ODMR spectra and saturation curves.

One damped Gauss-Newton core drives both model families (multi-Lorentzian
spectra and photon-rate saturation) and the field refinement of
inversion.py, with analytic Jacobians, Marquardt diagonal damping and
monotone step acceptance.  The core runs a stack of independent problems
in lock step (one model call per round for every live problem, each with
its own damping and exit); a fit is a stack of one.  Callers constrain it
through a projection of the trial stack, and every trial that is not
finite is rejected by one rule.  Parameter uncertainties come from the
linearized covariance sigma^2 * inv(J^T J) with sigma^2 = residual_rms^2;
residuals are assumed i.i.d. Gaussian, which is a documented
simplification.  Lorentzian fits are seeded from the most prominent
maxima of the smoothed trace, found by a monotone-stack prominence scan.
The Lorentzian Jacobian is built parameter-major, one contiguous row per
parameter handed to the core as its (n, n_params) transpose view, because
writing strided columns of an (n, n_params) array cost more than the
model's arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectrum import OdmrSpectrum

MAX_ITERATIONS = 200
STEP_RTOL = 1e-8      # per-parameter relative step for convergence
SSR_RTOL = 1e-10      # relative residual-change for convergence
COND_LIMIT = 1e12     # correlation-matrix condition beyond which a fit is degenerate
SEED_FWHM_HZ = 10e6   # initial linewidth guess when no init is given


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
    """Fitted parameters with 1-sigma uncertainties and solver diagnostics."""

    names: tuple[str, ...]
    values: np.ndarray
    sigmas: np.ndarray
    residual_rms: float
    iterations: int
    converged: bool
    grad_norm: float = 0.0

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


def _sq_norms(v: np.ndarray) -> np.ndarray:
    """Row-wise v @ v of an (k, m) stack, each a BLAS dot as for one row alone."""
    return np.matmul(v[:, None, :], v[:, :, None])[:, 0, 0]


def _damped_gauss_newton(
    fun, p0, scales, project=None, max_iter=MAX_ITERATIONS, max_damping=1e12
):
    """Minimize sum(r^2) for r, J = fun(p) starting from p0.

    Marquardt damping on the normal equations, (JtJ + lam*diag(JtJ)) d = -Jt r;
    lam shrinks tenfold after an accepted step and grows tenfold on rejection,
    so accepted residuals are monotonically non-increasing.  Convergence:
    every |step_i| <= STEP_RTOL * scales_i, or the relative SSR change drops
    below SSR_RTOL.  scales are fixed, data-derived magnitudes so that the
    iteration is exactly equivariant under axis shifts and rescalings.

    A 1-D p0 is one problem: fun maps a point to (r, J) and the return
    values are p, r, J, ssr, iterations, converged, grad_norm.  A (k, n) p0
    is a stack of k independent problems run in lock step: fun maps a
    (k', n) stack of trial points to (k', m) residuals and (k', m, n)
    Jacobians in one call, and every return value gains a leading axis of
    k.  In both forms project maps a (k', n) stack of trial points to the
    feasible points that replace them.  A trial row that is not finite,
    because project marked it NaN or because its system was singular, is
    rejected like a rise in SSR: lam grows tenfold and the problem retries
    next round.  Each problem keeps its own lam, acceptance, iteration count
    and exit (converged, max_iter, or its lam past max_damping, where it
    stops unconverged at its last accepted point), and the products are
    per-problem BLAS calls, so each follows exactly the trajectory it
    follows alone.
    """
    if np.ndim(p0) == 1:
        one = fun
        p, r, jac, ssr, iterations, converged, grad_norm = _damped_gauss_newton(
            lambda q: tuple(a[None] for a in one(q[0])), [p0], scales, project, max_iter,
            max_damping,
        )
        return (
            p[0], r[0], jac[0], float(ssr[0]), int(iterations[0]), bool(converged[0]),
            float(grad_norm[0]),
        )

    p = np.array(p0, dtype=float)
    scales = np.asarray(scales, dtype=float)
    k = p.shape[0]
    r, jac = fun(p)
    ssr = _sq_norms(r)
    lam = np.full(k, 1e-3)
    converged = np.zeros(k, dtype=bool)
    live = np.full(k, max_iter > 0)   # not yet exited
    iterations = live.astype(int)
    jtj, jtr, damp = _normal_equations(jac, r)
    while True:
        live &= lam <= max_damping
        rows = np.flatnonzero(live)
        if rows.size == 0:
            break
        trial = p[rows] + _solve_rows(jtj[rows] + lam[rows, None, None] * damp[rows], -jtr[rows])
        if project is not None:
            trial = project(trial)
        ok = np.all(np.isfinite(trial), axis=1)
        lam[rows[~ok]] *= 10.0
        rows, trial = rows[ok], trial[ok]
        if rows.size == 0:
            continue
        r_try, jac_try = fun(trial)
        ssr_try = _sq_norms(r_try)
        ok = ssr_try <= ssr[rows]
        lam[rows[~ok]] *= 10.0
        acc = rows[ok]
        if acc.size == 0:
            continue
        step_small = np.all(np.abs(trial[ok] - p[acc]) <= STEP_RTOL * scales, axis=1)
        ssr_flat = np.abs(ssr[acc] - ssr_try[ok]) <= SSR_RTOL * np.maximum(ssr[acc], 1e-300)
        p[acc] = trial[ok]
        if acc.size == k:
            r, jac = r_try, jac_try
        else:
            r[acc] = r_try[ok]
            jac[acc] = jac_try[ok]
        ssr[acc] = ssr_try[ok]
        lam[acc] = np.maximum(lam[acc] / 10.0, 1e-12)
        done = step_small | ssr_flat
        converged[acc] = done
        live[acc] = ~done & (iterations[acc] < max_iter)
        more = acc[live[acc]]
        if more.size:
            iterations[more] += 1
            new_jtj, new_jtr, new_damp = _normal_equations(jac, r)
            jtj[more], jtr[more], damp[more] = new_jtj[more], new_jtr[more], new_damp[more]
    grad = 2.0 * np.matmul(jac.transpose(0, 2, 1), r[:, :, None])[:, :, 0]
    return p, r, jac, ssr, iterations, converged, np.sqrt(_sq_norms(grad))


def _normal_equations(jac: np.ndarray, r: np.ndarray):
    """JtJ, Jt r and the zero-safe Marquardt diagonal of a stack of problems.

    A zero diagonal entry of JtJ damps with the largest one (or 1), so that
    a parameter the residuals do not see still takes bounded steps.
    """
    jac_t = jac.transpose(0, 2, 1)
    jtj = np.matmul(jac_t, jac_t.transpose(0, 2, 1))
    jtr = np.matmul(jac_t, r[:, :, None])[:, :, 0]
    eye = np.arange(jtj.shape[1])
    diag = jtj[:, eye, eye]
    top = diag.max(axis=1, keepdims=True)
    damp = np.zeros_like(jtj)
    damp[:, eye, eye] = np.where(diag <= 0, np.where(top > 0, top, 1.0), diag)
    return jtj, jtr, damp


def _solve_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-row solutions of a stack of linear systems, NaN rows where singular."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:
        out = np.full(b.shape, np.nan)
        for i, (ai, bi) in enumerate(zip(a, b)):
            try:
                out[i] = np.linalg.solve(ai, bi)
            except np.linalg.LinAlgError:
                pass
        return out


def _covariance_sigmas(jac: np.ndarray, residual_rms: float, names) -> np.ndarray:
    """1-sigma uncertainties from the linearized covariance at the solution.

    Raises IllConditionedFitError when the correlation matrix of J^T J is
    numerically singular, naming the most degenerate parameter pair.
    """
    jtj = jac.T @ jac
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


def _lorentzian_model(freq: np.ndarray, params: np.ndarray, n_peaks: int):
    """Residual-ready model and Jacobian: baseline + sum of Lorentzians.

    Parameter layout: [baseline, center1, fwhm1, amp1, (center2, fwhm2, amp2)].
    The Jacobian is the transpose view of a C-contiguous (n_params, n)
    buffer whose rows are written in place.
    """
    model = np.full(freq.size, params[0])
    rows = np.empty((1 + 3 * n_peaks, freq.size))
    rows[0] = 1.0
    for k in range(n_peaks):
        f0, w, a = params[1 + 3 * k : 4 + 3 * k]
        d_center, d_fwhm, d_amp = rows[1 + 3 * k : 4 + 3 * k]
        # den lives in the amp row and w * den * den in the center row until
        # each is overwritten last; every product keeps the order of
        # 4a u / (w den den), 2a u u / (w den den) and 1 / den.
        u = freq - f0
        u /= w / 2.0
        den = np.multiply(u, u, out=d_amp)
        den += 1.0
        model += a / den
        wden2 = np.multiply(den, w, out=d_center)
        wden2 *= den
        np.multiply(u, 2.0 * a, out=d_fwhm)
        d_fwhm *= u
        d_fwhm /= wden2
        np.divide(1.0, den, out=d_amp)
        u *= 4.0 * a
        np.divide(u, wden2, out=d_center)
    return model, rows.T


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
    raise IllConditionedFitError.
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
    baseline = float(np.median(signal))
    if init is None:
        p0 = _seed_lorentzian(freq, signal, n_peaks, baseline)
    else:
        p0 = np.array(init, dtype=float)
        if p0.shape != (1 + 3 * n_peaks,):
            raise ValueError(f"init must have {1 + 3 * n_peaks} entries: {names}")
        if np.any(p0[2::3][:n_peaks] <= 0):
            raise ValueError("initial widths must be positive")

    span = float(freq[-1] - freq[0])
    sig_scale = max(float(np.max(np.abs(signal - baseline))), 1e-12)
    scales = np.array([sig_scale] + [span, span, sig_scale] * n_peaks)
    width_slots = [2 + 3 * k for k in range(n_peaks)]

    def fun(p):
        model, jac = _lorentzian_model(freq, p, n_peaks)
        return model - signal, jac

    def project(p):
        return np.where(np.all(p[:, width_slots] > 0, axis=1, keepdims=True), p, np.nan)

    p, r, jac, ssr, iterations, converged, grad_norm = _damped_gauss_newton(
        fun, p0, scales, project
    )
    residual_rms = math.sqrt(ssr / freq.size)
    sigmas = _covariance_sigmas(jac, residual_rms, names)
    return FitResult(tuple(names), p, sigmas, residual_rms, iterations, converged, grad_norm)


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
    if np.any(powers <= 0) or not np.all(np.isfinite(counts)):
        raise ValueError("powers must be positive and counts finite")
    names = ("i_s_cps", "p0_mw")
    if float(np.ptp(counts)) <= 1e-9 * max(float(np.max(np.abs(counts))), 1e-300):
        raise IllConditionedFitError(*names, "count rate does not vary with power")
    p0 = np.array([2.0 * float(np.max(counts)), float(np.median(powers))])
    scales = np.array([max(float(np.max(np.abs(counts))), 1e-12), float(np.median(powers))])

    def fun(p):
        model, jac = _saturation_model(powers, p)
        return model - counts, jac

    def project(p):
        return np.where(np.all(p > 0, axis=1, keepdims=True), p, np.nan)

    p, r, jac, ssr, iterations, converged, grad_norm = _damped_gauss_newton(
        fun, p0, scales, project
    )
    if p[1] < 1e-6 * float(np.min(powers)):
        raise IllConditionedFitError(*names, "saturation power collapsed to zero")
    residual_rms = math.sqrt(ssr / powers.size)
    sigmas = _covariance_sigmas(jac, residual_rms, names)
    return FitResult(names, p, sigmas, residual_rms, iterations, converged, grad_norm)


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
