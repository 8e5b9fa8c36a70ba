"""Nonlinear least-squares fitting of ODMR spectra and saturation curves.

One damped Gauss-Newton core drives both model families (multi-Lorentzian
spectra and photon-rate saturation) and the field refinement of
inversion.py, with analytic Jacobians, Marquardt
diagonal damping and monotone step acceptance.  Parameter uncertainties
come from the linearized covariance sigma^2 * inv(J^T J) with
sigma^2 = residual_rms^2; residuals are assumed i.i.d. Gaussian, which is
a documented simplification.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.signal import find_peaks

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


def _damped_gauss_newton(fun, p0, scales, project=None, max_iter=MAX_ITERATIONS):
    """Minimize sum(r^2) for r, J = fun(p) starting from p0.

    Marquardt damping on the normal equations, (JtJ + lam*diag(JtJ)) d = -Jt r;
    lam shrinks tenfold after an accepted step and grows tenfold on rejection,
    so accepted residuals are monotonically non-increasing.  Convergence:
    every |step_i| <= STEP_RTOL * scales_i, or the relative SSR change drops
    below SSR_RTOL.  scales are fixed, data-derived magnitudes so that the
    iteration is exactly equivariant under axis shifts and rescalings.
    project maps a trial point to the feasible point that replaces it, or
    to None to reject it, which grows lam as a rise in SSR does.
    """
    p = np.array(p0, dtype=float)
    scales = np.asarray(scales, dtype=float)
    r, jac = fun(p)
    ssr = float(r @ r)
    lam = 1e-3
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ r
        diag = np.diag(jtj).copy()
        diag[diag <= 0] = np.max(diag) if np.max(diag) > 0 else 1.0
        accepted = False
        while lam <= 1e12:
            try:
                delta = np.linalg.solve(jtj + lam * np.diag(diag), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            p_try = p + delta
            if project is not None:
                p_try = project(p_try)
                if p_try is None:
                    lam *= 10.0
                    continue
            r_try, jac_try = fun(p_try)
            ssr_try = float(r_try @ r_try)
            if ssr_try <= ssr:
                accepted = True
                break
            lam *= 10.0
        if not accepted:
            break
        step_small = bool(np.all(np.abs(p_try - p) <= STEP_RTOL * scales))
        ssr_flat = abs(ssr - ssr_try) <= SSR_RTOL * max(ssr, 1e-300)
        p, r, jac, ssr = p_try, r_try, jac_try, ssr_try
        lam = max(lam / 10.0, 1e-12)
        if step_small or ssr_flat:
            converged = True
            break
    grad_norm = float(np.linalg.norm(2.0 * (jac.T @ r)))
    return p, r, jac, ssr, iterations, converged, grad_norm


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
    """
    model = np.full(freq.size, params[0])
    jac = np.zeros((freq.size, 1 + 3 * n_peaks))
    jac[:, 0] = 1.0
    for k in range(n_peaks):
        f0, w, a = params[1 + 3 * k : 4 + 3 * k]
        u = (freq - f0) / (w / 2.0)
        den = 1.0 + u * u
        model += a / den
        jac[:, 1 + 3 * k] = 4.0 * a * u / (w * den * den)
        jac[:, 2 + 3 * k] = 2.0 * a * u * u / (w * den * den)
        jac[:, 3 + 3 * k] = 1.0 / den
    return model, jac


def _seed_lorentzian(freq: np.ndarray, signal: np.ndarray, n_peaks: int) -> np.ndarray:
    """Initial guess: smooth, then take the largest-prominence maxima.

    Moving-average window of 5 points; missing peaks (merged or absent
    lines) fall back to evenly spaced positions across the grid.  The
    smoothed trace is bracketed by baseline-level samples so a line whose
    crest sits near the window edge keeps its full prominence instead of
    being measured against its own truncated shoulder.
    """
    smoothed = np.convolve(np.pad(signal, 2, mode="edge"), np.full(5, 0.2), mode="valid")
    baseline = float(np.median(signal))
    span = freq[-1] - freq[0]
    bracketed = np.concatenate(([baseline], smoothed, [baseline]))
    idx, props = find_peaks(bracketed, prominence=0.0)
    idx = np.clip(idx - 1, 0, freq.size - 1)
    order = np.argsort(props["prominences"])[::-1]
    centers = [float(freq[idx[k]]) for k in order[:n_peaks]]
    amps = [max(float(smoothed[idx[k]] - baseline), 1e-12) for k in order[:n_peaks]]
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
    if init is None:
        p0 = _seed_lorentzian(freq, signal, n_peaks)
    else:
        p0 = np.array(init, dtype=float)
        if p0.shape != (1 + 3 * n_peaks,):
            raise ValueError(f"init must have {1 + 3 * n_peaks} entries: {names}")
        if np.any(p0[2::3][:n_peaks] <= 0):
            raise ValueError("initial widths must be positive")

    span = float(freq[-1] - freq[0])
    sig_scale = max(float(np.max(np.abs(signal - np.median(signal)))), 1e-12)
    scales = np.array([sig_scale] + [span, span, sig_scale] * n_peaks)
    width_slots = [2 + 3 * k for k in range(n_peaks)]

    def fun(p):
        model, jac = _lorentzian_model(freq, p, n_peaks)
        return model - signal, jac

    def project(p):
        return p if np.all(p[width_slots] > 0) else None

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
        return p if p[0] > 0 and p[1] > 0 else None

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
