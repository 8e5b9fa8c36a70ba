"""Estimation-module tests.

The analytic Jacobians are validated against a central finite-difference
oracle; round-trip identifiability is checked on synthetic data built
outside the fitter (no shared model code beyond the formulas themselves).
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from sivodmr import fitting
from sivodmr.fitting import (
    FitResult,
    IllConditionedFitError,
    ZfsSeries,
    _covariance_sigmas,
    _damped_gauss_newton,
    _lorentzian_model,
    _prominent_maxima,
    _saturation_model,
    _solve_rows,
    fit_lorentzian_multi,
    fit_saturation,
    fit_zfs_series,
)
from sivodmr.spectrum import OdmrSpectrum

SIGMA_BENCH = 1.0 / math.sqrt(2.064e6)  # per-point noise at 206.4 Mcps x 10 ms


def two_peak_signal(freq, baseline, peaks):
    """Independent synthesis: baseline + sum of A/(1+((f-f0)/(w/2))^2)."""
    out = np.full_like(freq, baseline, dtype=float)
    for f0, w, a in peaks:
        out += a / (1.0 + ((freq - f0) / (w / 2.0)) ** 2)
    return out


def make_spectrum(n=4601, baseline=0.0, peaks=((98.148e6, 13e6, 1.8e-3), (238.148e6, 13e6, 1.8e-3)), seed=None, sigma=SIGMA_BENCH):
    freq = np.linspace(50e6, 280e6, n)
    signal = two_peak_signal(freq, baseline, peaks)
    if seed is not None:
        signal = signal + np.random.default_rng(seed).normal(0.0, sigma, n)
    return OdmrSpectrum(freq, signal)


def fd_jacobian(fun, p, scales):
    """Central finite differences of the residual vector."""
    r0, jac = fun(p)
    out = np.zeros_like(jac)
    for i in range(p.size):
        h = 1e-6 * scales[i]
        pp = p.copy()
        pp[i] += h
        rp, _ = fun(pp)
        pm = p.copy()
        pm[i] -= h
        rm, _ = fun(pm)
        out[:, i] = (rp - rm) / (2.0 * h)
    return jac, out


def test_lorentzian_jacobian_matches_finite_differences(rng):
    freq = np.linspace(50e6, 280e6, 301)
    for _ in range(20):
        params = np.array(
            [
                rng.normal(0, 1e-3),
                rng.uniform(80e6, 120e6),
                rng.uniform(5e6, 20e6),
                rng.uniform(5e-4, 3e-3),
                rng.uniform(200e6, 260e6),
                rng.uniform(5e6, 20e6),
                rng.uniform(5e-4, 3e-3),
            ]
        )

        def fun(p):
            model, jac = _lorentzian_model(freq, p, 2)
            return model, jac

        scales = np.array([1e-3, 230e6, 230e6, 1e-3, 230e6, 230e6, 1e-3])
        jac, fd = fd_jacobian(fun, params, scales)
        denom = np.maximum(np.abs(fd).max(axis=0), 1e-300)
        rel = np.abs(jac - fd).max(axis=0) / denom
        assert np.all(rel <= 1e-5)


@pytest.mark.parametrize("n_peaks", [1, 2])
def test_lorentzian_jacobian_is_parameter_major_and_bit_exact(rng, n_peaks):
    """One contiguous row per parameter, each bit-equal to the column formulas."""
    freq = np.linspace(50e6, 280e6, 4601)
    for _ in range(10):
        params = [rng.normal(0, 1e-3)]
        for _ in range(n_peaks):
            params += [rng.uniform(60e6, 270e6), rng.uniform(1e6, 30e6), rng.uniform(-3e-3, 3e-3)]
        params = np.array(params)
        model, jac = _lorentzian_model(freq, params, n_peaks)
        assert jac.shape == (freq.size, 1 + 3 * n_peaks)
        assert jac.T.flags.c_contiguous
        expected_model = np.full(freq.size, params[0])
        assert np.array_equal(jac[:, 0], np.ones(freq.size))
        for k in range(n_peaks):
            f0, w, a = params[1 + 3 * k : 4 + 3 * k]
            u = (freq - f0) / (w / 2.0)
            den = 1.0 + u * u
            expected_model += a / den
            assert np.array_equal(jac[:, 1 + 3 * k], 4.0 * a * u / (w * den * den))
            assert np.array_equal(jac[:, 2 + 3 * k], 2.0 * a * u * u / (w * den * den))
            assert np.array_equal(jac[:, 3 + 3 * k], 1.0 / den)
        assert np.array_equal(model, expected_model)


def test_saturation_jacobian_matches_finite_differences(rng):
    powers = np.array([1.0, 5.0, 10.0, 20.0, 40.0, 60.0, 85.0, 150.0, 300.0])
    for _ in range(20):
        params = np.array([rng.uniform(5e8, 1.5e9), rng.uniform(50.0, 600.0)])

        def fun(p):
            return _saturation_model(powers, p)

        jac, fd = fd_jacobian(fun, params, np.array([1e9, 300.0]))
        denom = np.maximum(np.abs(fd).max(axis=0), 1e-300)
        rel = np.abs(jac - fd).max(axis=0) / denom
        assert np.all(rel <= 1e-5)


def test_noiseless_two_peak_recovery_machine_precision():
    spec = make_spectrum(n=461)
    res = fit_lorentzian_multi(spec, 2)
    assert res.converged
    truth = {
        "baseline": 0.0,
        "center1_hz": 98.148e6,
        "fwhm1_hz": 13e6,
        "amp1": 1.8e-3,
        "center2_hz": 238.148e6,
        "fwhm2_hz": 13e6,
        "amp2": 1.8e-3,
    }
    for name, expect in truth.items():
        got = res.value(name)
        if expect == 0.0:
            assert abs(got) <= 1e-6 * 1.8e-3
        else:
            assert got == pytest.approx(expect, rel=1e-6)
    assert res.residual_rms <= 1e-9 * 1.8e-3


def test_seeded_two_peak_recovery_bench_snr():
    # grid density is a free choice (only noise level and tolerances are
    # pinned); 2.5 kHz spacing keeps the per-fit width error near 0.2 MHz
    spec = make_spectrum(n=92001, seed=42)
    res = fit_lorentzian_multi(spec, 2)
    assert res.converged
    assert res.value("center1_hz") == pytest.approx(98.148e6, rel=5e-3)
    assert res.value("center2_hz") == pytest.approx(238.148e6, rel=5e-3)
    assert res.value("fwhm1_hz") == pytest.approx(13e6, rel=5e-2)
    assert res.value("fwhm2_hz") == pytest.approx(13e6, rel=5e-2)
    # reported uncertainties should bracket the actual errors at this SNR
    assert abs(res.value("center1_hz") - 98.148e6) <= 5 * res.sigma("center1_hz")
    assert res.sigma("center1_hz") > 0


def test_single_peak_zero_amplitude_noisy():
    freq = np.linspace(50e6, 110e6, 601)
    signal = np.random.default_rng(7).normal(0.0, 6.96e-4, freq.size)
    res = fit_lorentzian_multi(OdmrSpectrum(freq, signal), 1)
    assert res.converged
    assert abs(res.value("amp1")) <= 3.0 * res.sigma("amp1")


def test_explicit_init_is_honored():
    spec = make_spectrum(n=461)
    init = [0.0, 95e6, 12e6, 1.5e-3, 240e6, 12e6, 1.5e-3]
    res = fit_lorentzian_multi(spec, 2, init=init)
    assert res.converged
    assert res.value("center1_hz") == pytest.approx(98.148e6, rel=1e-6)
    with pytest.raises(ValueError):
        fit_lorentzian_multi(spec, 2, init=[0.0, 95e6, 12e6])
    with pytest.raises(ValueError):
        fit_lorentzian_multi(spec, 2, init=[0.0, 95e6, -1e6, 1e-3, 240e6, 12e6, 1e-3])


def test_merged_peaks_seeding_fallback():
    # both lines at the same center: the seeder finds one prominent maximum,
    # the second seed comes from the fallback and the fit still converges
    spec = make_spectrum(
        n=801, peaks=((70e6, 13e6, 1.8e-3), (70e6, 13e6, 1.8e-3))
    )
    res = fit_lorentzian_multi(spec, 2)
    assert res.converged
    assert res.residual_rms <= 1e-8


def test_fit_rejects_bad_inputs():
    spec = make_spectrum(n=461)
    with pytest.raises(ValueError):
        fit_lorentzian_multi(spec, 3)
    tiny = OdmrSpectrum(np.linspace(0, 1e8, 8), np.zeros(8))
    with pytest.raises(ValueError):
        fit_lorentzian_multi(tiny, 2)


def test_fit_result_validation():
    with pytest.raises(ValueError):
        FitResult(("a",), np.array([1.0, 2.0]), np.array([0.1, 0.1]), 0.0, 1, True)
    with pytest.raises(ValueError):
        FitResult(("a",), np.array([1.0]), np.array([-0.1]), 0.0, 1, True)


def test_fit_invariance_under_axis_shift_and_scale():
    spec = make_spectrum(n=461)
    res = fit_lorentzian_multi(spec, 2)

    shift = 1.7e8
    shifted = OdmrSpectrum(spec.freq_hz + shift, spec.signal)
    res_shift = fit_lorentzian_multi(shifted, 2)
    assert res_shift.value("center1_hz") - shift == pytest.approx(
        res.value("center1_hz"), rel=1e-9
    )
    assert res_shift.value("fwhm1_hz") == pytest.approx(res.value("fwhm1_hz"), rel=1e-9)

    scale = 3.0
    scaled = OdmrSpectrum(spec.freq_hz * scale, spec.signal)
    res_scale = fit_lorentzian_multi(scaled, 2)
    assert res_scale.value("center2_hz") / scale == pytest.approx(
        res.value("center2_hz"), rel=1e-9
    )
    assert res_scale.value("fwhm2_hz") / scale == pytest.approx(
        res.value("fwhm2_hz"), rel=1e-9
    )


def test_residual_never_increases_vs_seed():
    spec = make_spectrum(seed=3)
    p0_model, _ = _lorentzian_model(spec.freq_hz, np.array([0.0, 90e6, 10e6, 1e-3, 230e6, 10e6, 1e-3]), 2)
    start_rms = math.sqrt(float(np.mean((p0_model - spec.signal) ** 2)))
    res = fit_lorentzian_multi(
        spec, 2, init=[0.0, 90e6, 10e6, 1e-3, 230e6, 10e6, 1e-3]
    )
    assert res.residual_rms <= start_rms


def test_core_reports_non_convergence():
    # one iteration cannot reach the minimum from a bad start
    freq = np.linspace(50e6, 280e6, 201)
    signal = two_peak_signal(freq, 0.0, [(98e6, 13e6, 1.8e-3)])

    def fun(p):
        model, jac = _lorentzian_model(freq, p, 1)
        return model - signal, jac

    p, r, jac, ssr, iterations, converged, grad = _damped_gauss_newton(
        fun,
        np.array([0.0, 70e6, 30e6, 5e-4]),
        np.array([1e-3, 2.3e8, 2.3e8, 1e-3]),
        max_iter=1,
    )
    assert not converged
    assert iterations == 1


def test_core_stack_matches_solo_runs_bit_for_bit():
    # four problems, one per exit: converged, max_iter, every trial made
    # non-finite by project, and lam overflowing under a sign-flipped Jacobian.  The
    # last coordinate labels the problem; its Jacobian column is zero, so no
    # step moves it.
    def one(p):
        x, y, label = p
        if label == 1:  # Rosenbrock: slow from (-1.2, 1)
            r = np.array([10.0 * (y - x * x), 1.0 - x])
            jac = np.array([[-20.0 * x, 10.0, 0.0], [-1.0, 0.0, 0.0]])
        else:
            r = np.array([x - 1.0, y - 2.0])
            jac = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
            if label == 3:
                jac = -jac
        return r, jac

    def stacked(points):
        rs, jacs = zip(*(one(p) for p in points))
        return np.array(rs), np.array(jacs)

    def project(p):
        return np.where(p[:, 2:] == 2, np.nan, p)

    p0 = np.array([[0.0, 0.0, 0.0], [-1.2, 1.0, 1.0], [0.0, 0.0, 2.0], [0.0, 0.0, 3.0]])
    scales = np.array([1.0, 1.0, 1.0])
    max_iter = 8
    p, r, jac, ssr, iterations, converged, grad = _damped_gauss_newton(
        stacked, p0, scales, project, max_iter
    )
    assert converged.tolist() == [True, False, False, False]
    assert iterations.tolist()[1:] == [max_iter, 1, 1]
    assert iterations[0] < max_iter
    np.testing.assert_array_equal(p[2:], p0[2:])
    np.testing.assert_array_equal(p[:, 2], p0[:, 2])
    for i in range(len(p0)):
        solo = _damped_gauss_newton(one, p0[i], scales, project, max_iter)
        assert p[i].tobytes() == solo[0].tobytes()
        assert r[i].tobytes() == solo[1].tobytes()
        assert jac[i].tobytes() == solo[2].tobytes()
        assert (ssr[i], iterations[i], converged[i], grad[i]) == solo[3:]


def test_core_damping_cap_stops_a_row_stranded_on_a_jump():
    # row 0 is linear; row 1's first residual jumps by 5 past x = 0.3, so its
    # undamped first trial (x near 1) is rejected and every later step that
    # crosses the jump is too: the row creeps toward the jump under rising lam
    def one(p):
        x, y, label = p
        r = np.array([x - 1.0, y - 2.0])
        if label == 1:
            r[0] += 5.0 * (x > 0.3)
        return r, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])

    trials = []

    def stacked(points):
        trials.append(points.copy())
        rs, jacs = zip(*(one(p) for p in points))
        return np.array(rs), np.array(jacs)

    p0 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    scales = np.ones(3)
    max_iter = 40
    rounds = {}
    for cap in (1e12, 1e3):
        trials.clear()
        p, r, jac, ssr, iterations, converged, grad = _damped_gauss_newton(
            stacked, p0, scales, None, max_iter, cap
        )
        rounds[cap] = len(trials)
        assert trials[1][1, 0] > 0.3  # the first trial of row 1 crosses the jump
        if cap == 1e3:
            assert converged.tolist() == [True, False]
            assert iterations[1] < max_iter
            assert p[1, 0] < 0.3
        for i in range(2):
            solo = _damped_gauss_newton(one, p0[i], scales, None, max_iter, cap)
            assert p[i].tobytes() == solo[0].tobytes()
            assert (ssr[i], iterations[i], converged[i]) == solo[3:6]
    assert rounds[1e3] < rounds[1e12] / 2


def test_solve_rows_singular_row_is_nan_others_solo():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(5, 3, 3))
    b = rng.normal(size=(5, 3))
    a[2, :, 1] = 0.0  # a zero column: an exactly zero pivot
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.solve(a, b[:, :, None])
    got = _solve_rows(a, b)
    assert np.all(np.isnan(got[2]))
    for i in (0, 1, 3, 4):
        assert got[i].tobytes() == np.linalg.solve(a[i], b[i]).tobytes()


def test_covariance_sigmas_names_the_degenerate_pair():
    jac = np.array([[1.0, 0.0, 2.0], [2.0, 1.0, 4.0], [0.0, 3.0, 0.0], [1.0, -1.0, 2.0]])
    names = ("a", "b", "c")
    with pytest.raises(IllConditionedFitError, match="singular") as err:
        _covariance_sigmas(jac, 1.0, names)  # columns a and c are proportional
    assert set(err.value.param_pair) == {"a", "c"}
    jac[:, 1] = 0.0
    with pytest.raises(IllConditionedFitError, match="vanished") as err:
        _covariance_sigmas(jac, 1.0, names)
    assert err.value.param_pair[0] == "b"


def test_saturation_noiseless_recovery():
    powers = np.array([1.0, 5.0, 10.0, 20.0, 40.0, 60.0, 85.0, 150.0, 300.0])
    counts = 935e6 / (1.0 + 300.0 / powers)
    res = fit_saturation(powers, counts)
    assert res.converged
    assert res.value("i_s_cps") == pytest.approx(935e6, rel=1e-6)
    assert res.value("p0_mw") == pytest.approx(300.0, rel=1e-6)


def test_saturation_noisy_recovery_median():
    # denser log-spaced sampling than the noiseless anchor grid: the noisy
    # tolerance is statistical, and the sweep layout is a free choice
    powers = np.geomspace(1.0, 300.0, 61)
    truth = 935e6 / (1.0 + 300.0 / powers)
    rng = np.random.default_rng(11)
    errs_is, errs_p0 = [], []
    for _ in range(50):
        counts = truth * (1.0 + rng.normal(0.0, 0.01, truth.size))
        res = fit_saturation(powers, counts)
        errs_is.append(abs(res.value("i_s_cps") / 935e6 - 1.0))
        errs_p0.append(abs(res.value("p0_mw") / 300.0 - 1.0))
    assert np.median(errs_is) <= 0.02
    assert np.median(errs_p0) <= 0.02


def test_saturation_flat_data_raises_named_pair():
    powers = np.array([1.0, 10.0, 100.0])
    for counts, detail in (
        (np.full(3, 5e8), "does not vary"),
        ([3e8, 2e8, 1e8], "collapsed to zero"),  # counts falling with power drive P0 to 0
    ):
        with pytest.raises(IllConditionedFitError, match=detail) as err:
            fit_saturation(powers, counts)
        assert err.value.param_pair == ("i_s_cps", "p0_mw")


def test_saturation_input_validation():
    with pytest.raises(ValueError):
        fit_saturation([1.0, 1.0, 1.0], [1e8, 2e8, 3e8])
    with pytest.raises(ValueError):
        fit_saturation([1.0, -2.0, 3.0], [1e8, 2e8, 3e8])
    with pytest.raises(ValueError):
        fit_saturation([1.0, 2.0], [1e8, 2e8])
    with pytest.raises(ValueError, match="matching"):
        fit_saturation([1.0, 2.0, 3.0], [1e8, 2e8])


def test_zfs_series_flat(consts):
    rng_seed = 100
    powers = np.array([1.0, 5.0, 20.0, 40.0, 80.0])
    spectra = []
    for k, p in enumerate(powers):
        freq = np.linspace(30e6, 110e6, 801)
        signal = two_peak_signal(freq, 0.0, [(70e6, 13e6, 3.3e-3)])
        noise = np.random.default_rng(rng_seed + k).normal(0.0, 2e-4, freq.size)
        spectra.append(OdmrSpectrum(freq, signal + noise))
    series = fit_zfs_series(spectra, powers)
    assert isinstance(series, ZfsSeries)
    assert series.zfs_hz.shape == (5,)
    assert np.all(series.converged)
    assert series.flatness_hz <= max(float(series.sigma_hz.max()) * 3, 5e4)
    assert np.all(np.abs(series.zfs_hz - 70e6) < 0.3e6)


def test_zfs_series_errors():
    with pytest.raises(ValueError):
        fit_zfs_series([], [])
    spec = make_spectrum(n=101, peaks=((70e6, 13e6, 3e-3),))
    with pytest.raises(ValueError):
        fit_zfs_series([spec], [1.0, 2.0])


def test_seeding_finds_line_truncated_at_window_edge():
    # A crest sitting just inside the sweep boundary loses most of its peak
    # prominence to its own truncated shoulder; the seed must still prefer it
    # over noise bumps elsewhere in the window.
    freq = np.linspace(50e6, 280e6, 9201)
    signal = two_peak_signal(
        freq, 0.0, [(179.087e6, 12.1e6, 1.6e-3), (279.313e6, 12.1e6, 1.7e-3)]
    )
    signal = signal + np.random.default_rng(42).normal(0.0, 2.5e-4, freq.size)
    res = fit_lorentzian_multi(OdmrSpectrum(freq, signal), n_peaks=2)
    assert res.converged
    assert abs(res.value("center1_hz") - 179.087e6) < 0.5e6
    assert abs(res.value("center2_hz") - 279.313e6) < 0.5e6


def reference_prominent_maxima(x, n):
    """The n most prominent maxima by scipy.signal.find_peaks, the reference.

    A stable sort fixes the order of equal prominences (later index first),
    which the default sort kind leaves open.
    """
    find_peaks = pytest.importorskip("scipy.signal").find_peaks
    idx, props = find_peaks(x, prominence=0.0)
    order = np.argsort(props["prominences"], kind="stable")[::-1][:n]
    return idx[order], props["prominences"][order]


def assert_same_maxima(x, n):
    x = np.asarray(x, dtype=float)
    want_idx, want_prom = reference_prominent_maxima(x, n)
    got_idx, got_prom = _prominent_maxima(x, n)
    np.testing.assert_array_equal(got_idx, want_idx)
    assert got_prom.tobytes() == want_prom.tobytes()  # bit for bit
    return got_idx


@pytest.mark.parametrize("n_points", [401, 4601, 92001])
@pytest.mark.parametrize("n", [1, 2])
def test_prominent_maxima_match_reference_on_spectra(n_points, n):
    for seed in (3, 11):
        signal = make_spectrum(n=n_points, seed=seed).signal
        smoothed = np.convolve(np.pad(signal, 2, mode="edge"), np.full(5, 0.2), mode="valid")
        assert_same_maxima(signal, n)
        assert_same_maxima(np.concatenate(([0.0], smoothed, [0.0])), n)


@pytest.mark.parametrize(
    "x, n, want",
    [
        ([0, 1, 3, 3, 3, 3, 1, 2, 0], 2, [3, 7]),      # even plateau: midpoint (2 + 5) // 2
        ([0, 3, 3, 3, 1, 2, 0], 2, [2, 5]),            # odd plateau: its middle sample
        ([0, 5, 4, 3, 2, 3.5, 0.5, 0], 2, [1, 5]),     # crest next to the bracket value
        ([2, 2, 1, 0, 1, 2, 2], 2, []),                # plateaus touching the ends
        ([0, 2, 0, 2, 0], 1, [3]),                     # equal prominences: later index
        ([0, 3, 1, 3, 0.5, 2, 0], 3, [3, 1, 5]),       # an equal height is not higher
        ([0, 1, 0], 2, [1]),                           # fewer maxima than n
        ([0, 1, 0, 0.5, 0], 3, [1, 3]),
        (np.zeros(12), 2, []),                         # flat
        (np.arange(12.0), 2, []),                      # monotone
        (np.arange(12.0)[::-1], 1, []),
    ],
)
def test_prominent_maxima_hand_made(x, n, want):
    assert assert_same_maxima(x, n).tolist() == want


def test_prominent_maxima_grow_to_every_maximum(monkeypatch):
    # A single deep notch in noise keeps the bound height - min(x) above every
    # prominence, so the candidate set has to grow until it holds all maxima.
    sizes = []
    inner = fitting._prominences

    def counting(x, peaks):
        sizes.append(peaks.size)
        return inner(x, peaks)

    monkeypatch.setattr(fitting, "_prominences", counting)
    x = np.random.default_rng(5).uniform(size=4000)
    x[1234] = -100.0
    for n in (1, 2):
        sizes.clear()
        assert_same_maxima(x, n)
        assert len(sizes) > 2 and sizes[-1] == fitting._local_maxima(x).size
    for seed in range(20):  # pure noise, wherever the search stops
        x = np.random.default_rng(seed).normal(size=300 * (seed + 1))
        assert_same_maxima(x, 1 + seed % 3)
        # integer noise: plateaus and equal heights everywhere
        assert_same_maxima(np.random.default_rng(seed).integers(0, 4, 500), 1 + seed % 3)


def test_prominent_maxima_look_past_a_jittery_crest():
    # 60 bumps on a tall crest outrank a lower, well separated line by height,
    # yet all but the crest's top have tiny prominences: the search must grow
    # past them to find the line.
    crest = 1e-3 * (1.0 - np.linspace(-1.0, 1.0, 241) ** 2)
    crest[1::4] += 2e-6
    line = 0.9e-3 * (1.0 - np.linspace(-1.0, 1.0, 41) ** 2)
    x = np.concatenate((np.zeros(5), crest, np.zeros(20), line, np.zeros(5)))
    idx = assert_same_maxima(x, 2)
    assert idx[1] == 5 + 241 + 20 + 20
