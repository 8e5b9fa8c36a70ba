"""Estimation-module tests.

The analytic Jacobians are validated against a central finite-difference
oracle; round-trip identifiability is checked on synthetic data built
outside the fitter (no shared model code beyond the formulas themselves).
"""

from __future__ import annotations

import math
import tracemalloc

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
    _lorentzian_normal_equations,
    _normal_equations,
    _prominent_maxima,
    _saturation_model,
    fit_lorentzian_multi,
    fit_saturation,
    fit_zfs_series,
)
from sivodmr.spectrum import _BLOCK, AcquisitionConfig, OdmrSpectrum, synthesize_spectrum
from sivodmr.spin_model import FieldVector, PhysicalConstants

SIGMA_BENCH = 1.0 / math.sqrt(2.064e6)  # per-point noise at 206.4 Mcps x 10 ms


def two_peak_signal(freq, baseline, peaks):
    """Independent synthesis: baseline + sum of A/(1+((f-f0)/(w/2))^2)."""
    out = np.full_like(freq, baseline, dtype=float)
    for f0, w, a in peaks:
        out += a / (1.0 + ((freq - f0) / (w / 2.0)) ** 2)
    return out


def make_spectrum(n=4601, baseline=0.0, peaks=((98.148e6, 13e6, 1.8e-3), (238.148e6, 13e6, 1.8e-3)), seed=None, sigma=SIGMA_BENCH, freq=None):
    """Lines on freq, by default n points over 50-280 MHz."""
    freq = np.linspace(50e6, 280e6, n) if freq is None else freq
    signal = two_peak_signal(freq, baseline, peaks)
    if seed is not None:
        signal = signal + np.random.default_rng(seed).normal(0.0, sigma, freq.size)
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


@pytest.mark.parametrize(
    "slot, bad",
    [(2, math.nan), (1, math.inf), (0, math.nan)],
    ids=["nan_width", "inf_center", "nan_baseline"],
)
def test_fit_rejects_a_non_finite_init(slot, bad):
    init = [0.0, 98.148e6, 13e6, 1.8e-3, 238.148e6, 13e6, 1.8e-3]
    init[slot] = bad
    with pytest.raises(ValueError, match="init must be finite"):
        fit_lorentzian_multi(make_spectrum(n=461), 2, init=init)


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


def single_stage_fit(spec):
    """A two-line fit with no binned stage: the core run on the full trace
    from the fit's own seed, scales and projection."""
    freq, signal = spec.freq_hz, spec.signal
    baseline = float(np.median(signal))
    p0 = fitting._seed_lorentzian(freq, signal, 2, baseline)
    span = float(freq[-1] - freq[0])
    sig_scale = max(float(np.max(np.abs(signal - baseline))), 1e-12)
    rows = np.empty((8, min(_BLOCK, freq.size)))

    def fun(p):
        return _lorentzian_normal_equations(freq, signal, p, 2, rows)

    def project(p):
        return np.where(np.all(p[[2, 5]] > 0), p, np.nan)

    p, jtj, ssr, iterations, converged = _damped_gauss_newton(
        fun, p0, np.array([sig_scale] + [span, span, sig_scale] * 2), project
    )
    names = ("baseline", "center1_hz", "fwhm1_hz", "amp1", "center2_hz", "fwhm2_hz", "amp2")
    residual_rms = math.sqrt(ssr / freq.size)
    sigmas = _covariance_sigmas(jtj, residual_rms, names)
    return FitResult(names, p, sigmas, residual_rms, iterations, converged)


def evaluation_sizes(monkeypatch):
    """Record the length of the data at every evaluation of a Lorentzian fit's
    normal equations, one per point the core visits, however many blocks."""
    sizes = []

    def spy(freq, signal, p, n_peaks, rows, root_weight=None):
        sizes.append(freq.size)
        return _lorentzian_normal_equations(freq, signal, p, n_peaks, rows, root_weight)

    monkeypatch.setattr(fitting, "_lorentzian_normal_equations", spy)
    return sizes


@pytest.mark.parametrize(
    "n, bins",
    [
        (92_001, 4182),  # 22 points per bin and 19 in the last
        (2 * fitting.COARSE_POINTS + 3, 4098),  # 2 per bin and 1 in the last
    ],
)
def test_binned_stage_agrees_with_the_single_stage_fit(monkeypatch, n, bins):
    spec = make_spectrum(n=n, seed=19)
    ref = single_stage_fit(spec)
    sizes = evaluation_sizes(monkeypatch)
    seed_sizes = []

    def seed_spy(freq, signal, n_peaks, baseline):
        seed_sizes.append((freq.size, signal.size))
        return seed(freq, signal, n_peaks, baseline)

    seed = fitting._seed_lorentzian
    monkeypatch.setattr(fitting, "_seed_lorentzian", seed_spy)
    res = fit_lorentzian_multi(spec, 2)
    # the seed and baseline come from the bins, the binned stage is capped
    # at the core's rounds, and the node stage follows on fewer nodes than
    # there are bins: no evaluation at full resolution
    nodes = sizes[-1]
    assert seed_sizes == [(bins, bins)]
    assert nodes < bins and n not in sizes
    assert sizes == [bins] * sizes.count(bins) + [nodes] * sizes.count(nodes)
    assert sizes.count(bins) <= 1 + fitting.MAX_ITERATIONS
    assert ref.converged and res.converged
    assert np.all(np.abs(res.values - ref.values) <= 1e-3 * ref.sigmas)
    assert np.all(np.abs(res.sigmas - ref.sigmas) <= 1e-4 * ref.sigmas)


def test_binned_stage_leaves_no_full_size_evaluation(monkeypatch):
    # full-resolution evaluations of the normal equations, however many blocks
    # each: the binned stage converges, then the node stage converges in two
    # rounds from there, three evaluations on the nodes
    spec = make_spectrum(n=92_001, seed=19)
    sizes = evaluation_sizes(monkeypatch)
    res = fit_lorentzian_multi(spec, 2)
    assert res.converged
    assert sizes.count(92_001) == 0
    assert sizes[-3:] == [sizes[-1]] * 3 and sizes.count(sizes[-1]) == 3
    assert len(sizes) - 3 <= 1 + fitting.MAX_ITERATIONS
    # iterations counts the node stage's rounds
    assert res.iterations == 2


def test_full_resolution_calls_of_one_fit_share_one_jacobian_buffer(monkeypatch):
    # one (8, _BLOCK) buffer of Jacobian and residual rows per 92 001-point
    # fit, reused by every block of every evaluation, binned, on the nodes or
    # at full resolution, and by the moment pass that builds the nodes; no
    # model call is longer than a block, and no full-size Jacobian exists.
    # A noiseless spectrum has sigmas at rounding level, so the guard refuses
    # the node stage and the damped full-resolution stage evaluates many times
    n = 92_001
    spec = make_spectrum(n=n)
    fit_lorentzian_multi(spec, 2)  # a process's first fit allocates about 1 MB more, once
    calls, moment_rows = [], []

    def spy(freq, params, n_peaks, **kwargs):
        calls.append((freq.size, kwargs["out"]))
        return _lorentzian_model(freq, params, n_peaks, **kwargs)

    def nodes_spy(freq, signal, k, rows):
        moment_rows.append(rows)
        return nodes(freq, signal, k, rows)

    sizes = evaluation_sizes(monkeypatch)
    nodes = fitting._simpson_nodes
    monkeypatch.setattr(fitting, "_lorentzian_model", spy)
    monkeypatch.setattr(fitting, "_simpson_nodes", nodes_spy)
    tracemalloc.start()
    try:
        res = fit_lorentzian_multi(spec, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged and sizes.count(n) >= 2
    assert len(set(sizes)) == 3  # bins, nodes and the full trace
    assert len(calls) == sum(-(-size // _BLOCK) for size in sizes)
    assert max(size for size, _ in calls) <= _BLOCK
    buffer = calls[0][1].base
    assert buffer.shape == (8, _BLOCK) and buffer.flags.c_contiguous
    assert all(out.base is buffer for _, out in calls)
    assert len(moment_rows) == 1 and moment_rows[0] is buffer
    # the buffer and its per-block temporaries take about 1.4 MB; a 7-row
    # full-size Jacobian alone would take 5.15 MB
    assert peak < 8 * _BLOCK * 8 + 2 * n * 8


def test_a_refused_node_stage_evaluates_the_binned_optimum_at_full_resolution_once(monkeypatch):
    # the noiseless spectrum's guard refuses the node stage; the damped
    # full-resolution stage then starts at the binned optimum, which is
    # evaluated there once and nowhere else at full resolution
    n = 92_001
    spec = make_spectrum(n=n)
    points, runs = [], []

    def spy(freq, signal, p, n_peaks, rows, root_weight=None):
        points.append((freq.size, p.copy()))
        return _lorentzian_normal_equations(freq, signal, p, n_peaks, rows, root_weight)

    def recorded(*args):
        runs.append(core(*args))
        return runs[-1]

    core = fitting._damped_gauss_newton
    monkeypatch.setattr(fitting, "_lorentzian_normal_equations", spy)
    monkeypatch.setattr(fitting, "_damped_gauss_newton", recorded)
    res = fit_lorentzian_multi(spec, 2)
    assert len(runs) == 3 and runs[0][4] and runs[1][4]  # binned, nodes, full
    binned = runs[0][0]
    full = [p for size, p in points if size == n]
    assert np.array_equal(full[0], binned)
    assert sum(np.array_equal(p, binned) for p in full) == 1
    assert np.array_equal(res.values, runs[2][0]) and res.iterations == runs[2][3]


def binned_optimum_and_nodes(monkeypatch, spec):
    """Fit spec and return the binned stage's optimum and the k the fit's
    moment pass used, with the fit."""
    runs, ks = [], []

    def recorded(*args):
        runs.append(core(*args))
        return runs[-1]

    def nodes_spy(freq, signal, k, rows):
        ks.append(k)
        return nodes(freq, signal, k, rows)

    core, nodes = fitting._damped_gauss_newton, fitting._simpson_nodes
    monkeypatch.setattr(fitting, "_damped_gauss_newton", recorded)
    monkeypatch.setattr(fitting, "_simpson_nodes", nodes_spy)
    res = fit_lorentzian_multi(spec, 2)
    monkeypatch.undo()
    assert len(ks) == 1
    return runs[0][0], ks[0], res


def test_node_normal_equations_match_the_full_trace_at_the_binned_optimum(monkeypatch):
    # the parity tool's 60 G chain spectrum; at the binned optimum the nodes'
    # JtWJ, JtW r and corrected SSR against the exact blocked sums over all
    # 92 001 points, each entry against its Cauchy-Schwarz bound as in
    # test_blocked_normal_equations_match_the_dense_products (measured:
    # 2e-13, 1.5e-8 and 2.9e-9 relative; the Gauss-Newton steps 7.9e-6 sigma)
    spec = axial_spectrum_60g()
    freq, signal = spec.freq_hz, spec.signal
    p, k, _ = binned_optimum_and_nodes(monkeypatch, spec)
    rows = np.empty((8, _BLOCK))
    nodes, root_w, pseudo, unseen = fitting._simpson_nodes(freq, signal, k, rows)
    ssr_n, jtj_n, jtr_n = _lorentzian_normal_equations(nodes, pseudo, p, 2, rows, root_w)
    ssr_n += unseen
    ssr, jtj, jtr = _lorentzian_normal_equations(freq, signal, p, 2, rows)
    scale = np.sqrt(np.diagonal(jtj))
    assert nodes.size < freq.size // 20
    assert np.all(np.abs(jtj_n - jtj) <= 1e-10 * np.outer(scale, scale))
    assert np.all(np.abs(jtr_n - jtr) <= 1e-6 * scale * math.sqrt(ssr))
    assert ssr_n == pytest.approx(ssr, rel=1e-7)
    sigmas = _covariance_sigmas(jtj, math.sqrt(ssr / freq.size), list(range(7)))
    step_n, step = np.linalg.solve(jtj_n, -jtr_n), np.linalg.solve(jtj, -jtr)
    assert np.all(np.abs(step_n - step) <= 1e-4 * sigmas)


def test_narrow_lines_on_a_wide_sweep_stay_on_the_nodes(monkeypatch):
    # 8 MHz lines on a 30-2000 MHz sweep of 92 001 points: 5 points per node
    # bin, where a fixed number of bins would be too coarse
    freq = np.linspace(30e6, 2000e6, 92_001)
    spec = make_spectrum(freq=freq, peaks=[(500e6, 8e6, 1.8e-3), (1500e6, 8e6, 1.8e-3)], seed=19)
    ref = single_stage_fit(spec)
    sizes = evaluation_sizes(monkeypatch)
    res = fit_lorentzian_multi(spec, 2)
    assert 92_001 not in sizes
    assert ref.converged and res.converged
    assert np.all(np.abs(res.values - ref.values) <= 1e-3 * ref.sigmas)


@pytest.mark.parametrize(
    "freq, last",
    [
        (np.geomspace(50e6, 280e6, 92_001), None),
        (np.linspace(50e6, 280e6, 92_041), 41),
        (np.linspace(50e6, 280e6, 92_001), 1),  # a bin with eps = 0: one node
    ],
    ids=["geometric", "short_last_bin", "one_point_last_bin"],
)
def test_node_stage_agrees_with_the_single_stage_fit(monkeypatch, freq, last):
    spec = make_spectrum(freq=freq, seed=19)
    ref = single_stage_fit(spec)
    _, k, res = binned_optimum_and_nodes(monkeypatch, spec)
    if last is not None:
        assert freq.size % k == last
    assert ref.converged and res.converged
    assert np.all(np.abs(res.values - ref.values) <= 1e-3 * ref.sigmas)
    assert np.all(np.abs(res.sigmas - ref.sigmas) <= 1e-4 * ref.sigmas)


def test_lines_too_narrow_for_node_bins_go_to_full_resolution(monkeypatch):
    # 5 MHz lines on 8 195 points over 230 MHz: under 4 points per node bin,
    # which would make no fewer nodes than points, so the damped stage runs
    # on the full trace from the binned optimum
    n = 2 * fitting.COARSE_POINTS + 3
    spec = make_spectrum(n=n, peaks=[(98.148e6, 5e6, 1.8e-3), (238.148e6, 5e6, 1.8e-3)], seed=19)
    ref = single_stage_fit(spec)
    sizes = evaluation_sizes(monkeypatch)
    res = fit_lorentzian_multi(spec, 2)
    assert set(sizes) == {4098, n}
    assert ref.converged and res.converged
    assert np.all(np.abs(res.values - ref.values) <= 1e-3 * ref.sigmas)


def test_simpson_nodes_match_every_bin_s_moments(rng):
    # a non-uniform grid of 7 q + 1 points in bins of 7: every full bin's
    # three nodes reproduce its moments 0-2 of d = f - fbar and of d weighted
    # by the signal, and the one-point last bin keeps one node; the SSR part
    # the nodes miss is sum s^2 - sum v^2 / w
    k, q = 7, 300
    freq = np.cumsum(rng.uniform(0.5, 1.5, k * q + 1)) * 1e3 + 50e6
    signal = rng.normal(1e-3, 1e-3, freq.size)
    nodes, root_w, pseudo, unseen = fitting._simpson_nodes(freq, signal, k, np.empty((5, 64)))
    assert nodes.size == 3 * q + 1
    w, v = root_w**2, root_w**2 * pseudo
    f_bins = freq[:-1].reshape(q, k)
    fbar = f_bins.mean(axis=1)
    d = f_bins - fbar[:, None]
    s = signal[:-1].reshape(q, k)
    # nodes - fbar carries the rounding of fbar +- eps, about 2e-12 of eps
    x = nodes[:-1].reshape(q, 3) - fbar[:, None]
    for j in range(3):
        scale = (np.abs(d) ** j).sum(axis=1)
        assert np.allclose((w[:-1].reshape(q, 3) * x**j).sum(axis=1), (d**j).sum(axis=1),
                           rtol=0, atol=1e-10 * scale.max())
        assert np.allclose((v[:-1].reshape(q, 3) * x**j).sum(axis=1), (d**j * s).sum(axis=1),
                           rtol=0, atol=1e-10 * (scale * np.abs(s).max()).max())
    assert np.allclose(w[:-1].reshape(q, 3), [k / 6, 2 * k / 3, k / 6], rtol=1e-12)
    assert (nodes[-1], w[-1], pseudo[-1]) == (freq[-1], 1.0, signal[-1])
    assert unseen == pytest.approx(float(signal @ signal - v @ pseudo), rel=1e-12)


def test_moment_pass_makes_no_full_size_temporary():
    # the pass writes offsets into the fit's buffer, whole bins at a time;
    # what it allocates scales with the bins, under one full-size array
    spec = axial_spectrum_60g()
    n = spec.freq_hz.size
    rows = np.empty((8, _BLOCK))
    fitting._simpson_nodes(spec.freq_hz, spec.signal, 80, rows)
    tracemalloc.start()
    try:
        fitting._simpson_nodes(spec.freq_hz, spec.signal, 80, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < n * 8


def test_fit_below_the_binning_threshold_is_the_single_stage_fit(monkeypatch):
    sizes = evaluation_sizes(monkeypatch)
    for n in (4601, 2 * fitting.COARSE_POINTS - 1):
        spec = make_spectrum(n=n, seed=19)
        ref = single_stage_fit(spec)
        sizes.clear()
        res = fit_lorentzian_multi(spec, 2)
        assert set(sizes) == {n} and len(sizes) > 1  # no binned stage, no node stage
        assert np.array_equal(res.values, ref.values)
        assert np.array_equal(res.sigmas, ref.sigmas)
        assert (res.residual_rms, res.iterations, res.converged) == (
            ref.residual_rms, ref.iterations, ref.converged
        )


def axial_spectrum_60g():
    """The parity tool's 60 G axial 92 001-point spectrum, noise seed 7."""
    cfg = AcquisitionConfig(
        f_start_hz=50e6, f_stop_hz=280e6, n_points=92_001,
        dwell_s=10e-3, laser_mw=85.0, mw_dbm=18.0, seed=7,
    )
    return synthesize_spectrum(cfg, FieldVector(60e-4, 0.0), PhysicalConstants())


def test_far_init_falls_back_and_raises_the_same_error(monkeypatch):
    # from this init the binned stage wanders off the sweep and does not
    # converge, so the fit skips the node stage and hands the binned point to
    # the damped full-resolution stage, which ends on singular normal equations
    sizes = evaluation_sizes(monkeypatch)
    init = [0.0, 70e6, 30e6, 1e-3, 200e6, 30e6, 1e-3]
    with pytest.raises(IllConditionedFitError, match="singular normal equations") as err:
        fit_lorentzian_multi(axial_spectrum_60g(), 2, init=init)
    assert err.value.param_pair == ("fwhm1_hz", "amp1")
    assert sizes.count(92_001) > 1


def test_unconverged_binned_stage_falls_back_to_the_damped_stage(monkeypatch):
    # cap the binned stage at one round: it stops unconverged, and the fit
    # is the damped core run on the full trace from where it stopped
    spec = make_spectrum(n=92_001, seed=19)
    ref = single_stage_fit(spec)
    sizes = evaluation_sizes(monkeypatch)
    runs = []
    core = fitting._damped_gauss_newton
    limit = fitting.MAX_ITERATIONS

    def capped(*args):
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", limit if runs else 1)
        runs.append(core(*args))
        return runs[-1]

    monkeypatch.setattr(fitting, "_damped_gauss_newton", capped)
    res = fit_lorentzian_multi(spec, 2)
    assert len(runs) == 2 and not runs[0][4]
    p, _, _, iterations, converged = runs[1]
    assert np.array_equal(res.values, p)
    assert converged and (res.iterations, res.converged) == (iterations, converged)
    assert sizes.count(92_001) == iterations + 1
    assert np.all(np.abs(res.values - ref.values) <= 1e-3 * ref.sigmas)


def test_core_reports_non_convergence(monkeypatch):
    # one iteration cannot reach the minimum from a bad start
    freq = np.linspace(50e6, 280e6, 201)
    signal = two_peak_signal(freq, 0.0, [(98e6, 13e6, 1.8e-3)])

    def fun(p):
        model, jac = _lorentzian_model(freq, p, 1)
        return _normal_equations(model - signal, jac)

    with monkeypatch.context() as m:
        m.setattr(fitting, "MAX_ITERATIONS", 1)
        p, jtj, ssr, iterations, converged = _damped_gauss_newton(
            fun,
            np.array([0.0, 70e6, 30e6, 5e-4]),
            np.array([1e-3, 2.3e8, 2.3e8, 1e-3]),
            lambda p: p,
        )
    assert not converged
    assert iterations == 1

    # a projection that rejects every trial, and a sign-flipped Jacobian
    # whose every step climbs: each run stops where it started, unconverged,
    # once lam passes 1e12
    def linear(p):
        return _normal_equations(p - np.array([1.0, 2.0]), np.eye(2))

    def flipped(p):
        return _normal_equations(p - np.array([1.0, 2.0]), -np.eye(2))

    for fun, project in ((linear, lambda p: np.full_like(p, np.nan)), (flipped, lambda p: p)):
        p, jtj, ssr, iterations, converged = _damped_gauss_newton(
            fun, np.zeros(2), np.ones(2), project
        )
        assert not converged
        assert iterations == 1
        assert p.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("detours", [1, 100], ids=["then_converges", "to_the_end"])
def test_core_returns_the_normal_matrix_of_its_point_when_fun_reuses_one_buffer(detours):
    # a fit writes every block into one buffer, so a trial that is evaluated
    # and rejected overwrites the accepted point's rows.  project sends
    # trials after the first accepted one to a far point whose SSR is
    # higher: once, or until lam passes 1e12 and the run ends there.  The
    # core must return the accepted point's normal equations
    freq = np.linspace(50e6, 280e6, _BLOCK + 2001)
    signal = two_peak_signal(freq, 0.0, [(98e6, 13e6, 1.8e-3)])
    far = np.array([0.0, 200e6, 5e6, 1e-2])

    def run(buffer):
        trials, ssrs = [], []

        def fun(p):
            rows = np.empty((5, _BLOCK)) if buffer is None else buffer
            ssr, jtj, jtr = _lorentzian_normal_equations(freq, signal, p, 1, rows)
            ssrs.append(ssr)
            return ssr, jtj, jtr

        def project(p):
            trials.append(p)
            return far if 2 <= len(trials) < 2 + detours else p

        out = _damped_gauss_newton(
            fun, np.array([0.0, 95e6, 15e6, 1.5e-3]), np.array([1e-3, 2.3e8, 2.3e8, 1e-3]),
            project,
        )
        return out, ssrs

    buffer = np.empty((5, _BLOCK))
    (p, jtj, ssr, iterations, converged), ssrs = run(buffer)
    # the first trial was accepted and the detour evaluated and rejected
    assert ssrs[1] < ssrs[0] < ssrs[2]
    model, jac = _lorentzian_model(freq, p, 1)
    r = model - signal
    scale = np.sqrt(np.diagonal(jac.T @ jac))
    assert np.all(np.abs(jtj - jac.T @ jac) <= 1e-13 * np.outer(scale, scale))
    assert ssr == min(ssrs) and ssr == pytest.approx(float(r @ r), rel=1e-13)
    if detours == 1:
        assert converged
    else:
        # the run ended on rejected detours: the buffer holds the far point's rows
        assert not converged
        _, far_jac = _lorentzian_model(freq[-2001:], far, 1)
        assert np.array_equal(buffer[:4, :2001], far_jac.T)
    # a fresh buffer per call gives the same run, bit for bit
    (p_f, jtj_f, ssr_f, iterations_f, converged_f), _ = run(None)
    assert np.array_equal(p, p_f) and np.array_equal(jtj, jtj_f)
    assert (ssr, iterations, converged) == (ssr_f, iterations_f, converged_f)


@pytest.mark.parametrize("n", [7, _BLOCK - 1, _BLOCK, _BLOCK + 1, 92_001])
def test_blocked_normal_equations_match_the_dense_products(rng, n):
    # the blocks change only the order of the sums: every entry of the
    # Gram matrix [[JtJ, Jtr], [Jtr, ssr]] within 1e-13 of the geometric
    # mean of its two diagonal entries (the Cauchy-Schwarz bound on it)
    freq = np.linspace(50e6, 280e6, n)
    signal = two_peak_signal(freq, 0.0, [(98e6, 13e6, 1.8e-3), (238e6, 13e6, 1.8e-3)])
    signal += rng.normal(0.0, SIGMA_BENCH, n)
    rows = np.empty((8, min(_BLOCK, n)))
    for p in ([0.0, 98e6, 13e6, 1.8e-3, 238e6, 13e6, 1.8e-3],
              [1e-4, 90e6, 10e6, 1e-3, 230e6, 10e6, 1e-3]):
        p = np.array(p)
        ssr, jtj, jtr = _lorentzian_normal_equations(freq, signal, p, 2, rows)
        model, jac = _lorentzian_model(freq, p, 2)
        r = model - signal
        want_ssr, want_jtj, want_jtr = _normal_equations(r, jac)
        scale = np.sqrt(np.diagonal(want_jtj))
        assert ssr == pytest.approx(want_ssr, rel=1e-13)
        assert np.all(np.abs(jtj - want_jtj) <= 1e-13 * np.outer(scale, scale))
        assert np.all(np.abs(jtr - want_jtr) <= 1e-13 * scale * math.sqrt(want_ssr))


def test_core_rejects_a_singular_system_and_retries_with_more_damping(monkeypatch):
    # JtJ + lam * diag(JtJ) is positive definite for lam > 0, so a singular
    # system comes only from rounding; inject one.  The core rejects it like
    # a non-finite trial, solves again with lam ten times larger, and goes on
    # to converge
    a_mat = np.array([[2.0, 1.0], [1.0, 3.0], [0.5, -1.0]])
    y = np.array([1.0, 2.0, 0.5])
    systems = []
    solve = np.linalg.solve

    def singular_once(a, b):
        systems.append(a.copy())
        if len(systems) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    def fun(p):
        return _normal_equations(a_mat @ p - y, a_mat)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    p, jtj, ssr, iterations, converged = _damped_gauss_newton(
        fun, np.zeros(2), np.ones(2), lambda p: p
    )
    assert converged
    assert np.array_equal(jtj, a_mat.T @ a_mat)
    np.testing.assert_allclose(p, np.linalg.lstsq(a_mat, y, rcond=None)[0], rtol=1e-9)
    jtj_diag = np.diagonal(a_mat.T @ a_mat)
    assert systems[0].shape == systems[1].shape == (2, 2)
    np.testing.assert_array_equal(np.diagonal(systems[0]), jtj_diag + 1e-3 * jtj_diag)
    np.testing.assert_array_equal(np.diagonal(systems[1]), jtj_diag + 1e-2 * jtj_diag)


def test_covariance_sigmas_names_the_degenerate_pair():
    jac = np.array([[1.0, 0.0, 2.0], [2.0, 1.0, 4.0], [0.0, 3.0, 0.0], [1.0, -1.0, 2.0]])
    names = ("a", "b", "c")
    with pytest.raises(IllConditionedFitError, match="singular") as err:
        _covariance_sigmas(jac.T @ jac, 1.0, names)  # columns a and c are proportional
    assert set(err.value.param_pair) == {"a", "c"}
    jac[:, 1] = 0.0
    with pytest.raises(IllConditionedFitError, match="vanished") as err:
        _covariance_sigmas(jac.T @ jac, 1.0, names)
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


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_saturation_rejects_non_finite_powers(bad):
    with pytest.raises(ValueError, match="positive and finite"):
        fit_saturation([1.0, 10.0, bad, 100.0], [1e8, 3e8, 4e8, 5e8])


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
