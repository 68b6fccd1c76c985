"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; the slow criteria (1, 2, 5) take a couple of minutes together.
"""

import math
import os
import time

import numpy as np

from oracles import brute_force_autocorr
from mmwchan.capacity import CapacityConfig, capacity_quantiles, frequency_response, run_monte_carlo, wideband_capacity
from mmwchan.cirgen import CirGenConfig, check_void_intervals, generate_initial_cir
from mmwchan.cli import parse_config
from mmwchan.core import (
    ArrayGeometry,
    AutocorrParams,
    ChannelImpulseResponse,
    FadingModel,
    Scenario,
    all_scenarios,
    lookup_default_params,
)
from mmwchan.estimators import (
    AutocorrCurve,
    TrackMeasurement,
    average_autocorr,
    estimate_k_factor,
    fit_autocorr_mmse,
    spatial_autocorrelation,
)
from mmwchan.spatial import (
    CorrelatedTap,
    build_amplitude_matched_corr,
    build_ula_corr_matrix,
    draw_tap_noise,
    matrix_sqrt_psd,
    realize_taps,
    tap_matrices,
)

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def report(num: int, desc: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {desc} {detail}"


def _run_recipe(cfg):
    medians = {}
    for fading in cfg.fading_models:
        samples = run_monte_carlo(
            scenario=cfg.scenario,
            gen_config=cfg.cir_gen,
            rx_geometry=cfg.rx_array,
            tx_geometry=cfg.tx_array,
            fading=fading,
            cap_config=cfg.capacity,
            num_drops=cfg.num_drops,
            master_seed=cfg.master_seed,
            autocorr_params=cfg.resolved_autocorr(),
        )
        medians[fading.label()] = capacity_quantiles(samples.capacity)[0.5]
    return medians


def test_criterion_1_simo_capacity_ordering():
    cfg = parse_config(os.path.join(CONFIG_DIR, "fig5.cfg"))
    assert cfg.rx_array.num_elements == 20 and cfg.tx_array.num_elements == 1
    assert cfg.num_drops == 2000 and cfg.capacity.snr_db == 10.0
    t0 = time.monotonic()
    med = _run_recipe(cfg)
    elapsed = time.monotonic() - t0
    gap5 = med["rician5dB"] - med["rayleigh"]
    gap15 = med["rician15dB"] - med["rayleigh"]
    larger = max(gap5, gap15)
    ok = gap5 > 0 and gap15 > 0 and 0.1 <= larger <= 0.6 and elapsed < 60.0
    report(
        1,
        "SIMO 1x20 medians: Rician above Rayleigh, larger gain in [0.1, 0.6] b/s/Hz",
        ok,
        f"(gap K5 {gap5:+.3f}, gap K15 {gap15:+.3f}, {elapsed:.1f}s)",
    )


def test_criterion_2_mimo_capacity_ordering():
    cfg = parse_config(os.path.join(CONFIG_DIR, "fig6.cfg"))
    assert cfg.rx_array.num_elements == 20 and cfg.tx_array.num_elements == 2
    t0 = time.monotonic()
    med = _run_recipe(cfg)
    elapsed = time.monotonic() - t0
    g1 = med["rayleigh"] - med["rician5dB"]
    g2 = med["rician5dB"] - med["rician15dB"]
    ok = g1 > 0.05 and g2 > 0.05 and elapsed < 120.0
    report(
        2,
        "MIMO 2x20 median ordering Rayleigh > Rician K5 > Rician K15, gaps > 0.05",
        ok,
        f"(Rayleigh-K5 {g1:+.3f}, K5-K15 {g2:+.3f}, {elapsed:.1f}s)",
    )


def test_criterion_3_analytic_capacity_oracles():
    cfg = CapacityConfig(snr_db=10.0)
    fr = frequency_response([CorrelatedTap(matrix=np.array([[1.0 + 0j]]), delay=0.0)], cfg)
    c_siso = wideband_capacity(fr, cfg, n_t=1)
    err_siso = abs(c_siso - math.log2(11.0))

    cfg0 = CapacityConfig(snr_db=0.0)
    fr20 = frequency_response(
        [CorrelatedTap(matrix=np.ones((20, 1), dtype=complex), delay=0.0)], cfg0
    )
    c_simo = wideband_capacity(fr20, cfg0, n_t=1)
    err_simo = abs(c_simo - math.log2(21.0))
    ok = err_siso < 1e-9 and err_simo < 1e-9
    report(
        3,
        "analytic capacity oracles log2(11) and log2(21) within 1e-9",
        ok,
        f"(errors {err_siso:.2e}, {err_simo:.2e})",
    )


def test_criterion_4_kronecker_identity():
    params = AutocorrParams(0.9, 1.0, -0.1)
    rng = np.random.default_rng(404)
    rr = build_ula_corr_matrix(params, ArrayGeometry(num_elements=4), rng)
    rt = build_ula_corr_matrix(params, ArrayGeometry(num_elements=3), rng, side="transmit")
    a = matrix_sqrt_psd(rr)
    b = matrix_sqrt_psd(rt)
    n = 100_000
    white, _ = draw_tap_noise(rng, n, 4, 3, False)
    taps = tap_matrices(white, None, np.ones(n), a, b, FadingModel.rayleigh())
    vecs = taps.transpose(0, 2, 1).reshape(n, 12)  # each tap flattened column-major
    cov = vecs.T @ vecs.conj() / n
    theory = np.kron(rt.entries.T, rr.entries)
    err = float(np.max(np.abs(cov - theory)))
    ok = err < 0.02
    report(4, "Kronecker covariance identity at 1e5 Rayleigh draws, max-entry error < 2%", ok, f"(error {err:.4f})")


def test_criterion_5_autocorrelation_round_trip():
    n_pos = 132
    max_lag_steps = 20
    ntracks = 10_000
    zeros = np.zeros((2, 2))
    worst = 0.0
    details = []
    for scen in all_scenarios():
        defaults = lookup_default_params(scen)
        if defaults.autocorr is None:
            continue
        params = defaults.autocorr
        fading = FadingModel.rician(defaults.mid_k_db())
        cir = ChannelImpulseResponse(
            delays=[0.0, 60e-9], powers=[0.6, 0.4], phases=zeros[:, 0], aod=zeros, aoa=zeros, scenario=scen
        )
        corr = build_amplitude_matched_corr(params, ArrayGeometry(num_elements=n_pos, spacing=0.5), fading)
        a_sqrt = matrix_sqrt_psd(corr)
        ones = np.ones((1, 1))
        rng = np.random.default_rng(2024)
        acc = cnt = lags = None
        for _ in range(ntracks):
            taps = realize_taps(cir, a_sqrt, ones, fading, rng)
            grid = np.column_stack([np.abs(t.matrix[:, 0]) for t in taps])
            curve = average_autocorr(
                TrackMeasurement(amplitudes=grid, delta_x=0.5), min_overlap=n_pos - max_lag_steps
            )
            v = curve.values
            if acc is None:
                acc = np.zeros_like(v)
                cnt = np.zeros_like(v)
                lags = curve.lags
            mask = np.isfinite(v)
            acc[mask] += v[mask]
            cnt[mask] += 1
        mean_curve = AutocorrCurve(lags=lags, values=np.clip(acc / np.maximum(cnt, 1), -1.0, 1.0))
        fit = fit_autocorr_mmse(mean_curve)
        errs = (
            abs(fit.params.a - params.a),
            abs(fit.params.b - params.b),
            abs(fit.params.c - params.c),
        )
        worst = max(worst, max(errs))
        details.append(f"{scen.label()} {max(errs):.3f}")
    ok = worst <= 0.15
    report(
        5,
        "simulate -> estimate -> fit recovers each fitted triple within 0.15 (1e4 tracks each)",
        ok,
        "(worst errors: " + ", ".join(details) + ")",
    )


def test_criterion_6_k_factor_round_trip():
    n_trials = 100
    failures = {}
    rng = np.random.default_rng(606)
    for k_db in (3.0, 5.0, 9.0, 15.0):
        fading = FadingModel.rician(k_db)
        hits = 0
        for _ in range(n_trials):
            white, psi = draw_tap_noise(rng, 1, 250, 400, True)  # 1e5 entries
            h = tap_matrices(white, psi, np.ones(1), np.eye(250), np.eye(400), fading)[0]
            p = (np.abs(h) ** 2).ravel()
            est = estimate_k_factor(p / p.mean())
            hits += est.ok and abs(est.k_db - k_db) <= 1.0
        failures[k_db] = n_trials - hits
    ok = all(n_trials - bad >= 95 for bad in failures.values())
    report(
        6,
        "moment K estimate within 1 dB for K in {3,5,9,15} dB at 1e5 samples, 95% of trials",
        ok,
        f"(misses per K: {failures})",
    )


def test_criterion_7_estimator_oracle_equivalence():
    rng = np.random.default_rng(707)
    cases = []
    for _ in range(50):
        n_pos = int(rng.integers(9, 17))
        n_bins = int(rng.integers(1, 9))
        cases.append((rng.random((n_pos, n_bins)) * 2.0, 8))
    # the benchmark's 132 x 2 tracks, tracks past 40 positions, and one-lag
    # grids, where a pairwise sum would differ from an index-order one
    for n_pos, n_bins, min_overlap in ((132, 2, 112), (132, 2, 8), (75, 3, 8), (50, 1, 50), (50, 2, 50), (9, 2, 9)):
        cases.append((rng.random((n_pos, n_bins)) * 2.0, min_overlap))
    mismatches = 0
    for amps, min_overlap in cases:
        track = TrackMeasurement(amplitudes=amps, delta_x=0.5)
        for b in range(amps.shape[1]):
            curve = spatial_autocorrelation(track, b, min_overlap=min_overlap)
            col = [float(x) for x in amps[:, b]]
            for lag, got in enumerate(curve.values):
                ref = brute_force_autocorr(col, lag)
                if math.isnan(ref):
                    if not math.isnan(got):
                        mismatches += 1
                elif got != ref:
                    mismatches += 1
    ok = mismatches == 0
    report(7, "autocorrelation estimator matches brute-force double loop bit-for-bit", ok, f"({mismatches} mismatches)")


def test_criterion_8_structural_invariants():
    problems = []

    # repaired correlation matrices: Hermitian, PSD, unit diagonal
    for scen in all_scenarios():
        params = lookup_default_params(scen).autocorr
        if params is None:
            continue
        for n in (2, 8, 20):
            for seed in (0, 1, 2):
                e = build_ula_corr_matrix(params, ArrayGeometry(num_elements=n), seed).entries
                if not np.allclose(e, e.conj().T, atol=1e-12):
                    problems.append(f"non-Hermitian {scen.label()} n={n}")
                if not np.allclose(np.diag(e), 1.0, atol=1e-12):
                    problems.append(f"diagonal {scen.label()} n={n}")
                if np.linalg.eigvalsh(e).min() < -1e-10:
                    problems.append(f"eigenvalue {scen.label()} n={n}")

    # generated CIRs: void property and unit power
    scen = Scenario.parse("NLOS V-V")
    for seed in range(50):
        cfg = CirGenConfig(num_clusters_range=(1, 4), paths_per_cluster_range=(1, 5))
        cir = generate_initial_cir(cfg, scen, np.random.default_rng(seed))
        if abs(cir.powers.sum() - 1.0) > 1e-9:
            problems.append(f"power seed={seed}")
        if not check_void_intervals(cir, cfg.intercluster_void_ns):
            problems.append(f"void seed={seed}")

    # determinism under fixed seeds across runs and worker counts
    kwargs = dict(
        scenario=scen,
        gen_config=CirGenConfig(),
        rx_geometry=ArrayGeometry(num_elements=5),
        tx_geometry=ArrayGeometry(num_elements=2),
        fading=FadingModel.rician(5.0),
        cap_config=CapacityConfig(),
        num_drops=10,
        master_seed=888,
        autocorr_params=lookup_default_params(scen).autocorr,
    )
    serial_a = run_monte_carlo(**kwargs, num_workers=1)
    serial_b = run_monte_carlo(**kwargs, num_workers=1)
    parallel = run_monte_carlo(**kwargs, num_workers=2)
    if not np.array_equal(serial_a, serial_b):
        problems.append("rerun determinism")
    if not np.array_equal(serial_a, parallel):
        problems.append("worker-count determinism")

    ok = not problems
    report(8, "repaired-matrix, CIR void/power, and seed-determinism invariants", ok, f"({problems})")
