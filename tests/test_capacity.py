import dataclasses
import math
import os

import numpy as np
import pytest
from scipy import stats

from oracles import (
    hypoexponential_cdf,
    rayleigh_simo_mean_capacity,
    rician_eigen_pair_cdf,
    rician_power_cdf,
    rician_two_tap_cdf,
)
from mmwchan.capacity import (
    CapacityConfig,
    _capacities,
    _subcarrier_phases,
    _uses_cross_gram,
    capacity_cdf,
    capacity_quantiles,
    frequency_response,
    run_monte_carlo,
    wideband_capacity,
)
from mmwchan.cirgen import CirGenConfig
from mmwchan.cli import ScenarioConfig, _fixed_cir, parse_config
from mmwchan.core import (
    ArrayGeometry,
    ChannelImpulseResponse,
    FadingModel,
    Scenario,
    db_to_linear,
    lookup_default_params,
)
from mmwchan.spatial import CorrelatedTap, build_amplitude_matched_corr, pipeline_corr_matrices

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")

SCEN = Scenario.parse("NLOS V-V")
PARAMS = lookup_default_params(SCEN).autocorr


def tap(matrix, delay=0.0):
    return CorrelatedTap(matrix=np.asarray(matrix, dtype=complex), delay=delay)


def cir_of(delays, powers):
    """A CIR of the given delays and powers, all angles and phases 0."""
    zeros = np.zeros((len(delays), 2))
    return ChannelImpulseResponse(delays=delays, powers=powers, phases=zeros[:, 0], aod=zeros, aoa=zeros, scenario=SCEN)


class TestCapacityConfig:
    def test_band_edges(self):
        cfg = CapacityConfig()
        f = cfg.baseband_frequencies()
        assert len(f) == 100
        assert f[0] == -400e6
        assert f[-1] < 400e6

    def test_invalid(self):
        with pytest.raises(ValueError):
            CapacityConfig(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            CapacityConfig(num_subcarriers=0)

    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(3.0), True, np.True_, "3"])
    def test_subcarrier_count_must_be_an_integer(self, count):
        with pytest.raises(ValueError, match="num_subcarriers"):
            CapacityConfig(num_subcarriers=count)

    def test_numpy_integer_subcarrier_count(self):
        assert len(CapacityConfig(num_subcarriers=np.int64(3)).baseband_frequencies()) == 3


class TestSubcarrierPhases:
    """The coarse x fine phase kernel against one direct exponential per
    subcarrier and tap. Both round the angle -2*pi*f*tau, so they may differ
    by a few ulps of the largest angle: the bound is C*eps*(1 + max|theta|)."""

    C = 4

    @pytest.mark.parametrize("num_f", [1, 2, 3, 7, 99, 100, 101, 1000])
    @pytest.mark.parametrize("spread", [0.0, 1e-9, 50e-9, 500e-9, 2e-6])
    def test_matches_direct_exponential(self, num_f, spread):
        cfg = CapacityConfig(num_subcarriers=num_f)
        f = cfg.baseband_frequencies()
        rng = np.random.default_rng(num_f)
        delays = 3e-7 + np.sort(rng.uniform(0.0, spread, (4, 6)), axis=1)
        got = _subcarrier_phases(delays, cfg)
        assert got.shape == (4, num_f, 6)
        assert np.all(got[..., 0] == 1.0)
        for phases, row in zip(got, delays):
            tau = row - row[0]
            want = np.exp(-2j * np.pi * np.outer(f, tau))
            bound = self.C * np.finfo(float).eps * (1.0 + np.max(np.abs(2 * np.pi * np.outer(f, tau))))
            assert np.max(np.abs(phases - want)) <= bound


class TestFrequencyResponse:
    def test_single_tap_flat(self):
        m = np.array([[1.0 + 2.0j], [0.5 - 0.5j]])
        fr = frequency_response([tap(m, delay=13e-9)], CapacityConfig(num_subcarriers=16))
        assert fr.num_subcarriers == 16
        for k in range(16):
            assert np.allclose(fr.per_subcarrier[k], m)

    def test_two_ray_interference_nulls(self):
        # two equal scalar taps, delay spacing (N/2)/BW with N=4 subcarriers:
        # subcarrier phases work out to pi*(n-2), so |H| = [2,0,2,0]*|h|
        bw = 800e6
        cfg = CapacityConfig(bandwidth_hz=bw, num_subcarriers=4)
        h = 0.7 + 0.2j
        taps = [tap([[h]], delay=0.0), tap([[h]], delay=2.0 / bw)]
        fr = frequency_response(taps, cfg)
        mags = np.abs(fr.per_subcarrier[:, 0, 0])
        assert mags[0] == pytest.approx(2 * abs(h), abs=1e-12)
        assert mags[1] == pytest.approx(0.0, abs=1e-12)
        assert mags[2] == pytest.approx(2 * abs(h), abs=1e-12)
        assert mags[3] == pytest.approx(0.0, abs=1e-12)

    def test_zero_taps_zero_response(self):
        fr = frequency_response([tap(np.zeros((2, 2))), tap(np.zeros((2, 2)), delay=10e-9)], CapacityConfig())
        assert np.all(fr.per_subcarrier == 0)

    def test_excess_delay_from_first_tap(self):
        # a common delay offset must not change the response magnitudes
        cfg = CapacityConfig(num_subcarriers=8)
        taps_a = [tap([[1.0]], delay=0.0), tap([[0.5]], delay=30e-9)]
        taps_b = [tap([[1.0]], delay=100e-9), tap([[0.5]], delay=130e-9)]
        fa = frequency_response(taps_a, cfg)
        fb = frequency_response(taps_b, cfg)
        assert np.allclose(fa.per_subcarrier, fb.per_subcarrier, atol=1e-12)

    def test_empty_taps_rejected(self):
        with pytest.raises(ValueError):
            frequency_response([], CapacityConfig())


class TestWidebandCapacity:
    def test_siso_flat_closed_form(self):
        cfg = CapacityConfig(snr_db=10.0)
        fr = frequency_response([tap([[1.0]])], cfg)
        cap = wideband_capacity(fr, cfg, n_t=1)
        assert cap == pytest.approx(math.log2(11.0), abs=1e-9)

    def test_simo_allones_closed_form(self):
        cfg = CapacityConfig(snr_db=0.0)
        fr = frequency_response([tap(np.ones((20, 1)))], cfg)
        cap = wideband_capacity(fr, cfg, n_t=1)
        assert cap == pytest.approx(math.log2(21.0), abs=1e-9)

    def test_zero_channel_zero_capacity(self):
        cfg = CapacityConfig(snr_db=10.0)
        fr = frequency_response([tap(np.zeros((3, 2)))], cfg)
        assert wideband_capacity(fr, cfg, n_t=2) == 0.0

    def test_monotone_in_snr(self):
        rng = np.random.default_rng(3)
        taps = [
            tap(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)), delay=d)
            for d in (0.0, 20e-9, 55e-9)
        ]
        caps = []
        for snr in (-5.0, 0.0, 5.0, 10.0, 20.0):
            cfg = CapacityConfig(snr_db=snr)
            caps.append(wideband_capacity(frequency_response(taps, cfg), cfg, n_t=2))
        assert all(b >= a for a, b in zip(caps, caps[1:]))

    def test_invariant_under_global_phase_rotation(self):
        rng = np.random.default_rng(4)
        base = [
            tap(rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2)), delay=d)
            for d in (0.0, 40e-9)
        ]
        rot = [tap(t.matrix * np.exp(1j * 1.234), delay=t.delay) for t in base]
        cfg = CapacityConfig(snr_db=10.0)
        c0 = wideband_capacity(frequency_response(base, cfg), cfg, n_t=2)
        c1 = wideband_capacity(frequency_response(rot, cfg), cfg, n_t=2)
        assert c1 == pytest.approx(c0, abs=1e-12)

    def test_miso_uses_receive_side_gram(self):
        # n_t > n_r exercises the other Sylvester branch
        h = np.array([[0.6 + 0.2j, -0.3 + 0.9j]])
        cfg = CapacityConfig(snr_db=10.0)
        cap = wideband_capacity(frequency_response([tap(h)], cfg), cfg, n_t=2)
        direct = math.log2(1.0 + 10.0 / 2.0 * float(np.sum(np.abs(h) ** 2)))
        assert cap == pytest.approx(direct, abs=1e-9)

    def test_flat_channel_equals_narrowband_logdet(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        cfg = CapacityConfig(snr_db=7.0)
        cap = wideband_capacity(frequency_response([tap(h)], cfg), cfg, n_t=2)
        rho = 10 ** 0.7
        direct = math.log2(abs(np.linalg.det(np.eye(2) + rho / 2 * h.conj().T @ h)))
        assert cap == pytest.approx(direct, abs=1e-9)

    def test_more_receive_antennas_never_hurt(self):
        caps = {}
        for n_r in (4, 5):
            samples = run_monte_carlo(
                SCEN,
                CirGenConfig(num_clusters_range=(1, 2), paths_per_cluster_range=(1, 1), cluster_decay_ns=8.0),
                ArrayGeometry(num_elements=n_r),
                ArrayGeometry(num_elements=1),
                FadingModel.rayleigh(),
                CapacityConfig(),
                2000,
                777,
                PARAMS,
            )
            caps[n_r] = capacity_quantiles(samples.capacity)[0.5]
        assert caps[5] >= caps[4] - 0.05

    def test_explicit_initial_cir_fixed_across_drops(self):
        cir = cir_of([0.0], [1.0])
        samples = run_monte_carlo(
            SCEN, CirGenConfig(), ArrayGeometry(num_elements=3),
            ArrayGeometry(num_elements=1), FadingModel.rician(120.0),
            CapacityConfig(), 6, 11, PARAMS, initial_cir=cir,
        )
        caps = [s.capacity for s in samples]
        # flat single-path channel with K -> inf: capacity nearly constant
        assert max(caps) - min(caps) < 1e-3


class TestMonteCarlo:
    def test_single_drop_deterministic(self):
        kwargs = dict(
            scenario=SCEN,
            gen_config=CirGenConfig(),
            rx_geometry=ArrayGeometry(num_elements=4),
            tx_geometry=ArrayGeometry(num_elements=2),
            fading=FadingModel.rician(5.0),
            cap_config=CapacityConfig(),
            num_drops=1,
            master_seed=99,
            autocorr_params=PARAMS,
        )
        a = run_monte_carlo(**kwargs)
        b = run_monte_carlo(**kwargs)
        assert np.array_equal(a, b)

    def test_sample_fields(self):
        samples = run_monte_carlo(
            SCEN, CirGenConfig(), ArrayGeometry(num_elements=3), ArrayGeometry(num_elements=1),
            FadingModel.rayleigh(), CapacityConfig(), 5, 1, PARAMS,
        )
        assert [s.drop_index for s in samples] == [0, 1, 2, 3, 4]
        assert all(s.capacity >= 0 for s in samples)
        assert len({s.seed for s in samples}) == 5

    def test_worker_counts_agree_bitwise(self):
        kwargs = dict(
            scenario=SCEN,
            gen_config=CirGenConfig(),
            rx_geometry=ArrayGeometry(num_elements=4),
            tx_geometry=ArrayGeometry(num_elements=2),
            fading=FadingModel.rician(5.0),
            cap_config=CapacityConfig(),
            num_drops=12,
            master_seed=321,
            autocorr_params=PARAMS,
        )
        serial = run_monte_carlo(**kwargs, num_workers=1)
        parallel = run_monte_carlo(**kwargs, num_workers=3)
        assert np.array_equal(serial, parallel)

    def test_shared_cir_flag(self):
        kwargs = dict(
            scenario=SCEN,
            gen_config=CirGenConfig(num_clusters_range=(2, 4), paths_per_cluster_range=(1, 3)),
            rx_geometry=ArrayGeometry(num_elements=2),
            tx_geometry=ArrayGeometry(num_elements=1),
            fading=FadingModel.rayleigh(),
            cap_config=CapacityConfig(),
            num_drops=6,
            master_seed=5,
            autocorr_params=PARAMS,
        )
        cfg = ScenarioConfig(scenario=SCEN, cir_gen=kwargs["gen_config"], master_seed=5, share_initial_cir=True)
        shared = run_monte_carlo(**kwargs, initial_cir=_fixed_cir(cfg))
        fresh = run_monte_carlo(**kwargs)
        assert not np.array_equal(shared, fresh)

    def test_num_drops_validated(self):
        with pytest.raises(ValueError):
            run_monte_carlo(
                SCEN, CirGenConfig(), ArrayGeometry(num_elements=2),
                ArrayGeometry(num_elements=1), FadingModel.rayleigh(),
                CapacityConfig(), 0, 1, PARAMS,
            )

    @pytest.mark.parametrize(
        "field,value",
        [("num_drops", True), ("num_drops", 2.5), ("num_workers", 0), ("num_workers", -3), ("num_workers", True),
         ("master_seed", True), ("master_seed", 2.5), ("master_seed", -1)],
    )
    def test_counts_and_seed_checked_like_scenario_config(self, field, value):
        kwargs = dict(num_drops=3, master_seed=1, num_workers=1)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            run_monte_carlo(
                SCEN, CirGenConfig(), ArrayGeometry(num_elements=2), ArrayGeometry(num_elements=1),
                FadingModel.rayleigh(), CapacityConfig(), autocorr_params=PARAMS, **kwargs,
            )


class TestExactCapacityLaw:
    """Single-tap SIMO Rayleigh drops: h = R_r^(1/2) g with g ~ CN(0, I), so
    (2**C - 1) / rho = ||h||^2 = g^H R_r g follows the hypoexponential law
    with the eigenvalues of R_r as means. A KS test at alpha = 0.01 on a
    fixed seed checks the seeding, the fading draw and the correlation
    root at the level of the whole distribution."""

    ALPHA = 0.01
    DROPS = 2000

    @pytest.mark.parametrize("n_r", [2, 3, 4])
    def test_ks_against_hypoexponential(self, n_r):
        params = lookup_default_params(SCEN).autocorr
        rx = ArrayGeometry(num_elements=n_r, spacing=0.5)
        corr = build_amplitude_matched_corr(params, rx, FadingModel.rayleigh(), side="receive")
        means = np.linalg.eigvalsh(corr.entries)
        assert np.min(np.diff(means)) > 0.05  # distinct enough for the closed form
        cap_config = CapacityConfig(num_subcarriers=1)
        samples = run_monte_carlo(
            SCEN, CirGenConfig(), rx, ArrayGeometry(num_elements=1), FadingModel.rayleigh(),
            cap_config, self.DROPS, 20150601 + n_r, params,
            initial_cir=cir_of([0.0], [1.0]),
        )
        rho = db_to_linear(cap_config.snr_db)
        gains = (2.0 ** np.array([s.capacity for s in samples]) - 1.0) / rho
        result = stats.kstest(gains, lambda x: hypoexponential_cdf(x, means))
        assert result.pvalue > self.ALPHA


class TestExactSimoWidebandMean:
    """Rayleigh SIMO drops over the full band. At each subcarrier h_f =
    R_r^(1/2) sum_l sqrt(p_l) e^(j theta_lf) g_l with sum p_l = 1 is
    CN(0, R_r) whatever the delays and component phases, so the mean
    wideband capacity is the narrowband E[log2(1 + rho X)], X = g^H R_r g,
    which :func:`oracles.rayleigh_simo_mean_capacity` gives exactly. A
    two-sided z-test at alpha = 0.01 on a fixed seed checks the tap powers
    and the correlation root across the 100 subcarriers of both Gram
    routes. The drops of a run are independent, so the sample standard
    deviation gives the standard error."""

    ALPHA = 0.01
    DROPS = 4000
    SEED = 12345

    @pytest.mark.parametrize("rich", [False, True])
    def test_mean_capacity_matches_exact(self, rich):
        cfg = parse_config(os.path.join(CONFIG_DIR, "fig5.cfg"))
        gen = cfg.cir_gen
        if rich:  # 2-12 taps: drops of L >= 9 take the response route
            gen = dataclasses.replace(gen, num_clusters_range=(2, 4), paths_per_cluster_range=(1, 3))
            assert _uses_cross_gram(8, 20, 1) and not _uses_cross_gram(9, 20, 1)
        params = cfg.resolved_autocorr()
        rr, _ = pipeline_corr_matrices(params, cfg.rx_array, cfg.tx_array)
        rho = db_to_linear(cfg.capacity.snr_db) / cfg.tx_array.num_elements
        exact = rayleigh_simo_mean_capacity(rho, np.linalg.eigvalsh(rr.entries))
        assert cfg.rx_array.num_elements == 20 and cfg.capacity.num_subcarriers == 100
        assert exact == pytest.approx(7.4862, abs=1e-4)
        samples = run_monte_carlo(
            cfg.scenario, gen, cfg.rx_array, cfg.tx_array, FadingModel.rayleigh(), cfg.capacity,
            self.DROPS, self.SEED, params,
        )
        caps = np.array([s.capacity for s in samples])
        z = (caps.mean() - exact) / (caps.std(ddof=1) / math.sqrt(caps.size))
        assert abs(z) < stats.norm.ppf(1.0 - self.ALPHA / 2.0)


def _one_subcarrier_gains(samples, cap_config):
    """(2**C - 1) / rho of single-subcarrier SIMO drops: ||h||^2."""
    rho = db_to_linear(cap_config.snr_db)
    return (2.0 ** np.array([s.capacity for s in samples]) - 1.0) / rho


class TestExactLawMultiTapAndRician:
    """Exact laws of drops at one subcarrier, where C = log2(1 + rho ||h||^2)
    for N_t = 1, KS-tested at alpha = 0.001 on fixed seeds (2000 drops each).

    * Multi-tap Rayleigh over generated CIRs: h = sum_l sqrt(p_l) phi_l
      R_r^(1/2) g_l with |phi_l| = 1 and sum p_l = 1 is R_r^(1/2) g' with
      g' ~ CN(0, I), so the hypoexponential law of R_r's eigenvalues holds
      for every CIR. One case per Gram route.
    * Rician single tap: N_r = 1 against the noncentral chi-square law, and
      N_r = 2, whose real Toeplitz R_r has the all-ones dominant direction
      as an eigenvector, against a noncentral chi-square convolved with an
      exponential.
    * Rician over two fixed taps: the dominant terms add with the relative
      phase of their independent uniform phases, so the law is the
      noncentral chi-square averaged over that phase.
    """

    ALPHA = 0.001
    DROPS = 2000
    K_DB = (5.0, 15.0)

    @staticmethod
    def _rx(n_r):
        return ArrayGeometry(num_elements=n_r, spacing=0.5)

    @staticmethod
    def _corr(n_r):
        params = lookup_default_params(SCEN).autocorr
        corr = build_amplitude_matched_corr(params, ArrayGeometry(num_elements=n_r, spacing=0.5),
                                            FadingModel.rayleigh(), side="receive")
        return corr.entries

    @pytest.mark.parametrize(
        "n_r,clusters,paths,cross",
        [(2, (3, 4), (3, 4), False), (4, (1, 2), (1, 2), True)],
        ids=["nr2-L9to16-response", "nr4-L1to4-cross"],
    )
    def test_multi_tap_rayleigh_hypoexponential(self, n_r, clusters, paths, cross):
        taps = range(clusters[0] * paths[0], clusters[1] * paths[1] + 1)
        assert all(_uses_cross_gram(num_taps, n_r, 1) == cross for num_taps in taps)
        means = np.linalg.eigvalsh(self._corr(n_r))
        assert np.min(np.diff(means)) > 0.05
        cap_config = CapacityConfig(num_subcarriers=1)
        samples = run_monte_carlo(
            SCEN, CirGenConfig(num_clusters_range=clusters, paths_per_cluster_range=paths),
            self._rx(n_r), ArrayGeometry(num_elements=1), FadingModel.rayleigh(),
            cap_config, self.DROPS, 20160418 + n_r, PARAMS,
        )
        gains = _one_subcarrier_gains(samples, cap_config)
        assert stats.kstest(gains, lambda x: hypoexponential_cdf(x, means)).pvalue > self.ALPHA

    def _rician_gains(self, n_r, k_db, cir, seed):
        cap_config = CapacityConfig(num_subcarriers=1)
        samples = run_monte_carlo(
            SCEN, CirGenConfig(), self._rx(n_r), ArrayGeometry(num_elements=1), FadingModel.rician(k_db),
            cap_config, self.DROPS, seed, PARAMS, initial_cir=cir,
        )
        return _one_subcarrier_gains(samples, cap_config)

    @pytest.mark.parametrize("k_db", K_DB)
    def test_rician_single_tap_siso_ncx2(self, k_db):
        gains = self._rician_gains(1, k_db, cir_of([0.0], [1.0]), 31 + int(k_db))
        k = db_to_linear(k_db)
        assert stats.kstest(gains, lambda x: rician_power_cdf(x, k)).pvalue > self.ALPHA

    @pytest.mark.parametrize("k_db", K_DB)
    def test_rician_single_tap_two_elements(self, k_db):
        corr = self._corr(2)
        assert np.all(corr.imag == 0.0) and corr[0, 0] == corr[1, 1]
        dominant = 1.0 + corr[0, 1].real  # eigenvalue of the all-ones vector
        other = 1.0 - corr[0, 1].real
        gains = self._rician_gains(2, k_db, cir_of([0.0], [1.0]), 47 + int(k_db))
        k = db_to_linear(k_db)
        assert stats.kstest(gains, lambda x: rician_eigen_pair_cdf(x, k, dominant, other)).pvalue > self.ALPHA

    @pytest.mark.parametrize("k_db", K_DB)
    def test_rician_two_taps_dominant_phases(self, k_db):
        # 2.5 ns apart: the subcarrier at -400 MHz sees the taps in phase
        gains = self._rician_gains(1, k_db, cir_of([0.0, 2.5e-9], [0.6, 0.4]), 59 + int(k_db))
        k = db_to_linear(k_db)
        assert stats.kstest(gains, lambda x: rician_two_tap_cdf(x, k, (0.6, 0.4))).pvalue > self.ALPHA


class TestCapacityCdf:
    def test_single_sample(self):
        vals, probs = capacity_cdf(np.array([2.5]))
        assert list(vals) == [2.5]
        assert list(probs) == [1.0]

    def test_three_samples(self):
        vals, probs = capacity_cdf(np.array([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])
        assert np.allclose(probs, [1 / 3, 2 / 3, 1.0])

    def test_uniform_samples_near_uniform_cdf(self):
        rng = np.random.default_rng(6)
        vals, probs = capacity_cdf(rng.random(10_000))
        gap = np.max(np.abs(probs - vals))
        assert gap < 0.02

    def test_nan_capacity_rejected(self):
        # the floor at 0 passes NaN on, so the chunk's finite check rejects
        # it (test_engine.py::test_non_finite_capacity_raises)
        cfg = CapacityConfig(num_subcarriers=4)
        assert np.all(np.isnan(_capacities(np.full((2, 1, 4), math.nan), cfg, 1)))
