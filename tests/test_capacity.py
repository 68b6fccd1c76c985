import math

import numpy as np
import pytest

from mmwchan.capacity import (
    CapacityConfig,
    CapacitySample,
    capacity_cdf,
    capacity_quantiles,
    frequency_response,
    run_monte_carlo,
    wideband_capacity,
)
from mmwchan.cirgen import CirGenConfig
from mmwchan.core import ArrayGeometry, FadingModel, Scenario
from mmwchan.spatial import CorrelatedTap

SCEN = Scenario.parse("NLOS V-V")


def tap(matrix, delay=0.0, power=1.0):
    return CorrelatedTap(matrix=np.asarray(matrix, dtype=complex), delay=delay, mean_power=power)


class TestCapacityConfig:
    def test_band_edges(self):
        cfg = CapacityConfig()
        assert cfg.f_max - cfg.f_min == pytest.approx(cfg.bandwidth_hz)
        f = cfg.baseband_frequencies()
        assert len(f) == 100
        assert f[0] == -400e6
        assert f[-1] < 400e6

    def test_invalid(self):
        with pytest.raises(ValueError):
            CapacityConfig(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            CapacityConfig(num_subcarriers=0)


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
            )
            caps[n_r] = capacity_quantiles(samples)[0.5]
        assert caps[5] >= caps[4] - 0.05

    def test_explicit_initial_cir_fixed_across_drops(self):
        from mmwchan.core import ChannelImpulseResponse, MultipathComponent

        comp0 = MultipathComponent(power_gain=1.0, phase=0.0, delay=0.0, aod=(0.0, 0.0), aoa=(0.0, 0.0))
        cir = ChannelImpulseResponse.from_components([comp0], SCEN)
        samples = run_monte_carlo(
            SCEN, CirGenConfig(), ArrayGeometry(num_elements=3),
            ArrayGeometry(num_elements=1), FadingModel.rician(120.0),
            CapacityConfig(), 6, 11, initial_cir=cir,
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
        )
        a = run_monte_carlo(**kwargs)
        b = run_monte_carlo(**kwargs)
        assert a == b

    def test_sample_fields(self):
        samples = run_monte_carlo(
            SCEN, CirGenConfig(), ArrayGeometry(num_elements=3), ArrayGeometry(num_elements=1),
            FadingModel.rayleigh(), CapacityConfig(), 5, 1,
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
        )
        serial = run_monte_carlo(**kwargs, num_workers=1)
        parallel = run_monte_carlo(**kwargs, num_workers=3)
        assert serial == parallel

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
        )
        shared = run_monte_carlo(**kwargs, share_initial_cir=True)
        fresh = run_monte_carlo(**kwargs, share_initial_cir=False)
        assert shared != fresh

    def test_los_to_nlos_requires_explicit_params(self):
        with pytest.raises(ValueError, match="autocorr"):
            run_monte_carlo(
                Scenario.parse("LOS-to-NLOS V-V"), CirGenConfig(),
                ArrayGeometry(num_elements=2), ArrayGeometry(num_elements=1),
                FadingModel.rayleigh(), CapacityConfig(), 1, 1,
            )

    def test_num_drops_validated(self):
        with pytest.raises(ValueError):
            run_monte_carlo(
                SCEN, CirGenConfig(), ArrayGeometry(num_elements=2),
                ArrayGeometry(num_elements=1), FadingModel.rayleigh(),
                CapacityConfig(), 0, 1,
            )


class TestCapacityCdf:
    def test_single_sample(self):
        vals, probs = capacity_cdf([CapacitySample(2.5, 0, 0)])
        assert list(vals) == [2.5]
        assert list(probs) == [1.0]

    def test_three_samples(self):
        samples = [CapacitySample(c, i, 0) for i, c in enumerate([3.0, 1.0, 2.0])]
        vals, probs = capacity_cdf(samples)
        assert np.allclose(vals, [1.0, 2.0, 3.0])
        assert np.allclose(probs, [1 / 3, 2 / 3, 1.0])

    def test_uniform_samples_near_uniform_cdf(self):
        rng = np.random.default_rng(6)
        samples = [CapacitySample(float(c), i, 0) for i, c in enumerate(rng.random(10_000))]
        vals, probs = capacity_cdf(samples)
        gap = np.max(np.abs(probs - vals))
        assert gap < 0.02

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            CapacitySample(-0.1, 0, 0)

    def test_nan_capacity_rejected(self):
        with pytest.raises(ValueError):
            CapacitySample(math.nan, 0, 0)
