import re
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from mmwchan.cirgen import (
    CirFileError,
    CirGenConfig,
    cir_rows,
    drop_layout,
    export_cir,
    generate_initial_cir,
    import_cir,
    lobe_choices,
    partition_by_void,
)
from mmwchan.core import Scenario

SCEN = Scenario.parse("NLOS V-V")
CIR_FIELDS = ("delays", "powers", "phases", "aod", "aoa")


def same_cir(a, b):
    return a.scenario == b.scenario and all(np.array_equal(getattr(a, f), getattr(b, f)) for f in CIR_FIELDS)


def rng(seed):
    return np.random.default_rng(seed)


def drawn_clusters(cfg, seed):
    """Component delays of each cluster of one drop drawn from ``seed`` as
    the drop engine draws it."""
    rows = cir_rows(cfg, rng(seed).random((1, drop_layout(cfg).width)))
    delays = rows.delays[0].reshape(cfg.num_clusters_range[1], -1)
    valid = rows.valid[0].reshape(delays.shape)
    return [d[v].tolist() for d, v in zip(delays, valid) if v.any()]


class TestGenerator:
    def test_deterministic_for_fixed_seed(self):
        cfg = CirGenConfig()
        a = generate_initial_cir(cfg, SCEN, rng(99))
        b = generate_initial_cir(cfg, SCEN, rng(99))
        assert same_cir(a, b)

    def test_different_seeds_differ(self):
        a = generate_initial_cir(CirGenConfig(), SCEN, rng(1))
        b = generate_initial_cir(CirGenConfig(), SCEN, rng(2))
        assert not same_cir(a, b)

    def test_degenerate_config_single_component(self):
        cfg = CirGenConfig(num_clusters_range=(1, 1), paths_per_cluster_range=(1, 1))
        cir = generate_initial_cir(cfg, SCEN, rng(5))
        assert cir.num_components == 1
        assert cir.delays[0] == 0.0
        assert cir.powers[0] == pytest.approx(1.0, abs=1e-15)

    def test_three_clusters_respect_void_interval(self):
        for seed in range(30):
            clusters = drawn_clusters(
                CirGenConfig(num_clusters_range=(3, 3), paths_per_cluster_range=(1, 3)), seed
            )
            assert len(clusters) == 3
            for prev, nxt in zip(clusters, clusters[1:]):
                gap_ns = (nxt[0] - prev[-1]) / 1e-9
                assert gap_ns >= 25.0 - 1e-9

    def test_generated_cirs_valid_normalized_and_void(self):
        for seed in range(40):
            cfg = CirGenConfig(num_clusters_range=(1, 4), paths_per_cluster_range=(1, 5))
            cir = generate_initial_cir(cfg, SCEN, rng(seed))
            assert abs(cir.powers.sum() - 1.0) < 1e-9
            clusters = drawn_clusters(cfg, seed)
            assert sum(clusters, []) == cir.delays.tolist()
            for prev, nxt in zip(clusters, clusters[1:]):
                assert (nxt[0] - prev[-1]) / 1e-9 >= cfg.intercluster_void_ns - 1e-9

    def test_subpath_delays_nondecreasing_within_cluster(self):
        cfg = CirGenConfig(num_clusters_range=(2, 2), paths_per_cluster_range=(4, 4))
        for delays in drawn_clusters(cfg, 3):
            assert delays == sorted(delays)

    def test_scenario_carried(self):
        cir = generate_initial_cir(CirGenConfig(), Scenario.parse("LOS V-H"), rng(0))
        assert cir.scenario == Scenario.parse("LOS V-H")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_clusters_range=(0, 2)),
            dict(num_clusters_range=(3, 1)),
            dict(paths_per_cluster_range=(2, 1)),
            dict(intercluster_void_ns=-1.0),
            dict(cluster_decay_ns=0.0),
            dict(intracluster_decay_ns=-5.0),
            dict(lobe_angular_spread_deg=-1.0),
            # 1e-320 ns is 0 s: the path weights were 0/0, no path was a
            # component, and every drop of a capacity run gave 0 b/s/Hz
            dict(cluster_decay_ns=1e-320),
            dict(intracluster_decay_ns=1e-320),
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(ValueError):
            CirGenConfig(**kwargs)

    def test_drop_layout_allocates_nothing(self):
        # the chunk size check reads the layout of configs too large to run
        cfg = CirGenConfig(paths_per_cluster_range=(1, 10**6))
        tracemalloc.start()
        try:
            layout = drop_layout(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        # 3 clusters of 10**6 paths and 3 lobes a side; the parts tile the block
        assert layout.width == (3 + 3) + 4 * 3 + (3 * 10**6 - 1) + 2 * 3 + 2 * (3 * 10**6)
        starts, stops = zip(*((part.start, part.stop) for part in layout[:-1]))
        assert starts == (0, *stops[:-1]) and stops[-1] == layout.width


class TestDrawnMarginals:
    """Each marginal of the chunk CIR kernel against its stated law, over
    4000 drops drawn from the engine's per-drop streams at a fixed seed:
    discrete laws by a chi-square test, gaps by a KS test, all at
    alpha = 0.001."""

    ALPHA = 0.001
    DROPS = 4000
    CFG = CirGenConfig(num_clusters_range=(1, 4), paths_per_cluster_range=(1, 3), num_lobes_range=(1, 3),
                       cluster_decay_ns=30.0, intracluster_decay_ns=10.0)

    @pytest.fixture(scope="class")
    def drawn(self):
        from mmwchan.seeding import drop_streams

        rngs, _ = drop_streams(20160418, 0, self.DROPS)
        u = np.empty((self.DROPS, drop_layout(self.CFG).width))
        for r, row in zip(rngs, u):
            r.random(out=row)
        rows = cir_rows(self.CFG, u)
        # (delays, cluster of each component) of each drop
        drops = [(d[v], np.flatnonzero(v) // self.CFG.paths_per_cluster_range[1])
                 for d, v in zip(rows.delays, rows.valid)]
        return u, drops

    def test_cluster_count_uniform(self, drawn):
        _, drops = drawn
        counts = np.bincount([cluster[-1] + 1 for _, cluster in drops], minlength=5)
        assert counts[0] == 0
        assert stats.chisquare(counts[1:]).pvalue > self.ALPHA

    def _gaps_ns(self, drawn, same_cluster):
        _, drops = drawn
        gaps = [np.diff(d)[(np.diff(cluster) == 0) == same_cluster] for d, cluster in drops]
        return np.concatenate(gaps) / 1e-9

    def test_intercluster_gap_minus_void_exponential(self, drawn):
        gaps = self._gaps_ns(drawn, same_cluster=False) - self.CFG.intercluster_void_ns
        assert gaps.size > 4000
        assert stats.kstest(gaps, stats.expon(scale=self.CFG.cluster_decay_ns).cdf).pvalue > self.ALPHA

    def test_intracluster_gaps_exponential(self, drawn):
        gaps = self._gaps_ns(drawn, same_cluster=True)
        assert gaps.size > 4000
        assert stats.kstest(gaps, stats.expon(scale=self.CFG.intracluster_decay_ns).cdf).pvalue > self.ALPHA

    def test_lobe_choices_uniform(self, drawn):
        u, drops = drawn
        counts, choices = lobe_choices(self.CFG, u)
        live = np.arange(choices.shape[1]) <= np.array([c[-1] for _, c in drops])[:, None]  # the drop's clusters
        for side in (0, 1):
            assert stats.chisquare(np.bincount(counts[:, side])[1:]).pvalue > self.ALPHA
            for num_lobes in (2, 3):
                picked = choices[:, :, side][live & (counts[:, side] == num_lobes)[:, None]]
                assert picked.size > 1000
                assert stats.chisquare(np.bincount(picked, minlength=num_lobes)).pvalue > self.ALPHA


class TestVoidPartition:
    def test_single_component(self):
        assert partition_by_void([0.0], 25e-9) == [[0]]

    def test_two_components_30ns_apart_two_clusters(self):
        delays = [0.0, 30e-9]
        groups = partition_by_void(delays, 25e-9)
        assert groups == [[0], [1]]

    def test_two_components_10ns_apart_one_cluster(self):
        delays = [0.0, 10e-9]
        groups = partition_by_void(delays, 25e-9)
        assert groups == [[0, 1]]


class TestCirFiles:
    #: Delays and angles pass through two rounded unit conversions (s -> ns
    #: -> s, rad -> deg -> rad), each a product with a rounded constant.
    #: Over 3000 such CIRs none came back more than 1 ulp off.
    ROUND_TRIP_ULPS = 2

    def test_round_trip_identity(self, tmp_path):
        cfg = CirGenConfig(num_clusters_range=(2, 4), paths_per_cluster_range=(1, 3))
        path = tmp_path / "cir.csv"
        for seed in range(300):
            cir = generate_initial_cir(cfg, SCEN, rng(seed))
            export_cir(cir, path)
            back = import_cir(path, SCEN)
            assert back.scenario == cir.scenario
            # 17 significant digits carry powers and phases exactly
            assert np.array_equal(back.powers, cir.powers)
            assert np.array_equal(back.phases, cir.phases)
            for field in ("delays", "aod", "aoa"):
                want, got = getattr(cir, field), getattr(back, field)
                assert np.all(np.abs(got - want) <= self.ROUND_TRIP_ULPS * np.spacing(np.abs(want)))

    def test_single_record_file(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text(
            "delay_ns,power_linear,phase_rad,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg\n"
            "0.0,1.0,0.0,0.0,0.0,0.0,0.0\n"
        )
        cir = import_cir(path, SCEN)
        assert cir.num_components == 1
        assert cir.delays[0] == 0.0
        assert cir.powers[0] == 1.0
        assert cir.scenario == SCEN  # the argument, for files without a scenario comment

    def test_descending_delays_error_names_record(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "delay_ns,power_linear,phase_rad,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg\n"
            "10.0,0.5,0.0,0.0,0.0,0.0,0.0\n"
            "5.0,0.5,0.0,0.0,0.0,0.0,0.0\n"
        )
        with pytest.raises(CirFileError, match="line 3"):
            import_cir(path, SCEN)

    def test_range_error_names_record_line(self, tmp_path):
        # the constructor's component index maps past blank and comment lines
        path = tmp_path / "bad.csv"
        path.write_text(
            "delay_ns,power_linear,phase_rad,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg\n"
            "0.0,0.5,0.0,0.0,0.0,0.0,0.0\n"
            "\n"
            "# a comment\n"
            "1.0,0.5,0.0,0.0,0.0,0.0,95.0\n"
        )
        with pytest.raises(CirFileError, match="line 5: component 1: aoa elevation"):
            import_cir(path, SCEN)

    def test_inline_comment_on_record(self, tmp_path):
        cir = generate_initial_cir(CirGenConfig(num_clusters_range=(2, 3)), SCEN, rng(8))
        plain, noted = tmp_path / "plain.csv", tmp_path / "noted.csv"
        export_cir(cir, plain)
        head, header, *records = plain.read_text().splitlines()
        noted.write_text("\n".join([head, header, *(r + " # note" for r in records)]) + "\n")
        a, b = import_cir(plain, SCEN), import_cir(noted, SCEN)
        for field in ("delays", "powers", "phases", "aod", "aoa"):
            assert np.array_equal(getattr(a, field), getattr(b, field))
        assert a.scenario == b.scenario

    def test_header_only_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("delay_ns,power_linear,phase_rad,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg\n")
        with pytest.raises(CirFileError, match="at least one component"):
            import_cir(path, SCEN)

    def test_bad_header_error(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("delay,power\n0.0,1.0\n")
        with pytest.raises(CirFileError, match="header"):
            import_cir(path, SCEN)

    def test_non_numeric_field_names_field(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text(
            "delay_ns,power_linear,phase_rad,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg\n"
            "0.0,oops,0.0,0.0,0.0,0.0,0.0\n"
        )
        with pytest.raises(CirFileError, match="power_linear"):
            import_cir(path, SCEN)

    def test_bad_scenario_comment_names_line(self, tmp_path):
        path = tmp_path / "scen.csv"
        path.write_text(
            "# scenario: NLOS X-Y\n"
            "delay_ns,power_linear,phase_rad,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg\n"
            "0.0,1.0,0.0,0.0,0.0,0.0,0.0\n"
        )
        with pytest.raises(CirFileError, match=f"{re.escape(str(path))}: line 1: unknown scenario"):
            import_cir(path, SCEN)

    @pytest.mark.parametrize("kind", ["undecodable", "directory"])
    def test_unreadable_file_names_it(self, tmp_path, kind):
        path = tmp_path / "cir.csv"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(
                b"delay_ns,power_linear,phase_rad,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg\n"
                b"0.0,1.0,0.0,0.0,0.0,0.0,0.0\xff\n"
            )
        with pytest.raises(CirFileError, match=f"cannot read CIR file {re.escape(repr(str(path)))}"):
            import_cir(str(path), SCEN)

    def test_export_is_deterministic_text(self, tmp_path):
        cir = generate_initial_cir(CirGenConfig(), SCEN, rng(21))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_cir(cir, p1)
        export_cir(cir, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_scenario_comment_round_trip(self, tmp_path):
        cir = generate_initial_cir(CirGenConfig(), Scenario.parse("LOS V-V"), rng(4))
        path = tmp_path / "los.csv"
        export_cir(cir, path)
        assert import_cir(path, SCEN).scenario == Scenario.parse("LOS V-V")
