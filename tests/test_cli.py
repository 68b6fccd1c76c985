import dataclasses
import os
import re

import numpy as np
import pytest

import mmwchan.cli
from mmwchan.capacity import RESULT_DTYPE, batch_bytes, capacity_cdf, run_monte_carlo
from mmwchan.cirgen import CIR_FILE_FIELDS, export_cir, generate_initial_cir, import_cir
from mmwchan.cli import (
    ConfigError,
    ScenarioConfig,
    cmd_dump_defaults,
    cmd_estimate,
    cmd_simulate_capacity,
    cmd_simulate_cir,
    main,
    parse_config,
)
from mmwchan.core import ArrayGeometry, FadingModel
from mmwchan.estimators import TRACK_HEADER_FIELDS, read_track
from mmwchan.spatial import track_bytes

BASE_CFG = """
scenario = NLOS V-V
cir.num_clusters_range = 1 2
cir.paths_per_cluster_range = 1 1
cir.intercluster_void_ns = 25
cir.cluster_decay_ns = 8
cir.intracluster_decay_ns = 2
cir.num_lobes_range = 1 3
cir.lobe_angular_spread_deg = 10
rx_array.num_elements = 6
rx_array.spacing = 0.5
tx_array.num_elements = 1
tx_array.spacing = 0.5
fading.models = rayleigh rician:5
autocorr = table-default
capacity.bandwidth_hz = 800e6
capacity.num_subcarriers = 20
capacity.snr_db = 10
run.num_drops = 8
run.master_seed = 77
"""


#: One malformed value for each config key but cir.import_path, whose
#: malformed value is a file that does not exist.
MALFORMED = {
    "scenario": "NLOS X-Y",
    "cir.num_clusters_range": "1",
    "cir.paths_per_cluster_range": "3 2",
    "cir.intercluster_void_ns": "-1",
    "cir.cluster_decay_ns": "0",
    "cir.intracluster_decay_ns": "nan",
    "cir.num_lobes_range": "0 2",
    "cir.lobe_angular_spread_deg": "inf",
    "rx_array.num_elements": "0",
    "rx_array.spacing": "-0.5",
    "tx_array.num_elements": "2.5",
    "tx_array.spacing": "inf",
    "fading.models": "nakagami",
    "autocorr": "0.5 1 0.5",
    "capacity.bandwidth_hz": "0",
    "capacity.num_subcarriers": "-1",
    "capacity.snr_db": "nan",
    "capacity.center_frequency_hz": "-1",
    "run.num_drops": "0",
    "run.master_seed": "-1",
    "run.num_workers": "0",
    "run.share_initial_cir": "maybe",
    "run.output_dir": "",
    "track.num_positions": "1",
    "track.delta_x": "0",
    "track.delay_bin_ns": "1e-320",
}


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def per_row_csvs(result):
    """The capacity and CDF files of one model, each row formatted from
    its floats with '%s'."""
    cap = ["drop_index,seed,capacity_bps_hz"]
    cap += ["%s,%s,%s" % (int(r.drop_index), int(r.seed), float(r.capacity)) for r in result]
    cdf = ["capacity_bps_hz,cum_prob"]
    cdf += ["%s,%s" % (float(v), float(p)) for v, p in zip(*capacity_cdf(result.capacity))]
    return "\n".join(cap) + "\n", "\n".join(cdf) + "\n"


class TestConfigParsing:
    def test_round_trip_values(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, BASE_CFG))
        assert cfg.scenario.label() == "NLOS V-V"
        assert cfg.cir_gen.num_clusters_range == (1, 2)
        assert cfg.rx_array.num_elements == 6
        assert [m.label() for m in cfg.fading_models] == ["rayleigh", "rician5dB"]
        assert cfg.capacity.num_subcarriers == 20
        assert cfg.num_drops == 8
        assert cfg.master_seed == 77

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config keys"):
            parse_config(write_cfg(tmp_path, BASE_CFG + "\nbogus.key = 1\n"))

    def test_bad_fading_spec(self, tmp_path):
        bad = BASE_CFG.replace("fading.models = rayleigh rician:5", "fading.models = nakagami")
        with pytest.raises(ConfigError, match="fading.models"):
            parse_config(write_cfg(tmp_path, bad))

    def test_custom_autocorr_triple(self, tmp_path):
        text = BASE_CFG.replace("autocorr = table-default", "autocorr = 0.9 1 -0.1")
        cfg = parse_config(write_cfg(tmp_path, text))
        assert (cfg.autocorr.a, cfg.autocorr.b, cfg.autocorr.c) == (0.9, 1.0, -0.1)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config("/nonexistent/path.cfg")

    def test_undecodable_file_names_it(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(BASE_CFG.encode() + b"run.num_drops = 5\xff\n")
        with pytest.raises(ConfigError, match=f"cannot read config {re.escape(repr(str(path)))}"):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_drops", 0),
            ("num_drops", 2.0),
            ("num_workers", 0),
            ("master_seed", -1),
            ("master_seed", True),
            ("track_positions", 1),
            ("track_delta_x", float("inf")),
            ("track_delay_bin_ns", 0.0),
            ("fading_models", ()),
            ("fading_models", (FadingModel.rician(5.0), FadingModel.rayleigh(), FadingModel.rician(5.0))),
            ("num_workers", (os.cpu_count() or 1) + 1),
        ],
    )
    def test_scenario_config_checks_its_fields(self, field, value):
        # the config checks its own fields, whoever builds it
        with pytest.raises(ValueError, match="fading model" if field == "fading_models" else field):
            ScenarioConfig(**{field: value})

    def test_cross_key_checks_do_not_depend_on_key_order(self, tmp_path):
        # the chunk size reads both keys; checked after the first alone, with
        # the default 3 clusters, 1500 paths per cluster went over the limit
        lines = ["cir.paths_per_cluster_range = 1 1500", "cir.num_clusters_range = 1 1"]
        cfgs = [parse_config(write_cfg(tmp_path, "\n".join(order) + "\n", name=f"{i}.cfg"))
                for i, order in enumerate((lines, lines[::-1]))]
        assert cfgs[0] == cfgs[1]
        assert cfgs[0].cir_gen.paths_per_cluster_range == (1, 1500)
        assert cfgs[0].cir_gen.num_clusters_range == (1, 1)

    def test_section_rules_read_final_values(self, tmp_path):
        # the span rule reads both keys; checked after the spacing alone, with
        # the default 20 elements, its farthest lag overflowed
        lines = ["rx_array.spacing = 1e308", "rx_array.num_elements = 1"]
        cfgs = [parse_config(write_cfg(tmp_path, "\n".join(order) + "\n", name=f"{i}.cfg"))
                for i, order in enumerate((lines, lines[::-1]))]
        assert cfgs[0] == cfgs[1] == ScenarioConfig(rx_array=ArrayGeometry(num_elements=1, spacing=1e308))

    @pytest.mark.parametrize(
        "lines, names",
        [
            # the spacing fails on its own, with the default 20 elements
            (["rx_array.num_elements = 5", "rx_array.spacing = 0"], "rx_array.spacing"),
            # each passes on its own; together the farthest lag overflows
            (["rx_array.num_elements = 40", "rx_array.spacing = 5e306"], "rx_array.num_elements, rx_array.spacing"),
        ],
    )
    def test_section_error_names_the_keys_that_fail(self, tmp_path, lines, names):
        for i, order in enumerate((lines, lines[::-1])):
            with pytest.raises(ConfigError, match=f"^{re.escape(names)}: "):
                parse_config(write_cfg(tmp_path, "\n".join(order) + "\n", name=f"{i}.cfg"))

    def test_cross_key_error_names_the_keys_it_reads(self, tmp_path):
        path = write_cfg(tmp_path, "cir.paths_per_cluster_range = 1 1500\nrun.num_drops = 5\n")
        with pytest.raises(ConfigError, match=r"^cir\.paths_per_cluster_range: a chunk of"):
            parse_config(path)

    def test_parsed_config_is_frozen(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, BASE_CFG))
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.num_drops = 0
        assert hash(cfg) == hash(parse_config(write_cfg(tmp_path, BASE_CFG)))  # no mutable field


class TestDumpDefaults:
    def test_exact_table_lines(self, capsys):
        assert cmd_dump_defaults() == 0
        out = capsys.readouterr().out
        assert "NLOS V-V: A=0.9 B=1 C=-0.1" in out
        assert "LOS V-V: A=0.99 B=1.95 C=0" in out
        assert "LOS V-H: A=1 B=0.9 C=0.05" in out
        assert "NLOS V-H: A=1 B=2.6 C=0" in out
        assert "LOS-to-NLOS autocorr: unavailable" in out
        assert "LOS V-V K: 9-15 dB" in out
        assert "NLOS V-V K: 5-8 dB" in out
        assert "LOS-to-NLOS V-V K: 4-7 dB" in out
        assert "LOS-to-NLOS V-H K: 6-10 dB" in out


class TestSimulateCapacity:
    def test_writes_expected_files(self, tmp_path, capsys):
        cfg = parse_config(write_cfg(tmp_path, BASE_CFG))
        out_dir = str(tmp_path / "out")
        assert cmd_simulate_capacity(cfg, out_dir) == 0
        for label in ("rayleigh", "rician5dB"):
            cap = os.path.join(out_dir, f"capacity_{label}.csv")
            cdf = os.path.join(out_dir, f"cdf_{label}.csv")
            assert os.path.exists(cap) and os.path.exists(cdf)
            lines = open(cap).read().splitlines()
            assert lines[0] == "drop_index,seed,capacity_bps_hz"
            assert len(lines) == 1 + 8
        out = capsys.readouterr().out
        assert "median=" in out and "p10=" in out and "p90=" in out

    def test_byte_identical_reruns(self, tmp_path):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        outs = []
        for d in ("a", "b"):
            cfg = parse_config(cfg_path)
            out_dir = str(tmp_path / d)
            cmd_simulate_capacity(cfg, out_dir)
            outs.append(
                {
                    f: open(os.path.join(out_dir, f), "rb").read()
                    for f in sorted(os.listdir(out_dir))
                }
            )
        assert outs[0] == outs[1]

    def test_csv_bytes_equal_per_row_float_formatting(self, tmp_path):
        text = BASE_CFG.replace("fading.models = rayleigh rician:5", "fading.models = rayleigh rician:5 rician:15")
        cfg = parse_config(write_cfg(tmp_path, text))
        out_dir = tmp_path / "out"
        assert cmd_simulate_capacity(cfg, str(out_dir)) == 0
        for fading in cfg.fading_models:
            result = run_monte_carlo(
                cfg.scenario, cfg.cir_gen, cfg.rx_array, cfg.tx_array, fading, cfg.capacity,
                cfg.num_drops, cfg.master_seed, cfg.resolved_autocorr(),
            )
            cap, cdf = per_row_csvs(result)
            assert (out_dir / f"capacity_{fading.label()}.csv").read_text() == cap
            assert (out_dir / f"cdf_{fading.label()}.csv").read_text() == cdf

    def test_tied_capacities_keep_per_row_bytes(self, tmp_path, monkeypatch):
        caps = [2.5, 0.0, 1 / 3, 2.5, 0.0, 1e-17, 7.25, 1 / 3]
        result = np.rec.fromarrays(
            [np.arange(8), np.arange(8, dtype=np.uint64) * 2**61, caps], dtype=RESULT_DTYPE
        )
        # the records of both models of BASE_CFG, the second's reversed
        both = np.concatenate([result, result[::-1]]).view(np.recarray)
        monkeypatch.setattr(mmwchan.cli, "run_monte_carlo", lambda **kw: both)
        cfg = parse_config(write_cfg(tmp_path, BASE_CFG))
        out_dir = tmp_path / "out"
        assert cmd_simulate_capacity(cfg, str(out_dir)) == 0
        cap, cdf = per_row_csvs(result)
        assert (out_dir / "capacity_rayleigh.csv").read_text() == cap
        assert (out_dir / "cdf_rayleigh.csv").read_text() == cdf

    def test_single_drop_single_row(self, tmp_path):
        text = BASE_CFG.replace("run.num_drops = 8", "run.num_drops = 1")
        cfg = parse_config(write_cfg(tmp_path, text))
        out_dir = str(tmp_path / "one")
        cmd_simulate_capacity(cfg, out_dir)
        lines = open(os.path.join(out_dir, "capacity_rayleigh.csv")).read().splitlines()
        assert len(lines) == 2

    def test_imported_cir_drives_the_campaign(self, tmp_path):
        # a single-path imported CIR makes the channel frequency-flat, so a
        # huge-K Rician campaign collapses to a near-deterministic capacity
        src = tmp_path / "single.csv"
        src.write_text(
            "delay_ns,power_linear,phase_rad,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg\n"
            "0.0,1.0,0.0,0.0,0.0,0.0,0.0\n"
        )
        text = BASE_CFG.replace(
            "fading.models = rayleigh rician:5", "fading.models = rician:120"
        ) + f"\ncir.import_path = {src}\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        out_dir = str(tmp_path / "imported")
        cmd_simulate_capacity(cfg, out_dir)
        rows = open(os.path.join(out_dir, "capacity_rician120dB.csv")).read().splitlines()[1:]
        caps = [float(r.split(",")[2]) for r in rows]
        assert max(caps) - min(caps) < 1e-3

    def test_imported_cir_counts_toward_the_chunk_size(self, tmp_path, capsys, monkeypatch):
        # the limit sits just under one drop of 3000 components and above the
        # chunks of the default and this config, which size drawn CIRs only
        monkeypatch.setattr(mmwchan.cli, "CHUNK_BYTES_MAX", batch_bytes(3000, 6, 1, 20) - 1)
        for components, code in ((2999, 0), (3000, 2)):
            src = tmp_path / f"cir{components}.csv"
            rows = (f"{0.1 * i:.1f},1.0,0.0,0.0,0.0,0.0,0.0" for i in range(components))
            src.write_text(",".join(CIR_FILE_FIELDS) + "\n" + "\n".join(rows) + "\n")
            path = write_cfg(tmp_path, BASE_CFG + f"\ncir.import_path = {src}\n")
            out_dir = tmp_path / f"out{components}"
            assert main(["simulate-capacity", "--config", path, "--drops", "2", "--out", str(out_dir)]) == code
            assert ("cir.import_path" in capsys.readouterr().err) == (code == 2)
            assert out_dir.exists() == (code == 0)

    def test_import_path_may_contain_hash(self, tmp_path):
        src_dir = tmp_path / "runs"
        src_dir.mkdir()
        src = src_dir / "a#1.csv"
        src.write_text(
            "delay_ns,power_linear,phase_rad,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg\n"
            "0.0,1.0,0.0,0.0,0.0,0.0,0.0\n"
        )
        text = BASE_CFG + f"\ncir.import_path = {src}  # trailing comment\n# run.num_drops = 1\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        assert cfg.cir_import_path == str(src)
        assert cfg.num_drops == 8
        out_dir = str(tmp_path / "hash")
        assert cmd_simulate_capacity(cfg, out_dir) == 0
        rows = open(os.path.join(out_dir, "capacity_rayleigh.csv")).read().splitlines()
        assert len(rows) == 1 + 8

    def test_parallel_workers_config_matches_serial(self, tmp_path):
        outs = []
        for d, extra in (("w1", ""), ("w2", "\nrun.num_workers = 2\n")):
            cfg = parse_config(write_cfg(tmp_path, BASE_CFG + extra, name=f"{d}.cfg"))
            out_dir = str(tmp_path / d)
            cmd_simulate_capacity(cfg, out_dir)
            outs.append(open(os.path.join(out_dir, "capacity_rayleigh.csv")).read())
        assert outs[0] == outs[1]

    def test_share_initial_cir_flag(self, tmp_path):
        outs = {}
        for name, extra in (("fresh", ""), ("shared", "\nrun.share_initial_cir = true\n")):
            cfg = parse_config(write_cfg(tmp_path, BASE_CFG + extra, name=f"{name}.cfg"))
            out_dir = str(tmp_path / name)
            cmd_simulate_capacity(cfg, out_dir)
            outs[name] = open(os.path.join(out_dir, "capacity_rayleigh.csv")).read()
            cmd_simulate_cir(cfg, out_dir)
        assert outs["fresh"] != outs["shared"]
        # simulate-cir writes the CIR that the capacity run shares across drops
        rng = np.random.default_rng(np.random.SeedSequence(entropy=77, spawn_key=(1, 0)))
        shared = tmp_path / "shared_cir.csv"
        export_cir(generate_initial_cir(cfg.cir_gen, cfg.scenario, rng), shared)
        assert (tmp_path / "shared" / "cir.csv").read_bytes() == shared.read_bytes()
        assert (tmp_path / "fresh" / "cir.csv").read_bytes() != shared.read_bytes()

    def test_corr_matrix_dump_round_trips(self, tmp_path):
        from mmwchan.cli import read_corr_matrix_csv
        from mmwchan.core import FadingModel
        from mmwchan.spatial import build_amplitude_matched_corr

        cfg = parse_config(write_cfg(tmp_path, BASE_CFG))
        out_dir = str(tmp_path / "dump")
        cmd_simulate_capacity(cfg, out_dir, dump_corr=True)
        rx = read_corr_matrix_csv(os.path.join(out_dir, "corr_rx.csv"))
        assert rx.shape == (6, 6)
        expected = build_amplitude_matched_corr(
            cfg.resolved_autocorr(), cfg.rx_array, FadingModel.rayleigh()
        )
        assert np.array_equal(rx, expected)
        tx = read_corr_matrix_csv(os.path.join(out_dir, "corr_tx.csv"))
        assert tx.shape == (1, 1)


class TestSimulateCirAndEstimate:
    def test_outputs_roundtrip_through_importers(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, BASE_CFG))
        out_dir = str(tmp_path / "cir")
        assert cmd_simulate_cir(cfg, out_dir) == 0
        cir = import_cir(os.path.join(out_dir, "cir.csv"), cfg.scenario)
        assert cir.num_components >= 1
        track = read_track(os.path.join(out_dir, "track.csv"))
        assert track.num_positions == cfg.track_positions

    def test_single_path_import_gives_single_bin_grid(self, tmp_path):
        src = tmp_path / "single.csv"
        src.write_text(
            "delay_ns,power_linear,phase_rad,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg\n"
            "0.0,1.0,0.0,0.0,0.0,0.0,0.0\n"
        )
        text = BASE_CFG + f"\ncir.import_path = {src}\n"
        cfg = parse_config(write_cfg(tmp_path, text))
        out_dir = str(tmp_path / "imp")
        cmd_simulate_cir(cfg, out_dir)
        track = read_track(os.path.join(out_dir, "track.csv"))
        assert track.num_bins == 1

    def test_track_too_large_exit_2_before_writing(self, tmp_path, capsys):
        # it wrote cir.csv, then exited 3 allocating a 728 TiB lag matrix
        path = write_cfg(tmp_path, BASE_CFG + "\ntrack.num_positions = 10000000\n")
        out_dir = tmp_path / "cir"
        assert main(["simulate-cir", "--config", path, "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "track.num_positions" in err and "256 MiB limit" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("bin_ns", ["1e-9", "1e-300", "1e-320"])
    def test_delay_bin_grid_exit_2_before_writing(self, tmp_path, capsys, bin_ns):
        # each wrote cir.csv, then exited 3: allocating 10.9 TiB for 1e-9 ns,
        # past numpy's largest dimension for 1e-300, and dividing by 0 s for
        # 1e-320; the last two are not normal floats in seconds
        fig4 = os.path.join(os.path.dirname(__file__), "..", "configs", "fig4.cfg")
        path = write_cfg(tmp_path, open(fig4).read() + f"\ntrack.delay_bin_ns = {bin_ns}\n")
        out_dir = tmp_path / "cir"
        assert main(["simulate-cir", "--config", path, "--out", str(out_dir)]) == 2
        assert "track.delay_bin_ns" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_track_size_limit_is_the_chunk_limit(self, tmp_path, monkeypatch, capsys):
        # 256 positions: the track's bound (6 MiB) is above the config's
        # chunk size, which the same limit caps
        path = write_cfg(tmp_path, BASE_CFG + "\ntrack.num_positions = 256\n")
        monkeypatch.setattr(mmwchan.cli, "CHUNK_BYTES_MAX", track_bytes(256) - 1)
        assert main(["simulate-cir", "--config", path, "--out", str(tmp_path / "over")]) == 2
        assert "track.num_positions" in capsys.readouterr().err
        assert not (tmp_path / "over").exists()
        monkeypatch.setattr(mmwchan.cli, "CHUNK_BYTES_MAX", track_bytes(256))
        assert main(["simulate-cir", "--config", path, "--out", str(tmp_path / "at")]) == 0
        assert read_track(tmp_path / "at" / "track.csv").num_positions == 256

    def test_underflowed_paths_are_no_components(self, tmp_path, capsys):
        # fig4 with a cluster decay so short that the second cluster's
        # powers underflow to 0: only the first cluster's 1-3 paths remain
        with open(os.path.join(os.path.dirname(__file__), "..", "configs", "fig4.cfg"), encoding="utf-8") as fh:
            text = fh.read() + "\ncir.num_clusters_range = 2 2\ncir.cluster_decay_ns = 0.001\n"
        path = write_cfg(tmp_path, text)
        out_dir = tmp_path / "cir"
        assert main(["simulate-cir", "--config", path, "--out", str(out_dir)]) == 0
        cir = import_cir(str(out_dir / "cir.csv"), parse_config(path).scenario)
        assert 1 <= cir.num_components <= 3

    def test_estimate_round_trip_fit(self, tmp_path, capsys):
        # synthesize a measured-length track under the LOS V-V model and
        # recover the exponential-model constants from it
        text = """
scenario = LOS V-V
cir.num_clusters_range = 4 6
cir.paths_per_cluster_range = 3 5
cir.cluster_decay_ns = 60
cir.intracluster_decay_ns = 15
fading.models = rician:12
track.num_positions = 66
track.delta_x = 0.5
run.master_seed = 0
"""
        cfg = parse_config(write_cfg(tmp_path, text))
        out_dir = str(tmp_path / "est")
        cmd_simulate_cir(cfg, out_dir)
        assert cmd_estimate(os.path.join(out_dir, "track.csv"), out_dir) == 0
        fit_txt = open(os.path.join(out_dir, "fit.txt")).read()
        a = float(re.search(r"A = (.*)", fit_txt).group(1))
        b = float(re.search(r"B = (.*)", fit_txt).group(1))
        c = float(re.search(r"C = (.*)", fit_txt).group(1))
        assert abs(a - 0.99) <= 0.15
        assert abs(b - 1.95) <= 0.15
        assert abs(c - 0.0) <= 0.15
        curve_lines = open(os.path.join(out_dir, "autocorr_curve.csv")).read().splitlines()
        assert curve_lines[0] == "lag_wavelengths,rho"
        assert len(curve_lines) > 3

    def test_estimate_constant_track_flagged(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text(
            "delta_x_wavelengths,delay_bin_ns,num_positions,num_bins\n"
            "0.5,2.5,12,1\n" + "\n".join(["2.0"] * 12) + "\n"
        )
        out_dir = tmp_path / "o"
        code = main(["estimate", str(path), "--out", str(out_dir)])
        assert code == 2  # all bins carry zero variance: a bad track, named
        err = capsys.readouterr().err
        assert "zero variance" in err and str(path) in err
        assert not out_dir.exists()

    def test_estimate_far_lags_flagged(self, tmp_path, capsys):
        # lags 1e306 wavelengths apart: exp(-b*lag) is 0 beyond lag 0 for
        # every b > 0 of the grid, so the residual is flat in b
        amplitudes = [1.0, 0.4, 1.3, 0.7, 1.1, 0.2, 0.9, 1.4, 0.5, 1.0, 0.8, 0.3]
        path = tmp_path / "far.csv"
        path.write_text("delta_x_wavelengths,delay_bin_ns,num_positions,num_bins\n"
                        f"1e306,2.5,{len(amplitudes)},1\n" + "".join(f"{a}\n" for a in amplitudes))
        out_dir = tmp_path / "o"
        assert main(["estimate", str(path), "--out", str(out_dir)]) == 0
        assert "identifiable = no\n" in (out_dir / "fit.txt").read_text()
        assert "warning: decay rate non-identifiable" in capsys.readouterr().out

    @pytest.mark.parametrize("positions,code", [(2, 2), (5, 2), (9, 2), (10, 0)])
    def test_estimate_short_track_exit_2_names_track(self, tmp_path, capsys, positions, code):
        # the fit needs 3 lags, each keeping max(8, 3n/4) positions in its
        # window: 10 positions at the least
        cfg_path = write_cfg(tmp_path, BASE_CFG + f"\ntrack.num_positions = {positions}\n")
        cir_dir, out_dir = tmp_path / "cir", tmp_path / "est"
        assert main(["simulate-cir", "--config", cfg_path, "--out", str(cir_dir)]) == 0
        track = str(cir_dir / "track.csv")
        capsys.readouterr()
        assert main(["estimate", track, "--out", str(out_dir)]) == code
        if code:
            err = capsys.readouterr().err
            assert track in err and "3 defined lags" in err
            assert not out_dir.exists()


class TestMainEntry:
    def test_exit_codes(self, tmp_path, capsys):
        assert main(["dump-defaults"]) == 0
        assert main(["simulate-capacity", "--config", "/nope/missing.cfg"]) == 2
        err = capsys.readouterr().err
        assert "missing.cfg" in err

    def test_bad_config_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE_CFG + "\njunk line without equals\n")
        assert main(["simulate-capacity", "--config", path]) == 2

    @pytest.mark.parametrize(
        "models,label", [("rician:5 rician:5.0000001", "rician5dB"), ("rayleigh RAYLEIGH", "rayleigh")]
    )
    def test_repeated_fading_label_exit_2(self, tmp_path, capsys, models, label):
        # both models would write capacity_<label>.csv, the second over the first
        path = write_cfg(tmp_path, BASE_CFG.replace("fading.models = rayleigh rician:5", f"fading.models = {models}"))
        out_dir = tmp_path / "o"
        assert main(["simulate-capacity", "--config", path, "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "fading.models" in err and label in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("model", ["rician:1e308", "rician:200", "rician:-60.5"])
    def test_rician_k_outside_clamp_range_exit_2(self, tmp_path, capsys, model):
        # 1e308 dB overflowed the dB conversion (exit 3); 200 dB was clamped
        # to 120 dB without notice
        models = f"fading.models = rayleigh {model}"
        path = write_cfg(tmp_path, BASE_CFG.replace("fading.models = rayleigh rician:5", models))
        out_dir = tmp_path / "o"
        for command in ("simulate-cir", "simulate-capacity"):
            assert main([command, "--config", path, "--out", str(out_dir)]) == 2
            err = capsys.readouterr().err
            assert "fading.models" in err and model in err and "[-60, 120] dB" in err
            assert not out_dir.exists()

    @pytest.mark.parametrize(
        "key,value",
        [
            ("capacity.snr_db", "nan"),
            # finite SNRs outside [-300, 300] dB: 4000 exited 3 on an
            # overflow, 1600 on non-finite capacities
            ("capacity.snr_db", "4000"),
            ("capacity.snr_db", "1600"),
            ("--snr-db", "4000"),
            ("--snr-db", "1600"),
            ("capacity.bandwidth_hz", "inf"),
            ("rx_array.spacing", "inf"),
            ("rx_array.spacing", "0"),
            ("tx_array.num_elements", "0"),
            ("cir.num_clusters_range", "0 2"),
            ("capacity.num_subcarriers", "0"),
            ("run.share_initial_cir", "maybe"),
            ("run.master_seed", "-1"),
            ("track.num_positions", "1"),
            ("track.delta_x", "0"),
            ("track.delay_bin_ns", "0"),
            ("--seed", "-3"),
            ("autocorr", "0.9 inf 0"),
            # 2*pi*BW/2 overflowed: NaN phases, exit 3
            ("capacity.bandwidth_hz", "1e308"),
            # 0 s decays: every capacity 0.0, exit 0
            ("cir.cluster_decay_ns", "1e-320"),
            ("cir.intracluster_decay_ns", "1e-320"),
            # a chunk's uniform block alone would take terabytes, and one drop at
            # 1e8 subcarriers gigabytes: sized, not allocated
            ("cir.paths_per_cluster_range", "1 100000000"),
            ("capacity.num_subcarriers", "100000000"),
            # more workers than CPUs; no process is started
            ("run.num_workers", str((os.cpu_count() or 1) + 1)),
            # metadata only, but it was accepted and the run exited 0
            ("capacity.center_frequency_hz", "-1"),
            ("capacity.center_frequency_hz", "0"),
            # the farthest lag, (n - 1) * spacing, overflowed: a RuntimeWarning
            ("rx_array.spacing", "1e308"),
            ("track.delta_x", "1e308"),
            # counts too large for a float: "int too large to convert to float", exit 3
            pytest.param("rx_array.num_elements", "1" + "0" * 400, id="rx_array.num_elements-hugecount"),
            pytest.param("tx_array.num_elements", "1" + "0" * 400, id="tx_array.num_elements-hugecount"),
            pytest.param("track.num_positions", "1" + "0" * 400, id="track.num_positions-hugecount"),
            pytest.param("capacity.num_subcarriers", "1" + "0" * 400, id="capacity.num_subcarriers-hugecount"),
        ],
    )
    def test_non_finite_value_exit_2_names_key(self, tmp_path, capsys, key, value):
        flag = [key, value] if key.startswith("--") else []
        text = "\n".join(line for line in BASE_CFG.splitlines() if not line.startswith(key))
        path = write_cfg(tmp_path, text if flag else text + f"\n{key} = {value}\n")
        out_dir = tmp_path / "out"
        for command in ("simulate-cir", "simulate-capacity"):
            assert main([command, "--config", path, *flag, "--out", str(out_dir)]) == 2
            assert key in capsys.readouterr().err
            assert not out_dir.exists()  # no cir.csv, nor any other file

    @pytest.mark.parametrize("key", list(mmwchan.cli._CONFIG_KEYS))
    def test_every_key_rejects_a_malformed_value(self, tmp_path, capsys, key):
        # a key added to the table without a malformed value here fails
        value = str(tmp_path / "missing.csv") if key == "cir.import_path" else MALFORMED[key]
        out_dir = tmp_path / "out"
        path = write_cfg(tmp_path, BASE_CFG + f"\nrun.output_dir = {out_dir}\n{key} = {value}\n")
        for command in ("simulate-cir", "simulate-capacity"):
            assert main([command, "--config", path]) == 2
            assert key in capsys.readouterr().err
            assert os.listdir(tmp_path) == ["run.cfg"]

    def test_los_to_nlos_without_autocorr_exit_2(self, tmp_path, capsys):
        # LOS-to-NLOS scenarios have no fitted autocorrelation in the table
        text = BASE_CFG.replace("scenario = NLOS V-V", "scenario = LOS-to-NLOS V-V")
        path = write_cfg(tmp_path, text.replace("autocorr = table-default\n", ""))
        out_dir = tmp_path / "o"
        for command in ("simulate-cir", "simulate-capacity"):
            assert main([command, "--config", path, "--out", str(out_dir)]) == 2
            err = capsys.readouterr().err
            assert "autocorr" in err and "LOS-to-NLOS V-V" in err
            assert not out_dir.exists()  # simulate-cir wrote cir.csv first

    def test_decay_exponent_overflow_runs(self, tmp_path):
        # b * lag overflows to inf, where exp(-b * lag) is exactly 0
        path = write_cfg(tmp_path, BASE_CFG.replace("autocorr = table-default", "autocorr = 0.9 1e308 -0.1"))
        for command in ("simulate-cir", "simulate-capacity"):
            assert main([command, "--config", path, "--out", str(tmp_path / command)]) == 0

    def test_non_finite_snr_override_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE_CFG)
        assert main(["simulate-capacity", "--config", path, "--snr-db", "nan", "--out", str(tmp_path / "o")]) == 2
        assert "--snr-db" in capsys.readouterr().err

    def test_defaults_have_one_source(self, tmp_path, capsys):
        assert parse_config(write_cfg(tmp_path, "# nothing set\n", name="empty.cfg")) == ScenarioConfig()
        base = write_cfg(tmp_path, BASE_CFG)
        keys = write_cfg(
            tmp_path,
            BASE_CFG + "\nrun.master_seed = 5\nrun.num_drops = 3\ncapacity.snr_db = 4.5\n",
            name="keys.cfg",
        )
        for command in ("simulate-cir", "simulate-capacity"):
            by_flags, by_keys = tmp_path / f"{command}-flags", tmp_path / f"{command}-keys"
            flags = ["--seed", "5", "--drops", "3", "--snr-db", "4.5"]
            assert main([command, "--config", base, *flags, "--out", str(by_flags)]) == 0
            assert main([command, "--config", keys, "--out", str(by_keys)]) == 0
            names = sorted(os.listdir(by_flags))
            assert names == sorted(os.listdir(by_keys))
            for name in names:
                assert (by_flags / name).read_bytes() == (by_keys / name).read_bytes()
        capsys.readouterr()
        assert main(["simulate-capacity", "--config", base, "--drops", "0", "--out", str(tmp_path / "o")]) == 2
        assert "--drops" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [
            ("num_positions", "inf"),
            ("num_positions", "11.9"),
            ("delta_x_wavelengths", "inf"),
            ("delta_x_wavelengths", "1e308"),  # the farthest of 11 positions overflowed
            ("delay_bin_ns", "inf"),
        ],
    )
    def test_estimate_bad_track_header_exit_2_names_field(self, tmp_path, capsys, field, value):
        fig4 = os.path.join(os.path.dirname(__file__), "..", "configs", "fig4.cfg")
        cir_dir, out_dir = tmp_path / "cir", tmp_path / "est"
        assert main(["simulate-cir", "--config", fig4, "--out", str(cir_dir)]) == 0
        lines = (cir_dir / "track.csv").read_text().splitlines()
        names = lines[0].split(",")
        cells = lines[1].split(",")
        cells[names.index(field)] = value
        track = tmp_path / "track.csv"
        track.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n")
        capsys.readouterr()
        assert main(["estimate", str(track), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert str(track) in err and f"line 2: {field}" in err
        assert not out_dir.exists()

    def test_estimate_missing_track_names_path(self, capsys):
        code = main(["estimate", "/no/such/track.csv"])
        assert code == 2
        assert "/no/such/track.csv" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["undecodable_config", "bad_cir_scenario", "track_directory"])
    def test_unreadable_input_exit_2_names_file(self, tmp_path, capsys, case):
        # a UnicodeDecodeError, a ValueError and an IsADirectoryError are file errors, not exit 3
        cfg, out_dir = tmp_path / "run.cfg", tmp_path / "out"
        argv = ["simulate-capacity", "--config", str(cfg)]
        if case == "undecodable_config":
            bad = cfg
            cfg.write_bytes(BASE_CFG.encode() + b"run.num_drops = 5\xff\n")
        elif case == "bad_cir_scenario":
            bad = tmp_path / "cir.csv"
            bad.write_text(
                "# scenario: NLOS X-Y\n"
                "delay_ns,power_linear,phase_rad,aod_az_deg,aod_el_deg,aoa_az_deg,aoa_el_deg\n"
                "0.0,1.0,0.0,0.0,0.0,0.0,0.0\n"
            )
            cfg.write_text(BASE_CFG + f"\ncir.import_path = {bad}\n")
        else:
            bad = tmp_path / "track.csv"
            bad.mkdir()
            argv = ["estimate", str(bad)]
        assert main([*argv, "--out", str(out_dir)]) == 2
        assert str(bad) in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "case, lineno",
        [("config", 7), ("cir_record", 7), ("track_cell", 7), ("track_header_value", 4)],
    )
    def test_error_line_counts_every_line_of_the_file(self, tmp_path, capsys, case, lineno):
        # a comment line and a blank line sit above the first data line; the
        # track once counted only its data lines, so its cell said line 5 and
        # its header values always said line 2
        cfg, out_dir = tmp_path / "run.cfg", tmp_path / "out"
        argv = ["simulate-capacity", "--config", str(cfg)]
        above = "# comment\n\n"
        if case == "config":
            bad = cfg
            cfg.write_text(above + "scenario = NLOS V-V\nrun.num_drops = 2\n\n# more\njunk line without equals\n")
        elif case == "cir_record":
            bad = tmp_path / "cir.csv"
            bad.write_text(
                above + ",".join(CIR_FILE_FIELDS) + "\n"
                "0.0,1.0,0.0,0.0,0.0,0.0,0.0\n\n# more\n"
                "1.0,x,0.0,0.0,0.0,0.0,0.0\n"
            )
            cfg.write_text(BASE_CFG + f"\ncir.import_path = {bad}\n")
        else:
            bad = tmp_path / "track.csv"
            values = "0.5,x,3,2" if case == "track_header_value" else "0.5,2.5,3,2"
            bad.write_text(above + ",".join(TRACK_HEADER_FIELDS) + f"\n{values}\n1.0,2.0\n1.0,2.0\n1.0,x\n")
            argv = ["estimate", str(bad)]
        assert main([*argv, "--out", str(out_dir)]) == 2
        assert f"{bad}: line {lineno}:" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_seed_and_drops_overrides(self, tmp_path):
        cfg_path = write_cfg(tmp_path, BASE_CFG)
        out_a = str(tmp_path / "ova")
        out_b = str(tmp_path / "ovb")
        assert main(["simulate-capacity", "--config", cfg_path, "--drops", "3",
                     "--seed", "1234", "--out", out_a]) == 0
        assert main(["simulate-capacity", "--config", cfg_path, "--drops", "3",
                     "--seed", "1234", "--out", out_b]) == 0
        a = open(os.path.join(out_a, "capacity_rayleigh.csv")).read()
        b = open(os.path.join(out_b, "capacity_rayleigh.csv")).read()
        assert a == b
        assert len(a.splitlines()) == 4

    def test_bundled_recipes_parse(self):
        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        for name in ("fig4.cfg", "fig5.cfg", "fig6.cfg"):
            cfg = parse_config(os.path.join(root, name))
            assert cfg.num_drops >= 1


class TestLocalAreaPdpGrid:
    def test_per_bin_power_stability_over_local_area(self):
        """The K=5 dB local-area recipe keeps each resolvable delay bin's
        power swing modest across the 11-position track: the ensemble median
        of the per-bin max/min range computes to ~7.9 dB (Rician K=5 power
        statistics over correlated half-wavelength steps)."""
        from mmwchan.cirgen import generate_initial_cir
        from mmwchan.cli import _bin_track_grid
        from mmwchan.spatial import simulate_amplitude_track

        root = os.path.join(os.path.dirname(__file__), "..", "configs")
        cfg = parse_config(os.path.join(root, "fig4.cfg"))
        params = cfg.resolved_autocorr()
        fading = cfg.fading_models[0]
        assert fading.label() == "rician5dB"
        ranges = []
        for seed in range(100):
            cir = generate_initial_cir(cfg.cir_gen, cfg.scenario, np.random.default_rng(seed))
            rng = np.random.default_rng(seed + 10_000)
            amps = simulate_amplitude_track(
                cir, params, cfg.track_positions, cfg.track_delta_x, fading, rng
            )
            grid = _bin_track_grid(amps, cir.delays.tolist(), cfg.track_delay_bin_ns)
            assert grid.shape[0] == 11
            power = grid**2
            for b in range(power.shape[1]):
                col = power[:, b]
                if np.all(col > 0):
                    ranges.append(10.0 * np.log10(col.max() / col.min()))
        med = float(np.median(ranges))
        assert 7.0 < med < 9.0
