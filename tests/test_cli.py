import os
import re

import numpy as np
import pytest

from mmwchan.cirgen import import_cir
from mmwchan.cli import (
    ConfigError,
    cmd_dump_defaults,
    cmd_estimate,
    cmd_simulate_capacity,
    cmd_simulate_cir,
    main,
    parse_config,
)
from mmwchan.estimators import read_track

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


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


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
        assert cfg.cir_gen.rng_seed == 77  # all randomness flows from the master seed

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
        assert outs["fresh"] != outs["shared"]

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
        ).entries
        assert np.array_equal(rx, expected)
        tx = read_corr_matrix_csv(os.path.join(out_dir, "corr_tx.csv"))
        assert tx.shape == (1, 1)


class TestSimulateCirAndEstimate:
    def test_outputs_roundtrip_through_importers(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, BASE_CFG))
        out_dir = str(tmp_path / "cir")
        assert cmd_simulate_cir(cfg, out_dir) == 0
        cir = import_cir(os.path.join(out_dir, "cir.csv"))
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
        code = main(["estimate", str(path), "--out", str(tmp_path / "o")])
        assert code == 3  # all bins carry zero variance: runtime error, not a crash
        err = capsys.readouterr().err
        assert "zero variance" in err


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
        "key,value", [("capacity.snr_db", "nan"), ("capacity.bandwidth_hz", "inf"), ("rx_array.spacing", "inf")]
    )
    def test_non_finite_value_exit_2_names_key(self, tmp_path, capsys, key, value):
        text = "\n".join(line for line in BASE_CFG.splitlines() if not line.startswith(key))
        path = write_cfg(tmp_path, text + f"\n{key} = {value}\n")
        out_dir = tmp_path / "out"
        assert main(["simulate-capacity", "--config", path, "--out", str(out_dir)]) == 2
        assert key in capsys.readouterr().err
        assert not out_dir.exists()

    def test_non_finite_snr_override_exit_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, BASE_CFG)
        assert main(["simulate-capacity", "--config", path, "--snr-db", "nan", "--out", str(tmp_path / "o")]) == 2
        assert "--snr-db" in capsys.readouterr().err

    def test_estimate_missing_track_names_path(self, capsys):
        code = main(["estimate", "/no/such/track.csv"])
        assert code == 2
        assert "/no/such/track.csv" in capsys.readouterr().err

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
        import dataclasses

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
            gen = dataclasses.replace(cfg.cir_gen, rng_seed=seed)
            cir = generate_initial_cir(gen, cfg.scenario)
            rng = np.random.default_rng(seed + 10_000)
            amps = simulate_amplitude_track(
                cir, params, cfg.track_positions, cfg.track_delta_x, fading, rng
            )
            grid = _bin_track_grid(amps, cir.delays(), cfg.track_delay_bin_ns)
            assert grid.shape[0] == 11
            power = grid**2
            for b in range(power.shape[1]):
                col = power[:, b]
                if np.all(col > 0):
                    ranges.append(10.0 * np.log10(col.max() / col.min()))
        med = float(np.median(ranges))
        assert 7.0 < med < 9.0
