"""Command-line front end: config parsing, pipeline orchestration, file I/O.

Commands: ``simulate-cir``, ``simulate-capacity``, ``estimate``,
``dump-defaults``. A run is fully described by one flat ``key = value``
config file plus the master seed; identical config and seed produce
byte-identical outputs. Exit codes: 0 success, 2 config error, 3 runtime
error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import re
import sys
from dataclasses import dataclass, field

import numpy as np

from .capacity import CapacityConfig, capacity_cdf, capacity_quantiles, run_monte_carlo
from .cirgen import CirFileError, CirGenConfig, export_cir, generate_initial_cir, import_cir
from .core import (
    ArrayGeometry,
    AutocorrParams,
    FadingModel,
    Scenario,
    all_scenarios,
    lookup_default_params,
)
from .estimators import (
    TrackFileError,
    TrackMeasurement,
    average_autocorr,
    estimate_k_factor,
    fit_autocorr_mmse,
    read_track,
    write_track,
)
from .spatial import build_amplitude_matched_corr, simulate_amplitude_track


class ConfigError(ValueError):
    """Raised for unparseable or invalid run configuration."""


@dataclass
class ScenarioConfig:
    """One fully specified run: scenario, channel source, arrays, fading
    models to compare, autocorrelation params, capacity settings, seeds."""

    scenario: Scenario = field(default_factory=lambda: Scenario.parse("NLOS V-V"))
    cir_gen: CirGenConfig = field(default_factory=CirGenConfig)
    cir_import_path: str | None = None
    rx_array: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(num_elements=20))
    tx_array: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(num_elements=1))
    fading_models: list[FadingModel] = field(default_factory=lambda: [FadingModel.rician(5.0)])
    autocorr: AutocorrParams | None = None  # None = table default for the scenario
    capacity: CapacityConfig = field(default_factory=CapacityConfig)
    num_drops: int = 2000
    master_seed: int = 1
    num_workers: int = 1
    share_initial_cir: bool = False
    output_dir: str = "out"
    track_positions: int = 11
    track_delta_x: float = 0.5
    track_delay_bin_ns: float = 2.5

    def resolved_autocorr(self) -> AutocorrParams:
        if self.autocorr is not None:
            return self.autocorr
        defaults = lookup_default_params(self.scenario)
        if defaults.autocorr is None:
            raise ConfigError(
                f"scenario {self.scenario.label()!r} has no fitted autocorrelation "
                "parameters; set 'autocorr = A B C' in the config"
            )
        return defaults.autocorr


def _parse_int_pair(value: str, key: str) -> tuple[int, int]:
    parts = value.split()
    if len(parts) != 2:
        raise ConfigError(f"{key}: expected two integers, got {value!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _parse_finite(value: str) -> float:
    x = float(value)
    if not math.isfinite(x):
        raise ValueError(f"must be finite, got {value!r}")
    return x


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ConfigError(f"expected a boolean, got {value!r}")


def _parse_fading(value: str) -> list[FadingModel]:
    models = []
    for token in value.split():
        if token.lower() == "rayleigh":
            models.append(FadingModel.rayleigh())
        elif token.lower().startswith("rician:"):
            try:
                models.append(FadingModel.rician(float(token.split(":", 1)[1])))
            except ValueError as exc:
                raise ConfigError(f"fading.models: bad Rician entry {token!r}") from exc
        else:
            raise ConfigError(
                f"fading.models: unknown model {token!r} "
                "(use 'rayleigh' or 'rician:<K dB>')"
            )
    if not models:
        raise ConfigError("fading.models: at least one model required")
    return models


#: A comment starts with '#' at the start of a line or after whitespace, so
#: values such as paths may contain '#'.
_COMMENT = re.compile(r"(?:^|\s)#")


def read_config_lines(path) -> dict[str, str]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        pairs[key.strip()] = value.strip()
    return pairs


def parse_config(path) -> ScenarioConfig:
    """Parse a flat dotted-key config file into a ScenarioConfig."""
    pairs = read_config_lines(path)
    cfg = ScenarioConfig()

    def take(key, conv, default):
        if key not in pairs:
            return default
        try:
            return conv(pairs.pop(key))
        except ConfigError:
            raise
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"{key}: {exc}") from exc

    try:
        cfg.scenario = take("scenario", Scenario.parse, cfg.scenario)
        gen_kwargs = dict(
            num_clusters_range=take(
                "cir.num_clusters_range",
                lambda v: _parse_int_pair(v, "cir.num_clusters_range"),
                CirGenConfig().num_clusters_range,
            ),
            paths_per_cluster_range=take(
                "cir.paths_per_cluster_range",
                lambda v: _parse_int_pair(v, "cir.paths_per_cluster_range"),
                CirGenConfig().paths_per_cluster_range,
            ),
            intercluster_void_ns=take("cir.intercluster_void_ns", _parse_finite, 25.0),
            cluster_decay_ns=take("cir.cluster_decay_ns", _parse_finite, CirGenConfig().cluster_decay_ns),
            intracluster_decay_ns=take(
                "cir.intracluster_decay_ns", _parse_finite, CirGenConfig().intracluster_decay_ns
            ),
            num_lobes_range=take(
                "cir.num_lobes_range",
                lambda v: _parse_int_pair(v, "cir.num_lobes_range"),
                CirGenConfig().num_lobes_range,
            ),
            lobe_angular_spread_deg=take(
                "cir.lobe_angular_spread_deg", _parse_finite, CirGenConfig().lobe_angular_spread_deg
            ),
        )
        cfg.cir_import_path = take("cir.import_path", str, None)
        cfg.rx_array = ArrayGeometry(
            num_elements=take("rx_array.num_elements", int, 20),
            spacing=take("rx_array.spacing", _parse_finite, 0.5),
        )
        cfg.tx_array = ArrayGeometry(
            num_elements=take("tx_array.num_elements", int, 1),
            spacing=take("tx_array.spacing", _parse_finite, 0.5),
        )
        cfg.fading_models = take("fading.models", _parse_fading, cfg.fading_models)
        autocorr_txt = pairs.pop("autocorr", "table-default")
        if autocorr_txt != "table-default":
            vals = autocorr_txt.split()
            if len(vals) != 3:
                raise ConfigError("autocorr: expected 'table-default' or three numbers 'A B C'")
            try:
                a, b, c = (_parse_finite(v) for v in vals)
                cfg.autocorr = AutocorrParams(a=a, b=b, c=c)
            except ValueError as exc:
                raise ConfigError(f"autocorr: {exc}") from exc
        cfg.capacity = CapacityConfig(
            bandwidth_hz=take("capacity.bandwidth_hz", _parse_finite, 800e6),
            num_subcarriers=take("capacity.num_subcarriers", int, 100),
            snr_db=take("capacity.snr_db", _parse_finite, 10.0),
            center_frequency_hz=take("capacity.center_frequency_hz", _parse_finite, 28e9),
        )
        cfg.num_drops = take("run.num_drops", int, 2000)
        cfg.master_seed = take("run.master_seed", int, 1)
        cfg.num_workers = take("run.num_workers", int, 1)
        cfg.share_initial_cir = take("run.share_initial_cir", _parse_bool, False)
        cfg.output_dir = take("run.output_dir", str, "out")
        cfg.track_positions = take("track.num_positions", int, 11)
        cfg.track_delta_x = take("track.delta_x", _parse_finite, 0.5)
        cfg.track_delay_bin_ns = take("track.delay_bin_ns", _parse_finite, 2.5)
        cfg.cir_gen = CirGenConfig(rng_seed=cfg.master_seed, **gen_kwargs)
        cfg.cir_gen.validate()
        if cfg.num_drops < 1:
            raise ConfigError("run.num_drops must be >= 1")
        if cfg.num_workers < 1:
            raise ConfigError("run.num_workers must be >= 1")
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    if pairs:
        raise ConfigError(f"unknown config keys: {', '.join(sorted(pairs))}")
    return cfg


def _write_csv(path, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(repr(v) if isinstance(v, float) else str(v) for v in row) + "\n")


def _obtain_cir(cfg: ScenarioConfig):
    if cfg.cir_import_path:
        return import_cir(cfg.cir_import_path, scenario=cfg.scenario)
    return generate_initial_cir(cfg.cir_gen, cfg.scenario)


def _bin_track_grid(amps: np.ndarray, delays_s, bin_ns: float) -> np.ndarray:
    """Collapse per-component amplitude columns into uniform delay bins
    (incoherent power sum within a bin)."""
    bin_s = bin_ns * 1e-9
    idx = [int(d // bin_s) for d in delays_s]
    n_bins = max(idx) + 1
    power = np.zeros((amps.shape[0], n_bins))
    for col, b in enumerate(idx):
        power[:, b] += amps[:, col] ** 2
    return np.sqrt(power)


def cmd_simulate_cir(cfg: ScenarioConfig, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    cir = _obtain_cir(cfg)
    cir_path = os.path.join(out_dir, "cir.csv")
    export_cir(cir, cir_path)

    params = cfg.resolved_autocorr()
    fading = cfg.fading_models[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(3, 0)))
    amps = simulate_amplitude_track(
        cir, params, cfg.track_positions, cfg.track_delta_x, fading, rng
    )
    grid = _bin_track_grid(amps, cir.delays(), cfg.track_delay_bin_ns)
    track = TrackMeasurement(
        amplitudes=grid, delta_x=cfg.track_delta_x, delay_bin_ns=cfg.track_delay_bin_ns
    )
    track_path = os.path.join(out_dir, "track.csv")
    write_track(track, track_path)

    print(f"wrote {cir_path} ({cir.num_components} components)")
    print(f"wrote {track_path} ({track.num_positions} positions x {track.num_bins} delay bins)")
    return 0


def write_corr_matrix_csv(matrix: np.ndarray, path) -> None:
    """Dump a complex matrix row-major, each entry as a re,im value pair."""
    with open(path, "w", encoding="utf-8") as fh:
        for row in np.asarray(matrix, dtype=complex):
            cells = []
            for v in row:
                cells.append(repr(float(v.real)))
                cells.append(repr(float(v.imag)))
            fh.write(",".join(cells) + "\n")


def read_corr_matrix_csv(path) -> np.ndarray:
    """Inverse of :func:`write_corr_matrix_csv`."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            vals = [float(v) for v in line.strip().split(",") if v]
            rows.append([complex(re, im) for re, im in zip(vals[0::2], vals[1::2])])
    return np.asarray(rows, dtype=complex)


def cmd_simulate_capacity(cfg: ScenarioConfig, out_dir: str, dump_corr: bool = False) -> int:
    os.makedirs(out_dir, exist_ok=True)
    params = cfg.resolved_autocorr()
    if dump_corr:
        baseline = FadingModel.rayleigh()
        rr = build_amplitude_matched_corr(params, cfg.rx_array, baseline, side="receive")
        rt = build_amplitude_matched_corr(params, cfg.tx_array, baseline, side="transmit")
        write_corr_matrix_csv(rr.entries, os.path.join(out_dir, "corr_rx.csv"))
        write_corr_matrix_csv(rt.entries, os.path.join(out_dir, "corr_tx.csv"))
    imported_cir = None
    if cfg.cir_import_path:
        # an imported CIR is fixed across drops by definition
        imported_cir = import_cir(cfg.cir_import_path, scenario=cfg.scenario)
    for fading in cfg.fading_models:
        label = fading.label()
        samples = run_monte_carlo(
            scenario=cfg.scenario,
            gen_config=cfg.cir_gen,
            rx_geometry=cfg.rx_array,
            tx_geometry=cfg.tx_array,
            fading=fading,
            cap_config=cfg.capacity,
            num_drops=cfg.num_drops,
            master_seed=cfg.master_seed,
            autocorr_params=params,
            share_initial_cir=cfg.share_initial_cir,
            initial_cir=imported_cir,
            num_workers=cfg.num_workers,
        )
        cap_path = os.path.join(out_dir, f"capacity_{label}.csv")
        _write_csv(
            cap_path,
            "drop_index,seed,capacity_bps_hz",
            ((s.drop_index, s.seed, s.capacity) for s in samples),
        )
        values, probs = capacity_cdf(samples)
        cdf_path = os.path.join(out_dir, f"cdf_{label}.csv")
        _write_csv(cdf_path, "capacity_bps_hz,cum_prob", zip(map(float, values), map(float, probs)))
        q = capacity_quantiles(samples)
        print(
            f"{label}: median={q[0.5]:.4f} p10={q[0.1]:.4f} p90={q[0.9]:.4f} b/s/Hz "
            f"({len(samples)} drops)"
        )
    return 0


def cmd_estimate(track_path: str, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    track = read_track(track_path)
    # fit over lags keeping at least 3/4 of the track in the overlap window;
    # deeper lags carry too few samples to inform the exponential fit
    min_overlap = max(8, (3 * track.num_positions) // 4)
    curve = average_autocorr(track, min_overlap=min_overlap)
    curve_path = os.path.join(out_dir, "autocorr_curve.csv")
    _write_csv(
        curve_path,
        "lag_wavelengths,rho",
        zip(map(float, curve.lags), map(float, curve.values)),
    )

    fit = fit_autocorr_mmse(curve)
    lines = [
        f"A = {fit.params.a!r}",
        f"B = {fit.params.b!r}",
        f"C = {fit.params.c!r}",
        f"residual = {fit.residual!r}",
        f"identifiable = {'yes' if fit.identifiable else 'no'}",
    ]

    # pool per-bin normalized powers over resolvable (fading) bins
    pooled = []
    for b in range(track.num_bins):
        col = track.amplitudes[:, b]
        if np.ptp(col) > 0 and np.all(col > 0):
            p = col**2
            pooled.extend(p / np.mean(p))
    if len(pooled) >= 100:
        est = estimate_k_factor(np.asarray(pooled))
        lines.append(f"k_factor_db = {est.k_db!r}")
        lines.append(f"k_factor_status = {est.status}")
    else:
        lines.append("k_factor_db = unavailable")
        lines.append(f"k_factor_status = insufficient_samples ({len(pooled)} < 100)")

    fit_path = os.path.join(out_dir, "fit.txt")
    with open(fit_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    print(f"wrote {curve_path}")
    print(f"wrote {fit_path}")
    if not fit.identifiable:
        print("warning: decay rate non-identifiable (constant curve)")
    return 0


def _fmt(x: float) -> str:
    return f"{x:g}"


def cmd_dump_defaults() -> int:
    print("Spatial autocorrelation model parameters (A, B, C):")
    missing_envs = []
    for scen in all_scenarios():
        d = lookup_default_params(scen)
        if d.autocorr is None:
            if scen.environment.value not in missing_envs:
                missing_envs.append(scen.environment.value)
        else:
            p = d.autocorr
            print(f"{scen.label()}: A={_fmt(p.a)} B={_fmt(p.b)} C={_fmt(p.c)}")
    for env in missing_envs:
        print(f"{env} autocorr: unavailable")
    print("Rician K-factor ranges:")
    for scen in all_scenarios():
        lo, hi = lookup_default_params(scen).k_range_db
        print(f"{scen.label()} K: {_fmt(lo)}-{_fmt(hi)} dB")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmwchan",
        description="Millimeter-wave spatially correlated MIMO channel simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, needs_config=True):
        p.add_argument("--config", required=needs_config, help="run config file")
        p.add_argument("--seed", type=int, help="override run.master_seed")
        p.add_argument("--drops", type=int, help="override run.num_drops")
        p.add_argument("--snr-db", type=float, help="override capacity.snr_db")
        p.add_argument("--out", help="override run.output_dir")

    add_common(sub.add_parser("simulate-cir", help="write the initial CIR and a local-area PDP grid"))
    cap = sub.add_parser("simulate-capacity", help="Monte Carlo wideband capacity CDFs")
    add_common(cap)
    cap.add_argument(
        "--dump-corr",
        action="store_true",
        help="also write the run's correlation matrices (row-major re,im CSV)",
    )
    est = sub.add_parser("estimate", help="autocorrelation curve, model fit, and K estimate from a track file")
    est.add_argument("track", help="track measurement file")
    est.add_argument("--out", help="output directory (default 'out')")
    sub.add_parser("dump-defaults", help="print the fitted parameter tables")
    return parser


def _apply_overrides(cfg: ScenarioConfig, args) -> ScenarioConfig:
    if args.seed is not None:
        cfg.master_seed = args.seed
        cfg.cir_gen = dataclasses.replace(cfg.cir_gen, rng_seed=args.seed)
    if args.drops is not None:
        if args.drops < 1:
            raise ConfigError("--drops must be >= 1")
        cfg.num_drops = args.drops
    if args.snr_db is not None:
        if not math.isfinite(args.snr_db):
            raise ConfigError(f"--snr-db: must be finite, got {args.snr_db}")
        cfg.capacity = dataclasses.replace(cfg.capacity, snr_db=args.snr_db)
    if args.out is not None:
        cfg.output_dir = args.out
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dump-defaults":
            return cmd_dump_defaults()
        if args.command == "estimate":
            out_dir = args.out if args.out else "out"
            return cmd_estimate(args.track, out_dir)
        cfg = parse_config(args.config)
        cfg = _apply_overrides(cfg, args)
        if args.command == "simulate-cir":
            return cmd_simulate_cir(cfg, cfg.output_dir)
        if args.command == "simulate-capacity":
            return cmd_simulate_capacity(cfg, cfg.output_dir, dump_corr=args.dump_corr)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, CirFileError, TrackFileError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
