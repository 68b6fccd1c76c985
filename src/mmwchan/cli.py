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
    ChannelImpulseResponse,
    FadingModel,
    Scenario,
    all_scenarios,
    lookup_default_params,
    require_count,
    require_seed,
)
from .estimators import (
    MIN_K_SAMPLES,
    MIN_OVERLAP,
    TrackFileError,
    TrackMeasurement,
    average_autocorr,
    estimate_k_factor,
    fit_autocorr_mmse,
    read_track,
    write_track,
)
from .spatial import pipeline_corr_matrices, simulate_amplitude_track


class ConfigError(ValueError):
    """Raised for unparseable or invalid run configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified run: scenario, channel source, arrays, fading
    models to compare, autocorrelation params, capacity settings, seeds.
    Each section dataclass checks its own fields; this one checks the rest."""

    scenario: Scenario = field(default_factory=lambda: Scenario.parse("NLOS V-V"))
    cir_gen: CirGenConfig = field(default_factory=CirGenConfig)
    cir_import_path: str | None = None
    rx_array: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(num_elements=20))
    tx_array: ArrayGeometry = field(default_factory=lambda: ArrayGeometry(num_elements=1))
    fading_models: tuple[FadingModel, ...] = (FadingModel.rician(5.0),)
    autocorr: AutocorrParams | None = None  # None = table default for the scenario
    capacity: CapacityConfig = field(default_factory=CapacityConfig)
    num_drops: int = 2000
    master_seed: int = 1
    num_workers: int = 1
    share_initial_cir: bool = False
    output_dir: str = "out"
    track_positions: int = 11
    track_delta_x: float = TrackMeasurement.delta_x
    track_delay_bin_ns: float = TrackMeasurement.delay_bin_ns

    def __post_init__(self) -> None:
        require_count("num_drops", self.num_drops)
        require_count("num_workers", self.num_workers)
        require_count("track_positions", self.track_positions)
        if self.track_positions < 2:
            raise ValueError(f"track_positions must be >= 2, got {self.track_positions}")
        require_seed("master_seed", self.master_seed)
        for name in ("track_delta_x", "track_delay_bin_ns"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and > 0, got {value!r}")
        if not self.fading_models:
            raise ValueError("at least one fading model required")
        labels = [m.label() for m in self.fading_models]
        for label in labels:
            if labels.count(label) > 1:
                # each model's outputs are named after its label
                raise ValueError(f"fading model {label!r} is given more than once")

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


def _parse_int_pair(value: str) -> tuple[int, int]:
    parts = value.split()
    if len(parts) != 2:
        raise ValueError(f"expected two integers, got {value!r}")
    return int(parts[0]), int(parts[1])


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _parse_fading(value: str) -> tuple[FadingModel, ...]:
    models = []
    for token in value.split():
        if token.lower() == "rayleigh":
            models.append(FadingModel.rayleigh())
        elif token.lower().startswith("rician:"):
            try:
                models.append(FadingModel.rician(float(token.split(":", 1)[1])))
            except ValueError as exc:
                raise ValueError(f"bad Rician entry {token!r}: {exc}") from exc
        else:
            raise ValueError(f"unknown model {token!r} (use 'rayleigh' or 'rician:<K dB>')")
    return tuple(models)


def _parse_autocorr(value: str) -> AutocorrParams | None:
    if value == "table-default":
        return None
    vals = value.split()
    if len(vals) != 3:
        raise ValueError("expected 'table-default' or three numbers 'A B C'")
    return AutocorrParams(*map(float, vals))


#: Config key -> (ScenarioConfig field, field of that section or None, parser).
#: Keys absent from a config keep the dataclass defaults. A parser only
#: converts text; the dataclass that holds the value checks it.
_CONFIG_KEYS = {
    "scenario": ("scenario", None, Scenario.parse),
    "cir.num_clusters_range": ("cir_gen", "num_clusters_range", _parse_int_pair),
    "cir.paths_per_cluster_range": ("cir_gen", "paths_per_cluster_range", _parse_int_pair),
    "cir.intercluster_void_ns": ("cir_gen", "intercluster_void_ns", float),
    "cir.cluster_decay_ns": ("cir_gen", "cluster_decay_ns", float),
    "cir.intracluster_decay_ns": ("cir_gen", "intracluster_decay_ns", float),
    "cir.num_lobes_range": ("cir_gen", "num_lobes_range", _parse_int_pair),
    "cir.lobe_angular_spread_deg": ("cir_gen", "lobe_angular_spread_deg", float),
    "cir.import_path": ("cir_import_path", None, str),
    "rx_array.num_elements": ("rx_array", "num_elements", int),
    "rx_array.spacing": ("rx_array", "spacing", float),
    "tx_array.num_elements": ("tx_array", "num_elements", int),
    "tx_array.spacing": ("tx_array", "spacing", float),
    "fading.models": ("fading_models", None, _parse_fading),
    "autocorr": ("autocorr", None, _parse_autocorr),
    "capacity.bandwidth_hz": ("capacity", "bandwidth_hz", float),
    "capacity.num_subcarriers": ("capacity", "num_subcarriers", int),
    "capacity.snr_db": ("capacity", "snr_db", float),
    "capacity.center_frequency_hz": ("capacity", "center_frequency_hz", float),
    "run.num_drops": ("num_drops", None, int),
    "run.master_seed": ("master_seed", None, int),
    "run.num_workers": ("num_workers", None, int),
    "run.share_initial_cir": ("share_initial_cir", None, _parse_bool),
    "run.output_dir": ("output_dir", None, str),
    "track.num_positions": ("track_positions", None, int),
    "track.delta_x": ("track_delta_x", None, float),
    "track.delay_bin_ns": ("track_delay_bin_ns", None, float),
}

#: Command-line flag -> (argparse destination, the config key it overrides).
_OVERRIDE_FLAGS = {
    "--seed": ("seed", "run.master_seed"),
    "--drops": ("drops", "run.num_drops"),
    "--snr-db": ("snr_db", "capacity.snr_db"),
    "--out": ("out", "run.output_dir"),
}


def _set_values(cfg: ScenarioConfig, items) -> ScenarioConfig:
    """``cfg`` with each (name, key, text) of ``items`` parsed in through
    :data:`_CONFIG_KEYS`. Each value replaces one field of the dataclass
    that holds it (a section, then the config), so that dataclass checks
    it; any error becomes a :class:`ConfigError` naming ``name``, the key
    or the flag it came from."""
    for name, key, text in items:
        field_name, sub_field, parse = _CONFIG_KEYS[key]
        try:
            value = parse(text)
            if sub_field is not None:
                value = dataclasses.replace(getattr(cfg, field_name), **{sub_field: value})
            cfg = dataclasses.replace(cfg, **{field_name: value})
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
    return cfg


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
    unknown = sorted(set(pairs) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return _set_values(ScenarioConfig(), ((key, key, text) for key, text in pairs.items()))


def _write_csv(path, header: str, rows) -> None:
    """The header, then one line of comma-separated ``str`` cells per row
    (a float's ``str`` is its shortest round-trip repr), written at once.
    Rows are tuples of equal length."""
    lines = [header]
    rows = iter(rows)
    first = next(rows, None)
    if first is not None:
        fmt = ",".join(["%s"] * len(first))
        lines.append(fmt % first)
        lines += [fmt % row for row in rows]
    lines.append("")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))


def _fixed_cir(cfg: ScenarioConfig) -> ChannelImpulseResponse | None:
    """The CIR that every drop of a capacity run reuses, or None when each
    drop draws its own: the file at ``cir.import_path`` if one is set, else,
    under ``run.share_initial_cir``, the CIR drawn from the master seed's
    (1, 0) stream."""
    if cfg.cir_import_path:
        return import_cir(cfg.cir_import_path, cfg.scenario)
    if not cfg.share_initial_cir:
        return None
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(1, 0)))
    return generate_initial_cir(cfg.cir_gen, cfg.scenario, rng)


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
    params = cfg.resolved_autocorr()
    os.makedirs(out_dir, exist_ok=True)
    # the CIR a capacity run of this config fixes, if it fixes one
    cir = _fixed_cir(cfg)
    if cir is None:
        cir = generate_initial_cir(cfg.cir_gen, cfg.scenario, np.random.default_rng(cfg.master_seed))
    cir_path = os.path.join(out_dir, "cir.csv")
    export_cir(cir, cir_path)

    fading = cfg.fading_models[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(3, 0)))
    amps = simulate_amplitude_track(
        cir, params, cfg.track_positions, cfg.track_delta_x, fading, rng
    )
    grid = _bin_track_grid(amps, cir.delays.tolist(), cfg.track_delay_bin_ns)
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
    params = cfg.resolved_autocorr()
    initial_cir = _fixed_cir(cfg)
    os.makedirs(out_dir, exist_ok=True)
    if dump_corr:
        rr, rt = pipeline_corr_matrices(params, cfg.rx_array, cfg.tx_array)
        write_corr_matrix_csv(rr.entries, os.path.join(out_dir, "corr_rx.csv"))
        write_corr_matrix_csv(rt.entries, os.path.join(out_dir, "corr_tx.csv"))
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
            initial_cir=initial_cir,
            num_workers=cfg.num_workers,
        )
        cap_path = os.path.join(out_dir, f"capacity_{label}.csv")
        _write_csv(
            cap_path,
            "drop_index,seed,capacity_bps_hz",
            zip(samples.drop_index.tolist(), samples.seed.tolist(), samples.capacity.tolist()),
        )
        values, probs = capacity_cdf(samples.capacity)
        cdf_path = os.path.join(out_dir, f"cdf_{label}.csv")
        _write_csv(cdf_path, "capacity_bps_hz,cum_prob", zip(map(float, values), map(float, probs)))
        q = capacity_quantiles(samples.capacity)
        print(
            f"{label}: median={q[0.5]:.4f} p10={q[0.1]:.4f} p90={q[0.9]:.4f} b/s/Hz "
            f"({len(samples)} drops)"
        )
    return 0


def cmd_estimate(track_path: str, out_dir: str) -> int:
    track = read_track(track_path)
    # fit over lags keeping at least 3/4 of the track in the overlap window;
    # deeper lags carry too few samples to inform the exponential fit
    min_overlap = max(MIN_OVERLAP, (3 * track.num_positions) // 4)
    try:
        # a track too short for 3 lags, or without a fading bin, fails here
        curve = average_autocorr(track, min_overlap=min_overlap)
        fit = fit_autocorr_mmse(curve)
    except ValueError as exc:
        raise TrackFileError(f"{track_path}: {track.num_positions} positions: {exc}") from exc
    lines = [
        f"A = {fit.params.a!r}",
        f"B = {fit.params.b!r}",
        f"C = {fit.params.c!r}",
        f"residual = {fit.residual!r}",
        f"identifiable = {'yes' if fit.identifiable else 'no'}",
    ]

    # pool per-bin normalized powers over resolvable (fading) bins
    amps = track.amplitudes
    fading = (np.ptp(amps, axis=0) > 0) & np.all(amps > 0, axis=0)
    power = np.ascontiguousarray(amps.T[fading]) ** 2  # (bins, positions)
    pooled = (power / power.mean(axis=1, keepdims=True)).ravel()
    if pooled.size >= MIN_K_SAMPLES:
        est = estimate_k_factor(pooled)
        lines.append(f"k_factor_db = {est.k_db!r}")
        lines.append(f"k_factor_status = {est.status}")
    else:
        lines.append("k_factor_db = unavailable")
        lines.append(f"k_factor_status = insufficient_samples ({pooled.size} < {MIN_K_SAMPLES})")

    os.makedirs(out_dir, exist_ok=True)
    curve_path = os.path.join(out_dir, "autocorr_curve.csv")
    _write_csv(
        curve_path,
        "lag_wavelengths,rho",
        zip(map(float, curve.lags), map(float, curve.values)),
    )
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
        for flag, (_, key) in _OVERRIDE_FLAGS.items():
            p.add_argument(flag, help=f"override {key}")

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
    est.add_argument("--out", help=f"output directory (default {ScenarioConfig.output_dir!r})")
    sub.add_parser("dump-defaults", help="print the fitted parameter tables")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dump-defaults":
            return cmd_dump_defaults()
        if args.command == "estimate":
            return cmd_estimate(args.track, args.out or ScenarioConfig.output_dir)
        cfg = _set_values(
            parse_config(args.config),
            (
                (flag, key, getattr(args, dest))
                for flag, (dest, key) in _OVERRIDE_FLAGS.items()
                if getattr(args, dest) is not None
            ),
        )
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
