"""Command-line front end: config parsing, pipeline orchestration, file I/O.

Commands: ``simulate-cir``, ``simulate-capacity``, ``estimate``,
``dump-defaults``. A run is fully described by one flat ``key = value``
config file plus the master seed; identical config and seed produce
byte-identical outputs. Exit codes: 0 success, 2 config error, 3 runtime
error.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import ctypes
import dataclasses
import functools
import gc
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .capacity import (
    CHUNK_BYTES_MAX,
    CHUNK_DROPS,
    CapacityConfig,
    batch_bytes,
    capacity_quantiles,
    chunk_bytes,
    run_monte_carlo,
)
from .cirgen import CirFileError, CirGenConfig, export_cir, generate_initial_cir, import_cir, require_ns
from .core import (
    ArrayGeometry,
    AutocorrParams,
    ChannelImpulseResponse,
    FadingModel,
    Scenario,
    all_scenarios,
    lookup_default_params,
    read_lines,
    require_count,
    require_grid,
    require_seed,
    write_rows,
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
from .spatial import pipeline_corr_matrices, simulate_amplitude_track, track_bytes


class ConfigError(ValueError):
    """Raised for unparseable or invalid run configuration."""


class _OutDirError(Exception):
    """Raised when the output directory cannot be made; :func:`main` names
    the flag or key that set it."""


def _make_out_dir(out_dir: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise _OutDirError(f"cannot make output directory {out_dir!r}: {exc.strerror}") from exc


class _FieldsError(ValueError):
    """A failed :class:`ScenarioConfig` check, with the fields it reads: a
    field of the config, or ``section.field`` for a field of one of its
    sections."""

    def __init__(self, fields: tuple[str, ...], message: str):
        super().__init__(message)
        self.fields = fields


@contextlib.contextmanager
def _reading(*fields: str):
    """Tag a ``ValueError`` raised in the block with the fields it reads."""
    try:
        yield
    except ValueError as exc:
        raise _FieldsError(fields, str(exc)) from exc


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified run: scenario, channel source, arrays, fading
    models to compare, autocorrelation params, capacity settings, seeds.
    Each section dataclass checks its own fields; this one checks the rest,
    some of them across sections, and tags each error with the fields its
    check reads (:class:`_FieldsError`)."""

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
        with _reading("num_drops"):
            require_count("num_drops", self.num_drops)
        with _reading("num_workers"):
            require_count("num_workers", self.num_workers)
            max_workers = os.cpu_count() or 1
            if self.num_workers > max_workers:
                raise ValueError(f"num_workers must be at most the CPU count, {max_workers}, got {self.num_workers}")
        with _reading("master_seed"):
            require_seed("master_seed", self.master_seed)
        with _reading("output_dir"):
            if not self.output_dir:
                raise ValueError("output_dir must not be empty")
        with _reading("track_positions", "track_delta_x"):
            require_grid("track_positions", self.track_positions, "track_delta_x", self.track_delta_x, least=2)
        with _reading("track_delay_bin_ns"):
            # simulate-cir divides delays in seconds by the bin
            require_ns("track_delay_bin_ns", self.track_delay_bin_ns)
        with _reading("fading_models"):
            if not self.fading_models:
                raise ValueError("at least one fading model required")
            labels = [m.label() for m in self.fading_models]
            for label in labels:
                if labels.count(label) > 1:
                    # each model's outputs are named after its label
                    raise ValueError(f"fading model {label!r} is given more than once")
        with _reading("cir_gen.num_clusters_range", "cir_gen.paths_per_cluster_range", "cir_gen.num_lobes_range",
                      "rx_array.num_elements", "tx_array.num_elements", "capacity.num_subcarriers"):
            _require_bytes(f"a chunk of {CHUNK_DROPS} drops", chunk_bytes(
                self.cir_gen, self.rx_array.num_elements, self.tx_array.num_elements, self.capacity.num_subcarriers
            ))

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


def _require_bytes(what: str, size: float) -> None:
    """Reject ``what``, which would take ``size`` bytes, when that is over
    ``CHUNK_BYTES_MAX``, the memory limit of every array a run sizes ahead."""
    if size > CHUNK_BYTES_MAX:
        raise ConfigError(f"{what} would take about {size / 2**20:.6g} MiB, over the {CHUNK_BYTES_MAX >> 20} MiB limit")


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


#: Config key -> (ScenarioConfig field, or section.field, parser). Keys
#: absent from a config keep the dataclass defaults. A parser only
#: converts text; the dataclass that holds the value checks it.
_CONFIG_KEYS = {
    "scenario": ("scenario", Scenario.parse),
    "cir.num_clusters_range": ("cir_gen.num_clusters_range", _parse_int_pair),
    "cir.paths_per_cluster_range": ("cir_gen.paths_per_cluster_range", _parse_int_pair),
    "cir.intercluster_void_ns": ("cir_gen.intercluster_void_ns", float),
    "cir.cluster_decay_ns": ("cir_gen.cluster_decay_ns", float),
    "cir.intracluster_decay_ns": ("cir_gen.intracluster_decay_ns", float),
    "cir.num_lobes_range": ("cir_gen.num_lobes_range", _parse_int_pair),
    "cir.lobe_angular_spread_deg": ("cir_gen.lobe_angular_spread_deg", float),
    "cir.import_path": ("cir_import_path", str),
    "rx_array.num_elements": ("rx_array.num_elements", int),
    "rx_array.spacing": ("rx_array.spacing", float),
    "tx_array.num_elements": ("tx_array.num_elements", int),
    "tx_array.spacing": ("tx_array.spacing", float),
    "fading.models": ("fading_models", _parse_fading),
    "autocorr": ("autocorr", _parse_autocorr),
    "capacity.bandwidth_hz": ("capacity.bandwidth_hz", float),
    "capacity.num_subcarriers": ("capacity.num_subcarriers", int),
    "capacity.snr_db": ("capacity.snr_db", float),
    "capacity.center_frequency_hz": ("capacity.center_frequency_hz", float),
    "run.num_drops": ("num_drops", int),
    "run.master_seed": ("master_seed", int),
    "run.num_workers": ("num_workers", int),
    "run.share_initial_cir": ("share_initial_cir", _parse_bool),
    "run.output_dir": ("output_dir", str),
    "track.num_positions": ("track_positions", int),
    "track.delta_x": ("track_delta_x", float),
    "track.delay_bin_ns": ("track_delay_bin_ns", float),
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
    :data:`_CONFIG_KEYS`, a later item for a field winning, as a
    :class:`ConfigError` naming ``name`` (the key or flag) on a parse
    error. Each section is built once, from its final values, then the
    config, so no check depends on the item order. A failed check names
    the items it reads (for a section, those it sets) that fail alone on
    top of ``cfg``, or, if none does, all of them."""
    fields, sections = {}, {}  # field -> value, section -> {field of it: value}
    names = {}  # field, or section.field -> the item that set it
    for item in items:
        name, key, text = item
        path, parse = _CONFIG_KEYS[key]
        try:
            value = parse(text)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}") from exc
        section, _, sub = path.partition(".")
        if sub:
            sections.setdefault(section, {})[sub] = value
        else:
            fields[section] = value
        names[path] = item
    try:
        for section, subs in sections.items():
            with _reading(*(f"{section}.{sub}" for sub in subs)):
                fields[section] = dataclasses.replace(getattr(cfg, section), **subs)
        return dataclasses.replace(cfg, **fields)
    except _FieldsError as exc:
        read = [names[path] for path in exc.fields if path in names]
        alone = [item for item in read if len(read) > 1 and _fails(cfg, item)]  # a lone item is named anyway
        raise ConfigError(f"{', '.join(item[0] for item in alone or read)}: {exc}") from exc


def _fails(cfg: ScenarioConfig, item) -> bool:
    """Whether ``cfg`` with the one item (name, key, text) fails a check."""
    with contextlib.suppress(ConfigError):
        _set_values(cfg, [item])
        return False
    return True


def _config_items(path) -> list[tuple[str, str, str]]:
    """The (name, key, text) items of :func:`_set_values` for the ``key =
    value`` lines of a config file, each named by its key, a later line
    winning, in the order of :data:`_CONFIG_KEYS` whatever the file's."""
    pairs: dict[str, str] = {}
    for lineno, line, _ in read_lines(path, ConfigError, "config"):
        if line:
            key, equals, value = line.partition("=")
            if not equals:
                raise ConfigError(f"{path}: line {lineno}: expected 'key = value'")
            pairs[key.strip()] = value.strip()
    unknown = sorted(set(pairs) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    return [(key, key, pairs[key]) for key in _CONFIG_KEYS if key in pairs]


def parse_config(path) -> ScenarioConfig:
    """Parse a flat dotted-key config file into a ScenarioConfig."""
    return _set_values(ScenarioConfig(), _config_items(path))


def _fixed_cir(cfg: ScenarioConfig) -> ChannelImpulseResponse | None:
    """The CIR that every drop of a capacity run reuses, or None when each
    drop draws its own: the file at ``cir.import_path`` if one is set, else,
    under ``run.share_initial_cir``, the CIR drawn from the master seed's
    (1, 0) stream."""
    if cfg.cir_import_path:
        try:
            return import_cir(cfg.cir_import_path, cfg.scenario)
        except CirFileError as exc:
            raise CirFileError(f"cir.import_path: {exc}") from exc
    if not cfg.share_initial_cir:
        return None
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(1, 0)))
    return generate_initial_cir(cfg.cir_gen, cfg.scenario, rng)


def _bin_track_grid(amps: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """Collapse per-component amplitude columns into the delay bins
    ``bins`` of the components, nondecreasing (incoherent power sum within
    a bin)."""
    power = np.zeros((amps.shape[0], bins[-1] + 1))
    np.add.at(power, (slice(None), bins), amps**2)
    return np.sqrt(power)


def cmd_simulate_cir(cfg: ScenarioConfig, out_dir: str) -> int:
    params = cfg.resolved_autocorr()
    n = cfg.track_positions
    _require_bytes(f"track.num_positions: a track of {n} positions with its {n} x {n} correlation", track_bytes(n))
    # the CIR a capacity run of this config fixes, if it fixes one
    cir = _fixed_cir(cfg)
    if cir is None:
        cir = generate_initial_cir(cfg.cir_gen, cfg.scenario, np.random.default_rng(cfg.master_seed))
    # each component's delay bin; floats, as the last may overflow to inf
    with np.errstate(over="ignore", invalid="ignore"):
        bins = cir.delays // (cfg.track_delay_bin_ns * 1e-9)
    num_bins = bins[-1] + 1.0
    _require_bytes(f"track.delay_bin_ns: a grid of {n} positions x {num_bins:.6g} delay bins", 8 * n * num_bins)
    _make_out_dir(out_dir)
    cir_path = os.path.join(out_dir, "cir.csv")
    export_cir(cir, cir_path)

    fading = cfg.fading_models[0]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.master_seed, spawn_key=(3, 0)))
    amps = simulate_amplitude_track(
        cir, params, cfg.track_positions, cfg.track_delta_x, fading, rng
    )
    grid = _bin_track_grid(amps, bins.astype(np.intp))
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
    write_rows(path, map(tuple, np.ascontiguousarray(matrix, dtype=complex).view(float).tolist()))


def read_corr_matrix_csv(path) -> np.ndarray:
    """Inverse of :func:`write_corr_matrix_csv`."""
    return np.loadtxt(path, delimiter=",", ndmin=2).view(complex)


def cmd_simulate_capacity(cfg: ScenarioConfig, out_dir: str, dump_corr: bool = False) -> int:
    params = cfg.resolved_autocorr()
    initial_cir = _fixed_cir(cfg)
    if cfg.cir_import_path:  # its drops hold one batch of its components (capacity.chunk_bytes)
        n = initial_cir.num_components
        _require_bytes(f"cir.import_path: a drop of its {n} components", batch_bytes(
            n, cfg.rx_array.num_elements, cfg.tx_array.num_elements, cfg.capacity.num_subcarriers
        ))
    _make_out_dir(out_dir)
    if dump_corr:
        rr, rt = pipeline_corr_matrices(params, cfg.rx_array, cfg.tx_array)
        write_corr_matrix_csv(rr, os.path.join(out_dir, "corr_rx.csv"))
        write_corr_matrix_csv(rt, os.path.join(out_dir, "corr_tx.csv"))
    # the cum_prob column of capacity_cdf, the same for every model
    cum_probs = list(map(str, (np.arange(1, cfg.num_drops + 1) / cfg.num_drops).tolist()))
    samples = run_monte_carlo(
        scenario=cfg.scenario,
        gen_config=cfg.cir_gen,
        rx_geometry=cfg.rx_array,
        tx_geometry=cfg.tx_array,
        fading=cfg.fading_models[0],
        cap_config=cfg.capacity,
        num_drops=cfg.num_drops,
        master_seed=cfg.master_seed,
        autocorr_params=params,
        initial_cir=initial_cir,
        num_workers=cfg.num_workers,
        more_fading=cfg.fading_models[1:],
    )
    for k, fading in enumerate(cfg.fading_models):
        label = fading.label()
        block = samples[k * cfg.num_drops : (k + 1) * cfg.num_drops]  # the model's records
        cells = list(map(str, block.capacity.tolist()))  # each capacity formatted once, for both files
        write_rows(
            os.path.join(out_dir, f"capacity_{label}.csv"),
            zip(block.drop_index.tolist(), block.seed.tolist(), cells),
            head=("drop_index,seed,capacity_bps_hz",),
        )
        order = np.argsort(block.capacity, kind="stable").tolist()
        write_rows(
            os.path.join(out_dir, f"cdf_{label}.csv"),
            zip(map(cells.__getitem__, order), cum_probs),
            head=("capacity_bps_hz,cum_prob",),
        )
        q = capacity_quantiles(block.capacity)
        print(
            f"{label}: median={q[0.5]:.4f} p10={q[0.1]:.4f} p90={q[0.9]:.4f} b/s/Hz "
            f"({len(block)} drops)"
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

    _make_out_dir(out_dir)
    curve_path = os.path.join(out_dir, "autocorr_curve.csv")
    write_rows(curve_path, zip(map(float, curve.lags), map(float, curve.values)), head=("lag_wavelengths,rho",))
    fit_path = os.path.join(out_dir, "fit.txt")
    write_rows(fit_path, (), head=lines)
    for line in lines:
        print(line)
    print(f"wrote {curve_path}")
    print(f"wrote {fit_path}")
    if not fit.identifiable:
        print("warning: decay rate non-identifiable (constant curve, or exp(-b*lag) the same for every b > 0)")
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


@functools.cache
def _freeze_heap_at_exit() -> None:
    """At interpreter exit, move every tracked object into the permanent
    generation: the finalizing collections then skip the heap that numpy and
    the package built at import, and the OS reclaims it. Only the entry point
    calls this (library imports leave the GC alone), once per process."""
    atexit.register(gc.freeze)


#: glibc's ``mallopt`` parameter numbers (malloc.h).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_freed_memory() -> None:
    """Have glibc's malloc keep freed memory for reuse. Each batch of the
    capacity engine allocates and frees one to two MiB of arrays. By
    default glibc maps an array above its mmap threshold afresh and gives
    the top of its heap back to the OS once more than twice that threshold
    is free, so every batch faults its pages in again. With arrays below
    32 MiB taken from the heap and up to 256 MiB of free heap kept, the
    peak resident size, which the largest batch sets, stays the same. Only
    the entry point calls this, once per process; a C library without
    ``mallopt`` keeps its defaults."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def main(argv=None) -> int:
    _freeze_heap_at_exit()
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "dump-defaults":
            return cmd_dump_defaults()
        if args.command == "estimate":
            return cmd_estimate(args.track, args.out or ScenarioConfig.output_dir)
        # the flags override the file's keys, and the config is checked once
        flags = [
            (flag, key, getattr(args, dest))
            for flag, (dest, key) in _OVERRIDE_FLAGS.items()
            if getattr(args, dest) is not None
        ]
        cfg = _set_values(ScenarioConfig(), _config_items(args.config) + flags)
        if args.command == "simulate-cir":
            return cmd_simulate_cir(cfg, cfg.output_dir)
        if args.command == "simulate-capacity":
            return cmd_simulate_capacity(cfg, cfg.output_dir, dump_corr=args.dump_corr)
        raise ConfigError(f"unknown command {args.command!r}")
    except _OutDirError as exc:
        source = "--out" if args.command == "estimate" or args.out is not None else "run.output_dir"
        print(f"error: {source}: {exc}", file=sys.stderr)
        return 2
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
