"""The traced run: per-layer timings taken from outside the package.

Spans are recorded around calls into each module's public functions and
kept in memory until the run ends. A span is (id, parent, group, name,
start, end); the spans of one drop or track share a group.

For the capacity layers the run times the CLI in this process and replays
every drop the way ``run_monte_carlo`` does, one span per stage. It reports
whether the replayed capacities equal ``run_monte_carlo``'s bit for bit as
a flag, so an engine change that makes the replay stale does not fail the
benchmark.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import os
import time

import numpy as np

import job
import proc
import recipes
import tracks

#: Fresh interpreters timing the import and ``parse_config``.
SETUP_PROBES = 7
#: Repeats of the correlation-matrix build and square roots.
CORR_REPEATS = 21


class Tracer:
    """Spans in memory: [id, parent id or -1, group, name, start, end].
    A span without a group takes its parent's, so all spans of a drop or a
    track share one."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextlib.contextmanager
    def span(self, name, group=None):
        parent = self._open[-1] if self._open else -1
        if group is None and parent >= 0:
            group = self.spans[parent][2]
        record = [len(self.spans), parent, group, name, 0.0, 0.0]
        self.spans.append(record)
        self._open.append(record[0])
        record[4] = time.perf_counter()
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._open.pop()

    def durations(self, name) -> np.ndarray:
        return np.array([s[5] - s[4] for s in self.spans if s[3] == name])

    def self_times(self, name) -> np.ndarray:
        """Span duration minus the time its (sequential) children cover."""
        covered = {}
        for s in self.spans:
            if s[1] >= 0:
                covered[s[1]] = covered.get(s[1], 0.0) + (s[5] - s[4])
        return np.array([s[5] - s[4] - covered.get(s[0], 0.0) for s in self.spans if s[3] == name])

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,group,name,start_s,end_s\n")
            for sid, parent, group, name, start, end in self.spans:
                g = "" if group is None else "/".join(map(str, group))
                fh.write(f"{sid},{parent},{g},{name},{start!r},{end!r}\n")


def _timing_us(prefix: str, seconds: np.ndarray) -> dict:
    """Median and p99 of span durations, in microseconds."""
    return {
        f"{prefix}_us": float(np.median(seconds)) * 1e6,
        f"{prefix}_us_p99": float(np.percentile(seconds, 99)) * 1e6,
    }


def _replay(tracer, kw, counts):
    """Replay ``run_monte_carlo(**kw)`` drop by drop, one span per stage;
    returns the (capacity, seed word) of each drop."""
    from mmwchan.capacity import frequency_response, wideband_capacity
    from mmwchan.cirgen import generate_initial_cir
    from mmwchan.core import FadingModel
    from mmwchan.spatial import build_amplitude_matched_corr, matrix_sqrt_psd, realize_taps

    rayleigh = FadingModel.rayleigh()
    params, fading, cap_config = kw["autocorr_params"], kw["fading"], kw["cap_config"]
    n_t = kw["tx_geometry"].num_elements
    rr_sqrt = matrix_sqrt_psd(build_amplitude_matched_corr(params, kw["rx_geometry"], rayleigh, side="receive"))
    rt_sqrt = matrix_sqrt_psd(build_amplitude_matched_corr(params, kw["tx_geometry"], rayleigh, side="transmit"))
    out = []
    for i in range(kw["num_drops"]):
        with tracer.span("drop", (fading.label(), i)):
            ss = np.random.SeedSequence(entropy=kw["master_seed"], spawn_key=(0, i))
            rng = np.random.default_rng(ss)
            with tracer.span("cirgen.generate_initial_cir"):
                cir = generate_initial_cir(kw["gen_config"], kw["scenario"], rng)
            with tracer.span("spatial.realize_taps"):
                taps = realize_taps(cir, rr_sqrt, rt_sqrt, fading, rng)
            with tracer.span("capacity.frequency_response"):
                fr = frequency_response(taps, cap_config)
            with tracer.span("capacity.wideband_capacity"):
                cap = wideband_capacity(fr, cap_config, n_t)
            seed_word = int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0])
        out.append((cap, seed_word))
        counts["components"].append(cir.num_components)
        counts["taps"].append(len(taps))
        counts["tap_bytes"].append(sum(t.matrix.nbytes for t in taps))
        counts["hf_bytes"].append(fr.per_subcarrier.nbytes)
        counts["subcarriers"].append(fr.num_subcarriers)
    return out


def trace_capacity(tracer, runner, recipe, seed, drops=None, pool_check=False):
    """Per-layer metrics of the cli, cirgen, spatial and capacity modules.

    Runs the CLI in this process with ``cmd_simulate_capacity`` and
    ``run_monte_carlo`` wrapped. Right after each ``run_monte_carlo`` call
    (untraced) its drops are replayed with spans from the same arguments,
    so the two rates are taken close together in time.

    Returns (metrics, attempted drops, failed drops)."""
    import mmwchan.cli as cli
    from mmwchan.core import FadingModel
    from mmwchan.spatial import build_amplitude_matched_corr, matrix_sqrt_psd

    if drops is not None:
        recipe = dataclasses.replace(recipe, num_drops=drops)
    config = os.path.join(proc.ROOT, recipe.config)
    work = runner.work_dir
    metrics = {}

    probes = [runner.run_json(proc.setup_command(config)) for _ in range(SETUP_PROBES)]
    metrics["cli.import_s"] = float(np.median([p["import_s"] for p in probes]))
    metrics["cli.parse_config_ms"] = float(np.median([p["parse_config_ms"] for p in probes]))

    out = os.path.join(work, "cli")
    extra = [] if drops is None else ["--drops", str(drops)]
    argv = ["simulate-capacity", "--config", config, "--seed", str(seed), "--out", out] + extra
    counts = {k: [] for k in ("components", "taps", "tap_bytes", "hf_bytes", "subcarriers")}
    rmc_seconds, replay_seconds, cmd_seconds = [], [], []
    bit_exact = True
    real_rmc, real_cmd = cli.run_monte_carlo, cli.cmd_simulate_capacity

    def timed_rmc(**kw):
        nonlocal bit_exact
        t0 = time.perf_counter()
        samples = real_rmc(**kw)
        t1 = time.perf_counter()
        replayed = _replay(tracer, kw, counts)
        rmc_seconds.append(t1 - t0)
        replay_seconds.append(time.perf_counter() - t1)
        bit_exact &= [(s.capacity, s.seed) for s in samples] == replayed
        return samples

    def timed_cmd(*args, **kwargs):
        t0 = time.perf_counter()
        code = real_cmd(*args, **kwargs)
        cmd_seconds.append(time.perf_counter() - t0)
        return code

    cli.run_monte_carlo, cli.cmd_simulate_capacity = timed_rmc, timed_cmd
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
    finally:
        cli.run_monte_carlo, cli.cmd_simulate_capacity = real_rmc, real_cmd
    if code != 0:
        raise RuntimeError(f"mmwchan {' '.join(argv)} exited {code}")
    attempted = recipe.drops_per_job
    failed = recipes.failed_drops(recipe, out, check_ordering=False)

    if pool_check:
        pooled_cfg = os.path.join(work, "workers2.cfg")
        with open(config, "r", encoding="utf-8") as src, open(pooled_cfg, "w", encoding="utf-8") as dst:
            dst.write(src.read() + "\nrun.num_workers = 2\n")
        pooled_out = os.path.join(work, "workers2")
        result = runner.run(proc.cli_command(pooled_cfg, seed, pooled_out) + extra)
        failed += attempted if result.exit_code else recipes.differing_drops(recipe, out, pooled_out)

    cfg = cli.parse_config(config)
    params = cfg.resolved_autocorr()
    rayleigh = FadingModel.rayleigh()
    corr_seconds = []
    for _ in range(CORR_REPEATS):
        t0 = time.perf_counter()
        matrix_sqrt_psd(build_amplitude_matched_corr(params, cfg.rx_array, rayleigh, side="receive"))
        matrix_sqrt_psd(build_amplitude_matched_corr(params, cfg.tx_array, rayleigh, side="transmit"))
        corr_seconds.append(time.perf_counter() - t0)

    stages = ("cirgen.generate_initial_cir", "spatial.realize_taps",
              "capacity.frequency_response", "capacity.wideband_capacity")
    for name in stages:
        metrics.update(_timing_us(name, tracer.durations(name)))
    rmc_us = sum(rmc_seconds) / attempted * 1e6
    drop_seconds = tracer.durations("drop")
    metrics.update({
        "cli.write_outputs_ms": (cmd_seconds[0] - sum(rmc_seconds) - sum(replay_seconds)) * 1e3,
        "cli.csv_bytes": sum(os.path.getsize(os.path.join(out, f)) for f in recipes.output_files(recipe)),
        "spatial.corr_sqrt_ms": float(np.median(corr_seconds)) * 1e3,
        "capacity.run_monte_carlo_us_per_drop": rmc_us,
        "capacity.drop_overhead_us_per_drop":
            rmc_us - sum(float(np.mean(tracer.durations(name))) * 1e6 for name in stages),
        "trace.drop_self_us": float(np.median(tracer.self_times("drop"))) * 1e6,
        "trace.drop_samples": int(drop_seconds.size),
        "trace.drop_overhead_frac": sum(replay_seconds) / sum(rmc_seconds) - 1.0,
        "trace.replay_bit_exact": int(bit_exact),
        "cirgen.components_per_drop": float(np.mean(counts["components"])),
        "spatial.taps_per_drop": float(np.mean(counts["taps"])),
        "spatial.tap_bytes_per_drop": float(np.mean(counts["tap_bytes"])),
        "capacity.hf_bytes_per_drop": float(np.mean(counts["hf_bytes"])),
        "capacity.subcarrier_matrices_per_drop": float(np.mean(counts["subcarriers"])),
        "capacity.logdet_flops_per_drop":
            float(np.mean(counts["subcarriers"]))
            * recipes.logdet_flops(cfg.rx_array.num_elements, cfg.tx_array.num_elements),
    })
    return metrics, attempted, failed


def trace_estimators(tracer, seed, tracks_per_scenario):
    """Per-layer metrics of the estimators module.

    Returns (metrics, attempted tracks, failed tracks)."""
    def timed(span=job.no_span):
        t0 = time.perf_counter()
        result = job.run_estimates(seed, tracks_per_scenario, span=span)
        return result, time.perf_counter() - t0

    job.run_estimates(seed, 2)  # first-call costs stay out of the timings
    # untraced, traced, untraced: the traced pass is compared with the mean
    # of the passes around it, which cancels a steady drift in machine speed
    untraced, before = timed()
    traced, traced_seconds = timed(tracer.span)
    _, after = timed()
    untraced_seconds = 0.5 * (before + after)

    attempted = len(tracks.SCENARIOS) * tracks_per_scenario
    failed = min(attempted, tracks.failed_tracks(traced, tracks_per_scenario)
                 + tracks.differing_tracks(traced, untraced, tracks_per_scenario))
    fits = traced["fits"]
    metrics = _timing_us("estimators.average_autocorr", tracer.durations("estimators.average_autocorr"))
    metrics.update({
        "estimators.lags_per_track": tracks.NUM_LAGS * len(tracks.BIN_POWERS),
        "estimators.fit_autocorr_mmse_ms": float(np.median(tracer.durations("estimators.fit_autocorr_mmse"))) * 1e3,
        "estimators.fit_objective_evals": int(sum(tracks.FIT_OBJECTIVE_EVALS for f in fits if f[4] == 1.0)),
        "estimators.estimate_k_factor_us": float(np.median(tracer.durations("estimators.estimate_k_factor"))) * 1e6,
        "trace.track_samples": int(tracer.durations("estimators.average_autocorr").size),
        "trace.track_overhead_frac": traced_seconds / untraced_seconds - 1.0,
    })
    return metrics, attempted, failed
