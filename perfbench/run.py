"""The mmwchan benchmark: one workload per invocation.

    python3 perfbench/run.py --workload fig5_simo --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it measures end to end. A single client runs one job at a
time, a closed loop, for about ``--seconds`` seconds (at least five jobs):
the recipes through the ``mmwchan`` CLI in a fresh interpreter, as users run
them, and ``estimate_roundtrip`` through the estimator API in a fresh
interpreter. Every job of a run uses the same seed, so every job's outputs
must be byte-identical to the first's. Before each job, set-up alone (a
fresh interpreter importing the package and, for recipes, parsing the
config) is timed twice. ``wall_s`` and ``setup_s`` are scaled to the
reference host speed measured alongside the jobs (see ``calib.py``).

With ``--trace 1`` it makes the traced run instead (see ``tracing.py``) and
reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those declared in ``BENCHMARK.json``. The lines before it give the
medians with quartiles and sample counts, ``fail_frac``, and the run's
metadata.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import calib
import job
import proc
import recipes
import tracks

WORKLOADS = ("fig5_simo", "fig6_mimo", "rich_mimo4", "estimate_roundtrip")
#: estimate_roundtrip job size: 4 scenarios x 300 tracks.
TRACKS_PER_SCENARIO = 300
MIN_JOBS = 5
SETUP_PER_JOB = 2
#: Traced runs also time the layers their workload does not use, on a
#: smaller input: estimator tracks per scenario on the recipes, and fig5
#: drops per model on estimate_roundtrip.
TRACE_PROBE_TRACKS = 100
TRACE_PROBE_DROPS = 400
HERE = os.path.dirname(os.path.abspath(__file__))


def declared_metrics() -> tuple[dict, dict]:
    with open(os.path.join(proc.ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "lib*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def run_metadata(seed: int) -> dict:
    import numpy as np

    commit = "unknown"
    if os.path.isdir(os.path.join(proc.ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=proc.ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(proc.SRC, "mmwchan", "*.py"))):
        digest.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
    }


def timed_run(runner: proc.Runner, workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    """End-to-end metrics of a closed loop of jobs."""
    if workload in recipes.RECIPES:
        recipe = recipes.RECIPES[workload]
        setup_cmd = proc.setup_command(recipe.config)
        ops, op_name = recipe.drops_per_job, "drops"

        def job_cmd(out):
            return proc.cli_command(recipe.config, seed, out)

        def check(out):
            return recipes.failed_drops(recipe, out)

        def differ(first, out):
            return recipes.differing_drops(recipe, first, out)
    else:
        setup_cmd = proc.setup_command(None)
        ops, op_name = len(tracks.SCENARIOS) * TRACKS_PER_SCENARIO, "tracks"

        def job_cmd(out):
            return ["python3", "perfbench/job.py", "estimate", "--seed", str(seed),
                    "--tracks-per-scenario", str(TRACKS_PER_SCENARIO), "--out", out]

        def check(out):
            return tracks.failed_tracks(job.load_result(out), TRACKS_PER_SCENARIO)

        def differ(first, out):
            return tracks.differing_tracks(job.load_result(first), job.load_result(out), TRACKS_PER_SCENARIO)

    setup, walls, rss = [], [], []
    # reference runs around each cycle of set-up probes and job (see calib.py)
    calib.reference(runner)  # warm-up
    refs = [calib.reference(runner)]
    attempted = failed = 0
    first = None
    start = time.perf_counter()
    while len(walls) < MIN_JOBS or (
        time.perf_counter() - start + SETUP_PER_JOB * statistics.median(setup) + statistics.median(walls)
        + statistics.median(r[0] for r in refs) <= seconds
    ):
        # set-up probes before each job, so both sample the same stretch of time
        setup += [runner.run(setup_cmd).wall_s for _ in range(SETUP_PER_JOB)]
        out = os.path.join(runner.work_dir, f"job{len(walls)}")
        done = runner.run(job_cmd(out))
        refs.append(calib.reference(runner))
        walls.append(done.wall_s)
        rss.append(done.peak_rss_mb)
        attempted += ops
        if done.exit_code:
            failed += ops
            continue
        bad = check(out)
        if first is None:
            first = out
        else:
            bad += differ(first, out)
            shutil.rmtree(out)
        failed += min(ops, bad)

    factors = [calib.factors(before, after) for before, after in zip(refs, refs[1:])]
    wall = statistics.median(w * f for w, (f, _) in zip(walls, factors))
    setup_s = statistics.median(s * factors[i // SETUP_PER_JOB][1] for i, s in enumerate(setup))
    rate = ops / max(wall - setup_s, 1e-9)
    lines = [f"{workload}: {len(walls)} jobs of {ops} {op_name}, closed loop, one client"]
    for name, values, unit in (("raw wall_s", walls, "s"), ("raw setup_s", setup, "s"),
                               ("reference_s", [r[0] for r in refs], "s"),
                               ("reference_compute_s", [r[1] for r in refs], "s"), ("peak_rss_mb", rss, "MB")):
        q1, q2, q3 = quartiles(values)
        lines.append(f"{name} = {q2:.6g} {unit} (p25 {q1:.6g}, p75 {q3:.6g}, n={len(values)})")
    lines.append(f"wall_s = {wall:.6g} s, setup_s = {setup_s:.6g} s (medians at the reference speed)")
    lines.append(f"{op_name}_per_s = {rate:.6g} {op_name}/s (ops_per_s)")
    lines.append("samples " + json.dumps({"wall_s": walls, "setup_s": setup, "reference": refs}))
    lines.append(f"fail_frac = {failed / attempted:.6g} ratio ({failed}/{attempted} {op_name})")
    metrics = {"wall_s": wall, "setup_s": setup_s, "ops_per_s": rate, "peak_rss_mb": statistics.median(rss)}
    return metrics, attempted, failed, lines


def traced_run(runner: proc.Runner, workload: str, seed: int) -> tuple[dict, int, int, list[str]]:
    """Per-layer metrics; the spans are written to perfbench/_traces."""
    sys.path.insert(0, proc.SRC)
    import tracing

    tracer = tracing.Tracer()
    if workload in recipes.RECIPES:
        cap = tracing.trace_capacity(tracer, runner, recipes.RECIPES[workload], seed,
                                     pool_check=workload == "fig6_mimo")
        est = tracing.trace_estimators(tracer, seed, TRACE_PROBE_TRACKS)
    else:
        cap = tracing.trace_capacity(tracer, runner, recipes.RECIPES["fig5_simo"], seed,
                                     drops=TRACE_PROBE_DROPS)
        est = tracing.trace_estimators(tracer, seed, TRACKS_PER_SCENARIO)
    traces = os.path.join(HERE, "_traces")
    os.makedirs(traces, exist_ok=True)
    span_file = os.path.join(traces, f"{workload}-seed{seed}.csv")
    tracer.write(span_file)
    metrics = {**cap[0], **est[0]}
    lines = [f"{name} = {value:.6g}" for name, value in metrics.items()]
    lines.append(f"fail_frac = {(cap[2] + est[2]) / (cap[1] + est[1]):.6g} ratio "
                 f"({cap[2]}/{cap[1]} drops, {est[2]}/{est[1]} tracks)")
    lines.append(f"spans: {len(tracer.spans)} written to {os.path.relpath(span_file, proc.ROOT)}")
    return metrics, cap[1] + est[1], cap[2] + est[2], lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(proc.SRC, "mmwchan", "cli.py")] + [
        os.path.join(proc.ROOT, r.config) for r in recipes.RECIPES.values()]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: not a mmwchan checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    end_to_end, per_layer = declared_metrics()
    declared = per_layer if args.trace else end_to_end

    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "_work"))
    try:
        runner = proc.Runner(work)
        if args.trace:
            values, attempted, failed, lines = traced_run(runner, args.workload, args.seed)
        else:
            values, attempted, failed, lines = timed_run(runner, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if set(values) != set(declared):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}")
    for line in lines:
        print(line)
    print("meta " + json.dumps(run_metadata(args.seed)))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
