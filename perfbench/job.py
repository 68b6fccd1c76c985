"""Jobs the benchmark runs in a fresh interpreter.

    python3 perfbench/job.py setup [--config FILE]
        Import the package (its CLI module when a config is given) and parse
        the config: the work every run does before its first drop or track.
        Prints {"import_s": ..., "parse_config_ms": ...}.

    python3 perfbench/job.py estimate --seed N --tracks-per-scenario T --out DIR
        The estimate_roundtrip job: the estimator API on generated tracks.
        Writes its results to DIR as .npy files.

``mmwchan`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time


RESULT_NAMES = ("lags", "curves", "means", "fits", "k_db", "checked", "checked_amps")


def no_span(name, group=None):
    return contextlib.nullcontext()


def run_estimates(seed: int, tracks_per_scenario: int, span=no_span) -> dict:
    """Per track ``average_autocorr``; per scenario ``fit_autocorr_mmse`` on
    the mean curve and ``estimate_k_factor`` on the pooled normalized
    powers. ``span(name, group)`` wraps each call into the package."""
    import numpy as np

    import tracks
    from mmwchan.estimators import (
        AutocorrCurve,
        TrackMeasurement,
        average_autocorr,
        estimate_k_factor,
        fit_autocorr_mmse,
    )

    curves, means, fits, k_db, checked, checked_amps = [], [], [], [], [], []
    lags = None
    for s, _ in enumerate(tracks.SCENARIOS):
        amps = tracks.generate_tracks(seed, s, tracks_per_scenario)
        values = np.empty((tracks_per_scenario, tracks.NUM_LAGS))
        for t in range(tracks_per_scenario):
            with span("estimators.average_autocorr", (s, t)):
                curve = average_autocorr(
                    TrackMeasurement(amplitudes=amps[t], delta_x=tracks.DELTA_X),
                    min_overlap=tracks.MIN_OVERLAP,
                )
            values[t] = curve.values
            lags = curve.lags
        defined = np.isfinite(values)
        mean = np.where(defined, values, 0.0).sum(axis=0) / np.maximum(defined.sum(axis=0), 1)
        mean = np.clip(mean, -1.0, 1.0)
        with span("estimators.fit_autocorr_mmse", (s, -1)):
            fit = fit_autocorr_mmse(AutocorrCurve(lags=lags, values=mean))
        power = amps**2
        pooled = (power / power.mean(axis=1, keepdims=True)).ravel()
        with span("estimators.estimate_k_factor", (s, -1)):
            est = estimate_k_factor(pooled)
        idx = tracks.sample_indices(seed, tracks_per_scenario, tracks.CHECKED_PER_SCENARIO)
        curves.append(values)
        means.append(mean)
        fits.append((fit.params.a, fit.params.b, fit.params.c, fit.residual, float(fit.identifiable)))
        k_db.append(est.k_db)
        checked.append(idx)
        checked_amps.append(amps[idx])
    return {
        "lags": np.asarray(lags, dtype=float),
        "curves": np.stack(curves),
        "means": np.stack(means),
        "fits": np.asarray(fits, dtype=float),
        "k_db": np.asarray(k_db, dtype=float),
        "checked": np.stack(checked),
        "checked_amps": np.stack(checked_amps),
    }


def load_result(out_dir: str) -> dict:
    """Read back what an ``estimate`` job wrote."""
    import numpy as np

    return {name: np.load(os.path.join(out_dir, f"{name}.npy")) for name in RESULT_NAMES}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="job.py")
    sub = parser.add_subparsers(dest="command", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("--config")
    est = sub.add_parser("estimate")
    est.add_argument("--seed", type=int, required=True)
    est.add_argument("--tracks-per-scenario", type=int, required=True)
    est.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    if args.command == "setup":
        t0 = time.perf_counter()
        if args.config:
            import mmwchan.cli

            t1 = time.perf_counter()
            mmwchan.cli.parse_config(args.config)
        else:
            import mmwchan  # noqa: F401

            t1 = time.perf_counter()
        t2 = time.perf_counter()
        print(json.dumps({"import_s": t1 - t0, "parse_config_ms": (t2 - t1) * 1e3}))
        return 0

    import numpy as np

    result = run_estimates(args.seed, args.tracks_per_scenario)
    os.makedirs(args.out, exist_ok=True)
    for name in RESULT_NAMES:
        np.save(os.path.join(args.out, f"{name}.npy"), result[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
