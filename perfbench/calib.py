"""Host-speed reference for the timed runs.

    python3 perfbench/calib.py

On a shared VM the CPU speed seen by one process drifts, by up to about
1.7x on the reference host, in stretches of a few seconds to a minute; a
job's wall time and CPU time drift with it. So the timed runs also run this
fixed reference job between jobs, timed from spawn to exit like the jobs,
and scale each job's and each set-up probe's time by the reference runs
before and after it.

The reference job is shaped like the package's jobs: a fresh interpreter
that imports numpy, then a compute loop of small drops, each with its own
``SeedSequence`` and generator, a few random MIMO taps, their response on
a subcarrier grid and a Gram log-det. It prints the compute loop's time.
Drift does not move interpreter start-up and compute by the same share. A
job is almost all compute, so it is scaled by the compute loop's time; a
set-up probe is a short fresh interpreter like the whole reference run, so
it is scaled by the reference's wall time. Scaling jobs by the whole
reference (or a set-up-like part of it) left shifts of 13-37% between two
sets of ``fig6_mimo`` runs; the compute loop left 1%.

The reference does not depend on the package or on the seed, so a change to
the program moves a scaled time by the same share as the raw time, while
the host's drift largely cancels.
"""

from __future__ import annotations

import json
import math
import time

COMMAND = ["python3", "perfbench/calib.py"]
#: About the typical wall time of ``COMMAND`` and of its compute loop on the
#: reference host (2-vCPU VM, Python 3.11, numpy 2.4): scaled times are in
#: seconds at that speed.
REFERENCE_S = 0.52
REFERENCE_COMPUTE_S = 0.37
DROPS = 1300


def factors(before: tuple[float, float], after: tuple[float, float]) -> tuple[float, float]:
    """Scale factors of a job and of a set-up probe run between two
    reference runs, each given as (wall time, compute time)."""
    return (2.0 * REFERENCE_COMPUTE_S / (before[1] + after[1]),
            2.0 * REFERENCE_S / (before[0] + after[0]))


def reference(runner) -> tuple[float, float]:
    """(wall time, compute time) of one reference run."""
    done = runner.run(COMMAND)
    if done.exit_code:
        raise RuntimeError(f"{' '.join(COMMAND)} exited {done.exit_code}")
    return done.wall_s, json.loads(done.stdout)["compute_s"]


def drops(n: int) -> list[float]:
    import numpy as np

    freqs = np.linspace(-400e6, 400e6, 100)
    eye = np.eye(2)
    caps = []
    for i in range(n):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=20160418, spawn_key=(0, i)))
        delays = np.sort(rng.exponential(10e-9, 1 + int(rng.integers(2))))
        taps = [(rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))) * math.sqrt(0.5)
                for _ in delays]
        phase = np.exp(-2j * np.pi * np.outer(freqs, delays - delays[0]))
        hf = np.tensordot(phase, np.stack(taps), axes=(1, 0))
        gram = np.einsum("fij,fik->fjk", hf.conj(), hf)
        _, logdet = np.linalg.slogdet(eye + 5.0 * gram)
        caps.append(max(float(np.mean(logdet) / math.log(2.0)), 0.0))
    return caps


if __name__ == "__main__":
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    drops(DROPS)
    print(json.dumps({"compute_s": time.perf_counter() - t0}))
