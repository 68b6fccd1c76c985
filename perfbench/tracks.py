"""Inputs and references for the ``estimate_roundtrip`` workload.

Tracks are generated here with numpy alone, so the estimator inputs stay
the same when ``mmwchan.spatial`` changes. A track is 132 positions at
half-wavelength steps by 2 delay bins (powers 0.6 and 0.4), the shape of
acceptance criterion 5. Each bin is the envelope of a Rician field: a
dominant term with one random phase plus complex Gaussians shaped so that
their envelope power correlation follows the scenario's fitted model
``A*exp(-B*dr) - C``.

This module does not import ``mmwchan``: the sequential double-loop
reference below is what the package's autocorrelation must equal bit for
bit (criterion 7).
"""

from __future__ import annotations

import math

import numpy as np

NUM_POSITIONS = 132
MAX_LAG_STEPS = 20
MIN_OVERLAP = NUM_POSITIONS - MAX_LAG_STEPS
DELTA_X = 0.5
BIN_POWERS = (0.6, 0.4)
NUM_LAGS = MAX_LAG_STEPS + 1
#: Tracks per scenario whose curves are checked against the reference.
CHECKED_PER_SCENARIO = 8

#: The four scenarios with fitted (A, B, C) triples, with K at the middle
#: of each scenario's K range in dB.
SCENARIOS = (
    ("LOS V-V", (0.99, 1.95, 0.0), 12.0),
    ("LOS V-H", (1.0, 0.9, 0.05), 5.0),
    ("NLOS V-V", (0.9, 1.0, -0.1), 6.5),
    ("NLOS V-H", (1.0, 2.6, 0.0), 5.0),
)


def _rician_split(k_db: float) -> tuple[float, float]:
    k = 10.0 ** (k_db / 10.0)
    return k / (k + 1.0), 1.0 / (k + 1.0)


def shaping_matrix(triple, k_db: float) -> np.ndarray:
    """Real symmetric square root of the complex-envelope correlation whose
    Rician envelope power correlation matches ``triple`` along the track."""
    a, b, c = triple
    s2, sig2 = _rician_split(k_db)
    idx = np.arange(NUM_POSITIONS)
    dr = np.abs(np.subtract.outer(idx, idx)) * DELTA_X
    target = a * np.exp(-b * dr) - c
    radicand = np.clip(s2 * s2 + target * (2.0 * s2 * sig2 + sig2 * sig2), 0.0, None)
    rho = np.clip((np.sqrt(radicand) - s2) / sig2, -1.0, 1.0)
    np.fill_diagonal(rho, 1.0)
    w, v = np.linalg.eigh(rho)
    return (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T


def generate_tracks(seed: int, scenario_index: int, num_tracks: int) -> np.ndarray:
    """Amplitude grids of shape (num_tracks, NUM_POSITIONS, len(BIN_POWERS)),
    a pure function of (seed, scenario_index, num_tracks)."""
    _, triple, k_db = SCENARIOS[scenario_index]
    s2, sig2 = _rician_split(k_db)
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(scenario_index,)))
    cols = num_tracks * len(BIN_POWERS)
    g = (rng.standard_normal((NUM_POSITIONS, cols)) + 1j * rng.standard_normal((NUM_POSITIONS, cols))) / math.sqrt(2.0)
    psi = rng.uniform(0.0, 2.0 * math.pi, size=cols)
    field = math.sqrt(s2) * np.exp(1j * psi) + math.sqrt(sig2) * (shaping_matrix(triple, k_db) @ g)
    amps = np.abs(field) * np.tile(np.sqrt(BIN_POWERS), num_tracks)
    return np.ascontiguousarray(amps.reshape(NUM_POSITIONS, num_tracks, len(BIN_POWERS)).transpose(1, 0, 2))


def sample_indices(seed: int, num_tracks: int, count: int) -> np.ndarray:
    """Track indices whose curves are checked against the reference."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(99,)))
    return np.sort(rng.choice(num_tracks, size=min(count, num_tracks), replace=False))


def reference_autocorr(seq, lag: int) -> float:
    """Literal double loop over the defining expectation: means and
    variances over the overlapping window, NaN on zero variance."""
    n = len(seq) - lag
    mean_x = 0.0
    for i in range(n):
        mean_x += seq[i]
    mean_x /= n
    mean_y = 0.0
    for i in range(n):
        mean_y += seq[i + lag]
    mean_y /= n
    num = 0.0
    var_x = 0.0
    var_y = 0.0
    for i in range(n):
        dx = seq[i] - mean_x
        dy = seq[i + lag] - mean_y
        num += dx * dy
        var_x += dx * dx
        var_y += dy * dy
    if var_x == 0.0 or var_y == 0.0:
        return math.nan
    return num / math.sqrt(var_x * var_y)


def reference_average_autocorr(amps: np.ndarray) -> list[float]:
    """Per-lag mean over delay bins with a defined value, summed in bin
    order, for lags 0..MAX_LAG_STEPS."""
    columns = [[float(v) for v in amps[:, b]] for b in range(amps.shape[1])]
    out = []
    for lag in range(NUM_LAGS):
        total = 0.0
        count = 0
        for col in columns:
            value = reference_autocorr(col, lag)
            if not math.isnan(value):
                total += value
                count += 1
        out.append(total / count if count else math.nan)
    return out


def same_floats(a, b) -> bool:
    """Bitwise equality of two float sequences, NaN matching NaN."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))


def model_residual(triple, lags, values) -> float:
    """Mean squared residual of ``A*exp(-B*lag) - C`` on the defined points,
    the quantity ``fit_autocorr_mmse`` minimises."""
    a, b, c = triple
    lags = np.asarray(lags, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = np.isfinite(values)
    return float(np.mean((a * np.exp(-b * lags[mask]) - c - values[mask]) ** 2))


#: Computed objective evaluations of one identifiable ``fit_autocorr_mmse``:
#: a grid of 1001 decay rates, two golden-section start points, 40
#: golden-section steps and the final evaluation.
FIT_OBJECTIVE_EVALS = 1001 + 2 + 40 + 1


def failed_tracks(result: dict, tracks_per_scenario: int) -> int:
    """Tracks failing the estimator checks. A checked track fails when its
    curve differs from the reference; every track of a scenario fails when
    the scenario's fit is non-identifiable or its residual exceeds that of
    the generating triple on the same mean curve."""
    failed = 0
    for s, (_, triple, _) in enumerate(SCENARIOS):
        a, b, c, residual, identifiable = result["fits"][s]
        if identifiable != 1.0 or not residual <= model_residual(triple, result["lags"], result["means"][s]):
            failed += tracks_per_scenario
            continue
        for j, t in enumerate(result["checked"][s]):
            if not same_floats(reference_average_autocorr(result["checked_amps"][s][j]), result["curves"][s][t]):
                failed += 1
    return failed


def differing_tracks(result: dict, other: dict, tracks_per_scenario: int) -> int:
    """Tracks whose curve, or whose scenario's fit or K estimate, is not
    bitwise the same in two results."""
    differ = 0
    for s in range(len(SCENARIOS)):
        if not (same_floats(result["fits"][s], other["fits"][s]) and same_floats(result["k_db"][s], other["k_db"][s])):
            differ += tracks_per_scenario
            continue
        differ += sum(not same_floats(a, b) for a, b in zip(result["curves"][s], other["curves"][s]))
    return differ
