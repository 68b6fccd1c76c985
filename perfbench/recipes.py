"""The capacity workloads and the checks on the CSVs the CLI writes.

A drop fails when the CLI exits non-zero, when its row is missing, when its
capacity is not finite or below 0, when its ``drop_index`` is out of
order, or when its model's CDF is not monotone. Every drop of a job fails
when the recipe's median ordering from the paper does not hold.
"""

from __future__ import annotations

import math
import os
import statistics
from dataclasses import dataclass
from typing import Callable

CAPACITY_HEADER = "drop_index,seed,capacity_bps_hz"
CDF_HEADER = "capacity_bps_hz,cum_prob"


@dataclass(frozen=True)
class Recipe:
    config: str  # relative to the checkout root
    labels: tuple[str, ...]  # fading model labels, in config order
    num_drops: int
    ordering: Callable[[dict], bool] | None  # medians by label -> holds

    @property
    def drops_per_job(self) -> int:
        return len(self.labels) * self.num_drops


RECIPES = {
    # criterion 1: both Rician medians above Rayleigh
    "fig5_simo": Recipe(
        "configs/fig5.cfg", ("rayleigh", "rician5dB", "rician15dB"), 2000,
        lambda m: m["rician5dB"] > m["rayleigh"] and m["rician15dB"] > m["rayleigh"],
    ),
    # criterion 2: Rayleigh > K5 > K15
    "fig6_mimo": Recipe(
        "configs/fig6.cfg", ("rayleigh", "rician5dB", "rician15dB"), 2000,
        lambda m: m["rayleigh"] > m["rician5dB"] > m["rician15dB"],
    ),
    "rich_mimo4": Recipe(
        "perfbench/configs/rich_mimo4.cfg", ("rayleigh", "rician5dB"), 1000, None,
    ),
}


def output_files(recipe: Recipe) -> list[str]:
    return [f"{kind}_{label}.csv" for label in recipe.labels for kind in ("capacity", "cdf")]


def _read_lines(path: str) -> list[str] | None:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except OSError:
        return None


def _bad_capacity_rows(lines: list[str] | None, num_drops: int) -> tuple[int, list[float]]:
    """Failed drops in one capacity file, and the valid capacities."""
    if not lines or lines[0] != CAPACITY_HEADER:
        return num_drops, []
    rows = lines[1:]
    bad = max(num_drops - len(rows), 0)
    caps = []
    for i, row in enumerate(rows[:num_drops]):
        try:
            index, _, cap = row.split(",")
            index, cap = int(index), float(cap)
        except ValueError:
            bad += 1
            continue
        if index != i or not math.isfinite(cap) or cap < 0.0:
            bad += 1
            continue
        caps.append(cap)
    return bad, caps


def _cdf_monotone(lines: list[str] | None, num_drops: int) -> bool:
    if not lines or lines[0] != CDF_HEADER or len(lines) != num_drops + 1:
        return False
    try:
        pairs = [tuple(map(float, row.split(","))) for row in lines[1:]]
    except ValueError:
        return False
    for (v0, p0), (v1, p1) in zip(pairs, pairs[1:]):
        if not (v1 >= v0 and p1 > p0):
            return False
    return 0.0 < pairs[0][1] and pairs[-1][1] == 1.0


def failed_drops(recipe: Recipe, out_dir: str, check_ordering: bool = True) -> int:
    """Failed drops of one job's outputs (0 .. recipe.drops_per_job)."""
    failed = 0
    medians = {}
    for label in recipe.labels:
        bad, caps = _bad_capacity_rows(
            _read_lines(os.path.join(out_dir, f"capacity_{label}.csv")), recipe.num_drops
        )
        if not _cdf_monotone(_read_lines(os.path.join(out_dir, f"cdf_{label}.csv")), recipe.num_drops):
            bad = recipe.num_drops
        failed += bad
        if caps:
            medians[label] = statistics.median(caps)
    if check_ordering and recipe.ordering is not None:
        if len(medians) != len(recipe.labels) or not recipe.ordering(medians):
            return recipe.drops_per_job
    return failed


def differing_drops(recipe: Recipe, dir_a: str, dir_b: str) -> int:
    """Drops whose model files are not byte-identical between two jobs."""
    differ = 0
    for label in recipe.labels:
        for kind in ("capacity", "cdf"):
            paths = [os.path.join(d, f"{kind}_{label}.csv") for d in (dir_a, dir_b)]
            try:
                with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
                    same = fa.read() == fb.read()
            except OSError:
                same = False
            if not same:
                differ += recipe.num_drops
                break
    return differ


def logdet_flops(num_rx: int, num_tx: int) -> int:
    """Computed real flops of one subcarrier's Gram plus log-det: the
    complex Gram (8*m*d^2 for d = min(N_r, N_t), m = max) and a complex
    LU of the d x d matrix (8*d^3/3)."""
    d, m = min(num_rx, num_tx), max(num_rx, num_tx)
    return 8 * m * d * d + (8 * d**3) // 3
