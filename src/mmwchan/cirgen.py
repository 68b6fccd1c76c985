"""Initial (spatially averaged) omnidirectional CIR synthesis.

Multipath arrivals are grouped into time clusters separated by a minimum
void interval (25 ns by default), with exponentially decaying cluster and
subpath powers. Departure/arrival directions are drawn from a small set of
spatial lobes with Gaussian angular spread. The statistics here are
parameterized stand-ins; externally generated CIRs can be injected through
:func:`import_cir`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    TWO_PI,
    ChannelImpulseResponse,
    MultipathComponent,
    Scenario,
    validate_cir,
)

NS = 1e-9
#: Lobe centre elevations are uniform on [-pi/4, pi/4).
_LOBE_EL_LOW = -math.pi / 4
_LOBE_EL_SPAN = math.pi / 4 - _LOBE_EL_LOW


class CirFileError(ValueError):
    """Raised when a CIR file does not match the expected schema."""


@dataclass(frozen=True)
class CirGenConfig:
    """Knobs of the stand-in time-cluster / spatial-lobe generator.

    Integer ranges are inclusive (lo, hi). Decay constants double as the
    exponential inter-arrival scales: the gap between clusters is the void
    interval plus Exp(cluster_decay_ns), subpath spacing within a cluster is
    Exp(intracluster_decay_ns).
    """

    num_clusters_range: tuple[int, int] = (1, 3)
    paths_per_cluster_range: tuple[int, int] = (1, 4)
    intercluster_void_ns: float = 25.0
    cluster_decay_ns: float = 30.0
    intracluster_decay_ns: float = 10.0
    num_lobes_range: tuple[int, int] = (1, 3)
    lobe_angular_spread_deg: float = 10.0
    rng_seed: int = 0

    def validate(self) -> None:
        for name in ("num_clusters_range", "paths_per_cluster_range", "num_lobes_range"):
            lo, hi = getattr(self, name)
            if not (isinstance(lo, int) and isinstance(hi, int)):
                raise ValueError(f"{name} bounds must be integers")
            if lo < 1 or hi < lo:
                raise ValueError(f"{name} must be a nonempty range of positive ints, got ({lo}, {hi})")
        for name in ("intercluster_void_ns", "cluster_decay_ns", "intracluster_decay_ns",
                     "lobe_angular_spread_deg"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.intercluster_void_ns < 0:
            raise ValueError("intercluster_void_ns must be >= 0")
        if not self.cluster_decay_ns > 0:
            raise ValueError("cluster_decay_ns must be > 0")
        if not self.intracluster_decay_ns > 0:
            raise ValueError("intracluster_decay_ns must be > 0")
        if not self.lobe_angular_spread_deg >= 0:
            raise ValueError("lobe_angular_spread_deg must be >= 0")


@dataclass(frozen=True)
class TimeCluster:
    """A group of subpaths arriving within a short delay window."""

    excess_delay: float  # seconds, cluster start
    subpaths: tuple[MultipathComponent, ...]

    @property
    def end_delay(self) -> float:
        return self.subpaths[-1].delay


class CirDraw(NamedTuple):
    """One drawn CIR in struct-of-arrays form, one entry per component in
    delay order; powers sum to 1.

    Cluster c holds ``cluster_sizes[c]`` consecutive components, starts at
    ``cluster_starts[c]`` and departs/arrives through the lobes indexed by
    ``cluster_lobes[c]``. Component angles are the lobe centre plus
    ``angle_spread`` times the component's four standard normal
    ``offsets`` (departure azimuth, departure elevation, arrival azimuth,
    arrival elevation).
    """

    delays: list[float]  # seconds
    powers: list[float]
    phases: list[float]
    offsets: list[np.ndarray]
    cluster_starts: list[float]
    cluster_sizes: list[int]
    cluster_lobes: list[tuple[int, int]]
    lobes: list[tuple[float, float]]  # (azimuth, elevation) radians
    angle_spread: float  # radians


def _draw_int(rng: np.random.Generator, lo: int, hi: int) -> int:
    """``rng.integers(lo, hi + 1)``; a one-value range draws no bits, so
    the call is skipped."""
    return lo if lo == hi else int(rng.integers(lo, hi + 1))


def draw_cir(config: CirGenConfig, rng: np.random.Generator) -> CirDraw:
    """Draw one CIR from ``rng`` without validating ``config``.

    The draw order is fixed: cluster and lobe counts, lobe centres
    (departure lobes first, azimuth then elevation), then per cluster its
    inter-cluster gap, lobe choices and path count, and per path its
    intra-cluster gap, phase and four angle offsets. Uniform draws are taken
    as ``low + (high - low) * rng.random()`` and the angle offsets as one
    ``standard_normal(4)`` call; both consume the same bits and give the
    same values as scalar ``uniform`` and ``normal`` calls.
    """
    void_s = config.intercluster_void_ns * NS
    cluster_decay_s = config.cluster_decay_ns * NS
    intra_decay_s = config.intracluster_decay_ns * NS
    n_clusters = _draw_int(rng, *config.num_clusters_range)
    n_dep_lobes = _draw_int(rng, *config.num_lobes_range)
    n_arr_lobes = _draw_int(rng, *config.num_lobes_range)
    u = rng.random(2 * (n_dep_lobes + n_arr_lobes)).tolist()
    lobes = [(TWO_PI * az, _LOBE_EL_LOW + _LOBE_EL_SPAN * el) for az, el in zip(u[0::2], u[1::2])]

    delays, weights, phases, offsets = [], [], [], []
    starts, sizes, cluster_lobes = [], [], []
    t = 0.0
    for c in range(n_clusters):
        start = 0.0 if c == 0 else t + void_s + rng.exponential(cluster_decay_s)
        cluster_weight = math.exp(-start / cluster_decay_s)
        dep = _draw_int(rng, 0, n_dep_lobes - 1)
        arr = n_dep_lobes + _draw_int(rng, 0, n_arr_lobes - 1)
        n_paths = _draw_int(rng, *config.paths_per_cluster_range)
        t = start
        for p in range(n_paths):
            if p > 0:
                t += rng.exponential(intra_decay_s)
            delays.append(t)
            weights.append(cluster_weight * math.exp(-(t - start) / intra_decay_s))
            phases.append(TWO_PI * rng.random())
            offsets.append(rng.standard_normal(4))
        starts.append(start)
        sizes.append(n_paths)
        cluster_lobes.append((dep, arr))

    total = sum(weights)
    powers = [w / total for w in weights]
    spread = math.radians(config.lobe_angular_spread_deg)
    return CirDraw(delays, powers, phases, offsets, starts, sizes, cluster_lobes, lobes, spread)


def _component_angles(draw: CirDraw) -> list[tuple[tuple[float, float], tuple[float, float]]]:
    """(aod, aoa) of each component: lobe centre plus spread times offset,
    azimuth wrapped to [0, 2pi) and elevation clamped to [-pi/2, pi/2]."""
    angles = []
    for size, lobe_pair in zip(draw.cluster_sizes, draw.cluster_lobes):
        for _ in range(size):
            z = draw.offsets[len(angles)].tolist()
            pair = []
            for lobe, d_az, d_el in zip(lobe_pair, z[0::2], z[1::2]):
                az, el = draw.lobes[lobe]
                el = min(max(el + draw.angle_spread * d_el, -math.pi / 2), math.pi / 2)
                pair.append(((az + draw.angle_spread * d_az) % TWO_PI, el))
            angles.append(tuple(pair))
    return angles


def _components(draw: CirDraw) -> list[MultipathComponent]:
    return [
        MultipathComponent(power_gain=power, phase=phase, delay=delay, aod=aod, aoa=aoa)
        for power, phase, delay, (aod, aoa) in zip(
            draw.powers, draw.phases, draw.delays, _component_angles(draw)
        )
    ]


def generate_initial_cir(
    config: CirGenConfig,
    scenario: Scenario,
    rng: np.random.Generator | None = None,
) -> ChannelImpulseResponse:
    """Generate one initial CIR; deterministic for a fixed config seed."""
    config.validate()
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    return ChannelImpulseResponse.from_components(_components(draw_cir(config, rng)), scenario)


def generate_clusters(
    config: CirGenConfig,
    scenario: Scenario,
    rng: np.random.Generator | None = None,
) -> list[TimeCluster]:
    """Generate the cluster structure behind :func:`generate_initial_cir`.

    Exposed so the declared cluster boundaries can be checked against the
    configured void interval; total subpath power is normalized to 1.
    """
    config.validate()
    if rng is None:
        rng = np.random.default_rng(config.rng_seed)
    draw = draw_cir(config, rng)
    comps = _components(draw)
    clusters = []
    first = 0
    for start, size in zip(draw.cluster_starts, draw.cluster_sizes):
        clusters.append(TimeCluster(excess_delay=start, subpaths=tuple(comps[first : first + size])))
        first += size
    return clusters


def partition_by_void(delays_s, void_s: float) -> list[list[int]]:
    """Partition component indices into maximal groups whose internal
    delay gaps are < void_s (the time-cluster partition rule)."""
    groups: list[list[int]] = []
    current: list[int] = []
    prev = None
    for i, d in enumerate(delays_s):
        if prev is not None and d - prev >= void_s:
            groups.append(current)
            current = []
        current.append(i)
        prev = d
    if current:
        groups.append(current)
    return groups


def check_void_intervals(cir: ChannelImpulseResponse, void_ns: float) -> bool:
    """True iff the void-partition of the CIR is internally consistent:
    every inter-group gap >= void and every intra-group gap < void."""
    void_s = void_ns * NS
    delays = cir.delays()
    groups = partition_by_void(delays, void_s)
    for g_prev, g_next in zip(groups, groups[1:]):
        if delays[g_next[0]] - delays[g_prev[-1]] < void_s:
            return False
    for g in groups:
        for a, b in zip(g, g[1:]):
            if delays[b] - delays[a] >= void_s:
                return False
    return True


CIR_FILE_FIELDS = (
    "delay_ns",
    "power_linear",
    "phase_rad",
    "aod_az_deg",
    "aod_el_deg",
    "aoa_az_deg",
    "aoa_el_deg",
)


def export_cir(cir: ChannelImpulseResponse, path) -> None:
    """Write a CIR file: scenario comment, header row, one CSV record per
    component. Values carry 17 significant digits, so import is an exact
    round trip."""
    lines = [f"# scenario: {cir.scenario.label()}", ",".join(CIR_FILE_FIELDS)]
    for c in cir.components:
        vals = (
            c.delay / NS,
            c.power_gain,
            c.phase,
            math.degrees(c.aod[0]),
            math.degrees(c.aod[1]),
            math.degrees(c.aoa[0]),
            math.degrees(c.aoa[1]),
        )
        lines.append(",".join(f"{v:.16e}" for v in vals))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def import_cir(path, scenario: Scenario | None = None) -> ChannelImpulseResponse:
    """Parse and validate a CIR file.

    The scenario is taken from the file's ``# scenario:`` comment when
    present, else from the argument (default NLOS V-V). Raises
    :class:`CirFileError` with line/field diagnostics on schema violations.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw_lines = fh.read().splitlines()

    file_scenario = None
    header_idx = None
    for idx, line in enumerate(raw_lines):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            body = stripped.lstrip("#").strip()
            if body.lower().startswith("scenario:"):
                file_scenario = Scenario.parse(body.split(":", 1)[1])
            continue
        header_idx = idx
        break
    if header_idx is None:
        raise CirFileError(f"{path}: no header row found")
    header = tuple(f.strip() for f in raw_lines[header_idx].split(","))
    if header != CIR_FILE_FIELDS:
        raise CirFileError(
            f"{path}: line {header_idx + 1}: header {header} does not match "
            f"expected fields {CIR_FILE_FIELDS}"
        )

    if file_scenario is not None:
        scen = file_scenario
    elif scenario is not None:
        scen = scenario
    else:
        scen = Scenario.parse("NLOS V-V")

    comps: list[MultipathComponent] = []
    prev_delay_ns = -math.inf
    for lineno0 in range(header_idx + 1, len(raw_lines)):
        line = raw_lines[lineno0].strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(CIR_FILE_FIELDS):
            raise CirFileError(
                f"{path}: line {lineno0 + 1}: expected {len(CIR_FILE_FIELDS)} "
                f"fields, got {len(cells)}"
            )
        rec = {}
        for name, cell in zip(CIR_FILE_FIELDS, cells):
            try:
                rec[name] = float(cell)
            except ValueError as exc:
                raise CirFileError(
                    f"{path}: line {lineno0 + 1}: field {name!r}: "
                    f"not a number: {cell!r}"
                ) from exc
        if rec["delay_ns"] < prev_delay_ns:
            raise CirFileError(
                f"{path}: line {lineno0 + 1}: delay_ns {rec['delay_ns']} "
                f"breaks non-decreasing delay order (previous {prev_delay_ns})"
            )
        prev_delay_ns = rec["delay_ns"]
        try:
            comps.append(
                MultipathComponent(
                    power_gain=rec["power_linear"],
                    phase=rec["phase_rad"],
                    delay=rec["delay_ns"] * NS,
                    aod=(math.radians(rec["aod_az_deg"]), math.radians(rec["aod_el_deg"])),
                    aoa=(math.radians(rec["aoa_az_deg"]), math.radians(rec["aoa_el_deg"])),
                )
            )
        except ValueError as exc:
            raise CirFileError(f"{path}: line {lineno0 + 1}: {exc}") from exc

    cir = ChannelImpulseResponse.from_components(comps, scen)
    violations = validate_cir(cir)
    if violations:
        raise CirFileError(f"{path}: invalid CIR: " + "; ".join(violations))
    return cir
