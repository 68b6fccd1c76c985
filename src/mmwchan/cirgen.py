"""Initial (spatially averaged) omnidirectional CIR synthesis.

Multipath arrivals are grouped into time clusters separated by a minimum
void interval (25 ns by default), with exponentially decaying cluster and
subpath powers. Departure/arrival directions are drawn from a small set of
spatial lobes with Gaussian angular spread. The statistics here are
parameterized stand-ins; externally generated CIRs can be injected through
:func:`import_cir`.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    TWO_PI,
    ChannelImpulseResponse,
    ComponentError,
    Scenario,
    check_header,
    read_lines,
    read_row,
    require_count,
    write_rows,
)

NS = 1e-9
#: Standard normal angle offsets drawn per component: departure azimuth and
#: elevation, then arrival azimuth and elevation.
ANGLE_OFFSETS = 4
#: Lobe centre elevations are uniform on [-pi/4, pi/4).
_LOBE_EL_LOW = -math.pi / 4
_LOBE_EL_SPAN = math.pi / 4 - _LOBE_EL_LOW


class CirFileError(ValueError):
    """Raised when a CIR file does not match the expected schema."""


def require_ns(name: str, value) -> None:
    """Reject a time in ns that is not finite or, in seconds, not a normal
    float > 0 (a subnormal one loses bits, one that underflows is 0 s)."""
    if not (value < math.inf and value * NS >= sys.float_info.min):
        raise ValueError(f"{name} must be finite and at least {sys.float_info.min / NS:g} ns, so that it stays "
                         f"a normal float in seconds, got {value!r}")


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

    def __post_init__(self) -> None:
        for name in ("num_clusters_range", "paths_per_cluster_range", "num_lobes_range"):
            lo, hi = getattr(self, name)
            require_count(f"{name} lower bound", lo)
            require_count(f"{name} upper bound", hi, least=lo)
        for name in ("intercluster_void_ns", "lobe_angular_spread_deg"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)!r}")
        for name in ("cluster_decay_ns", "intracluster_decay_ns"):
            # 0/0 in the path weights would leave a drop with no component
            require_ns(name, getattr(self, name))


class DropLayout(NamedTuple):
    """Column slices of one drop's uniform block for a generator config with
    at most C clusters of P paths and B lobes a side.

    In column order: the cluster, departure-lobe and arrival-lobe counts
    and each cluster's path count; the B departure then B arrival lobe
    centres, (azimuth, elevation) each; the C - 1 inter-cluster gaps, then
    the P - 1 intra-cluster gaps of each cluster; the (departure, arrival)
    lobe choice of each cluster; the Rician dominant-term phase of each of
    the C * P taps; and the component phase of each (cluster, path) slot.
    A draw that a drop does not use keeps its column, so every drop of a
    config takes the same ``width`` uniforms.
    """

    counts: slice
    lobes: slice
    gaps: slice
    choices: slice
    psi: slice
    phases: slice
    width: int


@functools.lru_cache(maxsize=16)
def drop_layout(config: CirGenConfig) -> DropLayout:
    """The uniform-block layout of the drops of ``config``, from its maxima
    by arithmetic alone: a size check can call it on a config whose drops
    would not fit in memory."""
    clusters = config.num_clusters_range[1]
    slots = clusters * config.paths_per_cluster_range[1]
    sizes = 3 + clusters, 4 * config.num_lobes_range[1], slots - 1, 2 * clusters, slots, slots
    edges = list(itertools.accumulate(sizes, initial=0))
    return DropLayout(*map(slice, edges, edges[1:]), edges[-1])


class _Plan(NamedTuple):
    """What :func:`cir_rows` needs of a config besides the draws and layout."""

    count_lo: np.ndarray  # lowest value of each count column
    count_span: np.ndarray  # number of values of each count column
    gap_shift: np.ndarray  # void interval (s) before each gap column, or 0
    gap_scale: np.ndarray  # minus the mean (s) of each gap column
    cluster_index: np.ndarray  # (C, 1)
    path_index: np.ndarray  # (P,)


@functools.lru_cache(maxsize=16)
def _plan(config: CirGenConfig) -> _Plan:
    """The plan of ``config``; the cache hands the same arrays to every
    caller, so they are read-only."""
    clusters = config.num_clusters_range[1]
    paths = config.paths_per_cluster_range[1]
    # the count columns: clusters, departure lobes, arrival lobes, then paths per cluster
    bounds = [config.num_clusters_range] + [config.num_lobes_range] * 2
    bounds += [config.paths_per_cluster_range] * clusters
    lo = np.array([b[0] for b in bounds])
    gap_counts = [clusters - 1, clusters * (paths - 1)]
    arrays = (
        lo,
        np.array([b[1] + 1 for b in bounds]) - lo,
        np.repeat([config.intercluster_void_ns * NS, 0.0], gap_counts),
        np.repeat([-config.cluster_decay_ns * NS, -config.intracluster_decay_ns * NS], gap_counts),
        np.arange(clusters)[:, None],
        np.arange(paths),
    )
    for a in arrays:
        a.setflags(write=False)
    return _Plan(*arrays)


def _uniform_ints(u: np.ndarray, lo, count) -> np.ndarray:
    """Integers uniform on [lo, lo + count) from uniforms on [0, 1).

    ``u * count`` stays below ``count``: u is at most 1 - 2**-53, and the
    product rounds to at most the float below ``count``."""
    return lo + (u * count).astype(np.int64)


class CirRows(NamedTuple):
    """A chunk of drawn CIRs, one row per drop and one column per (cluster,
    path) slot c * P + p. The slots where ``valid`` holds are the drop's
    components, in delay order; the others hold zeros. The powers of a
    drop sum to 1."""

    valid: np.ndarray  # (n, C * P) bool
    delays: np.ndarray  # (n, C * P) seconds
    powers: np.ndarray  # (n, C * P)


def cir_rows(config: CirGenConfig, u: np.ndarray) -> CirRows:
    """Turn the uniform blocks ``u`` (n, width) of a chunk of drops into
    clusters, delays and powers.

    Counts are ``lo + floor(u * (hi - lo + 1))``. The gap before cluster c
    > 0 is the void interval plus Exp(cluster_decay_ns), taken from the end
    of cluster c - 1; each further path of a cluster follows its
    predecessor after Exp(intracluster_decay_ns). Exponentials are
    ``-scale * log1p(-u)``. A path starting at cluster start s and delay t
    weighs ``exp(-s / cluster_decay) * exp(-(t - s) / intracluster_decay)``.
    Delays accumulate slot by slot in (cluster, path) order, and unused
    slots add 0, so each drop's arithmetic is that of a scalar loop over
    its own clusters and paths.
    """
    plan = _plan(config)
    lay = drop_layout(config)
    n = u.shape[0]
    clusters, paths = plan.cluster_index.size, plan.path_index.size
    counts = _uniform_ints(u[:, lay.counts], plan.count_lo, plan.count_span)
    valid = (plan.cluster_index < counts[:, :1, None]) & (plan.path_index < counts[:, 3:, None])

    gaps = plan.gap_shift + plan.gap_scale * np.log1p(-u[:, lay.gaps])
    steps = np.zeros((n, clusters, paths))
    steps[:, 1:, 0] = gaps[:, : clusters - 1]
    steps[:, :, 1:] = gaps[:, clusters - 1 :].reshape(n, clusters, paths - 1)
    steps *= valid
    delays = steps.reshape(n, -1).cumsum(axis=1).reshape(n, clusters, paths)
    starts = delays[:, :, :1]
    weights = np.exp(-starts / (config.cluster_decay_ns * NS)) * np.exp(
        -(delays - starts) / (config.intracluster_decay_ns * NS)
    )
    weights *= valid
    weights = weights.reshape(n, -1)
    valid = weights > 0.0  # a path whose weight underflows to 0 is no component
    return CirRows(
        valid=valid,
        delays=delays.reshape(n, -1) * valid,
        powers=weights / weights.cumsum(axis=1)[:, -1:],  # summed in slot order
    )


def lobe_choices(config: CirGenConfig, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The lobe counts (n, 2) of the uniform blocks ``u`` (n, width) and
    the lobe each cluster slot takes (n, C, 2), departure side first: a
    choice is uniform over the drop's own lobe count on its side."""
    plan, lay = _plan(config), drop_layout(config)
    counts = _uniform_ints(u[:, lay.counts][:, 1:3], plan.count_lo[1:3], plan.count_span[1:3])
    picks = u[:, lay.choices].reshape(u.shape[0], -1, 2)
    return counts, _uniform_ints(picks, 0, counts[:, None, :])


def _phases_and_angles(
    config: CirGenConfig, u: np.ndarray, slots: list[int], offsets: np.ndarray
) -> tuple[list[float], list[tuple[float, float]], list[tuple[float, float]]]:
    """The phases, departure angles and arrival angles of the components in
    ``slots`` of the one drop in ``u`` (1, width), with the standard normal
    angle ``offsets`` (L, ANGLE_OFFSETS) of its L components. Each angle is
    the chosen lobe's centre plus the angular spread times its offset. Lobe
    centres are uniform in azimuth on [0, 2pi) and in elevation on
    [-pi/4, pi/4); azimuths wrap to [0, 2pi) and elevations are clamped to
    [-pi/2, pi/2]."""
    lay = drop_layout(config)
    row = u[0].tolist()
    centres = row[lay.lobes]  # (azimuth, elevation) pairs, departure lobes first
    num_lobes = config.num_lobes_range[1]
    lobes = lobe_choices(config, u)[1][0].tolist()  # (departure, arrival) per cluster
    spread = math.radians(config.lobe_angular_spread_deg)
    phases, sides = [], ([], [])
    for slot, z in zip(slots, offsets.tolist()):
        for side, lobe in enumerate(lobes[slot // config.paths_per_cluster_range[1]]):
            centre = 2 * (side * num_lobes + lobe)
            el = _LOBE_EL_LOW + _LOBE_EL_SPAN * centres[centre + 1] + spread * z[2 * side + 1]
            sides[side].append(((TWO_PI * centres[centre] + spread * z[2 * side]) % TWO_PI,
                                min(max(el, -math.pi / 2), math.pi / 2)))
        phases.append(TWO_PI * row[lay.phases.start + slot])
    return phases, *sides


def generate_initial_cir(
    config: CirGenConfig,
    scenario: Scenario,
    rng: np.random.Generator,
) -> ChannelImpulseResponse:
    """Generate one initial CIR from ``rng``: a drop's uniform block, then
    the angle offsets of each component, as the drop engine draws them.
    The same stream gives the same CIR."""
    u = rng.random((1, drop_layout(config).width))
    rows = cir_rows(config, u)
    slots = np.flatnonzero(rows.valid[0])
    offsets = rng.standard_normal((slots.size, ANGLE_OFFSETS))
    phases, aod, aoa = _phases_and_angles(config, u, slots.tolist(), offsets)
    return ChannelImpulseResponse(delays=rows.delays[0, slots], powers=rows.powers[0, slots],
                                  phases=phases, aod=aod, aoa=aoa, scenario=scenario)


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
    component. Values carry 17 significant digits, so import gives back
    powers and phases exactly; delays and angles pass through the s <-> ns
    and rad <-> deg conversions and may come back off in the last bits."""
    rows = (
        tuple(f"{v:.16e}" for v in (delay / NS, power, phase, *map(math.degrees, aod + aoa)))
        for delay, power, phase, aod, aoa in zip(
            cir.delays.tolist(), cir.powers.tolist(), cir.phases.tolist(), cir.aod.tolist(), cir.aoa.tolist()
        )
    )
    write_rows(path, rows, head=(f"# scenario: {cir.scenario.label()}", ",".join(CIR_FILE_FIELDS)))


def import_cir(path, scenario: Scenario) -> ChannelImpulseResponse:
    """Parse and validate a CIR file.

    The scenario is taken from a ``# scenario:`` comment above the header
    row when present, else from the argument. Raises :class:`CirFileError`
    on a file that cannot be read or decoded, and with line/field
    diagnostics on a bad scenario comment, on schema violations and on
    records that :class:`ChannelImpulseResponse` rejects.
    """
    lines = iter(read_lines(path, CirFileError, "CIR file"))
    for lineno, line, comment in lines:
        if line:
            break
        body = comment.lstrip("#").strip()
        if body.lower().startswith("scenario:"):
            try:
                scenario = Scenario.parse(body.split(":", 1)[1])
            except ValueError as exc:
                raise CirFileError(f"{path}: line {lineno}: {exc}") from exc
    else:
        raise CirFileError(f"{path}: no header row found")
    check_header(f"{path}: line {lineno}", line, CIR_FILE_FIELDS, CirFileError)

    linenos: list[int] = []
    records: list[tuple[float, ...]] = []  # delay (s), power, phase, aod and aoa (rad)
    for lineno, line, _ in lines:
        if line:
            delay_ns, power, phase, *degrees = read_row(
                f"{path}: line {lineno}", line, len(CIR_FILE_FIELDS), CIR_FILE_FIELDS.__getitem__, CirFileError
            )
            linenos.append(lineno)
            records.append((delay_ns * NS, power, phase, *map(math.radians, degrees)))

    table = np.array(records, dtype=float).reshape(-1, len(CIR_FILE_FIELDS))
    try:
        return ChannelImpulseResponse(delays=table[:, 0], powers=table[:, 1], phases=table[:, 2],
                                      aod=table[:, 3:5], aoa=table[:, 5:], scenario=scenario)
    except ComponentError as exc:
        raise CirFileError(f"{path}: line {linenos[exc.index]}: {exc}") from exc
    except ValueError as exc:
        raise CirFileError(f"{path}: {exc}") from exc
