"""Inverse toolchain: empirical spatial autocorrelation of track
amplitudes, exponential model fitting, K-factor estimation, and fading CDFs.

The autocorrelation estimator correlates voltage amplitudes; the K-factor
estimator and power CDF operate on mean-normalized powers. Undefined
autocorrelation values (zero-variance windows) are reported as NaN, never
silently as zero.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    AutocorrParams,
    check_header,
    read_lines,
    read_row,
    require_count,
    require_grid,
    require_positive,
    write_rows,
)

#: Byte budget of one (positions x bins x lags) float array of the
#: autocorrelation kernel, which holds about ten such arrays at once: the
#: int64 gather indices, the x and y windows and their deviations two
#: each, the three products three. Larger grids go through in groups of
#: bins and, where one bin's lags overrun the budget, one bin at a time in
#: groups of lags, so the kernel's memory does not grow as positions x
#: lags. A group holds at least one (bin, lag) column, so only a track of
#: more than 131071 positions (a 1 MiB column) overruns the budget, by one
#: column's arrays.
_BATCH_BYTES = 1 << 20
#: Fewest power samples the moment K-factor estimate accepts.
MIN_K_SAMPLES = 100
#: Fewest samples in the overlap window of the deepest lag an
#: autocorrelation estimate evaluates, unless the track is shorter.
MIN_OVERLAP = 8


class TrackFileError(ValueError):
    """Raised when a track file does not match the expected schema."""


@dataclass(frozen=True, eq=False)
class TrackMeasurement:
    """PDP voltage amplitudes over a linear track.

    ``amplitudes`` is (num_positions, num_bins): rows are track positions at
    uniform delta_x (wavelengths) steps, columns are delay bins.
    """

    amplitudes: np.ndarray
    delta_x: float = 0.5
    delay_bin_ns: float = 2.5

    def __post_init__(self) -> None:
        a = np.array(self.amplitudes, dtype=float)
        if a.ndim != 2:
            raise ValueError("amplitudes must be a 2-D grid (positions x delay bins)")
        require_grid("num_positions", a.shape[0], "delta_x", self.delta_x, least=2)
        require_positive("delay_bin_ns", self.delay_bin_ns)
        # two reductions and no temporaries: min and max propagate NaN, which
        # fails both comparisons; negatives and -inf fail the first, +inf
        # the second
        if not (a.min(initial=0.0) >= 0.0 and a.max(initial=0.0) < math.inf):
            raise ValueError("amplitudes must be finite and non-negative")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    @property
    def num_positions(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def num_bins(self) -> int:
        return self.amplitudes.shape[1]


@dataclass(frozen=True, eq=False)
class AutocorrCurve:
    """Autocorrelation values on a lag grid of multiples of delta_x.

    Values are in [-1, 1]; NaN marks lags where the estimate is undefined
    (zero variance in a window).
    """

    lags: np.ndarray  # wavelengths
    values: np.ndarray

    def __post_init__(self) -> None:
        lags = np.array(self.lags, dtype=float)
        vals = np.array(self.values, dtype=float)
        if lags.shape != vals.shape or lags.ndim != 1:
            raise ValueError("lags and values must be matching 1-D arrays")
        # as for TrackMeasurement's amplitudes: NaN fails both comparisons
        if not (lags.min(initial=0.0) >= 0.0 and lags.max(initial=0.0) < math.inf):
            raise ValueError("lags must be finite and >= 0")
        # two reductions and no temporaries: fmax and fmin skip NaN, so a
        # NaN hides no other value; +-inf and finite values outside
        # [-1, 1] pass one comparison
        bound = 1.0 + 1e-9
        if np.fmax.reduce(vals, initial=0.0) > bound or np.fmin.reduce(vals, initial=0.0) < -bound:
            raise ValueError("autocorrelation values must lie in [-1, 1] or be NaN")
        lags.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", vals)


@functools.lru_cache(maxsize=8)
def _window_layout(n_pos: int, num_bins: int, lag_lo: int, lag_hi: int):
    """Read-only gather indices, mask and lengths of the position-major
    windows of :func:`_autocorr_grid` for lags ``lag_lo <= i < lag_hi`` of
    a (n_pos x num_bins) grid.

    ``take[k, 0, b, j]`` and ``take[k, 1, b, j]`` index term k of the x and
    y windows of bin b at lag i = lag_lo + j in the grid raveled row-major
    and followed by one 0.0: positions k - 1 and k - 1 + i for the terms
    1 <= k <= n[j] = n_pos - i of the window, and the 0.0 for the terms
    that ``outside`` marks. Rows run to the longest window, n[0].
    """
    i = np.arange(lag_lo, lag_hi)
    n = n_pos - i
    k = np.arange(n[0] + 1)[:, None, None]
    inside = (k >= 1) & (k <= n)
    first = (k - 1) * num_bins + np.arange(num_bins)[:, None]
    zero = n_pos * num_bins
    take = np.stack((np.where(inside, first, zero), np.where(inside, first + i * num_bins, zero)), axis=1)
    outside = np.broadcast_to(~inside[:, None], take.shape).copy()
    for arr in (take, outside, n):
        arr.setflags(write=False)
    return take, outside, n


def _correlate_windows(padded: np.ndarray, take, outside, n, out: np.ndarray) -> bool:
    """Correlations of the windows of one :func:`_window_layout` over a
    raveled grid ``padded`` (followed by its 0.0) into the (bins x lags)
    ``out``, which keeps its NaN where a window has zero variance; True
    when none has. Its arrays die on return, before the next group's."""
    xy = padded.take(take)
    dxy = xy - xy.sum(axis=0) / n
    np.copyto(dxy, 0.0, where=outside)
    prod = np.empty((take.shape[0], 3) + dxy.shape[2:])
    np.multiply(dxy, dxy, out=prod[:, :2])
    np.multiply(dxy[:, 0], dxy[:, 1], out=prod[:, 2])
    sxx, syy, sxy = prod.sum(axis=0)
    ok = (sxx != 0.0) & (syy != 0.0)
    np.divide(sxy, np.sqrt(sxx * syy), out=out, where=ok)
    return bool(ok.all())


def _autocorr_grid(amplitudes: np.ndarray, min_overlap: int):
    """Windowed lag correlations of each column of a (positions x bins)
    grid, as a (bins x lags) array, and whether every window had nonzero
    variance; NaN marks a zero-variance window.

    Lag i pairs position l with l + i over the n = positions - i overlapping
    samples, with means and variances over that window. Lags run from 0
    while n stays at least min(min_overlap, positions), and at least 2.

    The windows are laid out position-major: row k of a C-contiguous
    (1 + positions, 2, bins, lags) array holds term k of the x and the y
    window of every (bin, lag), row 0 is a leading 0.0 and masked-out terms
    are 0.0. Every sum is a reduction over the rows, which numpy does as one
    vector add per row, in row order, so each value comes from the same
    float operations as a sequential double loop over its window, bit for
    bit. numpy would sum a lone column pairwise instead; stacking x with y,
    and the three products, keeps at least two columns in every sum.

    Each (bin, lag) column is summed on its own, so the grid goes through
    in groups under :data:`_BATCH_BYTES`: groups of bins, or, where one
    bin's lags overrun the budget, one bin at a time in groups of lags. A
    group of lags stops its rows at its longest window; the rows it drops
    hold only 0.0 terms, and adding 0.0 to a sum that starts at 0.0
    changes no bit. Whole-grid layouts are cached, as tracks of one shape
    come in runs; a group of lags is laid out anew each time.
    """
    a = np.asarray(amplitudes, dtype=float)
    n_pos, num_bins = a.shape
    num_lags = n_pos - max(min(min_overlap, n_pos), 2) + 1
    out = np.full((num_bins, num_lags), math.nan)
    column = 8 * (n_pos + 1)  # bytes of one (bin, lag) window column
    lag_group = min(num_lags, max(1, _BATCH_BYTES // column))
    bin_group = max(1, _BATCH_BYTES // (column * lag_group))
    layout = _window_layout if lag_group == num_lags else _window_layout.__wrapped__
    defined = True
    for b0 in range(0, num_bins, bin_group):
        cols = a[:, b0 : b0 + bin_group]
        padded = np.append(cols, 0.0)
        for i0 in range(0, num_lags, lag_group):
            i1 = min(i0 + lag_group, num_lags)
            window = layout(n_pos, cols.shape[1], i0, i1)
            defined &= _correlate_windows(padded, *window, out=out[b0 : b0 + bin_group, i0:i1])
    return out, defined


def spatial_autocorrelation(
    track: TrackMeasurement,
    delay_bin: int,
    min_overlap: int = MIN_OVERLAP,
) -> AutocorrCurve:
    """Empirical spatial autocorrelation of one delay bin's amplitudes.

    Evaluates lags i = 0, 1, 2, ... (in delta_x units) as long as the
    overlapping window keeps at least ``min_overlap`` samples (at least 2
    for very short tracks).
    """
    if not 0 <= delay_bin < track.num_bins:
        raise ValueError(f"delay_bin {delay_bin} out of range [0, {track.num_bins})")
    values, _ = _autocorr_grid(track.amplitudes[:, delay_bin : delay_bin + 1], min_overlap)
    return AutocorrCurve(lags=np.arange(values.shape[1]) * track.delta_x, values=values[0])


def average_autocorr(track: TrackMeasurement, min_overlap: int = MIN_OVERLAP) -> AutocorrCurve:
    """Per-lag unweighted mean over delay bins with a defined estimate.

    Bins that carry no fading (zero variance at every lag) drop out, which
    restricts the average to resolvable multipath bins. Raises when no bin
    is defined anywhere.
    """
    values, all_defined = _autocorr_grid(track.amplitudes, min_overlap)
    if all_defined and track.num_bins:
        # every bin fades: the masked mean below, without its masks
        avg = values.sum(axis=0) / values.shape[0]
    else:
        defined = np.isfinite(values)
        if not defined.any():
            raise ValueError("no delay bin has a defined autocorrelation (all zero variance)")
        counts = defined.sum(axis=0)
        sums = np.where(defined, values, 0.0).sum(axis=0)
        avg = np.where(counts > 0, sums / np.maximum(counts, 1), math.nan)
    return AutocorrCurve(lags=np.arange(values.shape[1]) * track.delta_x, values=avg)


@dataclass(frozen=True)
class AutocorrFit:
    """MMSE exponential-model fit: parameters, mean squared residual, and
    whether the decay rate was identifiable."""

    params: AutocorrParams
    residual: float
    identifiable: bool


def _ls_rows(x: np.ndarray, y: np.ndarray):
    """Best (a, c) for the model a*x - c on each row of x (x = exp(-b*lag)
    for one decay rate b per row), with the correlation-magnitude
    constraints a > 0 and 0 < a - c <= 1, and the mean squared residual.

    Every branch is a masked array operation, and every row is summed on
    its own along the lag axis, so each row's (a, c, residual) is what a
    one-row call gives, bit for bit.
    """
    n = x.shape[-1]
    sx = x.sum(axis=-1)
    sxx = (x * x).sum(axis=-1)
    sy = float(np.sum(y))
    sxy = (x * y).sum(axis=-1)
    mean_y = sy / n
    det = n * sxx - sx * sx
    # x constant (b = 0 or degenerate grid): the model collapses to a constant
    degenerate = det <= 1e-15 * np.maximum(n * sxx, 1.0)
    x0 = x[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        # unconstrained LS for y = a*x - c where det allows it
        a = np.where(degenerate, np.where(x0 == 1.0, max(mean_y, 1e-6), 1.0), (n * sxy - sx * sy) / det)
        c = np.where(degenerate, a * x0 - mean_y, (a * sx - sy) / n)
        low = a <= 0.0
        a = np.where(low, 1e-6, a)
        c = np.where(low, a * (sx / n) - mean_y, c)
        # refit on the boundary c = a - 1
        refit = a - c > 1.0
        denom = ((x - 1.0) ** 2).sum(axis=-1)
        a_edge = np.maximum(((x - 1.0) * (y - 1.0)).sum(axis=-1) / denom, 1e-6)
        a = np.where(refit & (denom > 0.0), a_edge, a)
        c = np.where(refit, a - 1.0, np.where(a - c <= 0.0, a - 1e-6, c))
    resid = ((a[:, None] * x - c[:, None] - y) ** 2).mean(axis=-1)
    return a, c, resid


def _ls_row(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """:func:`_ls_rows` on one row x, as Python floats (a, c, residual).

    Each sum is the same numpy reduction over the lags, and each branch is
    a Python ``if`` on the same float operations, so the result is that
    row's bit for bit, at about a fifth of a one-row array call's cost.
    """
    n = x.size
    sx = float(np.add.reduce(x))
    sxx = float(np.add.reduce(x * x))
    sy = float(np.add.reduce(y))
    mean_y = sy / n
    det = n * sxx - sx * sx
    if det <= 1e-15 * max(n * sxx, 1.0):  # x constant: the model collapses to a constant
        x0 = float(x[0])
        a = max(mean_y, 1e-6) if x0 == 1.0 else 1.0
        c = a * x0 - mean_y
    else:
        a = (n * float(np.add.reduce(x * y)) - sx * sy) / det
        c = (a * sx - sy) / n
    if a <= 0.0:
        a = 1e-6
        c = a * (sx / n) - mean_y
    if a - c > 1.0:  # refit on the boundary c = a - 1
        denom = float(np.add.reduce((x - 1.0) ** 2))
        if denom > 0.0:
            a = max(float(np.add.reduce((x - 1.0) * (y - 1.0))) / denom, 1e-6)
        c = a - 1.0
    elif a - c <= 0.0:
        c = a - 1e-6
    return a, c, float(np.add.reduce((a * x - c - y) ** 2)) / n


@np.errstate(over="ignore")  # b * lag overflows to inf only where exp(-b * lag) gives exactly 0
def fit_autocorr_mmse(curve: AutocorrCurve) -> AutocorrFit:
    """Fit a*exp(-b*lag) - c to the defined points of a curve by MMSE.

    Grid search over b in [0, 10] (step 0.01) with closed-form least
    squares for (a, c) at each b, followed by golden-section refinement of
    b around the grid optimum. A constant curve leaves b unidentifiable and
    is flagged instead of guessed. So is a fit whose model column
    exp(-b*lag) is the same for every grid b > 0, as when every lag but 0
    is so far out that it underflows to 0: the residual is flat in b, and
    the polished b is kept but flagged.
    """
    mask = np.isfinite(curve.values)
    lags = curve.lags[mask]
    y = curve.values[mask]
    if len(y) < 3:
        raise ValueError("need at least 3 defined lags to fit the exponential model")

    if float(np.max(y) - np.min(y)) < 1e-12:
        level = min(max(float(y[0]), 1e-6), 1.0)
        return AutocorrFit(
            params=AutocorrParams(a=level, b=0.0, c=0.0),
            residual=0.0,
            identifiable=False,
        )

    def objective(b: float):
        a, c, resid = _ls_row(np.exp(-b * lags), y)
        return resid, a, c

    # the first grid minimum, as a scan keeping strict improvements finds it
    grid = np.arange(0.0, 10.0 + 1e-9, 0.01)
    columns = np.exp(-grid[:, None] * lags)
    grid_a, grid_c, grid_resid = _ls_rows(columns, y)
    identifiable = bool(np.any(columns[2:] != columns[1]))
    i = int(np.argmin(grid_resid))
    best = (float(grid_resid[i]), float(grid_a[i]), float(grid[i]), float(grid_c[i]))

    # golden-section polish inside the winning grid cell
    lo = max(best[2] - 0.01, 0.0)
    hi = min(best[2] + 0.01, 10.0)
    gr = (math.sqrt(5.0) - 1.0) / 2.0
    b1 = hi - gr * (hi - lo)
    b2 = lo + gr * (hi - lo)
    f1, _, _ = objective(b1)
    f2, _, _ = objective(b2)
    for _ in range(40):
        if f1 <= f2:
            hi, b2, f2 = b2, b1, f1
            b1 = hi - gr * (hi - lo)
            f1, _, _ = objective(b1)
        else:
            lo, b1, f1 = b1, b2, f2
            b2 = lo + gr * (hi - lo)
            f2, _, _ = objective(b2)
    b_ref = (lo + hi) / 2.0
    resid, a, c = objective(b_ref)
    if resid > best[0]:
        resid, a, b_ref, c = best
    return AutocorrFit(
        params=AutocorrParams(a=a, b=b_ref, c=c),
        residual=resid,
        identifiable=identifiable,
    )


@dataclass(frozen=True)
class KFactorEstimate:
    """Moment-based Rician K estimate. status is "ok", "non_rician"
    (power fluctuation heavier than Rayleigh), or "no_fading" (K -> inf)."""

    k_db: float
    status: str

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _power_samples(power_samples, least: int) -> np.ndarray:
    """The samples as a flat float array of at least ``least``, each finite and > 0."""
    p = np.asarray(power_samples, dtype=float).ravel()
    if p.size < least:
        raise ValueError(f"need {least} or more power samples, got {p.size}")
    if not (p.min() > 0.0 and p.max() < math.inf):
        raise ValueError("power samples must be finite and > 0")
    return p


def estimate_k_factor(power_samples) -> KFactorEstimate:
    """Moment-based K-factor estimate from normalized power samples.

    With m2 the sample mean and m4 the second moment of the powers, the
    linear K is sqrt(2*m2^2 - m4) / (m2 - sqrt(2*m2^2 - m4)). A negative
    radicand flags heavier-than-Rayleigh fading (K ~ 0); a nonpositive
    denominator flags vanishing fading (K -> inf).
    """
    p = _power_samples(power_samples, MIN_K_SAMPLES)
    m2 = float(np.mean(p))
    m4 = float(np.mean(p * p))
    radicand = 2.0 * m2 * m2 - m4
    if radicand <= 0.0:
        return KFactorEstimate(k_db=-math.inf, status="non_rician")
    root = math.sqrt(radicand)
    denom = m2 - root
    if denom <= 0.0:
        return KFactorEstimate(k_db=math.inf, status="no_fading")
    k = root / denom
    return KFactorEstimate(k_db=10.0 * math.log10(k), status="ok")


def _ecdf_dedup(values: np.ndarray):
    """Sorted empirical CDF with duplicate abscissae collapsed to their
    final (largest) cumulative probability."""
    order = np.sort(values)
    n = order.size
    probs = np.arange(1, n + 1) / n
    keep = np.ones(n, dtype=bool)
    keep[:-1] = order[1:] != order[:-1]
    return order[keep], probs[keep]


def empirical_power_cdf(power_samples):
    """CDF of mean-normalized powers on a dB axis.

    Returns (power_db, cum_prob) arrays: sorted 10*log10(p / mean(p))
    against cumulative probability rank/N, duplicates collapsed.
    """
    p = _power_samples(power_samples, 1)
    norm = p / np.mean(p)
    vals, probs = _ecdf_dedup(10.0 * np.log10(norm))
    return vals, probs


TRACK_HEADER_FIELDS = ("delta_x_wavelengths", "delay_bin_ns", "num_positions", "num_bins")


def write_track(track: TrackMeasurement, path) -> None:
    """Write a track file: header names, header values, then the amplitude
    grid row-major (one CSV row per track position)."""
    # plain Python numbers: the repr of a numpy scalar names its type
    values = (float(track.delta_x), float(track.delay_bin_ns), track.num_positions, track.num_bins)
    head = (",".join(TRACK_HEADER_FIELDS), "%r,%r,%r,%r" % values)
    write_rows(path, map(tuple, track.amplitudes.tolist()), head=head)


def read_track(path) -> TrackMeasurement:
    """Parse and validate a track file; raises TrackFileError naming the
    file when it cannot be read or decoded, and with line/field
    diagnostics on bad content."""
    lines = [(lineno, line) for lineno, line, _ in read_lines(path, TrackFileError, "track") if line]
    if len(lines) < 2:
        raise TrackFileError(f"{path}: expected a two-line header plus grid rows")
    (names_lineno, names_line), (values_lineno, values_line), *grid = lines
    check_header(f"{path}: line {names_lineno}", names_line, TRACK_HEADER_FIELDS, TrackFileError)
    where = f"{path}: line {values_lineno}"
    delta_x, delay_bin_ns, *counts = read_row(where, values_line, 4, TRACK_HEADER_FIELDS.__getitem__, TrackFileError)
    # a whole number is a count, which require_count accepts
    num_positions, num_bins = (int(count) if count.is_integer() else count for count in counts)
    try:
        require_grid("num_positions", num_positions, "delta_x_wavelengths", delta_x, least=2)
        require_positive("delay_bin_ns", delay_bin_ns)
        require_count("num_bins", num_bins)
    except ValueError as exc:
        raise TrackFileError(f"{where}: {exc}") from exc
    rows = [read_row(f"{path}: line {n}", line, num_bins, "bin {}".format, TrackFileError) for n, line in grid]
    if len(rows) != num_positions:
        raise TrackFileError(f"{path}: expected {num_positions} grid rows, got {len(rows)}")
    try:
        return TrackMeasurement(amplitudes=np.asarray(rows, dtype=float), delta_x=delta_x, delay_bin_ns=delay_bin_ns)
    except ValueError as exc:
        raise TrackFileError(f"{path}: invalid track: {exc}") from exc
