"""Per-subcarrier frequency responses and wideband log-det capacity.

The band is split into uniform narrowband subcarriers on a baseband grid
[-BW/2, +BW/2); the capacity integral is discretized as the uniform mean of
log2 det(I + (rho/N_t) H_f H_f^H) over those subcarriers. Monte Carlo drops
are embarrassingly parallel: every drop derives its own RNG stream from
(master_seed, drop_index), so results are identical for any worker count.
Each drop makes two block draws from its stream in a fixed layout; CIR
synthesis runs on arrays over fixed chunks of drop indices, and the linear
algebra runs batched over each chunk's groups of equal tap count. The
fading models of a campaign share each drop's draws, CIR and subcarrier
phases.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cirgen import ANGLE_OFFSETS, CirGenConfig, cir_rows, drop_layout
from .core import (
    TWO_PI,
    ArrayGeometry,
    AutocorrParams,
    ChannelImpulseResponse,
    FadingModel,
    Scenario,
    db_to_linear,
    require_count,
    require_positive,
    require_seed,
)
from .spatial import (
    _diffuse,
    _mix,
    draw_tap_noise,
    matrix_sqrt_psd,
    pipeline_corr_matrices,
)


#: SNR range in dB. The d = 2 log-det squares the linear SNR, so the top,
#: 1e30 linear, stays far from overflow.
SNR_DB_MIN, SNR_DB_MAX = -300.0, 300.0


@dataclass(frozen=True)
class CapacityConfig:
    """Wideband simulation settings; center frequency is metadata only."""

    bandwidth_hz: float = 800e6
    num_subcarriers: int = 100
    snr_db: float = 10.0
    center_frequency_hz: float = 28e9

    def __post_init__(self) -> None:
        require_positive("bandwidth_hz", self.bandwidth_hz)
        require_positive("center_frequency_hz", self.center_frequency_hz)
        if not SNR_DB_MIN <= self.snr_db <= SNR_DB_MAX:  # NaN fails
            raise ValueError(f"snr_db must lie in [{SNR_DB_MIN:g}, {SNR_DB_MAX:g}] dB, got {self.snr_db}")
        if not math.isfinite(TWO_PI * (self.bandwidth_hz / 2.0)):  # the widest subcarrier phase angle
            raise ValueError(f"bandwidth_hz must keep 2*pi*bandwidth_hz/2 finite, got {self.bandwidth_hz!r}")
        require_count("num_subcarriers", self.num_subcarriers)

    def baseband_frequencies(self) -> np.ndarray:
        """Uniform subcarrier grid over [-BW/2, +BW/2)."""
        n = self.num_subcarriers
        step = self.bandwidth_hz / n
        return -self.bandwidth_hz / 2.0 + step * np.arange(n)


@dataclass(frozen=True, eq=False)
class FrequencyResponse:
    """Channel matrices at each subcarrier: (num_subcarriers, N_r, N_t)."""

    per_subcarrier: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.per_subcarrier, dtype=complex)
        if m.ndim != 3:
            raise ValueError("per_subcarrier must be (num_subcarriers, N_r, N_t)")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("frequency response entries must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "per_subcarrier", m)

    @property
    def num_subcarriers(self) -> int:
        return self.per_subcarrier.shape[0]


def frequency_response(taps, config: CapacityConfig) -> FrequencyResponse:
    """DFT of the tapped delay line onto the subcarrier grid.

    H_f(f_n) = sum_l M_l * exp(-j*2*pi*f_n*tau_l), with tau_l the excess
    delay from the first tap. ``taps`` is a record array with one record
    per tap, as :func:`spatial.realize_taps` returns: its ``delay`` (s) and
    its 2-D tap ``matrix``, whose entries must be finite.
    """
    if len(taps) == 0:
        raise ValueError("need at least one tap")
    stack = np.ascontiguousarray(taps.matrix, dtype=complex)  # (L, N_r, N_t), unstrided from the records
    if stack.ndim != 3:
        raise ValueError("tap matrix must be 2-D")
    if not np.isfinite(stack).all():
        raise ValueError("tap matrix entries must be finite")
    return FrequencyResponse(per_subcarrier=_response(_subcarrier_phases(taps.delay, config), stack))


def wideband_capacity(fr: FrequencyResponse, config: CapacityConfig, n_t: int) -> float:
    """Mean over subcarriers of log2 det(I + (rho/N_t) H H^H), rho linear
    from config.snr_db. Uses the smaller Gram (Sylvester) for the det."""
    hf = fr.per_subcarrier
    if hf.shape[2] != n_t:
        raise ValueError(f"frequency response has N_t={hf.shape[2]}, expected {n_t}")
    return float(_capacities(_response_gram(hf[None]), config, n_t)[0])


# Packed Grams. A Hermitian d x d Gram is stored as the d*d real numbers of
# its upper triangle, row by row: row j holds G_jj, then Re G_jk and then
# Im G_jk for k > j. The kernels keep these entries on the second-to-last
# axis and the subcarriers on the last one, so every step below works on
# whole rows of (drops x subcarriers) values.


@functools.lru_cache(maxsize=16)
def _pack_index(d: int) -> np.ndarray:
    """Read-only positions of the packed entries in a complex d x d matrix
    viewed as 2*d*d floats (real and imaginary parts interleaved)."""
    flat = []
    for j in range(d):
        row = j * d + np.arange(j + 1, d)
        flat += [2 * (j * d + j), *(2 * row), *(2 * row + 1)]
    index = np.array(flat)
    index.setflags(write=False)
    return index


def _pack(z: np.ndarray) -> np.ndarray:
    """The packed upper triangles (..., d*d) of complex (..., d, d)."""
    d = z.shape[-1]
    parts = np.ascontiguousarray(z).view(float).reshape(*z.shape[:-2], 2 * d * d)
    return parts[..., _pack_index(d)]


@functools.lru_cache(maxsize=16)
def _pair_index(num_taps: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only first and second taps of the pairs l < l' of ``num_taps``
    taps, in row-major order."""
    first, second = np.triu_indices(num_taps, 1)
    first.setflags(write=False)
    second.setflags(write=False)
    return first, second


def _logdet_packed(gram: np.ndarray, scale: float) -> np.ndarray:
    """Natural log of det(I + scale * G) for packed Hermitian PSD Grams
    (..., d*d, F): shape (..., F).

    Closed forms for d = 1 and d = 2; above that, an LDL^H elimination
    without pivoting in real arithmetic on the upper triangle. It is stable
    here because I + scale * G is Hermitian positive definite, so every
    pivot is real and at least 1.
    """
    d = math.isqrt(gram.shape[-2])
    if d == 1:
        return np.log1p(scale * gram[..., 0, :])
    if d == 2:
        g00, re, im, g11 = (gram[..., e, :] for e in range(4))
        return np.log((1.0 + scale * g00) * (1.0 + scale * g11) - scale * scale * (re * re + im * im))
    # one row of m per packed entry, one column per (leading index, subcarrier)
    shape = gram.shape[:-2] + gram.shape[-1:]
    m = np.empty((d * d, *shape))
    np.multiply(np.moveaxis(gram, -2, 0), scale, out=m)
    m = m.reshape(d * d, -1)
    offsets = [j * (2 * d - j) for j in range(d)]  # where each packed row starts
    for start in offsets:
        m[start] += 1.0
    pivots = np.empty((d, m.shape[1]))
    for j, start in enumerate(offsets):
        pivots[j] = m[start]
        n = d - 1 - j
        if n == 0:
            break
        # row j is [p, x, y] with u = x + i*y; row k > j loses conj(u_k) u / p
        x = m[start + 1 : start + 1 + n]
        y = m[start + 1 + n : start + 1 + 2 * n]
        inv = 1.0 / pivots[j]
        w, v = x * inv, y * inv
        for t, k in enumerate(offsets[j + 1 :]):
            rest = n - 1 - t
            m[k : k + 1 + rest] -= w[t] * x[t:] + v[t] * y[t:]
            if rest:
                m[k + 1 + rest : k + 1 + 2 * rest] -= w[t] * y[t + 1 :] - v[t] * x[t + 1 :]
    return np.log(pivots).sum(axis=0).reshape(shape)


def _tap_phases(delays: np.ndarray, config: CapacityConfig) -> np.ndarray:
    """exp(-j*2*pi*f_n*tau_l) on the subcarrier grid for delays (..., L),
    tau_l from the first tap, over taps 1..L-1 (tap 0's phase is exactly
    1): complex, shape (..., L-1, F).

    The grid is uniform, f_n = f_0 + s*n. With n = K*a + b and
    K = ceil(sqrt(F)), each phase is a coarse factor at f_(K*a) times a
    fine one at s*b (:func:`_phase_grids`), so a tap takes a cosine and a
    sine of K + ceil(F/K) angles instead of F.
    """
    grid, fine_count = _phase_grids(config)
    theta = (delays[..., 1:, None] - delays[..., :1, None]) * grid
    phasors = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=phasors.real)
    np.sin(theta, out=phasors.imag)
    phases = phasors[..., :-fine_count, None] * phasors[..., None, -fine_count:]
    *lead, coarse_count, _ = phases.shape
    return phases.reshape(*lead, coarse_count * fine_count)[..., : config.num_subcarriers]


def _subcarrier_phases(delays: np.ndarray, config: CapacityConfig) -> np.ndarray:
    """exp(-j*2*pi*f*tau_l) for delays (..., L), tau_l from the first tap:
    shape (..., F, L). Tap 0's phase is exactly 1."""
    phases = _tap_phases(delays, config)
    out = np.empty(phases.shape[:-2] + phases.shape[-1:] + delays.shape[-1:], dtype=complex)
    out[..., 0] = 1.0
    out[..., 1:] = phases.swapaxes(-1, -2)
    return out


@functools.lru_cache(maxsize=16)
def _phase_grids(config: CapacityConfig) -> tuple[np.ndarray, int]:
    """-2*pi times the coarse frequencies f_(K*a) and then the fine offsets
    s*b of the subcarrier grid, read-only, and K = ceil(sqrt(F))."""
    num_f = config.num_subcarriers
    fine_count = math.isqrt(num_f - 1) + 1
    coarse = config.baseband_frequencies()[::fine_count]
    fine = (config.bandwidth_hz / num_f) * np.arange(fine_count)
    grid = (-TWO_PI) * np.concatenate([coarse, fine])
    grid.setflags(write=False)
    return grid, fine_count


def _response(phases: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """H_f = sum_l phases[f, l] M_l: phases (..., F, L) and taps
    (..., L, N_r, N_t) give (..., F, N_r, N_t)."""
    *lead, num_taps, n_r, n_t = taps.shape
    flat = phases @ taps.reshape(*lead, num_taps, n_r * n_t)
    return flat.reshape(*lead, phases.shape[-2], n_r, n_t)


def _response_gram(hf: np.ndarray) -> np.ndarray:
    """Packed per-subcarrier Grams (B, d*d, F) of the smaller side, H^H H
    or, when N_t > N_r, the conjugate of H H^H (Sylvester: the same
    determinant), for hf of shape (B, F, N_r, N_t)."""
    if hf.shape[-1] > hf.shape[-2]:
        hf = hf.swapaxes(-1, -2)
    return _pack(hf.conj().swapaxes(-1, -2) @ hf).swapaxes(1, 2)


def _cross_gram(taps: np.ndarray, pair_phases: np.ndarray) -> np.ndarray:
    """Packed Grams (B, d*d, F) of :func:`_response_gram` without the
    response, from taps (B, L, N_r, N_t) and the pair phases of their
    delays (:func:`_pair_phases`): the pair coefficients of
    :func:`_pair_coefficients` times the pair phases, as one real product
    per drop."""
    return _pair_coefficients(taps).swapaxes(1, 2) @ pair_phases


def _pair_coefficients(taps: np.ndarray) -> np.ndarray:
    """Packed coefficients (B, L(L-1) + 2, d*d) of the Gram of taps
    (B, L, N_r, N_t) in the real and imaginary parts of the pair phases of
    :func:`_pair_phases`.

    With the cross-Grams C_ll' = M_l^H M_l', the Gram at a subcarrier is
    G = sum_l C_ll + A + A^H with A = sum_{l<l'} p_ll' C_ll', where
    p_ll' = conj(phi_l) phi_l' = a + i b. Each pair thus adds
    a (C_ll' + C_ll'^H) + b i (C_ll' - C_ll'^H), and sum_l C_ll is the
    coefficient of the real part of the column of ones (its imaginary
    part, 0, gets 0). When N_t > N_r the taps are transposed first: that
    gives the conjugate of H H^H, which has the same determinant.
    """
    if taps.shape[-1] > taps.shape[-2]:
        taps = taps.swapaxes(-1, -2)
    batch, num_taps, rows, d = taps.shape
    side_by_side = taps.transpose(0, 2, 1, 3).reshape(batch, rows, num_taps * d)
    cross = side_by_side.conj().swapaxes(-1, -2) @ side_by_side  # (B, L*d, L*d)
    # block (l, l') of each drop at l * L + l', contiguous: (B, L*L, d, d)
    cross = cross.reshape(batch, num_taps, d, num_taps, d).swapaxes(2, 3).reshape(batch, -1, d, d)
    first, second = _pair_index(num_taps)
    pairs = cross.take(first * num_taps + second, axis=1)  # (B, P, d, d)
    pairs_h = pairs.conj().swapaxes(-1, -2)
    differences = pairs - pairs_h
    differences *= 1j
    # laid out entries x drops x rows, so that each drop's (d*d, rows) slice
    # in _cross_gram's product is row-major: BLAS rounds other layouts
    # differently
    out = np.empty((d * d, batch, first.size + 1, 2))
    out[:, :, 0, 0] = _pack(np.sum(cross[:, np.arange(num_taps) * (num_taps + 1)], axis=1)).T
    out[:, :, 0, 1] = 0.0
    out[:, :, 1:, 0] = _pack(pairs + pairs_h).transpose(2, 0, 1)
    out[:, :, 1:, 1] = _pack(differences).transpose(2, 0, 1)
    return out.transpose(1, 2, 3, 0).reshape(batch, -1, d * d)


def _pair_phases(phases: np.ndarray) -> np.ndarray:
    """For the phases phi_l (B, L-1, F) of taps 1..L-1 (:func:`_tap_phases`):
    a row of ones and a row of zeros, then the real and imaginary parts of
    p_ll' = conj(phi_l) phi_l' for each of the L(L-1)/2 tap pairs l < l' in
    row-major order: shape (B, L(L-1) + 2, F). Pair (0, l) is phi_l itself,
    so only the pairs of taps 1..L-1 take a product, one broadcast product
    per first tap."""
    batch, m, num_f = phases.shape
    pairs = np.empty((batch, m * (m - 1) // 2, num_f), dtype=complex)
    conj = np.conj(phases[:, :-1])
    row = 0
    for tap in range(m - 1):
        rows = slice(row, row + m - 1 - tap)
        np.multiply(conj[:, tap, None], phases[:, tap + 1 :], out=pairs[:, rows])
        row = rows.stop
    out = np.empty((batch, 1 + m + pairs.shape[1], 2, num_f))
    out[:, 0, 0] = 1.0
    out[:, 0, 1] = 0.0
    for rows, z in ((slice(1, m + 1), phases), (slice(m + 1, None), pairs)):
        np.copyto(out[:, rows], z.view(float).reshape(*z.shape, 2).swapaxes(-1, -2))
    return out.reshape(batch, -1, num_f)


def _capacities(gram: np.ndarray, config: CapacityConfig, n_t: int) -> np.ndarray:
    """Wideband capacities in bits/s/Hz from packed per-subcarrier Grams
    (..., d*d, F): subcarrier mean of the log-det, floored at 0.

    Grams of one column are those of a flat channel, the same at each of
    the config's F subcarriers: the mean runs over F copies of their
    log-det, which numpy sums in the order of F equal columns, so the
    capacity is that of the F-column Grams bit for bit."""
    logdet = _logdet_packed(gram, db_to_linear(config.snr_db) / n_t)
    if logdet.shape[-1] == 1:
        logdet = np.broadcast_to(logdet, (*logdet.shape[:-1], config.num_subcarriers))
    return np.maximum(np.mean(logdet, axis=-1) / math.log(2.0), 0.0)


#: Drops per chunk. Chunk c holds drops [c * CHUNK_DROPS, (c + 1) * CHUNK_DROPS),
#: so chunk boundaries depend on the drop index alone, never on the number
#: of drops or workers.
CHUNK_DROPS = 1024
#: Bytes of temporaries one batch of drops may allocate; a group of drops
#: with equal tap counts is cut into batches under this budget.
BATCH_BYTES = 2 << 20
#: Most bytes one chunk's draws and temporaries may take (:func:`chunk_bytes`).
CHUNK_BYTES_MAX = 1 << 28
#: One record of :func:`run_monte_carlo`'s result per drop.
RESULT_DTYPE = np.dtype([("drop_index", np.int64), ("seed", np.uint64), ("capacity", np.float64)])


class _Campaign(NamedTuple):
    """Everything a chunk of drops needs besides its drop indices."""

    gen_config: CirGenConfig
    rr_sqrt: np.ndarray
    rt_sqrt: np.ndarray
    fadings: tuple[FadingModel, ...]  # every drop runs under each, in this order
    cap_config: CapacityConfig
    master_seed: int
    shared_cir: tuple[np.ndarray, np.ndarray] | None  # (delays, powers)


def _uses_cross_gram(num_taps: int, n_r: int, n_t: int) -> bool:
    """Whether a drop's Gram comes from its tap cross-Grams. Per subcarrier
    that route costs L(L-1) pair phases and their product with d*d
    coefficients, d = min(N_r, N_t); the response route costs
    L*d*max(N_r, N_t) products plus one small matrix product. Measured per
    drop in the engine's batches (arrays from 1x4 to 64x4, 100
    subcarriers), the two cost the same near L(L-1) = 64 + N_r*N_t/3."""
    return 3 * num_taps * (num_taps - 1) <= 192 + n_r * n_t


def _drop_bytes(num_taps: int, n_r: int, n_t: int, num_subcarriers: int) -> int:
    """Bytes one drop adds to a batch at its peak: the largest of the
    stages, each counting what is alive then, plus a quarter for what the
    count leaves out. The batch first makes the phases of its Gram route:
    the coarse and fine angles and phasors of each tap and, per subcarrier,
    the phases of taps 1..L-1 and then those of all taps (response route),
    or the tap phases, their conjugates, the pair products (complex) and
    the real and imaginary parts of all pair phases (cross route). A
    one-tap drop makes no phases and takes its Gram and log-det at one
    subcarrier, so it is counted at F = 1. The route's phases stay alive
    while each fading model in turn runs its stages, and so do the shared
    diffuse parts H0 of the taps (complex, of the tap matrices' size),
    their amplitudes and their dominant phasors (complex). Making H0 holds
    up to eight complex arrays of the tap matrices' size; mixing a model's
    taps from it holds fewer. The cross route holds the tap matrices and,
    while forming the coefficients, four copies of them, the cross-Grams,
    the pair terms and the packed coefficients (the second copy of the
    cross-Grams, while they are regrouped, is outweighed by the pair terms
    that come after it); then the coefficients and, per subcarrier, the
    Gram. The response route holds the tap matrices and, per subcarrier,
    the response, its conjugate, the Gram and the packed Gram (all complex
    but the last). The log-det holds per subcarrier the packed Gram, its
    copy and a few rows of d values."""
    rows, d = max(n_r, n_t), min(n_r, n_t)
    f = 1 if num_taps == 1 else num_subcarriers
    taps = 2 * num_taps * rows * d  # counted in floats
    shared = taps + 3 * num_taps
    angles = 6 * num_taps * (math.isqrt(4 * f) + 2)
    logdet = f * (3 * d * d + 3 * d)
    if _uses_cross_gram(num_taps, n_r, n_t):
        pairs = num_taps * (num_taps - 1) // 2
        coefficients = 2 * (pairs + 1) * d * d
        phases = 2 * f * (pairs + 1)
        making = angles + f * (4 * pairs + 2 * num_taps)
        gram = max(
            4 * taps + 2 * (num_taps * d) ** 2 + 2 * num_taps * d * d + 6 * pairs * d * d + 3 * coefficients,
            coefficients + f * d * d,
            logdet,
        )
    else:
        phases = 2 * f * num_taps
        making = angles + 4 * num_taps * f
        gram = max(f * (4 * rows * d + 3 * d * d), logdet)
    return 8 * max(making, phases + max(8 * taps, shared + taps + gram)) * 5 // 4


def batch_bytes(num_taps: int, n_r: int, n_t: int, num_subcarriers: int) -> int:
    """Peak bytes of a batch of drops of ``num_taps`` taps: ``BATCH_BYTES``, or one drop with its normals if more."""
    one_drop = _drop_bytes(num_taps, n_r, n_t, num_subcarriers) + 8 * num_taps * (ANGLE_OFFSETS + 2 * n_r * n_t)
    return max(BATCH_BYTES, one_drop)


def chunk_bytes(gen_config: CirGenConfig, n_r: int, n_t: int, num_subcarriers: int) -> int:
    """An upper estimate of the bytes a chunk of ``CHUNK_DROPS`` drops that
    draw their CIRs holds at its peak, from the config's maxima and by
    arithmetic alone, so that it can size configs too large to run: the
    uniform blocks and CIR rows (at most ten floats per cluster-path slot
    besides the block), then one batch of drops of the most taps."""
    slots = gen_config.num_clusters_range[1] * gen_config.paths_per_cluster_range[1]
    rows = 8 * CHUNK_DROPS * (drop_layout(gen_config).width + 10 * slots)
    return rows + batch_bytes(slots, n_r, n_t, num_subcarriers)


def _batch_drops(num_taps: int, n_r: int, n_t: int, num_subcarriers: int) -> int:
    """Drops of L = ``num_taps`` taps per batch: as many as ``BATCH_BYTES``
    holds, and at least one."""
    return max(1, BATCH_BYTES // _drop_bytes(num_taps, n_r, n_t, num_subcarriers))


def _batch_capacities(delays, powers, white, psi, campaign: _Campaign) -> np.ndarray:
    """Capacities (models, B) of drops that all have the same tap count L,
    under each fading model of the campaign: delays and powers (B, L), white
    tap draws (B, L, 2, N_r, N_t) and dominant phases (B, L).

    What does not depend on the model is made once and shared by every
    model: the phases of the batch's Gram route, which depend on the delays
    alone, the diffuse parts H0 = R_r^(1/2) G R_t^(1/2) of the taps, their
    amplitudes sqrt(p) and the dominant phasors e^(j*psi). Each model then
    only mixes its taps from them (:func:`spatial.tap_matrices`' steps). A
    one-tap drop is flat, since tap 0's phase is exactly 1: its Gram is the
    first row of its pair coefficients at every subcarrier, so it takes one
    column, and :func:`_capacities` stands it for all F."""
    cap_config = campaign.cap_config
    num_taps = delays.shape[1]
    n_r, n_t = white.shape[-2:]
    cross = _uses_cross_gram(num_taps, n_r, n_t)
    if num_taps == 1:
        phases = None
    elif cross:
        phases = _pair_phases(_tap_phases(delays, cap_config))
    else:
        phases = _subcarrier_phases(delays, cap_config)
    diffuse = _diffuse(white, campaign.rr_sqrt, campaign.rt_sqrt)
    amplitudes = np.sqrt(powers)
    phasors = np.exp(1j * psi)
    out = np.empty((len(campaign.fadings), len(delays)))
    for caps, fading in zip(out, campaign.fadings):
        taps = _mix(diffuse, phasors, amplitudes, fading)
        if phases is None:
            gram = _pair_coefficients(taps)[:, :1].swapaxes(1, 2)
        elif cross:
            gram = _cross_gram(taps, phases)
        else:
            gram = _response_gram(_response(phases, taps))
        caps[:] = _capacities(gram, cap_config, n_t)
        del taps, gram  # before the next model makes its own
    return out


def _drop_batches(campaign: _Campaign, rngs):
    """The draws of a chunk's drops, one batch of drops with equal tap count
    L at a time: (positions in the chunk, delays and powers (B, L), white
    draws (B, L, 2, N_r, N_t), dominant phases (B, L)). They do not depend
    on the campaign's fading models, which all use them. A
    group of drops with equal L is cut into batches under ``BATCH_BYTES``,
    and a batch's normal draws are made when it comes up, so a chunk holds
    its streams, its uniform block and one batch.

    Each drop reads its own stream in a fixed layout of two draws. A drop
    that draws its CIR takes its uniform block (:func:`cirgen.drop_layout`),
    which holds the dominant phases of its taps too, then one normal block:
    the angle offsets of its components, which only
    :func:`generate_initial_cir` reads, then the white draws of its taps.
    The CIRs of the chunk come from one :func:`cir_rows` call. A drop with a
    fixed CIR draws through :func:`spatial.draw_tap_noise`.
    """
    n_r, n_t = campaign.rr_sqrt.shape[0], campaign.rt_sqrt.shape[1]
    num_f = campaign.cap_config.num_subcarriers
    if campaign.shared_cir is not None:
        delays, powers = campaign.shared_cir
        step = _batch_drops(len(delays), n_r, n_t, num_f)
        for start in range(0, len(rngs), step):
            batch = rngs[start : start + step]
            white, psi = map(np.stack, zip(*(draw_tap_noise(rng, len(delays), n_r, n_t) for rng in batch)))
            yield (np.arange(start, start + len(batch)), np.broadcast_to(delays, psi.shape),
                   np.broadcast_to(powers, psi.shape), white, psi)
        return
    layout = drop_layout(campaign.gen_config)
    u = np.empty((len(rngs), layout.width))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    rows = cir_rows(campaign.gen_config, u)
    num_taps = rows.valid.sum(axis=1)
    # the tap counts present, ascending (np.unique would import numpy.ma)
    for group_taps in np.flatnonzero(np.bincount(num_taps)).tolist():
        group = np.flatnonzero(num_taps == group_taps)
        taps = rows.valid[group]
        delays = rows.delays[group][taps].reshape(group.size, group_taps)
        powers = rows.powers[group][taps].reshape(group.size, group_taps)
        psi = TWO_PI * u[group, layout.psi][:, :group_taps]
        step = _batch_drops(group_taps, n_r, n_t, num_f)
        for s in range(0, group.size, step):
            part = slice(s, s + step)
            members = group[part]
            normals = np.empty((members.size, group_taps * (ANGLE_OFFSETS + 2 * n_r * n_t)))
            for i, row in zip(members.tolist(), normals):
                rngs[i].standard_normal(out=row)
            white = normals[:, group_taps * ANGLE_OFFSETS :].reshape(members.size, group_taps, 2, n_r, n_t)
            yield members, delays[part], powers[part], white, psi[part]


def _simulate_chunk(task) -> np.ndarray:
    """Drops [start, stop) of a campaign, which must not cross a chunk
    boundary, as ``RESULT_DTYPE`` records of shape (models, drops): one row
    per fading model of the campaign.

    Each drop draws from its own stream (:func:`_drop_batches`), once for
    all the models, so its records depend only on the campaign and its
    index. The math runs per batch of drops with equal tap counts.
    """
    from .seeding import drop_streams  # imports numpy.random

    campaign, start, stop = task
    rngs, seeds = drop_streams(campaign.master_seed, start, stop)
    result = np.empty((len(campaign.fadings), stop - start), dtype=RESULT_DTYPE)
    result["drop_index"] = np.arange(start, stop)
    result["seed"] = seeds
    caps = result["capacity"]
    for members, delays, powers, white, psi in _drop_batches(campaign, rngs):
        if delays.shape[1] == 0:  # tap counts come in ascending order, so before any math
            raise ValueError(f"drop {start + members[0]} has no tap: the power of each of its paths underflows to 0")
        caps[:, members] = _batch_capacities(delays, powers, white, psi, campaign)
    if not np.all(np.isfinite(caps)):
        raise ValueError(f"non-finite capacity in drops {start}..{stop - 1}")
    return result


def run_monte_carlo(
    scenario: Scenario,
    gen_config: CirGenConfig,
    rx_geometry: ArrayGeometry,
    tx_geometry: ArrayGeometry,
    fading: FadingModel,
    cap_config: CapacityConfig,
    num_drops: int,
    master_seed: int,
    autocorr_params: AutocorrParams,
    initial_cir: ChannelImpulseResponse | None = None,
    num_workers: int = 1,
    *,
    more_fading: tuple[FadingModel, ...] = (),
) -> np.recarray:
    """Monte Carlo capacity campaign: one ``RESULT_DTYPE`` record per drop
    and fading model, with fields ``drop_index``, ``seed`` (the first word
    of the drop's stream state) and ``capacity`` in bits/s/Hz. The records
    of ``fading`` come first, in drop order, then those of each model of
    ``more_fading`` in turn, each block again in drop order.

    Each drop draws its own initial CIR, or reuses ``initial_cir`` when one
    is given (e.g. an imported or a shared one); the drop then realizes
    spatially correlated local-area taps and evaluates the wideband
    capacity. All the models share each drop's stream, draws, CIR and
    subcarrier phases, which are made once per run. ``scenario`` names the
    campaign and does not enter its numbers. Drop i under a model depends
    only on the arguments that are not fading models, that model,
    ``master_seed`` and i: records are identical for any ``num_workers``
    and any other models in the run, and a longer run starts with the drops
    of a shorter one.
    """
    require_count("num_drops", num_drops)
    require_count("num_workers", num_workers)
    require_seed("master_seed", master_seed)
    # The amplitude-matched pipeline matrices are deterministic; hoist them.
    rr, rt = pipeline_corr_matrices(autocorr_params, rx_geometry, tx_geometry)
    campaign = _Campaign(
        gen_config=gen_config,
        rr_sqrt=matrix_sqrt_psd(rr),
        rt_sqrt=matrix_sqrt_psd(rt),
        fadings=(fading, *more_fading),
        cap_config=cap_config,
        master_seed=master_seed,
        shared_cir=None if initial_cir is None else (initial_cir.delays, initial_cir.powers),
    )

    tasks = [
        (campaign, start, min(start + CHUNK_DROPS, num_drops))
        for start in range(0, num_drops, CHUNK_DROPS)
    ]
    if num_workers == 1 or len(tasks) == 1:
        chunks = list(map(_simulate_chunk, tasks))
    else:
        from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing

        with ProcessPoolExecutor(max_workers=min(num_workers, len(tasks))) as pool:
            chunks = list(pool.map(_simulate_chunk, tasks))
    return np.concatenate(chunks, axis=1).ravel().view(np.recarray)


def _checked_capacities(capacities) -> np.ndarray:
    """``capacities`` as a float array of at least one finite value."""
    caps = np.asarray(capacities, dtype=float)
    if caps.size < 1:
        raise ValueError("need at least one capacity sample")
    if not np.all(np.isfinite(caps)):
        raise ValueError("capacities must be finite")
    return caps


def capacity_cdf(capacities):
    """Empirical CDF of capacities (e.g. the ``capacity`` column of
    :func:`run_monte_carlo`'s result): sorted (capacity, rank/N) arrays."""
    caps = _checked_capacities(capacities)
    order = np.sort(caps)
    probs = np.arange(1, caps.size + 1) / caps.size
    return order, probs


def capacity_quantiles(capacities, qs=(0.1, 0.5, 0.9)):
    """Selected quantiles of capacities by linear interpolation, equal bit
    for bit to ``np.quantile`` (which would import numpy.ma) unless the
    capacities hold -0.0, which the engine's floor at 0 never gives.

    Quantile q sits at the virtual index h = (N - 1) q of the sorted
    values. Between neighbours a and b, with t = h - floor(h), it is
    a + (b - a) t, or b - (b - a)(1 - t) when t >= 0.5; from h = N - 1 on,
    it is the last value.
    """
    caps = np.sort(_checked_capacities(capacities), axis=None).tolist()
    last = len(caps) - 1
    out = {}
    for q in qs:
        if not 0 <= q <= 1:
            raise ValueError(f"quantiles must lie in [0, 1], got {q!r}")
        h = last * q
        if h >= last:
            out[q] = caps[-1]
        else:
            below = math.floor(h)
            a, b = caps[below], caps[below + 1]
            t = h - below
            out[q] = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    return out
