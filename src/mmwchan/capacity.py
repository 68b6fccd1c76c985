"""Per-subcarrier frequency responses and wideband log-det capacity.

The band is split into uniform narrowband subcarriers on a baseband grid
[-BW/2, +BW/2); the capacity integral is discretized as the uniform mean of
log2 det(I + (rho/N_t) H_f H_f^H) over those subcarriers. Monte Carlo drops
are embarrassingly parallel: every drop derives its own RNG stream from
(master_seed, drop_index), so results are identical for any worker count.
Each drop makes two block draws from its stream in a fixed layout; CIR
synthesis runs on arrays over fixed chunks of drop indices, and the linear
algebra runs batched over each chunk's groups of equal tap count.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ProcessPoolExecutor
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
    require_seed,
)
from .spatial import (
    draw_tap_noise,
    matrix_sqrt_psd,
    pipeline_corr_matrices,
    tap_matrices,
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
        for name in ("bandwidth_hz", "snr_db", "center_frequency_hz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not SNR_DB_MIN <= self.snr_db <= SNR_DB_MAX:
            raise ValueError(f"snr_db must lie in [{SNR_DB_MIN:g}, {SNR_DB_MAX:g}] dB, got {self.snr_db}")
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be > 0")
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
    delay from the first tap.
    """
    taps = list(taps)
    if not taps:
        raise ValueError("need at least one tap")
    delays = np.array([t.delay for t in taps])
    stack = np.stack([t.matrix for t in taps])  # (L, N_r, N_t)
    return FrequencyResponse(per_subcarrier=_response(_subcarrier_phases(delays, config), stack))


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


def _cross_gram(delays: np.ndarray, taps: np.ndarray, config: CapacityConfig) -> np.ndarray:
    """Packed Grams (B, d*d, F) of :func:`_response_gram` without the
    response, from taps (B, L, N_r, N_t) and delays (B, L): the pair
    coefficients of :func:`_pair_coefficients` times the pair phases of
    :func:`_pair_phases`, as one real product per drop."""
    coefficients = _pair_coefficients(taps).swapaxes(1, 2)
    return coefficients @ _pair_phases(_tap_phases(delays, config))


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
    cross = cross.reshape(batch, num_taps, d, num_taps, d).swapaxes(2, 3)
    first, second = _pair_index(num_taps)
    pairs = cross[:, first, second]  # (B, P, d, d)
    pairs_h = pairs.conj().swapaxes(-1, -2)
    z = np.empty((batch, first.size + 1, 2, d, d), dtype=complex)
    diagonal = np.arange(num_taps)
    np.sum(cross[:, diagonal, diagonal], axis=1, out=z[:, 0, 0])
    z[:, 0, 1] = 0.0
    np.add(pairs, pairs_h, out=z[:, 1:, 0])
    np.subtract(pairs, pairs_h, out=z[:, 1:, 1])
    z[:, 1:, 1] *= 1j
    return _pack(z).reshape(batch, -1, d * d)


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
    (..., d*d, F): subcarrier mean of the log-det, floored at 0."""
    logdet = _logdet_packed(gram, db_to_linear(config.snr_db) / n_t)
    return np.maximum(np.mean(logdet, axis=-1) / math.log(2.0), 0.0)


#: Drops per chunk. Chunk c holds drops [c * CHUNK_DROPS, (c + 1) * CHUNK_DROPS),
#: so chunk boundaries depend on the drop index alone, never on the number
#: of drops or workers.
CHUNK_DROPS = 256
#: Bytes of temporaries one batch of drops may allocate; a group of drops
#: with equal tap counts is cut into batches under this budget.
BATCH_BYTES = 1 << 20
#: One record of :func:`run_monte_carlo`'s result per drop.
RESULT_DTYPE = np.dtype([("drop_index", np.int64), ("seed", np.uint64), ("capacity", np.float64)])


class _Campaign(NamedTuple):
    """Everything a chunk of drops needs besides its drop indices."""

    gen_config: CirGenConfig
    rr_sqrt: np.ndarray
    rt_sqrt: np.ndarray
    fading: FadingModel
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
    count leaves out. Making the tap matrices holds up to eight complex
    arrays of their size. The cross route holds the tap matrices and, while
    forming the coefficients, four copies of them, the cross-Grams, the
    pair terms and the packed coefficients; then, per subcarrier, the tap
    phases, their conjugates and the pair products (complex), the real and
    imaginary parts of all pair phases and the Gram. The response route
    holds the tap matrices and, per subcarrier, first the phases of taps
    1..L-1 and of all taps, then the phases of all taps and the response,
    then the response, its conjugate, the Gram and the packed Gram (all
    complex but the last). The log-det holds per subcarrier the packed
    Gram, its copy and a few rows of d values. Both routes also hold the
    coarse and fine angles and phasors of each tap."""
    rows, d, f = max(n_r, n_t), min(n_r, n_t), num_subcarriers
    taps = 2 * num_taps * rows * d  # counted in floats
    angles = 6 * num_taps * (math.isqrt(4 * f) + 2)
    if _uses_cross_gram(num_taps, n_r, n_t):
        pairs = num_taps * (num_taps - 1) // 2
        coefficients = 2 * (pairs + 1) * d * d
        gram = max(
            4 * taps + 2 * (num_taps * d) ** 2 + 2 * num_taps * d * d + 6 * pairs * d * d + 3 * coefficients,
            coefficients + angles + f * (4 * pairs + 2 * num_taps + d * d),
        )
    else:
        gram = max(angles + 4 * num_taps * f, f * (2 * num_taps + 2 * rows * d), f * (4 * rows * d + 3 * d * d))
    return 8 * max(8 * taps, taps + gram, f * (3 * d * d + 3 * d)) * 5 // 4


def _batch_capacities(delays, powers, white, psi, campaign: _Campaign) -> np.ndarray:
    """Capacities of drops that all have the same tap count L: delays and
    powers (B, L), white tap draws (B, L, 2, N_r, N_t) and dominant phases
    (B, L), or None for Rayleigh."""
    taps = tap_matrices(white, psi, powers, campaign.rr_sqrt, campaign.rt_sqrt, campaign.fading)
    cap_config = campaign.cap_config
    n_r, n_t = taps.shape[-2:]
    if _uses_cross_gram(delays.shape[1], n_r, n_t):
        gram = _cross_gram(delays, taps, cap_config)
    else:
        gram = _response_gram(_response(_subcarrier_phases(delays, cap_config), taps))
    return _capacities(gram, cap_config, n_t)


def _drop_draws(campaign: _Campaign, rngs):
    """The draws of a chunk's drops, one group of drops with equal tap
    count L at a time: (positions in the chunk, delays and powers (B, L),
    white draws (B, L, 2, N_r, N_t), dominant phases (B, L) or None for
    Rayleigh).

    Each drop reads its own stream in a fixed layout of two draws. A drop
    that draws its CIR takes its uniform block (:func:`cirgen.drop_layout`),
    which holds the dominant phases of its taps too, then one normal block:
    the angle offsets of its components, which only
    :func:`generate_initial_cir` reads, then the white draws of its taps.
    The CIRs of the chunk come from one :func:`cir_rows` call. A drop with a
    fixed CIR draws through :func:`spatial.draw_tap_noise`.
    """
    n_r, n_t = campaign.rr_sqrt.shape[0], campaign.rt_sqrt.shape[1]
    rician = campaign.fading.is_rician
    if campaign.shared_cir is not None:
        delays, powers = campaign.shared_cir
        white, psi = zip(*(draw_tap_noise(rng, len(delays), n_r, n_t, rician) for rng in rngs))
        shape = (len(rngs), len(delays))
        yield (np.arange(len(rngs)), np.broadcast_to(delays, shape), np.broadcast_to(powers, shape),
               np.stack(white), np.stack(psi) if rician else None)
        return
    layout = drop_layout(campaign.gen_config)
    u = np.empty((len(rngs), layout.width))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    rows = cir_rows(campaign.gen_config, u)
    num_taps = rows.valid.sum(axis=1)
    for group_taps in np.unique(num_taps).tolist():
        members = np.flatnonzero(num_taps == group_taps)
        normals = np.empty((members.size, group_taps * (ANGLE_OFFSETS + 2 * n_r * n_t)))
        for i, row in zip(members.tolist(), normals):
            rngs[i].standard_normal(out=row)
        taps = rows.valid[members]
        yield (
            members,
            rows.delays[members][taps].reshape(members.size, group_taps),
            rows.powers[members][taps].reshape(members.size, group_taps),
            normals[:, group_taps * ANGLE_OFFSETS :].reshape(members.size, group_taps, 2, n_r, n_t),
            TWO_PI * u[members, layout.psi][:, :group_taps] if rician else None,
        )


def _simulate_chunk(task) -> np.ndarray:
    """Drops [start, stop) of a campaign, which must not cross a chunk
    boundary, as ``RESULT_DTYPE`` records.

    Each drop draws from its own stream (:func:`_drop_draws`), so its
    record depends only on the campaign and its index. The math runs per
    group of drops with equal tap counts, in batches under
    ``BATCH_BYTES``.
    """
    from .seeding import drop_streams  # imports numpy.random

    campaign, start, stop = task
    n_r, n_t = campaign.rr_sqrt.shape[0], campaign.rt_sqrt.shape[1]
    rngs, seeds = drop_streams(campaign.master_seed, start, stop)
    result = np.empty(stop - start, dtype=RESULT_DTYPE)
    result["drop_index"] = np.arange(start, stop)
    result["seed"] = seeds
    caps = result["capacity"]
    num_f = campaign.cap_config.num_subcarriers
    for members, delays, powers, white, psi in _drop_draws(campaign, rngs):
        step = max(1, BATCH_BYTES // _drop_bytes(delays.shape[1], n_r, n_t, num_f))
        for s in range(0, members.size, step):
            part = slice(s, s + step)
            caps[members[part]] = _batch_capacities(
                delays[part], powers[part], white[part], None if psi is None else psi[part], campaign
            )
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
) -> np.recarray:
    """Monte Carlo capacity campaign: one ``RESULT_DTYPE`` record per drop,
    in drop order, with fields ``drop_index``, ``seed`` (the first word of
    the drop's stream state) and ``capacity`` in bits/s/Hz.

    Each drop draws its own initial CIR, or reuses ``initial_cir`` when one
    is given (e.g. an imported or a shared one); the drop then realizes
    spatially correlated local-area taps and evaluates the wideband
    capacity. ``scenario`` names the campaign and does not enter its
    numbers. Drop i depends only on the arguments, ``master_seed`` and i:
    results are identical for any ``num_workers``, and a longer run starts
    with the drops of a shorter one.
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
        fading=fading,
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
        with ProcessPoolExecutor(max_workers=min(num_workers, len(tasks))) as pool:
            chunks = list(pool.map(_simulate_chunk, tasks))
    return np.concatenate(chunks).view(np.recarray)


def capacity_cdf(capacities):
    """Empirical CDF of capacities (e.g. the ``capacity`` column of
    :func:`run_monte_carlo`'s result): sorted (capacity, rank/N) arrays."""
    caps = np.asarray(capacities, dtype=float)
    if caps.size < 1:
        raise ValueError("need at least one capacity sample")
    order = np.sort(caps)
    probs = np.arange(1, caps.size + 1) / caps.size
    return order, probs


def capacity_quantiles(capacities, qs=(0.1, 0.5, 0.9)):
    """Selected quantiles of capacities (linear interpolation)."""
    caps = np.asarray(capacities, dtype=float)
    return {q: float(np.quantile(caps, q)) for q in qs}
