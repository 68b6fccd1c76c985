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
)
from .spatial import (
    draw_tap_noise,
    matrix_sqrt_psd,
    pipeline_corr_matrices,
    tap_matrices,
)


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
        if not self.bandwidth_hz > 0:
            raise ValueError("bandwidth_hz must be > 0")
        if self.num_subcarriers < 1:
            raise ValueError("num_subcarriers must be >= 1")

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


@dataclass(frozen=True)
class CapacitySample:
    """One Monte Carlo drop's wideband capacity in bits/s/Hz."""

    capacity: float
    drop_index: int
    seed: int

    def __post_init__(self) -> None:
        if not self.capacity >= 0:
            raise ValueError(f"capacity must be >= 0, got {self.capacity}")


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
    phases = _subcarrier_phases(delays, config.baseband_frequencies())
    return FrequencyResponse(per_subcarrier=_response(phases, stack))


def wideband_capacity(fr: FrequencyResponse, config: CapacityConfig, n_t: int) -> float:
    """Mean over subcarriers of log2 det(I + (rho/N_t) H H^H), rho linear
    from config.snr_db. Uses the smaller Gram (Sylvester) for the det."""
    hf = fr.per_subcarrier
    if hf.shape[2] != n_t:
        raise ValueError(f"frequency response has N_t={hf.shape[2]}, expected {n_t}")
    return float(_capacities(_response_gram(hf), config, n_t))


def logdet_eye_plus(gram: np.ndarray, scale: float) -> np.ndarray:
    """Natural log of det(I + scale * G) for Hermitian PSD Grams G of shape
    (..., d, d), over the leading axes.

    Closed forms for d = 1 and d = 2; above that, Gaussian elimination
    without pivoting, run on all matrices at once. It is stable here
    because I + scale * G is Hermitian positive definite, and every pivot
    is at least 1.
    """
    d = gram.shape[-1]
    if d == 1:
        return np.log1p(scale * gram[..., 0, 0].real)
    if d == 2:
        c = gram[..., 0, 1]
        det = (1.0 + scale * gram[..., 0, 0].real) * (1.0 + scale * gram[..., 1, 1].real) - scale * scale * (
            c.real * c.real + c.imag * c.imag
        )
        return np.log(det)
    m = scale * gram
    m.reshape(*m.shape[:-2], d * d)[..., :: d + 1] += 1.0
    pivots = np.empty(m.shape[:-1])
    for j in range(d):
        pivots[..., j] = m[..., j, j].real
        if j + 1 < d:
            col = m[..., j + 1 :, j] / pivots[..., j, None]
            m[..., j + 1 :, j + 1 :] -= col[..., :, None] * m[..., None, j, j + 1 :]
    return np.log(pivots).sum(axis=-1)


def _subcarrier_phases(delays: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """exp(-j*2*pi*f*tau_l) for delays (..., L), tau_l from the first tap:
    shape (..., F, L)."""
    theta = (-2.0 * np.pi) * (freqs[:, None] * (delays - delays[..., :1])[..., None, :])
    out = np.empty(theta.shape, dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _response(phases: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """H_f = sum_l phases[f, l] M_l: phases (..., F, L) and taps
    (..., L, N_r, N_t) give (..., F, N_r, N_t)."""
    *lead, num_taps, n_r, n_t = taps.shape
    flat = phases @ taps.reshape(*lead, num_taps, n_r * n_t)
    return flat.reshape(*lead, phases.shape[-2], n_r, n_t)


def _response_gram(hf: np.ndarray) -> np.ndarray:
    """Per-subcarrier Gram of the smaller side: H^H H, or H H^H when
    N_t > N_r (Sylvester), for hf of shape (..., F, N_r, N_t)."""
    hh = hf.conj().swapaxes(-1, -2)
    return hh @ hf if hf.shape[-1] <= hf.shape[-2] else hf @ hh


def _cross_gram(phases: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The Gram of :func:`_response_gram` without the response:
    sum_{l,l'} conj(phase_l) phase_l' M_l^H M_l' over the tap cross-Grams
    M_l^H M_l', for phases (B, F, L) and taps (B, L, N_r, N_t).

    When N_t > N_r the taps are transposed first: that gives the conjugate
    of H H^H, which has the same determinant.
    """
    if taps.shape[-1] > taps.shape[-2]:
        taps = taps.swapaxes(-1, -2)
    batch, num_taps, rows, d = taps.shape
    side_by_side = taps.transpose(0, 2, 1, 3).reshape(batch, rows, num_taps * d)
    cross = side_by_side.conj().swapaxes(-1, -2) @ side_by_side  # (B, L*d, L*d)
    cross = cross.reshape(batch, num_taps, d, num_taps, d).transpose(0, 1, 3, 2, 4)
    pairs = phases.conj()[..., :, None] * phases[..., None, :]  # (B, F, L, L)
    num_f = phases.shape[-2]
    gram = pairs.reshape(batch, num_f, num_taps * num_taps) @ cross.reshape(batch, num_taps * num_taps, d * d)
    return gram.reshape(batch, num_f, d, d)


def _capacities(gram: np.ndarray, config: CapacityConfig, n_t: int) -> np.ndarray:
    """Wideband capacities in bits/s/Hz from per-subcarrier Grams
    (..., F, d, d): subcarrier mean of the log-det, floored at 0."""
    logdet = logdet_eye_plus(gram, db_to_linear(config.snr_db) / n_t)
    return np.maximum(np.mean(logdet, axis=-1) / math.log(2.0), 0.0)


#: Drops per chunk. Chunk c holds drops [c * CHUNK_DROPS, (c + 1) * CHUNK_DROPS),
#: so chunk boundaries depend on the drop index alone, never on the number
#: of drops or workers.
CHUNK_DROPS = 64
#: Bytes of complex temporaries one batch of drops may allocate; a group of
#: drops with equal tap counts is cut into batches under this budget.
BATCH_BYTES = 1 << 20


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
    """Whether a drop's Gram comes from its tap cross-Grams. They cost
    (L*d)^2 products per subcarrier, d = min(N_r, N_t); the response route
    costs L*d*max(N_r, N_t) products plus one small matrix product per
    subcarrier, which in numpy weighs about as much again, so the cross
    route is taken up to L*d = 2*max(N_r, N_t)."""
    return num_taps * min(n_r, n_t) <= 2 * max(n_r, n_t)


def _drop_bytes(num_taps: int, n_r: int, n_t: int, num_subcarriers: int) -> int:
    """Bytes of the complex temporaries one drop adds to a batch."""
    rows, d = max(n_r, n_t), min(n_r, n_t)
    per_subcarrier = num_taps + 2 * d * d
    if _uses_cross_gram(num_taps, n_r, n_t):
        per_subcarrier += num_taps * num_taps
    else:
        per_subcarrier += 2 * rows * d
    return 16 * (num_subcarriers * per_subcarrier + 4 * num_taps * rows * d)


def _batch_capacities(delays, powers, white, psi, campaign: _Campaign) -> np.ndarray:
    """Capacities of drops that all have the same tap count L: delays and
    powers (B, L), white tap draws (B, L, 2, N_r, N_t) and dominant phases
    (B, L), or None for Rayleigh."""
    taps = tap_matrices(white, psi, powers, campaign.rr_sqrt, campaign.rt_sqrt, campaign.fading)
    phases = _subcarrier_phases(delays, campaign.cap_config.baseband_frequencies())
    n_r, n_t = taps.shape[-2:]
    if _uses_cross_gram(delays.shape[1], n_r, n_t):
        gram = _cross_gram(phases, taps)
    else:
        gram = _response_gram(_response(phases, taps))
    return _capacities(gram, campaign.cap_config, n_t)


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


def _simulate_chunk(task) -> list[CapacitySample]:
    """Drops [start, stop) of a campaign, which must not cross a chunk
    boundary.

    Each drop draws from its own stream (:func:`_drop_draws`), so its
    sample depends only on the campaign and its index. The math runs per
    group of drops with equal tap counts, in batches under
    ``BATCH_BYTES``.
    """
    from .seeding import drop_streams  # imports numpy.random

    campaign, start, stop = task
    n_r, n_t = campaign.rr_sqrt.shape[0], campaign.rt_sqrt.shape[1]
    rngs, seeds = drop_streams(campaign.master_seed, start, stop)
    caps = np.empty(len(rngs))
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
    return [
        CapacitySample(capacity=c, drop_index=start + i, seed=seed)
        for i, (c, seed) in enumerate(zip(caps.tolist(), seeds))
    ]


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
) -> list[CapacitySample]:
    """Monte Carlo capacity campaign.

    Each drop draws its own initial CIR, or reuses ``initial_cir`` when one
    is given (e.g. an imported or a shared one); the drop then realizes
    spatially correlated local-area taps and evaluates the wideband
    capacity. ``scenario`` names the campaign and does not enter its
    numbers. Drop i depends only on the arguments, ``master_seed`` and i:
    results are identical for any ``num_workers``, and a longer run starts
    with the drops of a shorter one.
    """
    if num_drops < 1:
        raise ValueError("num_drops must be >= 1")
    if initial_cir is not None and initial_cir.num_components < 1:
        raise ValueError("initial_cir needs at least one component")
    # The amplitude-matched pipeline matrices are deterministic; hoist them.
    rr, rt = pipeline_corr_matrices(autocorr_params, rx_geometry, tx_geometry)
    campaign = _Campaign(
        gen_config=gen_config,
        rr_sqrt=matrix_sqrt_psd(rr),
        rt_sqrt=matrix_sqrt_psd(rt),
        fading=fading,
        cap_config=cap_config,
        master_seed=master_seed,
        shared_cir=None if initial_cir is None else tuple(
            np.array(v) for v in (initial_cir.delays(), initial_cir.power_gains())
        ),
    )

    tasks = [
        (campaign, start, min(start + CHUNK_DROPS, num_drops))
        for start in range(0, num_drops, CHUNK_DROPS)
    ]
    if num_workers <= 1 or len(tasks) == 1:
        results = map(_simulate_chunk, tasks)
        return [s for chunk in results for s in chunk]
    with ProcessPoolExecutor(max_workers=min(num_workers, len(tasks))) as pool:
        return [s for chunk in pool.map(_simulate_chunk, tasks) for s in chunk]


def capacity_cdf(samples):
    """Empirical CDF of capacity samples: sorted (capacity, rank/N) arrays."""
    caps = np.array([s.capacity for s in samples], dtype=float)
    if caps.size < 1:
        raise ValueError("need at least one capacity sample")
    order = np.sort(caps)
    probs = np.arange(1, caps.size + 1) / caps.size
    return order, probs


def capacity_quantiles(samples, qs=(0.1, 0.5, 0.9)):
    """Selected quantiles of the capacity samples (linear interpolation)."""
    caps = np.array([s.capacity for s in samples], dtype=float)
    return {q: float(np.quantile(caps, q)) for q in qs}
