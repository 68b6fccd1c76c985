"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: the autocorrelation
oracle is a literal double loop over the defining expectation, the Rician
power CDF comes from the noncentral chi-square law, and the Monte Carlo
reference runs one drop at a time with one object per component and tap.
"""

import math

import numpy as np
from scipy import stats

from mmwchan.core import TWO_PI, ChannelImpulseResponse, FadingModel, MultipathComponent, db_to_linear
from mmwchan.spatial import (
    K_LINEAR_MAX,
    K_LINEAR_MIN,
    CorrelatedTap,
    build_amplitude_matched_corr,
    matrix_sqrt_psd,
)

NS = 1e-9


def brute_force_autocorr(amplitudes_1d, lag):
    """Literal double-loop evaluation of the normalized covariance between
    an amplitude sequence and its lag-shifted copy, with means and variances
    over the overlapping window. Returns NaN on zero variance."""
    n = len(amplitudes_1d) - lag
    mean_x = 0.0
    for l in range(n):
        mean_x += amplitudes_1d[l]
    mean_x /= n
    mean_y = 0.0
    for l in range(n):
        mean_y += amplitudes_1d[l + lag]
    mean_y /= n
    num = 0.0
    for l in range(n):
        num += (amplitudes_1d[l] - mean_x) * (amplitudes_1d[l + lag] - mean_y)
    var_x = 0.0
    for l in range(n):
        var_x += (amplitudes_1d[l] - mean_x) * (amplitudes_1d[l] - mean_x)
    var_y = 0.0
    for l in range(n):
        var_y += (amplitudes_1d[l + lag] - mean_y) * (amplitudes_1d[l + lag] - mean_y)
    if var_x == 0.0 or var_y == 0.0:
        return math.nan
    return num / math.sqrt(var_x * var_y)


def rician_power_cdf(x, k_linear):
    """CDF of |h|^2 for h = sqrt(K/(K+1))e^{j psi} + sqrt(1/(K+1)) CN(0,1).

    2(K+1)|h|^2 follows a noncentral chi-square with 2 degrees of freedom
    and noncentrality 2K.
    """
    x = np.asarray(x, dtype=float)
    return stats.ncx2.cdf(2.0 * (k_linear + 1.0) * x, df=2, nc=2.0 * k_linear)


def exponential_power_cdf(x):
    """CDF of |h|^2 for unit-power Rayleigh fading (exponential law)."""
    x = np.asarray(x, dtype=float)
    return 1.0 - np.exp(-np.clip(x, 0.0, None))


def expected_autocorr(a, b, c, dr):
    """Independent evaluation of the exponential model a*e^(-b*dr) - c."""
    return a * math.exp(-b * dr) - c


# ---------------------------------------------------------------------------
# Per-drop reference engine: the Monte Carlo drop loop as it ran before the
# batched engine, one object per component and tap, scalar RNG calls,
# ``tensordot`` responses and ``einsum`` + ``slogdet`` log-dets. The batched
# engine must match it to float rounding, with identical seed words.
# ---------------------------------------------------------------------------


def _draw_lobes(rng, count):
    lobes = []
    for _ in range(count):
        az = rng.uniform(0.0, TWO_PI)
        el = rng.uniform(-math.pi / 4, math.pi / 4)
        lobes.append((az, el))
    return lobes


def _offset_angles(rng, lobe, spread_rad):
    az = (lobe[0] + rng.normal(0.0, spread_rad)) % TWO_PI
    el = lobe[1] + rng.normal(0.0, spread_rad)
    el = min(max(el, -math.pi / 2), math.pi / 2)
    return az, el


def reference_initial_cir(config, scenario, rng):
    """The scalar-draw CIR generator: clusters, lobes and subpaths drawn one
    value at a time, then normalized to unit total power."""
    void_s = config.intercluster_void_ns * NS
    cluster_decay_s = config.cluster_decay_ns * NS
    intra_decay_s = config.intracluster_decay_ns * NS
    spread_rad = math.radians(config.lobe_angular_spread_deg)

    n_clusters = int(rng.integers(config.num_clusters_range[0], config.num_clusters_range[1] + 1))
    n_dep_lobes = int(rng.integers(config.num_lobes_range[0], config.num_lobes_range[1] + 1))
    n_arr_lobes = int(rng.integers(config.num_lobes_range[0], config.num_lobes_range[1] + 1))
    dep_lobes = _draw_lobes(rng, n_dep_lobes)
    arr_lobes = _draw_lobes(rng, n_arr_lobes)

    raw = []
    prev_end = 0.0
    for c in range(n_clusters):
        if c == 0:
            start = 0.0
        else:
            start = prev_end + void_s + rng.exponential(cluster_decay_s)
        cluster_weight = math.exp(-start / cluster_decay_s)
        dep = dep_lobes[int(rng.integers(0, n_dep_lobes))]
        arr = arr_lobes[int(rng.integers(0, n_arr_lobes))]
        n_paths = int(rng.integers(config.paths_per_cluster_range[0], config.paths_per_cluster_range[1] + 1))
        subs = []
        t = start
        for p in range(n_paths):
            if p > 0:
                t += rng.exponential(intra_decay_s)
            weight = cluster_weight * math.exp(-(t - start) / intra_decay_s)
            phase = rng.uniform(0.0, TWO_PI)
            aod = _offset_angles(rng, dep, spread_rad)
            aoa = _offset_angles(rng, arr, spread_rad)
            subs.append((t, weight, phase, aod, aoa))
        prev_end = t
        raw.append((start, subs))

    total = sum(w for _, subs in raw for _, w, _, _, _ in subs)
    comps = [
        MultipathComponent(power_gain=w / total, phase=phase, delay=t, aod=aod, aoa=aoa)
        for _, subs in raw
        for t, w, phase, aod, aoa in subs
    ]
    return ChannelImpulseResponse.from_components(comps, scenario)


def reference_realize_taps(cir, r_r_sqrt, r_t_sqrt, fading, rng):
    """One fading draw and one CorrelatedTap per component."""
    n_r = r_r_sqrt.shape[0]
    n_t = r_t_sqrt.shape[1]
    ones = np.ones((n_r, n_t))
    taps = []
    for comp in cir.components:
        g = (rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))) / math.sqrt(2.0)
        diffuse = r_r_sqrt @ g @ r_t_sqrt
        if fading.is_rician:
            k = min(max(db_to_linear(fading.k_factor_db), K_LINEAR_MIN), K_LINEAR_MAX)
            psi = rng.uniform(0.0, TWO_PI)
            h = math.sqrt(k / (k + 1.0)) * np.exp(1j * psi) * ones + math.sqrt(1.0 / (k + 1.0)) * diffuse
        else:
            h = diffuse
        taps.append(
            CorrelatedTap(matrix=math.sqrt(comp.power_gain) * h, delay=comp.delay, mean_power=comp.power_gain)
        )
    return taps


def reference_frequency_response(taps, cap_config):
    """H_f as one tensordot of the subcarrier phases with the tap stack."""
    t0 = taps[0].delay
    tau = np.array([t.delay - t0 for t in taps])
    stack = np.stack([t.matrix for t in taps])
    f = cap_config.baseband_frequencies()
    phase = np.exp(-2j * np.pi * np.outer(f, tau))
    return np.tensordot(phase, stack, axes=(1, 0))


def reference_wideband_capacity(hf, cap_config, n_t):
    """Subcarrier mean of einsum Grams through slogdet, floored at 0."""
    n_r = hf.shape[1]
    scale = db_to_linear(cap_config.snr_db) / n_t
    if n_t <= n_r:
        gram = np.einsum("fij,fik->fjk", hf.conj(), hf)
        dim = n_t
    else:
        gram = np.einsum("fik,fjk->fij", hf, hf.conj())
        dim = n_r
    m = np.eye(dim)[None, :, :] + scale * gram
    _, logdet = np.linalg.slogdet(m)
    return max(float(np.mean(logdet) / math.log(2.0)), 0.0)


def reference_monte_carlo(
    scenario,
    gen_config,
    rx_geometry,
    tx_geometry,
    fading,
    cap_config,
    num_drops,
    master_seed,
    params,
    share_initial_cir=False,
    initial_cir=None,
):
    """Drop-by-drop campaign: returns [(drop_index, seed word, capacity)]."""
    shared = initial_cir
    if shared is None and share_initial_cir:
        rng = np.random.default_rng(np.random.SeedSequence(entropy=master_seed, spawn_key=(1, 0)))
        shared = reference_initial_cir(gen_config, scenario, rng)
    rayleigh = FadingModel.rayleigh()
    rr_sqrt = matrix_sqrt_psd(build_amplitude_matched_corr(params, rx_geometry, rayleigh, side="receive"))
    rt_sqrt = matrix_sqrt_psd(build_amplitude_matched_corr(params, tx_geometry, rayleigh, side="transmit"))
    out = []
    for drop in range(num_drops):
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(0, drop))
        rng = np.random.default_rng(ss)
        cir = shared if shared is not None else reference_initial_cir(gen_config, scenario, rng)
        taps = reference_realize_taps(cir, rr_sqrt, rt_sqrt, fading, rng)
        hf = reference_frequency_response(taps, cap_config)
        cap = reference_wideband_capacity(hf, cap_config, tx_geometry.num_elements)
        seed_word = int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0])
        out.append((drop, seed_word, cap))
    return out
