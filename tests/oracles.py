"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: the autocorrelation
oracle is a literal double loop over the defining expectation, the Rician
power CDF comes from the noncentral chi-square law, the MMSE fit scans its
decay grid one rate at a time, the Rayleigh SIMO mean capacity is one
quadrature, and the Monte Carlo reference runs one drop at a time with
scalar arithmetic per component and one object per tap, seeded through
numpy's ``SeedSequence``. The one exception is the flat-drop capacity,
which keeps the engine's own kernels on every subcarrier so that the
engine's one-column shortcut can be held to it bit for bit.
"""

import math

import numpy as np
from scipy import integrate, stats

from mmwchan.capacity import _cross_gram, _logdet_packed, _pair_phases, _tap_phases
from mmwchan.core import TWO_PI, ChannelImpulseResponse, FadingModel, db_to_linear
from mmwchan.spatial import (
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


def reference_average_autocorr(amplitudes, min_overlap):
    """Per-lag mean of :func:`brute_force_autocorr` over the delay bins
    where it is defined, summed in bin order; NaN where no bin is. Lags
    run while the window keeps min(min_overlap, positions) samples, and at
    least 2."""
    n_pos, num_bins = np.shape(amplitudes)
    columns = [[float(v) for v in np.asarray(amplitudes)[:, b]] for b in range(num_bins)]
    out = []
    for lag in range(n_pos - max(min(min_overlap, n_pos), 2) + 1):
        total, count = 0.0, 0
        for col in columns:
            value = brute_force_autocorr(col, lag)
            if not math.isnan(value):
                total += value
                count += 1
        out.append(total / count if count else math.nan)
    return np.array(out)


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


def hypoexponential_cdf(x, means):
    """CDF of a sum of independent exponentials with distinct means
    lambda_i: 1 - sum_i prod_{j != i} lambda_i / (lambda_i - lambda_j)
    * exp(-x / lambda_i) (Mathai & Provost, 1992). With the eigenvalues of
    R as means, it is the law of g^H R g for g ~ CN(0, I)."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, None)
    means = np.asarray(means, dtype=float)
    survival = np.zeros_like(x)
    for i, lam in enumerate(means):
        others = np.delete(means, i)
        survival += np.prod(lam / (lam - others)) * np.exp(-x / lam)
    return 1.0 - survival


def rayleigh_simo_mean_capacity(rho, eigenvalues):
    """E[log2(1 + rho X)] for X = sum_i lambda_i |z_i|^2 with z_i i.i.d.
    CN(0, 1), the law of g^H R g for the eigenvalues lambda_i of R. From
    ln(1 + a) = int_0^inf (1 - e^(-s a)) e^(-s) / s ds and E[e^(-s rho X)] =
    prod_i (1 + s rho lambda_i)^-1, the mean is one quadrature:
    int_0^inf (1 - prod_i (1 + s rho lambda_i)^-1) e^(-s) / s ds / ln 2."""
    lam = rho * np.clip(np.asarray(eigenvalues, dtype=float), 0.0, None)

    def integrand(s):
        return -math.expm1(-float(np.sum(np.log1p(s * lam)))) * math.exp(-s) / s

    value, _ = integrate.quad(integrand, 0.0, math.inf, epsabs=1e-12, epsrel=1e-12)
    return value / math.log(2.0)


def rician_eigen_pair_cdf(x, k_linear, lam_dominant, lam_other, num_nodes=128):
    """CDF of ||h||^2 for h = sqrt(K/(K+1)) e^{j psi} 1 + sqrt(1/(K+1)) R^(1/2) g
    with N_r = 2, g ~ CN(0, I) and R real with the all-ones vector as the
    eigenvector of ``lam_dominant``. In R's eigenbasis ||h||^2 = X + Y: X
    is the dominant branch, |sqrt(2K/(K+1)) + sqrt(lam_dominant/(K+1)) w|^2,
    a scaled noncentral chi-square with 2 degrees of freedom and
    noncentrality 4K/lam_dominant; Y is exponential with mean
    lam_other/(K+1). The convolution P(X + Y <= x) = E[F_X(x - Y); Y <= x]
    is integrated over Y's quantile u = F_Y(y) in [0, F_Y(x)], where the
    integrand is bounded and smooth, by Gauss-Legendre."""
    sigma2 = lam_dominant / (k_linear + 1.0)
    nc = 4.0 * k_linear / lam_dominant
    mean_y = lam_other / (k_linear + 1.0)
    x = np.clip(np.asarray(x, dtype=float), 0.0, None)[..., None]
    nodes, weights = np.polynomial.legendre.leggauss(num_nodes)
    top = -np.expm1(-x / mean_y)  # F_Y(x)
    y = -mean_y * np.log1p(-0.5 * top * (nodes + 1.0))
    cdf_x = stats.ncx2.cdf(2.0 * (x - y) / sigma2, df=2, nc=nc)
    return 0.5 * top[..., 0] * (cdf_x @ weights)


def rician_two_tap_cdf(x, k_linear, powers, num_nodes=64):
    """CDF of |h|^2 for h = sum_l sqrt(p_l) (sqrt(K/(K+1)) e^{j psi_l} +
    sqrt(1/(K+1)) g_l) over two taps with p_1 + p_2 = 1, i.i.d. uniform
    dominant phases psi_l and g_l ~ CN(0, 1). Given theta = psi_2 - psi_1
    this is Rician with dominant power K/(K+1) * |D|^2, |D|^2 = p_1 + p_2 +
    2 sqrt(p_1 p_2) cos(theta), so 2(K+1)|h|^2 is noncentral chi-square with
    noncentrality 2K|D|^2; the law averages that over theta, here by the
    midpoint rule on a full period (exact to rounding for this smooth
    periodic integrand)."""
    p1, p2 = powers
    theta = (np.arange(num_nodes) + 0.5) * (TWO_PI / num_nodes)
    dominant = p1 + p2 + 2.0 * math.sqrt(p1 * p2) * np.cos(theta)
    x = np.asarray(x, dtype=float)
    cdf = stats.ncx2.cdf(2.0 * (k_linear + 1.0) * x[..., None], df=2, nc=2.0 * k_linear * dominant)
    return cdf.mean(axis=-1)


def expected_autocorr(a, b, c, dr):
    """Independent evaluation of the exponential model a*e^(-b*dr) - c."""
    return a * math.exp(-b * dr) - c


# ---------------------------------------------------------------------------
# Scalar MMSE fit: the exponential-model fit as it ran before the row
# kernel, one decay rate at a time through a strict-< grid scan and a
# golden-section polish. The library's fit must give the same five outputs
# bit for bit.
# ---------------------------------------------------------------------------


def reference_ls_given_b(x, y):
    """Best (a, c) for model a*x - c at one fixed b (x = exp(-b*lag)), with
    the constraints a > 0 and 0 < a - c <= 1, and the mean squared residual."""
    n = len(x)
    sx = float(np.sum(x))
    sxx = float(np.sum(x * x))
    sy = float(np.sum(y))
    sxy = float(np.sum(x * y))
    det = n * sxx - sx * sx
    if det <= 1e-15 * max(n * sxx, 1.0):
        mean_y = sy / n
        xc = float(x[0])
        a = max(mean_y, 1e-6) if xc == 1.0 else 1.0
        c = a * xc - mean_y
    else:
        a = (n * sxy - sx * sy) / det
        c = (a * sx - sy) / n
    if a <= 0.0:
        a = 1e-6
        c = a * (sx / n) - sy / n
    if a - c > 1.0:
        denom = float(np.sum((x - 1.0) ** 2))
        if denom > 0.0:
            a = float(np.sum((x - 1.0) * (y - 1.0))) / denom
            a = max(a, 1e-6)
        c = a - 1.0
    elif a - c <= 0.0:
        c = a - 1e-6
    resid = float(np.mean((a * x - c - y) ** 2))
    return a, c, resid


def reference_fit_autocorr_mmse(lags, values):
    """(a, b, c, residual, identifiable) of the MMSE fit of a*exp(-b*lag) - c
    to the finite points of a curve. b is identifiable unless the curve is
    constant or exp(-b*lag) is the same column for every grid b > 0."""
    mask = np.isfinite(values)
    lags = np.asarray(lags, dtype=float)[mask]
    y = np.asarray(values, dtype=float)[mask]
    if len(y) < 3:
        raise ValueError("need at least 3 defined lags")
    if float(np.max(y) - np.min(y)) < 1e-12:
        return min(max(float(y[0]), 1e-6), 1.0), 0.0, 0.0, 0.0, False

    def objective(b):
        a, c, resid = reference_ls_given_b(np.exp(-b * lags), y)
        return resid, a, c

    best = None
    columns = set()  # the model columns exp(-b*lag) of the grid rates b > 0
    for b in np.arange(0.0, 10.0 + 1e-9, 0.01):
        resid, a, c = objective(float(b))
        if best is None or resid < best[0]:
            best = (resid, a, float(b), c)
        if b > 0:
            columns.add(tuple(np.exp(-float(b) * lags).tolist()))
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
    # one column for every b > 0: the residual is flat in b
    return a, b_ref, c, resid, len(columns) > 1


# ---------------------------------------------------------------------------
# Per-drop reference engine: the Monte Carlo drop loop one drop, one
# component and one tap at a time, with scalar RNG calls that read each
# drop's fixed draw layout in order, ``tensordot`` responses and ``einsum``
# + ``slogdet`` log-dets. The batched engine must match it to float
# rounding, with identical seed words. Exponentials and logs go through
# numpy one value at a time: numpy's exp and log1p can differ from libm's
# in the last bit, and the CIR must match the engine's bit for bit.
# ---------------------------------------------------------------------------


def _uniform_int(u, lo, count):
    return lo + min(int(u * count), count - 1)


def _read_drop_cir(config, rng):
    """One drop's uniform block, read value by value in layout order
    (cluster, departure-lobe, arrival-lobe and path counts; lobe centres;
    inter-cluster gaps; intra-cluster gaps; lobe choices; dominant phases;
    component phases), then the four angle offsets of each component.
    Returns the components, unnormalized power included, and the uniforms
    of the dominant phases."""
    max_clusters = config.num_clusters_range[1]
    max_paths = config.paths_per_cluster_range[1]
    max_lobes = config.num_lobes_range[1]

    def take(count):
        return [rng.random() for _ in range(count)]

    def count(u, bounds):
        return _uniform_int(u, bounds[0], bounds[1] - bounds[0] + 1)

    u_clusters, u_dep, u_arr = take(3)
    n_clusters = count(u_clusters, config.num_clusters_range)
    n_dep = count(u_dep, config.num_lobes_range)
    n_arr = count(u_arr, config.num_lobes_range)
    path_counts = take(max_clusters)
    centres = take(4 * max_lobes)
    lobes = [(TWO_PI * az, -math.pi / 4 + (math.pi / 2) * el) for az, el in zip(centres[0::2], centres[1::2])]
    dep_lobes, arr_lobes = lobes[:max_lobes], lobes[max_lobes:]
    cluster_gaps = take(max_clusters - 1)
    path_gaps = take(max_clusters * (max_paths - 1))
    choices = take(2 * max_clusters)
    psi_uniforms = take(max_clusters * max_paths)
    phases = take(max_clusters * max_paths)

    void_s = config.intercluster_void_ns * NS
    cluster_decay_s = config.cluster_decay_ns * NS
    intra_decay_s = config.intracluster_decay_ns * NS
    subs = []
    t = 0.0
    for c in range(n_clusters):
        if c > 0:
            t = t + (void_s + -cluster_decay_s * np.log1p(-cluster_gaps[c - 1]))
        start = t
        dep = dep_lobes[_uniform_int(choices[2 * c], 0, n_dep)]
        arr = arr_lobes[_uniform_int(choices[2 * c + 1], 0, n_arr)]
        for p in range(count(path_counts[c], config.paths_per_cluster_range)):
            if p > 0:
                t = t + -intra_decay_s * np.log1p(-path_gaps[c * (max_paths - 1) + p - 1])
            weight = np.exp(-start / cluster_decay_s) * np.exp(-(t - start) / intra_decay_s)
            if weight > 0.0:  # a path whose weight underflows to 0 is no component
                subs.append((float(t), float(weight), TWO_PI * phases[c * max_paths + p], dep, arr))

    spread = math.radians(config.lobe_angular_spread_deg)
    comps = []
    for t, weight, phase, dep, arr in subs:
        pair = []
        for lobe in (dep, arr):
            d_az, d_el = rng.standard_normal(), rng.standard_normal()
            el = min(max(lobe[1] + spread * d_el, -math.pi / 2), math.pi / 2)
            pair.append(((lobe[0] + spread * d_az) % TWO_PI, el))
        comps.append((t, weight, phase, pair[0], pair[1]))
    return comps, psi_uniforms


def reference_initial_cir(config, scenario, rng):
    """The CIR of one drop's layout."""
    return _normalized_cir(_read_drop_cir(config, rng)[0], scenario)


def _normalized_cir(comps, scenario):
    """Components normalized to unit total power, summed in component order."""
    total = 0.0
    for _, weight, _, _, _ in comps:
        total += weight
    delays, weights, phases, aods, aoas = zip(*comps)
    return ChannelImpulseResponse(
        delays=delays, powers=[w / total for w in weights], phases=phases, aod=aods, aoa=aoas, scenario=scenario
    )


def _reference_taps(cir, r_r_sqrt, r_t_sqrt, fading, whites, psi_uniforms):
    """One CorrelatedTap per component from its (real, imaginary) white
    draws; a Rician tap takes its dominant phase from ``psi_uniforms``."""
    n_r = r_r_sqrt.shape[0]
    n_t = r_t_sqrt.shape[1]
    ones = np.ones((n_r, n_t))
    taps = []
    for power, delay, (re, im), u in zip(cir.powers.tolist(), cir.delays.tolist(), whites, psi_uniforms):
        g = (re + 1j * im) / math.sqrt(2.0)
        diffuse = r_r_sqrt @ g @ r_t_sqrt
        if fading.is_rician:
            k = db_to_linear(fading.k_factor_db)
            h = math.sqrt(k / (k + 1.0)) * np.exp(1j * (TWO_PI * u)) * ones + math.sqrt(1.0 / (k + 1.0)) * diffuse
        else:
            h = diffuse
        taps.append(CorrelatedTap(matrix=math.sqrt(power) * h, delay=delay))
    return taps


def _reference_whites(cir, n_r, n_t, rng):
    """Tap by tap, the real then the imaginary white draws."""
    return [(rng.standard_normal((n_r, n_t)), rng.standard_normal((n_r, n_t))) for _ in range(cir.num_components)]


def reference_realize_taps(cir, r_r_sqrt, r_t_sqrt, fading, rng):
    """The taps of a fixed CIR: the white draws tap by tap, then one
    uniform per tap for its dominant phase."""
    whites = _reference_whites(cir, r_r_sqrt.shape[0], r_t_sqrt.shape[1], rng)
    psi_uniforms = [rng.random() for _ in range(cir.num_components)]
    return _reference_taps(cir, r_r_sqrt, r_t_sqrt, fading, whites, psi_uniforms)


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
    autocorr_params,
    initial_cir=None,
):
    """Drop-by-drop campaign: returns [(drop_index, seed word, capacity)]."""
    rayleigh = FadingModel.rayleigh()
    rr = build_amplitude_matched_corr(autocorr_params, rx_geometry, rayleigh)
    rt = build_amplitude_matched_corr(autocorr_params, tx_geometry, rayleigh)
    rr_sqrt, rt_sqrt = matrix_sqrt_psd(rr), matrix_sqrt_psd(rt)
    out = []
    for drop in range(num_drops):
        ss = np.random.SeedSequence(entropy=master_seed, spawn_key=(0, drop))
        rng = np.random.default_rng(ss)
        if initial_cir is not None:
            taps = reference_realize_taps(initial_cir, rr_sqrt, rt_sqrt, fading, rng)
        else:
            comps, psi_uniforms = _read_drop_cir(gen_config, rng)
            cir = _normalized_cir(comps, scenario)
            whites = _reference_whites(cir, rr_sqrt.shape[0], rt_sqrt.shape[1], rng)
            taps = _reference_taps(cir, rr_sqrt, rt_sqrt, fading, whites, psi_uniforms)
        hf = reference_frequency_response(taps, cap_config)
        cap = reference_wideband_capacity(hf, cap_config, tx_geometry.num_elements)
        seed_word = int(ss.generate_state(2, dtype=np.uint32).view(np.uint64)[0])
        out.append((drop, seed_word, cap))
    return out


def reference_flat_capacities(taps, cap_config, n_t):
    """Capacities of one-tap drops, taps (B, 1, N_r, N_t), as the engine's
    cross route takes them on all F subcarriers: the pair phases of the
    single tap (a row of ones and a row of zeros at each subcarrier) times
    its pair coefficients give an F-column packed Gram, whose log-det is
    averaged over the F columns and floored at 0."""
    phases = _pair_phases(_tap_phases(np.zeros((taps.shape[0], 1)), cap_config))
    logdet = _logdet_packed(_cross_gram(taps, phases), db_to_linear(cap_config.snr_db) / n_t)
    return np.maximum(np.mean(logdet, axis=-1) / math.log(2.0), 0.0)
