"""Spatial correlation matrices, PSD repair, fading draws, and tap assembly.

Two matrix constructions live here:

* :func:`build_ula_corr_matrix` — the fitted-model construction: entries
  ``exp(-j*theta_ik) * (a*exp(-b*|i-k|*d) - c)`` with random phases for
  i != k, Hermitian-symmetrized and repaired to a valid correlation matrix.
* :func:`build_amplitude_matched_corr` — the construction the simulation
  pipelines use. The fitted exponential model describes the correlation of
  multipath voltage *amplitudes*; a complex-envelope correlation of rho
  yields an envelope power correlation of |rho|^2 for Rayleigh fading (and
  a K-dependent mix for Rician), so plugging the amplitude model straight
  into the complex domain under-correlates the field. This builder inverts
  the envelope-correlation map per fading model so the realized power
  correlation between elements matches the fitted model.

Both builders, and :func:`repair_to_correlation` under them, return the
matrix as a plain read-only, C-ordered complex ndarray.

Local-area "copies" of a multipath component combine a fully correlated
dominant term (common random phase across the array, rank one) with a
Kronecker-shaped diffuse term; the dominant term of a plane wave is
constant across elements and therefore bypasses the diffuse shaping.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    TWO_PI,
    ArrayGeometry,
    AutocorrParams,
    ChannelImpulseResponse,
    FadingModel,
    db_to_linear,
    require_grid,
)

#: Hermitian / unit-diagonal tolerance for correlation matrices.
HERMITIAN_ATOL = 1e-12
#: Eigenvalues above this (tiny negative) threshold count as nonnegative.
EIGENVALUE_TOL = -1e-10


def eval_autocorr(params: AutocorrParams, dr):
    """Exponential spatial autocorrelation a*exp(-b*dr) - c at separation
    dr (wavelengths, scalar or array, >= 0)."""
    arr = np.asarray(dr, dtype=float)
    if np.any(arr < 0):
        raise ValueError("separation dr must be >= 0")
    with np.errstate(over="ignore"):  # b * dr overflows to inf only where exp gives exactly 0
        out = params.a * np.exp(-params.b * arr) - params.c
    return float(out) if np.isscalar(dr) or arr.ndim == 0 else out


def _lag_matrix(geometry: ArrayGeometry) -> np.ndarray:
    """The separation |i - k| * spacing, in wavelengths, of each element pair (i, k)."""
    n = geometry.num_elements
    return np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * geometry.spacing


def raw_ula_corr_matrix(
    params: AutocorrParams,
    geometry: ArrayGeometry,
    rng: np.random.Generator,
) -> np.ndarray:
    """The ULA construction before repair: magnitude from the
    exponential model, random phase per upper-triangle entry, zero phase on
    the diagonal, conjugate symmetry below."""
    n = geometry.num_elements
    mag = eval_autocorr(params, _lag_matrix(geometry))
    theta = np.triu(rng.uniform(0.0, TWO_PI, size=(n, n)), k=1)
    theta = theta - theta.T  # theta_ki = -theta_ik, zero diagonal
    return np.exp(-1j * theta) * mag


def build_ula_corr_matrix(params: AutocorrParams, geometry: ArrayGeometry, rng_seed) -> np.ndarray:
    """Random-phase exponential-model correlation matrix for a ULA,
    repaired to Hermitian PSD with unit diagonal. Deterministic per seed."""
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    raw = raw_ula_corr_matrix(params, geometry, rng)
    return repair_to_correlation(raw)


def _is_valid_correlation(m: np.ndarray) -> bool:
    if not np.allclose(m, m.conj().T, atol=HERMITIAN_ATOL, rtol=0.0):
        return False
    if not np.allclose(np.diag(m), 1.0, atol=HERMITIAN_ATOL, rtol=0.0):
        return False
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return bool(w.min() >= EIGENVALUE_TOL)


def repair_to_correlation(matrix) -> np.ndarray:
    """Project a square complex matrix onto the valid correlation matrices.

    Inputs already Hermitian with unit diagonal and nonnegative eigenvalues
    pass through unchanged. Otherwise: nearest Hermitian matrix (Frobenius),
    eigenvalue clamp at zero, then diagonal renormalization
    m_ik / sqrt(m_ii * m_kk). Idempotent. Returns a read-only, C-ordered
    complex copy, which later writes to the input do not reach.
    """
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not _is_valid_correlation(m):
        herm = (m + m.conj().T) / 2.0
        w, v = np.linalg.eigh(herm)
        w = np.clip(w, 0.0, None)
        clamped = (v * w) @ v.conj().T
        diag = np.real(np.diag(clamped))
        # a (numerically) zero diagonal forces a zero row by PSD Cauchy-Schwarz;
        # such elements are uncorrelated and get an identity row/column
        dead = diag <= 1e-14 * max(float(diag.max(initial=0.0)), 1.0)
        scale = np.where(dead, 1.0, 1.0 / np.sqrt(np.where(dead, 1.0, diag)))
        m = clamped * scale[:, None] * scale[None, :]
        m[dead, :] = 0.0
        m[:, dead] = 0.0
        m = (m + m.conj().T) / 2.0
        np.fill_diagonal(m, 1.0)
    m = np.array(m, order="C")
    m.setflags(write=False)
    return m


def matrix_sqrt_psd(corr) -> np.ndarray:
    """Hermitian PSD square root S with S @ S = input.

    Accepts any Hermitian PSD array; raises on non-Hermitian input.
    """
    m = np.asarray(corr, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.allclose(m, m.conj().T, atol=1e-10, rtol=0.0):
        raise ValueError("matrix square root requires a Hermitian input")
    w, v = np.linalg.eigh(m)
    if w.min() < -1e-8:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (s + s.conj().T) / 2.0


# ---------------------------------------------------------------------------
# Amplitude-matched construction used by the simulation pipelines
# ---------------------------------------------------------------------------

def amplitude_matched_magnitude(f_target, fading: FadingModel):
    """Complex-envelope correlation magnitude realizing a target envelope
    power correlation ``f_target`` for the given fading model.

    Rayleigh: power corr = rho^2 exactly, so rho = sign(f)*sqrt(|f|).
    Rician K (common-phase dominant term): power corr =
    (2 s^2 sig^2 rho + sig^4 rho^2) / (2 s^2 sig^2 + sig^4) with
    s^2 = K/(K+1), sig^2 = 1/(K+1); solved for rho.
    """
    f = np.asarray(f_target, dtype=float)
    if not fading.is_rician:
        out = np.sign(f) * np.sqrt(np.abs(f))
    else:
        k = db_to_linear(fading.k_factor_db)
        s2 = k / (k + 1.0)
        sig2 = 1.0 / (k + 1.0)
        radicand = s2**2 + f * (2.0 * s2 * sig2 + sig2**2)
        rho = (np.sqrt(np.clip(radicand, 0.0, None)) - s2) / sig2
        out = rho
    out = np.clip(out, -1.0, 1.0)
    return float(out) if np.isscalar(f_target) else out


def build_amplitude_matched_corr(
    params: AutocorrParams,
    geometry: ArrayGeometry,
    fading: FadingModel,
    *,
    side: str | None = None,
) -> np.ndarray:
    """Deterministic real Toeplitz correlation matrix whose realized
    envelope power correlation matches the fitted exponential model."""
    # side is ignored; perfbench/tracing.py still passes side="receive"/"transmit"
    f = eval_autocorr(params, _lag_matrix(geometry))
    mag = amplitude_matched_magnitude(f, fading)
    mag = np.asarray(mag, dtype=float)
    np.fill_diagonal(mag, 1.0)
    return repair_to_correlation(mag.astype(complex))


def pipeline_corr_matrices(
    params: AutocorrParams, rx_geometry: ArrayGeometry, tx_geometry: ArrayGeometry
) -> tuple[np.ndarray, np.ndarray]:
    """The receive and transmit correlation matrices of the capacity
    pipeline: amplitude-matched for Rayleigh envelopes at both ends."""
    rayleigh = FadingModel.rayleigh()
    return (
        build_amplitude_matched_corr(params, rx_geometry, rayleigh),
        build_amplitude_matched_corr(params, tx_geometry, rayleigh),
    )


def draw_tap_noise(rng: np.random.Generator, num_taps: int, n_r: int, n_t: int) -> tuple[np.ndarray, np.ndarray]:
    """The fading draws of ``num_taps`` local-area taps, as a drop with a
    fixed CIR draws them, whatever its fading model: the white draws, for
    each tap the real then the imaginary standard normals of its N_r x N_t
    matrix, then one uniform per tap for its dominant-term phase. After
    :func:`cirgen.generate_initial_cir` on a drop's stream, the white draws
    are those the drop engine gave that drop. Returns the white draws,
    shape (num_taps, 2, N_r, N_t), and the phases 2pi * u (num_taps,).
    """
    white = rng.standard_normal((num_taps, 2, n_r, n_t))
    return white, TWO_PI * rng.random(num_taps)


def _diffuse(white: np.ndarray, r_r_sqrt: np.ndarray, r_t_sqrt: np.ndarray) -> np.ndarray:
    """The diffuse Kronecker part ``R_r^(1/2) G R_t^(1/2)`` of each tap,
    with ``G = (re + j*im)/sqrt(2)`` from ``white`` (..., 2, N_r, N_t):
    shape (..., N_r, N_t). A fading model only rescales it."""
    g = (white[..., 0, :, :] + 1j * white[..., 1, :, :]) / math.sqrt(2.0)
    return r_r_sqrt @ g @ r_t_sqrt


def _mix(diffuse: np.ndarray, phasors: np.ndarray | None, amplitudes: np.ndarray, fading: FadingModel) -> np.ndarray:
    """The tap matrices of one fading model from the diffuse parts of
    :func:`_diffuse`, the dominant phasors ``e^(j*psi)`` (read for a Rician
    model only) and the amplitudes ``sqrt(p)``, both of the leading shape:
    ``sqrt(p) * H0`` for Rayleigh, and
    ``sqrt(p) * (sqrt(K/(K+1)) e^(j*psi) 1 + sqrt(1/(K+1)) H0)`` for Rician."""
    h = diffuse
    if fading.is_rician:
        k = db_to_linear(fading.k_factor_db)
        h = math.sqrt(k / (k + 1.0)) * phasors[..., None, None] + math.sqrt(1.0 / (k + 1.0)) * h
    return amplitudes[..., None, None] * h


def tap_matrices(
    white: np.ndarray,
    psi: np.ndarray | None,
    powers: np.ndarray,
    r_r_sqrt: np.ndarray,
    r_t_sqrt: np.ndarray,
    fading: FadingModel,
) -> np.ndarray:
    """Local-area tap matrices from fading draws, for any stack of taps.

    ``sqrt(p) * R_r^(1/2) G R_t^(1/2)`` with ``G = (re + j*im)/sqrt(2)``
    from ``white`` (..., 2, N_r, N_t); Rician taps become
    ``sqrt(p) * (sqrt(K/(K+1)) e^(j*psi) 1 + sqrt(1/(K+1)) R_r^(1/2) G R_t^(1/2))``.
    ``psi`` and ``powers`` have the leading shape of ``white``; the result
    has shape (..., N_r, N_t). Each tap sees the same operations whatever
    the stack it sits in, so its matrix does not depend on the stack. The
    steps are :func:`_diffuse` and :func:`_mix`, which the capacity engine
    runs on its own, so that every model of a run shares one diffuse part.
    """
    phasors = np.exp(1j * psi) if fading.is_rician else None
    return _mix(_diffuse(white, r_r_sqrt, r_t_sqrt), phasors, np.sqrt(powers), fading)


def realize_taps(
    cir: ChannelImpulseResponse,
    r_r_sqrt: np.ndarray,
    r_t_sqrt: np.ndarray,
    fading: FadingModel,
    rng: np.random.Generator,
) -> np.recarray:
    """Generate the local-area MIMO taps for every component of a CIR: one
    record per component, with its ``delay`` (s) and its N_r x N_t tap
    ``matrix``.

    Rayleigh taps are pure Kronecker-shaped diffuse draws. Rician taps add
    a rank-one dominant term, constant across the array with one random
    phase per component, carrying K/(K+1) of the power; the diffuse
    remainder is Kronecker-shaped. Ensemble-mean entry power equals the
    component power for every K. Draws come from :func:`draw_tap_noise`
    and matrices from :func:`tap_matrices`.
    """
    n_r, n_t = r_r_sqrt.shape[0], r_t_sqrt.shape[1]
    white, psi = draw_tap_noise(rng, cir.num_components, n_r, n_t)
    taps = np.recarray(cir.num_components, dtype=[("delay", float), ("matrix", complex, (n_r, n_t))])
    taps.delay = cir.delays
    taps.matrix = tap_matrices(white, psi, cir.powers, r_r_sqrt, r_t_sqrt, fading)
    return taps


def track_bytes(num_positions: int) -> int:
    """A bound on the bytes :func:`simulate_amplitude_track` holds at once
    on a track of N positions: six complex N x N matrices, for the track's
    correlation and the arrays that build it and take its square root
    (tracemalloc read 5.0-5.3 of them at N = 200-800)."""
    return 6 * 16 * num_positions * num_positions


def simulate_amplitude_track(
    cir: ChannelImpulseResponse,
    params: AutocorrParams,
    num_positions: int,
    delta_x: float,
    fading: FadingModel,
    rng: np.random.Generator,
) -> np.ndarray:
    """Voltage amplitudes of each CIR component along a linear track.

    Treats the track as a virtual 1 x N receive array at delta_x
    (wavelengths) steps and returns a (num_positions, num_components)
    amplitude grid; column j is component j observed over the local area.
    """
    require_grid("num_positions", num_positions, "delta_x", delta_x, least=2)
    geom = ArrayGeometry(num_elements=num_positions, spacing=delta_x)
    corr = build_amplitude_matched_corr(params, geom, fading)
    white, psi = draw_tap_noise(rng, cir.num_components, num_positions, 1)
    taps = tap_matrices(white, psi, cir.powers, matrix_sqrt_psd(corr), np.ones((1, 1)), fading)
    return np.abs(taps[:, :, 0]).T
