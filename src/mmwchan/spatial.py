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

Local-area "copies" of a multipath component combine a fully correlated
dominant term (common random phase across the array, rank one) with a
Kronecker-shaped diffuse term; the dominant term of a plane wave is
constant across elements and therefore bypasses the diffuse shaping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    TWO_PI,
    ArrayGeometry,
    AutocorrParams,
    ChannelImpulseResponse,
    FadingModel,
    MultipathComponent,
    db_to_linear,
)

#: Hermitian / unit-diagonal tolerance for correlation matrices.
HERMITIAN_ATOL = 1e-12
#: Eigenvalues above this (tiny negative) threshold count as nonnegative.
EIGENVALUE_TOL = -1e-10
#: Linear Rician K factor is clamped to this range when sampling.
K_LINEAR_MIN = 1e-6
K_LINEAR_MAX = 1e12


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """A repaired spatial correlation matrix for one link end."""

    entries: np.ndarray
    side: str = "receive"  # "receive" | "transmit"

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 2 or e.shape[0] != e.shape[1]:
            raise ValueError(f"correlation matrix must be square, got shape {e.shape}")
        e = e.copy()
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True, eq=False)
class CorrelatedTap:
    """One local-area MIMO tap: an N_r x N_t matrix at a fixed delay."""

    matrix: np.ndarray
    delay: float
    mean_power: float

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2:
            raise ValueError("tap matrix must be 2-D")
        if not np.all(np.isfinite(m.view(float))):
            raise ValueError("tap matrix entries must be finite")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)


def eval_autocorr(params: AutocorrParams, dr):
    """Exponential spatial autocorrelation a*exp(-b*dr) - c at separation
    dr (wavelengths, scalar or array, >= 0)."""
    arr = np.asarray(dr, dtype=float)
    if np.any(arr < 0):
        raise ValueError("separation dr must be >= 0")
    out = params.a * np.exp(-params.b * arr) - params.c
    return float(out) if np.isscalar(dr) or arr.ndim == 0 else out


def raw_ula_corr_matrix(
    params: AutocorrParams,
    geometry: ArrayGeometry,
    rng: np.random.Generator,
) -> np.ndarray:
    """The ULA construction before repair: magnitude from the
    exponential model, random phase per upper-triangle entry, zero phase on
    the diagonal, conjugate symmetry below."""
    n = geometry.num_elements
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * geometry.spacing
    mag = eval_autocorr(params, lags)
    theta = np.triu(rng.uniform(0.0, TWO_PI, size=(n, n)), k=1)
    theta = theta - theta.T  # theta_ki = -theta_ik, zero diagonal
    return np.exp(-1j * theta) * mag


def build_ula_corr_matrix(
    params: AutocorrParams,
    geometry: ArrayGeometry,
    rng_seed,
    side: str = "receive",
) -> CorrelationMatrix:
    """Random-phase exponential-model correlation matrix for a ULA,
    repaired to Hermitian PSD with unit diagonal. Deterministic per seed."""
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    raw = raw_ula_corr_matrix(params, geometry, rng)
    return repair_to_correlation(raw, side=side)


def _is_valid_correlation(m: np.ndarray) -> bool:
    if not np.allclose(m, m.conj().T, atol=HERMITIAN_ATOL, rtol=0.0):
        return False
    if not np.allclose(np.diag(m), 1.0, atol=HERMITIAN_ATOL, rtol=0.0):
        return False
    w = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
    return bool(w.min() >= EIGENVALUE_TOL)


def repair_to_correlation(matrix, side: str = "receive") -> CorrelationMatrix:
    """Project a square complex matrix onto the valid correlation matrices.

    Inputs already Hermitian with unit diagonal and nonnegative eigenvalues
    pass through unchanged. Otherwise: nearest Hermitian matrix (Frobenius),
    eigenvalue clamp at zero, then diagonal renormalization
    m_ik / sqrt(m_ii * m_kk). Idempotent.
    """
    m = np.asarray(matrix.entries if isinstance(matrix, CorrelationMatrix) else matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if _is_valid_correlation(m):
        return CorrelationMatrix(entries=m, side=side)
    herm = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(herm)
    w = np.clip(w, 0.0, None)
    clamped = (v * w) @ v.conj().T
    diag = np.real(np.diag(clamped))
    # a (numerically) zero diagonal forces a zero row by PSD Cauchy-Schwarz;
    # such elements are uncorrelated and get an identity row/column
    dead = diag <= 1e-14 * max(float(diag.max(initial=0.0)), 1.0)
    scale = np.where(dead, 1.0, 1.0 / np.sqrt(np.where(dead, 1.0, diag)))
    out = clamped * scale[:, None] * scale[None, :]
    out[dead, :] = 0.0
    out[:, dead] = 0.0
    out = (out + out.conj().T) / 2.0
    np.fill_diagonal(out, 1.0)
    return CorrelationMatrix(entries=out, side=side)


def matrix_sqrt_psd(corr) -> np.ndarray:
    """Hermitian PSD square root S with S @ S = input.

    Accepts a CorrelationMatrix or any Hermitian PSD ndarray; raises on
    non-Hermitian input.
    """
    m = np.asarray(corr.entries if isinstance(corr, CorrelationMatrix) else corr, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.allclose(m, m.conj().T, atol=1e-10, rtol=0.0):
        raise ValueError("matrix square root requires a Hermitian input")
    w, v = np.linalg.eigh(m)
    if w.min() < -1e-8:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w.min():.3e})")
    s = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    return (s + s.conj().T) / 2.0


def _clamped_k(fading: FadingModel) -> float:
    k = db_to_linear(fading.k_factor_db)
    return min(max(k, K_LINEAR_MIN), K_LINEAR_MAX)


def sample_hw(
    n_r: int,
    n_t: int,
    fading: FadingModel,
    rng_seed,
    los_phase: str = "per-entry",
) -> np.ndarray:
    """Draw an N_r x N_t small-scale fading matrix with E[|entry|^2] = 1.

    Rayleigh: zero-mean circular complex Gaussian. Rician with linear K:
    sqrt(K/(K+1))*exp(j*psi) + sqrt(1/(K+1))*g, psi uniform [0, 2pi) per
    entry (``los_phase="common"`` draws one psi for the whole matrix,
    giving the rank-one dominant component used by the simulation
    pipelines).
    """
    if n_r < 1 or n_t < 1:
        raise ValueError("matrix dimensions must be >= 1")
    rng = rng_seed if isinstance(rng_seed, np.random.Generator) else np.random.default_rng(rng_seed)
    g = (rng.standard_normal((n_r, n_t)) + 1j * rng.standard_normal((n_r, n_t))) / math.sqrt(2.0)
    if not fading.is_rician:
        return g
    k = _clamped_k(fading)
    if los_phase == "per-entry":
        psi = rng.uniform(0.0, TWO_PI, size=(n_r, n_t))
    elif los_phase == "common":
        psi = rng.uniform(0.0, TWO_PI)
    else:
        raise ValueError(f"unknown los_phase {los_phase!r}")
    return math.sqrt(k / (k + 1.0)) * np.exp(1j * psi) + math.sqrt(1.0 / (k + 1.0)) * g


def assemble_tap(
    r_r_sqrt: np.ndarray,
    h_w: np.ndarray,
    r_t_sqrt: np.ndarray,
    component: MultipathComponent,
) -> CorrelatedTap:
    """Kronecker-shape one fading draw into a local-area tap.

    matrix = sqrt(power_gain) * r_r_sqrt @ h_w @ r_t_sqrt; the scaling makes
    the ensemble-mean entry power equal the component's power gain (unit
    diagonals make the shaping power-preserving on average). Delay and
    angles stay those of the parent component.
    """
    r_r_sqrt = np.asarray(r_r_sqrt)
    r_t_sqrt = np.asarray(r_t_sqrt)
    h_w = np.asarray(h_w)
    if r_r_sqrt.shape[1] != h_w.shape[0] or h_w.shape[1] != r_t_sqrt.shape[0]:
        raise ValueError(
            f"dimension mismatch: {r_r_sqrt.shape} @ {h_w.shape} @ {r_t_sqrt.shape}"
        )
    matrix = math.sqrt(component.power_gain) * (r_r_sqrt @ h_w @ r_t_sqrt)
    return CorrelatedTap(matrix=matrix, delay=component.delay, mean_power=component.power_gain)


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
        k = _clamped_k(fading)
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
    side: str = "receive",
) -> CorrelationMatrix:
    """Deterministic real Toeplitz correlation matrix whose realized
    envelope power correlation matches the fitted exponential model."""
    n = geometry.num_elements
    lags = np.abs(np.subtract.outer(np.arange(n), np.arange(n))) * geometry.spacing
    f = eval_autocorr(params, lags)
    mag = amplitude_matched_magnitude(f, fading)
    mag = np.asarray(mag, dtype=float)
    np.fill_diagonal(mag, 1.0)
    return repair_to_correlation(mag.astype(complex), side=side)


def draw_tap_noise(
    rng: np.random.Generator, num_taps: int, n_r: int, n_t: int, rician: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """The fading draws of ``num_taps`` local-area taps, in tap order.

    Each tap takes the real then the imaginary standard normals of its
    N_r x N_t white matrix, then (Rician only) the dominant-term phase,
    uniform on [0, 2pi) and drawn as ``2pi * rng.random()``, which gives the
    same value as ``rng.uniform(0, 2pi)``. Returns the white draws, shape
    (num_taps, 2, N_r, N_t), and the phases (num_taps,), or None for
    Rayleigh.
    """
    if not rician:
        return rng.standard_normal((num_taps, 2, n_r, n_t)), None
    white = np.empty((num_taps, 2, n_r, n_t))
    psi = np.empty(num_taps)
    for l in range(num_taps):
        rng.standard_normal(out=white[l])
        psi[l] = TWO_PI * rng.random()
    return white, psi


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
    the stack it sits in, so its matrix does not depend on the stack.
    """
    g = (white[..., 0, :, :] + 1j * white[..., 1, :, :]) / math.sqrt(2.0)
    h = r_r_sqrt @ g @ r_t_sqrt
    if fading.is_rician:
        k = _clamped_k(fading)
        dominant = math.sqrt(k / (k + 1.0)) * np.exp(1j * psi)
        h = dominant[..., None, None] + math.sqrt(1.0 / (k + 1.0)) * h
    return np.sqrt(powers)[..., None, None] * h


def realize_taps(
    cir: ChannelImpulseResponse,
    r_r_sqrt: np.ndarray,
    r_t_sqrt: np.ndarray,
    fading: FadingModel,
    rng: np.random.Generator,
) -> list[CorrelatedTap]:
    """Generate the local-area MIMO taps for every component of a CIR.

    Rayleigh taps are pure Kronecker-shaped diffuse draws. Rician taps add
    a rank-one dominant term, constant across the array with one random
    phase per component, carrying K/(K+1) of the power; the diffuse
    remainder is Kronecker-shaped. Ensemble-mean entry power equals the
    component power for every K. Draws come from :func:`draw_tap_noise`
    and matrices from :func:`tap_matrices`.
    """
    white, psi = draw_tap_noise(
        rng, cir.num_components, r_r_sqrt.shape[0], r_t_sqrt.shape[1], fading.is_rician
    )
    powers = np.array(cir.power_gains())
    matrices = tap_matrices(white, psi, powers, r_r_sqrt, r_t_sqrt, fading)
    return [
        CorrelatedTap(matrix=m, delay=comp.delay, mean_power=comp.power_gain)
        for m, comp in zip(matrices, cir.components)
    ]


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
    if num_positions < 2:
        raise ValueError("a track needs at least 2 positions")
    geom = ArrayGeometry(num_elements=num_positions, spacing=delta_x)
    corr = build_amplitude_matched_corr(params, geom, fading)
    a = matrix_sqrt_psd(corr)
    taps = realize_taps(cir, a, np.ones((1, 1)), fading, rng)
    grid = np.column_stack([np.abs(t.matrix[:, 0]) for t in taps])
    return grid
