import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import expected_autocorr, rician_power_cdf
from mmwchan.core import (
    K_DB_MAX,
    ArrayGeometry,
    AutocorrParams,
    ChannelImpulseResponse,
    FadingModel,
    Scenario,
)
from mmwchan.spatial import (
    amplitude_matched_magnitude,
    build_amplitude_matched_corr,
    build_ula_corr_matrix,
    draw_tap_noise,
    raw_ula_corr_matrix,
    eval_autocorr,
    matrix_sqrt_psd,
    pipeline_corr_matrices,
    realize_taps,
    repair_to_correlation,
    simulate_amplitude_track,
    tap_matrices,
    track_bytes,
)

NLOS_VV = AutocorrParams(0.9, 1.0, -0.1)
LOS_VV = AutocorrParams(0.99, 1.95, 0.0)


def cir_of(delays=(0.0,), powers=(1.0,)):
    """A CIR of the given delays and powers, all angles and phases 0."""
    zeros = np.zeros((len(delays), 2))
    return ChannelImpulseResponse(
        delays=delays, powers=powers, phases=zeros[:, 0], aod=zeros, aoa=zeros, scenario=Scenario.parse("NLOS V-V")
    )


class TestEvalAutocorr:
    def test_los_vv_at_zero(self):
        assert eval_autocorr(LOS_VV, 0.0) == pytest.approx(0.99, abs=1e-12)

    def test_nlos_vv_at_zero(self):
        assert eval_autocorr(NLOS_VV, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_nlos_vv_at_half_wavelength(self):
        # independent evaluation of 0.9*e^(-0.5) + 0.1
        expected = expected_autocorr(0.9, 1.0, -0.1, 0.5)
        assert expected == pytest.approx(0.64588, abs=5e-6)
        assert eval_autocorr(NLOS_VV, 0.5) == pytest.approx(expected, abs=1e-12)

    def test_vectorized(self):
        drs = np.array([0.0, 0.5, 1.0])
        vals = eval_autocorr(NLOS_VV, drs)
        for dr, v in zip(drs, vals):
            assert v == pytest.approx(expected_autocorr(0.9, 1.0, -0.1, dr), abs=1e-12)

    def test_negative_dr_rejected(self):
        with pytest.raises(ValueError):
            eval_autocorr(NLOS_VV, -0.1)


class TestBuildUlaCorrMatrix:
    def test_single_element(self):
        raw = raw_ula_corr_matrix(LOS_VV, ArrayGeometry(num_elements=1), np.random.default_rng(0))
        assert raw.shape == (1, 1)
        assert raw[0, 0] == pytest.approx(0.99)  # a - c before repair
        built = build_ula_corr_matrix(LOS_VV, ArrayGeometry(num_elements=1), 0)
        assert built[0, 0] == pytest.approx(1.0)

    def test_two_element_offdiag_magnitude_pre_repair(self):
        raw = raw_ula_corr_matrix(NLOS_VV, ArrayGeometry(num_elements=2, spacing=0.5), np.random.default_rng(3))
        expected = expected_autocorr(0.9, 1.0, -0.1, 0.5)
        assert abs(raw[0, 1]) == pytest.approx(expected, abs=1e-12)
        assert raw[1, 0] == pytest.approx(np.conj(raw[0, 1]), abs=1e-15)
        assert raw[0, 0] == raw[1, 1] == pytest.approx(1.0)

    def test_rapid_decay_gives_identity(self):
        params = AutocorrParams(1.0, 400.0, 0.0)
        built = build_ula_corr_matrix(params, ArrayGeometry(num_elements=6), 1)
        assert np.allclose(built, np.eye(6), atol=1e-12)

    def test_deterministic_per_seed(self):
        g = ArrayGeometry(num_elements=8)
        a = build_ula_corr_matrix(NLOS_VV, g, 42)
        b = build_ula_corr_matrix(NLOS_VV, g, 42)
        c = build_ula_corr_matrix(NLOS_VV, g, 43)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_output_is_valid_correlation(self, n):
        e = build_ula_corr_matrix(NLOS_VV, ArrayGeometry(num_elements=n), 7)
        assert np.allclose(e, e.conj().T, atol=1e-12)
        assert np.allclose(np.diag(e), 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(e).min() >= -1e-10
        assert np.max(np.abs(e)) <= 1.0 + 1e-9


class TestRepair:
    def test_identity_fixed_point(self):
        eye = np.eye(4, dtype=complex)
        out = repair_to_correlation(eye)
        assert np.array_equal(out, eye)

    def test_valid_hermitian_psd_unchanged(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = g @ g.conj().T
        d = np.real(np.diag(m))
        m = m / np.sqrt(np.outer(d, d))
        np.fill_diagonal(m, 1.0)
        m = (m + m.conj().T) / 2
        out = repair_to_correlation(m)
        assert np.allclose(out, m, atol=1e-12)

    def test_indefinite_2x2_clamped_by_hand(self):
        # eigenvalues of [[1, 1.2], [1.2, 1]] are 2.2 and -0.2; clamping the
        # negative one and renormalizing the diagonal gives the all-ones matrix
        m = np.array([[1.0, 1.2], [1.2, 1.0]])
        out = repair_to_correlation(m)
        assert np.allclose(out, np.ones((2, 2)), atol=1e-12)
        assert np.linalg.eigvalsh(out).min() >= -1e-10
        assert np.allclose(np.diag(out), 1.0, atol=1e-12)
        assert np.max(np.abs(out)) <= 1.0 + 1e-9

    def test_idempotent_exact(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        once = repair_to_correlation(m)
        twice = repair_to_correlation(once)
        assert np.array_equal(once, twice)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 8))
    def test_repair_always_valid_and_idempotent(self, seed, n):
        rng = np.random.default_rng(seed)
        m = 2.0 * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        e = repair_to_correlation(m)
        assert np.allclose(e, e.conj().T, atol=1e-12)
        assert np.allclose(np.diag(e), 1.0, atol=1e-12)
        assert np.linalg.eigvalsh(e).min() >= -1e-10
        again = repair_to_correlation(e)
        assert np.array_equal(e, again)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            repair_to_correlation(np.ones((2, 3)))

    @pytest.mark.parametrize(
        "m", [np.eye(3, dtype=complex), np.array([[1.0, 1.2], [1.2, 1.0]], dtype=complex)],
        ids=["pass_through", "repair"],
    )
    def test_returns_read_only_copy(self, m):
        out = repair_to_correlation(m)
        kept = out.copy()
        assert out.dtype == complex and out.flags.c_contiguous
        with pytest.raises(ValueError):
            out[0, 0] = 0.0
        m[0, 1] = m[1, 0] = 0.5
        assert np.array_equal(out, kept)

    def test_builders_return_read_only_arrays(self):
        g = ArrayGeometry(num_elements=4)
        built = [
            build_ula_corr_matrix(NLOS_VV, g, 0),
            build_amplitude_matched_corr(NLOS_VV, g, FadingModel.rician(5.0)),
            *pipeline_corr_matrices(NLOS_VV, g, ArrayGeometry(num_elements=2)),
        ]
        for out in built:
            assert out.dtype == complex and out.flags.c_contiguous
            with pytest.raises(ValueError):
                out[0, 0] = 0.0


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt_psd(np.eye(3, dtype=complex)), np.eye(3), atol=1e-12)

    def test_scaled_diagonal(self):
        s = matrix_sqrt_psd(np.diag([4.0, 4.0]).astype(complex))
        assert np.allclose(s, np.diag([2.0, 2.0]), atol=1e-12)

    def test_2x2_offdiag_half(self):
        m = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=complex)
        s = matrix_sqrt_psd(m)
        assert np.linalg.norm(s @ s - m) < 1e-9
        assert np.allclose(s, s.conj().T, atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            matrix_sqrt_psd(np.array([[1.0, 0.5], [0.1, 1.0]]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_square_reproduces_repaired_matrices(self, seed):
        built = build_ula_corr_matrix(NLOS_VV, ArrayGeometry(num_elements=12), seed)
        s = matrix_sqrt_psd(built)
        assert np.linalg.norm(s @ s - built) < 1e-9


def unit_tap(n_r, n_t, fading, seed):
    """One unit-power N_r x N_t tap with identity correlation roots, drawn as
    the pipelines draw a tap. Its entries share one dominant phase, so their
    powers are i.i.d. with the model's marginal law."""
    white, psi = draw_tap_noise(np.random.default_rng(seed), 1, n_r, n_t)
    return tap_matrices(white, psi, np.ones(1), np.eye(n_r), np.eye(n_t), fading)[0]


class TestSampleHw:
    """Small-scale fading of one tap through :func:`draw_tap_noise` and
    :func:`tap_matrices` with identity correlations."""

    def test_huge_k_removes_fading(self):
        h = unit_tap(8, 8, FadingModel.rician(K_DB_MAX), 0)
        assert np.max(np.abs(np.abs(h) - 1.0)) < 1e-5

    def test_rayleigh_unit_mean_square(self):
        h = unit_tap(1000, 1000, FadingModel.rayleigh(), 1)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=5e-3)

    def test_rician_unit_mean_square(self):
        h = unit_tap(1000, 1000, FadingModel.rician(5.0), 2)
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=5e-3)

    def test_rician_power_distribution_matches_closed_form(self):
        k_db = 5.0
        k = 10 ** (k_db / 10)
        h = unit_tap(1000, 1000, FadingModel.rician(k_db), 3)
        p = (np.abs(h) ** 2).ravel()
        p = p / np.mean(p)
        x = np.sort(p)
        ecdf = np.arange(1, x.size + 1) / x.size
        gap = np.max(np.abs(ecdf - rician_power_cdf(x, k)))
        assert gap < 0.005

    def test_common_phase_mode_same_marginals(self):
        # one dominant phase for the whole matrix, as the pipelines draw it
        h = unit_tap(500, 500, FadingModel.rician(5.0), 4)
        p = (np.abs(h) ** 2).ravel()
        k = 10 ** 0.5
        x = np.sort(p / np.mean(p))
        ecdf = np.arange(1, x.size + 1) / x.size
        assert np.max(np.abs(ecdf - rician_power_cdf(x, k))) < 0.01

    def test_determinism(self):
        a = unit_tap(4, 3, FadingModel.rician(5.0), 77)
        b = unit_tap(4, 3, FadingModel.rician(5.0), 77)
        assert np.array_equal(a, b)


def shaped_tap(r_r_sqrt, h_w, r_t_sqrt, power=1.0):
    """``sqrt(power) * r_r_sqrt @ h_w @ r_t_sqrt`` through :func:`tap_matrices`,
    with the complex draw ``h_w`` given as its white parts."""
    h_w = np.asarray(h_w, dtype=complex)
    white = math.sqrt(2.0) * np.stack([h_w.real, h_w.imag])[None]
    return tap_matrices(white, None, np.array([power]), r_r_sqrt, r_t_sqrt, FadingModel.rayleigh())[0]


class TestAssembleTap:
    """Kronecker tap assembly: the Rayleigh path of :func:`tap_matrices`,
    and the delay and power that :func:`realize_taps` copies into a tap."""

    def test_identity_correlations_all_ones(self):
        matrix = shaped_tap(np.eye(3), np.ones((3, 2)), np.eye(2), power=1.0)
        assert np.allclose(matrix, np.ones((3, 2)))

    def test_power_scaling(self):
        h = np.full((2, 2), 0.7 + 0.1j)
        matrix = shaped_tap(np.eye(2), h, np.eye(2), power=0.25)
        assert np.allclose(matrix, 0.5 * h)

    def test_fully_correlated_receive_rows_identical(self):
        r = repair_to_correlation(np.ones((2, 2)))
        s = matrix_sqrt_psd(r)
        rng = np.random.default_rng(8)
        h_w = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        matrix = shaped_tap(s, h_w, np.eye(2))
        assert np.allclose(matrix[0], matrix[1], atol=1e-9)

    def test_delay_copied(self):
        cir = cir_of(delays=[30e-9])
        tap = realize_taps(cir, np.eye(2), np.eye(2), FadingModel.rayleigh(), np.random.default_rng(0))[0]
        assert tap.delay == 30e-9

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            shaped_tap(np.eye(3), np.ones((2, 2)), np.eye(2))


class TestSecondMomentIdentities:
    def test_kronecker_identity_small(self):
        rng = np.random.default_rng(12)
        rr = build_ula_corr_matrix(NLOS_VV, ArrayGeometry(num_elements=4), rng)
        rt = build_ula_corr_matrix(NLOS_VV, ArrayGeometry(num_elements=3), rng)
        a = matrix_sqrt_psd(rr)
        b = matrix_sqrt_psd(rt)
        n = 60_000
        g = (rng.standard_normal((n, 4, 3)) + 1j * rng.standard_normal((n, 4, 3))) / math.sqrt(2)
        taps = np.einsum("ij,njk,kl->nil", a, g, b)
        vecs = taps.transpose(0, 2, 1).reshape(n, -1)  # column-major vec
        cov = vecs.T @ vecs.conj() / n  # E[v v^H]
        theory = np.kron(rt.T, rr)
        assert np.max(np.abs(cov - theory)) < 0.03

    @pytest.mark.parametrize(
        "params",
        [AutocorrParams(0.99, 1.95, 0.0), AutocorrParams(1.0, 0.9, 0.05),
         AutocorrParams(0.9, 1.0, -0.1), AutocorrParams(1.0, 2.6, 0.0)],
    )
    def test_power_preservation_rayleigh(self, params):
        rng = np.random.default_rng(21)
        rr = build_ula_corr_matrix(params, ArrayGeometry(num_elements=6), rng)
        rt = build_ula_corr_matrix(params, ArrayGeometry(num_elements=2), rng)
        a = matrix_sqrt_psd(rr)
        b = matrix_sqrt_psd(rt)
        n = 100_000
        g = (rng.standard_normal((n, 6, 2)) + 1j * rng.standard_normal((n, 6, 2))) / math.sqrt(2)
        taps = math.sqrt(0.37) * np.einsum("ij,njk,kl->nil", a, g, b)
        mean_power = np.mean(np.abs(taps) ** 2, axis=0)
        assert np.max(np.abs(mean_power - 0.37)) < 0.01 * 0.37

    def test_realize_taps_power_preservation_rician(self):
        cir = cir_of(delays=[0.0, 40e-9], powers=[0.6, 0.4])
        fading = FadingModel.rician(5.0)
        rr = build_amplitude_matched_corr(NLOS_VV, ArrayGeometry(num_elements=5), FadingModel.rayleigh())
        rt = build_amplitude_matched_corr(NLOS_VV, ArrayGeometry(num_elements=2), FadingModel.rayleigh())
        a, b = matrix_sqrt_psd(rr), matrix_sqrt_psd(rt)
        rng = np.random.default_rng(31)
        acc = [np.zeros((5, 2)) for _ in range(cir.num_components)]
        n = 30_000
        for _ in range(n):
            for j, tap in enumerate(realize_taps(cir, a, b, fading, rng)):
                acc[j] += np.abs(tap.matrix) ** 2
        for j, power in enumerate(cir.powers.tolist()):
            mean_power = acc[j] / n
            assert np.max(np.abs(mean_power - power)) < 0.02 * power


class TestAmplitudeMatchedMapping:
    def test_rayleigh_sqrt_map(self):
        assert amplitude_matched_magnitude(0.64, FadingModel.rayleigh()) == pytest.approx(0.8)
        assert amplitude_matched_magnitude(-0.04, FadingModel.rayleigh()) == pytest.approx(-0.2)

    def test_rician_limits(self):
        f = 0.6459
        hi = amplitude_matched_magnitude(f, FadingModel.rician(100.0))
        lo = amplitude_matched_magnitude(f, FadingModel.rician(-50.0))
        assert hi == pytest.approx(f, abs=1e-6)
        assert lo == pytest.approx(math.sqrt(f), abs=1e-3)

    @pytest.mark.parametrize("k_db", [0.0, 5.0, 9.0, 15.0])
    @pytest.mark.parametrize("f", [0.9, 0.6459, 0.3, 0.05])
    def test_rician_map_inverts_power_correlation(self, k_db, f):
        k = 10 ** (k_db / 10)
        s2 = k / (k + 1)
        sig2 = 1 / (k + 1)
        rho = amplitude_matched_magnitude(f, FadingModel.rician(k_db))
        realized = (2 * s2 * sig2 * rho + sig2**2 * rho**2) / (2 * s2 * sig2 + sig2**2)
        assert realized == pytest.approx(f, abs=1e-12)

    def test_matrix_builder_valid(self):
        for fading in [FadingModel.rayleigh(), FadingModel.rician(5.0)]:
            e = build_amplitude_matched_corr(NLOS_VV, ArrayGeometry(num_elements=20), fading)
            assert np.allclose(e, e.conj().T, atol=1e-12)
            assert np.allclose(np.diag(e), 1.0, atol=1e-12)
            assert np.linalg.eigvalsh(e).min() >= -1e-10


class TestCorrelationRealization:
    def test_track_amplitude_autocorr_matches_model_at_half_wavelength(self):
        """Rician K=5 dB fields over a measured-length track (33 wavelengths,
        66 half-wavelength steps) must realize the fitted amplitude
        autocorrelation at one half-wavelength lag."""
        from mmwchan.estimators import TrackMeasurement, spatial_autocorrelation

        cir = cir_of()
        fading = FadingModel.rician(5.0)
        corr = build_amplitude_matched_corr(NLOS_VV, ArrayGeometry(num_elements=66, spacing=0.5), fading)
        a = matrix_sqrt_psd(corr)
        ones = np.ones((1, 1))
        rng = np.random.default_rng(17)
        vals = []
        for _ in range(10_000):
            tap = realize_taps(cir, a, ones, fading, rng)[0]
            track = TrackMeasurement(amplitudes=np.abs(tap.matrix), delta_x=0.5)
            curve = spatial_autocorrelation(track, 0)
            if np.isfinite(curve.values[1]):
                vals.append(curve.values[1])
        target = expected_autocorr(0.9, 1.0, -0.1, 0.5)
        assert abs(float(np.mean(vals)) - target) < 0.1


@pytest.mark.parametrize("num_positions", [100, 300])
@pytest.mark.parametrize("fading", [FadingModel.rayleigh(), FadingModel.rician(5.0)], ids=["rayleigh", "rician"])
def test_track_bytes_bounds_the_track_peak(num_positions, fading):
    cir = cir_of(delays=(0.0, 5e-9, 9e-9), powers=(0.5, 0.3, 0.2))
    rng = np.random.default_rng(3)
    tracemalloc.start()
    try:
        simulate_amplitude_track(cir, NLOS_VV, num_positions, 0.5, fading, rng)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.5 * track_bytes(num_positions) < peak <= track_bytes(num_positions)
