import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_force_autocorr,
    exponential_power_cdf,
    reference_average_autocorr,
    reference_fit_autocorr_mmse,
    reference_ls_given_b,
)
from mmwchan import estimators
from mmwchan.core import FadingModel
from mmwchan.estimators import (
    AutocorrCurve,
    TrackFileError,
    TrackMeasurement,
    average_autocorr,
    empirical_power_cdf,
    estimate_k_factor,
    fit_autocorr_mmse,
    read_track,
    spatial_autocorrelation,
    write_track,
)
from mmwchan.spatial import draw_tap_noise, tap_matrices


def unit_tap(n_r, n_t, fading, seed):
    """One unit-power N_r x N_t tap with identity correlation roots, drawn as
    the pipelines draw a tap; its entries' powers are i.i.d."""
    white, psi = draw_tap_noise(np.random.default_rng(seed), 1, n_r, n_t)
    return tap_matrices(white, psi, np.ones(1), np.eye(n_r), np.eye(n_t), fading)[0]


def track_from_columns(*cols, delta_x=0.5):
    return TrackMeasurement(amplitudes=np.column_stack(cols), delta_x=delta_x)


class TestSpatialAutocorrelation:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(0)
        t = track_from_columns(rng.random(20) + 0.5)
        curve = spatial_autocorrelation(t, 0)
        assert curve.values[0] == pytest.approx(1.0, abs=1e-12)
        assert curve.lags[0] == 0.0

    def test_alternating_sequence_lag_one_is_minus_one(self):
        # amplitudes [2,0,2,0,...] alternate by +-1 around the window means
        seq = np.array([2.0, 0.0] * 6)
        t = track_from_columns(seq)
        curve = spatial_autocorrelation(t, 0)
        assert curve.values[1] == pytest.approx(-1.0, abs=1e-12)

    def test_constant_track_undefined(self):
        t = track_from_columns(np.full(16, 3.0))
        curve = spatial_autocorrelation(t, 0)
        assert np.all(np.isnan(curve.values))

    def test_lag_grid_in_wavelengths(self):
        t = track_from_columns(np.arange(20.0) + 1.0, delta_x=0.25)
        curve = spatial_autocorrelation(t, 0)
        assert np.allclose(curve.lags, 0.25 * np.arange(len(curve.lags)))
        assert len(curve.lags) == 20 - 8 + 1  # overlap floor of 8 samples

    def test_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(42)
        cases = []
        for trial in range(90):
            n = int(rng.integers(9, 17)) if trial < 25 else int(rng.integers(2, 41))
            col = rng.random(n) * 3.0
            if trial % 3 == 1:
                # a constant run (zeros every other time): zero-variance
                # windows at some lags only
                start = int(rng.integers(0, n))
                col[start : start + int(rng.integers(n // 2, n + 1))] = 0.0 if trial % 2 else col[start]
            cases.append((col, (8, 0, 1, n + 3)))
        # the benchmark's 132-position tracks and longer ones; min_overlap
        # = n gives one lag, where a pairwise sum differs from an ordered one
        for n in (41, 50, 64, 132, 200):
            col = rng.random(n) * 3.0
            cases.append((col, (8, n - 20, n)))
        for col, overlaps in cases:
            t = track_from_columns(col)
            for min_overlap in overlaps:
                curve = spatial_autocorrelation(t, 0, min_overlap=min_overlap)
                for i, v in enumerate(curve.values):
                    ref = brute_force_autocorr([float(x) for x in col], i)
                    if math.isnan(ref):
                        assert math.isnan(v)
                    else:
                        assert v == ref  # bit-for-bit

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 100000), n=st.integers(2, 40))
    def test_values_bounded_by_one(self, seed, n):
        rng = np.random.default_rng(seed)
        t = track_from_columns(rng.random(n))
        curve = spatial_autocorrelation(t, 0)
        finite = curve.values[np.isfinite(curve.values)]
        assert np.all(np.abs(finite) <= 1.0 + 1e-9)

    def test_bad_bin_index(self):
        t = track_from_columns(np.ones(10))
        with pytest.raises(ValueError):
            spatial_autocorrelation(t, 3)


class TestAverageAutocorr:
    def test_single_bin_equals_bin_curve(self):
        rng = np.random.default_rng(1)
        col = rng.random(16)
        t = track_from_columns(col)
        avg = average_autocorr(t)
        single = spatial_autocorrelation(t, 0)
        assert np.allclose(avg.values, single.values, equal_nan=True)

    def test_opposite_curves_cancel(self):
        # alternating bin has lag-1 correlation -1, monotone bin has +1
        alternating = np.array([2.0, 0.0] * 8)
        monotone = np.arange(16.0) + 1.0
        t = track_from_columns(alternating, monotone)
        avg = average_autocorr(t)
        assert avg.values[1] == pytest.approx(0.0, abs=1e-12)

    def test_zero_variance_bins_excluded(self):
        rng = np.random.default_rng(2)
        fading_bin = rng.random(16) + 0.5
        dead_bin = np.zeros(16)
        t = track_from_columns(fading_bin, dead_bin)
        avg = average_autocorr(t)
        only = spatial_autocorrelation(t, 0)
        assert np.allclose(avg.values, only.values, equal_nan=True)

    def test_multi_bin_mean_of_bin_curves_bitwise(self):
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(30):
            n, bins = int(rng.integers(2, 41)), int(rng.integers(2, 40))
            amps = rng.random((n, bins))
            amps[:, rng.random(bins) < 0.3] = 1.5  # dead bins
            amps[: n // 2, 0] = 0.0  # undefined at some lags only
            cases.append((amps, (0, 8, n)))
        # the benchmark's shape (132 x 2, min_overlap 112), longer tracks,
        # and two-bin one-lag grids (min_overlap = n)
        for n, bins, overlaps in ((132, 2, (112, 8, 132)), (60, 5, (8, 60)), (9, 2, (9,)), (50, 2, (50,))):
            cases.append((rng.random((n, bins)), overlaps))
        for amps, overlaps in cases:
            n, bins = amps.shape
            t = TrackMeasurement(amplitudes=amps, delta_x=0.5)
            for min_overlap in overlaps:
                curves = np.vstack(
                    [spatial_autocorrelation(t, b, min_overlap=min_overlap).values for b in range(bins)]
                )
                counts = np.isfinite(curves).sum(axis=0)
                if not counts.any():
                    continue
                mean = np.where(counts > 0, np.nansum(curves, axis=0) / np.maximum(counts, 1), np.nan)
                assert average_autocorr(t, min_overlap=min_overlap).values.tobytes() == mean.tobytes()

    def test_bin_groups_do_not_change_values(self, monkeypatch):
        rng = np.random.default_rng(13)
        t = TrackMeasurement(amplitudes=rng.random((40, 9)), delta_x=0.5)
        whole = average_autocorr(t, min_overlap=2).values
        monkeypatch.setattr(estimators, "_BATCH_BYTES", 1)  # one bin, and one lag, per group
        assert average_autocorr(t, min_overlap=2).values.tobytes() == whole.tobytes()

    def test_all_bins_dead_raises(self):
        t = track_from_columns(np.zeros(12), np.full(12, 2.0))
        with pytest.raises(ValueError):
            average_autocorr(t)

    def test_track_without_bins_raises(self):
        # every window of no bin is defined, but there is no bin to average
        with pytest.raises(ValueError, match="no delay bin has a defined autocorrelation"):
            average_autocorr(TrackMeasurement(amplitudes=np.ones((12, 0))))

    @pytest.mark.parametrize("case", ["all-fading", "dead-bin", "deep-lags-undefined"])
    def test_equals_double_loop_on_both_paths(self, case):
        # every window defined takes the unmasked mean; any undefined one
        # the masked mean, whose NaN bins drop out lag by lag
        rng = np.random.default_rng(24)
        amps = rng.random((40, 3)) + 0.1
        if case == "dead-bin":
            amps[:, 1] = 0.7
        elif case == "deep-lags-undefined":
            amps[25:, 2] = 0.4  # the y window is constant from lag 25 on
        values, all_defined = estimators._autocorr_grid(amps, 8)
        assert all_defined == (case == "all-fading")
        if case == "deep-lags-undefined":
            undefined = np.isnan(values[2])
            assert undefined.any() and not undefined[:25].any()
        t = TrackMeasurement(amplitudes=amps, delta_x=0.5)
        want = reference_average_autocorr(amps, 8)
        assert not np.isnan(want).any()
        assert average_autocorr(t).values.tobytes() == want.tobytes()

    def test_lag_groups_do_not_change_values(self, monkeypatch):
        rng = np.random.default_rng(25)
        amps = rng.random((40, 3))
        amps[:, 1] = 1.5  # a dead bin
        amps[25:, 2] = 0.4  # undefined at its deep lags only
        t = TrackMeasurement(amplitudes=amps, delta_x=0.5)
        whole = [average_autocorr(t, min_overlap=m).values.tobytes() for m in (2, 8, 30)]
        bins = [spatial_autocorrelation(t, b).values.tobytes() for b in range(3)]
        # one lag, then three lags, of one bin per group
        for budget in (1, 3 * 8 * 41):
            monkeypatch.setattr(estimators, "_BATCH_BYTES", budget)
            assert [average_autocorr(t, min_overlap=m).values.tobytes() for m in (2, 8, 30)] == whole
            assert [spatial_autocorrelation(t, b).values.tobytes() for b in range(3)] == bins

    def test_long_track_memory_stays_in_budget(self):
        # one bin of 2000 positions: 1993 lags at the default min_overlap.
        # Whole, its windows took 8 * 2001 * 1993 bytes (32 MB) per float
        # array, and the kernel held about ten such arrays; in groups of
        # lags each group holds about ten budget-sized ones
        rng = np.random.default_rng(26)
        t = track_from_columns(rng.random(2000))
        tracemalloc.start()
        try:
            curve = average_autocorr(t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * estimators._BATCH_BYTES
        col = t.amplitudes[:, 0].tolist()
        assert curve.values.size == 1993
        for lag in (0, 1, 64, 65, 1000, 1992):  # both sides of the first group edge
            assert curve.values[lag] == brute_force_autocorr(col, lag)

    @pytest.mark.parametrize(
        "abc, k_db, tol",
        [
            # without a correlation floor the ensemble curve tracks the model
            ((0.99, 1.95, 0.0), 12.0, 0.1),
            # the window-mean convention removes a correlation floor, pulling
            # the deep lags below the model by up to the floor magnitude and
            # change (forward-simulated: -0.164 at 3 wavelengths, 66 steps)
            ((0.9, 1.0, -0.1), 9.0, 0.17),
        ],
    )
    def test_ensemble_mean_tracks_exponential_model(self, abc, k_db, tol):
        from mmwchan.core import (
            ArrayGeometry,
            AutocorrParams,
            ChannelImpulseResponse,
            FadingModel,
            Scenario,
        )
        from mmwchan.spatial import (
            build_amplitude_matched_corr,
            eval_autocorr,
            matrix_sqrt_psd,
            realize_taps,
        )

        params = AutocorrParams(*abc)
        fading = FadingModel.rician(k_db)
        scen = Scenario.parse("NLOS V-V")
        zeros = np.zeros((2, 2))
        cir = ChannelImpulseResponse(
            delays=[0.0, 60e-9], powers=[0.6, 0.4], phases=zeros[:, 0], aod=zeros, aoa=zeros, scenario=scen
        )
        n_pos = 66
        corr = build_amplitude_matched_corr(params, ArrayGeometry(num_elements=n_pos, spacing=0.5), fading)
        a = matrix_sqrt_psd(corr)
        ones = np.ones((1, 1))
        rng = np.random.default_rng(123)
        acc = cnt = lags = None
        for _ in range(4000):
            taps = realize_taps(cir, a, ones, fading, rng)
            grid = np.column_stack([np.abs(t.matrix[:, 0]) for t in taps])
            curve = average_autocorr(
                TrackMeasurement(amplitudes=grid, delta_x=0.5), min_overlap=n_pos - 6
            )
            v = curve.values
            if acc is None:
                acc = np.zeros_like(v)
                cnt = np.zeros_like(v)
                lags = curve.lags
            m = np.isfinite(v)
            acc[m] += v[m]
            cnt[m] += 1
        mean_curve = acc / np.maximum(cnt, 1)
        model = eval_autocorr(params, lags)
        deltas = np.abs(mean_curve - model)
        assert deltas[lags <= 0.5].max() <= 0.1  # half-wavelength lag always tight
        assert deltas[lags <= 3.0].max() <= tol


class TestFitAutocorrMmse:
    def test_exact_recovery(self):
        lags = np.arange(0.0, 5.0 + 1e-9, 0.5)
        vals = 0.99 * np.exp(-1.95 * lags) - 0.0
        fit = fit_autocorr_mmse(AutocorrCurve(lags=lags, values=vals))
        assert fit.identifiable
        assert fit.params.a == pytest.approx(0.99, abs=1e-3)
        assert fit.params.b == pytest.approx(1.95, abs=1e-3)
        assert fit.params.c == pytest.approx(0.0, abs=1e-3)
        assert fit.residual < 1e-8

    def test_exact_recovery_negative_floor(self):
        lags = np.arange(0.0, 4.0 + 1e-9, 0.5)
        vals = 0.9 * np.exp(-1.0 * lags) + 0.1
        fit = fit_autocorr_mmse(AutocorrCurve(lags=lags, values=vals))
        assert fit.params.a == pytest.approx(0.9, abs=1e-3)
        assert fit.params.b == pytest.approx(1.0, abs=1e-3)
        assert fit.params.c == pytest.approx(-0.1, abs=1e-3)

    def test_noisy_recovery(self):
        lags = np.arange(0.0, 5.0 + 1e-9, 0.5)
        clean = 0.9 * np.exp(-1.0 * lags) + 0.1
        rng = np.random.default_rng(7)
        hits = 0
        for _ in range(100):
            noisy = np.clip(clean + rng.uniform(-0.02, 0.02, size=lags.size), -1.0, 1.0)
            fit = fit_autocorr_mmse(AutocorrCurve(lags=lags, values=noisy))
            ok = (
                abs(fit.params.a - 0.9) <= 0.1
                and abs(fit.params.b - 1.0) <= 0.1
                and abs(fit.params.c + 0.1) <= 0.1
            )
            hits += ok
        assert hits >= 95

    def test_constant_curve_non_identifiable(self):
        lags = np.arange(0.0, 3.0, 0.5)
        fit = fit_autocorr_mmse(AutocorrCurve(lags=lags, values=np.ones(lags.size)))
        assert not fit.identifiable
        assert fit.params.b == 0.0

    def test_nan_lags_skipped(self):
        lags = np.arange(0.0, 4.0, 0.5)
        vals = 0.9 * np.exp(-lags) + 0.1
        vals[3] = math.nan
        fit = fit_autocorr_mmse(AutocorrCurve(lags=lags, values=vals))
        assert fit.params.b == pytest.approx(1.0, abs=0.01)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_autocorr_mmse(AutocorrCurve(lags=np.array([0.0, 0.5]), values=np.array([1.0, 0.5])))

    def test_fitted_params_satisfy_invariants(self):
        # a noisy curve close to the a - c = 1 boundary must still yield
        # legal parameters (a - c <= 1)
        lags = np.arange(0.0, 4.0, 0.5)
        vals = np.clip(0.9 * np.exp(-lags) + 0.1 + 0.03 * np.cos(9 * lags), -1, 1)
        fit = fit_autocorr_mmse(AutocorrCurve(lags=lags, values=vals))
        assert 0.0 < fit.params.a - fit.params.c <= 1.0 + 1e-9

    def test_decay_exponent_overflow_runs(self):
        # lags near the float maximum: b * lag overflows to inf on most of
        # the b grid, where exp(-b * lag) is exactly 0; it is 0 for every
        # grid b > 0, so the residual is flat in b and b is not identifiable
        lags = np.arange(5) * 1e307
        fit = fit_autocorr_mmse(AutocorrCurve(lags=lags, values=[1.0, 0.5, 0.3, 0.2, 0.1]))
        assert not fit.identifiable and math.isfinite(fit.residual)
        # the model is 1 at lag 0 and the floor -c at the others
        assert fit.params.a == pytest.approx(0.725) and fit.params.c == pytest.approx(-0.275)


_HALF = np.arange(8) * 0.5
#: Curves that drive the least-squares kernel through each of its branches
#: on the decay grid: lags far out, where exp(-b*lag) underflows to a
#: constant 0 (degenerate det with x != 1, then the a - c > 1 refit); a
#: rising curve (a <= 0); a curve at the a - c = 1 edge (refit); a negative
#: curve (a - c <= 0). The b = 0 row is degenerate with x = 1 everywhere.
BRANCH_CURVES = {
    "far": (600.0 + _HALF, 0.3 + 0.1 * np.cos(600.0 + _HALF)),
    "rising": (_HALF, 0.2 - 0.6 * np.exp(-_HALF)),
    "edge": (_HALF, np.clip(0.95 * np.exp(-2 * _HALF) + 0.05 + 0.04 * np.cos(9 * _HALF), -1, 1)),
    "negative": (_HALF, -0.5 + 0.3 * np.exp(-_HALF)),
}
FIT_GRID = np.arange(0.0, 10.0 + 1e-9, 0.01)


def _fit_outputs(lags, values):
    fit = fit_autocorr_mmse(AutocorrCurve(lags=lags, values=values))
    return fit.params.a, fit.params.b, fit.params.c, fit.residual, fit.identifiable


def _generated_curves(count, seed=2015):
    """Noisy exponential curves with 3-40 lags, some with NaN holes."""
    rng = np.random.default_rng(seed)
    curves = []
    while len(curves) < count:
        n = int(rng.integers(3, 41))
        lags = np.arange(n) * float(rng.choice([0.25, 0.5, 1.0]))
        a, b, c = rng.uniform(0.3, 1.2), rng.uniform(0.0, 12.0), rng.uniform(-0.5, 0.5)
        noise = rng.uniform(0.0, 0.5) * rng.standard_normal(n)
        vals = np.clip(a * np.exp(-b * lags) - c + noise, -1.0, 1.0)
        if rng.random() < 0.3:
            vals[rng.integers(0, n, size=int(rng.integers(1, 3)))] = math.nan
        if np.isfinite(vals).sum() >= 3:
            curves.append((lags, vals))
    return curves


class TestFitAgainstScalarOracle:
    def test_kernel_rows_match_scalar_on_every_branch(self):
        seen = dict(degenerate_one=0, degenerate_other=0, low=0, refit=0, nonpositive=0)
        for lags, y in BRANCH_CURVES.values():
            x = np.exp(-FIT_GRID[:, None] * lags)
            a, c, resid = estimators._ls_rows(x, y)
            for i, row in enumerate(x):
                want = reference_ls_given_b(row, y)
                assert (float(a[i]), float(c[i]), float(resid[i])) == want
                if np.ptp(row) == 0.0:
                    seen["degenerate_one" if row[0] == 1.0 else "degenerate_other"] += 1
                seen["low"] += want[0] == 1e-6
                seen["refit"] += want[1] == want[0] - 1.0
                seen["nonpositive"] += want[1] == want[0] - 1e-6
        assert all(seen.values()), seen

    @pytest.mark.parametrize(
        "x, y, branch",
        [
            (np.ones(8), BRANCH_CURVES["rising"][1], lambda a, c, x: np.ptp(x) == 0.0 and x[0] == 1.0),
            (np.exp(-10.0 * BRANCH_CURVES["far"][0]), BRANCH_CURVES["far"][1],
             lambda a, c, x: np.ptp(x) == 0.0 and x[0] != 1.0),
            (np.full(8, 0.5), BRANCH_CURVES["negative"][1], lambda a, c, x: np.ptp(x) == 0.0 and x[0] != 1.0),
            (np.exp(-1.0 * _HALF), BRANCH_CURVES["rising"][1], lambda a, c, x: a == 1e-6),
            (np.exp(-3.0 * _HALF), BRANCH_CURVES["edge"][1], lambda a, c, x: c == a - 1.0 and np.ptp(x) > 0.0),
            # x = 1 everywhere: the refit's denominator is 0 and a is kept
            (np.ones(8), np.full(8, 1.0 + 5e-10), lambda a, c, x: c == a - 1.0 and a == 1.0 + 5e-10),
            (np.exp(-1.0 * _HALF), BRANCH_CURVES["negative"][1], lambda a, c, x: c == a - 1e-6),
        ],
        ids=["degenerate-x1", "degenerate-x0", "degenerate-half", "a-low", "refit", "refit-denom-0", "a-minus-c-low"],
    )
    def test_one_row_objective_matches_rows_and_scalar_on_each_branch(self, x, y, branch):
        a, c, resid = estimators._ls_rows(x[None, :], y)
        got = estimators._ls_row(x, y)
        assert got == (float(a[0]), float(c[0]), float(resid[0])) == reference_ls_given_b(x, y)
        assert branch(got[0], got[1], x)

    @pytest.mark.parametrize("b", [0.0, 1e-9, 10.0, 1e300])
    @pytest.mark.parametrize("name", sorted(BRANCH_CURVES))
    def test_one_row_objective_matches_at_extreme_rates(self, name, b):
        lags, y = BRANCH_CURVES[name]
        with np.errstate(over="ignore"):
            x = np.exp(-b * lags)
        a, c, resid = estimators._ls_rows(x[None, :], y)
        got = estimators._ls_row(x, y)
        assert got == (float(a[0]), float(c[0]), float(resid[0])) == reference_ls_given_b(x, y)
        assert all(type(v) is float for v in got)

    @pytest.mark.parametrize("name", sorted(BRANCH_CURVES))
    def test_branch_curves_bitwise(self, name):
        lags, values = BRANCH_CURVES[name]
        assert _fit_outputs(lags, values) == reference_fit_autocorr_mmse(lags, values)

    @pytest.mark.parametrize(
        "lags,identifiable",
        [
            (np.arange(6) * 1e306, False),  # exp(-b*lag) underflows to 0 beyond lag 0 for every b > 0
            (np.arange(6) * 1e-20, False),  # exp(-b*lag) rounds to 1 at every lag for every b <= 10
            (600.0 + np.arange(6) * 0.5, True),  # underflows for b > 1.2 only
        ],
        ids=["far", "near", "far-from-0"],
    )
    def test_model_column_constant_in_b_is_flagged_bitwise(self, lags, identifiable):
        values = np.array([1.0, 0.5, 0.3, 0.35, 0.2, 0.1])
        got = _fit_outputs(lags, values)
        assert got[4] is identifiable
        assert got == reference_fit_autocorr_mmse(lags, values)

    def test_constant_curve_bitwise(self):
        lags, values = _HALF, np.full(_HALF.size, 0.4)
        assert _fit_outputs(lags, values) == reference_fit_autocorr_mmse(lags, values)

    def test_generated_curves_bitwise(self):
        curves = _generated_curves(300)
        mismatched = [
            i for i, (lags, vals) in enumerate(curves)
            if _fit_outputs(lags, vals) != reference_fit_autocorr_mmse(lags, vals)
        ]
        assert mismatched == []


class TestKFactor:
    @pytest.mark.parametrize("k_db", [3.0, 9.0])
    def test_round_trip(self, k_db):
        h = unit_tap(400, 250, FadingModel.rician(k_db), 5)
        p = (np.abs(h) ** 2).ravel()
        est = estimate_k_factor(p / p.mean())
        assert est.ok
        assert est.k_db == pytest.approx(k_db, abs=1.0)

    def test_rayleigh_flagged_or_tiny(self):
        h = unit_tap(400, 250, FadingModel.rayleigh(), 6)
        p = (np.abs(h) ** 2).ravel()
        est = estimate_k_factor(p / p.mean())
        assert est.status == "non_rician" or est.k_db < -10.0

    def test_constant_samples_no_fading(self):
        est = estimate_k_factor(np.ones(200))
        assert est.status == "no_fading"
        assert est.k_db == math.inf

    def test_preconditions(self):
        with pytest.raises(ValueError):
            estimate_k_factor(np.ones(50))
        with pytest.raises(ValueError):
            estimate_k_factor(np.concatenate([np.ones(150), [0.0]]))


class TestEmpiricalPowerCdf:
    def test_constant_samples_single_point(self):
        db, prob = empirical_power_cdf([1.0, 1.0, 1.0, 1.0])
        assert db.shape == (1,)
        assert db[0] == pytest.approx(0.0, abs=1e-12)
        assert prob[0] == 1.0

    def test_rayleigh_matches_exponential_law(self):
        h = unit_tap(400, 250, FadingModel.rayleigh(), 8)
        p = (np.abs(h) ** 2).ravel()
        db, prob = empirical_power_cdf(p)
        lin = 10.0 ** (db / 10.0)
        gap = np.max(np.abs(prob - exponential_power_cdf(lin)))
        assert gap < 0.01

    def test_higher_k_is_steeper(self):
        def spread(k_db):
            h = unit_tap(300, 300, FadingModel.rician(k_db), 9)
            db, prob = empirical_power_cdf((np.abs(h) ** 2).ravel())
            lo = db[np.searchsorted(prob, 0.1)]
            hi = db[np.searchsorted(prob, 0.9)]
            return hi - lo

        assert spread(15.0) < spread(5.0)

    def test_cdf_is_monotone(self):
        rng = np.random.default_rng(10)
        db, prob = empirical_power_cdf(rng.random(1000) + 0.1)
        assert np.all(np.diff(db) > 0)
        assert np.all(np.diff(prob) > 0)
        assert prob[-1] == 1.0


class TestTrackFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        t = TrackMeasurement(amplitudes=rng.random((11, 4)), delta_x=0.5, delay_bin_ns=2.5)
        path = tmp_path / "track.csv"
        write_track(t, path)
        back = read_track(path)
        assert back.delta_x == t.delta_x
        assert back.delay_bin_ns == t.delay_bin_ns
        assert np.array_equal(back.amplitudes, t.amplitudes)

    def test_round_trip_numpy_scalar_spacings(self, tmp_path):
        t = TrackMeasurement(amplitudes=np.ones((3, 2)), delta_x=np.float64(0.5), delay_bin_ns=np.float32(2.5))
        path = tmp_path / "track.csv"
        write_track(t, path)
        assert path.read_text().splitlines()[1] == "0.5,2.5,3,2"
        back = read_track(path)
        assert (back.delta_x, back.delay_bin_ns) == (0.5, 2.5)

    def test_inline_comment_on_row(self, tmp_path):
        t = TrackMeasurement(amplitudes=np.random.default_rng(12).random((4, 3)), delta_x=0.25)
        plain, noted = tmp_path / "plain.csv", tmp_path / "noted.csv"
        write_track(t, plain)
        noted.write_text("".join(line + " # note\n" for line in plain.read_text().splitlines()))
        a, b = read_track(plain), read_track(noted)
        assert (a.delta_x, a.delay_bin_ns) == (b.delta_x, b.delay_bin_ns)
        assert np.array_equal(a.amplitudes, b.amplitudes)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(TrackFileError, match="header"):
            read_track(path)

    def test_wrong_row_width(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(
            "delta_x_wavelengths,delay_bin_ns,num_positions,num_bins\n"
            "0.5,2.5,2,3\n"
            "1.0,2.0,3.0\n"
            "1.0,2.0\n"
        )
        with pytest.raises(TrackFileError, match="line 4"):
            read_track(path)

    def test_wrong_row_count(self, tmp_path):
        path = tmp_path / "count.csv"
        path.write_text(
            "delta_x_wavelengths,delay_bin_ns,num_positions,num_bins\n"
            "0.5,2.5,3,2\n"
            "1.0,2.0\n"
        )
        with pytest.raises(TrackFileError, match="grid rows"):
            read_track(path)

    @pytest.mark.parametrize(
        "header, field",
        [
            ("0.5,2.5,inf,1", "num_positions"),
            ("0.5,2.5,2.9,1", "num_positions"),
            ("0.5,2.5,3,0", "num_bins"),
            ("inf,2.5,3,1", "delta_x_wavelengths"),
            ("nan,2.5,3,1", "delta_x_wavelengths"),
            ("0.5,inf,3,1", "delay_bin_ns"),
            ("0.5,-1,3,1", "delay_bin_ns"),
            ("0.5,x,3,1", "delay_bin_ns"),
        ],
    )
    def test_bad_header_value_names_field(self, tmp_path, header, field):
        path = tmp_path / "hdr.csv"
        path.write_text("delta_x_wavelengths,delay_bin_ns,num_positions,num_bins\n" + header + "\n1.0\n2.0\n3.0\n")
        with pytest.raises(TrackFileError, match=f"line 2: {field}"):
            read_track(path)

    @pytest.mark.parametrize("kind", ["undecodable", "directory"])
    def test_unreadable_file_names_it(self, tmp_path, kind):
        path = tmp_path / "track.csv"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_bytes(b"delta_x_wavelengths,delay_bin_ns,num_positions,num_bins\n0.5,2.5,2,1\n1.0\n2.0\xff\n")
        with pytest.raises(TrackFileError, match=f"cannot read track {re.escape(repr(str(path)))}"):
            read_track(str(path))

    def test_whole_float_counts_accepted(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("delta_x_wavelengths,delay_bin_ns,num_positions,num_bins\n0.5,2.5,3.0,1.0\n1.0\n2.0\n3.0\n")
        assert read_track(path).amplitudes.shape == (3, 1)


class TestAutocorrCurveInvariants:
    @pytest.mark.parametrize("bad", [math.inf, math.nan, -0.5, -math.inf])
    def test_rejects_lags_not_finite_and_non_negative(self, bad):
        # inf made the fit warn on 0 * inf, NaN failed later in AutocorrParams,
        # and -0.5 was fitted (a = 366886.1)
        with pytest.raises(ValueError, match="lags must be finite and >= 0"):
            AutocorrCurve(lags=[0.0, 0.5, bad, 1.5], values=[1.0, 0.6, 0.3, 0.2])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf])
    def test_rejects_infinite_values(self, bad):
        with pytest.raises(ValueError, match=r"\[-1, 1\] or be NaN"):
            AutocorrCurve(lags=[0.0, 0.5, 1.0, 1.5, 2.0], values=[1.0, bad, 0.5, 0.3, 0.2])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, 1.0 + 2e-9, -1.0 - 2e-9, 7.0, -7.0])
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_rejects_out_of_range_beside_nan(self, bad, where):
        # a NaN elsewhere in the curve hides no out-of-range value
        values = [math.nan, 0.5, math.nan, 0.3, math.nan]
        values[where] = bad
        with pytest.raises(ValueError) as exc:
            AutocorrCurve(lags=[0.0, 0.5, 1.0, 1.5, 2.0], values=values)
        assert str(exc.value) == "autocorrelation values must lie in [-1, 1] or be NaN"

    @pytest.mark.parametrize(
        "values",
        [[math.nan] * 3, [1.0, -1.0, 0.0], [1.0 + 1e-9, -1.0 - 1e-9, math.nan], [], [-0.0, 0.5, math.nan]],
    )
    def test_accepts_nan_and_values_within_bounds(self, values):
        curve = AutocorrCurve(lags=np.arange(len(values)) * 0.5, values=values)
        assert curve.values.tobytes() == np.array(values, dtype=float).tobytes()


class TestTrackMeasurementInvariants:
    def test_needs_two_positions(self):
        with pytest.raises(ValueError):
            TrackMeasurement(amplitudes=np.ones((1, 3)))

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -0.5])
    @pytest.mark.parametrize("field", ["delta_x", "delay_bin_ns"])
    def test_rejects_non_finite_or_non_positive_spacing(self, field, bad):
        with pytest.raises(ValueError, match=field):
            TrackMeasurement(amplitudes=np.ones((3, 2)), **{field: bad})

    def test_rejects_overflowing_track_length(self):
        TrackMeasurement(amplitudes=np.ones((2, 2)), delta_x=1e308)
        with pytest.raises(ValueError, match=r"\(num_positions - 1\) \* delta_x"):
            TrackMeasurement(amplitudes=np.ones((3, 2)), delta_x=1e308)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, -1e-300])
    def test_rejects_non_finite_or_negative_amplitudes(self, bad):
        amps = np.ones((3, 2))
        amps[1, 1] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            TrackMeasurement(amplitudes=amps)

    def test_rejects_negative_amplitudes(self):
        with pytest.raises(ValueError):
            TrackMeasurement(amplitudes=np.array([[1.0, -0.1], [0.5, 0.5]]))

    @pytest.mark.parametrize(
        "bads",
        [(math.nan, math.inf), (math.nan, -1.0), (math.inf, -math.inf), (-math.inf, math.nan), (1e308, -0.5)],
    )
    def test_rejects_any_bad_amplitude_among_others(self, bads):
        for first, second in ((0, -1), (-1, 0)):
            amps = np.linspace(0.0, 2.0, 12).reshape(4, 3)
            amps.flat[first], amps.flat[second] = bads
            with pytest.raises(ValueError) as exc:
                TrackMeasurement(amplitudes=amps)
            assert str(exc.value) == "amplitudes must be finite and non-negative"

    @pytest.mark.parametrize("amps", [np.zeros((3, 2)), np.full((2, 2), 1e308), np.ones((3, 0)), [[0.0], [-0.0]]])
    def test_accepts_finite_non_negative_amplitudes(self, amps):
        assert np.array_equal(TrackMeasurement(amplitudes=amps).amplitudes, amps)
