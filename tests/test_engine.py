"""The batched drop engine against the per-drop reference in ``oracles``.

The reference reads each drop's stream in the same fixed layout one value
at a time, so the engine must give its seed words exactly and its
capacities to float rounding; CIR synthesis and ``realize_taps`` keep the
reference's arithmetic too and must match it bit for bit. Drop i depends only on the campaign, the master
seed and i: neither the run length nor the worker count may change it.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    reference_flat_capacities,
    reference_initial_cir,
    reference_monte_carlo,
    reference_realize_taps,
)
from mmwchan import capacity
from mmwchan.capacity import (
    BATCH_BYTES,
    CHUNK_DROPS,
    SNR_DB_MAX,
    SNR_DB_MIN,
    CapacityConfig,
    _batch_capacities,
    _Campaign,
    _drop_batches,
    _drop_bytes,
    _logdet_packed,
    _pack,
    _pair_coefficients,
    _simulate_chunk,
    _uses_cross_gram,
    batch_bytes,
    chunk_bytes,
    run_monte_carlo,
)
from mmwchan.cirgen import (
    ANGLE_OFFSETS,
    CirGenConfig,
    cir_rows,
    drop_layout,
    export_cir,
    generate_initial_cir,
    import_cir,
)
from mmwchan.cli import ScenarioConfig, _fixed_cir
from mmwchan.core import (
    K_DB_MAX,
    K_DB_MIN,
    ArrayGeometry,
    ChannelImpulseResponse,
    FadingModel,
    Scenario,
    lookup_default_params,
)
from mmwchan.seeding import drop_streams
from mmwchan.spatial import build_amplitude_matched_corr, matrix_sqrt_psd, realize_taps, tap_matrices

SCEN = Scenario.parse("NLOS V-V")
PARAMS = lookup_default_params(SCEN).autocorr
#: Rayleigh, and Rician at both ends of the K range (K_DB_MIN, K_DB_MAX)
#: and in between.
FADINGS = [FadingModel.rayleigh(), FadingModel.rician(K_DB_MIN), FadingModel.rician(5.0), FadingModel.rician(K_DB_MAX)]
CAPACITY_ATOL = 1e-12
CIR_FIELDS = ("delays", "powers", "phases", "aod", "aoa")


def _gen_config(clusters_hi, paths_hi, spread_deg):
    return CirGenConfig(
        num_clusters_range=(1, clusters_hi),
        paths_per_cluster_range=(1, paths_hi),
        lobe_angular_spread_deg=spread_deg,
    )


@settings(max_examples=40, deadline=None)
@given(
    n_r=st.integers(1, 5),
    n_t=st.integers(1, 5),
    fading=st.sampled_from(FADINGS),
    clusters_hi=st.integers(1, 4),
    paths_hi=st.integers(1, 4),
    spread_deg=st.sampled_from([0.0, 10.0]),
    cir_mode=st.sampled_from(["fresh", "shared", "explicit"]),
    num_drops=st.integers(1, 80),
    seed=st.integers(0, 2**32 - 1),
)
# ragged L over both Gram routes, N_t > N_r, a chunk boundary
@example(n_r=2, n_t=5, fading=FADINGS[2], clusters_hi=4, paths_hi=4, spread_deg=0.0,
         cir_mode="fresh", num_drops=70, seed=1)
@example(n_r=5, n_t=3, fading=FADINGS[3], clusters_hi=4, paths_hi=4, spread_deg=10.0,
         cir_mode="explicit", num_drops=5, seed=2)
def test_engine_matches_per_drop_reference(
    n_r, n_t, fading, clusters_hi, paths_hi, spread_deg, cir_mode, num_drops, seed
):
    gen = _gen_config(clusters_hi, paths_hi, spread_deg)
    initial = want_initial = None
    if cir_mode == "explicit":
        initial = want_initial = reference_initial_cir(gen, SCEN, np.random.default_rng(seed))
    elif cir_mode == "shared":
        initial = _fixed_cir(ScenarioConfig(scenario=SCEN, cir_gen=gen, master_seed=seed, share_initial_cir=True))
        shared_rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1, 0)))
        want_initial = reference_initial_cir(gen, SCEN, shared_rng)
    kw = dict(
        scenario=SCEN,
        gen_config=gen,
        rx_geometry=ArrayGeometry(num_elements=n_r),
        tx_geometry=ArrayGeometry(num_elements=n_t),
        fading=fading,
        cap_config=CapacityConfig(),
        num_drops=num_drops,
        master_seed=seed,
        autocorr_params=PARAMS,
    )
    got = run_monte_carlo(**kw, initial_cir=initial)
    want = reference_monte_carlo(**kw, initial_cir=want_initial)
    assert [(s.drop_index, s.seed) for s in got] == [(i, w) for i, w, _ in want]
    for s, (_, _, cap) in zip(got, want):
        assert abs(s.capacity - cap) <= CAPACITY_ATOL


def test_both_gram_routes_are_exercised():
    # the hypothesis examples above cover each side of the route choice
    assert _uses_cross_gram(1, 5, 3) and not _uses_cross_gram(16, 5, 3)
    assert _uses_cross_gram(2, 2, 5) and not _uses_cross_gram(16, 2, 5)


def _packed(g):
    """A Hermitian matrix packed row by row: G_jj, then Re and Im of G_jk, k > j."""
    d = g.shape[0]
    rows = [[g[j, j].real, *g[j, j + 1 :].real, *g[j, j + 1 :].imag] for j in range(d)]
    return np.concatenate(rows)


@pytest.mark.parametrize("batch,num_taps,n_r,n_t", [(1, 1, 3, 1), (3, 2, 20, 1), (5, 4, 6, 2), (2, 6, 3, 5), (4, 10, 20, 4)])
def test_pair_coefficients_match_per_pair_cross_grams(batch, num_taps, n_r, n_t):
    rng = np.random.default_rng(batch * 100 + num_taps)
    taps = rng.standard_normal((batch, num_taps, n_r, n_t)) + 1j * rng.standard_normal((batch, num_taps, n_r, n_t))
    got = _pair_coefficients(taps)
    side = taps if n_t <= n_r else taps.swapaxes(-1, -2)
    for b in range(batch):
        m = side[b]
        want = [_packed(sum(t.conj().T @ t for t in m)), np.zeros(min(n_r, n_t) ** 2)]
        for first in range(num_taps):
            for second in range(first + 1, num_taps):
                c = m[first].conj().T @ m[second]
                want += [_packed(c + c.conj().T), _packed(1j * (c - c.conj().T))]
        np.testing.assert_allclose(got[b], np.array(want), rtol=0, atol=1e-12 * np.abs(got[b]).max())
        # the drop's (d*d, rows) slice, which _cross_gram multiplies, is
        # row-major: BLAS rounds a column-major one differently
        assert got[b].T.strides[1] == got.itemsize


@pytest.mark.parametrize("fading", FADINGS[:3])
@pytest.mark.parametrize("n_r,n_t", [(1, 1), (4, 2), (3, 5), (11, 1)])
def test_realize_taps_bitwise_matches_reference(fading, n_r, n_t):
    rr = matrix_sqrt_psd(build_amplitude_matched_corr(PARAMS, ArrayGeometry(n_r), FadingModel.rayleigh()))
    rt = matrix_sqrt_psd(
        build_amplitude_matched_corr(PARAMS, ArrayGeometry(n_t), FadingModel.rayleigh())
    )
    for seed in range(20):
        cir = generate_initial_cir(_gen_config(3, 3, 10.0), SCEN, np.random.default_rng(seed))
        rng_a, rng_b = np.random.default_rng(seed + 100), np.random.default_rng(seed + 100)
        got = realize_taps(cir, rr, rt, fading, rng_a)
        want = reference_realize_taps(cir, rr, rt, fading, rng_b)
        for a, b in zip(got, want, strict=True):
            assert np.array_equal(a.matrix, b.matrix)
            assert a.delay == b.delay
        assert rng_a.random() == rng_b.random()


@pytest.mark.parametrize("spread_deg", [0.0, 10.0])
def test_generated_cir_equals_reference_and_leaves_same_stream(spread_deg):
    for cfg in (_gen_config(4, 4, spread_deg), CirGenConfig(num_lobes_range=(2, 2), lobe_angular_spread_deg=spread_deg)):
        for seed in range(100):
            rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = generate_initial_cir(cfg, SCEN, rng_a), reference_initial_cir(cfg, SCEN, rng_b)
            assert got.scenario == want.scenario
            for field in CIR_FIELDS:
                assert np.array_equal(getattr(got, field), getattr(want, field))
            assert rng_a.random() == rng_b.random()
            rows = cir_rows(cfg, np.random.default_rng(seed).random((1, drop_layout(cfg).width)))
            assert np.array_equal(rows.delays[rows.valid], want.delays)
            assert np.array_equal(rows.powers[rows.valid], want.powers)


def test_chunk_cirs_equal_per_drop_cirs():
    # the chunk kernel on a whole chunk's blocks gives each drop the CIR that
    # generate_initial_cir draws from that drop's stream alone
    from mmwchan.seeding import drop_streams

    cfg = _gen_config(4, 3, 10.0)
    rngs, _ = drop_streams(99, 0, CHUNK_DROPS)
    u = np.empty((CHUNK_DROPS, drop_layout(cfg).width))
    for rng, row in zip(rngs, u):
        rng.random(out=row)
    rows = cir_rows(cfg, u)
    for i, rng in enumerate(drop_streams(99, 0, CHUNK_DROPS)[0]):
        cir = generate_initial_cir(cfg, SCEN, rng)
        assert np.array_equal(rows.delays[i][rows.valid[i]], cir.delays)
        assert np.array_equal(rows.powers[i][rows.valid[i]], cir.powers)


# Ragged MIMO drops: 2-12 taps over both Gram routes, and enough
# subcarriers that a tap-count group is cut into several batches.
RAGGED = dict(
    scenario=SCEN,
    gen_config=CirGenConfig(num_clusters_range=(2, 4), paths_per_cluster_range=(1, 3)),
    rx_geometry=ArrayGeometry(num_elements=6),
    tx_geometry=ArrayGeometry(num_elements=3),
    fading=FadingModel.rician(5.0),
    cap_config=CapacityConfig(num_subcarriers=600),
    autocorr_params=PARAMS,
)


def test_ragged_config_cuts_groups_into_batches():
    assert _uses_cross_gram(2, 6, 3) and not _uses_cross_gram(12, 6, 3)
    assert BATCH_BYTES // _drop_bytes(6, 6, 3, 600) <= 4


def test_chunk_and_batch_sizes_leave_capacities_unchanged(monkeypatch):
    # RAGGED: Rician drops of 2-12 taps over both Gram routes, here across
    # a chunk boundary
    kw = dict(RAGGED, cap_config=CapacityConfig(num_subcarriers=32), num_drops=CHUNK_DROPS + 60, master_seed=31)
    default = run_monte_carlo(**kw)
    monkeypatch.setattr(capacity, "CHUNK_DROPS", 256)
    assert np.array_equal(run_monte_carlo(**kw), default)
    monkeypatch.setattr(capacity, "CHUNK_DROPS", CHUNK_DROPS)
    monkeypatch.setattr(capacity, "BATCH_BYTES", 1)  # one drop per batch
    assert np.array_equal(run_monte_carlo(**kw), default)


def test_chunk_peak_does_not_grow_with_its_largest_group():
    # every drop has 3 taps, so a chunk is one tap-count group, and each
    # drop's normal block (3 taps of 4 + 2 * 64 * 4 normals) takes 12 KiB:
    # drawn for the whole group at once, it would grow the peak by that much
    # per drop; the three models of a run share one chunk's draws
    gen = CirGenConfig(num_clusters_range=(3, 3), paths_per_cluster_range=(1, 1))
    n_r, n_t, num_f = 64, 4, 4
    rr = matrix_sqrt_psd(build_amplitude_matched_corr(PARAMS, ArrayGeometry(n_r), FadingModel.rayleigh()))
    rt = matrix_sqrt_psd(
        build_amplitude_matched_corr(PARAMS, ArrayGeometry(n_t), FadingModel.rayleigh())
    )
    fadings = (FadingModel.rayleigh(), FadingModel.rician(5.0), FadingModel.rician(15.0))
    campaign = _Campaign(gen, rr, rt, fadings, CapacityConfig(num_subcarriers=num_f), 1, None)
    _simulate_chunk((campaign, 0, 8))  # fills the caches
    peaks = {}
    for stop in (CHUNK_DROPS // 4, CHUNK_DROPS):
        tracemalloc.start()
        try:
            _simulate_chunk((campaign, 0, stop))
            peaks[stop] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    normal_bytes = 8 * 3 * (ANGLE_OFFSETS + 2 * n_r * n_t)
    assert peaks[CHUNK_DROPS] - peaks[CHUNK_DROPS // 4] < (CHUNK_DROPS - CHUNK_DROPS // 4) * normal_bytes / 4
    assert peaks[CHUNK_DROPS] <= chunk_bytes(gen, n_r, n_t, num_f)


@pytest.mark.parametrize("n_r, n_t, num_taps, num_f", [(20, 2, 500, 100), (6, 1, 3000, 20), (64, 4, 40, 4)])
def test_batch_bytes_bounds_a_fixed_cir_chunk(n_r, n_t, num_taps, num_f):
    # the CLI sizes the drops of an imported CIR, which draw no uniform
    # block, by one batch of its taps
    rr, rt = (matrix_sqrt_psd(build_amplitude_matched_corr(PARAMS, ArrayGeometry(n), FadingModel.rayleigh()))
              for n in (n_r, n_t))
    cir = (np.arange(num_taps) * 1e-9, np.full(num_taps, 1.0 / num_taps))
    fadings = (FadingModel.rayleigh(), FadingModel.rician(5.0))
    campaign = _Campaign(CirGenConfig(), rr, rt, fadings, CapacityConfig(num_subcarriers=num_f), 1, cir)
    _simulate_chunk((campaign, 0, 4))  # fills the caches
    tracemalloc.start()
    try:
        _simulate_chunk((campaign, 0, 64))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= batch_bytes(num_taps, n_r, n_t, num_f)


def test_drop_with_no_tap_raises(monkeypatch):
    # a drop whose every path weight underflowed used to run as a 0-tap
    # group and get capacity 0.0
    def drop_third_taps(config, u):
        rows = cir_rows(config, u)
        rows.valid[2] = False
        return rows

    monkeypatch.setattr(capacity, "cir_rows", drop_third_taps)
    with pytest.raises(ValueError, match="drop 2 has no tap"):
        run_monte_carlo(**dict(RAGGED, cap_config=CapacityConfig(num_subcarriers=8)), num_drops=5, master_seed=3)


def test_engine_matches_reference_at_wide_master_seed():
    # the hypothesis test draws seeds of one 32-bit word; this one has three
    kw = dict(RAGGED, cap_config=CapacityConfig(num_subcarriers=32), num_drops=CHUNK_DROPS + 6, master_seed=2**70)
    got = run_monte_carlo(**kw)
    want = reference_monte_carlo(**kw)
    assert [(s.drop_index, s.seed) for s in got] == [(i, w) for i, w, _ in want]
    for s, (_, _, cap) in zip(got, want):
        assert abs(s.capacity - cap) <= CAPACITY_ATOL


def test_underflowed_paths_are_no_taps_and_engine_matches_reference():
    # the second cluster starts at least 25 ns in, where exp(-t / 0.001 ns)
    # is 0: its paths are no taps, so a drop has at most the first's 3
    gen = CirGenConfig(num_clusters_range=(2, 2), paths_per_cluster_range=(1, 3), cluster_decay_ns=0.001)
    rows = cir_rows(gen, np.random.default_rng(3).random((200, drop_layout(gen).width)))
    assert np.all(rows.powers[rows.valid] > 0) and rows.valid.sum(axis=1).max() <= 3
    kw = dict(RAGGED, gen_config=gen, cap_config=CapacityConfig(num_subcarriers=32), num_drops=40, master_seed=8)
    got = run_monte_carlo(**kw)
    want = reference_monte_carlo(**kw)
    assert [(s.drop_index, s.seed) for s in got] == [(i, w) for i, w, _ in want]
    for s, (_, _, cap) in zip(got, want):
        assert abs(s.capacity - cap) <= CAPACITY_ATOL


def test_longer_run_starts_with_shorter_run():
    short = run_monte_carlo(**RAGGED, num_drops=100, master_seed=4242)
    longer = run_monte_carlo(**RAGGED, num_drops=100 + 37, master_seed=4242)
    assert np.array_equal(longer[:100], short)


#: Fading model orders of a run: Rayleigh first, as in the recipes, and
#: Rician first.
MODEL_ORDERS = {
    "rayleigh-first": (FadingModel.rayleigh(), FadingModel.rician(5.0), FadingModel.rician(15.0)),
    "rician-first": (FadingModel.rician(5.0), FadingModel.rayleigh()),
}


@pytest.mark.parametrize("cir_mode", ["drawn", "shared", "imported"])
@pytest.mark.parametrize("order", MODEL_ORDERS)
def test_one_pass_over_all_models_equals_single_model_runs(order, cir_mode, tmp_path):
    # RAGGED drops over both Gram routes, past a chunk boundary, on two
    # workers: each model's block holds the records of a run of that model
    # alone, bit for bit
    models = MODEL_ORDERS[order]
    kw = dict(RAGGED, num_drops=CHUNK_DROPS + 76, master_seed=5)
    del kw["fading"]
    initial = None
    if cir_mode != "drawn":  # one tap count, one route: fewer subcarriers suffice
        kw["cap_config"] = CapacityConfig(num_subcarriers=32)
    if cir_mode == "shared":
        initial = _fixed_cir(ScenarioConfig(scenario=SCEN, cir_gen=kw["gen_config"], master_seed=5,
                                            share_initial_cir=True))
    elif cir_mode == "imported":
        path = tmp_path / "cir.csv"
        export_cir(generate_initial_cir(kw["gen_config"], SCEN, np.random.default_rng(6)), path)
        initial = import_cir(path, SCEN)
    together = run_monte_carlo(**kw, fading=models[0], more_fading=models[1:], initial_cir=initial, num_workers=2)
    num_drops = kw["num_drops"]
    assert len(together) == len(models) * num_drops
    for k, model in enumerate(models):
        alone = run_monte_carlo(**kw, fading=model, initial_cir=initial)
        assert together[k * num_drops : (k + 1) * num_drops].tobytes() == alone.tobytes()


def test_worker_counts_agree_over_several_chunks():
    num_drops = 3 * CHUNK_DROPS + 5
    kw = dict(RAGGED, cap_config=CapacityConfig(num_subcarriers=32), num_drops=num_drops, master_seed=77)
    serial = run_monte_carlo(**kw, num_workers=1)
    assert [s.drop_index for s in serial] == list(range(num_drops))
    for workers in (2, 3):
        assert np.array_equal(run_monte_carlo(**kw, num_workers=workers), serial)


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning", "ignore:invalid value:RuntimeWarning")
def test_non_finite_capacity_raises():
    # finite but enormous path power overflows the Gram
    cir = ChannelImpulseResponse(delays=[0.0], powers=[1e300], phases=[0.0], aod=[(0.0, 0.0)], aoa=[(0.0, 0.0)],
                                 scenario=SCEN)
    with pytest.raises(ValueError, match="non-finite capacity"):
        run_monte_carlo(
            SCEN, CirGenConfig(), ArrayGeometry(num_elements=4), ArrayGeometry(num_elements=2),
            FadingModel.rayleigh(), CapacityConfig(), 3, 1, PARAMS, initial_cir=cir,
        )


@pytest.mark.parametrize(
    "value,field",
    [(v, f) for v in (math.nan, math.inf, -math.inf) for f in ("snr_db", "bandwidth_hz", "center_frequency_hz")]
    # finite SNRs that failed in the pipeline: 4000 dB overflowed the dB
    # conversion, 1600 dB the d = 2 closed-form log-det
    + [(4000.0, "snr_db"), (1600.0, "snr_db"), (-4000.0, "snr_db")],
)
def test_capacity_config_rejects_non_finite(value, field):
    with pytest.raises(ValueError, match=field):
        CapacityConfig(**{field: value})


@pytest.mark.parametrize("snr_db", [SNR_DB_MIN, SNR_DB_MAX])
@pytest.mark.parametrize("n_t", [1, 2, 4])
def test_snr_range_ends_give_finite_capacities(snr_db, n_t):
    samples = run_monte_carlo(
        SCEN, RAGGED["gen_config"], ArrayGeometry(num_elements=20), ArrayGeometry(num_elements=n_t),
        FadingModel.rayleigh(), CapacityConfig(snr_db=snr_db), 40, 3, PARAMS,
    )
    caps = np.array([s.capacity for s in samples])
    assert np.all(np.isfinite(caps)) and np.all(caps >= 0.0)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
@pytest.mark.parametrize("rank", ["full", "one"])
def test_logdet_kernel_matches_slogdet(d, rank):
    rng = np.random.default_rng(d)
    cols = d if rank == "full" else 1
    h = rng.standard_normal((3, 7, 9, cols)) + 1j * rng.standard_normal((3, 7, 9, cols))
    if rank == "one":
        h = h * np.ones(d)  # identical columns: a rank-one Gram
    gram = h.conj().swapaxes(-1, -2) @ h
    scale = 10.0 / d
    _, want = np.linalg.slogdet(np.eye(d) + scale * gram)
    np.testing.assert_allclose(_logdet_packed(_pack(gram).swapaxes(-1, -2), scale), want, rtol=1e-13, atol=1e-13)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(3, 6),
    rank=st.integers(1, 6),
    near_singular=st.booleans(),
    log_scale=st.floats(-6.0, 6.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_logdet_kernel_matches_slogdet_on_psd_grams(d, rank, near_singular, log_scale, seed):
    # The elimination is backward stable: its result is exact for I + sG
    # moved by a few d * eps * ||I + sG||, and every eigenvalue of I + sG is
    # at least 1, so the log-det moves by no more than that; slogdet's LU
    # has the same bound.
    rng = np.random.default_rng(seed)
    rank = min(rank, d)
    h = rng.standard_normal((4, d, rank)) + 1j * rng.standard_normal((4, d, rank))
    gram = h @ h.conj().swapaxes(-1, -2)
    if near_singular:
        # the weakest direction 1e-16..1e-8 of the strongest
        w, v = np.linalg.eigh(gram)
        w[:, 0] = w[:, -1] * 10.0 ** rng.uniform(-16.0, -8.0, 4)
        gram = (v * w[:, None, :]) @ v.conj().swapaxes(-1, -2)
    scale = 10.0**log_scale
    m = np.eye(d) + scale * gram
    _, want = np.linalg.slogdet(m)
    bound = 4 * d * np.finfo(float).eps * np.linalg.norm(m, 2, axis=(-2, -1))
    assert np.all(np.abs(_logdet_packed(_pack(gram).swapaxes(-1, -2), scale) - want) <= bound)


def _route_taps(n_r, n_t, route):
    """A tap count of a route: 1 (``one-tap``, which takes the flat path),
    or the fewest taps (at least 2) that the route rule sends to the
    ``cross`` or the ``response`` route."""
    if route == "one-tap":
        return 1
    return next(num_taps for num_taps in range(2, 256) if _uses_cross_gram(num_taps, n_r, n_t) == (route == "cross"))


#: The fading models of a campaign: one model of each kind, and two and
#: three models, which share each batch's diffuse parts.
CAMPAIGN_MODELS = {
    "rayleigh": (FadingModel.rayleigh(),),
    "rician": (FadingModel.rician(5.0),),
    "two": (FadingModel.rayleigh(), FadingModel.rician(5.0)),
    "three": (FadingModel.rayleigh(), FadingModel.rician(5.0), FadingModel.rician(15.0)),
}
ROUTES = ["one-tap", "cross", "response"]
ARRAYS = {"d1": (6, 1), "d2": (2, 5), "d3": (5, 3), "d4": (4, 7)}


def _batch(n_r, n_t, num_taps, batch, models, num_f=100):
    """A campaign of ``models`` and the draws of ``batch`` drops of
    ``num_taps`` taps: (campaign, delays, powers, white, psi)."""
    rr, rt = (matrix_sqrt_psd(build_amplitude_matched_corr(PARAMS, ArrayGeometry(n), FadingModel.rayleigh()))
              for n in (n_r, n_t))
    campaign = _Campaign(CirGenConfig(), rr, rt, models, CapacityConfig(num_subcarriers=num_f), 1, None)
    rng = np.random.default_rng(num_taps)
    delays = np.sort(rng.uniform(0.0, 200e-9, (batch, num_taps)), axis=1)
    powers = rng.dirichlet(np.ones(num_taps), batch)
    white = rng.standard_normal((batch, num_taps, 2, n_r, n_t))
    psi = rng.uniform(0.0, 2 * math.pi, (batch, num_taps))
    return campaign, delays, powers, white, psi


@pytest.mark.parametrize("cir", ["drawn", "fixed-4-tap"])
def test_drop_draws_do_not_depend_on_the_fading_models(cir):
    # a drop keeps its dominant phases psi whatever the models of its run:
    # RAGGED's drawn CIRs (2-12 taps, both Gram routes) and a fixed 4-tap
    # CIR yield the same batches, bit for bit, for each set of models
    rr, rt = (matrix_sqrt_psd(build_amplitude_matched_corr(PARAMS, RAGGED[side], FadingModel.rayleigh()))
              for side in ("rx_geometry", "tx_geometry"))
    shared = None if cir == "drawn" else (np.arange(4) * 5e-9, np.array([0.4, 0.3, 0.2, 0.1]))
    runs = []
    for models in ("rayleigh", "rician", "three"):
        campaign = _Campaign(RAGGED["gen_config"], rr, rt, CAMPAIGN_MODELS[models], RAGGED["cap_config"], 7, shared)
        rngs, _ = drop_streams(7, 0, 300)
        runs.append([[np.asarray(part) for part in batch] for batch in _drop_batches(campaign, rngs)])
    want = runs[0]
    assert sum(len(batch[0]) for batch in want) == 300
    for got in runs[1:]:
        assert len(got) == len(want)
        for got_batch, want_batch in zip(got, want):  # members, delays, powers, white, psi
            for g, w in zip(got_batch, want_batch):
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("arrays", ARRAYS)
@pytest.mark.parametrize("models", ["rayleigh", "rician", "three"])
def test_batch_equals_its_drops_one_at_a_time(arrays, route, models):
    # a drop's capacity must not depend on the batch it lands in
    n_r, n_t = ARRAYS[arrays]
    campaign, delays, powers, white, psi = _batch(n_r, n_t, _route_taps(n_r, n_t, route), 7, CAMPAIGN_MODELS[models])
    together = _batch_capacities(delays, powers, white, psi, campaign)
    for i in range(len(delays)):
        one = slice(i, i + 1)
        alone = _batch_capacities(delays[one], powers[one], white[one], psi[one], campaign)
        assert np.array_equal(alone[:, 0], together[:, i])


@pytest.mark.parametrize("route", ROUTES)
@pytest.mark.parametrize("arrays", ARRAYS)
def test_engine_taps_equal_tap_matrices_per_model(monkeypatch, arrays, route):
    # every model mixes its taps from the batch's shared diffuse parts; each
    # model's taps are those tap_matrices gives that model alone, bit for bit
    n_r, n_t = ARRAYS[arrays]
    models = CAMPAIGN_MODELS["three"]
    campaign, delays, powers, white, psi = _batch(n_r, n_t, _route_taps(n_r, n_t, route), 5, models)
    mixed = []
    mix = capacity._mix

    def recording_mix(*args):
        mixed.append(mix(*args))
        return mixed[-1]

    monkeypatch.setattr(capacity, "_mix", recording_mix)
    _batch_capacities(delays, powers, white, psi, campaign)
    assert len(mixed) == len(models)
    for taps, model in zip(mixed, models):
        want = tap_matrices(white, psi, powers, campaign.rr_sqrt, campaign.rt_sqrt, model)
        assert taps.dtype == want.dtype and np.array_equal(taps, want)


@pytest.mark.parametrize("num_f", [1, 7, 100])
@pytest.mark.parametrize("n_r,n_t", [(20, 1), (20, 2), (2, 5), (20, 4), (4, 7)], ids=["d1", "d2", "d2-wide", "d4", "d4-wide"])
def test_one_tap_batch_equals_mean_over_subcarriers(n_r, n_t, num_f):
    # a one-tap batch takes its Gram and log-det at one subcarrier; its
    # capacities are the mean of the log-det over all F subcarriers, bit for bit
    models = CAMPAIGN_MODELS["three"]
    campaign, delays, powers, white, psi = _batch(n_r, n_t, 1, 33, models, num_f)
    got = _batch_capacities(delays, powers, white, psi, campaign)
    for caps, model in zip(got, models):
        taps = tap_matrices(white, psi, powers, campaign.rr_sqrt, campaign.rt_sqrt, model)
        want = reference_flat_capacities(taps, campaign.cap_config, n_t)
        assert np.array_equal(caps, want)


@pytest.mark.parametrize("route,taps", [("one-tap", "fewest"), *((r, t) for r in ROUTES[1:] for t in ("fewest", "most"))])
@pytest.mark.parametrize("arrays", ARRAYS)
@pytest.mark.parametrize("models", ["two", "three"])
def test_drop_bytes_bounds_the_batch_peak(arrays, route, taps, models):
    # _drop_bytes sets the batch sizes, so it must bound what a batch
    # allocates for all the models of a run
    n_r, n_t = ARRAYS[arrays]
    num_taps = _route_taps(n_r, n_t, route)
    if taps == "most":
        num_taps = max(t for t in range(2, 256) if _uses_cross_gram(t, n_r, n_t)) if route == "cross" else num_taps + 8
    drop_bytes = _drop_bytes(num_taps, n_r, n_t, CapacityConfig().num_subcarriers)
    batch = max(1, BATCH_BYTES // drop_bytes)
    campaign, delays, powers, white, psi = _batch(n_r, n_t, num_taps, batch, CAMPAIGN_MODELS[models])
    _batch_capacities(delays, powers, white, psi, campaign)  # fills the index caches
    tracemalloc.start()
    try:
        _batch_capacities(delays, powers, white, psi, campaign)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= batch * drop_bytes
