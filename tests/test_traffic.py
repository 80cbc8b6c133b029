"""Generator invariants: conservation, determinism, and tunable width."""

import itertools
import math
import re
import weakref

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from mfload import traffic
from mfload.errors import CalibrationError, ConfigError
from mfload.fractal import mfdfa
from mfload.traffic import (
    GeneratorKind,
    GeneratorMeta,
    TrafficSeries,
    calibrate,
    generate_cascade,
    generate_composite,
    generate_fgn,
    generate_from_meta,
    measure_scaling,
    read_series_csv,
    write_series_csv,
)


# ---------------------------------------------------------------- cascade


def test_cascade_length_is_dyadic():
    for depth in (1, 6, 10):
        series = generate_cascade(depth=depth, multiplier_spread=0.5, seed=0)
        assert len(series) == 2**depth
        assert series.meta.kind is GeneratorKind.CASCADE


def test_cascade_conserves_mass():
    # unit mean, like every other kind, so `arrival_scale` is the mean arrivals per tick
    for depth in (1, 8, 14):
        for seed in range(3):
            series = generate_cascade(depth=depth, multiplier_spread=0.7, seed=seed)
            assert abs(float(series.values.mean()) - 1.0) <= 1e-9
            assert np.all(series.values >= 0.0)


def test_cascade_deterministic():
    a = generate_cascade(depth=12, multiplier_spread=0.4, seed=42)
    b = generate_cascade(depth=12, multiplier_spread=0.4, seed=42)
    assert np.array_equal(a.values, b.values)
    c = generate_cascade(depth=12, multiplier_spread=0.4, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_cascade_degenerates_to_uniform_split():
    series = generate_cascade(depth=8, multiplier_spread=1e-10, seed=1)
    assert np.array_equal(series.values, np.ones(2**8))


def test_cascade_argument_validation():
    with pytest.raises(ConfigError):
        generate_cascade(depth=0, multiplier_spread=0.5, seed=0)
    with pytest.raises(ConfigError):
        generate_cascade(depth=25, multiplier_spread=0.5, seed=0)
    with pytest.raises(ConfigError):
        generate_cascade(depth=8, multiplier_spread=0.0, seed=0)
    with pytest.raises(ConfigError):
        generate_cascade(depth=8, multiplier_spread=0.5, seed=-1)


@pytest.mark.parametrize(
    "generate, args",
    [
        (generate_cascade, (8, float("inf"), 0)),
        (generate_composite, (10, 0.7, float("inf"), 0)),
        (generate_composite, (10, 0.7, float("nan"), 0)),
    ],
    ids=["cascade-inf", "composite-inf", "composite-nan"],
)
def test_non_finite_spread_is_a_config_error(generate, args):
    with pytest.raises(ConfigError, match="multiplier_spread"):
        generate(*args)


def test_cascade_width_grows_with_spread():
    # wider multiplier distributions concentrate more mass, which shows up
    # as a wider range of local exponents; demand a seed majority
    spreads = (0.2, 0.4, 0.8)
    ok = 0
    for seed in range(5):
        widths = []
        for spread in spreads:
            series = generate_cascade(depth=14, multiplier_spread=spread, seed=seed)
            widths.append(measure_scaling(series)[1])
        if widths[0] < widths[1] < widths[2]:
            ok += 1
    assert ok >= 4


# -------------------------------------------------------------------- fgn


def test_fgn_basic_contract():
    series = generate_fgn(hurst=0.7, length=5000, seed=0)
    assert len(series) == 5000
    assert series.values.min() == 0.0
    assert series.values.mean() == pytest.approx(1.0, abs=1e-12)
    assert np.array_equal(series.values, generate_fgn(0.7, 5000, seed=0).values)


def test_fgn_argument_validation():
    with pytest.raises(ConfigError):
        generate_fgn(hurst=0.0, length=1024, seed=0)
    with pytest.raises(ConfigError):
        generate_fgn(hurst=1.0, length=1024, seed=0)
    with pytest.raises(ConfigError):
        generate_fgn(hurst=0.7, length=63, seed=0)


# --------------------------------------------------------------- composite


def test_composite_contract():
    a = generate_composite(depth=10, hurst=0.7, multiplier_spread=0.5, seed=3)
    b = generate_composite(depth=10, hurst=0.7, multiplier_spread=0.5, seed=3)
    assert len(a) == 1024
    assert a.values.min() > 0.0
    assert np.array_equal(a.values, b.values)
    with pytest.raises(ConfigError):
        generate_composite(depth=4, hurst=0.7, multiplier_spread=0.5, seed=0)


def test_composite_width_responds_to_spread():
    ok = 0
    for seed in range(3):
        narrow = generate_composite(depth=13, hurst=0.7, multiplier_spread=0.1, seed=seed)
        wide = generate_composite(depth=13, hurst=0.7, multiplier_spread=0.9, seed=seed)
        if measure_scaling(narrow)[1] < measure_scaling(wide)[1]:
            ok += 1
    assert ok >= 2


def _one_piece_fgn_increments(hurst, n, rng):
    """Circulant-embedding fGn drawn in one piece, as first written: real row, noise inside."""
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * ((k + 1) ** (2 * hurst) - 2 * k ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst))
    lam = np.maximum(np.fft.fft(np.concatenate([gamma, gamma[-2:0:-1]])).real, 0.0)
    a = rng.standard_normal(n + 1)
    b = rng.standard_normal(n - 1)
    xi = np.empty(2 * n, dtype=complex)
    xi[0] = a[0]
    xi[n] = a[n]
    xi[1:n] = (a[1:n] + 1j * b) / np.sqrt(2.0)
    xi[n + 1 :] = np.conj(xi[1:n][::-1])
    return (np.fft.ifft(np.sqrt(lam) * xi) * np.sqrt(2 * n)).real[:n]


@pytest.mark.parametrize("n", (64, 1000, 2**14))
def test_fgn_increments_from_noise_equal_the_one_piece_draw(n):
    for hurst in (0.05, 0.5, 0.75, 0.99):
        for seed in (0, 167):
            noise = traffic._fgn_noise(n, default_rng(SeedSequence([seed, 1])))
            got = traffic._fgn_increments(hurst, n, noise)
            want = _one_piece_fgn_increments(hurst, n, default_rng(SeedSequence([seed, 1])))
            assert np.array_equal(got, want)


def _spectrum_product_fgn_increments(hurst, n, noise):
    """The colouring with its spectrum clipped, rooted, coloured and scaled in one expression."""
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * ((k + 1) ** (2 * hurst) - 2 * k ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst))
    lam = np.zeros(2 * n, dtype=complex)
    lam.real[: n + 1] = gamma
    lam.real[n + 1 :] = gamma[-2:0:-1]
    lam = np.fft.fft(lam).real
    return (np.fft.ifft(np.sqrt(np.maximum(lam, 0.0)) * noise) * np.sqrt(2 * n)).real[:n]


@pytest.mark.parametrize("n", (1000, 2**14))
def test_fgn_increments_equal_the_one_expression_colouring_bitwise(n):
    # in-place clipping, rooting and scaling must keep every bit, the sign of zero too
    for hurst in (0.05, 0.5, 0.55, 0.75, 0.975, 0.99):
        for seed in (0, 7, 167):
            noise = traffic._fgn_noise(n, default_rng(SeedSequence([seed, 1])))
            got = traffic._fgn_increments(hurst, n, noise)
            want = _spectrum_product_fgn_increments(hurst, n, noise)
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_colourings_leave_the_shared_noise_unchanged():
    # calibrate colours one noise vector for every envelope of a call
    n = 2**12
    noise = traffic._fgn_noise(n, default_rng(SeedSequence([167, 1])))
    before = noise.copy()
    for hurst in (0.6, 0.9):
        got = traffic._fgn_increments(hurst, n, noise)
        assert noise.tobytes() == before.tobytes()
        assert got.tobytes() == traffic._fgn_increments(hurst, n, before.copy()).tobytes()


def _monolithic_composite(depth, hurst, spread, seed):
    """The composite construction written out in one piece, segment by segment."""
    n, block = 2**depth, 16
    env = traffic._fgn_increments(hurst, n, traffic._fgn_noise(n, default_rng(SeedSequence([seed, 1]))))
    mass = traffic._cascade_mass(depth - 4, spread, default_rng(SeedSequence([seed, 2])))
    nblocks = n // block
    block_means = env.reshape(nblocks, block).mean(axis=1)
    segs = min(16, nblocks)
    per = nblocks // segs
    smass = np.sort(mass)
    placed = np.empty(nblocks)
    for s in range(segs):
        ranks = np.argsort(np.argsort(block_means[s * per : (s + 1) * per]))
        placed[s * per : (s + 1) * per] = smass[s::segs][ranks]
    v = np.repeat(placed, block) * np.exp(1.5 * env)
    return 0.35 + 0.65 * (v / v.mean())


@pytest.mark.parametrize("depth", (5, 9, 14))
def test_composite_matches_the_monolithic_construction(depth):
    # spread 1e-10 takes the point-mass w = 0.5 branch of the cascade
    for hurst in (0.55, 0.75, 0.95):
        for spread in (1e-10, 0.35, 2.0):
            for seed in (0, 167):
                got = generate_composite(depth, hurst, spread, seed).values
                assert np.array_equal(got, _monolithic_composite(depth, hurst, spread, seed))


# ------------------------------------------------------------ series object


def test_series_invariants():
    with pytest.raises(ConfigError):
        TrafficSeries(values=np.array([1.0, -0.5]), meta=None)
    meta = GeneratorMeta(kind=GeneratorKind.CASCADE, seed=0, depth=3, multiplier_spread=0.5)
    with pytest.raises(ConfigError):
        TrafficSeries(values=np.ones(4), meta=meta)  # 2**3 != 4


def test_series_values_read_only():
    series = generate_fgn(0.7, 128, seed=0)
    with pytest.raises(ValueError):
        series.values[0] = 9.0
    # the series freezes its own copy, not the caller's array
    own = np.ones(4)
    wrapped = TrafficSeries(values=own, meta=None)
    assert own.flags.writeable
    own[0] = 2.0
    assert wrapped.values[0] == 1.0


def test_meta_validation():
    # field ranges are checked at construction
    with pytest.raises(ConfigError):
        GeneratorMeta(kind=GeneratorKind.FGN, seed=-1, target_hurst=0.7)
    with pytest.raises(ConfigError):
        GeneratorMeta(kind=GeneratorKind.FGN, seed=0, target_hurst=1.5)
    with pytest.raises(ConfigError):
        GeneratorMeta(kind=GeneratorKind.CASCADE, seed=0, depth=8, multiplier_spread=-0.1)
    # completeness is checked at construction, before the record reaches generate_from_meta
    with pytest.raises(ConfigError):
        generate_from_meta(GeneratorMeta(kind=GeneratorKind.FGN, seed=0), length=1024)
    with pytest.raises(ConfigError):
        generate_from_meta(GeneratorMeta(kind=GeneratorKind.CASCADE, seed=0, depth=8), length=256)
    with pytest.raises(ConfigError):
        generate_from_meta(
            GeneratorMeta(kind=GeneratorKind.COMPOSITE, seed=0, depth=8, target_hurst=0.7),
            length=256,
        )


@pytest.mark.parametrize("field, value", [("seed", 1.7), ("depth", 12.5)])
def test_meta_rejects_a_non_integer_seed_or_depth_naming_it(field, value):
    knobs = dict(kind="cascade", seed=1, depth=12, multiplier_spread=0.5)
    with pytest.raises(ConfigError, match=rf"^{field}: must be an integer, got {value}$"):
        GeneratorMeta(**dict(knobs, **{field: value}))


@pytest.mark.parametrize("generate", [
    lambda: generate_fgn(0.7, 256, seed=1.7),
    lambda: generate_cascade(8, 0.5, seed=1.7),
    lambda: generate_composite(8, 0.7, 0.5, seed=1.7),
    lambda: generate_from_meta(GeneratorMeta(kind="fgn", seed=0, target_hurst=0.7), 1024, seed=1.7),
    lambda: generate_from_meta(GeneratorMeta(kind="cascade", seed=0, multiplier_spread=0.5), 1024, seed=1.7),
], ids=["fgn", "cascade", "composite", "from_meta_fgn", "from_meta_cascade"])
def test_generators_reject_a_float_seed_instead_of_truncating_it(generate):
    with pytest.raises(ConfigError, match=r"^seed: must be an integer, got 1\.7$"):
        generate()


def test_calibrate_rejects_a_non_integer_budget_before_probing():
    with pytest.raises(ConfigError, match=r"^budget: must be an integer, got 2\.5$"):
        calibrate(0.7, 1.0, 2.5)


def test_meta_kind_rules_are_checked_at_construction():
    with pytest.raises(ConfigError, match="fgn meta needs target_hurst"):
        GeneratorMeta(kind="fgn", seed=0)
    with pytest.raises(ConfigError, match="cascade meta needs multiplier_spread"):
        GeneratorMeta(kind="cascade", seed=0, depth=8)
    with pytest.raises(ConfigError, match="composite meta needs multiplier_spread"):
        GeneratorMeta(kind="composite", seed=0, target_hurst=0.7)
    with pytest.raises(ConfigError, match=r"^depth: must lie in \[1, 24\], got 25$"):
        GeneratorMeta(kind="cascade", seed=0, depth=25, multiplier_spread=0.5)
    # an explicit composite depth below 5 is refused, not raised to 5
    with pytest.raises(ConfigError, match=r"^depth: must lie in \[5, 24\], got 4$"):
        GeneratorMeta(kind="composite", seed=0, depth=4, target_hurst=0.7, multiplier_spread=0.5)
    # a record keeps only the knobs its kind's generator reads, after checking every one given
    fgn = GeneratorMeta(kind="fgn", seed=0, depth=12, target_hurst=0.7, multiplier_spread=0.3)
    assert (fgn.depth, fgn.multiplier_spread) == (None, None)
    assert fgn == generate_fgn(0.7, 256, seed=0).meta
    with pytest.raises(ConfigError, match=r"^depth: must lie in \[1, 24\], got 30$"):
        GeneratorMeta(kind="fgn", seed=0, depth=30, target_hurst=0.7)
    with pytest.raises(ConfigError, match=r"^multiplier_spread: must be finite and positive, got -1\.0$"):
        GeneratorMeta(kind="fgn", seed=0, target_hurst=0.7, multiplier_spread=-1.0)
    with pytest.raises(ConfigError, match=r"^target_hurst: must lie in \(0, 1\), got 7\.0$"):
        GeneratorMeta(kind="cascade", seed=0, target_hurst=7.0, multiplier_spread=0.5)
    # an inferred composite depth still starts at 5
    composite = GeneratorMeta(kind="composite", seed=0, target_hurst=0.7, multiplier_spread=0.5)
    assert len(generate_from_meta(composite, length=16)) == 32


def test_meta_kind_given_as_a_string():
    meta = GeneratorMeta(kind="fgn", seed=0, target_hurst=0.7)
    assert meta == GeneratorMeta(kind=GeneratorKind.FGN, seed=0, target_hurst=0.7)
    assert meta.kind is GeneratorKind.FGN
    series = generate_from_meta(meta, length=256)
    assert len(series) == 256 and series.meta == meta


def test_meta_unknown_kind_fails_at_construction():
    with pytest.raises(ConfigError, match=r"expected one of \['cascade', 'composite', 'fgn'\]"):
        GeneratorMeta(kind="bogus", seed=0)


# ----------------------------------------------------------- regeneration


def test_generate_from_meta_reproduces_series():
    original = generate_composite(depth=11, hurst=0.8, multiplier_spread=0.6, seed=9)
    again = generate_from_meta(original.meta, length=len(original))
    assert np.array_equal(original.values, again.values)


def test_generate_from_meta_rounds_length_up():
    # without an explicit depth the dyadic length is inferred from `length`
    meta = GeneratorMeta(kind=GeneratorKind.CASCADE, seed=2, multiplier_spread=0.5)
    assert len(generate_from_meta(meta, length=1000)) == 1024
    # an explicit depth is authoritative and must cover the request
    fixed = GeneratorMeta(kind=GeneratorKind.CASCADE, seed=2, depth=8, multiplier_spread=0.5)
    assert len(generate_from_meta(fixed, length=200)) == 256
    with pytest.raises(ConfigError):
        generate_from_meta(fixed, length=1000)


def test_generate_from_meta_seed_override():
    meta = generate_cascade(depth=10, multiplier_spread=0.5, seed=5).meta
    a = generate_from_meta(meta, length=1024)
    b = generate_from_meta(meta, length=1024, seed=6)
    assert b.meta.seed == 6
    assert not np.array_equal(a.values, b.values)
    again = generate_from_meta(b.meta, length=1024)
    assert np.array_equal(b.values, again.values)


@pytest.mark.parametrize("length", [2**24 + 1, 2**25, 0])
def test_generate_calibrated_out_of_range_length_names_length(length):
    # refused before the record is deepened, so the message names length, not depth
    meta = GeneratorMeta(kind=GeneratorKind.COMPOSITE, seed=2, depth=14, target_hurst=0.7, multiplier_spread=0.5)
    with pytest.raises(ConfigError, match=rf"^length: must lie in \[1, 16777216\] ticks, got {length}$"):
        traffic.generate_calibrated(meta, length, seed=3)


# ------------------------------------------------------------- calibration


def test_calibrate_narrow_target_uses_fgn():
    meta = calibrate(target_hurst=0.7, target_delta_h=0.0)
    assert meta.kind is GeneratorKind.FGN
    series = generate_from_meta(meta, length=2**14)
    h, dh = measure_scaling(series)
    assert abs(h - 0.7) <= 0.1
    assert dh <= 0.2


def test_first_fgn_probe_scores_under_the_early_stop():
    # why the fGn family measures one probe: every knob from 0.51 to 0.99 meets
    # the early stop at its own exponent, for the family's narrowest and widest targets
    for knob in (round(0.51 + 0.02 * i, 2) for i in range(25)):
        h, dh = measure_scaling(generate_fgn(knob, 2**traffic._PROBE_DEPTH, traffic._PROBE_SEED))
        for target_delta_h in (0.0, traffic._FGN_FAMILY_THRESHOLD):
            score = max(abs(h - knob) / traffic._TOL_H, abs(dh - target_delta_h) / traffic._TOL_DH)
            assert score <= traffic._EARLY_STOP, (knob, target_delta_h, score)


def test_cold_fgn_calibration_measures_one_probe():
    probes = {}
    meta = calibrate(target_hurst=0.83, target_delta_h=0.15, probes=probes)
    assert list(probes) == [(0.83,)]
    assert meta.kind is GeneratorKind.FGN and meta.target_hurst == 0.83


def test_calibrate_argument_validation():
    with pytest.raises(ConfigError):
        calibrate(target_hurst=0.4, target_delta_h=0.5)
    with pytest.raises(ConfigError):
        calibrate(target_hurst=0.7, target_delta_h=5.0)
    with pytest.raises(ConfigError):
        calibrate(target_hurst=0.7, target_delta_h=0.5, budget=0)


def test_calibrate_reports_best_attempt_on_failure():
    with pytest.raises(CalibrationError) as info:
        calibrate(target_hurst=0.52, target_delta_h=4.0, budget=2)
    err = info.value
    assert err.best_meta is not None
    assert len(err.measured) == 2
    assert len(err.residuals) == 2


GRID_CELLS = ((0.6, 1.5), (0.6, 2.5), (0.9, 2.5))


def test_calibrate_with_a_shared_probe_memo_matches_cold_calls():
    cold = {cell: calibrate(*cell) for cell in GRID_CELLS}
    for order in (GRID_CELLS, GRID_CELLS[::-1]):
        probes = {}
        for cell in order:
            assert calibrate(*cell, probes=probes) == cold[cell]
        # the composite cells share their coarse grid: 64 distinct of 124 probes
        assert len(probes) == 64


def test_warm_probe_memo_still_counts_against_the_budget():
    probes = {}
    # the 30-probe coarse grid meets the target; budget 2 sees only its first two
    calibrate(target_hurst=0.52, target_delta_h=4.0, budget=30, probes=probes)
    assert len(probes) == 30
    with pytest.raises(CalibrationError) as cold:
        calibrate(target_hurst=0.52, target_delta_h=4.0, budget=2)
    with pytest.raises(CalibrationError) as warm:
        calibrate(target_hurst=0.52, target_delta_h=4.0, budget=2, probes=probes)
    assert str(warm.value) == str(cold.value)
    assert warm.value.best_meta == cold.value.best_meta
    assert warm.value.measured == cold.value.measured
    assert warm.value.residuals == cold.value.residuals


def test_calibrate_colours_one_envelope_per_distinct_hurst(monkeypatch):
    draws = []
    original = traffic._fgn_increments

    def counted(hurst, n, rng):
        draws.append(hurst)
        return original(hurst, n, rng)

    monkeypatch.setattr(traffic, "_fgn_increments", counted)
    probes = {}
    meta = calibrate(0.9, 2.5, probes=probes)
    assert len(probes) == 64
    # the coarse grid is tabulated: only the local probes are drawn
    live = [knobs for knobs in probes if knobs not in traffic._COARSE_PROBES]
    assert len(live) == 34
    assert sorted(draws) == sorted({knobs[0] for knobs in live})
    assert len(draws) == 9
    assert meta == GeneratorMeta(
        kind=GeneratorKind.COMPOSITE,
        seed=167,
        depth=14,
        target_hurst=0.975,
        multiplier_spread=0.592128,
    )


def test_calibrate_drops_envelopes_out_of_reach_and_colours_each_exponent_once(monkeypatch):
    # each factor array is watched through a weak reference, so the count is
    # of the envelopes the search itself still holds
    factors, coloured, live = [], [], []
    envelope, compose = traffic._envelope, traffic._compose

    def watched(depth, hurst, noise):
        env = envelope(depth, hurst, noise)
        factors.append(weakref.ref(env[1]))
        coloured.append(hurst)
        return env

    def counted(env, depth, spread, seed):
        live.append(sum(ref() is not None for ref in factors))
        return compose(env, depth, spread, seed)

    monkeypatch.setattr(traffic, "_envelope", watched)
    monkeypatch.setattr(traffic, "_compose", counted)
    # (target, probe memo, expected (exponent, spread), exponents coloured)
    grid_memo = {}
    cases = [
        ((0.9, 2.5), None, (0.975, 0.592128), 9),
        ((0.6, 0.5), None, (0.48, 0.057243), 10),
        ((0.6, 1.5), grid_memo, (0.55, 0.35), 0),
        ((0.6, 2.5), grid_memo, (0.65, 0.7), 0),
        ((0.9, 2.5), grid_memo, (0.975, 0.592128), 9),
    ]
    for target, probes, knobs, colourings in cases:
        coloured.clear()
        live.clear()
        meta = calibrate(*target, probes=probes)
        assert (meta.target_hurst, meta.multiplier_spread) == knobs
        assert len(coloured) == len(set(coloured)) == colourings
        assert max(live, default=0) <= 5
        # nothing the call coloured outlives it
        assert all(ref() is None for ref in factors)


def test_calibrate_draws_the_probe_noise_once_per_call(monkeypatch):
    draws = []
    original = traffic._fgn_noise

    def counted(n, rng):
        draws.append(n)
        return original(n, rng)

    monkeypatch.setattr(traffic, "_fgn_noise", counted)
    for target in ((0.9, 2.5), (0.7, 0.1)):  # composite family, fGn family
        draws.clear()
        calibrate(*target)
        assert draws == [2**14]
        calibrate(*target)
        assert draws == [2**14, 2**14]
    # a call answered wholly from the memo draws nothing; (0.9, 2.5) measures
    # local probes, so the memo, not the coarse table, is what answers it
    probes = {}
    draws.clear()
    calibrate(0.9, 2.5, probes=probes)
    assert draws == [2**14]
    draws.clear()
    calibrate(0.9, 2.5, probes=probes)
    assert draws == []


def test_coarse_table_equals_the_probes_it_stands_for():
    # a change to the composite generator, the probe seed or depth, or MF-DFA
    # fails here; the message is the regenerated table, to paste into traffic.py
    noise = traffic._fgn_noise(2**traffic._PROBE_DEPTH,
                               default_rng(SeedSequence([traffic._PROBE_SEED, traffic._STREAM_ENVELOPE])))
    knobs = list(itertools.product(traffic._COARSE_H, traffic._COARSE_SPREAD))
    measured = [
        measure_scaling(traffic._compose(traffic._envelope(traffic._PROBE_DEPTH, h, noise),
                                         traffic._PROBE_DEPTH, s, traffic._PROBE_SEED))
        for h, s in knobs
    ]
    literal = "\n".join(f"    ({h!r}, {dh!r})," for h, dh in measured)
    assert list(traffic._COARSE_PROBES) == knobs
    assert list(traffic._COARSE_PROBES.values()) == measured, "regenerated table:\n" + literal


def _calibration_outcome(target, budget=64):
    """(meta or the error's message and fields, list of the cold memo's items) of one call."""
    probes = {}
    try:
        outcome = calibrate(*target, budget=budget, probes=probes)
    except CalibrationError as exc:
        outcome = (str(exc), exc.best_meta, exc.measured, exc.residuals)
    return outcome, list(probes.items())


def test_calibration_is_unchanged_without_the_coarse_table(monkeypatch):
    cases = [(cell, 64) for cell in GRID_CELLS] + [
        ((0.8, 1.0), 64), ((0.6, 0.5), 64), ((0.52, 4.0), 2), ((0.99, 3.9), 50)]
    tabulated = [_calibration_outcome(*case) for case in cases]
    monkeypatch.setattr(traffic, "_COARSE_PROBES", {})
    measured = [_calibration_outcome(*case) for case in cases]
    assert measured == tabulated
    # two cases exhaust their budget: on the coarse grid (budget 2) and in the local rounds (budget 50)
    assert sum(isinstance(outcome, tuple) for outcome, _ in tabulated) == 2


def test_coarse_met_target_draws_and_measures_nothing(monkeypatch):
    calls = []
    for name in ("_fgn_noise", "_envelope", "_compose", "measure_scaling"):
        original = getattr(traffic, name)
        monkeypatch.setattr(traffic, name, lambda *a, _f=original, _n=name: calls.append(_n) or _f(*a))
    for target in ((0.8, 1.0), (0.6, 1.5), (0.6, 2.5)):
        probes = {}
        calibrate(*target, probes=probes)
        assert list(probes) == list(traffic._COARSE_PROBES)
    assert calls == []


class _Exhausted(Exception):
    pass


def _closure_search(target_hurst, target_delta_h, budget, memo):
    """calibrate's search as once written, with closures and an exception.

    Reads every measurement from `memo` and draws none; returns the knobs
    it visited, in order, and the best of them.
    """
    visited = []

    def score(measured):
        return max(abs(measured[0] - target_hurst) / traffic._TOL_H,
                   abs(measured[1] - target_delta_h) / traffic._TOL_DH)

    def probe(knobs):
        if knobs not in visited:
            if len(visited) >= budget:
                raise _Exhausted()
            visited.append(knobs)
        return memo[knobs]

    best = None

    def consider(knobs):
        nonlocal best
        m = probe(knobs)
        if best is None or score(m) < score(memo[best]):
            best = knobs
        return score(m)

    try:
        if target_delta_h <= traffic._FGN_FAMILY_THRESHOLD:
            knob = min(max(target_hurst, 0.05), 0.99)
            for _ in range(min(budget, 8)):
                s = consider((knob,))
                if s <= traffic._EARLY_STOP:
                    break
                nxt = min(max(knob + (target_hurst - memo[(knob,)][0]), 0.05), 0.99)
                if abs(nxt - knob) < 1e-3:
                    break
                knob = nxt
        else:
            for hk in traffic._COARSE_H:
                for sk in traffic._COARSE_SPREAD:
                    consider((hk, sk))
            h_step, s_mult = 0.04, 1.25
            for _ in range(3):
                if score(memo[best]) <= traffic._EARLY_STOP:
                    break
                hk, sk = best
                for h_off in (-h_step, -h_step / 2, 0.0, h_step / 2, h_step):
                    for sm in (1.0 / s_mult, 1.0, s_mult):
                        h = min(max(hk + h_off, 0.05), 0.99)
                        consider((round(h, 6), round(sk * sm, 6)))
                h_step /= 2
                s_mult = math.sqrt(s_mult)
    except _Exhausted:
        pass
    return visited, best, score(memo[best])


def test_calibrate_search_path_matches_the_closure_search():
    # an fGn target; a composite target met on the coarse grid, which
    # stops before the local rounds; one whose budget runs out in them
    targets = ((0.7, 0.1, 64), (0.7, 1.8, 64), (0.99, 3.9, 50))
    probes = {}
    results = []
    for hurst, delta_h, budget in targets:
        try:
            results.append(calibrate(hurst, delta_h, budget, probes))
        except CalibrationError as exc:
            results.append(exc)

    order = []
    for (hurst, delta_h, budget), result in zip(targets, results):
        visited, best, best_score = _closure_search(hurst, delta_h, budget, probes)
        order += [knobs for knobs in visited if knobs not in order]
        composite = len(best) == 2
        meta = GeneratorMeta(
            kind="composite" if composite else "fgn",
            seed=167,
            depth=14 if composite else None,
            target_hurst=best[0],
            multiplier_spread=best[1] if composite else None,
        )
        if best_score <= 1.0:
            assert result == meta
            continue
        measured = probes[best]
        assert isinstance(result, CalibrationError)
        assert str(result) == (
            f"calibration exhausted budget {budget}: best measured "
            f"(H={measured[0]:.3f}, dH={measured[1]:.3f}) vs targets (H={hurst}, dH={delta_h})"
        )
        assert result.best_meta == meta
        assert result.measured == measured
        assert result.residuals == (measured[0] - hurst, measured[1] - delta_h)
    # the memo holds every probe once, in the order the searches first visited it
    assert list(probes) == order
    assert [type(r).__name__ for r in results] == ["GeneratorMeta", "GeneratorMeta",
                                                   "CalibrationError"]
    assert len(order) == 1 + 30 + 20


def test_measure_scaling_matches_mfdfa():
    for values in (
        generate_cascade(depth=12, multiplier_spread=0.6, seed=11).values,
        generate_composite(depth=14, hurst=0.8, multiplier_spread=0.7, seed=4).values,
        generate_fgn(hurst=0.7, length=3000, seed=2).values,  # scales that do not divide n
        # 32 ticks, repeated up to MF-DFA's 1024-sample minimum
        np.tile(generate_composite(depth=5, hurst=0.6, multiplier_spread=0.5, seed=1).values, 32),
    ):
        h, dh = measure_scaling(values)
        spec = mfdfa(values)
        assert h == spec.h_at(2.0)
        assert dh == spec.delta_h


# -------------------------------------------------------------------- csv


def test_series_csv_round_trip(tmp_path):
    series = generate_composite(depth=9, hurst=0.75, multiplier_spread=0.4, seed=13)
    path = tmp_path / "series.csv"
    write_series_csv(path, series)
    lines = path.read_text().splitlines()
    assert lines[0] == "tick,value"
    assert len(lines) == len(series) + 1
    values = read_series_csv(path)
    assert np.allclose(values, series.values, rtol=1e-11, atol=0.0)


def test_series_csv_rows_span_write_chunks(tmp_path):
    # 9000 rows are written in several chunks; every row appears once, in
    # order, byte for byte as one f-string per row writes it
    values = generate_fgn(hurst=0.7, length=9000, seed=13).values
    values = np.concatenate([[0.0, 5e-324, 1e300, 0.1], values, [0.1, 1e300, 5e-324, 0.0]])
    path = tmp_path / "series.csv"
    write_series_csv(path, values)
    rows = "".join(f"{t},{v:.12g}\n" for t, v in enumerate(values.tolist()))
    assert path.read_bytes() == ("tick,value\n" + rows).encode()


def test_series_csv_rejects_malformed_input(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,load\n0,1.0\n")
    with pytest.raises(ConfigError):
        read_series_csv(path)
    path.write_text("tick,value\n0,-3.0\n")
    with pytest.raises(ConfigError):
        read_series_csv(path)
    path.write_text("tick,value\n")
    with pytest.raises(ConfigError):
        read_series_csv(path)


def test_series_csv_tick_must_be_the_row_index(tmp_path):
    # rows sorted by value once read back as a series with another H
    values = generate_fgn(hurst=0.7, length=2048, seed=3).values
    path = tmp_path / "sorted.csv"
    order = np.argsort(values, kind="stable")
    path.write_text("tick,value\n" + "".join(f"{t},{values[t]:.12g}\n" for t in order.tolist()))
    first = int(order[0])
    assert first != 0
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: expected tick 0, got '{first}'$"):
        read_series_csv(path)
    path.write_text("tick,value\n" + "".join(f"7,{v:.12g}\n" for v in values[:8].tolist()))
    with pytest.raises(ConfigError, match=rf"^{re.escape(str(path))}:2: expected tick 0, got '7'$"):
        read_series_csv(path)
    # comment and blank lines hold no row, so the ticks count data rows only
    path.write_text("tick,value\n# head\n0,1.5\n\n1,2.5\n2,0.5\n")
    assert read_series_csv(path).tolist() == [1.5, 2.5, 0.5]
