"""Generator invariants: conservation, determinism, and tunable width."""

import numpy as np
import pytest

from mfload.errors import CalibrationError, ConfigError
from mfload.fractal import mfdfa
from mfload.traffic import (
    INITIAL_MASS,
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
    for depth in (1, 8, 14):
        for seed in range(3):
            series = generate_cascade(depth=depth, multiplier_spread=0.7, seed=seed)
            total = float(series.values.sum())
            assert abs(total - INITIAL_MASS) <= 1e-9 * INITIAL_MASS
            assert np.all(series.values >= 0.0)


def test_cascade_deterministic():
    a = generate_cascade(depth=12, multiplier_spread=0.4, seed=42)
    b = generate_cascade(depth=12, multiplier_spread=0.4, seed=42)
    assert np.array_equal(a.values, b.values)
    c = generate_cascade(depth=12, multiplier_spread=0.4, seed=43)
    assert not np.array_equal(a.values, c.values)


def test_cascade_degenerates_to_uniform_split():
    series = generate_cascade(depth=8, multiplier_spread=1e-10, seed=1)
    assert np.allclose(series.values, INITIAL_MASS / 2**8, rtol=1e-6, atol=0.0)


def test_cascade_argument_validation():
    with pytest.raises(ConfigError):
        generate_cascade(depth=0, multiplier_spread=0.5, seed=0)
    with pytest.raises(ConfigError):
        generate_cascade(depth=25, multiplier_spread=0.5, seed=0)
    with pytest.raises(ConfigError):
        generate_cascade(depth=8, multiplier_spread=0.0, seed=0)
    with pytest.raises(ConfigError):
        generate_cascade(depth=8, multiplier_spread=0.5, seed=-1)


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


# ------------------------------------------------------------ series object


def test_series_invariants():
    with pytest.raises(ConfigError):
        TrafficSeries(values=np.array([1.0, -0.5]), tick_count=2, meta=None)
    with pytest.raises(ConfigError):
        TrafficSeries(values=np.ones(4), tick_count=3, meta=None)
    meta = GeneratorMeta(kind=GeneratorKind.CASCADE, seed=0, depth=3, multiplier_spread=0.5)
    with pytest.raises(ConfigError):
        TrafficSeries(values=np.ones(4), tick_count=4, meta=meta)  # 2**3 != 4


def test_series_values_read_only():
    series = generate_fgn(0.7, 128, seed=0)
    with pytest.raises(ValueError):
        series.values[0] = 9.0
    # the series freezes its own copy, not the caller's array
    own = np.ones(4)
    wrapped = TrafficSeries(values=own, tick_count=4, meta=None)
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
    # completeness is checked where the record is consumed
    with pytest.raises(ConfigError):
        generate_from_meta(GeneratorMeta(kind=GeneratorKind.FGN, seed=0), length=1024)
    with pytest.raises(ConfigError):
        generate_from_meta(GeneratorMeta(kind=GeneratorKind.CASCADE, seed=0, depth=8), length=256)
    with pytest.raises(ConfigError):
        generate_from_meta(
            GeneratorMeta(kind=GeneratorKind.COMPOSITE, seed=0, depth=8, target_hurst=0.7),
            length=256,
        )


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


# ------------------------------------------------------------- calibration


def test_calibrate_narrow_target_uses_fgn():
    meta = calibrate(target_hurst=0.7, target_delta_h=0.0)
    assert meta.kind is GeneratorKind.FGN
    series = generate_from_meta(meta, length=2**14)
    h, dh = measure_scaling(series)
    assert abs(h - 0.7) <= 0.1
    assert dh <= 0.2


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


def test_measure_scaling_matches_mfdfa():
    series = generate_cascade(depth=12, multiplier_spread=0.6, seed=11)
    h, dh = measure_scaling(series)
    spec = mfdfa(series.values)
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
