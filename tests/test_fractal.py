"""Estimator checks against series with known scaling behaviour."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.random import default_rng

import mfload
from mfload import fractal
from mfload.errors import (
    ConfigError,
    DegenerateSeriesError,
    EstimationError,
    InsufficientDataError,
)
from mfload.fractal import (
    DEFAULT_Q_GRID,
    MultifractalSpectrum,
    _segment_f2,
    default_scales,
    mfdfa,
    write_spectrum_csv,
)
from mfload.traffic import generate_cascade, generate_composite, generate_fgn, measure_scaling

SF_SCALES = tuple(int(s) for s in np.unique(np.geomspace(16, 512, 12).astype(int)))


# ----------------------------------------------------------------- hurst
# DFA is MF-DFA's q = 2 fit, so H is read as h(2)


def test_dfa_recovers_white_noise():
    for seed in range(3):
        series = generate_fgn(hurst=0.5, length=2**14, seed=seed)
        assert 0.43 <= mfdfa(series.values).h_at(2.0) <= 0.57


def test_dfa_recovers_persistent_noise():
    for seed in range(3):
        series = generate_fgn(hurst=0.8, length=2**14, seed=seed)
        assert 0.73 <= mfdfa(series.values).h_at(2.0) <= 0.87


def test_dfa_rejects_degenerate_input():
    with pytest.raises(DegenerateSeriesError):
        mfdfa(np.full(4096, 3.0))
    with pytest.raises(InsufficientDataError):
        mfdfa(np.ones(255) + default_rng(0).random(255))


def test_dfa_shares_the_mfdfa_degeneracy_rule():
    # fluctuations under the floor at every scale: DFA once fitted H = 0 to the floored values
    tiny = generate_fgn(0.7, 4096, seed=3).values * 1e-13
    with pytest.raises(DegenerateSeriesError, match="fluctuations vanish at every scale"):
        mfdfa(tiny)


# ----------------------------------------------------------------- mfdfa


def test_mfdfa_monofractal_spectrum_is_narrow():
    for seed in range(2):
        series = generate_fgn(hurst=0.7, length=2**14, seed=seed)
        spec = mfdfa(series.values)
        assert spec.delta_h <= 0.2


def test_mfdfa_affine_invariance():
    values = generate_cascade(depth=13, multiplier_spread=0.6, seed=5).values
    a = mfdfa(values)
    b = mfdfa(3.5 * values + 2.0)
    assert np.max(np.abs(np.array(a.h_of_q) - np.array(b.h_of_q))) <= 1e-9


def test_mfdfa_hq_non_increasing_for_cascades():
    # generalized exponents of a multiplicative cascade decay in q;
    # allow slack for estimation noise and require a seed majority
    ok = 0
    for seed in range(5):
        spec = mfdfa(generate_cascade(depth=14, multiplier_spread=0.8, seed=seed).values)
        h = np.array(spec.h_of_q)
        if np.all(np.diff(h) <= 0.05):
            ok += 1
    assert ok >= 4


def test_mfdfa_q_grid_validation():
    values = generate_fgn(0.7, 2048, seed=6).values
    with pytest.raises(ConfigError):
        mfdfa(values, q_grid=())
    with pytest.raises(ConfigError):
        mfdfa(values, q_grid=(2.0, 1.0, -1.0))
    with pytest.raises(ConfigError):
        mfdfa(values, q_grid=(-2.0, 1.0, 3.0))  # q=2 must be present
    spec = mfdfa(values, q_grid=(-2.0, 0.0, 2.0))
    assert np.isfinite(spec.h_at(0.0))


@pytest.mark.parametrize("q_grid", [(float("nan"), 2.0, 5.0), (-5.0, 2.0, float("inf"))])
def test_mfdfa_rejects_a_non_finite_q(q_grid):
    with pytest.raises(ConfigError, match="q_grid must be finite"):
        mfdfa(generate_fgn(0.7, 2048, seed=6).values, q_grid=q_grid)


def test_mfdfa_rejects_a_spectrum_whose_moments_leave_the_float_range():
    # f2 ** (q / 2) overflows at q = -400, and the fit came out NaN
    with pytest.raises(EstimationError, match="q=-400 is not finite"):
        mfdfa(generate_fgn(0.7, 2048, seed=6).values, q_grid=(-400.0, 2.0, 400.0))


def test_mfdfa_length_guard():
    with pytest.raises(InsufficientDataError):
        mfdfa(generate_fgn(0.7, 1024, seed=0).values[:1023])


def test_mfdfa_deterministic():
    values = generate_cascade(depth=12, multiplier_spread=0.4, seed=7).values
    a, b = mfdfa(values), mfdfa(values)
    assert a.h_of_q == b.h_of_q
    assert a.delta_h == b.delta_h


def _polyfit_line(scales, values):
    """The log-log line by ``np.polyfit``'s least-squares solve, the reference for the closed form."""
    slope, intercept = np.polyfit(np.log(scales.astype(float)), np.log(values), 1)
    return float(slope), float(intercept)


_GENERATORS = {"fgn": generate_fgn, "cascade": generate_cascade, "composite": generate_composite}


@pytest.mark.parametrize("kind, args", [
    *(("fgn", (h, n)) for h in (0.3, 0.8) for n in (1024, 5000, 2**14)),
    ("cascade", (14, 0.8)),
    ("composite", (14, 0.75, 1.5)),
])
def test_loglog_fit_equals_polyfit_at_every_q(monkeypatch, kind, args):
    x = _GENERATORS[kind](*args, seed=11).values
    fit, lines = fractal._loglog_fit, []
    monkeypatch.setattr(fractal, "_loglog_fit", lambda s, v: lines.append((s, v)) or fit(s, v))
    q_grid = tuple(sorted(DEFAULT_Q_GRID + (0.0,)))
    mfdfa(x, q_grid)
    assert len(lines) == len(q_grid)
    for scales, values in lines:
        slope, intercept = fit(scales, values)
        ref_slope, ref_intercept = _polyfit_line(scales, values)
        assert slope == pytest.approx(ref_slope, rel=1e-14, abs=0.0)
        assert intercept == pytest.approx(ref_intercept, rel=1e-11, abs=0.0)


def test_mfdfa_calls_no_least_squares_solver(monkeypatch):
    # np.polyfit's SVD solve loads LAPACK working memory that nothing else in mfload uses
    def refuse(*args, **kwargs):
        raise AssertionError("MF-DFA called a LAPACK least-squares solve")

    monkeypatch.setattr(np, "polyfit", refuse)
    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    x = generate_composite(14, 0.75, 1.5, seed=4).values
    assert len(mfdfa(x).h_of_q) == len(DEFAULT_Q_GRID)
    assert np.isfinite(mfdfa(x, (-2.0, 0.0, 2.0)).h_at(0.0))
    assert all(np.isfinite(measure_scaling(x)))


def _stacked_segment_f2(profile, scale):
    """Per-segment f2 on a stacked forward+backward copy, the plain formula."""
    n = profile.size
    ns = n // scale
    segs = np.vstack(
        [profile[: ns * scale].reshape(ns, scale), profile[n - ns * scale :].reshape(ns, scale)]
    )
    t = np.arange(scale, dtype=float)
    tc = t - t.mean()
    ss_t = float(np.dot(tc, tc))
    means = segs.mean(axis=1, keepdims=True)
    slopes = (segs * tc).sum(axis=1, keepdims=True) / ss_t
    resid = segs - means - slopes * tc
    return (resid * resid).mean(axis=1)


def _composite_head(n):
    return generate_composite(depth=14, hurst=0.75, multiplier_spread=0.7, seed=3).values[:n]


# some default scales divide 2^14 and 3000 (both passes cover the same
# segments), none divides 1041, and most leave a tail for the backward pass;
# the calibrated probe record, a cascade with near-zero F² segments (h(q < 0)
# rides on them) and an fGn pin the flat products on other shapes
_F2_INPUTS = {
    "16384": lambda: _composite_head(2**14),
    "3000": lambda: _composite_head(3000),
    "1041": lambda: _composite_head(1024 + 17),
    "composite_calibrated": lambda: generate_composite(14, 0.975, 0.592, 167).values,
    "cascade": lambda: generate_cascade(12, 1.6, 3).values,
    "fgn_3000": lambda: generate_fgn(0.7, 3000, seed=5).values,
}


@pytest.mark.parametrize("case", list(_F2_INPUTS))
def test_segment_f2_equals_the_stacked_formula_bitwise(case):
    x = _F2_INPUTS[case]()
    n = x.size
    profile = np.cumsum(x - x.mean())
    odd_negative_slope = False
    for s in default_scales(n).tolist():
        got = _segment_f2(profile, s, np.empty((2, n)), np.empty(2 * (n // s)))
        assert got.tobytes() == _stacked_segment_f2(profile, s).tobytes()
        # an odd scale's centred ticks hold an exact 0.0, so a negative slope
        # makes the trend's -0.0 product that einsum writes as +0.0
        if s % 2:
            tc = np.arange(s, dtype=float) - (s - 1) / 2
            odd_negative_slope |= bool(((profile[: n // s * s].reshape(-1, s) * tc).sum(axis=1) < 0).any())
    assert odd_negative_slope


def _mean_mfdfa(x, q_grid):
    """h(q) and intercepts of mfdfa with ``np.mean`` row means and moments, as first written."""
    scales = default_scales(x.size)
    profile = np.cumsum(x - x.mean())
    f2s = [np.maximum(_stacked_segment_f2(profile, int(s)), fractal._F2_FLOOR) for s in scales]
    fits = []
    for q in q_grid:
        if q == 0.0:
            f = [np.exp(0.5 * np.mean(np.log(f2))) for f2 in f2s]
        else:
            f = [np.mean(f2 ** (q / 2.0)) ** (1.0 / q) for f2 in f2s]
        fits.append(fractal._loglog_fit(scales, np.array(f)))
    return [h.hex() for h, _ in fits], [c.hex() for _, c in fits]


@pytest.mark.parametrize("q_grid", [DEFAULT_Q_GRID, (-4.0, -1.5, 0.0, 1.0, 2.0, 3.5), (0.0, 2.0)])
def test_mfdfa_equals_the_mean_formulation_bitwise(q_grid):
    series = [
        generate_fgn(0.55, 1024, seed=1).values,
        generate_fgn(0.85, 5000, seed=2).values,
        generate_composite(depth=13, hurst=0.75, multiplier_spread=0.7, seed=3).values,
        generate_cascade(depth=12, multiplier_spread=0.5, seed=4).values,
    ]
    for x in series:
        spectrum = mfdfa(x, q_grid)
        got = ([h.hex() for h in spectrum.h_of_q], [c.hex() for c in spectrum.intercepts])
        assert got == _mean_mfdfa(x, q_grid)


def _per_scale_mfdfa(x, q_grid):
    """mfdfa with each scale's moment raised on its own fluctuations, as the fit was first written."""
    scales = default_scales(x.size)
    profile = np.cumsum(x - x.mean())
    f2s = [np.maximum(_stacked_segment_f2(profile, int(s)), fractal._F2_FLOOR) for s in scales]
    if max(float(np.max(f2)) for f2 in f2s) < fractal._F2_FLOOR * 10:
        raise DegenerateSeriesError("fluctuations vanish at every scale")
    fits = []
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for q in q_grid:
            if q == 0.0:
                f = [np.exp(0.5 * (np.add.reduce(np.log(f2)) / f2.size)) for f2 in f2s]
            else:
                f = [(np.add.reduce(f2 ** (q / 2.0)) / f2.size) ** (1.0 / q) for f2 in f2s]
            fits.append(fractal._loglog_fit(scales, np.array(f)))
    h, c = zip(*fits)
    return MultifractalSpectrum(q_grid=q_grid, h_of_q=h, delta_h=h[0] - h[-1], intercepts=c)


def _outcome(estimate, *args):
    """An estimate's h(q) and intercepts as float.hex, or the error it raised."""
    try:
        spectrum = estimate(*args)
    except (DegenerateSeriesError, EstimationError) as exc:
        return type(exc), str(exc)
    return [h.hex() for h in spectrum.h_of_q], [c.hex() for c in spectrum.intercepts]


@pytest.mark.parametrize("q_grid", [(0.0, 2.0), DEFAULT_Q_GRID, (-40.0, -3.0, 0.0, 2.0, 3.0, 40.0), (2.0, 40.0)],
                         ids=["zero", "negatives", "forty", "plus-forty"])
def test_mfdfa_equals_the_per_scale_fit_bitwise(q_grid):
    series = [
        generate_fgn(0.6, 1024, seed=5).values,
        generate_fgn(0.9, 3001, seed=6).values,
        generate_composite(depth=13, hurst=0.8, multiplier_spread=1.2, seed=7).values,
        generate_cascade(depth=12, multiplier_spread=0.5, seed=8).values,
        generate_fgn(0.7, 4096, seed=3).values * 1e-13,  # vanishes at every scale
    ]
    outcomes = [_outcome(mfdfa, x, q_grid) for x in series]
    assert outcomes == [_outcome(_per_scale_mfdfa, x, q_grid) for x in series]
    assert outcomes[-1] == (DegenerateSeriesError, "fluctuations vanish at every scale")


def test_spectrum_invariants_enforced():
    with pytest.raises(ConfigError):
        MultifractalSpectrum(
            q_grid=(1.0, 2.0), h_of_q=(0.8, 0.7), delta_h=0.2, intercepts=(0.0, 0.0)
        )
    with pytest.raises(EstimationError):
        MultifractalSpectrum(
            q_grid=(1.0, 2.0), h_of_q=(0.5, 0.8), delta_h=-0.3, intercepts=(0.0, 0.0)
        )
    spec = MultifractalSpectrum(
        q_grid=(1.0, 2.0), h_of_q=(0.8, 0.7), delta_h=0.1, intercepts=(0.0, 0.0)
    )
    assert spec.h_at(2.0) == 0.7
    with pytest.raises(ConfigError):
        spec.h_at(3.0)


# --------------------------------------------------------- structure moments


def _structure_slope(x, q, scales):
    """Slope of log mean |block sum|^q against log scale, a moment-scaling oracle for MF-DFA.

    The series is centred by its mean and aggregated by block sums with no
    detrending, so the slope estimates q*h(q) for increment-like input, with
    h capped at 1. A floor relative to the series keeps the slope free of
    its amplitude; q must be positive.
    """
    xc = x - x.mean()
    floor = 1e-12 * float(np.max(np.abs(xc)))
    s_arr = np.asarray(scales)
    m = np.empty(s_arr.size)
    for j, s in enumerate(s_arr):
        ns = x.size // s
        agg = xc[: ns * s].reshape(ns, s).sum(axis=1)
        m[j] = np.mean(np.maximum(np.abs(agg), floor) ** q)
    return fractal._loglog_fit(s_arr, m)[0]


def test_structure_function_fgn_slope():
    for seed in range(3):
        values = generate_fgn(hurst=0.7, length=2**14, seed=seed).values
        slope = _structure_slope(values, 2.0, SF_SCALES)
        assert 0.6 <= slope / 2.0 <= 0.8


def test_structure_function_agrees_with_mfdfa_on_cascades():
    for seed in range(5):
        values = generate_cascade(depth=14, multiplier_spread=0.8, seed=seed).values
        slope = _structure_slope(values, 2.0, SF_SCALES)
        h2 = mfdfa(values).h_at(2.0)
        assert abs(slope / 2.0 - h2) <= 0.1


# ------------------------------------------------------------------- output


def test_default_scales_shape():
    scales = default_scales(2**14)
    assert scales[0] == 16
    assert scales[-1] <= 2**14 // 4
    assert np.all(np.diff(scales) > 0)


@pytest.mark.parametrize("length", [1024, 1041, 3000] + [2**k for k in range(7, 17)])
def test_default_scales_equal_np_unique(length):
    grid = np.round(np.exp(np.linspace(np.log(16), np.log(length // 4), 20))).astype(int)
    scales = default_scales(length)
    assert scales.dtype == np.unique(grid).dtype
    assert np.array_equal(scales, np.unique(grid))


def test_default_scales_do_not_import_numpy_ma():
    # np.unique imports numpy.ma on first use, a cost every CLI process would pay
    code = ("import sys; from mfload.fractal import default_scales; "
            "default_scales(16384); print('numpy.ma' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=str(Path(mfload.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert done.stdout.strip() == "False"


def test_spectrum_csv_format(tmp_path):
    spec = mfdfa(generate_fgn(0.7, 2048, seed=9).values)
    path = tmp_path / "spectrum.csv"
    write_spectrum_csv(path, spec)
    lines = path.read_text().splitlines()
    assert lines[0] == "q,h_q,intercept"
    assert len(lines) == len(DEFAULT_Q_GRID) + 2
    assert lines[-1].startswith("# H=")
    q0, h0, _ = lines[1].split(",")
    assert float(q0) == DEFAULT_Q_GRID[0]
    assert float(h0) == pytest.approx(spec.h_of_q[0], rel=1e-11)
