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
    estimate_hurst_dfa,
    mfdfa,
    write_spectrum_csv,
)
from mfload.traffic import generate_cascade, generate_composite, generate_fgn

SF_SCALES = tuple(int(s) for s in np.unique(np.geomspace(16, 512, 12).astype(int)))


# ----------------------------------------------------------------- hurst


def test_dfa_recovers_white_noise():
    for seed in range(3):
        series = generate_fgn(hurst=0.5, length=2**14, seed=seed)
        est = estimate_hurst_dfa(series.values)
        assert 0.43 <= est.hurst <= 0.57


def test_dfa_recovers_persistent_noise():
    for seed in range(3):
        series = generate_fgn(hurst=0.8, length=2**14, seed=seed)
        est = estimate_hurst_dfa(series.values)
        assert 0.73 <= est.hurst <= 0.87


def test_dfa_estimate_fields():
    est = estimate_hurst_dfa(generate_fgn(0.7, 2**12, seed=0).values)
    assert est.stderr >= 0.0
    lo, hi = est.scale_range
    assert 0 < lo < hi


def test_dfa_rejects_degenerate_input():
    with pytest.raises(DegenerateSeriesError):
        estimate_hurst_dfa(np.full(4096, 3.0))
    with pytest.raises(InsufficientDataError):
        estimate_hurst_dfa(np.ones(255) + default_rng(0).random(255))


def test_dfa_shares_the_mfdfa_degeneracy_rule():
    # fluctuations under the floor at every scale: DFA once fitted H = 0 to the floored values
    tiny = generate_fgn(0.7, 4096, seed=3).values * 1e-13
    for estimator in (estimate_hurst_dfa, mfdfa):
        with pytest.raises(DegenerateSeriesError, match="fluctuations vanish at every scale"):
            estimator(tiny)


def test_dfa_scale_range_validation():
    values = generate_fgn(0.7, 4096, seed=1).values
    with pytest.raises(ConfigError):
        estimate_hurst_dfa(values, scale_range=(64, 16))
    with pytest.raises(ConfigError):
        estimate_hurst_dfa(values, scale_range=(4, 6))  # too few usable scales


# ----------------------------------------------------------------- mfdfa


def test_mfdfa_monofractal_spectrum_is_narrow():
    for seed in range(2):
        series = generate_fgn(hurst=0.7, length=2**14, seed=seed)
        spec = mfdfa(series.values)
        assert spec.delta_h <= 0.2


def test_mfdfa_q2_matches_dfa_on_shared_scales():
    values = generate_fgn(hurst=0.7, length=2**14, seed=3).values
    scales = (16, default_scales(len(values))[-1])
    spec = mfdfa(values, scale_range=scales)
    est = estimate_hurst_dfa(values, scale_range=scales)
    # DFA is the q = 2 fit of MF-DFA, through the same floor and fit
    assert spec.h_at(2.0) == est.hurst


def test_mfdfa_q2_close_to_dfa_default_paths():
    for maker in (
        lambda: generate_fgn(0.75, 2**14, seed=4).values,
        lambda: generate_cascade(depth=14, multiplier_spread=0.5, seed=4).values,
    ):
        values = maker()
        assert abs(mfdfa(values).h_at(2.0) - estimate_hurst_dfa(values).hurst) <= 0.05


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


@pytest.mark.parametrize("n", [2**14, 3000, 1024 + 17])
def test_segment_f2_equals_the_stacked_formula_bitwise(n):
    x = generate_composite(depth=14, hurst=0.75, multiplier_spread=0.7, seed=3).values[:n]
    profile = np.cumsum(x - x.mean())
    # some default scales divide 2^14 and 3000 (both passes cover the same
    # segments), none divides 1041, and most leave a tail for the backward pass
    for s in default_scales(n):
        assert np.array_equal(_segment_f2(profile, int(s)), _stacked_segment_f2(profile, int(s)))


def _mean_mfdfa(x, q_grid, scale_range):
    """h(q) and intercepts of mfdfa with ``np.mean`` row means and moments, as first written."""
    scales = fractal._resolve_scales(x.size, scale_range)
    profile = np.cumsum(x - x.mean())
    f2s = [np.maximum(_stacked_segment_f2(profile, int(s)), fractal._F2_FLOOR) for s in scales]
    fits = []
    for q in q_grid:
        if q == 0.0:
            f = [np.exp(0.5 * np.mean(np.log(f2))) for f2 in f2s]
        else:
            f = [np.mean(f2 ** (q / 2.0)) ** (1.0 / q) for f2 in f2s]
        fits.append(fractal._loglog_fit(scales, np.array(f))[:2])
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
        for scale_range in (None, (8, 200), (20, x.size // 5)):
            spectrum = mfdfa(x, q_grid, scale_range)
            got = ([h.hex() for h in spectrum.h_of_q], [c.hex() for c in spectrum.intercepts])
            assert got == _mean_mfdfa(x, q_grid, scale_range)


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
