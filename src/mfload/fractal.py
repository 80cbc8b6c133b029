"""Scaling estimators for load series: DFA and multifractal DFA.

The estimators here close the loop between generation targets and realized
traffic: given a series, recover the self-similarity exponent H, the
generalized exponent curve h(q), and the heterogeneity width
delta_h = h(q_min) - h(q_max).

DFA and MF-DFA share one fluctuation backbone (profile, segmentation,
order-1 detrending, one floor and degeneracy rule) and one fit, so
:func:`estimate_hurst_dfa` is exactly the q = 2 fit of :func:`mfdfa`.
Everything is pure: identical inputs give bitwise-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSeriesError,
    EstimationError,
    InsufficientDataError,
)

__all__ = [
    "DEFAULT_Q_GRID",
    "MFDFA_MIN_SAMPLES",
    "HurstEstimate",
    "MultifractalSpectrum",
    "estimate_hurst_dfa",
    "mfdfa",
    "default_scales",
    "write_spectrum_csv",
]

# q = 0 needs the logarithmic-average branch; the default grid skips it while
# still spanning [-5, 5] so delta_h keeps its usual meaning.
DEFAULT_Q_GRID = (-5.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 5.0)

# shortest series mfdfa accepts
MFDFA_MIN_SAMPLES = 1024

# moments of near-zero fluctuations blow up under negative q; floor first
# (the square of a 1e-12 floor on F)
_F2_FLOOR = 1e-24


@dataclass(frozen=True)
class HurstEstimate:
    """A single Hurst exponent measurement with its regression error."""

    hurst: float
    stderr: float
    scale_range: tuple[int, int]

    def __post_init__(self):
        if not np.isfinite(self.hurst):
            raise EstimationError("hurst estimate is not finite")
        if self.stderr < 0 or not np.isfinite(self.stderr):
            raise EstimationError("stderr must be a finite non-negative real")
        lo, hi = self.scale_range
        if not (0 < lo < hi):
            raise ConfigError(f"scale_range must satisfy 0 < min < max, got ({lo}, {hi})")


@dataclass(frozen=True)
class MultifractalSpectrum:
    """Generalized Hurst curve h(q) plus the width delta_h it implies.

    ``intercepts`` are the log-scale regression intercepts, one per q; they
    estimate log c(q) of the moment-scaling law E|X|^q ~ c(q) * s^(q h(q)).
    """

    q_grid: tuple[float, ...]
    h_of_q: tuple[float, ...]
    delta_h: float
    intercepts: tuple[float, ...]

    def __post_init__(self):
        if len(self.q_grid) != len(self.h_of_q) or len(self.q_grid) != len(self.intercepts):
            raise ConfigError("q_grid, h_of_q and intercepts must have equal length")
        if any(b <= a for a, b in zip(self.q_grid, self.q_grid[1:])):
            raise ConfigError("q_grid must be strictly ascending")
        for qi, hi, ci in zip(self.q_grid, self.h_of_q, self.intercepts):
            if not (np.isfinite(hi) and np.isfinite(ci)):
                raise EstimationError(f"h(q) at q={qi:g} is not finite; the q-th moment left the float range")
        expected = self.h_of_q[0] - self.h_of_q[-1]
        if abs(self.delta_h - expected) > 1e-12:
            raise ConfigError("delta_h must equal h(q_min) - h(q_max)")
        # small negatives are estimation noise; anything lower means the fit broke
        if self.delta_h < -0.1:
            raise EstimationError(
                f"delta_h = {self.delta_h:.4f}; estimates below -0.1 indicate a degenerate fit"
            )

    def h_at(self, q: float) -> float:
        """h(q) for a q present in the grid."""
        for qi, hi in zip(self.q_grid, self.h_of_q):
            if qi == q:
                return hi
        raise ConfigError(f"q={q} is not in the spectrum grid")


def _as_values(series) -> np.ndarray:
    """Accept a TrafficSeries or any array-like; return a float vector."""
    values = getattr(series, "values", series)
    x = np.asarray(values, dtype=float)
    if x.ndim != 1:
        raise ConfigError(f"expected a 1-d series, got shape {x.shape}")
    if x.size == 0:
        raise InsufficientDataError("series is empty")
    if not np.all(np.isfinite(x)):
        raise ConfigError("series contains non-finite values")
    return x


def _log_scales(lo: int, hi: int) -> np.ndarray:
    """20 log-spaced integer scales in [lo, hi], deduplicated."""
    # sorted and adjacent-distinct, as np.unique returns them; np.unique
    # imports numpy.ma on its first call, a fixed cost on every CLI run
    scales = np.sort(np.round(np.exp(np.linspace(np.log(lo), np.log(hi), 20))).astype(int))
    return scales[np.concatenate(([True], scales[1:] != scales[:-1]))]


def default_scales(length: int) -> np.ndarray:
    """~20 log-spaced integer scales in [16, length/4], deduplicated."""
    if length // 4 <= 16:
        raise InsufficientDataError(f"series length {length} leaves no scales in [16, length/4]")
    return _log_scales(16, length // 4)


def _resolve_scales(n: int, scale_range) -> np.ndarray:
    if scale_range is None:
        return default_scales(n)
    lo, hi = int(scale_range[0]), int(scale_range[1])
    if lo < 8 or hi > n // 4 or lo >= hi:
        raise ConfigError(f"scale_range ({lo}, {hi}) must satisfy 8 <= min < max <= length/4 = {n // 4}")
    scales = _log_scales(lo, hi)
    if scales.size < 4:
        raise ConfigError(f"scale_range ({lo}, {hi}) yields fewer than 4 distinct scales")
    return scales


def _checked(series, min_samples: int, method: str, scale_range) -> tuple[np.ndarray, np.ndarray]:
    """Shared estimator prologue: a non-constant float vector and its scale grid."""
    x = _as_values(series)
    if x.size < min_samples:
        raise InsufficientDataError(f"{method} needs at least {min_samples} samples, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateSeriesError("constant series has zero fluctuation at all scales")
    return x, _resolve_scales(x.size, scale_range)


@lru_cache(maxsize=64)  # a scale grid has at most 20 scales, so three grids fit
def _centered_ticks(scale: int) -> tuple[np.ndarray, float]:
    """Segment tick positions minus their mean, read-only, and their sum of squares."""
    t = np.arange(scale, dtype=float)
    tc = t - t.mean()
    tc.flags.writeable = False
    return tc, float(np.dot(tc, tc))


def _segment_f2(profile: np.ndarray, scale: int) -> np.ndarray:
    """Squared fluctuation per segment, forward plus backward coverage.

    Order-1 detrending via the closed-form OLS line per segment; the
    backward pass keeps the tail from being discarded when length % scale != 0.
    Each pass detrends a view of the profile in two scratch buffers, with
    the same element operations and row reductions as on a stacked copy;
    when scale divides the length both passes cover the same segments, so
    one is computed and repeated. A row mean is ``np.add.reduce`` / scale,
    bitwise ``ndarray.mean`` without its Python wrapper.
    """
    n = profile.size
    ns = n // scale
    tc, ss_t = _centered_ticks(scale)

    def detrended_f2(segs: np.ndarray) -> np.ndarray:
        buf = np.multiply(segs, tc)
        slopes = np.add.reduce(buf, axis=1, keepdims=True) / ss_t
        resid = np.subtract(segs, np.add.reduce(segs, axis=1, keepdims=True) / scale)
        resid -= np.multiply(slopes, tc, out=buf)
        resid *= resid
        return np.add.reduce(resid, axis=1) / scale

    fwd = detrended_f2(profile[: ns * scale].reshape(ns, scale))
    if ns * scale == n:
        return np.concatenate([fwd, fwd])
    return np.concatenate([fwd, detrended_f2(profile[n - ns * scale :].reshape(ns, scale))])


def _fluctuation_matrix(x: np.ndarray, scales: np.ndarray) -> list[np.ndarray]:
    """Floored squared fluctuations per scale; raises if they vanish at every scale."""
    profile = np.cumsum(x - x.mean())
    f2_per_scale = [np.maximum(_segment_f2(profile, int(s)), _F2_FLOOR) for s in scales]
    if max(float(np.max(f2)) for f2 in f2_per_scale) < _F2_FLOOR * 10:
        raise DegenerateSeriesError("fluctuations vanish at every scale")
    return f2_per_scale


def _loglog_fit(scales: np.ndarray, values: np.ndarray) -> tuple[float, float, float]:
    """OLS slope, intercept and slope standard error on log-log axes."""
    lx = np.log(scales.astype(float))
    ly = np.log(values)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    dof = lx.size - 2
    if dof > 0:
        sxx = float(np.sum((lx - lx.mean()) ** 2))
        stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx))
    else:
        stderr = 0.0
    return float(slope), float(intercept), stderr


def _fit(scales: np.ndarray, f2_per_scale: list[np.ndarray], q: float) -> tuple[float, float, float]:
    """h(q), its log-scale intercept and the slope stderr, from floored fluctuations;
    a moment is ``np.add.reduce`` / count, bitwise ``np.mean`` without its wrapper.
    A moment that leaves the float range gives a non-finite h(q) silently:
    the caller raises on it, so numpy's warnings would only add noise."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if q == 0.0:
            f = [np.exp(0.5 * (np.add.reduce(np.log(f2)) / f2.size)) for f2 in f2_per_scale]
        else:
            f = [(np.add.reduce(f2 ** (q / 2.0)) / f2.size) ** (1.0 / q) for f2 in f2_per_scale]
        return _loglog_fit(scales, np.array(f))


def estimate_hurst_dfa(series, scale_range: tuple[int, int] | None = None) -> HurstEstimate:
    """Estimate the Hurst exponent by order-1 detrended fluctuation analysis.

    Parameters
    ----------
    series : TrafficSeries or array-like
        Input series, length >= 256.
    scale_range : (int, int), optional
        Smallest and largest segment size; must lie within
        [8, length/4]. Defaults to [16, length/4] with ~20 log-spaced
        scales.

    Returns
    -------
    HurstEstimate
        Slope of log F(s) vs log s with its OLS standard error.

    Raises
    ------
    InsufficientDataError
        If the series is shorter than 256 samples.
    DegenerateSeriesError
        If the series is constant or its fluctuations vanish at every scale.
    """
    x, scales = _checked(series, 256, "DFA", scale_range)
    slope, _, stderr = _fit(scales, _fluctuation_matrix(x, scales), 2.0)
    return HurstEstimate(
        hurst=slope,
        stderr=stderr,
        scale_range=(int(scales[0]), int(scales[-1])),
    )


def mfdfa(
    series,
    q_grid=DEFAULT_Q_GRID,
    scale_range: tuple[int, int] | None = None,
) -> MultifractalSpectrum:
    """Multifractal DFA: h(q) over a grid of moment orders.

    Parameters
    ----------
    series : TrafficSeries or array-like
        Input series, length >= MFDFA_MIN_SAMPLES (1024).
    q_grid : sequence of float
        Strictly ascending moment orders. Must contain q=2 so the
        spectrum stays consistent with :func:`estimate_hurst_dfa`;
        q=0 is allowed and handled by the logarithmic average.
    scale_range : (int, int), optional
        As in :func:`estimate_hurst_dfa`.

    Returns
    -------
    MultifractalSpectrum
        h(q), per-q intercepts, and delta_h = h(q_min) - h(q_max).
    """
    x, scales = _checked(series, MFDFA_MIN_SAMPLES, "MF-DFA", scale_range)
    q = tuple(float(v) for v in q_grid)
    # MultifractalSpectrum checks that the grid ascends
    if len(q) == 0:
        raise ConfigError("q_grid is empty")
    if not np.isfinite(q).all():
        raise ConfigError(f"q_grid must be finite, got {q}")
    if 2.0 not in q:
        raise ConfigError("q_grid must contain q=2 (h(2) anchors the spectrum)")
    f2_per_scale = _fluctuation_matrix(x, scales)
    # intercepts of log F_q vs log s: log c(q) up to the moment convention
    h_of_q, intercepts, _ = zip(*(_fit(scales, f2_per_scale, qi) for qi in q))
    return MultifractalSpectrum(
        q_grid=q,
        h_of_q=h_of_q,
        delta_h=h_of_q[0] - h_of_q[-1],
        intercepts=intercepts,
    )


def write_spectrum_csv(path, spectrum: MultifractalSpectrum) -> None:
    """Write `q,h_q,intercept` rows plus a `# H=<h2> dH=<delta_h>` summary."""
    lines = ["q,h_q,intercept"]
    for qi, hi, ci in zip(spectrum.q_grid, spectrum.h_of_q, spectrum.intercepts):
        lines.append(f"{qi:.12g},{hi:.12g},{ci:.12g}")
    lines.append(f"# H={spectrum.h_at(2.0):.12g} dH={spectrum.delta_h:.12g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
