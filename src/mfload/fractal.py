"""Scaling estimators for load series: DFA, multifractal DFA, moment scaling.

The estimators here close the loop between generation targets and realized
traffic: given a series, recover the self-similarity exponent H, the
generalized exponent curve h(q), and the heterogeneity width
delta_h = h(q_min) - h(q_max).

All estimators share one fluctuation backbone (profile, segmentation,
order-1 detrending), so h(2) from :func:`mfdfa` and the slope from
:func:`estimate_hurst_dfa` agree exactly when evaluated on the same scales.
Everything is pure: identical inputs give bitwise-identical outputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSeriesError,
    DomainError,
    EstimationError,
    InsufficientDataError,
)

__all__ = [
    "DEFAULT_Q_GRID",
    "MFDFA_MIN_SAMPLES",
    "HurstMethod",
    "HurstEstimate",
    "MultifractalSpectrum",
    "estimate_hurst_dfa",
    "estimate_hurst_rs",
    "mfdfa",
    "structure_function",
    "default_scales",
    "write_spectrum_csv",
]

# q = 0 needs the logarithmic-average branch; the default grid skips it while
# still spanning [-5, 5] so delta_h keeps its usual meaning.
DEFAULT_Q_GRID = (-5.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 5.0)

# shortest series mfdfa accepts
MFDFA_MIN_SAMPLES = 1024

# moments of near-zero mass intervals blow up under negative q; floor first
_MASS_FLOOR = 1e-12
_F2_FLOOR = _MASS_FLOOR ** 2


class HurstMethod(str, Enum):
    DFA = "dfa"
    RS = "rs"


@dataclass(frozen=True)
class HurstEstimate:
    """A single Hurst exponent measurement with its regression error."""

    hurst: float
    stderr: float
    method: HurstMethod
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


def default_scales(length: int, lo: int = 16, count: int = 20) -> np.ndarray:
    """~`count` log-spaced integer scales in [lo, length/4], deduplicated."""
    hi = length // 4
    if hi <= lo:
        raise InsufficientDataError(
            f"series length {length} leaves no scales in [{lo}, length/4]"
        )
    grid = np.exp(np.linspace(np.log(lo), np.log(hi), count))
    return np.unique(np.round(grid).astype(int))


def _resolve_scales(n: int, scale_range, lo_floor: int) -> np.ndarray:
    if scale_range is None:
        return default_scales(n)
    lo, hi = int(scale_range[0]), int(scale_range[1])
    if lo < lo_floor or hi > n // 4 or lo >= hi:
        raise ConfigError(
            f"scale_range ({lo}, {hi}) must satisfy {lo_floor} <= min < max <= length/4 = {n // 4}"
        )
    grid = np.exp(np.linspace(np.log(lo), np.log(hi), 20))
    scales = np.unique(np.round(grid).astype(int))
    if scales.size < 4:
        raise ConfigError(f"scale_range ({lo}, {hi}) yields fewer than 4 distinct scales")
    return scales


def _segment_f2(profile: np.ndarray, scale: int) -> np.ndarray:
    """Squared fluctuation per segment, forward plus backward coverage.

    Order-1 detrending via the closed-form OLS line per segment; the
    backward pass keeps the tail from being discarded when length % scale != 0.
    """
    n = profile.size
    ns = n // scale
    fwd = profile[: ns * scale].reshape(ns, scale)
    bwd = profile[n - ns * scale :].reshape(ns, scale)
    segs = np.vstack([fwd, bwd])

    t = np.arange(scale, dtype=float)
    tc = t - t.mean()
    ss_t = float(np.dot(tc, tc))
    means = segs.mean(axis=1, keepdims=True)
    slopes = (segs * tc).sum(axis=1, keepdims=True) / ss_t
    resid = segs - means - slopes * tc
    return (resid * resid).mean(axis=1)


def _fluctuation_matrix(x: np.ndarray, scales: np.ndarray) -> list[np.ndarray]:
    profile = np.cumsum(x - x.mean())
    return [_segment_f2(profile, int(s)) for s in scales]


def _fq(f2: np.ndarray, q: float) -> float:
    f2 = np.maximum(f2, _F2_FLOOR)
    if q == 0.0:
        return float(np.exp(0.5 * np.mean(np.log(f2))))
    return float(np.mean(f2 ** (q / 2.0)) ** (1.0 / q))


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
        If the series has no fluctuation structure (constant input).
    """
    x = _as_values(series)
    if x.size < 256:
        raise InsufficientDataError(f"DFA needs at least 256 samples, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateSeriesError("constant series has zero fluctuation at all scales")
    scales = _resolve_scales(x.size, scale_range, lo_floor=8)
    f2_per_scale = _fluctuation_matrix(x, scales)
    f = np.array([_fq(f2, 2.0) for f2 in f2_per_scale])
    if np.max(f) < _MASS_FLOOR:
        raise DegenerateSeriesError("fluctuations vanish at every scale")
    slope, _, stderr = _loglog_fit(scales, f)
    return HurstEstimate(
        hurst=slope,
        stderr=stderr,
        method=HurstMethod.DFA,
        scale_range=(int(scales[0]), int(scales[-1])),
    )


def estimate_hurst_rs(series, scale_range: tuple[int, int] | None = None) -> HurstEstimate:
    """Rescaled-range companion estimator; cross-check for DFA.

    Coarser than DFA (no detrending beyond the segment mean) but useful as
    an independent sanity check on persistence.
    """
    x = _as_values(series)
    if x.size < 256:
        raise InsufficientDataError(f"R/S needs at least 256 samples, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateSeriesError("constant series has zero range at all scales")
    scales = _resolve_scales(x.size, scale_range, lo_floor=8)

    rs = np.empty(scales.size)
    for j, s in enumerate(scales):
        ns = x.size // int(s)
        segs = x[: ns * int(s)].reshape(ns, int(s))
        dev = np.cumsum(segs - segs.mean(axis=1, keepdims=True), axis=1)
        rng = dev.max(axis=1) - dev.min(axis=1)
        std = segs.std(axis=1)
        ok = std > 0
        if not np.any(ok):
            raise DegenerateSeriesError("zero in-segment variance at every segment")
        rs[j] = np.mean(rng[ok] / std[ok])
    slope, _, stderr = _loglog_fit(scales, np.maximum(rs, _MASS_FLOOR))
    return HurstEstimate(
        hurst=slope,
        stderr=stderr,
        method=HurstMethod.RS,
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
    x = _as_values(series)
    if x.size < MFDFA_MIN_SAMPLES:
        raise InsufficientDataError(f"MF-DFA needs at least {MFDFA_MIN_SAMPLES} samples, got {x.size}")
    q = tuple(float(v) for v in q_grid)
    if len(q) == 0:
        raise ConfigError("q_grid is empty")
    if any(b <= a for a, b in zip(q, q[1:])):
        raise ConfigError("q_grid must be strictly ascending")
    if 2.0 not in q:
        raise ConfigError("q_grid must contain q=2 (h(2) anchors the spectrum)")
    if np.ptp(x) == 0.0:
        raise DegenerateSeriesError("constant series has zero fluctuation at all scales")

    scales = _resolve_scales(x.size, scale_range, lo_floor=8)
    f2_per_scale = _fluctuation_matrix(x, scales)
    if max(float(np.max(f2)) for f2 in f2_per_scale) < _F2_FLOOR * 10:
        raise DegenerateSeriesError("fluctuations vanish at every scale")

    h_of_q, intercepts = [], []
    for qi in q:
        f = np.array([_fq(f2, qi) for f2 in f2_per_scale])
        slope, intercept, _ = _loglog_fit(scales, np.maximum(f, _MASS_FLOOR))
        h_of_q.append(slope)
        # intercept of log F_q vs log s; log c(q) up to the moment convention
        intercepts.append(intercept)

    return MultifractalSpectrum(
        q_grid=q,
        h_of_q=tuple(h_of_q),
        delta_h=h_of_q[0] - h_of_q[-1],
        intercepts=tuple(intercepts),
    )


def structure_function(series, q: float, scales) -> tuple[float, float]:
    """Moment-scaling estimator: OLS of log mean |aggregated X|^q vs log scale.

    The series is centered by its global mean and aggregated by block sums,
    so the slope estimates q*h(q) for increment-like input and a constant
    series gives exactly slope 0 with zero residuals. Block sums cap the
    measurable exponent at 1; prefer :func:`mfdfa` near or above that.

    Returns ``(slope, intercept)``.
    """
    x = _as_values(series)
    if q == 0.0:
        raise ConfigError("q=0 carries no moment information; use a nonzero order")
    if q < 0 and np.any(x <= 0.0):
        raise DomainError("negative q requires a strictly positive series")
    s_arr = np.asarray(scales, dtype=int)
    if s_arr.size < 2:
        raise ConfigError("need at least two scales for a slope")
    if np.any(s_arr < 2) or np.any(s_arr > x.size // 4):
        raise ConfigError(f"scales must lie within [2, length/4] = [2, {x.size // 4}]")

    xc = x - x.mean()
    log_m = np.empty(s_arr.size)
    for j, s in enumerate(s_arr):
        ns = x.size // int(s)
        agg = xc[: ns * int(s)].reshape(ns, int(s)).sum(axis=1)
        m = np.mean(np.maximum(np.abs(agg), _MASS_FLOOR) ** q)
        log_m[j] = np.log(m)
    slope, intercept = np.polyfit(np.log(s_arr.astype(float)), log_m, 1)
    return float(slope), float(intercept)


def write_spectrum_csv(path, spectrum: MultifractalSpectrum) -> None:
    """Write `q,h_q,intercept` rows plus a `# H=<h2> dH=<delta_h>` summary."""
    lines = ["q,h_q,intercept"]
    for qi, hi, ci in zip(spectrum.q_grid, spectrum.h_of_q, spectrum.intercepts):
        lines.append(f"{qi:.12g},{hi:.12g},{ci:.12g}")
    lines.append(f"# H={spectrum.h_at(2.0):.12g} dH={spectrum.delta_h:.12g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
