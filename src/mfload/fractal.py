"""The scaling estimator for load series: multifractal DFA.

:func:`mfdfa` closes the loop between generation targets and realized
traffic: given a series, it recovers the generalized exponent curve h(q)
and the heterogeneity width delta_h = h(q_min) - h(q_max). Its q = 2 fit
is plain order-1 DFA, so h(2) is the self-similarity exponent H that the
whole pipeline reads.

Each h(q) is the slope of the closed-form centred least-squares line
through (log s, log F_q(s)), not of an ``np.polyfit`` solve: its SVD was
the pipeline's only LAPACK call, and MF-DFA runs on every calibration
probe.

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
    "MultifractalSpectrum",
    "mfdfa",
    "default_scales",
    "write_spectrum_csv",
]

# q = 0 needs the logarithmic-average branch; the default grid skips it while
# still spanning [-5, 5] so delta_h keeps its usual meaning.
DEFAULT_Q_GRID = (-5.0, -3.0, -2.0, -1.0, 1.0, 2.0, 3.0, 5.0)

# shortest series mfdfa accepts
MFDFA_MIN_SAMPLES = 1024

# moments of near-zero fluctuations blow up under negative q; floor first, at
# this share of the series' mean square, so that rescaling it moves no estimate
_F2_FLOOR = 1e-24


@dataclass(frozen=True)
class MultifractalSpectrum:
    """Generalized Hurst curve h(q) plus the width delta_h it implies.

    ``intercepts`` are the log-scale regression intercepts, one per q; they
    estimate log c(q) of the moment-scaling law E|X|^q ~ c(q) * s^(q h(q)).
    """

    q_grid: tuple[float, ...]
    h_of_q: tuple[float, ...]
    intercepts: tuple[float, ...]

    def __post_init__(self):
        if len(self.q_grid) != len(self.h_of_q) or len(self.q_grid) != len(self.intercepts):
            raise ConfigError("q_grid, h_of_q and intercepts must have equal length")
        if any(b <= a for a, b in zip(self.q_grid, self.q_grid[1:])):
            raise ConfigError("q_grid must be strictly ascending")
        for qi, hi, ci in zip(self.q_grid, self.h_of_q, self.intercepts):
            if not (np.isfinite(hi) and np.isfinite(ci)):
                raise EstimationError(f"h(q) at q={qi:g} is not finite; the q-th moment left the float range")
        # small negatives are estimation noise; anything lower means the fit broke
        if self.delta_h < -0.1:
            raise EstimationError(
                f"delta_h = {self.delta_h:.4f}; estimates below -0.1 indicate a degenerate fit"
            )

    @property
    def delta_h(self) -> float:
        """The spectrum width h(q_min) - h(q_max)."""
        return self.h_of_q[0] - self.h_of_q[-1]

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


def default_scales(length: int) -> np.ndarray:
    """~20 log-spaced integer scales in [16, length/4], deduplicated."""
    if length // 4 <= 16:
        raise InsufficientDataError(f"series length {length} leaves no scales in [16, length/4]")
    # sorted and adjacent-distinct, as np.unique returns them; np.unique
    # imports numpy.ma on its first call, a fixed cost on every CLI run
    scales = np.sort(np.round(np.exp(np.linspace(np.log(16), np.log(length // 4), 20))).astype(int))
    return scales[np.concatenate(([True], scales[1:] != scales[:-1]))]


@lru_cache(maxsize=64)  # a scale grid has at most 20 scales, so three grids fit
def _centered_ticks(scale: int) -> tuple[np.ndarray, float]:
    """Segment tick positions minus their mean, read-only, and their sum of squares."""
    t = np.arange(scale, dtype=float)
    tc = t - t.mean()
    tc.flags.writeable = False
    return tc, float(np.dot(tc, tc))


def _segment_f2(profile: np.ndarray, scale: int, scratch: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Squared fluctuation per segment, forward then backward coverage, into and as `out`.

    Order-1 detrending via the closed-form OLS line per segment; the
    backward pass keeps the tail from being discarded when length % scale != 0.
    Each pass detrends a view of the profile in the (2, length) `scratch`
    pair, with the same element operations and row reductions as on a
    stacked copy; when scale divides the length both passes cover the same
    segments, so one is computed and repeated. A row mean is
    ``np.add.reduce`` / scale, bitwise ``ndarray.mean`` without its wrapper.

    The two (segment, tick) products run as flat operations, because
    numpy sends a broadcast ``(scale,)`` or ``(ns, 1)`` operand through its
    2-D loop at 1.5 to 3 times a flat operation's cost. ``segs * tc`` is
    `tc` copied into every row of `buf`, then multiplied by `segs` in
    place; multiplication commutes exactly. The trend ``slopes ⊗ tc`` is
    ``np.einsum("i,j->ij")``, which sums over no index and so computes one
    product per element, into a zero-filled `buf`. That turns the -0.0
    product of a negative slope and the exact 0.0 centre tick of an odd
    scale into +0.0; ``resid *= resid`` erases the sign, so every F² is
    the plain product formula's. These cut ``measure_scaling`` of
    ``generate_composite(14, 0.975, 0.592, 167)`` from 4.2 to 3.4 ms
    (medians of 6 alternating runs, 2-vCPU Xeon). ``np.einsum`` is
    allowed here only where no index is summed.

    The summation order is part of the output and must not change. Some
    segments are flat down to the rounding of a profile that reaches
    2.2e3 to 2.4e3 (one ulp there is 4.5e-13): in
    ``generate_composite(14, 0.6, 1.5, 5)`` and ``(14, 0.55, 2.0, 9)``,
    1.1% and 5.3% of the scale-16 segments have F² below 1e-16, and a
    reordering of their sums moves those F² by up to 0.33%. h(q < 0)
    weights these segments most, so taking the slope and F² row sums with
    ``np.einsum`` moves delta_h by up to 1.1e-7 relative over 48 depth-14
    composite draws, past the benchmark's 1e-9 output tolerance, although
    it would cut that ``measure_scaling`` further, from 3.4 to 2.8 ms.
    """
    n = profile.size
    ns = n // scale
    tc, ss_t = _centered_ticks(scale)
    buf, resid = (row[: ns * scale].reshape(ns, scale) for row in scratch)
    tail = n - ns * scale
    for k, start in enumerate((0, tail) if tail else (0,)):
        f2 = out[k * ns : (k + 1) * ns]
        segs = profile[start : start + ns * scale].reshape(ns, scale)
        np.copyto(buf, tc)
        buf *= segs
        slopes = np.add.reduce(buf, axis=1) / ss_t
        np.subtract(segs, np.add.reduce(segs, axis=1, keepdims=True) / scale, out=resid)
        resid -= np.einsum("i,j->ij", slopes, tc, out=buf)
        resid *= resid
        np.divide(np.add.reduce(resid, axis=1, out=f2), scale, out=f2)
    if tail == 0:
        out[ns:] = out[:ns]
    return out


def _fluctuation_matrix(x: np.ndarray, scales: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Squared fluctuations of all scales in one vector, scale j's in ``f2[bounds[j]:bounds[j + 1]]``,
    floored at ``_F2_FLOOR * mean(x²)``; raises, without numpy's warnings, if the squares
    overflow or that floor underflows, and if they vanish at every scale against it."""
    with np.errstate(over="ignore", invalid="ignore"):
        floor = _F2_FLOOR * np.mean(x * x)
        profile = np.cumsum(x - x.mean())
        bounds = np.concatenate(([0], np.cumsum(2 * (x.size // scales)))).tolist()
        f2, scratch = np.empty(bounds[-1]), np.empty((2, x.size))
        for s, lo, hi in zip(scales.tolist(), bounds, bounds[1:]):
            _segment_f2(profile, s, scratch, f2[lo:hi])
        top = f2.max()
    if not (0.0 < floor < np.inf and top < np.inf):
        raise EstimationError("squared fluctuations left the float range; rescale the series")
    if top < floor * 10:
        raise DegenerateSeriesError("fluctuations vanish at every scale")
    np.maximum(f2, floor, out=f2)
    return f2, bounds


def _loglog_fit(scales: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """OLS slope and intercept on log-log axes, as the closed-form centred line.

    slope = Σ dx·(y − ȳ) / Σ dx² with dx = x − x̄, intercept = ȳ − slope·x̄,
    each sum an ``np.add.reduce``. ``np.polyfit`` gives the same line to
    about 1e-15 relative in the slope, but its SVD least-squares solve was
    the pipeline's only LAPACK call, and it left about 1.1 MiB of
    LAPACK/BLAS memory resident that nothing else uses.
    """
    x = np.log(scales.astype(float))
    y = np.log(values)
    x_mean = np.add.reduce(x) / x.size
    y_mean = np.add.reduce(y) / y.size
    dx = x - x_mean
    slope = np.add.reduce(dx * (y - y_mean)) / np.add.reduce(dx * dx)
    return float(slope), float(y_mean - slope * x_mean)


def _fit(scales: np.ndarray, f2: np.ndarray, bounds: list[int], q: float) -> tuple[float, float]:
    """h(q) and its log-scale intercept, from :func:`_fluctuation_matrix`;
    each scale's moment is ``np.add.reduce`` / count of the order raised over all scales at once.
    A moment that leaves the float range gives a non-finite h(q) silently:
    the caller raises on it, so numpy's warnings would only add noise."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        moments = np.log(f2) if q == 0.0 else f2 ** (q / 2.0)
        means = [np.add.reduce(moments[lo:hi]) / (hi - lo) for lo, hi in zip(bounds, bounds[1:])]
        f = [np.exp(0.5 * m) for m in means] if q == 0.0 else [m ** (1.0 / q) for m in means]
        return _loglog_fit(scales, np.array(f))


def mfdfa(series, q_grid=DEFAULT_Q_GRID) -> MultifractalSpectrum:
    """Multifractal DFA: h(q) over a grid of moment orders, on :func:`default_scales`.

    Parameters
    ----------
    series : TrafficSeries or array-like
        Input series, length >= MFDFA_MIN_SAMPLES (1024).
    q_grid : sequence of float
        Strictly ascending moment orders. Must contain q=2, whose fit is
        order-1 DFA and gives the Hurst exponent; q=0 is allowed and
        handled by the logarithmic average.

    Returns
    -------
    MultifractalSpectrum
        h(q), per-q intercepts, and delta_h = h(q_min) - h(q_max).

    Raises
    ------
    InsufficientDataError
        If the series is shorter than MFDFA_MIN_SAMPLES.
    DegenerateSeriesError
        If the series is constant or its fluctuations vanish at every scale.
    EstimationError
        If its squared fluctuations leave the float range, or an h(q) is
        not finite.

    Notes
    -----
    delta_h spans the grid's q range: h(-5) - h(5) on DEFAULT_Q_GRID, where
    h(-5) estimates a divergent moment if the increments have none of order
    -5. At 2^14 ticks, fGn (true delta_h 0) reads 0.02-0.05; the binomial
    model (Kantelhardt et al., Physica A 316, 2002) reads h(2) 0.04 low and
    delta_h high where it is small: 0.18 against 0.07 at a = 0.55.
    """
    x = _as_values(series)
    if x.size < MFDFA_MIN_SAMPLES:
        raise InsufficientDataError(f"MF-DFA needs at least {MFDFA_MIN_SAMPLES} samples, got {x.size}")
    if np.ptp(x) == 0.0:
        raise DegenerateSeriesError("constant series has zero fluctuation at all scales")
    scales = default_scales(x.size)
    q = tuple(float(v) for v in q_grid)
    # MultifractalSpectrum checks that the grid ascends
    if len(q) == 0:
        raise ConfigError("q_grid is empty")
    if not np.isfinite(q).all():
        raise ConfigError(f"q_grid must be finite, got {q}")
    if 2.0 not in q:
        raise ConfigError("q_grid must contain q=2 (h(2) anchors the spectrum)")
    f2, bounds = _fluctuation_matrix(x, scales)
    # intercepts of log F_q vs log s: log c(q) up to the moment convention
    h_of_q, intercepts = zip(*(_fit(scales, f2, bounds, qi) for qi in q))
    return MultifractalSpectrum(
        q_grid=q,
        h_of_q=h_of_q,
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
