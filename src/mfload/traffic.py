"""Synthetic load-series generators with controllable scaling properties.

Three families, one knob vocabulary:

* ``generate_cascade``: conservative binary multiplicative cascade. Unit mass
  is split recursively into (W, 1-W) fractions with W symmetric-Beta; the
  ``multiplier_spread`` knob widens the multiplier distribution and with it
  the measured delta_h.
* ``generate_fgn``: exact-covariance fractional Gaussian noise via circulant
  embedding, shifted and rescaled to a non-negative unit-mean intensity.
  Monofractal baseline: h(q) is flat at the chosen exponent.
* ``generate_composite``: bursty series with both knobs live. Cascade mass is
  laid down in 16-tick blocks whose placement follows the rank order of an
  fGn envelope's block means, then modulated by a lognormal factor of the
  same envelope. The envelope exponent steers measured h(2); the spread
  steers delta_h. A plain cascade*envelope product does not work here: the
  cascade's variance swamps every scale and the envelope knob goes dead,
  which is why placement is rank-coupled at block granularity.

``calibrate`` inverts the composite (or fGn, for near-zero delta_h targets)
numerically: probe series are generated at a fixed probe seed, measured with
MF-DFA, and the two knobs are searched on a coarse grid, then on a shrinking
local grid around the best probe.

Everything is a pure function of its arguments; identical arguments give
bitwise-identical output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import fractal
from .errors import CalibrationError, ConfigError, EstimationError

__all__ = [
    "INITIAL_MASS",
    "GeneratorKind",
    "GeneratorMeta",
    "TrafficSeries",
    "generate_cascade",
    "generate_fgn",
    "generate_composite",
    "generate_from_meta",
    "calibrate",
    "measure_scaling",
    "write_series_csv",
    "read_series_csv",
]

INITIAL_MASS = 1.0

# composite internals, fixed by calibration experiments: burst plateaus of
# 2^4 ticks keep h(2) steerable up to ~0.9 even at large spread, and the
# exp(1.5 * fGn) factor keeps it steerable down to ~0.55 at small spread.
# Detrending is exact on constants, so the baseline blend leaves every
# h(q) untouched while keeping the series alive between bursts. Placement
# is stratified over 16 segments: finer stratification flattens h(q)
# (64 segments cap the measurable h(2) near 0.7), coarser lets a single
# giant burst monopolize one stretch of the horizon.
_BURST_BLOCK_DEPTH = 4
_ENVELOPE_LOG_SCALE = 1.5
_BASELINE_FRACTION = 0.35
_PLACEMENT_SEGMENTS = 16

# substream labels so envelope and cascade draws never alias
_STREAM_ENVELOPE = 1
_STREAM_CASCADE = 2

# Beta(alpha, alpha) concentration above this is numerically a point mass
_DEGENERATE_CONCENTRATION = 1e9

# calibration measures candidates on one fixed realization; a fixed probe
# seed makes calibrate() a deterministic function of its targets
_PROBE_SEED = 167
_PROBE_DEPTH = 14


class GeneratorKind(str, Enum):
    CASCADE = "cascade"
    FGN = "fgn"
    COMPOSITE = "composite"


@dataclass(frozen=True)
class GeneratorMeta:
    """Parameters sufficient to regenerate a series.

    ``target_hurst`` is the exponent handed to the generator (for the
    composite kind that is the envelope exponent, not a promise about the
    measured value); ``multiplier_spread`` and ``depth`` apply to the
    cascade-bearing kinds only.
    """

    kind: GeneratorKind
    seed: int
    depth: int | None = None
    target_hurst: float | None = None
    target_delta_h: float | None = None
    multiplier_spread: float | None = None

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.target_hurst is not None and not (0.0 < self.target_hurst < 1.0):
            raise ConfigError(f"target_hurst must lie in (0,1), got {self.target_hurst}")
        if self.target_delta_h is not None and self.target_delta_h < 0.0:
            raise ConfigError("target_delta_h must be non-negative")
        if self.kind in (GeneratorKind.CASCADE, GeneratorKind.COMPOSITE):
            if self.depth is not None and self.depth < 1:
                raise ConfigError("depth must be >= 1 for cascade kinds")
            if self.multiplier_spread is not None and self.multiplier_spread <= 0.0:
                raise ConfigError("multiplier_spread must be positive")


@dataclass(frozen=True)
class TrafficSeries:
    """A finite non-negative load-intensity series with its generation record."""

    values: np.ndarray
    tick_count: int
    meta: GeneratorMeta | None

    def __post_init__(self):
        # a copy, so freezing it leaves the caller's array writeable
        x = np.array(self.values, dtype=float)
        if x.ndim != 1 or x.size == 0:
            raise ConfigError("values must be a non-empty 1-d sequence")
        if not np.all(np.isfinite(x)):
            raise ConfigError("values must be finite")
        if np.min(x) < 0.0:
            raise ConfigError("load intensities must be non-negative")
        if self.tick_count != x.size:
            raise ConfigError(f"tick_count {self.tick_count} != len(values) {x.size}")
        if (
            self.meta is not None
            and self.meta.kind is GeneratorKind.CASCADE
            and self.meta.depth is not None
            and x.size != 2**self.meta.depth
        ):
            raise ConfigError("cascade series must have exactly 2^depth ticks")
        x.flags.writeable = False
        object.__setattr__(self, "values", x)

    def __len__(self) -> int:
        return self.tick_count


def _series(values: np.ndarray, meta: GeneratorMeta | None) -> TrafficSeries:
    return TrafficSeries(values=values, tick_count=int(np.asarray(values).size), meta=meta)


def _fgn_increments(hurst: float, n: int, rng) -> np.ndarray:
    """Exact-covariance fGn by circulant embedding of the autocovariance."""
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * ((k + 1) ** (2 * hurst) - 2 * k ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst))
    row = np.concatenate([gamma, gamma[-2:0:-1]])
    lam = np.fft.fft(row).real
    if lam.min() < -1e-8 * lam.max():
        raise EstimationError(f"circulant embedding not non-negative definite for H={hurst}")
    lam = np.maximum(lam, 0.0)

    m = 2 * n
    a = rng.standard_normal(n + 1)
    b = rng.standard_normal(n - 1)
    xi = np.empty(m, dtype=complex)
    xi[0] = a[0]
    xi[n] = a[n]
    xi[1:n] = (a[1:n] + 1j * b) / np.sqrt(2.0)
    xi[n + 1 :] = np.conj(xi[1:n][::-1])
    return (np.fft.ifft(np.sqrt(lam) * xi) * np.sqrt(m)).real[:n]


def _cascade_mass(depth: int, spread: float, rng) -> np.ndarray:
    """Split INITIAL_MASS through `depth` binary levels; exact conservation."""
    alpha = 1.0 / spread
    mass = np.array([INITIAL_MASS])
    for _ in range(depth):
        if alpha > _DEGENERATE_CONCENTRATION:
            w = np.full(mass.size, 0.5)
        else:
            w = rng.beta(alpha, alpha, size=mass.size)
        children = np.empty(2 * mass.size)
        children[0::2] = mass * w
        children[1::2] = mass * (1.0 - w)
        mass = children
    return mass


def generate_cascade(depth: int, multiplier_spread: float, seed: int) -> TrafficSeries:
    """Conservative binary multiplicative cascade of length 2^depth.

    Parameters
    ----------
    depth : int
        Number of binary splitting levels, in [1, 24].
    multiplier_spread : float
        Width knob for the symmetric-Beta split fractions; the Beta
        concentration is 1/multiplier_spread, so larger spread means
        wilder mass splits and larger measured delta_h. Values near 0
        degenerate to exact 0.5/0.5 splits (a constant series).
    seed : int
        Non-negative RNG seed.

    Returns
    -------
    TrafficSeries
        Length 2^depth, sum of values equal to INITIAL_MASS.
    """
    if not (1 <= depth <= 24):
        raise ConfigError(f"depth must lie in [1, 24], got {depth}")
    if multiplier_spread <= 0.0:
        raise ConfigError(f"multiplier_spread must be positive, got {multiplier_spread}")
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    rng = default_rng(SeedSequence([int(seed), _STREAM_CASCADE]))
    mass = _cascade_mass(depth, multiplier_spread, rng)
    meta = GeneratorMeta(
        kind=GeneratorKind.CASCADE,
        seed=int(seed),
        depth=depth,
        multiplier_spread=float(multiplier_spread),
    )
    return _series(mass, meta)


def generate_fgn(hurst: float, length: int, seed: int) -> TrafficSeries:
    """Fractional Gaussian noise as a non-negative unit-mean load intensity.

    The raw increments are shifted by their minimum and rescaled to unit
    mean; affine maps preserve the scaling exponents, so a DFA estimate on
    the output recovers `hurst`.
    """
    if not (0.0 < hurst < 1.0):
        raise ConfigError(f"hurst must lie strictly in (0,1), got {hurst}")
    if length < 64:
        raise ConfigError(f"length must be >= 64, got {length}")
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")
    rng = default_rng(SeedSequence([int(seed), _STREAM_ENVELOPE]))
    x = _fgn_increments(float(hurst), int(length), rng)
    x = x - x.min()
    mean = x.mean()
    if mean <= 0.0:
        raise EstimationError("degenerate fGn draw: zero mean after shift")
    meta = GeneratorMeta(kind=GeneratorKind.FGN, seed=int(seed), target_hurst=float(hurst))
    return _series(x / mean, meta)


def generate_composite(
    depth: int, hurst: float, multiplier_spread: float, seed: int
) -> TrafficSeries:
    """Bursty series with independently steerable h(2) and delta_h.

    Construction: draw one fGn envelope of length 2^depth; build a cascade
    over the 2^(depth-4) blocks of 16 ticks; place the cascade block masses
    where the envelope's block means rank them, stratified so consecutive
    segments of the horizon receive interleaved order statistics of the
    mass distribution (every segment gets its share of large and small
    bursts; within a segment the envelope still decides where each lands).
    Repeat each block mass across its 16 ticks and multiply by
    exp(1.5 * envelope). The burst mass then rides on a constant service
    baseline: v = b + (1-b)*bursts with both parts unit mean, so the series
    never dies out between bursts. Order-1 detrending is exact on
    constants, so the baseline shifts no h(q); it only compresses the
    marginal range. Needs depth >= 5 (at least one cascade level above the
    block size).
    """
    if not (5 <= depth <= 24):
        raise ConfigError(f"composite depth must lie in [5, 24], got {depth}")
    if not (0.0 < hurst < 1.0):
        raise ConfigError(f"hurst must lie strictly in (0,1), got {hurst}")
    if multiplier_spread <= 0.0:
        raise ConfigError(f"multiplier_spread must be positive, got {multiplier_spread}")
    if seed < 0:
        raise ConfigError("seed must be a non-negative integer")

    n = 2**depth
    block = 2**_BURST_BLOCK_DEPTH
    cascade_depth = depth - _BURST_BLOCK_DEPTH

    env = _fgn_increments(
        float(hurst), n, default_rng(SeedSequence([int(seed), _STREAM_ENVELOPE]))
    )
    mass = _cascade_mass(
        cascade_depth,
        float(multiplier_spread),
        default_rng(SeedSequence([int(seed), _STREAM_CASCADE])),
    )

    nblocks = 2**cascade_depth
    block_means = env.reshape(nblocks, block).mean(axis=1)
    segs = min(_PLACEMENT_SEGMENTS, nblocks)
    per = nblocks // segs
    smass = np.sort(mass)
    placed = np.empty(nblocks)
    for s in range(segs):
        seg_mass = smass[s::segs]  # every segs-th order statistic, ascending
        ranks = np.argsort(np.argsort(block_means[s * per : (s + 1) * per]))
        placed[s * per : (s + 1) * per] = seg_mass[ranks]
    placed *= nblocks  # unit-mean block masses

    v = np.repeat(placed, block) * np.exp(_ENVELOPE_LOG_SCALE * env)
    mean = v.mean()
    if mean <= 0.0 or not np.isfinite(mean):
        raise EstimationError("degenerate composite draw")
    v = _BASELINE_FRACTION + (1.0 - _BASELINE_FRACTION) * (v / mean)
    meta = GeneratorMeta(
        kind=GeneratorKind.COMPOSITE,
        seed=int(seed),
        depth=depth,
        target_hurst=float(hurst),
        multiplier_spread=float(multiplier_spread),
    )
    return _series(v, meta)


def generate_from_meta(meta: GeneratorMeta, length: int, seed: int | None = None) -> TrafficSeries:
    """Regenerate a series from its parameter record.

    For the cascade-bearing kinds the output length is the smallest power
    of two >= `length` (their construction is dyadic); callers that need
    exactly `length` ticks read a prefix. `seed` overrides meta.seed so one
    calibrated parameter set can drive many independent runs.
    """
    if length < 1:
        raise ConfigError("length must be positive")
    use_seed = meta.seed if seed is None else int(seed)
    if meta.kind is GeneratorKind.FGN:
        if meta.target_hurst is None:
            raise ConfigError("fgn meta needs target_hurst")
        return generate_fgn(meta.target_hurst, max(int(length), 64), use_seed)

    depth = meta.depth if meta.depth is not None else max(1, math.ceil(math.log2(length)))
    if 2**depth < length:
        raise ConfigError(f"depth {depth} yields {2**depth} ticks < requested {length}")
    if meta.kind is GeneratorKind.CASCADE:
        if meta.multiplier_spread is None:
            raise ConfigError("cascade meta needs multiplier_spread")
        return generate_cascade(depth, meta.multiplier_spread, use_seed)
    if meta.kind is GeneratorKind.COMPOSITE:
        if meta.target_hurst is None or meta.multiplier_spread is None:
            raise ConfigError("composite meta needs target_hurst and multiplier_spread")
        return generate_composite(max(depth, 5), meta.target_hurst, meta.multiplier_spread, use_seed)
    raise ConfigError(f"unknown generator kind {meta.kind!r}")


def measure_scaling(series, q_grid=fractal.DEFAULT_Q_GRID) -> tuple[float, float]:
    """(h(2), delta_h) from one MF-DFA pass; the calibration oracle."""
    spectrum = fractal.mfdfa(series, q_grid)
    return spectrum.h_at(2.0), spectrum.delta_h


# calibration is declared successful inside these tolerances
_TOL_H = 0.1
_TOL_DH = 0.3
# stop refining once comfortably inside tolerance
_EARLY_STOP = 0.7

# near-zero delta_h targets are served by the monofractal family
_FGN_FAMILY_THRESHOLD = 0.2

_COARSE_H = (0.55, 0.65, 0.75, 0.85, 0.95)
_COARSE_SPREAD = (0.08, 0.18, 0.35, 0.7, 1.2, 2.0)


def calibrate(target_hurst: float, target_delta_h: float, budget: int = 64) -> GeneratorMeta:
    """Find generator parameters whose measured (H, delta_h) hit the targets.

    Probes are generated at a fixed internal seed and depth 14, measured by
    MF-DFA with the default q grid (H read as h(2)). Success means the
    probe lands within +-0.1 of target_hurst and +-0.3 of target_delta_h.
    The search is deterministic. The composite family probes a coarse 5 x 6
    grid of (envelope exponent, spread), then up to three 5 x 3 local grids
    around the best probe, halving the exponent step and square-rooting the
    spread factor each round; the fGn family iterates its one exponent.

    Parameters
    ----------
    target_hurst : float
        Desired measured Hurst exponent, in (0.5, 1).
    target_delta_h : float
        Desired measured generalized-Hurst width, in [0, 4]. Targets
        <= 0.2 select the fGn family, larger ones the composite family.
    budget : int
        Maximum number of probe evaluations before giving up.

    Returns
    -------
    GeneratorMeta
        Parameters for :func:`generate_from_meta`.

    Raises
    ------
    CalibrationError
        If the budget is exhausted outside tolerance; carries the best
        candidate meta, its measured pair and the residuals.
    """
    if not (0.5 < target_hurst < 1.0):
        raise ConfigError(f"target_hurst must lie in (0.5, 1), got {target_hurst}")
    if not (0.0 <= target_delta_h <= 4.0):
        raise ConfigError(f"target_delta_h must lie in [0, 4], got {target_delta_h}")
    if budget < 1:
        raise ConfigError("budget must be a positive integer")

    evals = 0
    cache: dict[tuple, tuple[float, float]] = {}

    def score(measured: tuple[float, float]) -> float:
        return max(
            abs(measured[0] - target_hurst) / _TOL_H,
            abs(measured[1] - target_delta_h) / _TOL_DH,
        )

    def probe(knobs: tuple) -> tuple[float, float]:
        nonlocal evals
        if knobs in cache:
            return cache[knobs]
        if evals >= budget:
            raise _BudgetExhausted()
        evals += 1
        if len(knobs) == 1:
            series = generate_fgn(knobs[0], 2**_PROBE_DEPTH, _PROBE_SEED)
        else:
            series = generate_composite(_PROBE_DEPTH, knobs[0], knobs[1], _PROBE_SEED)
        cache[knobs] = measure_scaling(series)
        return cache[knobs]

    best: tuple | None = None

    def consider(knobs: tuple) -> float:
        nonlocal best
        m = probe(knobs)
        if best is None or score(m) < score(cache[best]):
            best = knobs
        return score(m)

    try:
        if target_delta_h <= _FGN_FAMILY_THRESHOLD:
            # one knob; measured h(2) tracks it closely, fixed-point iterate
            knob = min(max(target_hurst, 0.05), 0.99)
            for _ in range(min(budget, 8)):
                s = consider((knob,))
                if s <= _EARLY_STOP:
                    break
                measured_h = cache[(knob,)][0]
                nxt = min(max(knob + (target_hurst - measured_h), 0.05), 0.99)
                if abs(nxt - knob) < 1e-3:
                    break
                knob = nxt
        else:
            for hk in _COARSE_H:
                for sk in _COARSE_SPREAD:
                    consider((hk, sk))
            # shrinking local grid around the incumbent; the knobs are
            # coupled (raising the envelope exponent narrows the measured
            # width), so both must move together rather than by
            # per-axis bisection
            h_step, s_mult = 0.04, 1.25
            for _ in range(3):
                if score(cache[best]) <= _EARLY_STOP:
                    break
                hk, sk = best
                for h_off in (-h_step, -h_step / 2, 0.0, h_step / 2, h_step):
                    for sm in (1.0 / s_mult, 1.0, s_mult):
                        h = min(max(hk + h_off, 0.05), 0.99)
                        consider((round(h, 6), round(sk * sm, 6)))
                h_step /= 2
                s_mult = math.sqrt(s_mult)
    except _BudgetExhausted:
        pass

    measured = cache[best]
    residuals = (measured[0] - target_hurst, measured[1] - target_delta_h)
    if len(best) == 1:
        meta = GeneratorMeta(
            kind=GeneratorKind.FGN,
            seed=_PROBE_SEED,
            target_hurst=float(best[0]),
            target_delta_h=float(target_delta_h),
        )
    else:
        meta = GeneratorMeta(
            kind=GeneratorKind.COMPOSITE,
            seed=_PROBE_SEED,
            depth=_PROBE_DEPTH,
            target_hurst=float(best[0]),
            target_delta_h=float(target_delta_h),
            multiplier_spread=float(best[1]),
        )
    if score(measured) > 1.0:
        raise CalibrationError(
            f"calibration exhausted budget {budget}: best measured "
            f"(H={measured[0]:.3f}, dH={measured[1]:.3f}) vs targets "
            f"(H={target_hurst}, dH={target_delta_h})",
            best_meta=meta,
            measured=measured,
            residuals=residuals,
        )
    return meta


class _BudgetExhausted(Exception):
    """Internal signal: probe budget consumed mid-search."""


def write_series_csv(path, series) -> None:
    """Write `tick,value` rows, values at 12 significant digits."""
    values = np.asarray(getattr(series, "values", series), dtype=float)
    lines = ["tick,value"]
    lines.extend(f"{t},{v:.12g}" for t, v in enumerate(values))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_series_csv(path) -> np.ndarray:
    """Read a `tick,value` CSV back into a value vector."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "tick,value":
            raise ConfigError(f"expected header 'tick,value', got {header!r}")
        values = []
        for lineno, line in enumerate(fh, start=2):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split(",")
            if len(parts) != 2:
                raise ConfigError(f"{path}:{lineno}: expected 'tick,value'")
            values.append(float(parts[1]))
    if not values:
        raise ConfigError(f"{path}: no data rows")
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)) or x.min() < 0.0:
        raise ConfigError(f"{path}: values must be finite and non-negative")
    return x
