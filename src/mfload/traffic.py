"""Synthetic load-series generators with controllable scaling properties.

Three families, one knob vocabulary:

* ``generate_cascade``: conservative binary multiplicative cascade, unit
  mean like every kind. A mass of 2^depth is split recursively into (W, 1-W)
  fractions with W symmetric-Beta; the ``multiplier_spread`` knob widens the
  multiplier distribution and with it the measured delta_h.
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
local grid around the best probe. The coarse grid's measured pairs are
constants, tabulated in ``_COARSE_PROBES``; a change to the composite
generator, the probe seed or depth, or MF-DFA must regenerate that table.
A composite draw depends on its exponent only through the fGn envelope, so a
call colours one envelope per distinct exponent it measures and composes
each probe with that exponent from it, and all its envelopes colour one
noise draw. Each local round starts by dropping the envelopes farther from
its centre than it and the later rounds can reach, so at most 5 are alive at
any probe (a cold calibrate(0.9, 2.5) colours 9). Probes, tabulated ones
too, are memoized and counted against each call's budget.

Everything is a pure function of its arguments; identical arguments give
bitwise-identical output.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import fractal
from .errors import CalibrationError, ConfigError, EstimationError, check_positive

__all__ = [
    "GeneratorKind",
    "GeneratorMeta",
    "TrafficSeries",
    "generate_cascade",
    "generate_fgn",
    "generate_composite",
    "generate_from_meta",
    "generate_calibrated",
    "calibrate",
    "check_calibration_targets",
    "check_hurst",
    "check_integer",
    "check_length",
    "check_probe_budget",
    "check_seed",
    "measure_scaling",
    "write_series_csv",
    "read_series_csv",
]

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

_MAX_DEPTH = 24  # the deepest dyadic draw; 2^24 ticks also bounds every length and horizon

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


# the knobs each kind's generator reads, all required but depth (inferred
# when None), and its least depth: a composite needs a level above its bursts
_KNOBS = {
    GeneratorKind.CASCADE: ("depth", "multiplier_spread"),
    GeneratorKind.FGN: ("target_hurst",),
    GeneratorKind.COMPOSITE: ("depth", "target_hurst", "multiplier_spread"),
}
_MIN_DEPTH = {GeneratorKind.CASCADE: 1, GeneratorKind.FGN: 1, GeneratorKind.COMPOSITE: _BURST_BLOCK_DEPTH + 1}


@dataclass(frozen=True)
class GeneratorMeta:
    """Parameters sufficient to regenerate a series.

    ``target_hurst`` is the exponent handed to the generator (for the
    composite kind that is the envelope exponent, not a promise about the
    measured value). A record checks every knob it is given, then keeps only
    those its kind's generator reads, all required but depth; each generator
    builds its record before it draws, so these are also its argument
    checks. ``kind`` may be given as its string value.
    """

    kind: GeneratorKind
    seed: int
    depth: int | None = None
    target_hurst: float | None = None
    multiplier_spread: float | None = None

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", GeneratorKind(self.kind))
        except ValueError:
            names = sorted(k.value for k in GeneratorKind)
            raise ConfigError(f"kind: expected one of {names}, got {self.kind!r}") from None
        check_seed(self.seed)
        if self.target_hurst is not None:
            check_hurst(self.target_hurst, "target_hurst")
        if self.depth is not None:
            check_integer(self.depth, "depth")
            if not (_MIN_DEPTH[self.kind] <= self.depth <= _MAX_DEPTH):
                raise ConfigError(f"depth: must lie in [{_MIN_DEPTH[self.kind]}, {_MAX_DEPTH}], got {self.depth!r}")
        if self.multiplier_spread is not None:
            check_positive(self.multiplier_spread, "multiplier_spread")
        for name in ("depth", "target_hurst", "multiplier_spread"):
            if name not in _KNOBS[self.kind]:
                object.__setattr__(self, name, None)
            elif name != "depth" and getattr(self, name) is None:
                raise ConfigError(f"{self.kind.value} meta needs {name}")


@dataclass(frozen=True)
class TrafficSeries:
    """A finite non-negative load-intensity series with its generation record."""

    values: np.ndarray
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
        return self.values.size


def _fgn_noise(n: int, rng) -> np.ndarray:
    """The Hermitian Gaussian vector of length 2n that :func:`_fgn_increments` colours, for any H."""
    a = rng.standard_normal(n + 1)
    b = rng.standard_normal(n - 1)
    xi = np.empty(2 * n, dtype=complex)
    xi[0] = a[0]
    xi[n] = a[n]
    xi[1:n] = (a[1:n] + 1j * b) / np.sqrt(2.0)
    xi[n + 1 :] = np.conj(xi[1:n][::-1])
    return xi


def _fgn_increments(hurst: float, n: int, noise: np.ndarray) -> np.ndarray:
    """Exact-covariance fGn by circulant embedding of the autocovariance, from :func:`_fgn_noise`."""
    k = np.arange(n + 1, dtype=float)
    gamma = 0.5 * ((k + 1) ** (2 * hurst) - 2 * k ** (2 * hurst) + np.abs(k - 1) ** (2 * hurst))
    # the row is built complex, whose FFT is the real row's bit for bit in less time, and each
    # later step writes into it; `noise` is only read, since calibrate shares it across envelopes
    row = np.zeros(2 * n, dtype=complex)
    row.real[: n + 1] = gamma
    row.real[n + 1 :] = gamma[-2:0:-1]
    np.fft.fft(row, out=row)
    lam = row.real
    if lam.min() < -1e-8 * lam.max():
        raise EstimationError(f"circulant embedding not non-negative definite for H={hurst}")
    np.maximum(lam, 0.0, out=lam)
    np.sqrt(lam, out=lam)
    np.multiply(lam, noise, out=row)
    np.fft.ifft(row, out=row)
    row *= np.sqrt(2 * n)
    return row.real[:n]


def _cascade_mass(depth: int, spread: float, rng) -> np.ndarray:
    """Split a mass of 2^depth through `depth` binary levels: unit mean, exact conservation."""
    alpha = 1.0 / spread
    mass = np.array([2.0**depth])
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
        Length 2^depth, unit mean: the values sum to 2^depth.
    """
    meta = GeneratorMeta(kind=GeneratorKind.CASCADE, seed=seed, depth=depth,
                         multiplier_spread=float(multiplier_spread))
    rng = default_rng(SeedSequence([int(seed), _STREAM_CASCADE]))
    return TrafficSeries(values=_cascade_mass(depth, multiplier_spread, rng), meta=meta)


def generate_fgn(hurst: float, length: int, seed: int) -> TrafficSeries:
    """Fractional Gaussian noise as a non-negative unit-mean load intensity.

    The raw increments are shifted by their minimum and rescaled to unit
    mean; affine maps preserve the scaling exponents, so a DFA estimate on
    the output recovers `hurst`.
    """
    check_length(length, 64)
    meta = GeneratorMeta(kind=GeneratorKind.FGN, seed=seed, target_hurst=float(hurst))
    rng = default_rng(SeedSequence([int(seed), _STREAM_ENVELOPE]))
    x = _fgn_increments(float(hurst), int(length), _fgn_noise(int(length), rng))
    x = x - x.min()
    mean = x.mean()
    if mean <= 0.0:
        raise EstimationError("degenerate fGn draw: zero mean after shift")
    return TrafficSeries(values=x / mean, meta=meta)


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
    meta = GeneratorMeta(
        kind=GeneratorKind.COMPOSITE,
        seed=seed,
        depth=depth,
        target_hurst=float(hurst),
        multiplier_spread=float(multiplier_spread),
    )
    noise = _fgn_noise(2**depth, default_rng(SeedSequence([int(seed), _STREAM_ENVELOPE])))
    v = _compose(_envelope(depth, hurst, noise), depth, multiplier_spread, seed)
    return TrafficSeries(values=v, meta=meta)


def _envelope(depth: int, hurst: float, noise: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The part of a composite draw that depends on `hurst` and not on the spread.

    Colours `noise`, the seed's :func:`_fgn_noise` for 2^depth ticks. Returns
    each 16-tick block's slot in the ascending cascade mass, and the per-tick
    factor exp(1.5 * envelope). Placement is stratified over `segs` segments:
    segment s takes every segs-th order statistic from s on, in the rank
    order of its blocks' envelope means.
    """
    env = _fgn_increments(float(hurst), 2**depth, noise)
    nblocks = 2 ** (depth - _BURST_BLOCK_DEPTH)
    segs = min(_PLACEMENT_SEGMENTS, nblocks)
    per = nblocks // segs
    block_means = env.reshape(nblocks, -1).mean(axis=1)
    slots = np.empty(nblocks, dtype=np.intp)
    for s in range(segs):
        ranks = np.argsort(np.argsort(block_means[s * per : (s + 1) * per]))
        slots[s * per : (s + 1) * per] = s + segs * ranks
    return slots, np.exp(_ENVELOPE_LOG_SCALE * env)


def _compose(
    envelope: tuple[np.ndarray, np.ndarray], depth: int, spread: float, seed: int
) -> np.ndarray:
    """Composite values from an :func:`_envelope` and a cascade of `spread`."""
    slots, factor = envelope
    mass = _cascade_mass(
        depth - _BURST_BLOCK_DEPTH,
        float(spread),
        default_rng(SeedSequence([int(seed), _STREAM_CASCADE])),
    )
    placed = np.sort(mass)[slots]  # unit-mean block masses
    v = np.repeat(placed, 2**_BURST_BLOCK_DEPTH) * factor
    mean = v.mean()
    if mean <= 0.0 or not np.isfinite(mean):
        raise EstimationError("degenerate composite draw")
    return _BASELINE_FRACTION + (1.0 - _BASELINE_FRACTION) * (v / mean)


def generate_from_meta(meta: GeneratorMeta, length: int, seed: int | None = None) -> TrafficSeries:
    """Regenerate a series from its parameter record.

    For the cascade-bearing kinds the output length is the smallest power
    of two >= `length` (their construction is dyadic); callers that need
    exactly `length` ticks read a prefix. `seed` overrides meta.seed so one
    calibrated parameter set can drive many independent runs.
    """
    check_length(length, 1)
    use_seed = meta.seed if seed is None else seed
    if meta.kind is GeneratorKind.FGN:
        return generate_fgn(meta.target_hurst, max(int(length), 64), use_seed)

    depth = meta.depth or max(_MIN_DEPTH[meta.kind], math.ceil(math.log2(length)))
    if 2**depth < length:
        raise ConfigError(f"depth {depth} yields {2**depth} ticks < requested {length}")
    if meta.kind is GeneratorKind.CASCADE:
        return generate_cascade(depth, meta.multiplier_spread, use_seed)
    return generate_composite(depth, meta.target_hurst, meta.multiplier_spread, use_seed)


def generate_calibrated(meta: GeneratorMeta, length: int, seed: int) -> TrafficSeries:
    """Realize a calibrated record for `length` ticks under `seed`.

    The record's depth is the calibration probe depth; a longer series is
    drawn at depth ceil(log2(length)) instead, so lengths up to the probe
    horizon keep the probed construction and longer ones are covered.
    """
    check_length(length, 1)
    if meta.depth is not None:
        meta = replace(meta, depth=max(meta.depth, math.ceil(math.log2(length))))
    return generate_from_meta(meta, length, seed=seed)


def measure_scaling(series) -> tuple[float, float]:
    """(h(2), delta_h) from one MF-DFA pass; the calibration oracle.

    MF-DFA fits each moment order on its own, so fitting only the default
    grid's two ends and q=2 gives bitwise the default grid's h(2) and
    delta_h.
    """
    q_grid = (fractal.DEFAULT_Q_GRID[0], 2.0, fractal.DEFAULT_Q_GRID[-1])
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

# the coarse probes' measured (h(2), delta_h) in search order, each float as
# its repr. They are constants of the composite generator, the probe seed and
# depth, and MF-DFA, so a change to any of these must regenerate the table;
# tests/test_traffic.py recomputes it and prints the literal on a mismatch.
_COARSE_PROBES = dict(zip(itertools.product(_COARSE_H, _COARSE_SPREAD), (
    (0.5918092901261768, 0.8775474756210476),
    (0.5985104992986423, 1.1775816113025377),
    (0.5994455435327296, 1.5132063045513071),
    (0.5905873641000183, 2.1506518349339823),
    (0.5267608634029882, 3.6923241543962977),
    (0.5274114587467333, 5.3664031028603345),
    (0.6393369487265473, 0.9872179237941012),
    (0.6374128469214911, 1.3441953392118204),
    (0.6395449377374341, 1.6922813853269605),
    (0.6231440002696155, 2.316881430884032),
    (0.6064819131853578, 3.713724540767715),
    (0.5965803709674554, 5.366875388249674),
    (0.6992931950541177, 1.108259870131552),
    (0.6966373075819211, 1.4293024643104304),
    (0.6914848431042009, 1.8315854686065878),
    (0.6798874765214988, 2.438834648506723),
    (0.6315847025423391, 4.002262595963696),
    (0.6306751130103139, 5.652580700083663),
    (0.760894085560029, 1.2390427293795567),
    (0.7449145905555272, 1.524231895017707),
    (0.7375868704012033, 1.9896477264752215),
    (0.7149607728193158, 2.610069273682797),
    (0.6503498842913215, 4.186650198888563),
    (0.6464495163040239, 5.872230056728996),
    (0.8492805948077775, 1.208908578581232),
    (0.8208756760061667, 1.515550544191701),
    (0.8106147438729254, 1.9581975232992954),
    (0.7760893145838825, 2.5861966448683744),
    (0.6944683169945769, 4.141275157296792),
    (0.688963606147268, 5.773960780056648),
)))


def check_calibration_targets(hurst: float | None, delta_h: float | None, hurst_key: str = "hurst",
                              delta_h_key: str = "delta_h") -> None:
    """Reject targets outside hurst (0.5, 1) or delta_h [0, 4], naming the given key and value; skip a None."""
    if hurst is not None and not (0.5 < hurst < 1.0):
        raise ConfigError(f"{hurst_key}: must lie in (0.5, 1), got {hurst!r}")
    if delta_h is not None and not (0.0 <= delta_h <= 4.0):
        raise ConfigError(f"{delta_h_key}: must lie in [0, 4], got {delta_h!r}")


def check_hurst(hurst: float, key: str = "hurst") -> None:
    """Reject a generator exponent outside (0, 1), naming the given key and value."""
    if not 0.0 < hurst < 1.0:
        raise ConfigError(f"{key}: must lie in (0, 1), got {hurst!r}")


def check_integer(value, key: str) -> None:
    """Reject a value Python cannot use as an index (a float, say), naming the given key and value."""
    try:
        operator.index(value)
    except TypeError:
        raise ConfigError(f"{key}: must be an integer, got {value!r}") from None


def check_length(length: int, least: int, key: str = "length") -> None:
    """Reject a length outside [least, 2^24] ticks, the dyadic depth cap, naming the given key and value."""
    check_integer(length, key)
    if not least <= length <= 2**_MAX_DEPTH:
        raise ConfigError(f"{key}: must lie in [{least}, {2**_MAX_DEPTH}] ticks, got {length}")


def check_seed(seed: int, key: str = "seed") -> None:
    """Reject a non-integer or negative RNG seed, naming the given key and value."""
    check_integer(seed, key)
    if seed < 0:
        raise ConfigError(f"{key}: must be a non-negative integer, got {seed}")


def check_probe_budget(budget: int, key: str = "budget") -> None:
    """Reject a non-integer calibration probe budget or one below 1, naming the given key and value."""
    check_integer(budget, key)
    if budget < 1:
        raise ConfigError(f"{key}: must be a positive integer, got {budget}")


def calibrate(
    target_hurst: float,
    target_delta_h: float,
    budget: int = 64,
    probes: dict[tuple, tuple[float, float]] | None = None,
) -> GeneratorMeta:
    """Find generator parameters whose measured (H, delta_h) hit the targets.

    Probes are generated at a fixed internal seed and depth 14, measured by
    MF-DFA with the default q grid (H read as h(2)). Success means the
    probe lands within +-0.1 of target_hurst and +-0.3 of target_delta_h.
    The search is one deterministic loop over the probes a generator
    yields: it measures each, keeps the best, and stops where the next
    would exceed the budget. The fGn family yields one probe at the target
    exponent; the composite family a coarse 5 x 6 grid of
    (envelope exponent, spread), then up to three 5 x 3 local grids around
    the best probe, halving the exponent step and square-rooting the spread
    factor each round. The coarse grid's 30 measured pairs are tabulated
    in `_COARSE_PROBES`, so only local probes are generated and measured.
    A call colours one envelope per distinct exponent of the probes it
    measures and composes each of them from it; every envelope of a call
    colours one noise draw, and none outlives the call. A local round with
    exponent step h_step can move the exponent at most 2 * h_step - 0.01
    from its centre over it and the later rounds (0.07, 0.03, then 0.01),
    so it starts by dropping every envelope farther away: no exponent is
    coloured twice, and at most 5 envelopes are alive at any probe, where
    a cold calibrate(0.9, 2.5), which colours 9, would otherwise hold all 9.

    Parameters
    ----------
    target_hurst : float
        Desired measured Hurst exponent, in (0.5, 1).
    target_delta_h : float
        Desired measured generalized-Hurst width, in [0, 4]. Targets
        <= 0.2 select the fGn family, larger ones the composite family.
    budget : int
        Maximum number of distinct probes this call visits before giving
        up. A probe answered from `probes` or from the coarse table still
        counts, so the search path, the result and any CalibrationError
        depend on neither.
    probes : dict, optional
        Memo from probe knobs to their measured (h(2), delta_h), read
        before the coarse table. Every probe is a pure function of its
        knobs, so one dict can be shared by the calibrations of a sweep:
        each distinct probe is then generated and measured once. Each
        visited probe is added to it when visited, a tabulated one too.

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
    check_calibration_targets(target_hurst, target_delta_h, "target_hurst", "target_delta_h")
    check_probe_budget(budget)

    if probes is None:
        probes = {}
    visited: set[tuple] = set()
    best: tuple | None = None

    def score(measured: tuple[float, float]) -> float:
        return max(
            abs(measured[0] - target_hurst) / _TOL_H,
            abs(measured[1] - target_delta_h) / _TOL_DH,
        )

    def candidates():
        """The probe knobs in search order; each is measured before the next is asked for."""
        if target_delta_h <= _FGN_FAMILY_THRESHOLD:
            # measured h(2) lies within 0.015 of the knob: one probe scores under the early stop
            yield (min(target_hurst, 0.99),)
            return
        yield from itertools.product(_COARSE_H, _COARSE_SPREAD)
        # shrinking local grid around the incumbent; the knobs are coupled
        # (raising the envelope exponent narrows the measured width), so
        # both must move together rather than by per-axis bisection
        h_step, s_mult = 0.04, 1.25
        for _ in range(3):
            if score(probes[best]) <= _EARLY_STOP:
                return
            hk, sk = best
            # this round and the later ones reach at most h_step + h_step/2 + ... + 0.01 from hk;
            # farther envelopes can never be read again (the slack covers the 6-digit rounding)
            reach = 2 * h_step - 0.01 + 1e-9
            for h in [h for h in envelopes if abs(h - hk) > reach]:
                del envelopes[h]
            for h_off in (-h_step, -h_step / 2, 0.0, h_step / 2, h_step):
                for sm in (1.0 / s_mult, 1.0, s_mult):
                    yield (round(min(hk + h_off, 0.99), 6), round(sk * sm, 6))
            h_step /= 2
            s_mult = math.sqrt(s_mult)

    # the composite envelopes of this call by exponent, all colouring one
    # noise draw; each local round drops those out of its reach, and the
    # rest end with the call, so a sweep's cells share none
    noise_rng = default_rng(SeedSequence([_PROBE_SEED, _STREAM_ENVELOPE]))
    noise, envelopes = None, {}
    for knobs in candidates():
        if knobs not in visited and len(visited) >= budget:
            break
        visited.add(knobs)
        if knobs in _COARSE_PROBES:
            probes.setdefault(knobs, _COARSE_PROBES[knobs])
        elif knobs not in probes:
            if len(knobs) == 2 and knobs[0] not in envelopes:
                if noise is None:
                    noise = _fgn_noise(2**_PROBE_DEPTH, noise_rng)
                envelopes[knobs[0]] = _envelope(_PROBE_DEPTH, knobs[0], noise)
            # the probe series is left unnamed, so it is freed before the next is drawn
            probes[knobs] = measure_scaling(
                generate_fgn(knobs[0], 2**_PROBE_DEPTH, _PROBE_SEED)
                if len(knobs) == 1
                else _compose(envelopes[knobs[0]], _PROBE_DEPTH, knobs[1], _PROBE_SEED)
            )
        if best is None or score(probes[knobs]) < score(probes[best]):
            best = knobs

    measured = probes[best]
    residuals = (measured[0] - target_hurst, measured[1] - target_delta_h)
    composite = len(best) == 2
    meta = GeneratorMeta(
        kind=GeneratorKind.COMPOSITE if composite else GeneratorKind.FGN,
        seed=_PROBE_SEED,
        depth=_PROBE_DEPTH if composite else None,
        target_hurst=float(best[0]),
        multiplier_spread=float(best[1]) if composite else None,
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


def write_series_csv(path, series) -> None:
    """Write `tick,value` rows, values at 12 significant digits."""
    values = np.asarray(getattr(series, "values", series), dtype=float)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tick,value\n")
        for start in range(0, values.size, 4096):  # in chunks, so no text of all rows is held
            chunk = values[start:start + 4096].tolist()
            fields = [0] * (2 * len(chunk))
            fields[0::2] = range(start, start + len(chunk))
            fields[1::2] = chunk
            fh.write("%d,%.12g\n" * len(chunk) % tuple(fields))


def read_series_csv(path) -> np.ndarray:
    """Read a `tick,value` CSV back into a value vector; each row's tick must be its 0-based index."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            header = fh.readline().strip()
            if header != "tick,value":
                raise ConfigError(f"{path}:1: expected header 'tick,value', got {header!r}")
            values = []
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split(",")
                if len(parts) != 2:
                    raise ConfigError(f"{path}:{lineno}: expected 'tick,value'")
                if parts[0].strip() != str(len(values)):
                    raise ConfigError(f"{path}:{lineno}: expected tick {len(values)}, got {parts[0]!r}")
                try:
                    values.append(float(parts[1]))
                except ValueError:
                    raise ConfigError(f"{path}:{lineno}: expected a number, got {parts[1]!r}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    if not values:
        raise ConfigError(f"{path}: no data rows")
    x = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(x)) or x.min() < 0.0:
        raise ConfigError(f"{path}: values must be finite and non-negative")
    return x
