"""Discrete-time cluster simulation driven by a traffic series.

Each tick: expired tasks complete, the FIFO queue is retried, new arrivals
are dispatched by the configured policy, an optional migration pass runs,
and instantaneous per-server utilizations are added to the current report
window. Arrival counts per tick are Poisson with mean arrival_scale *
series[tick], so the traffic series' scaling structure carries through to
the offered load. The scenario's one weight triple drives placement,
migration and the window reports alike.

:func:`step` is the per-tick reference. :func:`run_scenario` gives the same
output while running :func:`step` only on event ticks: a tick with an
arrival, a completion, or a migration committed on the tick before. On any
other (quiet) tick nothing can change: every queued task failed to fit at
the end of the tick before and no capacity has been freed since, and the
migration pass found no move in the same state. So a quiet tick only
repeats the last utilization sample, which the window keeps as a
(row, span) segment. The loop jumps from event tick to event tick, holding
each quiet run at once, and averages closed windows in batches.

Capacity is hard: a task is admitted only if it fits every resource, else
it waits in the queue. Because admission compares and then stores the same
float sum, and completions only subtract, a recorded utilization can never
exceed 1.

A run is a pure function of its ScenarioConfig: all randomness flows from
the config seed through three named substreams (traffic, arrival counts,
demand draws), so identical configs give bitwise-identical outputs
regardless of host scheduling. A tick with k arrivals makes three demand
stream calls of its own: k class uniforms, 3k normals and k duration uniforms.
"""

from __future__ import annotations

import heapq
import math
import sys
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, chain

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import metrics, traffic
from .errors import ConfigError, check_non_negative, check_positive
from .metrics import (
    ImbalanceReport,
    ServerSpec,
    WeightTriple,
    composite_load,
    sil_value,
)
from .traffic import GeneratorMeta, TrafficSeries, check_integer, check_length, check_seed

__all__ = [
    "MAX_TICK_ARRIVAL_MEAN",
    "PolicyKind",
    "Policy",
    "Task",
    "ServiceClass",
    "DemandParams",
    "CalibrationTarget",
    "ScenarioConfig",
    "ClusterState",
    "homogeneous_cluster",
    "reference_cluster",
    "arrivals_from_traffic",
    "dispatch",
    "rebalance",
    "step",
    "resolve_traffic",
    "run_scenario",
]

# substream labels under the config seed
_STREAM_TRAFFIC = 0
_STREAM_ARRIVALS = 1
_STREAM_DEMANDS = 2

# a migration pass commits at most this many moves per tick
_MAX_MOVES_PER_TICK = 64

_DEMAND_FLOOR = 1e-6

# relative rounding slack on the queue retry's headroom filter (see max_headroom)
_HEADROOM_SLACK = 1.0 + 1e-12

# cap on one tick's Poisson arrival mean, far past any cluster's capacity
MAX_TICK_ARRIVAL_MEAN = 1e6

# closed windows averaged per numpy call; more saves little and costs memory
_SCORE_BATCH = 4

# the largest exponent math.exp takes without overflow
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class PolicyKind(str, Enum):
    ROUND_ROBIN = "round_robin"
    LEAST_COMPOSITE = "least_composite"
    LEAST_SIL = "least_sil"
    THRESHOLD_MIGRATION = "threshold_migration"


@dataclass(frozen=True)
class Policy:
    """Dispatch rule plus (for the migration kind) a rebalance trigger.

    ThresholdMigration dispatches like LeastComposite and additionally runs
    a migration pass each tick while the maximum per-server SIL exceeds
    ``migration_threshold``. ``kind`` (default least_sil) may be given as
    its string value.
    """

    kind: PolicyKind = PolicyKind.LEAST_SIL
    migration_threshold: float = 0.0

    def __post_init__(self):
        try:
            object.__setattr__(self, "kind", PolicyKind(self.kind))
        except ValueError:
            names = sorted(k.value for k in PolicyKind)
            raise ConfigError(f"kind: expected one of {names}, got {self.kind!r}") from None
        check_non_negative(self.migration_threshold, "migration_threshold")


@dataclass(frozen=True)
class Task:
    id: int
    arrival_tick: int
    cpu_demand: float
    ram_demand: float
    net_demand: float
    duration: int
    service_class: int = 0

    def __post_init__(self):
        check_integer(self.duration, "duration")
        if self.duration < 1:
            raise ConfigError("duration must be >= 1 tick")
        # chained tests also catch NaN, and cost less than a min() call
        if not (0.0 < self.cpu_demand < math.inf and 0.0 < self.ram_demand < math.inf
                and 0.0 < self.net_demand < math.inf):
            demands = (self.cpu_demand, self.ram_demand, self.net_demand)
            if any(d <= 0.0 for d in demands):
                raise ConfigError("task demands must be positive")
            raise ConfigError(f"task demands must be finite, got {demands}")


@dataclass(frozen=True)
class ServiceClass:
    """A demand profile variant: scales the base demand/duration parameters."""

    probability: float
    demand_scale: float = 1.0
    duration_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigError(f"probability: must lie in [0, 1], got {self.probability!r}")
        check_positive(self.demand_scale, "demand_scale")
        check_positive(self.duration_scale, "duration_scale")


@dataclass(frozen=True)
class DemandParams:
    """Truncated log-normal resource demands and geometric durations.

    Means are arithmetic means of the untruncated distribution; sigmas are
    the log-space shape parameters. Demands are clipped to
    [1e-6, *_max] so every task fits an empty default server.
    """

    cpu_mean: float = 0.35
    cpu_sigma: float = 0.6
    ram_mean: float = 2.5
    ram_sigma: float = 0.7
    net_mean: float = 1.25
    net_sigma: float = 0.7
    # longer than the default 64-tick report window, so the imbalance a
    # drained burst leaves behind spans windows instead of averaging away
    duration_mean: float = 96.0
    cpu_max: float = 1.0
    ram_max: float = 10.0
    net_max: float = 5.0
    classes: tuple[ServiceClass, ...] = (ServiceClass(probability=1.0),)

    def __post_init__(self):
        for name in ("cpu_mean", "ram_mean", "net_mean", "cpu_max", "ram_max", "net_max"):
            check_positive(getattr(self, name), name)
        for name in ("cpu_sigma", "ram_sigma", "net_sigma"):
            v = getattr(self, name)
            if not (v >= 0.0 and math.isfinite(v * v)):
                raise ConfigError(f"{name}: must be non-negative with a finite square, got {v!r}")
        if not (1.0 <= self.duration_mean < math.inf):
            raise ConfigError(f"duration_mean: must be finite and at least 1 tick, got {self.duration_mean!r}")
        for i, cls in enumerate(self.classes):
            mean = self.duration_mean * cls.duration_scale
            if 1.0 - 1.0 / max(mean, 1.0) == 1.0:
                name = "duration_mean" if self.duration_mean >= cls.duration_scale else f"classes[{i}]"
                raise ConfigError(f"{name}: mean duration {mean:g} ticks rounds geometric q = 1 - 1/mean to 1")
        total = sum(c.probability for c in self.classes)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"classes: probabilities must sum to 1, got {total!r}")


@dataclass(frozen=True)
class CalibrationTarget:
    """Traffic given as desired measured (H, delta_h) rather than knobs."""

    hurst: float
    delta_h: float
    budget: int = 64

    def __post_init__(self):
        traffic.check_calibration_targets(self.hurst, self.delta_h)
        traffic.check_probe_budget(self.budget)


def homogeneous_cluster(
    n: int, cpu_count: int = 4, ram_capacity: float = 32.0, net_capacity: float = 16.0
) -> tuple[ServerSpec, ...]:
    """N identical servers with ids 0..n-1."""
    check_integer(n, "n")
    if n < 1:
        raise ConfigError(f"n: must be a positive integer, got {n!r}")
    return tuple(
        ServerSpec(id=i, cpu_count=cpu_count, ram_capacity=ram_capacity, net_capacity=net_capacity)
        for i in range(n)
    )


def reference_cluster() -> tuple[ServerSpec, ...]:
    """Mixed-size 8-server rack: two large, four mid, two small nodes.

    Capacity ratios are fixed at 8 RAM units and 4 bandwidth units per
    CPU. Unequal node sizes matter: on identical servers a saturated
    cluster looks perfectly balanced (every node pegged), while mixed
    sizes keep placement granularity visible at high load, which is where
    imbalance lives.
    """
    cores = (8, 8, 4, 4, 2, 2, 1, 1)
    return tuple(
        ServerSpec(id=i, cpu_count=c, ram_capacity=8.0 * c, net_capacity=4.0 * c)
        for i, c in enumerate(cores)
    )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one simulation run depends on."""

    traffic: GeneratorMeta | CalibrationTarget
    cluster: tuple[ServerSpec, ...] = field(default_factory=reference_cluster)
    weights: WeightTriple = field(default_factory=WeightTriple)
    policy: Policy = field(default_factory=Policy)
    horizon: int = 16384
    window: int = 64
    arrival_scale: float = 0.1
    demand_params: DemandParams = field(default_factory=DemandParams)
    seed: int = 1
    name: str = "scenario"

    def __post_init__(self):
        if not isinstance(self.traffic, (GeneratorMeta, CalibrationTarget)):
            raise ConfigError(f"traffic: must be a GeneratorMeta or a CalibrationTarget, got {self.traffic!r}")
        check_length(self.horizon, 256, "horizon")
        check_integer(self.window, "window")
        if not (1 <= self.window <= self.horizon):
            raise ConfigError(f"window: must satisfy 1 <= window <= horizon = {self.horizon}, got {self.window!r}")
        # the name heads the reports' CSV comments
        if not (isinstance(self.name, str) and self.name.isprintable()):
            raise ConfigError(f"name: must be one printable line, got {self.name!r}")
        check_positive(self.arrival_scale, "arrival_scale")
        check_seed(self.seed)
        if len(self.cluster) < 1:
            raise ConfigError("cluster: must hold at least one server")
        ids = [s.id for s in self.cluster]
        if len(set(ids)) != len(ids):
            raise ConfigError(f"cluster: server ids must be unique, got {ids!r}")


class ClusterState:
    """Mutable simulation state: running tasks, FIFO queue, window samples.

    Resource occupancy is tracked as running demand sums per server;
    instantaneous utilization is sum/capacity, with any migration net
    surcharge added to the source server for the tick of the move, which
    ``last_move_tick`` records. Each server's utilization triple is cached,
    recomputed whenever its sums or surcharge change.

    Freed-set invariant: ``_freed`` holds every server that lost load (a
    completion or a migration source) since the last queue retry. A queued
    task fit no server when last checked, and float ``+`` of a positive
    demand is monotone, so it still fits no server outside ``_freed``.

    The current window's samples are (row, span) segments: a row holds
    every server's utilization triple as :meth:`snapshot` took it, and
    its span counts the ticks it held. :meth:`hold` lengthens the last
    span by a run of quiet ticks instead of sampling again.
    """

    def __init__(self, specs):
        specs = tuple(specs)
        if not specs:
            raise ConfigError("cluster needs at least one server")
        self.specs = specs
        self.tick = 0
        n = len(specs)
        self.n = n
        self.queue: deque[Task] = deque()
        self.running: list[dict[int, Task]] = [dict() for _ in range(n)]
        self.cpu_sum = [0.0] * n
        self.ram_sum = [0.0] * n
        self.net_sum = [0.0] * n
        self.net_surcharge = [0.0] * n
        self.cpu_cap = [float(s.cpu_count) for s in specs]
        self.ram_cap = [float(s.ram_capacity) for s in specs]
        self.net_cap = [float(s.net_capacity) for s in specs]
        self.cpu_total, self.ram_total, self.net_total = map(sum, (self.cpu_cap, self.ram_cap, self.net_cap))
        self._util = [(0.0, 0.0, 0.0)] * n
        self._freed: set[int] = set()
        self._completion_buckets: dict[int, list[Task]] = {}
        self._completion_ticks: list[int] = []  # min-heap of the buckets' ticks
        self._task_server: dict[int, int] = {}
        self._rows: list[list[tuple[float, float, float]]] = []
        self._spans: list[int] = []
        self.arrived = 0
        self.completed = 0
        self.last_move_tick = -1
        self._rr_cursor = -1

    def running_count(self) -> int:
        return len(self._task_server)

    def queue_len(self) -> int:
        return len(self.queue)

    def max_headroom(self, servers) -> tuple[float, float, float]:
        """Largest per-resource free capacity over `servers`, rounded up.

        A task exceeding any component fits none of `servers`; the converse
        does not hold (the headroom may be spread across servers), so this
        is only a cheap rejection filter in front of :func:`dispatch`.
        :func:`step` passes the freed set: by the freed-set invariant of
        this class, a queued task fits no other server. :meth:`admissible` rounds
        sum + demand before comparing it with the capacity, so it can admit
        a demand a few ulps above cap - sum; a slack of 1e-12 of the
        capacity keeps the filter from rejecting it.
        """
        cpu = ram = net = 0.0
        for i in servers:
            c = self.cpu_cap[i] * _HEADROOM_SLACK - self.cpu_sum[i]
            r = self.ram_cap[i] * _HEADROOM_SLACK - self.ram_sum[i]
            v = self.net_cap[i] * _HEADROOM_SLACK - self.net_sum[i] - self.net_surcharge[i]
            if c > cpu:
                cpu = c
            if r > ram:
                ram = r
            if v > net:
                net = v
        return cpu, ram, net

    def utilization(self, i: int) -> tuple[float, float, float]:
        """Instantaneous (cpu, ram, net) utilization of server i (cached)."""
        return self._util[i]

    def _refresh(self, i: int) -> None:
        """Recompute server i's cached triple from its sums, and check it: the one place a triple is made.

        Sums are clamped at zero: emptying a server can leave a -1 ulp
        residue from float subtraction. ``0.0 if 0.0 > x else x`` is ``max(x, 0.0)``
        without the call: x unless 0.0 is greater, so a -0.0 sum stays -0.0.
        """
        c, r, v = self.cpu_sum[i], self.ram_sum[i], self.net_sum[i] + self.net_surcharge[i]
        u = self._util[i] = (
            (0.0 if 0.0 > c else c) / self.cpu_cap[i],
            (0.0 if 0.0 > r else r) / self.ram_cap[i],
            (0.0 if 0.0 > v else v) / self.net_cap[i],
        )
        if max(u) > 1.0 + 1e-9:
            raise RuntimeError(
                f"internal consistency violation: server {self.specs[i].id} "
                f"utilization {max(u):.12f} > 1 at tick {self.tick}"
            )

    def admissible(self, task: Task) -> list[int]:
        """The servers that can admit `task` now, ascending: the one admission test."""
        dc, dr, dn = task.cpu_demand, task.ram_demand, task.net_demand
        cs, rs, ns, sur = self.cpu_sum, self.ram_sum, self.net_sum, self.net_surcharge
        cc, rc, nc = self.cpu_cap, self.ram_cap, self.net_cap
        return [i for i in range(self.n)
                if cs[i] + dc <= cc[i] and rs[i] + dr <= rc[i] and ns[i] + sur[i] + dn <= nc[i]]

    def _add(self, i: int, task: Task) -> None:
        self.running[i][task.id] = task
        self.cpu_sum[i] += task.cpu_demand
        self.ram_sum[i] += task.ram_demand
        self.net_sum[i] += task.net_demand
        self._task_server[task.id] = i
        self._refresh(i)

    def place(self, i: int, task: Task, completes_at: int) -> None:
        self._add(i, task)
        bucket = self._completion_buckets.setdefault(completes_at, [])
        if not bucket:
            heapq.heappush(self._completion_ticks, completes_at)
        bucket.append(task)

    def _remove(self, i: int, task: Task) -> None:
        del self.running[i][task.id]
        self.cpu_sum[i] -= task.cpu_demand
        self.ram_sum[i] -= task.ram_demand
        self.net_sum[i] -= task.net_demand
        self._freed.add(i)
        self._refresh(i)

    def complete_expired(self) -> int:
        """Release every task scheduled to finish before the current tick runs."""
        tasks = self._completion_buckets.pop(self.tick, None)
        if not tasks:
            return 0
        # every earlier bucket was popped on its own tick, so this one is the top
        heapq.heappop(self._completion_ticks)
        for task in tasks:
            self._remove(self._task_server.pop(task.id), task)
            self.completed += 1
        return len(tasks)

    def migrate(self, task_id: int, dst: int) -> None:
        """Move a running task; its net demand stays charged to the source this tick."""
        src = self._task_server[task_id]
        task = self.running[src][task_id]
        self.net_surcharge[src] += task.net_demand
        self._remove(src, task)
        # completion buckets hold the task itself, which moves unchanged
        self._add(dst, task)
        self.last_move_tick = self.tick

    def _reset_surcharges(self) -> None:
        """End the tick's migration surcharges on the servers that carry one."""
        for i, s in enumerate(self.net_surcharge):
            if s:
                self.net_surcharge[i] = 0.0
                self._refresh(i)

    def snapshot(self) -> None:
        """Sample every server's cached utilization for one tick."""
        self._rows.append(self._util[:])
        self._spans.append(1)

    def hold(self, m: int) -> None:
        """Pass `m` quiet ticks: the last sample holds m ticks longer.

        Only exact when the ticks change nothing and the last sample carries
        no migration surcharge; :func:`run_scenario` calls it under those
        conditions, within one window. The first tick of a window samples afresh.
        """
        if not self._spans:
            self.snapshot()
            self._spans[-1] = 0
        self._spans[-1] += m
        self.tick += m

    def _take_window(self) -> tuple[list, list[int]]:
        """The current window's (rows, spans) segments; the samples restart."""
        if not self._spans:
            raise ConfigError("no samples accumulated in the current window")
        window, self._rows, self._spans = (self._rows, self._spans), [], []
        return window


def _window_means(windows) -> np.ndarray:
    """Per-server mean utilizations of equally long windows, each given as (rows, spans).

    Returns an array shaped (windows, servers, 3) of (cpu, ram, net) means,
    which :func:`run_scenario` collects to score every window of a run in
    one :func:`metrics.score_windows` call. ``np.add.reduce`` over the tick
    axis, not the fastest, adds rows in tick order to ``initial=0.0``: a
    per-tick running sum from 0.0 (an all -0.0 column sums to +0.0),
    whichever ticks were held and however the windows are batched.
    """
    count = sum(windows[0][1])
    rows, spans = (list(chain.from_iterable(part)) for part in zip(*windows))
    n = len(rows[0])
    # fromiter over the flattened triples converts several times faster than np.array
    samples = np.fromiter(chain.from_iterable(chain.from_iterable(rows)), float, len(rows) * n * 3)
    per_tick = np.repeat(samples.reshape(-1, n, 3), spans, axis=0).reshape(-1, count, n, 3)
    return np.minimum(np.add.reduce(per_tick, axis=1, initial=0.0) / count, 1.0)


def _system_averages_now(state: ClusterState) -> tuple[float, float, float]:
    """Capacity-weighted instantaneous averages over the cluster.

    Migration surcharges are non-zero only on the tick of a move (the step
    that moves clears them), so any other tick sums ``net_sum`` alone: each
    ``v + 0.0`` adds the same value to a sum that starts at 0, never -0.0.
    """
    # the same quantity as metrics.score_windows' averages, summed in another float order;
    # kept apart because one shared sum would move the bits of the outputs
    net = (sum(state.net_sum) if state.last_move_tick != state.tick
           else sum(v + s for v, s in zip(state.net_sum, state.net_surcharge)))
    return (sum(state.cpu_sum) / state.cpu_total, sum(state.ram_sum) / state.ram_total,
            net / state.net_total)


def _arrival_means(values, arrival_scale: float, first_tick: int = 0) -> np.ndarray:
    """Per-tick Poisson means arrival_scale * values, checked before any draw.

    A negative mean, or one above MAX_TICK_ARRIVAL_MEAN (1e6), is rejected
    naming arrival_scale and the first offending tick (`first_tick` is the
    tick of values[0]).
    """
    lam = arrival_scale * np.asarray(values, dtype=float)
    if (lam < 0.0).any():
        raise ConfigError("arrival intensity must be non-negative")
    over = np.flatnonzero(lam > MAX_TICK_ARRIVAL_MEAN)
    if over.size:
        j = int(over[0])
        raise ConfigError(f"arrival_scale: must keep every tick's arrival mean at most {MAX_TICK_ARRIVAL_MEAN:g} "
                          f"(tick {first_tick + j}'s is {lam[j]:g}), got {arrival_scale!r}")
    return lam


def arrivals_from_traffic(
    series: TrafficSeries,
    tick: int,
    arrival_scale: float,
    demand_params: DemandParams,
    count_rng,
    demand_rng,
    id_start: int = 0,
) -> list[Task]:
    """Draw the tick's task batch from the traffic intensity.

    The arrival count k is Poisson with mean arrival_scale * series[tick];
    demands and durations come from `demand_params` via `demand_rng`: k class
    uniforms, 3k normals and k duration uniforms, the three calls
    :func:`run_scenario` makes for the tick. Two separate streams let
    callers vary the counting process while freezing the demand draws (and
    vice versa). A mean above MAX_TICK_ARRIVAL_MEAN (1e6) is rejected
    before the tick draws anything.
    """
    values = series.values if isinstance(series, TrafficSeries) else np.asarray(series)
    if not (0 <= tick < len(values)):
        raise ConfigError(f"tick {tick} outside the series horizon {len(values)}")
    lam = float(_arrival_means(values[tick:tick + 1], arrival_scale, tick)[0])
    k = int(count_rng.poisson(lam)) if lam > 0.0 else 0
    if k == 0:
        return []
    return next(_draw_arrivals([tick], [k], _demand_plan(demand_params), demand_rng, id_start))[1]


def _demand_plan(p: DemandParams) -> tuple:
    """One run's demand constants: per resource the lognormal (mu, sigma) and clip
    maximum, cumulative class probabilities and per-class (demand_scale, log q)."""
    resources = [(math.log(mean) - 0.5 * sigma**2, sigma, float(cap)) for mean, sigma, cap in (
        (p.cpu_mean, p.cpu_sigma, p.cpu_max), (p.ram_mean, p.ram_sigma, p.ram_max),
        (p.net_mean, p.net_sigma, p.net_max))]
    classes = []
    for cls in p.classes:
        # (demand_scale, log q): durations are geometric with mean mean_dur and
        # q = 1 - 1/mean_dur; None stands for q = 0, 1-tick tasks
        q = 1.0 - 1.0 / max(p.duration_mean * cls.duration_scale, 1.0)
        classes.append((cls.demand_scale, math.log(q) if q > 0.0 else None))
    return resources, list(accumulate(c.probability for c in p.classes)), classes


def _draw_arrivals(ticks: list[int], counts: list[int], plan: tuple, demand_rng, id_start: int = 0):
    """Yield (tick, tasks) for each arrival tick and its count k >= 1, one tick at a time.

    Each tick makes three calls of its own, in stream order: k class
    uniforms, 3k normals (cpu, ram, net) and k duration uniforms. A demand
    is ``math.exp(mu + sigma * z)``: bitwise ``Generator.lognormal`` while
    numpy computes ``loc + scale * z`` without FMA contraction (a test pins
    this). Past ``log(sys.float_info.max)``, where ``math.exp`` overflows,
    it is ``math.inf``, as lognormal gives.
    Tasks skip Task's keyword constructor, whose frozen setattr is slow, then
    pass ``Task.__post_init__``: equal, hash-equal and frozen like ``Task(...)``.
    """
    ((mu_c, s_c, max_c), (mu_r, s_r, max_r), (mu_n, s_n, max_n)), cum, classes = plan
    last, floor, top, exp, inf = len(cum) - 1, _DEMAND_FLOOR, _LOG_FLOAT_MAX, math.exp, math.inf
    for tick, k in zip(ticks, counts):
        class_u = demand_rng.random(k).tolist()
        z = demand_rng.standard_normal(3 * k).tolist()
        u = demand_rng.random(k).tolist()
        tasks = []
        for j in range(k):
            ci = 0
            while ci < last and class_u[j] > cum[ci]:
                ci += 1
            scale, log_q = classes[ci]
            # geometric via inverse CDF so the draw count per task is fixed; math.log, since numpy's
            # log can differ in the last bit; max and min as the conditionals they run, floor first
            p = 1.0 - u[j]
            d = 1 if log_q is None else math.ceil(math.log(1e-300 if 1e-300 > p else p) / log_q)
            duration = d if d > 1 else 1
            xc, xr, xn = mu_c + s_c * z[j], mu_r + s_r * z[k + j], mu_n + s_n * z[2 * k + j]
            cpu, ram, net = ((exp(xc) if xc <= top else inf) * scale, (exp(xr) if xr <= top else inf) * scale,
                             (exp(xn) if xn <= top else inf) * scale)
            cpu, ram, net = (floor if floor > cpu else cpu, floor if floor > ram else ram,
                             floor if floor > net else net)
            cpu, ram, net = (max_c if max_c < cpu else cpu, max_r if max_r < ram else ram,
                             max_n if max_n < net else net)
            task = object.__new__(Task)
            task.__dict__.update(id=id_start + j, arrival_tick=tick, cpu_demand=cpu, ram_demand=ram,
                                 net_demand=net, duration=duration, service_class=ci)
            task.__post_init__()
            tasks.append(task)
        id_start += k
        yield tick, tasks


def dispatch(task: Task, state: ClusterState, policy: Policy, w: WeightTriple) -> int | None:
    """Pick the server for a task, or None when nobody can admit it.

    The caller applies the placement; the one state it changes is round robin's
    cursor, moved to the server it picks. Ties always break toward the lowest
    server id: each scoring loop keeps the first minimum by a strict ``<`` from
    ``math.inf``, as ``min(key=...)`` does, since every load and SIL is finite
    (utilizations lie in [0, 1]). ThresholdMigration places like LeastComposite;
    its corrective behavior lives in :func:`rebalance`.
    """
    admissible = state.admissible(task)
    if not admissible:
        return None
    kind = policy.kind
    if kind is PolicyKind.ROUND_ROBIN:
        # the first admissible server after the cursor, cyclically
        i = next((i for i in admissible if i > state._rr_cursor), admissible[0])
        state._rr_cursor = i
        return i

    utils = state._util
    best, best_score = None, math.inf
    if kind is not PolicyKind.LEAST_SIL:
        # least_composite and threshold_migration: the lowest weighted load
        for i in admissible:
            cu, ru, nu = utils[i]
            load = composite_load(cu, ru, nu, w)
            if load < best_score:
                best, best_score = i, load
        return best

    # least_sil: the server with the lowest post-placement SIL
    avg_c, avg_r, avg_n = _system_averages_now(state)
    dc, dr, dn = task.cpu_demand, task.ram_demand, task.net_demand
    cc, rc, nc = state.cpu_cap, state.ram_cap, state.net_cap
    for i in admissible:
        cu, ru, nu = utils[i]
        sil = sil_value(cu + dc / cc[i], ru + dr / rc[i], nu + dn / nc[i], avg_c, avg_r, avg_n, w)
        if sil < best_score:
            best, best_score = i, sil
    return best


def _post_move_max_sils(state: ClusterState, utils, avgs, net_total: float,
                        src: int, task: Task, w: WeightTriple) -> dict[int, float]:
    """Cluster max SIL if `task` moved src -> j, for each admissible j != src.

    Scores from the pass's snapshot (`utils`, `avgs`, `net_total`) without
    mutating state. The source keeps the task's net_demand as a migration
    surcharge this tick, so its net utilization is unchanged while cpu/ram
    drop; the cluster net average rises by net_demand / net_total. A
    destination's score is the max of its own post-move SIL and the other
    servers' SILs as non-destinations, each computed once per candidate.
    """
    dests = [j for j in state.admissible(task) if j != src]
    if not dests:
        return {}
    dc, dr, dn = task.cpu_demand, task.ram_demand, task.net_demand
    avg_c, avg_r, avg_n = avgs
    avg_n += dn / net_total
    # the two largest SILs as non-destinations, and the index of the largest
    first = second = 0.0
    top = -1
    for i, (cu, ru, nu) in enumerate(utils):
        if i == src:
            cu -= dc / state.cpu_cap[i]
            ru -= dr / state.ram_cap[i]
        sil = sil_value(cu, ru, nu, avg_c, avg_r, avg_n, w)
        if sil > first:
            first, second, top = sil, first, i
        elif sil > second:
            second = sil
    scores = {}
    for j in dests:
        cu, ru, nu = utils[j]
        own = sil_value(cu + dc / state.cpu_cap[j], ru + dr / state.ram_cap[j],
                        nu + dn / state.net_cap[j], avg_c, avg_r, avg_n, w)
        scores[j] = max(own, second if j == top else first)
    return scores


def rebalance(state: ClusterState, policy: Policy, w: WeightTriple) -> list[tuple[int, int, int]]:
    """Migrate tasks off the max-SIL server while that strictly helps.

    Each pass: find the server with the highest SIL; if it exceeds the
    threshold, try its tasks in ascending composite-demand order and move
    the first one that has an admissible destination strictly lowering the
    cluster's maximum SIL (destination chosen to minimize that post-move
    maximum). Moves are scored from one snapshot per pass (the cached
    triples), exact because state changes only when a move commits and
    ends the pass. A moved task keeps its remaining duration; its
    net_demand is charged to the source server for this tick, and the
    source joins the freed set of the next queue retry. Returns the committed moves as (task_id, source,
    destination).

    Bound: a task whose move would leave the source's own SIL at or above
    the max SIL is skipped before sorting, neither scanned for admission
    nor scored. Proof: in :func:`_post_move_max_sils` every destination
    j != src scores ``max(own, first)``, or ``max(own, second)`` when j is
    ``top``; ``first`` is at least the source's entry, and so is ``second``
    when ``top`` != src, so no such move can strictly lower the max SIL.
    A source at or below the cluster average in cpu, ram and net ends the
    pass before any candidate is scored: a move lowers its cpu and ram and
    raises the net average, so no deviation from the average shrinks, and
    as float subtraction, squaring, the non-negative weights and the sum
    are monotone, every candidate's post-move SIL is at least the max SIL.
    """
    if policy.kind is not PolicyKind.THRESHOLD_MIGRATION:
        return []
    n = state.n
    if n < 2:
        return []
    moves: list[tuple[int, int, int]] = []
    net_total = state.net_total

    for _ in range(_MAX_MOVES_PER_TICK):
        utils = state._util  # read only: a committed move ends the pass
        avgs = avg_c, avg_r, avg_n = _system_averages_now(state)
        sils = [sil_value(cu, ru, nu, avg_c, avg_r, avg_n, w) for cu, ru, nu in utils]
        max_sil = max(sils)
        if max_sil <= policy.migration_threshold:
            break
        src = sils.index(max_sil)
        cu, ru, nu = utils[src]
        if cu <= avg_c and ru <= avg_r and nu <= avg_n:
            break

        # the source's post-move SIL, in _post_move_max_sils' float order
        cc, rc = state.cpu_cap[src], state.ram_cap[src]
        candidates = [t for t in state.running[src].values()
                      if sil_value(cu - t.cpu_demand / cc, ru - t.ram_demand / rc, nu,
                                   avg_c, avg_r, avg_n + t.net_demand / net_total, w) < max_sil]
        if not candidates:
            break
        candidates.sort(key=lambda t: (composite_load(t.cpu_demand, t.ram_demand, t.net_demand, w), t.id))
        for task in candidates:
            post_max = _post_move_max_sils(state, utils, avgs, net_total, src, task, w)
            if post_max:
                dst = min(post_max, key=post_max.get)
                if post_max[dst] < max_sil:
                    state.migrate(task.id, dst)
                    moves.append((task.id, src, dst))
                    break
        else:
            break
    return moves


def step(state: ClusterState, arrivals, policy: Policy, w: WeightTriple) -> ClusterState:
    """Advance the simulation by one tick.

    Order: completions, queue retry (FIFO pass), new arrivals, migration
    pass, utilization snapshot, tick increment. A task dispatched at tick t
    with duration d occupies its server for ticks t .. t+d-1 exactly. The
    queue retry runs only if a server was freed since the last retry, and
    its headroom filter covers only the freed servers (the freed-set
    invariant of :class:`ClusterState`); :func:`dispatch` still scores
    every server. Under threshold_migration the migration pass runs on
    every tick. The snapshot copies the cached utilization triples.
    """
    state.complete_expired()

    freed, state._freed = state._freed, set()
    if state.queue and freed:
        # one FIFO pass; placements only shrink free capacity, so a task over
        # the freed servers' per-resource headroom cannot fit this tick
        fc, fr, fn = state.max_headroom(freed)
        waiting: deque[Task] = deque()
        for task in state.queue:
            if task.cpu_demand <= fc and task.ram_demand <= fr and task.net_demand <= fn:
                target = dispatch(task, state, policy, w)
                if target is not None:
                    state.place(target, task, state.tick + task.duration)
                    fc, fr, fn = state.max_headroom(freed)
                    continue
            waiting.append(task)
        state.queue = waiting

    for task in arrivals:
        state.arrived += 1
        target = dispatch(task, state, policy, w)
        if target is None:
            state.queue.append(task)
        else:
            state.place(target, task, state.tick + task.duration)

    if policy.kind is PolicyKind.THRESHOLD_MIGRATION:
        rebalance(state, policy, w)

    state.snapshot()
    if state.last_move_tick == state.tick:
        state._reset_surcharges()
    state.tick += 1
    return state


def _stream_seed(seed: int, stream: int) -> int:
    """Stable 64-bit sub-seed for a named stream under the config seed."""
    return int(SeedSequence([int(seed), stream]).generate_state(2, np.uint32)[0])


def resolve_traffic(config: ScenarioConfig, probes: dict | None = None) -> TrafficSeries:
    """Calibrate if needed, then realize the run's traffic series; its `meta` records the draw.

    An explicit GeneratorMeta is a complete record of one series, so it
    reproduces that exact series regardless of the config seed; only the
    arrival and demand draws vary between runs. A caller that runs one
    record many times realizes it here once and passes it to
    :func:`run_scenario` as `series`. A CalibrationTarget names properties
    rather than a series, so its realization is drawn per run from the
    config seed's traffic substream, at the calibration probe depth or
    deeper when the horizon needs more ticks. `probes` is the calibration
    probe memo of :func:`traffic.calibrate`, shared by the cells of a sweep.
    """
    if isinstance(config.traffic, GeneratorMeta):
        return traffic.generate_from_meta(config.traffic, config.horizon)
    meta = traffic.calibrate(config.traffic.hurst, config.traffic.delta_h, config.traffic.budget, probes)
    return traffic.generate_calibrated(meta, config.horizon, _stream_seed(config.seed, _STREAM_TRAFFIC))


def run_scenario(config: ScenarioConfig, series: TrafficSeries | None = None) -> list[ImbalanceReport]:
    """Simulate the full horizon; one ImbalanceReport per complete window.

    `series`, when given, is the config's traffic already realized by
    :func:`resolve_traffic`: a TrafficSeries covering the horizon. Without
    it, that function realizes it here. All arrival counts are drawn up front in
    one Poisson call, the same draws as per tick (a zero mean draws
    nothing), after every tick's mean is checked against
    MAX_TICK_ARRIVAL_MEAN. Demands are drawn one arrival tick at a time,
    from constants derived once per run, in the tick's own three calls: k
    class uniforms, 3k normals and k duration uniforms. :func:`step` runs
    only on event ticks (an arrival, a completion, or a migration on the
    tick before); the quiet run up to the next event or window end passes
    in one :meth:`ClusterState.hold`. Closed windows are averaged
    `_SCORE_BATCH` at a time (:func:`_window_means`), and the run's
    (windows, servers, 3) means are scored once, after the last tick, by
    :func:`metrics.score_windows`. The reports equal those of calling
    :func:`arrivals_from_traffic` and :func:`step` on every tick and
    :func:`metrics.full_report` on every window.
    """
    if series is None:
        series = resolve_traffic(config)
    elif not isinstance(series, TrafficSeries):
        raise ConfigError(f"series: must be a TrafficSeries, got {type(series).__name__}")
    horizon, window = config.horizon, config.window
    if len(series.values) < horizon:
        raise ConfigError(
            f"series has {len(series.values)} ticks, fewer than the horizon {horizon}"
        )
    lam = _arrival_means(series.values[:horizon], config.arrival_scale)
    count_rng = default_rng(SeedSequence([int(config.seed), _STREAM_ARRIVALS]))
    demand_rng = default_rng(SeedSequence([int(config.seed), _STREAM_DEMANDS]))
    counts = np.zeros(horizon, dtype=np.int64)
    drawn = lam > 0.0
    counts[drawn] = count_rng.poisson(lam[drawn])
    arrival_ticks = np.flatnonzero(counts)
    draws = _draw_arrivals(arrival_ticks.tolist(), counts[arrival_ticks].tolist(),
                           _demand_plan(config.demand_params), demand_rng)

    state = ClusterState(config.cluster)
    completions = state._completion_ticks
    next_arrival, arriving = next(draws, (horizon, []))
    means, closed, t = [], [], 0
    while t < horizon:
        tasks = []
        if t == next_arrival:
            tasks = arriving
            next_arrival, arriving = next(draws, (horizon, []))
        if tasks or state.last_move_tick == t - 1 or (completions and completions[0] == t):
            step(state, tasks, config.policy, config.weights)
            t += 1
        else:
            # a quiet run, up to the next arrival, completion or window end
            quiet_end = min(next_arrival, completions[0] if completions else horizon, t - t % window + window)
            state.hold(quiet_end - t)
            t = quiet_end
        if t % window == 0:
            closed.append(state._take_window())
            if len(closed) == _SCORE_BATCH or t + window > horizon:
                means.append(_window_means(closed))
                closed = []

    in_flight = state.running_count() + state.queue_len()
    if state.arrived != state.completed + in_flight:
        raise RuntimeError(
            f"task conservation violated: arrived {state.arrived} != "
            f"completed {state.completed} + in flight {in_flight}"
        )
    return metrics.score_windows(np.concatenate(means), config.cluster, config.weights)
