"""Discrete-time cluster simulation driven by a traffic series.

Each tick: expired tasks complete, the FIFO queue is retried, new arrivals
are dispatched by the configured policy, an optional migration pass runs,
and instantaneous per-server utilizations are added to the current report
window. Arrival counts per tick are Poisson with mean arrival_scale *
series[tick], so the traffic series' scaling structure carries through to
the offered load. The scenario's one weight triple drives placement,
migration and the window reports alike.

Capacity is hard: a task is admitted only if it fits every resource, else
it waits in the queue. Because admission compares and then stores the same
float sum, and completions only subtract, a recorded utilization can never
exceed 1.

A run is a pure function of its ScenarioConfig: all randomness flows from
the config seed through three named substreams (traffic, arrival counts,
demand draws), so identical configs give bitwise-identical outputs
regardless of host scheduling.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import accumulate

import numpy as np
from numpy.random import SeedSequence, default_rng

from . import metrics, traffic
from .errors import ConfigError
from .metrics import (
    ImbalanceReport,
    ResourceUtilization,
    ServerSpec,
    WeightTriple,
    composite_load,
    default_weights,
    sil_value,
)
from .traffic import GeneratorMeta, TrafficSeries

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

# cap on one tick's Poisson arrival mean, far past any cluster's capacity
MAX_TICK_ARRIVAL_MEAN = 1e6


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
    ``migration_threshold``.
    """

    kind: PolicyKind
    migration_threshold: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.migration_threshold) and self.migration_threshold >= 0.0):
            raise ConfigError(f"migration_threshold must be finite and non-negative, got {self.migration_threshold}")


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
        if self.duration < 1:
            raise ConfigError("duration must be >= 1 tick")
        if min(self.cpu_demand, self.ram_demand, self.net_demand) <= 0.0:
            raise ConfigError("task demands must be positive")


@dataclass(frozen=True)
class ServiceClass:
    """A demand profile variant: scales the base demand/duration parameters."""

    probability: float
    demand_scale: float = 1.0
    duration_scale: float = 1.0

    def __post_init__(self):
        if not (0.0 <= self.probability <= 1.0):
            raise ConfigError("class probability must lie in [0,1]")
        if not all(math.isfinite(v) and v > 0.0 for v in (self.demand_scale, self.duration_scale)):
            raise ConfigError("class scales must be finite and positive")


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
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ConfigError(f"{name} must be finite and positive")
        for name in ("cpu_sigma", "ram_sigma", "net_sigma"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ConfigError(f"{name} must be finite and non-negative")
        if not (math.isfinite(self.duration_mean) and self.duration_mean >= 1.0):
            raise ConfigError("duration_mean must be finite and >= 1 tick")
        if not self.classes:
            raise ConfigError("at least one service class is required")
        total = sum(c.probability for c in self.classes)
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(f"service class probabilities must sum to 1, got {total}")


@dataclass(frozen=True)
class CalibrationTarget:
    """Traffic given as desired measured (H, delta_h) rather than knobs."""

    hurst: float
    delta_h: float
    budget: int = 64

    def __post_init__(self):
        if not (0.5 < self.hurst < 1.0):
            raise ConfigError("calibration hurst target must lie in (0.5, 1)")
        if not (0.0 <= self.delta_h <= 4.0):
            raise ConfigError("calibration delta_h target must lie in [0, 4]")
        if self.budget < 1:
            raise ConfigError("calibration budget must be positive")


def homogeneous_cluster(
    n: int, cpu_count: int = 4, ram_capacity: float = 32.0, net_capacity: float = 16.0
) -> tuple[ServerSpec, ...]:
    """N identical servers with ids 0..n-1."""
    if n < 1:
        raise ConfigError("cluster needs at least one server")
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
    weights: WeightTriple = field(default_factory=default_weights)
    policy: Policy = field(default_factory=lambda: Policy(kind=PolicyKind.LEAST_SIL))
    horizon: int = 16384
    window: int = 64
    arrival_scale: float = 0.1
    demand_params: DemandParams = field(default_factory=DemandParams)
    seed: int = 1
    name: str = "scenario"

    def __post_init__(self):
        if self.horizon < 256:
            raise ConfigError(f"horizon must be >= 256 ticks, got {self.horizon}")
        if not (1 <= self.window <= self.horizon):
            raise ConfigError("window must satisfy 1 <= window <= horizon")
        if not (math.isfinite(self.arrival_scale) and self.arrival_scale > 0.0):
            raise ConfigError(f"arrival_scale must be finite and positive, got {self.arrival_scale}")
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if len(self.cluster) < 1:
            raise ConfigError("cluster needs at least one server")
        ids = [s.id for s in self.cluster]
        if len(set(ids)) != len(ids):
            raise ConfigError("duplicate server ids in cluster")


class ClusterState:
    """Mutable simulation state: running tasks, FIFO queue, window sums.

    Resource occupancy is tracked as running demand sums per server;
    instantaneous utilization is sum/capacity, with any migration net
    surcharge added to the source server for the tick of the move. Each
    snapshot adds the instantaneous triples to per-server accumulators
    that :meth:`drain_window` turns into window means.
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
        self._completion_buckets: dict[int, list[int]] = {}
        self._task_server: dict[int, int] = {}
        self._win_acc = [[0.0, 0.0, 0.0] for _ in range(n)]
        self._win_count = 0
        self.arrived = 0
        self.completed = 0
        self._rr_cursor = -1

    def running_count(self) -> int:
        return len(self._task_server)

    def queue_len(self) -> int:
        return len(self.queue)

    def max_headroom(self) -> tuple[float, float, float]:
        """Largest per-resource free capacity over all servers.

        A task exceeding any component cannot fit anywhere; the converse
        does not hold (the headroom may be spread across servers), so this
        is only a cheap rejection filter in front of :func:`dispatch`.
        """
        cpu = ram = net = 0.0
        for i in range(self.n):
            c = self.cpu_cap[i] - self.cpu_sum[i]
            r = self.ram_cap[i] - self.ram_sum[i]
            v = self.net_cap[i] - self.net_sum[i] - self.net_surcharge[i]
            if c > cpu:
                cpu = c
            if r > ram:
                ram = r
            if v > net:
                net = v
        return cpu, ram, net

    def utilization(self, i: int) -> tuple[float, float, float]:
        """Instantaneous (cpu, ram, net) utilization of server i.

        Sums are clamped at zero: emptying a server can leave a -1 ulp
        residue from float subtraction.
        """
        return (
            max(self.cpu_sum[i], 0.0) / self.cpu_cap[i],
            max(self.ram_sum[i], 0.0) / self.ram_cap[i],
            max(self.net_sum[i] + self.net_surcharge[i], 0.0) / self.net_cap[i],
        )

    def fits(self, i: int, task: Task) -> bool:
        return (
            self.cpu_sum[i] + task.cpu_demand <= self.cpu_cap[i]
            and self.ram_sum[i] + task.ram_demand <= self.ram_cap[i]
            and self.net_sum[i] + self.net_surcharge[i] + task.net_demand <= self.net_cap[i]
        )

    def _add(self, i: int, task: Task) -> None:
        self.running[i][task.id] = task
        self.cpu_sum[i] += task.cpu_demand
        self.ram_sum[i] += task.ram_demand
        self.net_sum[i] += task.net_demand
        self._task_server[task.id] = i

    def place(self, i: int, task: Task, completes_at: int) -> None:
        self._add(i, task)
        self._completion_buckets.setdefault(completes_at, []).append(task.id)

    def _remove(self, i: int, task: Task) -> None:
        del self.running[i][task.id]
        self.cpu_sum[i] -= task.cpu_demand
        self.ram_sum[i] -= task.ram_demand
        self.net_sum[i] -= task.net_demand

    def complete_expired(self) -> int:
        """Release every task scheduled to finish before the current tick runs."""
        ids = self._completion_buckets.pop(self.tick, None)
        if not ids:
            return 0
        for tid in ids:
            i = self._task_server.pop(tid)
            task = self.running[i][tid]
            self._remove(i, task)
            self.completed += 1
        return len(ids)

    def migrate(self, task_id: int, dst: int) -> None:
        """Move a running task; its net demand stays charged to the source this tick."""
        src = self._task_server[task_id]
        task = self.running[src][task_id]
        self._remove(src, task)
        self.net_surcharge[src] += task.net_demand
        # completion bucket entries are keyed by task id, so they survive the move
        self._add(dst, task)

    def snapshot(self) -> None:
        """Add instantaneous utilizations to the window accumulators."""
        for i in range(self.n):
            u = self.utilization(i)
            if max(u) > 1.0 + 1e-9:
                raise RuntimeError(
                    f"internal consistency violation: server {self.specs[i].id} "
                    f"utilization {max(u):.12f} > 1 at tick {self.tick}"
                )
            acc = self._win_acc[i]
            acc[0] += u[0]
            acc[1] += u[1]
            acc[2] += u[2]
        self._win_count += 1

    def drain_window(self) -> list[ResourceUtilization]:
        """Mean utilizations since the last drain; resets the accumulators."""
        if self._win_count == 0:
            raise ConfigError("no samples accumulated in the current window")
        out = []
        for i in range(self.n):
            acc = self._win_acc[i]
            out.append(
                ResourceUtilization(
                    cpu=min(acc[0] / self._win_count, 1.0),
                    ram=min(acc[1] / self._win_count, 1.0),
                    net=min(acc[2] / self._win_count, 1.0),
                    window=self._win_count,
                )
            )
            acc[0] = acc[1] = acc[2] = 0.0
        self._win_count = 0
        return out


def _system_averages_now(state: ClusterState) -> tuple[float, float, float]:
    """Capacity-weighted instantaneous averages over the cluster."""
    net = sum(v + s for v, s in zip(state.net_sum, state.net_surcharge))
    return (sum(state.cpu_sum) / sum(state.cpu_cap), sum(state.ram_sum) / sum(state.ram_cap),
            net / sum(state.net_cap))


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

    The arrival count is Poisson with mean arrival_scale * series[tick];
    demands and durations come from `demand_params` via `demand_rng`. Two
    separate streams let callers vary the counting process while freezing
    the demand draws (and vice versa). A mean above MAX_TICK_ARRIVAL_MEAN
    (1e6) is rejected before the tick draws anything.
    """
    values = series.values if isinstance(series, TrafficSeries) else np.asarray(series)
    if not (0 <= tick < len(values)):
        raise ConfigError(f"tick {tick} outside the series horizon {len(values)}")
    lam = arrival_scale * float(values[tick])
    if lam < 0.0:
        raise ConfigError("arrival intensity must be non-negative")
    if lam > MAX_TICK_ARRIVAL_MEAN:
        raise ConfigError(f"arrival_scale {arrival_scale:g} puts tick {tick}'s arrival mean "
                          f"{lam:g} above the cap {MAX_TICK_ARRIVAL_MEAN:g}")
    k = int(count_rng.poisson(lam)) if lam > 0.0 else 0
    if k == 0:
        return []

    p = demand_params
    # per-field vector draws keep the stream layout fixed given k
    class_u = demand_rng.random(k)
    cpu = demand_rng.lognormal(math.log(p.cpu_mean) - 0.5 * p.cpu_sigma**2, p.cpu_sigma, k)
    ram = demand_rng.lognormal(math.log(p.ram_mean) - 0.5 * p.ram_sigma**2, p.ram_sigma, k)
    net = demand_rng.lognormal(math.log(p.net_mean) - 0.5 * p.net_sigma**2, p.net_sigma, k)
    dur_u = demand_rng.random(k)

    cum = list(accumulate(c.probability for c in p.classes))

    tasks = []
    for j in range(k):
        ci = 0
        while ci < len(cum) - 1 and class_u[j] > cum[ci]:
            ci += 1
        cls = p.classes[ci]
        mean_dur = max(p.duration_mean * cls.duration_scale, 1.0)
        # geometric via inverse CDF so the draw count per task is fixed
        q = 1.0 - 1.0 / mean_dur
        if q <= 0.0:
            duration = 1
        else:
            duration = max(1, int(math.ceil(math.log(max(1.0 - dur_u[j], 1e-300)) / math.log(q))))
        tasks.append(
            Task(
                id=id_start + j,
                arrival_tick=tick,
                cpu_demand=float(min(max(cpu[j] * cls.demand_scale, _DEMAND_FLOOR), p.cpu_max)),
                ram_demand=float(min(max(ram[j] * cls.demand_scale, _DEMAND_FLOOR), p.ram_max)),
                net_demand=float(min(max(net[j] * cls.demand_scale, _DEMAND_FLOOR), p.net_max)),
                duration=duration,
                service_class=ci,
            )
        )
    return tasks


def dispatch(task: Task, state: ClusterState, policy: Policy, w: WeightTriple) -> int | None:
    """Pick the server for a task, or None when nobody can admit it.

    Pure decision: the caller applies the placement. Ties always break
    toward the lowest server id. ThresholdMigration places like
    LeastComposite; its corrective behavior lives in :func:`rebalance`.
    """
    n = state.n
    kind = policy.kind
    if kind is PolicyKind.ROUND_ROBIN:
        for off in range(1, n + 1):
            i = (state._rr_cursor + off) % n
            if state.fits(i, task):
                state._rr_cursor = i
                return i
        return None

    # min keeps the first minimum, so ties go to the lowest id
    admissible = [i for i in range(n) if state.fits(i, task)]
    if kind in (PolicyKind.LEAST_COMPOSITE, PolicyKind.THRESHOLD_MIGRATION):
        return min(admissible, key=lambda i: composite_load(*state.utilization(i), w), default=None)

    if kind is PolicyKind.LEAST_SIL:
        if not admissible:
            return None
        avgs = _system_averages_now(state)

        def post_place_sil(i):
            cu, ru, nu = state.utilization(i)
            cu += task.cpu_demand / state.cpu_cap[i]
            ru += task.ram_demand / state.ram_cap[i]
            nu += task.net_demand / state.net_cap[i]
            return sil_value(cu, ru, nu, *avgs, w)

        return min(admissible, key=post_place_sil)

    raise ConfigError(f"unknown policy kind {kind!r}")


def _post_move_max_sil(state: ClusterState, utils, avgs, net_total: float,
                       src: int, dst: int, task: Task, w: WeightTriple) -> float:
    """Cluster max SIL if `task` moved src -> dst, without mutating state.

    Scores from the pass's snapshot (`utils`, `avgs`, `net_total`). The
    source keeps the task's net_demand as a migration surcharge this tick,
    so its net utilization is unchanged while cpu/ram drop; the cluster
    net average rises by net_demand / net_total.
    """
    dc, dr, dn = task.cpu_demand, task.ram_demand, task.net_demand
    avg_c, avg_r, avg_n = avgs
    avg_n += dn / net_total
    worst = 0.0
    for i, (cu, ru, nu) in enumerate(utils):
        if i == src:
            cu -= dc / state.cpu_cap[i]
            ru -= dr / state.ram_cap[i]
        elif i == dst:
            cu += dc / state.cpu_cap[i]
            ru += dr / state.ram_cap[i]
            nu += dn / state.net_cap[i]
        sil = sil_value(cu, ru, nu, avg_c, avg_r, avg_n, w)
        if sil > worst:
            worst = sil
    return worst


def rebalance(state: ClusterState, policy: Policy, w: WeightTriple) -> list[tuple[int, int, int]]:
    """Migrate tasks off the max-SIL server while that strictly helps.

    Each pass: find the server with the highest SIL; if it exceeds the
    threshold, try its tasks in ascending composite-demand order and move
    the first one that has an admissible destination strictly lowering the
    cluster's maximum SIL (destination chosen to minimize that post-move
    maximum). Moves are scored from one snapshot per pass, exact because
    state changes only when a move commits and ends the pass. A moved task
    keeps its remaining duration; its net_demand is charged to the source
    server for this tick. Returns the committed moves as (task_id, source,
    destination).
    """
    if policy.kind is not PolicyKind.THRESHOLD_MIGRATION:
        return []
    n = state.n
    if n < 2:
        return []
    net_total = sum(state.net_cap)
    moves: list[tuple[int, int, int]] = []

    for _ in range(_MAX_MOVES_PER_TICK):
        utils = [state.utilization(i) for i in range(n)]
        avgs = _system_averages_now(state)
        sils = [sil_value(*u, *avgs, w) for u in utils]
        max_sil = max(sils)
        if max_sil <= policy.migration_threshold:
            break
        src = sils.index(max_sil)

        candidates = sorted(
            state.running[src].values(),
            key=lambda t: (composite_load(t.cpu_demand, t.ram_demand, t.net_demand, w), t.id),
        )
        for task in candidates:
            post_max = {
                j: _post_move_max_sil(state, utils, avgs, net_total, src, j, task, w)
                for j in range(n)
                if j != src and state.fits(j, task)
            }
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
    with duration d occupies its server for ticks t .. t+d-1 exactly.
    """
    state.complete_expired()

    if state.queue:
        # one FIFO pass; placements only shrink free capacity, so a task over
        # the per-resource headroom cannot fit anywhere until the next tick
        fc, fr, fn = state.max_headroom()
        waiting: deque[Task] = deque()
        for task in state.queue:
            if task.cpu_demand <= fc and task.ram_demand <= fr and task.net_demand <= fn:
                target = dispatch(task, state, policy, w)
                if target is not None:
                    state.place(target, task, state.tick + task.duration)
                    fc, fr, fn = state.max_headroom()
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
    state.net_surcharge = [0.0] * state.n
    state.tick += 1
    return state


def _stream_seed(seed: int, stream: int) -> int:
    """Stable 64-bit sub-seed for a named stream under the config seed."""
    return int(SeedSequence([int(seed), stream]).generate_state(2, np.uint32)[0])


def resolve_traffic(config: ScenarioConfig) -> tuple[GeneratorMeta, TrafficSeries]:
    """Calibrate if needed, then realize the run's traffic series.

    An explicit GeneratorMeta is a complete record of one series, so it
    reproduces that exact series regardless of the config seed; only the
    arrival and demand draws vary between runs. A CalibrationTarget names
    properties rather than a series, so its realization is drawn from the
    config seed's traffic substream, at the calibration probe depth or
    deeper when the horizon needs more ticks.
    """
    if isinstance(config.traffic, CalibrationTarget):
        meta = traffic.calibrate(
            config.traffic.hurst, config.traffic.delta_h, config.traffic.budget
        )
        if meta.depth is not None:  # probe depth, or deeper for a longer horizon
            meta = replace(meta, depth=max(meta.depth, math.ceil(math.log2(config.horizon))))
        series = traffic.generate_from_meta(
            meta, config.horizon, seed=_stream_seed(config.seed, _STREAM_TRAFFIC)
        )
    elif isinstance(config.traffic, GeneratorMeta):
        series = traffic.generate_from_meta(config.traffic, config.horizon)
    else:
        raise ConfigError("traffic must be a GeneratorMeta or a CalibrationTarget")
    return (series.meta if series.meta is not None else config.traffic), series


def run_scenario(config: ScenarioConfig, series: TrafficSeries | None = None) -> list[ImbalanceReport]:
    """Simulate the full horizon; one ImbalanceReport per complete window.

    `series`, when given, is the config's traffic already realized by
    :func:`resolve_traffic`.
    """
    if series is None:
        _, series = resolve_traffic(config)
    count_rng = default_rng(SeedSequence([int(config.seed), _STREAM_ARRIVALS]))
    demand_rng = default_rng(SeedSequence([int(config.seed), _STREAM_DEMANDS]))

    state = ClusterState(config.cluster)
    reports: list[ImbalanceReport] = []
    for t in range(config.horizon):
        arrivals = arrivals_from_traffic(
            series,
            t,
            config.arrival_scale,
            config.demand_params,
            count_rng,
            demand_rng,
            id_start=state.arrived,
        )
        step(state, arrivals, config.policy, config.weights)
        if (t + 1) % config.window == 0:
            utils = state.drain_window()
            reports.append(metrics.full_report(utils, config.cluster, config.weights))

    in_flight = state.running_count() + state.queue_len()
    if state.arrived != state.completed + in_flight:
        raise RuntimeError(
            f"task conservation violated: arrived {state.arrived} != "
            f"completed {state.completed} + in flight {in_flight}"
        )
    return reports
