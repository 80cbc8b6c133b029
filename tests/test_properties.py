"""Property tests of the tick engine over random small clusters.

Hypothesis draws 1-4 servers, a demand profile, a weight triple, a policy
and a short arrival series. Every run must stay within capacity on every
tick, conserve tasks after every step, place queued tasks in arrival
order unless the earlier task fits nowhere, and repeat itself under the
same seed; under threshold migration, each committed move's predicted
post-move max SIL must equal the max SIL measured once it is applied,
and a pass whose max-SIL source sits at or below the cluster average in
every resource must end after scoring each server once.
`run_scenario`, which skips quiet ticks, must report exactly what calling
`arrivals_from_traffic` and `step` on every tick reports. `score_windows`
must report for each of up to 64 windows exactly what `full_report` gives
for that window alone. Demand, class and server values drawn from tiny,
huge and near-overflow floats and from huge ints are either rejected with
ConfigError when built or run to the horizon. Test-local oracles keep
earlier, simpler forms: a step that retries the whole queue on every
tick, a move scorer that scores one (candidate, destination) pair at a
time, a migration pass that scores every candidate, a window scorer on
plain floats, and the engine's earlier dispatch, cluster averages and
utilization refresh, written with the builtins the engine now spells out.
"""

import math
from collections import deque
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.random import SeedSequence, default_rng

from mfload import simulation as sim
from mfload.errors import ConfigError
from mfload.metrics import (
    ImbalanceReport,
    ResourceUtilization,
    ServerSpec,
    WeightTriple,
    composite_load,
    full_report,
    score_windows,
    sil_value,
)
from mfload.traffic import GeneratorKind, GeneratorMeta, TrafficSeries, generate_fgn

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, database=None)

servers = st.lists(
    st.tuples(st.integers(1, 8), st.floats(1.0, 64.0), st.floats(1.0, 32.0)),
    min_size=1,
    max_size=4,
).map(lambda caps: tuple(ServerSpec(i, c, r, n) for i, (c, r, n) in enumerate(caps)))

demands = st.builds(
    sim.DemandParams,
    cpu_mean=st.floats(0.05, 1.0),
    cpu_sigma=st.floats(0.0, 1.0),
    ram_mean=st.floats(0.1, 8.0),
    ram_sigma=st.floats(0.0, 1.0),
    net_mean=st.floats(0.1, 4.0),
    net_sigma=st.floats(0.0, 1.0),
    duration_mean=st.floats(1.0, 20.0),
)


@st.composite
def weights(draw):
    raw = [draw(st.floats(0.05, 1.0)) for _ in range(3)]
    total = sum(raw)
    return WeightTriple(*(v / total for v in raw))


policies = st.builds(
    sim.Policy,
    kind=st.sampled_from(list(sim.PolicyKind)),
    migration_threshold=st.floats(0.0, 0.05),
)

scenarios = st.fixed_dictionaries(
    {
        "specs": servers,
        "demand": demands,
        "w": weights(),
        "policy": policies,
        "horizon": st.integers(8, 48),
        "arrival_scale": st.floats(0.1, 4.0),
        "seed": st.integers(0, 2**32 - 1),
    }
)


class _Recorded(sim.ClusterState):
    """ClusterState that notes each tick's peak utilization as it is snapshotted."""

    def __init__(self, specs):
        super().__init__(specs)
        self.peaks = []

    def snapshot(self):
        self.peaks.append(max(max(self.utilization(i)) for i in range(self.n)))
        super().snapshot()


def _run(sc, state, after_step=None):
    """Drive `state` through the scenario; returns per-tick utilizations and window means."""
    rng = default_rng(sc["seed"])
    intensity = rng.random(sc["horizon"]) * 2.0
    count_rng, demand_rng = default_rng([sc["seed"], 1]), default_rng([sc["seed"], 2])
    trace = []
    for t in range(sc["horizon"]):
        arrivals = sim.arrivals_from_traffic(
            intensity, t, sc["arrival_scale"], sc["demand"], count_rng, demand_rng,
            id_start=state.arrived,
        )
        sim.step(state, arrivals, sc["policy"], sc["w"])
        if after_step is not None:
            after_step(state)
        trace.append([state.utilization(i) for i in range(state.n)])
    return trace, state.drain_window()


def _max_sil(state, w):
    """Max SIL recomputed from public accessors, capacity-weighted averages."""
    utils = [state.utilization(i) for i in range(state.n)]
    caps = [(s.cpu_count, s.ram_capacity, s.net_capacity) for s in state.specs]
    tot = [sum(c[k] for c in caps) for k in range(3)]
    avg = [sum(u[k] * caps[i][k] for i, u in enumerate(utils)) / tot[k] for k in range(3)]
    return max(
        w.a * (u[0] - avg[0]) ** 2 + w.b * (u[1] - avg[1]) ** 2 + w.c * (u[2] - avg[2]) ** 2
        for u in utils
    )


def _check_bookkeeping(state):
    """Tasks are conserved, and each cached utilization triple equals its sums."""
    in_flight = state.running_count() + state.queue_len()
    assert state.arrived == state.completed + in_flight
    assert sum(len(tasks) for tasks in state.running) == state.running_count()
    for i in range(state.n):
        assert state.utilization(i) == _oracle_refresh(state, i)


@PROPERTY_SETTINGS
@given(scenarios)
def test_capacity_and_conservation_hold_every_tick(sc):
    state = _Recorded(sc["specs"])
    _run(sc, state, after_step=_check_bookkeeping)
    assert len(state.peaks) == sc["horizon"]
    assert max(state.peaks) <= 1.0 + 1e-9


class _FifoChecked(sim.ClusterState):
    """ClusterState that asserts no earlier waiting task fits when a task is placed."""

    def __init__(self, specs):
        super().__init__(specs)
        self.placed = set()

    def place(self, i, task, completes_at):
        # ids count arrivals, so a smaller id arrived earlier (or earlier in its batch)
        passed_over = [q for q in self.queue if q.id < task.id and q.id not in self.placed]
        for q in passed_over:
            assert not self.admissible(q), (q.id, task.id)
        self.placed.add(task.id)
        super().place(i, task, completes_at)


@PROPERTY_SETTINGS
@given(scenarios)
def test_queued_tasks_are_placed_in_arrival_order_unless_they_fit_nowhere(sc):
    state = _FifoChecked(sc["specs"])
    _run(sc, state)
    assert len(state.placed) == state.arrived - state.queue_len()


@PROPERTY_SETTINGS
@given(scenarios)
def test_same_seed_gives_the_same_run(sc):
    first = _run(sc, sim.ClusterState(sc["specs"]))
    second = _run(sc, sim.ClusterState(sc["specs"]))
    assert first == second


def _full_retry_step(state, arrivals, policy, w):
    """`sim.step` with the queue retried on every tick against every server.

    The headroom filter runs over all servers, and every task that passes it
    is dispatched. The retry left to `sim.step` afterwards places nothing:
    every task still queued fit no server when this retry checked it, and
    servers have only gained load since.
    """
    state.complete_expired()
    if state.queue:
        everyone = range(state.n)
        fc, fr, fn = state.max_headroom(everyone)
        waiting = []
        for task in state.queue:
            if task.cpu_demand <= fc and task.ram_demand <= fr and task.net_demand <= fn:
                target = sim.dispatch(task, state, policy, w)
                if target is not None:
                    state.place(target, task, state.tick + task.duration)
                    fc, fr, fn = state.max_headroom(everyone)
                    continue
            waiting.append(task)
        state.queue = deque(waiting)
    sim.step(state, arrivals, policy, w)


@PROPERTY_SETTINGS
@given(scenarios, st.integers(1, 16))
def test_freed_server_retry_equals_the_full_queue_retry(sc, window):
    """Reports, queue order and running sets match the full retry after every tick."""
    rng = default_rng(sc["seed"])
    intensity = rng.random(sc["horizon"]) * 2.0
    count_rng, demand_rng = default_rng([sc["seed"], 1]), default_rng([sc["seed"], 2])
    state, reference = sim.ClusterState(sc["specs"]), sim.ClusterState(sc["specs"])
    policy, w = sc["policy"], sc["w"]
    for t in range(sc["horizon"]):
        arrivals = sim.arrivals_from_traffic(
            intensity, t, sc["arrival_scale"], sc["demand"], count_rng, demand_rng,
            id_start=state.arrived,
        )
        sim.step(state, arrivals, policy, w)
        _full_retry_step(reference, arrivals, policy, w)
        assert [q.id for q in state.queue] == [q.id for q in reference.queue]
        assert state.running == reference.running
        if (t + 1) % window == 0:
            assert (full_report(state.drain_window(), sc["specs"], w)
                    == full_report(reference.drain_window(), sc["specs"], w))


def _post_move_max_sil(state, utils, avgs, net_total, src, dst, task, w):
    """Cluster max SIL if `task` moved src -> dst, scoring every server for this one move."""
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


task_demands = st.tuples(st.floats(0.01, 4.0), st.floats(0.01, 16.0), st.floats(0.01, 8.0))


@PROPERTY_SETTINGS
@given(servers.filter(lambda specs: len(specs) >= 2), weights(),
       st.lists(st.tuples(st.integers(0, 3), task_demands), max_size=24),
       st.lists(st.integers(0, 23), max_size=4), task_demands)
def test_move_scores_equal_the_per_move_oracle(specs, w, placements, moved, probe):
    """Every admissible destination of every candidate scores == the per-move oracle."""
    state = sim.ClusterState(specs)
    for tid, (i, (c, r, n)) in enumerate(placements):
        task = sim.Task(tid, 0, c, r, n, 1)
        if i % state.n in state.admissible(task):
            state.place(i % state.n, task, completes_at=100)
    # migrations leave net surcharges on their sources
    for tid in moved:
        src = state._task_server.get(tid)
        if src is not None:
            dst = (src + 1) % state.n
            if dst in state.admissible(state.running[src][tid]):
                state.migrate(tid, dst)
    utils = [state.utilization(i) for i in range(state.n)]
    avgs = sim._system_averages_now(state)
    net_total = sum(state.net_cap)
    probe_task = sim.Task(len(placements), 0, *probe, 1)
    for src in range(state.n):
        for task in [*state.running[src].values(), probe_task]:
            expected = {
                j: _post_move_max_sil(state, utils, avgs, net_total, src, j, task, w)
                for j in range(state.n)
                if j != src and j in state.admissible(task)
            }
            assert sim._post_move_max_sils(state, utils, avgs, net_total, src, task, w) == expected


def _oracle_refresh(state, i):
    """Server i's triple with the clamps written as ``max(x, 0.0)``, the engine's earlier form."""
    return (
        max(state.cpu_sum[i], 0.0) / state.cpu_cap[i],
        max(state.ram_sum[i], 0.0) / state.ram_cap[i],
        max(state.net_sum[i] + state.net_surcharge[i], 0.0) / state.net_cap[i],
    )


def _oracle_averages(state):
    """``_system_averages_now`` in its earlier form, adding the surcharges on every tick."""
    net = sum(v + s for v, s in zip(state.net_sum, state.net_surcharge))
    return (sum(state.cpu_sum) / state.cpu_total, sum(state.ram_sum) / state.ram_total,
            net / state.net_total)


def _oracle_dispatch(task, state, policy, w):
    """``dispatch`` in its earlier form: an appending admission loop, ``min(key=lambda)`` for
    the composite load, and the SIL loop scoring with :func:`_oracle_averages`."""
    admissible = []
    for i in range(state.n):
        if (state.cpu_sum[i] + task.cpu_demand <= state.cpu_cap[i]
                and state.ram_sum[i] + task.ram_demand <= state.ram_cap[i]
                and state.net_sum[i] + state.net_surcharge[i] + task.net_demand <= state.net_cap[i]):
            admissible.append(i)
    if not admissible:
        return None
    if policy.kind is sim.PolicyKind.ROUND_ROBIN:
        i = next((i for i in admissible if i > state._rr_cursor), admissible[0])
        state._rr_cursor = i
        return i
    if policy.kind in (sim.PolicyKind.LEAST_COMPOSITE, sim.PolicyKind.THRESHOLD_MIGRATION):
        return min(admissible, key=lambda i: composite_load(*state.utilization(i), w))
    avg_c, avg_r, avg_n = _oracle_averages(state)
    dc, dr, dn = task.cpu_demand, task.ram_demand, task.net_demand
    best, best_sil = None, math.inf
    for i in admissible:
        cu, ru, nu = state.utilization(i)
        sil = sil_value(cu + dc / state.cpu_cap[i], ru + dr / state.ram_cap[i], nu + dn / state.net_cap[i],
                        avg_c, avg_r, avg_n, w)
        if sil < best_sil:
            best, best_sil = i, sil
    return best


# -1 ulp residues, and -0.0, which no float subtraction from a positive sum leaves
_RESIDUES = st.sampled_from([-0.0, 0.0, -5e-324, -math.ulp(0.25), -math.ulp(1.0), -math.ulp(4.0)])


@PROPERTY_SETTINGS
@given(servers, weights(), st.lists(st.tuples(st.integers(0, 3), task_demands, st.booleans()), max_size=24),
       st.lists(st.integers(0, 23), max_size=4),
       st.lists(st.tuples(st.integers(0, 3), st.integers(0, 2), _RESIDUES), max_size=4),
       st.lists(task_demands, min_size=1, max_size=4), st.integers(-1, 3))
def test_hot_path_forms_equal_their_builtin_forms(specs, w, placements, moved, residues, probes, cursor):
    """Same server under all four policies, and bit-equal averages and triples.

    Tasks are placed, some completed at once (leaving the sums' removal
    residues) and some moved (a tick in the middle of a migration, with
    non-zero surcharges); then chosen sums are set to a residue.
    """
    state = sim.ClusterState(specs)
    for tid, (i, (c, r, n), completes) in enumerate(placements):
        task = sim.Task(tid, 0, c, r, n, 1)
        if i % state.n in state.admissible(task):
            state.place(i % state.n, task, completes_at=0 if completes else 100)
    state.complete_expired()
    for tid in moved:
        src = state._task_server.get(tid)
        if src is not None and (src + 1) % state.n in state.admissible(state.running[src][tid]):
            state.migrate(tid, (src + 1) % state.n)
    for i, resource, residue in residues:
        (state.cpu_sum, state.ram_sum, state.net_sum)[resource][i % state.n] = residue
        state._refresh(i % state.n)
    assert (state.last_move_tick == state.tick) == any(state.net_surcharge)
    for i in range(state.n):
        assert list(map(float.hex, state.utilization(i))) == list(map(float.hex, _oracle_refresh(state, i)))
    assert (list(map(float.hex, sim._system_averages_now(state)))
            == list(map(float.hex, _oracle_averages(state))))
    for c, r, n in probes:
        task = sim.Task(len(placements), 0, c, r, n, 1)
        for kind in sim.PolicyKind:
            policy = sim.Policy(kind)
            state._rr_cursor = cursor
            expected = _oracle_dispatch(task, state, policy, w)
            expected_cursor, state._rr_cursor = state._rr_cursor, cursor
            assert sim.dispatch(task, state, policy, w) == expected
            assert state._rr_cursor == expected_cursor


def _migration_gaps(sc):
    """|predicted - measured| post-move max SIL for every committed move of the run."""
    w = sc["w"]
    predicted = {}
    gaps = []
    score = sim._post_move_max_sils

    def recording_score(state, utils, avgs, net_total, src, task, w):
        scores = score(state, utils, avgs, net_total, src, task, w)
        for dst, value in scores.items():
            predicted[task.id, dst] = value
        return scores

    class Checked(sim.ClusterState):
        def migrate(self, task_id, dst):
            super().migrate(task_id, dst)
            gaps.append(abs(predicted[task_id, dst] - _max_sil(self, w)))

    with mock.patch.object(sim, "_post_move_max_sils", recording_score):
        _run(sc, Checked(sc["specs"]))
    return gaps


@PROPERTY_SETTINGS
@given(scenarios, st.floats(0.0, 0.02))
def test_committed_move_lands_on_its_predicted_max_sil(sc, threshold):
    sc = dict(sc, policy=sim.Policy(sim.PolicyKind.THRESHOLD_MIGRATION, threshold))
    gaps = _migration_gaps(sc)
    assert all(gap <= 1e-12 for gap in gaps), max(gaps)


def test_migration_property_is_not_vacuous():
    """A busy mixed-size scenario commits moves, and each lands as predicted."""
    sc = {
        "specs": tuple(ServerSpec(i, c, 8.0 * c, 4.0 * c) for i, c in enumerate((4, 2, 1))),
        "demand": sim.DemandParams(duration_mean=10.0),
        "w": WeightTriple(0.5, 0.3, 0.2),
        "policy": sim.Policy(sim.PolicyKind.THRESHOLD_MIGRATION, 0.0),
        "horizon": 48,
        "arrival_scale": 2.0,
        "seed": 5,
    }
    gaps = _migration_gaps(sc)
    assert gaps
    assert max(gaps) <= 1e-12


def _scoring_every_candidate(state, policy, w):
    """`sim.rebalance` without its source-side bound: every candidate is scored."""
    moves = []
    for _ in range(sim._MAX_MOVES_PER_TICK):
        utils = state._util
        avgs = sim._system_averages_now(state)
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
            post_max = sim._post_move_max_sils(state, utils, avgs, state.net_total, src, task, w)
            if post_max:
                dst = min(post_max, key=post_max.get)
                if post_max[dst] < max_sil:
                    state.migrate(task.id, dst)
                    moves.append((task.id, src, dst))
                    break
        else:
            break
    return moves


@PROPERTY_SETTINGS
@given(servers.filter(lambda specs: len(specs) >= 2), weights(),
       st.lists(st.tuples(st.integers(0, 3), task_demands, st.booleans()), max_size=24),
       st.one_of(st.just(0.0), st.floats(0.0, 0.05)))
@example((ServerSpec(0, 2, 16.0, 16.0), ServerSpec(1, 2, 8.0, 4.0), ServerSpec(2, 2, 8.0, 8.0)),
         WeightTriple(0.125, 0.125, 0.75),
         [(2, (0.5, 4.0, 1.0), True), (0, (0.5, 2.0, 2.0), True), (1, (0.001, 0.004, 0.004), False)], 0.0)
def test_bounded_migration_pass_equals_scoring_every_candidate(specs, w, placements, threshold):
    """Same moves, running sets and surcharges as the pass that scores every candidate.

    Tasks are placed one at a time, some moved on at once to leave a net
    surcharge on their source, and both passes run after each placement.
    In the example, the tiny task's move commits while leaving the source's
    SIL within 0.01% of the max SIL, so a bound that skips more fails.
    """
    policy = sim.Policy(sim.PolicyKind.THRESHOLD_MIGRATION, threshold)
    state, reference = sim.ClusterState(specs), sim.ClusterState(specs)
    for tid, (i, (c, r, n), move_on) in enumerate(placements):
        task = sim.Task(tid, 0, c, r, n, 1)
        src, dst = i % state.n, (i + 1) % state.n
        if src in state.admissible(task):
            for s in (state, reference):
                s.place(src, task, completes_at=100)
                if move_on and dst in s.admissible(task):
                    s.migrate(tid, dst)
        assert sim.rebalance(state, policy, w) == _scoring_every_candidate(reference, policy, w)
        assert state.running == reference.running
        assert state.net_surcharge == reference.net_surcharge


@PROPERTY_SETTINGS
@given(st.tuples(st.integers(1, 4), st.floats(1.0, 16.0), st.floats(1.0, 8.0)),
       st.lists(st.tuples(st.integers(1, 4), st.floats(1.0, 4.0), st.floats(1.0, 4.0),
                          st.floats(0.6, 0.7), st.floats(0.6, 0.7), st.floats(0.6, 0.7)),
                min_size=2, max_size=3),
       st.lists(st.tuples(*[st.floats(0.001, 0.015)] * 3), min_size=2, max_size=3),
       weights(), st.booleans(), st.floats(0.0, 0.05))
def test_pass_stopped_at_a_source_below_average_equals_scoring_every_candidate(
        small, others, small_loads, w, move_first, threshold):
    """Server 0 holds at most 4.5% of each capacity; 2-3 servers at least as large hold 60-70%.

    Server 0's deviation from each average is then at least 0.355 and every
    other server's at most 0.315, so server 0 is the max-SIL source while at
    or below average in cpu, ram and net, also after its first task moves
    on and leaves a net surcharge. The pass must end after scoring each
    server once, with the moves, running sets and surcharges of the pass
    that scores every candidate.
    """
    cores, ram, net = small
    specs = (ServerSpec(0, cores, ram, net),) + tuple(
        ServerSpec(i, cores * k, ram * r, net * n) for i, (k, r, n, *_) in enumerate(others, 1))
    loads = [(0, c * cores, r * ram, n * net) for c, r, n in small_loads]
    loads += [(s.id, lc * s.cpu_count, lr * s.ram_capacity, ln * s.net_capacity)
              for s, (*_, lc, lr, ln) in zip(specs[1:], others)]
    policy = sim.Policy(sim.PolicyKind.THRESHOLD_MIGRATION, threshold)
    state, reference = sim.ClusterState(specs), sim.ClusterState(specs)
    for s in (state, reference):
        for tid, (i, c, r, n) in enumerate(loads):
            s.place(i, sim.Task(tid, 0, c, r, n, 1), completes_at=100)
        if move_first:
            s.migrate(0, 1)
    avgs = sim._system_averages_now(state)
    sils = [sil_value(*u, *avgs, w) for u in state._util]
    assert sils.index(max(sils)) == 0 and max(sils) > threshold
    assert all(u <= a for u, a in zip(state.utilization(0), avgs))
    with mock.patch.object(sim, "sil_value", wraps=sil_value) as scored:
        moves = sim.rebalance(state, policy, w)
    assert scored.call_count == state.n
    assert moves == _scoring_every_candidate(reference, policy, w) == []
    assert state.running == reference.running
    assert state.net_surcharge == reference.net_surcharge


def _reference_reports(config, series, on_tick=None):
    """Reports of a per-tick loop: arrivals_from_traffic and step on every tick.

    `on_tick(t, arrivals, state)` is called before each step.
    """
    count_rng = default_rng(SeedSequence([config.seed, sim._STREAM_ARRIVALS]))
    demand_rng = default_rng(SeedSequence([config.seed, sim._STREAM_DEMANDS]))
    state = sim.ClusterState(config.cluster)
    reports = []
    for t in range(config.horizon):
        arrivals = sim.arrivals_from_traffic(
            series, t, config.arrival_scale, config.demand_params, count_rng, demand_rng,
            id_start=state.arrived,
        )
        if on_tick is not None:
            on_tick(t, arrivals, state)
        sim.step(state, arrivals, config.policy, config.weights)
        if (t + 1) % config.window == 0:
            reports.append(full_report(state.drain_window(), config.cluster, config.weights))
    return reports


# run_scenario is handed the series, so this record is never realized
_UNUSED_TRAFFIC = GeneratorMeta(kind=GeneratorKind.FGN, seed=0, target_hurst=0.7)


@PROPERTY_SETTINGS
@given(scenarios, st.integers(0, 64), st.integers(4, 16), st.floats(0.0, 0.9))
def test_run_scenario_equals_the_per_tick_reference(sc, extra_ticks, window, quiet_share):
    horizon = 256 + extra_ticks
    rng = default_rng(sc["seed"])
    values = np.where(rng.random(horizon) < quiet_share, 0.0, rng.random(horizon) * 2.0)
    series = TrafficSeries(values=values, meta=None)
    config = sim.ScenarioConfig(
        traffic=_UNUSED_TRAFFIC, cluster=sc["specs"], weights=sc["w"], policy=sc["policy"],
        horizon=horizon, window=window, arrival_scale=sc["arrival_scale"],
        demand_params=sc["demand"], seed=sc["seed"],
    )
    assert sim.run_scenario(config, series) == _reference_reports(config, series)


def test_a_move_lets_a_queued_task_in_on_the_next_tick_without_other_events():
    """Tick 48 has no arrival and no completion, only the move of tick 47.

    That move frees room for a queued task, so tick 48 is not quiet: an
    engine that skipped it would place the task a tick late.
    """
    values = np.where(np.arange(256) % 7 == 0, 1.0, 0.0)
    series = TrafficSeries(values=values, meta=None)
    config = sim.ScenarioConfig(
        traffic=_UNUSED_TRAFFIC,
        cluster=tuple(ServerSpec(i, 1, 8.0, 4.0) for i in range(3)),
        weights=WeightTriple(0.5, 0.3, 0.2),
        policy=sim.Policy(sim.PolicyKind.THRESHOLD_MIGRATION, 0.0),
        horizon=256,
        window=16,
        arrival_scale=2.0,
        demand_params=sim.DemandParams(duration_mean=10.0),
        seed=990,
    )
    events = {}

    def note(t, arrivals, state):
        events[t] = (len(arrivals), t in state._completion_buckets, state.last_move_tick == t - 1,
                     state.queue_len())

    reference = _reference_reports(config, series, on_tick=note)
    arrivals, completes, moved_before, queued = events[48]
    assert (arrivals, completes, moved_before) == (0, False, True)
    assert events[49][3] < queued  # the queue shrank on tick 48
    assert sim.run_scenario(config, series) == reference


def _sequential_sum(values):
    total = 0.0
    for v in values:
        total += v
    return total


def _scalar_report(rows, specs, w):
    """Test-local oracle: one window scored on plain floats, one server at a time.

    The earlier form of `full_report`. Every sum runs in server order from
    zero, the float order that `score_windows` keeps across windows.
    """
    cols = list(zip(*rows))
    caps = [[s.cpu_count for s in specs], [s.ram_capacity for s in specs],
            [s.net_capacity for s in specs]]
    avgs = [_sequential_sum(u * c for u, c in zip(col, cap)) / _sequential_sum(cap)
            for col, cap in zip(cols, caps)]
    isl = [_sequential_sum((v - a) * (v - a) for v in col) for col, a in zip(cols, avgs)]
    sils = tuple(sil_value(*u, *avgs, w) for u in rows)
    return ImbalanceReport(
        isl_cpu=isl[0], isl_ram=isl[1], isl_net=isl[2], ibl_tot=isl[0] + isl[1] + isl[2],
        sil=sils, isl_tot=_sequential_sum(sils) / len(rows),
        efficiency=_sequential_sum(composite_load(*u, w) for u in rows) / len(rows),
    )


unit_values = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@PROPERTY_SETTINGS
@given(st.lists(st.tuples(st.integers(1, 16), st.floats(1.0, 64.0), st.floats(1.0, 32.0)),
                min_size=1, max_size=12),
       weights(), st.integers(1, 64), st.data())
def test_score_windows_equals_full_report_per_window(caps, w, n_windows, data):
    specs = tuple(ServerSpec(i, c, r, n) for i, (c, r, n) in enumerate(caps))
    means = data.draw(hnp.arrays(np.float64, (n_windows, len(specs), 3), elements=unit_values))
    reports = score_windows(means, specs, w)
    assert len(reports) == n_windows
    for k, report in enumerate(reports):
        rows = means[k].tolist()
        utils = [ResourceUtilization(*u, window=1) for u in rows]
        assert report == full_report(utils, specs, w) == _scalar_report(rows, specs, w)


# tiny, ordinary, square-overflowing and near-overflow floats, plus fixed edge values
boundary_floats = st.one_of(
    st.floats(5e-324, 1e-300),
    st.floats(1e-6, 1e3),
    st.floats(1e150, 1e160),
    st.floats(1e300, 1.7976931348623157e308),
    st.sampled_from([0.0, -1.0, 1.0, 1e17, 2.0**54, 1e308, 1.7976931348623157e308]),
)
boundary_ints = st.one_of(st.integers(-1, 64), st.integers(2**1000, 2**1100), st.just(10**400))
DEMAND_FIELDS = ("cpu_mean", "cpu_sigma", "ram_mean", "ram_sigma", "net_mean", "net_sigma",
                 "duration_mean", "cpu_max", "ram_max", "net_max")
BOUNDARY_SERIES = generate_fgn(0.7, 256, seed=0)


@settings(max_examples=60, deadline=None, database=None)
@given(st.dictionaries(st.sampled_from(DEMAND_FIELDS), boundary_floats, max_size=4),
       st.lists(st.tuples(boundary_floats, boundary_floats), min_size=1, max_size=2),
       st.lists(st.tuples(boundary_ints, boundary_floats, boundary_floats), min_size=1, max_size=3))
@example({"cpu_mean": 1e308, "cpu_sigma": 3.0}, [(1.0, 1.0)], [(4, 32.0, 16.0)])
@example({"duration_mean": 1e17}, [(1.0, 1.0)], [(4, 32.0, 16.0)])
@example({}, [(1.0, 1e17)], [(4, 32.0, 16.0)])
@example({"cpu_sigma": 1e155}, [(1.0, 1.0)], [(4, 32.0, 16.0)])
@example({}, [(1.0, 1.0)], [(10**400, 32.0, 16.0)])
def test_boundary_values_are_rejected_when_built_or_run_to_the_horizon(demand, classes, servers):
    try:
        config = sim.ScenarioConfig(
            traffic=GeneratorMeta(kind="fgn", seed=0, target_hurst=0.7),
            cluster=tuple(ServerSpec(i, *spec) for i, spec in enumerate(servers)),
            demand_params=sim.DemandParams(
                **demand, classes=tuple(sim.ServiceClass(1.0 / len(classes), *c) for c in classes)),
            horizon=256,
            arrival_scale=1.0,
        )
    except ConfigError:
        return
    assert len(sim.run_scenario(config, BOUNDARY_SERIES)) == 256 // config.window
