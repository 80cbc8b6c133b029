"""Engine semantics: arrivals, dispatch, migration, and full runs.

Dispatch and migration decisions are checked against brute-force
recomputations that use only the public state accessors, so a regression
in the engine's incremental bookkeeping cannot hide inside the oracle.
"""

import dataclasses
import gc
import math
import weakref
from itertools import accumulate
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import SeedSequence, default_rng

from mfload import simulation
from mfload.errors import ConfigError
from mfload.metrics import ServerSpec, WeightTriple, full_report
from mfload.simulation import (
    CalibrationTarget,
    ClusterState,
    DemandParams,
    Policy,
    PolicyKind,
    ScenarioConfig,
    ServiceClass,
    Task,
    arrivals_from_traffic,
    dispatch,
    homogeneous_cluster,
    rebalance,
    reference_cluster,
    resolve_traffic,
    run_scenario,
    step,
)
from mfload.traffic import GeneratorKind, GeneratorMeta, TrafficSeries, generate_fgn


def _task(tid, cpu=1.0, ram=0.5, net=0.25, duration=4, tick=0):
    return Task(
        id=tid, arrival_tick=tick, cpu_demand=cpu, ram_demand=ram,
        net_demand=net, duration=duration,
    )


def _cluster_sils(state, weights):
    """Recompute every server's deviation score from public accessors only."""
    utils = [state.utilization(i) for i in range(state.n)]
    caps = [(s.cpu_count, s.ram_capacity, s.net_capacity) for s in state.specs]
    tot = [sum(c[k] for c in caps) for k in range(3)]
    avg = [sum(u[k] * caps[i][k] for i, u in enumerate(utils)) / tot[k] for k in range(3)]
    return [
        weights.a * (u[0] - avg[0]) ** 2
        + weights.b * (u[1] - avg[1]) ** 2
        + weights.c * (u[2] - avg[2]) ** 2
        for u in utils
    ]


# ----------------------------------------------------------------- arrivals


def test_arrival_counts_follow_intensity():
    params = DemandParams()
    count_rng = default_rng(0)
    demand_rng = default_rng(1)
    values = np.full(20000, 2.0)
    total = 0
    for t in range(len(values)):
        total += len(arrivals_from_traffic(values, t, 1.0, params, count_rng, demand_rng))
    expected = 2.0 * len(values)
    assert abs(total - expected) / expected < 0.05


def test_zero_intensity_means_no_arrivals():
    params = DemandParams()
    got = arrivals_from_traffic(np.zeros(16), 3, 0.5, params, default_rng(0), default_rng(1))
    assert got == []


def test_arrivals_deterministic():
    params = DemandParams()
    values = np.full(64, 8.0)

    def draw():
        c, d = default_rng(SeedSequence(5)), default_rng(SeedSequence(6))
        out = []
        for t in range(64):
            out.extend(arrivals_from_traffic(values, t, 1.0, params, c, d, id_start=len(out)))
        return out

    a, b = draw(), draw()
    assert len(a) == len(b) and len(a) > 100
    assert all(x == y for x, y in zip(a, b))
    assert [t.id for t in a] == list(range(len(a)))


def test_arrival_demands_respect_caps():
    params = DemandParams()
    c, d = default_rng(2), default_rng(3)
    tasks = []
    for t in range(200):
        tasks.extend(arrivals_from_traffic(np.full(200, 40.0), t, 1.0, params, c, d))
    assert len(tasks) > 5000
    for t in tasks[:2000]:
        assert 1e-6 <= t.cpu_demand <= params.cpu_max
        assert 1e-6 <= t.ram_demand <= params.ram_max
        assert 1e-6 <= t.net_demand <= params.net_max
        assert t.duration >= 1


def test_service_classes_split_and_scale():
    params = DemandParams(
        classes=(
            ServiceClass(probability=0.5, demand_scale=1.0, duration_scale=1.0),
            ServiceClass(probability=0.5, demand_scale=2.0, duration_scale=2.0),
        )
    )
    c, d = default_rng(4), default_rng(5)
    tasks = []
    for t in range(400):
        tasks.extend(arrivals_from_traffic(np.full(400, 25.0), t, 1.0, params, c, d))
    by_class = {0: [], 1: []}
    for t in tasks:
        by_class[t.service_class].append(t)
    frac = len(by_class[1]) / len(tasks)
    assert 0.4 <= frac <= 0.6
    dur0 = np.mean([t.duration for t in by_class[0]])
    dur1 = np.mean([t.duration for t in by_class[1]])
    assert dur1 > 1.5 * dur0


def test_arrivals_tick_bounds():
    with pytest.raises(ConfigError):
        arrivals_from_traffic(np.ones(8), 8, 1.0, DemandParams(), default_rng(0), default_rng(1))


def test_arrival_mean_above_cap_is_rejected_before_drawing():
    count_rng = default_rng(0)
    state = count_rng.bit_generator.state
    with pytest.raises(ConfigError, match="arrival_scale"):
        arrivals_from_traffic(np.ones(8), 0, 2e6, DemandParams(), count_rng, default_rng(1))
    assert count_rng.bit_generator.state == state


def _five_call_draw(k, tick, p, rng, id_start):
    """The demand stream layout, one generator call per field: k class uniforms,
    k cpu, ram and net lognormals, k duration uniforms."""
    cum = list(accumulate(c.probability for c in p.classes))
    class_u = rng.random(k).tolist()
    demands = [rng.lognormal(math.log(mean) - 0.5 * sigma**2, sigma, k).tolist()
               for mean, sigma in ((p.cpu_mean, p.cpu_sigma), (p.ram_mean, p.ram_sigma),
                                   (p.net_mean, p.net_sigma))]
    dur_u = rng.random(k).tolist()
    tasks = []
    for j in range(k):
        ci = 0
        while ci < len(cum) - 1 and class_u[j] > cum[ci]:
            ci += 1
        cls = p.classes[ci]
        q = 1.0 - 1.0 / max(p.duration_mean * cls.duration_scale, 1.0)
        duration = 1 if q <= 0.0 else max(1, math.ceil(math.log(max(1.0 - dur_u[j], 1e-300)) / math.log(q)))
        cpu, ram, net = (float(min(max(d[j] * cls.demand_scale, 1e-6), cap))
                         for d, cap in zip(demands, (p.cpu_max, p.ram_max, p.net_max)))
        tasks.append(Task(id=id_start + j, arrival_tick=tick, cpu_demand=cpu, ram_demand=ram,
                          net_demand=net, duration=duration, service_class=ci))
    return tasks


_TWO_CLASSES = (ServiceClass(probability=0.3, demand_scale=0.5, duration_scale=0.25),
                ServiceClass(probability=0.7, demand_scale=2.0, duration_scale=3.0))


@pytest.mark.parametrize("params", [
    DemandParams(),
    DemandParams(classes=_TWO_CLASSES),
    DemandParams(duration_mean=1.0),
    DemandParams(cpu_sigma=0.0, net_sigma=0.0, classes=_TWO_CLASSES),
    DemandParams(cpu_max=1e-7),
    DemandParams(classes=(ServiceClass(probability=1.0, demand_scale=8.0),)),
], ids=["one_class", "two_classes", "one_tick_durations", "zero_sigma", "cap_below_floor", "past_the_caps"])
@pytest.mark.parametrize("counts", [[1], [6], [1, 1, 1], [3, 1, 6, 2, 5, 4, 1],
                                    default_rng(9).integers(1, 7, 40).tolist()])
def test_drawer_matches_the_five_call_stream_layout(params, counts):
    ticks = np.cumsum(default_rng(len(counts)).integers(1, 5, len(counts))).tolist()
    seed = SeedSequence([7, len(counts)])
    oracle_rng, rng = default_rng(seed), default_rng(seed)
    expected, id_start = [], 3
    for tick, k in zip(ticks, counts):
        expected.append((tick, _five_call_draw(k, tick, params, oracle_rng, id_start)))
        id_start += k
    draws = simulation._draw_arrivals(ticks, counts, simulation._demand_plan(params), rng, 3)
    assert list(draws) == expected
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@settings(max_examples=30, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), mu=st.floats(-6.0, 6.0), sigma=st.floats(0.0, 3.0))
def test_lognormal_is_exp_of_mu_plus_sigma_times_a_standard_normal(seed, mu, sigma):
    # the drawer relies on it; a numpy build that contracts loc + scale * z to an FMA fails here
    twin = default_rng(seed).standard_normal(500).tolist()
    assert default_rng(seed).lognormal(mu, sigma, 500).tolist() == [math.exp(mu + sigma * z) for z in twin]


def test_drawn_tasks_are_equal_frozen_tasks():
    (_, tasks), = simulation._draw_arrivals([4], [5], simulation._demand_plan(DemandParams()), default_rng(1))
    for t in tasks:
        built = Task(**{f.name: getattr(t, f.name) for f in dataclasses.fields(Task)})
        assert t == built and hash(t) == hash(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            t.cpu_demand = 0.5
    # engine tasks pass the same rule
    with mock.patch.object(Task, "__post_init__", side_effect=ConfigError("checked")), \
            pytest.raises(ConfigError, match="checked"):
        next(simulation._draw_arrivals([0], [1], simulation._demand_plan(DemandParams()), default_rng(1)))
    with pytest.raises(ConfigError, match=r"^duration must be >= 1 tick$"):
        _task(0, duration=0)
    with pytest.raises(ConfigError, match=r"^task demands must be positive$"):
        _task(0, ram=0.0)
    with pytest.raises(ConfigError, match=r"^task demands must be positive$"):
        _task(0, net=-1.0)


@pytest.mark.parametrize("demands", [(math.nan, 0.5, 0.25), (1.0, math.inf, 0.25), (1.0, 0.5, math.nan)])
def test_task_rejects_a_non_finite_demand(demands):
    cpu, ram, net = demands
    with pytest.raises(ConfigError, match=r"^task demands must be finite, got "):
        _task(0, cpu=cpu, ram=ram, net=net)


def test_a_float_duration_is_rejected_naming_it():
    with pytest.raises(ConfigError, match=r"^duration: must be an integer, got 2\.5$"):
        _task(0, duration=2.5)
    # numpy integers are integers
    assert _task(0, duration=np.int64(3)).duration == 3
    # and a cluster size is a count too
    with pytest.raises(ConfigError, match=r"^n: must be an integer, got 2\.5$"):
        homogeneous_cluster(2.5)


# ----------------------------------------------------------------- dispatch


def test_least_composite_picks_lightest_server():
    state = ClusterState(homogeneous_cluster(2))
    state.place(0, _task(0, cpu=3.6, ram=28.0, net=14.0), completes_at=100)
    state.place(1, _task(1, cpu=0.4, ram=3.0, net=1.0), completes_at=100)
    pol = Policy(kind=PolicyKind.LEAST_COMPOSITE)
    assert dispatch(_task(2, cpu=0.2), state, pol, WeightTriple()) == 1


def test_dispatch_ties_break_to_lowest_id():
    state = ClusterState(homogeneous_cluster(3))
    for kind in (PolicyKind.LEAST_COMPOSITE, PolicyKind.LEAST_SIL):
        assert dispatch(_task(9), state, Policy(kind=kind), WeightTriple()) == 0


def test_round_robin_cycles():
    state = ClusterState(homogeneous_cluster(3))
    pol = Policy(kind=PolicyKind.ROUND_ROBIN)
    picks = []
    for tid in range(6):
        i = dispatch(_task(tid, cpu=0.1, ram=0.1, net=0.1), state, pol, WeightTriple())
        state.place(i, _task(100 + tid, cpu=0.1, ram=0.1, net=0.1), completes_at=1000)
        picks.append(i)
    assert picks == [0, 1, 2, 0, 1, 2]


def test_dispatch_returns_none_when_saturated():
    state = ClusterState(homogeneous_cluster(2, cpu_count=1))
    for i in range(2):
        state.place(i, _task(i, cpu=1.0, ram=0.5, net=0.5), completes_at=100)
    for kind in PolicyKind:
        assert dispatch(_task(9, cpu=0.5), state, Policy(kind=kind), WeightTriple()) is None


def test_least_sil_is_argmin_over_admissible_servers():
    # brute force: recompute the post-assignment deviation score of every
    # admissible server from public accessors and demand the same argmin
    rng = default_rng(123)
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 7))
        specs = tuple(
            ServerSpec(
                id=i,
                cpu_count=int(rng.integers(1, 9)),
                ram_capacity=float(rng.uniform(8.0, 64.0)),
                net_capacity=float(rng.uniform(4.0, 32.0)),
            )
            for i in range(n)
        )
        state = ClusterState(specs)
        tid = 0
        for i in range(n):
            for _ in range(int(rng.integers(0, 4))):
                t = _task(
                    tid,
                    cpu=float(rng.uniform(0.05, 0.5) * specs[i].cpu_count),
                    ram=float(rng.uniform(0.05, 0.3) * specs[i].ram_capacity),
                    net=float(rng.uniform(0.05, 0.3) * specs[i].net_capacity),
                )
                if i in state.admissible(t):
                    state.place(i, t, completes_at=10_000)
                    tid += 1
        probe = _task(tid, cpu=float(rng.uniform(0.05, 0.8)),
                      ram=float(rng.uniform(0.1, 4.0)), net=float(rng.uniform(0.05, 2.0)))
        w = WeightTriple()
        got = dispatch(probe, state, Policy(kind=PolicyKind.LEAST_SIL), w)

        caps = [(s.cpu_count, s.ram_capacity, s.net_capacity) for s in specs]
        tot = [sum(c[k] for c in caps) for k in range(3)]
        utils = [state.utilization(i) for i in range(n)]
        avg = [sum(u[k] * caps[i][k] for i, u in enumerate(utils)) / tot[k] for k in range(3)]
        best, best_sil = None, None
        for i in range(n):
            if i not in state.admissible(probe):
                continue
            u = utils[i]
            cu = u[0] + probe.cpu_demand / caps[i][0]
            ru = u[1] + probe.ram_demand / caps[i][1]
            nu = u[2] + probe.net_demand / caps[i][2]
            sil = w.a * (cu - avg[0]) ** 2 + w.b * (ru - avg[1]) ** 2 + w.c * (nu - avg[2]) ** 2
            if best is None or sil < best_sil:
                best, best_sil = i, sil
        if got != best:
            mismatches += 1
    assert mismatches == 0


def test_least_sil_matches_least_composite_on_uniform_state():
    # identical servers at identical utilization: the deviation-minimizing
    # choice and the load-minimizing choice coincide (both tie at id 0)
    state = ClusterState(homogeneous_cluster(4))
    for i in range(4):
        state.place(i, _task(i, cpu=1.0, ram=8.0, net=4.0), completes_at=10_000)
    for cpu in (0.2, 0.7, 1.5):
        probe = _task(99, cpu=cpu)
        a = dispatch(probe, state, Policy(kind=PolicyKind.LEAST_SIL), WeightTriple())
        b = dispatch(probe, state, Policy(kind=PolicyKind.LEAST_COMPOSITE), WeightTriple())
        assert a == b


# ---------------------------------------------------------------- migration


def test_rebalance_noop_cases():
    pol = Policy(kind=PolicyKind.THRESHOLD_MIGRATION, migration_threshold=0.5)
    single = ClusterState(homogeneous_cluster(1))
    assert rebalance(single, pol, WeightTriple()) == []
    balanced = ClusterState(homogeneous_cluster(3))
    assert rebalance(balanced, pol, WeightTriple()) == []
    loaded = ClusterState(homogeneous_cluster(3))
    loaded.place(0, _task(0, cpu=2.0), completes_at=100)
    assert rebalance(loaded, Policy(kind=PolicyKind.LEAST_SIL), WeightTriple()) == []


def test_rebalance_drains_overloaded_server():
    state = ClusterState(homogeneous_cluster(2))
    for tid in range(4):
        state.place(0, _task(tid, cpu=0.8, ram=4.0, net=2.0), completes_at=100)
    w = WeightTriple()
    before = max(_cluster_sils(state, w))
    moves = rebalance(state, Policy(kind=PolicyKind.THRESHOLD_MIGRATION, migration_threshold=0.0), w)
    assert len(moves) >= 1
    for tid, src, dst in moves:
        assert src != dst
        assert src == 0
    assert max(_cluster_sils(state, w)) < before


def _scored_candidates(monkeypatch):
    """Record every call of the migration pass's destination scorer."""
    calls = []
    score = simulation._post_move_max_sils

    def recording(state, utils, avgs, net_total, src, task, w):
        calls.append(task.id)
        return score(state, utils, avgs, net_total, src, task, w)

    monkeypatch.setattr(simulation, "_post_move_max_sils", recording)
    return calls


def test_rebalance_scores_no_candidate_of_a_source_below_average_everywhere(monkeypatch):
    """Moving any task off an underloaded max-SIL server only raises its own SIL."""
    state = ClusterState(homogeneous_cluster(3))
    for tid in range(2):
        state.place(0, _task(tid, cpu=0.1, ram=0.5, net=0.25), completes_at=100)
    for i in (1, 2):
        state.place(i, _task(i + 1, cpu=2.5, ram=20.0, net=10.0), completes_at=100)
    w = WeightTriple()
    sils = _cluster_sils(state, w)
    assert sils.index(max(sils)) == 0 and len(state.running[0]) == 2
    avgs = simulation._system_averages_now(state)
    assert all(u < a for u, a in zip(state.utilization(0), avgs))
    scored = _scored_candidates(monkeypatch)
    assert rebalance(state, Policy(kind=PolicyKind.THRESHOLD_MIGRATION), w) == []
    assert scored == []


def test_rebalance_stops_at_a_source_below_average_everywhere_after_the_server_scan():
    """The state above: one SIL per server and none per candidate before the pass ends."""
    state = ClusterState(homogeneous_cluster(3))
    for tid in range(2):
        state.place(0, _task(tid, cpu=0.1, ram=0.5, net=0.25), completes_at=100)
    for i in (1, 2):
        state.place(i, _task(i + 1, cpu=2.5, ram=20.0, net=10.0), completes_at=100)
    with mock.patch.object(simulation, "sil_value", wraps=simulation.sil_value) as scored:
        assert rebalance(state, Policy(kind=PolicyKind.THRESHOLD_MIGRATION), WeightTriple()) == []
    assert scored.call_count == 3


def test_rebalance_still_scores_and_moves_off_an_overloaded_source(monkeypatch):
    state = ClusterState(homogeneous_cluster(3))
    for tid in range(3):
        state.place(0, _task(tid, cpu=1.0, ram=8.0, net=4.0), completes_at=100)
    w = WeightTriple()
    before = max(_cluster_sils(state, w))
    scored = _scored_candidates(monkeypatch)
    moves = rebalance(state, Policy(kind=PolicyKind.THRESHOLD_MIGRATION), w)
    assert moves and scored
    assert moves[0][1] == 0
    assert max(_cluster_sils(state, w)) < before


def test_migration_keeps_net_charge_on_source():
    state = ClusterState(homogeneous_cluster(2))
    t = _task(0, cpu=1.0, ram=2.0, net=3.0)
    state.place(0, t, completes_at=100)
    state.migrate(0, dst=1)
    # cpu and ram move immediately, net is double-counted for this tick
    assert state.utilization(0)[0] == 0.0
    assert state.utilization(0)[2] == pytest.approx(3.0 / 16.0)
    assert state.utilization(1)[2] == pytest.approx(3.0 / 16.0)
    assert state.utilization(1)[0] == pytest.approx(1.0 / 4.0)


def test_every_committed_move_lowers_max_sil():
    """Instrumented run: each migration strictly reduces the worst score."""
    w = WeightTriple()
    checks = []

    class Tracked(ClusterState):
        def migrate(self, task_id, dst):
            before = max(_cluster_sils(self, w))
            super().migrate(task_id, dst)
            checks.append((before, max(_cluster_sils(self, w))))

    pol = Policy(kind=PolicyKind.THRESHOLD_MIGRATION, migration_threshold=0.0)
    series = generate_fgn(hurst=0.75, length=2048, seed=21)
    c_rng, d_rng = default_rng(31), default_rng(32)
    state = Tracked(homogeneous_cluster(4))
    params = DemandParams()
    for t in range(2048):
        arrivals = arrivals_from_traffic(series, t, 0.25, params, c_rng, d_rng, id_start=state.arrived)
        step(state, arrivals, pol, w)
    assert len(checks) > 0
    violations = [c for c in checks if not c[1] < c[0]]
    assert violations == []


def test_policy_kind_given_as_a_string():
    pol = Policy(kind="threshold_migration", migration_threshold=0.001)
    assert pol.kind is PolicyKind.THRESHOLD_MIGRATION
    assert pol == Policy(kind=PolicyKind.THRESHOLD_MIGRATION, migration_threshold=0.001)
    meta = GeneratorMeta(kind=GeneratorKind.COMPOSITE, seed=1, depth=12,
                         target_hurst=0.85, multiplier_spread=0.8)
    runs = []
    for policy in (pol, Policy(kind=PolicyKind.THRESHOLD_MIGRATION, migration_threshold=0.001)):
        config = ScenarioConfig(traffic=meta, policy=policy, horizon=4096, arrival_scale=1.0, seed=1)
        with mock.patch.object(ClusterState, "migrate", autospec=True,
                               side_effect=ClusterState.migrate) as moves:
            runs.append((run_scenario(config), moves.call_count))
    assert runs[0][1] > 0
    assert runs[0] == runs[1]
    with pytest.raises(ConfigError, match=r"^kind: expected one of \['least_composite', "):
        Policy(kind="bogus")


# -------------------------------------------------------------------- step


def test_task_occupies_exactly_its_duration():
    state = ClusterState(homogeneous_cluster(1))
    pol = Policy(kind=PolicyKind.LEAST_COMPOSITE)
    step(state, [_task(0, cpu=1.0, duration=3)], pol, WeightTriple())
    cpu_trace = [state.utilization(0)[0]]
    for _ in range(4):
        step(state, [], pol, WeightTriple())
        cpu_trace.append(state.utilization(0)[0])
    assert cpu_trace == [0.25, 0.25, 0.25, 0.0, 0.0]
    assert state.completed == 1


def test_queue_is_fifo_and_served_before_new_arrivals():
    state = ClusterState(homogeneous_cluster(1))
    pol = Policy(kind=PolicyKind.LEAST_COMPOSITE)
    big = _task(1, cpu=4.0, ram=1.0, net=1.0, duration=2)
    small = _task(2, cpu=1.0, ram=0.5, net=0.5, duration=5)
    step(state, [big, small], pol, WeightTriple())
    assert state.queue_len() == 1 and state.running_count() == 1
    step(state, [], pol, WeightTriple())
    # the blocker finishes now; the queued task must win the freed slot
    # over the simultaneously arriving second blocker
    big2 = _task(3, cpu=4.0, ram=1.0, net=1.0, duration=2)
    step(state, [big2], pol, WeightTriple())
    assert state.running_count() == 1
    assert state.utilization(0)[0] == 0.25
    assert [t.id for t in state.queue] == [3]
    assert state.arrived == 3 and state.completed == 1


def test_queue_retry_admits_a_task_that_fits_to_the_last_ulp():
    state = ClusterState(homogeneous_cluster(1, cpu_count=1))
    pol = Policy(kind=PolicyKind.ROUND_ROBIN)
    w = WeightTriple()
    small = [_task(0, cpu=0.2, duration=1), _task(1, cpu=0.6, duration=1)]
    step(state, [*small, _task(2, cpu=1.0)], pol, w)
    assert [t.id for t in state.queue] == [2]
    # both finish, leaving a 1.1e-16 cpu residue: 1.0 - residue < 1.0, yet
    # residue + 1.0 rounds to 1.0, so the full-core task fits
    step(state, [], pol, w)
    assert state.queue_len() == 0 and state.running_count() == 1


def test_queue_retry_waits_for_a_freed_server():
    """A queued task that passes the all-server headroom filter yet fits nowhere.

    Server 0 has cpu room but too little ram, server 1 the reverse. With
    nothing freed the retry makes no dispatch call; once server 0's task
    completes, it makes one and places the queued task.
    """
    state = ClusterState(homogeneous_cluster(2, cpu_count=1, ram_capacity=8.0, net_capacity=4.0))
    pol = Policy(kind=PolicyKind.LEAST_COMPOSITE)
    w = WeightTriple()
    step(state, [_task(0, cpu=0.5, ram=7.0, duration=2), _task(1, cpu=0.9, ram=1.0, duration=50),
                 _task(2, cpu=0.4, ram=4.0)], pol, w)
    assert [t.id for t in state.queue] == [2]
    with mock.patch.object(simulation, "dispatch", wraps=dispatch) as counted:
        step(state, [], pol, w)
        assert counted.call_count == 0 and state.queue_len() == 1
        step(state, [], pol, w)  # task 0 completes
        assert counted.call_count == 1 and state.queue_len() == 0


def test_window_means_match_hand_average():
    state = ClusterState(homogeneous_cluster(1))
    pol = Policy(kind=PolicyKind.LEAST_COMPOSITE)
    step(state, [_task(0, cpu=1.0, duration=2)], pol, WeightTriple())
    for _ in range(3):
        step(state, [], pol, WeightTriple())
    utils = state.drain_window()
    assert utils[0].cpu == pytest.approx((0.25 + 0.25) / 4.0, abs=1e-15)
    assert utils[0].window == 4
    with pytest.raises(ConfigError):
        state.drain_window()


def _cumsum_window_means(windows):
    """Per-window means as the last row of a per-tick running sum from a zero row."""
    count = sum(windows[0][1])
    out = []
    for rows, spans in windows:
        per_tick = np.zeros((count + 1, len(rows[0]), 3))
        per_tick[1:] = np.repeat(np.array(rows, dtype=float), spans, axis=0)
        out.append(np.cumsum(per_tick, axis=0)[-1] / count)
    return np.minimum(np.array(out), 1.0)


def test_window_means_equal_the_running_sum_bitwise():
    rng = default_rng(5)
    values = (0.0, -0.0, 1.0, 1.0 / 3.0, 0.1, 1e-17)
    for _ in range(300):
        w, count, n = int(rng.integers(1, 5)), int(rng.integers(1, 130)), int(rng.integers(1, 12))
        windows = []
        for _ in range(w):
            cuts = sorted(set(rng.integers(0, count + 1, size=int(rng.integers(0, 6))).tolist()) | {0, count})
            spans = [b - a for a, b in zip(cuts, cuts[1:])]
            # a random value or one of the edge cases, -0.0 among them
            rows = [[tuple(float(rng.random()) if rng.random() < 0.5 else values[rng.integers(6)]
                           for _ in range(3)) for _ in range(n)] for _ in spans]
            windows.append((rows, spans))
        got = simulation._window_means(windows)
        want = _cumsum_window_means(windows)
        assert got.shape == want.shape
        assert [v.hex() for v in got.ravel().tolist()] == [v.hex() for v in want.ravel().tolist()]


def test_conservation_holds_every_tick():
    series = generate_fgn(hurst=0.8, length=1024, seed=33)
    c_rng, d_rng = default_rng(41), default_rng(42)
    state = ClusterState(homogeneous_cluster(2, cpu_count=2))
    pol = Policy(kind=PolicyKind.LEAST_SIL)
    for t in range(1024):
        arrivals = arrivals_from_traffic(series, t, 0.4, DemandParams(), c_rng, d_rng, id_start=state.arrived)
        step(state, arrivals, pol, WeightTriple())
        assert state.arrived == state.completed + state.running_count() + state.queue_len()


def test_utilization_never_exceeds_capacity_under_pressure():
    # offered load far above capacity: queue must absorb it, not the servers
    series = generate_fgn(hurst=0.85, length=768, seed=34)
    c_rng, d_rng = default_rng(51), default_rng(52)
    state = ClusterState(homogeneous_cluster(2, cpu_count=1, ram_capacity=4.0, net_capacity=2.0))
    pol = Policy(kind=PolicyKind.LEAST_COMPOSITE)
    saw_queue = False
    for t in range(768):
        arrivals = arrivals_from_traffic(series, t, 3.0, DemandParams(), c_rng, d_rng, id_start=state.arrived)
        step(state, arrivals, pol, WeightTriple())
        saw_queue = saw_queue or state.queue_len() > 0
        for i in range(state.n):
            assert max(state.utilization(i)) <= 1.0
    assert saw_queue


def test_an_over_capacity_server_is_an_internal_error():
    # place trusts its caller's admission test, so it can overfill a server
    state = ClusterState(homogeneous_cluster(1, cpu_count=4))
    with pytest.raises(RuntimeError, match=r"^internal consistency violation: server 0 "
                                           r"utilization 1\.250000000000 > 1 at tick 0$"):
        state.place(0, _task(0, cpu=5.0), 4)
        state.snapshot()


def test_idle_cluster_reports_all_zero():
    state = ClusterState(reference_cluster())
    pol = Policy(kind=PolicyKind.LEAST_SIL)
    for _ in range(8):
        step(state, [], pol, WeightTriple())
    for u in state.drain_window():
        assert (u.cpu, u.ram, u.net) == (0.0, 0.0, 0.0)


# ---------------------------------------------------------------- full runs


def _fgn_config(**overrides):
    meta = GeneratorMeta(kind=GeneratorKind.FGN, seed=3, target_hurst=0.7)
    base = dict(
        traffic=meta,
        cluster=homogeneous_cluster(4),
        horizon=1024,
        window=64,
        arrival_scale=0.3,
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_run_scenario_is_deterministic():
    a = run_scenario(_fgn_config())
    b = run_scenario(_fgn_config())
    assert len(a) == 1024 // 64
    assert a == b


def test_run_scenario_seed_changes_draws_not_series():
    cfg_a, cfg_b = _fgn_config(seed=7), _fgn_config(seed=8)
    series_a = resolve_traffic(cfg_a)
    series_b = resolve_traffic(cfg_b)
    # an explicit generator record pins the series itself
    assert np.array_equal(series_a.values, series_b.values)
    # while arrival and demand draws still vary with the run seed
    assert run_scenario(cfg_a) != run_scenario(cfg_b)


def test_calibration_target_draws_series_from_run_seed():
    target = CalibrationTarget(hurst=0.7, delta_h=0.0)
    cfg_a = _fgn_config(traffic=target, seed=7)
    cfg_b = _fgn_config(traffic=target, seed=8)
    series_a = resolve_traffic(cfg_a)
    series_b = resolve_traffic(cfg_b)
    assert not np.array_equal(series_a.values, series_b.values)
    # the series' record is complete: it regenerates its series exactly
    again = resolve_traffic(ScenarioConfig(traffic=series_a.meta, cluster=cfg_a.cluster,
                                           horizon=1024, window=64,
                                           arrival_scale=0.3, seed=99))
    assert np.array_equal(series_a.values, again.values)


def test_calibrated_series_covers_horizons_past_the_probe_depth():
    # calibration probes at depth 14 (16384 ticks); a longer run needs a deeper series
    cfg = ScenarioConfig(traffic=CalibrationTarget(hurst=0.6, delta_h=1.5), horizon=2**15)
    series = resolve_traffic(cfg)
    assert len(series) >= 2**15
    assert series.meta.depth == 15
    # an explicit depth that is too short is still refused
    short = GeneratorMeta(kind=GeneratorKind.COMPOSITE, seed=0, depth=10,
                          target_hurst=0.7, multiplier_spread=0.5)
    with pytest.raises(ConfigError, match="depth 10"):
        resolve_traffic(_fgn_config(traffic=short, horizon=2048))


def test_run_scenario_accepts_the_resolved_series():
    cfg = _fgn_config(seed=3)
    series = resolve_traffic(cfg)
    assert run_scenario(cfg, series) == run_scenario(cfg)
    # the given series is the one simulated: no traffic, no load
    idle = TrafficSeries(values=np.zeros(1024), meta=None)
    assert all(r.efficiency == 0.0 for r in run_scenario(cfg, idle))


def test_an_explicit_record_is_realized_once_per_record_and_horizon(monkeypatch):
    simulation._realize_record.cache_clear()
    generate = simulation.traffic.generate_from_meta
    calls = []

    def counted(meta, length, seed=None):
        calls.append((meta, length, seed))
        return generate(meta, length, seed)

    monkeypatch.setattr(simulation.traffic, "generate_from_meta", counted)
    configs = [_fgn_config(seed=s) for s in (1, 2, 3)]
    warm = [run_scenario(cfg) for cfg in configs]
    assert calls == [(configs[0].traffic, 1024, None)]
    # a hit simulates exactly what a cold call or the series given by hand does
    cold = []
    for cfg in configs:
        simulation._realize_record.cache_clear()
        cold.append(run_scenario(cfg))
    given = [run_scenario(cfg, generate(cfg.traffic, cfg.horizon)) for cfg in configs]
    assert repr(warm) == repr(cold) == repr(given)

    # another horizon is realized afresh, and the memo lets the last series go
    first = weakref.ref(resolve_traffic(configs[0]))
    calls.clear()
    assert len(resolve_traffic(_fgn_config(horizon=2048))) == 2048
    assert len(calls) == 1
    gc.collect()
    assert first() is None

    # a calibration target is drawn per run seed, never served from the memo
    target = CalibrationTarget(hurst=0.7, delta_h=0.1)
    a, b = (resolve_traffic(_fgn_config(traffic=target, seed=s)) for s in (7, 8))
    assert not np.array_equal(a.values, b.values)


def _gappy_config(policy):
    """1000 ticks in 16-tick windows: 62 windows and 8 ticks over, with zero-traffic
    stretches of 100 and 90 ticks (both longer than two windows)."""
    values = default_rng(4).random(1000) * 2.0
    values[100:200] = values[520:610] = 0.0
    config = ScenarioConfig(
        traffic=GeneratorMeta(kind=GeneratorKind.FGN, seed=0, target_hurst=0.7),
        cluster=homogeneous_cluster(3, cpu_count=1, ram_capacity=6.0, net_capacity=3.0),
        policy=policy, horizon=1000, window=16, arrival_scale=0.5,
        demand_params=DemandParams(duration_mean=12.0), seed=11,
    )
    return config, TrafficSeries(values=values, meta=None)


def _per_tick(config, series, on_tick=None):
    """Reports of arrivals_from_traffic and step on every tick; on_tick(t, arrivals, state)
    runs before each step."""
    count_rng = default_rng(SeedSequence([config.seed, simulation._STREAM_ARRIVALS]))
    demand_rng = default_rng(SeedSequence([config.seed, simulation._STREAM_DEMANDS]))
    state = ClusterState(config.cluster)
    reports = []
    for t in range(config.horizon):
        arrivals = arrivals_from_traffic(series, t, config.arrival_scale, config.demand_params,
                                         count_rng, demand_rng, id_start=state.arrived)
        if on_tick is not None:
            on_tick(t, arrivals, state)
        step(state, arrivals, config.policy, config.weights)
        if (t + 1) % config.window == 0:
            reports.append(full_report(state.drain_window(), config.cluster, config.weights))
    return reports


_GAPPY_POLICIES = [Policy(PolicyKind.LEAST_SIL), Policy(PolicyKind.ROUND_ROBIN),
                   Policy(PolicyKind.THRESHOLD_MIGRATION, 0.001)]


@pytest.mark.parametrize("policy", _GAPPY_POLICIES, ids=lambda p: p.kind.value)
def test_event_loop_reports_equal_the_per_tick_loop(policy):
    config, series = _gappy_config(policy)
    assert config.horizon % config.window and config.horizon // config.window > simulation._SCORE_BATCH
    reports = run_scenario(config, series)
    assert len(reports) == 62
    assert reports == _per_tick(config, series)


@pytest.mark.parametrize("policy", _GAPPY_POLICIES, ids=lambda p: p.kind.value)
def test_step_runs_exactly_on_event_ticks(policy):
    config, series = _gappy_config(policy)
    expected, move_only = [], []

    def note(t, arrivals, state):
        # last_move_tick starts at -1, so tick 0 counts as following a move
        if arrivals or t in state._completion_buckets or state.last_move_tick == t - 1:
            expected.append(t)
            if not (arrivals or t in state._completion_buckets):
                move_only.append(t)

    _per_tick(config, series, on_tick=note)
    stepped = []

    def recording_step(state, arrivals, policy, w):
        stepped.append(state.tick)
        return step(state, arrivals, policy, w)

    with mock.patch.object(simulation, "step", recording_step):
        run_scenario(config, series)
    assert stepped == expected
    assert 0 < len(expected) < config.horizon  # some ticks are held
    if policy.kind is PolicyKind.THRESHOLD_MIGRATION:
        assert [t for t in move_only if t > 0]  # a move alone makes the next tick an event


def test_hold_of_m_ticks_equals_m_single_holds():
    pol = Policy(kind=PolicyKind.LEAST_SIL)
    states = [ClusterState(homogeneous_cluster(2)) for _ in range(2)]
    for state in states:
        step(state, [_task(0, cpu=1.5, duration=30)], pol, WeightTriple())
    held, single = states
    held.hold(7)
    for _ in range(7):
        single.hold(1)
    assert held.tick == single.tick == 8
    assert held.drain_window() == single.drain_window()
    # a window that starts with a quiet run samples afresh
    held.hold(5)
    for _ in range(5):
        single.hold(1)
    assert held.tick == single.tick == 13
    assert held.drain_window() == single.drain_window()


def _spiked(n, spike_at):
    values = np.full(n, 0.05)
    values[spike_at] = values[spike_at + 50] = 0.2
    return TrafficSeries(values=values, meta=None)


@pytest.mark.parametrize(
    "series,arrival_scale,match",
    [
        # 1e7 * 0.2 = 2e6 is over the 1e6 cap at ticks 300 and 350; 5e5 elsewhere is not
        (_spiked(1024, 300), 1e7, r"^arrival_scale: .* \(tick 300's is 2e\+06\), got 10000000\.0$"),
        (TrafficSeries(values=np.ones(1000), meta=None), 0.3,
         "series has 1000 ticks, fewer than the horizon 1024"),
    ],
    ids=["mean_over_cap", "series_too_short"],
)
def test_run_scenario_rejects_bad_traffic_before_drawing(series, arrival_scale, match):
    cfg = _fgn_config(arrival_scale=arrival_scale)
    with mock.patch("mfload.simulation.default_rng", side_effect=AssertionError("drew")):
        with pytest.raises(ConfigError, match=match):
            run_scenario(cfg, series)


def test_scenario_config_validation():
    meta = GeneratorMeta(kind=GeneratorKind.FGN, seed=0, target_hurst=0.7)
    with pytest.raises(ConfigError):
        ScenarioConfig(traffic=meta, horizon=255)
    with pytest.raises(ConfigError):
        ScenarioConfig(traffic=meta, horizon=512, window=513)
    with pytest.raises(ConfigError):
        ScenarioConfig(traffic=meta, arrival_scale=0.0)
    with pytest.raises(ConfigError):
        ScenarioConfig(traffic=meta, seed=-1)
    with pytest.raises(ConfigError):
        ScenarioConfig(traffic=meta, cluster=(ServerSpec(0, 1, 1.0, 1.0), ServerSpec(0, 1, 1.0, 1.0)))
    # a bare string is not a traffic description; rejected when the config is built
    with pytest.raises(ConfigError):
        resolve_traffic(ScenarioConfig(traffic="fgn"))


def test_cluster_builders():
    ref = reference_cluster()
    assert len(ref) == 8
    assert len({s.id for s in ref}) == 8
    for s in ref:
        assert s.ram_capacity == 8.0 * s.cpu_count
        assert s.net_capacity == 4.0 * s.cpu_count
    homo = homogeneous_cluster(3, cpu_count=2)
    assert [s.id for s in homo] == [0, 1, 2]
    assert {s.cpu_count for s in homo} == {2}


def test_adaptive_policy_dominates_round_robin():
    """Deviation-aware placement should beat blind rotation on mixed racks.

    100 random cluster/traffic/seed combinations; demand a 90% win rate
    on mean isl_tot rather than uniform dominance, since individual draws
    can favour either policy.
    """
    wins = 0
    for case in range(100):
        rng = default_rng(1000 + case)
        n = int(rng.integers(2, 9))
        cores = rng.choice(np.array([1, 2, 4, 8]), size=n)
        cluster = tuple(
            ServerSpec(id=j, cpu_count=int(c), ram_capacity=8.0 * c, net_capacity=4.0 * c)
            for j, c in enumerate(cores)
        )
        meta = GeneratorMeta(
            kind=GeneratorKind.COMPOSITE,
            seed=int(rng.integers(2**20)),
            depth=12,
            target_hurst=float(rng.uniform(0.55, 0.95)),
            multiplier_spread=float(rng.uniform(0.1, 1.2)),
        )
        scale = float(rng.uniform(0.05, 0.25)) * float(cores.sum()) / 30.0
        base = dict(
            traffic=meta, cluster=cluster, horizon=4096, window=64,
            arrival_scale=scale, seed=int(rng.integers(2**20)),
        )
        sil_run = run_scenario(ScenarioConfig(policy=Policy(kind=PolicyKind.LEAST_SIL), **base))
        rr_run = run_scenario(ScenarioConfig(policy=Policy(kind=PolicyKind.ROUND_ROBIN), **base))
        if np.mean([r.isl_tot for r in sil_run]) <= np.mean([r.isl_tot for r in rr_run]):
            wins += 1
    assert wins >= 90


def test_calibration_target_rejects_a_zero_budget_naming_it():
    with pytest.raises(ConfigError, match="budget: must be a positive integer, got 0"):
        CalibrationTarget(hurst=0.7, delta_h=1.0, budget=0)
    with pytest.raises(ConfigError, match=r"^budget: must be an integer, got 1\.5$"):
        CalibrationTarget(hurst=0.7, delta_h=1.0, budget=1.5)


@pytest.mark.parametrize("field, value", [("horizon", 1024.5), ("horizon", 1024.0), ("window", 2.5),
                                          ("seed", 1.5)])
def test_scenario_config_rejects_a_non_integer_field_naming_it(field, value):
    meta = GeneratorMeta(kind="fgn", seed=0, target_hurst=0.7)
    with pytest.raises(ConfigError, match=rf"^{field}: must be an integer, got {value}$"):
        ScenarioConfig(traffic=meta, **{field: value})
