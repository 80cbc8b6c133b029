"""Engine semantics: arrivals, dispatch, migration, and full runs.

Dispatch and migration decisions are checked against brute-force
recomputations that use only the public state accessors, so a regression
in the engine's incremental bookkeeping cannot hide inside the oracle.
"""

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from mfload.errors import ConfigError
from mfload.metrics import ServerSpec, default_weights
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


# ----------------------------------------------------------------- dispatch


def test_least_composite_picks_lightest_server():
    state = ClusterState(homogeneous_cluster(2))
    state.place(0, _task(0, cpu=3.6, ram=28.0, net=14.0), completes_at=100)
    state.place(1, _task(1, cpu=0.4, ram=3.0, net=1.0), completes_at=100)
    pol = Policy(kind=PolicyKind.LEAST_COMPOSITE)
    assert dispatch(_task(2, cpu=0.2), state, pol, default_weights()) == 1


def test_dispatch_ties_break_to_lowest_id():
    state = ClusterState(homogeneous_cluster(3))
    for kind in (PolicyKind.LEAST_COMPOSITE, PolicyKind.LEAST_SIL):
        assert dispatch(_task(9), state, Policy(kind=kind), default_weights()) == 0


def test_round_robin_cycles():
    state = ClusterState(homogeneous_cluster(3))
    pol = Policy(kind=PolicyKind.ROUND_ROBIN)
    picks = []
    for tid in range(6):
        i = dispatch(_task(tid, cpu=0.1, ram=0.1, net=0.1), state, pol, default_weights())
        state.place(i, _task(100 + tid, cpu=0.1, ram=0.1, net=0.1), completes_at=1000)
        picks.append(i)
    assert picks == [0, 1, 2, 0, 1, 2]


def test_dispatch_returns_none_when_saturated():
    state = ClusterState(homogeneous_cluster(2, cpu_count=1))
    for i in range(2):
        state.place(i, _task(i, cpu=1.0, ram=0.5, net=0.5), completes_at=100)
    for kind in PolicyKind:
        assert dispatch(_task(9, cpu=0.5), state, Policy(kind=kind), default_weights()) is None


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
                if state.fits(i, t):
                    state.place(i, t, completes_at=10_000)
                    tid += 1
        probe = _task(tid, cpu=float(rng.uniform(0.05, 0.8)),
                      ram=float(rng.uniform(0.1, 4.0)), net=float(rng.uniform(0.05, 2.0)))
        w = default_weights()
        got = dispatch(probe, state, Policy(kind=PolicyKind.LEAST_SIL), w)

        caps = [(s.cpu_count, s.ram_capacity, s.net_capacity) for s in specs]
        tot = [sum(c[k] for c in caps) for k in range(3)]
        utils = [state.utilization(i) for i in range(n)]
        avg = [sum(u[k] * caps[i][k] for i, u in enumerate(utils)) / tot[k] for k in range(3)]
        best, best_sil = None, None
        for i in range(n):
            if not state.fits(i, probe):
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
        a = dispatch(probe, state, Policy(kind=PolicyKind.LEAST_SIL), default_weights())
        b = dispatch(probe, state, Policy(kind=PolicyKind.LEAST_COMPOSITE), default_weights())
        assert a == b


# ---------------------------------------------------------------- migration


def test_rebalance_noop_cases():
    pol = Policy(kind=PolicyKind.THRESHOLD_MIGRATION, migration_threshold=0.5)
    single = ClusterState(homogeneous_cluster(1))
    assert rebalance(single, pol, default_weights()) == []
    balanced = ClusterState(homogeneous_cluster(3))
    assert rebalance(balanced, pol, default_weights()) == []
    loaded = ClusterState(homogeneous_cluster(3))
    loaded.place(0, _task(0, cpu=2.0), completes_at=100)
    assert rebalance(loaded, Policy(kind=PolicyKind.LEAST_SIL), default_weights()) == []


def test_rebalance_drains_overloaded_server():
    state = ClusterState(homogeneous_cluster(2))
    for tid in range(4):
        state.place(0, _task(tid, cpu=0.8, ram=4.0, net=2.0), completes_at=100)
    w = default_weights()
    before = max(_cluster_sils(state, w))
    moves = rebalance(state, Policy(kind=PolicyKind.THRESHOLD_MIGRATION, migration_threshold=0.0), w)
    assert len(moves) >= 1
    for tid, src, dst in moves:
        assert src != dst
        assert src == 0
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
    w = default_weights()
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


# -------------------------------------------------------------------- step


def test_task_occupies_exactly_its_duration():
    state = ClusterState(homogeneous_cluster(1))
    pol = Policy(kind=PolicyKind.LEAST_COMPOSITE)
    step(state, [_task(0, cpu=1.0, duration=3)], pol, default_weights())
    cpu_trace = [state.utilization(0)[0]]
    for _ in range(4):
        step(state, [], pol, default_weights())
        cpu_trace.append(state.utilization(0)[0])
    assert cpu_trace == [0.25, 0.25, 0.25, 0.0, 0.0]
    assert state.completed == 1


def test_queue_is_fifo_and_served_before_new_arrivals():
    state = ClusterState(homogeneous_cluster(1))
    pol = Policy(kind=PolicyKind.LEAST_COMPOSITE)
    big = _task(1, cpu=4.0, ram=1.0, net=1.0, duration=2)
    small = _task(2, cpu=1.0, ram=0.5, net=0.5, duration=5)
    step(state, [big, small], pol, default_weights())
    assert state.queue_len() == 1 and state.running_count() == 1
    step(state, [], pol, default_weights())
    # the blocker finishes now; the queued task must win the freed slot
    # over the simultaneously arriving second blocker
    big2 = _task(3, cpu=4.0, ram=1.0, net=1.0, duration=2)
    step(state, [big2], pol, default_weights())
    assert state.running_count() == 1
    assert state.utilization(0)[0] == 0.25
    assert [t.id for t in state.queue] == [3]
    assert state.arrived == 3 and state.completed == 1


def test_window_means_match_hand_average():
    state = ClusterState(homogeneous_cluster(1))
    pol = Policy(kind=PolicyKind.LEAST_COMPOSITE)
    step(state, [_task(0, cpu=1.0, duration=2)], pol, default_weights())
    for _ in range(3):
        step(state, [], pol, default_weights())
    utils = state.drain_window()
    assert utils[0].cpu == pytest.approx((0.25 + 0.25) / 4.0, abs=1e-15)
    assert utils[0].window == 4
    with pytest.raises(ConfigError):
        state.drain_window()


def test_conservation_holds_every_tick():
    series = generate_fgn(hurst=0.8, length=1024, seed=33)
    c_rng, d_rng = default_rng(41), default_rng(42)
    state = ClusterState(homogeneous_cluster(2, cpu_count=2))
    pol = Policy(kind=PolicyKind.LEAST_SIL)
    for t in range(1024):
        arrivals = arrivals_from_traffic(series, t, 0.4, DemandParams(), c_rng, d_rng, id_start=state.arrived)
        step(state, arrivals, pol, default_weights())
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
        step(state, arrivals, pol, default_weights())
        saw_queue = saw_queue or state.queue_len() > 0
        for i in range(state.n):
            assert max(state.utilization(i)) <= 1.0
    assert saw_queue


def test_idle_cluster_reports_all_zero():
    state = ClusterState(reference_cluster())
    pol = Policy(kind=PolicyKind.LEAST_SIL)
    for _ in range(8):
        step(state, [], pol, default_weights())
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
    _, series_a = resolve_traffic(cfg_a)
    _, series_b = resolve_traffic(cfg_b)
    # an explicit generator record pins the series itself
    assert np.array_equal(series_a.values, series_b.values)
    # while arrival and demand draws still vary with the run seed
    assert run_scenario(cfg_a) != run_scenario(cfg_b)


def test_calibration_target_draws_series_from_run_seed():
    target = CalibrationTarget(hurst=0.7, delta_h=0.0)
    cfg_a = _fgn_config(traffic=target, seed=7)
    cfg_b = _fgn_config(traffic=target, seed=8)
    meta_a, series_a = resolve_traffic(cfg_a)
    meta_b, series_b = resolve_traffic(cfg_b)
    assert not np.array_equal(series_a.values, series_b.values)
    # the returned record is complete: it regenerates its series exactly
    again = resolve_traffic(ScenarioConfig(traffic=meta_a, cluster=cfg_a.cluster,
                                           horizon=1024, window=64,
                                           arrival_scale=0.3, seed=99))[1]
    assert np.array_equal(series_a.values, again.values)


def test_calibrated_series_covers_horizons_past_the_probe_depth():
    # calibration probes at depth 14 (16384 ticks); a longer run needs a deeper series
    cfg = ScenarioConfig(traffic=CalibrationTarget(hurst=0.6, delta_h=1.5), horizon=2**15)
    meta, series = resolve_traffic(cfg)
    assert len(series) >= 2**15
    assert meta.depth == 15
    # an explicit depth that is too short is still refused
    short = GeneratorMeta(kind=GeneratorKind.COMPOSITE, seed=0, depth=10,
                          target_hurst=0.7, multiplier_spread=0.5)
    with pytest.raises(ConfigError, match="depth 10"):
        resolve_traffic(_fgn_config(traffic=short, horizon=2048))


def test_run_scenario_accepts_the_resolved_series():
    cfg = _fgn_config(seed=3)
    _, series = resolve_traffic(cfg)
    assert run_scenario(cfg, series) == run_scenario(cfg)
    # the given series is the one simulated: no traffic, no load
    idle = TrafficSeries(values=np.zeros(1024), tick_count=1024, meta=None)
    assert all(r.efficiency == 0.0 for r in run_scenario(cfg, idle))


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
    # a bare string is not a traffic description; rejected where it is resolved
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
