"""Property tests of the tick engine over random small clusters.

Hypothesis draws 1-4 servers, a demand profile, a weight triple, a policy
and a short arrival series. Every run must stay within capacity on every
tick, conserve tasks after every step and repeat itself under the same
seed; under threshold migration, each committed move's predicted
post-move max SIL must equal the max SIL measured once it is applied.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.random import default_rng

from mfload import simulation as sim
from mfload.metrics import ServerSpec, WeightTriple

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


def _check_conservation(state):
    in_flight = state.running_count() + state.queue_len()
    assert state.arrived == state.completed + in_flight
    assert sum(len(tasks) for tasks in state.running) == state.running_count()


@PROPERTY_SETTINGS
@given(scenarios)
def test_capacity_and_conservation_hold_every_tick(sc):
    state = _Recorded(sc["specs"])
    _run(sc, state, after_step=_check_conservation)
    assert len(state.peaks) == sc["horizon"]
    assert max(state.peaks) <= 1.0 + 1e-9


@PROPERTY_SETTINGS
@given(scenarios)
def test_same_seed_gives_the_same_run(sc):
    first = _run(sc, sim.ClusterState(sc["specs"]))
    second = _run(sc, sim.ClusterState(sc["specs"]))
    assert first == second


def _migration_gaps(sc):
    """|predicted - measured| post-move max SIL for every committed move of the run."""
    w = sc["w"]
    predicted = {}
    gaps = []
    score = sim._post_move_max_sil

    def recording_score(state, utils, avgs, net_total, src, dst, task, w):
        predicted[task.id, dst] = score(state, utils, avgs, net_total, src, dst, task, w)
        return predicted[task.id, dst]

    class Checked(sim.ClusterState):
        def migrate(self, task_id, dst):
            super().migrate(task_id, dst)
            gaps.append(abs(predicted[task_id, dst] - _max_sil(self, w)))

    with mock.patch.object(sim, "_post_move_max_sil", recording_score):
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
