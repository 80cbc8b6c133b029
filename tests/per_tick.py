"""The per-tick reference loop that the engine's event loop is checked against."""

from numpy.random import SeedSequence, default_rng

from mfload import simulation as sim
from mfload.metrics import full_report


def drain_window(state):
    """Per-server mean (cpu, ram, net) since the last drain, shaped (servers, 3); resets the samples."""
    return sim._window_means([state._take_window()])[0]


def per_tick_reports(config, series, on_tick=None):
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
            reports.append(full_report(drain_window(state), config.cluster, config.weights))
    return reports
