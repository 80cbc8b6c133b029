"""Per-layer tracing from outside the program.

``Tracer`` replaces the public functions of each mfload module with timing
wrappers while it is active, and puts the originals back on exit. Each
function is wrapped at every name its callers look up: ``cli`` imports
``run_scenario``, ``resolve_traffic`` and ``parse_config`` with ``from``, so
those are patched in ``cli`` as well as in their home modules, and
``ClusterState.snapshot`` is patched on the class.

Every call is aggregated per (name, parent name) as a count, inclusive
seconds and the seconds its wrapped children took, which keeps memory
bounded for the per-tick calls. Calls above the tick level also leave one
span each (id, parent id, name, start, end, scenario) for the trace file.
The wrappers draw no random numbers and change no argument or result.
"""

from __future__ import annotations

import os
import time


class Record:
    __slots__ = ("calls", "s", "child_s", "extra")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.child_s = 0.0
        self.extra = {}

    def add(self, key, n):
        self.extra[key] = self.extra.get(key, 0) + n

    def get(self, field):
        if field == "calls":
            return self.calls
        if field == "s":
            return self.s
        if field == "self_s":
            return self.s - self.child_s
        return self.extra.get(field, 0)


def _count_arrivals(rec, args, tasks):
    rec.add("tasks", len(tasks))
    rec.add("nonempty", 1 if tasks else 0)


def _count_dispatch(rec, args, target):
    rec.add("placed", 0 if target is None else 1)


def _count_rebalance(rec, args, moves):
    rec.add("moves", len(moves))
    rec.add("useful", 1 if moves else 0)


def _count_bytes(rec, args, _):
    rec.add("bytes", os.path.getsize(args[0]))


def _targets(mfload):
    """(layer name, leaves a span, counter, [(owner, attribute), ...])."""
    cli, config, fractal = mfload.cli, mfload.config, mfload.fractal
    metrics, sim, traffic = mfload.metrics, mfload.simulation, mfload.traffic
    return [
        ("cli.main", True, None, [(cli, "main")]),
        ("config.parse_config", True, None, [(config, "parse_config"), (cli, "parse_config")]),
        ("simulation.run_scenario", True, None, [(sim, "run_scenario"), (cli, "run_scenario")]),
        ("simulation.resolve_traffic", True, None, [(sim, "resolve_traffic"), (cli, "resolve_traffic")]),
        ("traffic.calibrate", True, None, [(traffic, "calibrate")]),
        ("traffic.generate", True, None, [(traffic, "generate_fgn")]),
        ("traffic.generate", True, None, [(traffic, "generate_cascade")]),
        ("traffic.generate", True, None, [(traffic, "generate_composite")]),
        ("fractal.mfdfa", True, None, [(fractal, "mfdfa")]),
        ("metrics.write_csv", True, _count_bytes, [(metrics, "write_report_csv")]),
        ("metrics.write_csv", True, _count_bytes, [(metrics, "write_sil_csv")]),
        ("traffic.write_series_csv", True, _count_bytes, [(traffic, "write_series_csv")]),
        ("simulation.step", False, None, [(sim, "step")]),
        ("simulation.snapshot", False, None, [(sim.ClusterState, "snapshot")]),
        ("simulation.arrivals", False, _count_arrivals, [(sim, "arrivals_from_traffic")]),
        ("simulation.dispatch", False, _count_dispatch, [(sim, "dispatch")]),
        ("simulation.rebalance", False, _count_rebalance, [(sim, "rebalance")]),
        ("metrics.full_report", False, None, [(metrics, "full_report")]),
    ]


class Tracer:
    """Context manager that wraps mfload's layer functions while active."""

    def __init__(self, mfload):
        self._mfload = mfload
        self.records: dict[tuple[str, str], Record] = {}
        self.spans: list[dict] = []
        self.scenario = 0
        self._stack = [["harness", 0.0, None]]
        self._saved = []

    def __enter__(self):
        for name, spans, count, sites in _targets(self._mfload):
            original = getattr(*sites[0])
            wrapper = self._wrap(name, original, spans, count)
            for owner, attr in sites:
                if getattr(owner, attr) is not original:
                    raise RuntimeError(f"{owner.__name__}.{attr} is not the function it wraps")
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, name, fn, leaves_span, count):
        stack, records, spans = self._stack, self.records, self.spans
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = None
            if leaves_span:
                span = {"id": len(spans), "parent": parent[2], "name": name, "scenario": self.scenario}
                spans.append(span)
            frame = [name, 0.0, None if span is None else span["id"]]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                parent[1] += t1 - t0
                key = (name, parent[0])
                rec = records.get(key)
                if rec is None:
                    rec = records[key] = Record()
                rec.calls += 1
                rec.s += t1 - t0
                rec.child_s += frame[1]
                if span is not None:
                    span["start"], span["end"] = t0, t1
            if count is not None:
                count(rec, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def aggregates(self) -> list[dict]:
        return [
            {"name": name, "parent": parent, "calls": r.calls, "s": r.s,
             "self_s": r.get("self_s"), **r.extra}
            for (name, parent), r in sorted(self.records.items())
        ]

    def _sum(self, name, field, parent=None):
        return sum(
            (r.get(field) for (n, p), r in self.records.items() if n == name and parent in (None, p)),
            0.0 if field in ("s", "self_s") else 0,
        )

    def layer_metrics(self) -> dict[str, float]:
        """The benchmark's per-layer metrics over everything traced so far."""
        s = self._sum

        def ratio(num, den):
            return num / den if den else 0.0

        calibrations = s("traffic.calibrate", "calls")
        return {
            "traffic.calibrate.calls": calibrations,
            "traffic.calibrate.s": s("traffic.calibrate", "s"),
            "traffic.calibrate.self_s": s("traffic.calibrate", "self_s"),
            "traffic.generate.calls": s("traffic.generate", "calls"),
            "traffic.generate.s": s("traffic.generate", "s"),
            "traffic.probes_per_calibrate": ratio(
                s("traffic.generate", "calls", parent="traffic.calibrate"), calibrations
            ),
            "fractal.mfdfa.calls": s("fractal.mfdfa", "calls"),
            "fractal.mfdfa.s": s("fractal.mfdfa", "s"),
            "simulation.step.calls": s("simulation.step", "calls"),
            "simulation.step.self_s": s("simulation.step", "self_s"),
            "simulation.snapshot.s": s("simulation.snapshot", "s"),
            "simulation.arrivals.calls": s("simulation.arrivals", "calls"),
            "simulation.arrivals.s": s("simulation.arrivals", "s"),
            "simulation.arrivals.tasks": s("simulation.arrivals", "tasks"),
            "simulation.arrivals.nonempty_ratio": ratio(
                s("simulation.arrivals", "nonempty"), s("simulation.arrivals", "calls")
            ),
            "simulation.dispatch.calls": s("simulation.dispatch", "calls"),
            "simulation.dispatch.s": s("simulation.dispatch", "s"),
            "simulation.dispatch.placed_ratio": ratio(
                s("simulation.dispatch", "placed"), s("simulation.dispatch", "calls")
            ),
            "simulation.rebalance.calls": s("simulation.rebalance", "calls"),
            "simulation.rebalance.s": s("simulation.rebalance", "s"),
            "simulation.rebalance.moves": s("simulation.rebalance", "moves"),
            "simulation.rebalance.useful_ratio": ratio(
                s("simulation.rebalance", "useful"), s("simulation.rebalance", "calls")
            ),
            "simulation.resolve_traffic.s": s("simulation.resolve_traffic", "s"),
            "simulation.run_scenario.self_s": s("simulation.run_scenario", "self_s"),
            "metrics.full_report.calls": s("metrics.full_report", "calls"),
            "metrics.full_report.s": s("metrics.full_report", "s"),
            "metrics.write_csv.s": s("metrics.write_csv", "s"),
            "metrics.write_csv.bytes": s("metrics.write_csv", "bytes"),
            "traffic.write_series_csv.s": s("traffic.write_series_csv", "s"),
            "traffic.write_series_csv.bytes": s("traffic.write_series_csv", "bytes"),
            "config.parse_config.s": s("config.parse_config", "s"),
            "cli.main.self_s": s("cli.main", "self_s"),
        }
