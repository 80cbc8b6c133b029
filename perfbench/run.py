"""mfload benchmark: one workload per run, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sparse_least_sil --seed 1 --seconds 30 --trace 0

It imports mfload from the checkout's ``src/`` and runs it in this
process, pinned to one CPU with BLAS at one thread, and checks every
scenario's outputs against the stored references. The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it give the run's context and each metric with its unit.

``--trace 0`` reports the end-to-end metrics:
  setup_s      median seconds, over fresh interpreters, to import mfload and
               build the workload's inputs
  scenario_s   median seconds of one scenario (one run_scenario call, or one
               ``mfload sweep`` for the sweep workload)
  ticks_per_s  simulated ticks over the summed scenario seconds of the pass
  peak_rss_mb  peak resident memory of the benchmark process
Their seconds are host seconds rescaled to the nominal machine speed of
speed.py: each host time is divided by the machine's slowness, measured
with reference kernels right before and after it. The raw host figures
are not rescaled: they are printed as the ``host:`` line above the result
and written with the context to ``perfbench/out/``.

``--trace 1`` reports the per-layer metrics of one traced pass (see
tracing.py). It alternates an untraced and a traced pass over the same
scenarios, requires their outputs to be equal and every count to repeat
exactly across traced passes, and writes the spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# pin before anything imports numpy
os.environ.update(workloads.BLAS_PIN)

ROOT = Path(__file__).resolve().parent.parent

SETUP_REPEATS = 5

# the reference kernel runs after the timed setup, so numpy is not imported early
_SETUP_CHILD = (
    "import sys; sys.path.insert(0, sys.argv[1] + '/perfbench'); import workloads; "
    "t = workloads.timed_setup(sys.argv[1], sys.argv[2], sys.argv[3]); import speed; "
    "print(t, speed.slowness(1.0, repeats=3))"
)


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def measure_setup(workload: str, size: str) -> list[tuple[float, float]]:
    """(host seconds, machine slowness) of setups, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, str(ROOT), workload, size],
            capture_output=True, text=True, timeout=120, check=True,
        )
        host, slow = done.stdout.split()
        samples.append((float(host), float(slow)))
    return samples


class Runner:
    """Runs scenarios of one workload and checks them against the references."""

    def __init__(self, mfload, workload, inputs: list, refs: list):
        self.mfload = mfload
        self.workload = workload
        self.inputs = inputs
        self.refs = refs
        self.attempted = 0
        self.failed = 0

    def run(self, index: int):
        """(seconds, ticks, outputs or None) of pool scenario `index`."""
        w, inp = self.workload, self.inputs[index]
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw = w.call(self.mfload, inp)
            dt = time.perf_counter() - t0
            out = w.outputs(inp, raw)
        except Exception:
            dt = time.perf_counter() - t0
            traceback.print_exc()
            self.failed += 1
            return dt, w.ticks(inp), None
        problem = workloads.mismatch(out, self.refs[index])
        if problem:
            print(f"scenario {index}: output differs from reference: {problem}", file=sys.stderr)
            self.failed += 1
        return dt, w.ticks(inp), out


def end_to_end(runner: Runner, order: list[int], seconds: float,
               setup: list[tuple[float, float]]) -> tuple[dict, dict]:
    """(rescaled metrics, raw host figures) of one untraced run."""
    import speed

    share = runner.workload.interpreted_share
    host, times, ticks = [], [], 0
    with speed.KernelProcess() as reference:
        # the kernels bracket each scenario and take about 5% of the run
        before = reference.slowness(share, repeats=3)
        start = time.perf_counter()
        k = 0
        while k == 0 or time.perf_counter() - start < seconds:
            dt, n, _ = runner.run(order[k % len(order)])
            after = reference.slowness(share, budget_s=0.05 * dt)
            host.append(dt)
            times.append(dt / ((before + after) / 2))
            ticks += n
            before = after
            k += 1
    setup_times = [t / slow for t, slow in setup]
    print(f"scenario_s samples: {len(times)}; setup_s samples: {len(setup)}")
    raw = {
        "interpreted_share": share,
        "scenario_s": statistics.median(host),
        "setup_s": statistics.median(t for t, _ in setup),
        "ticks_per_s": ticks / sum(host),
    }
    print("host: " + json.dumps(raw, sort_keys=True))
    # the highest percentile with at least ten samples beyond it, if any
    tail = max((p for p in (75, 90, 95, 99) if len(times) * (100 - p) >= 1000), default=None)
    if tail:
        print(f"scenario_s p{tail} = {statistics.quantiles(times, n=100)[tail - 1]:.6g} s")
    return {
        "setup_s": statistics.median(setup_times),
        "scenario_s": statistics.median(times),
        "ticks_per_s": ticks / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }, raw


def per_layer(runner: Runner, order: list[int], seconds: float, units: dict,
              trace_file: Path, context: dict) -> tuple[dict, bool]:
    from tracing import Tracer

    pass_list = [order[k % len(order)] for k in range(runner.workload.trace_pass)]
    plain_s, traced_s, layer_runs, dumps = [], [], [], []
    correct = True
    start = time.perf_counter()
    while len(layer_runs) < 2 or time.perf_counter() - start < seconds:
        plain = [runner.run(i) for i in pass_list]
        with Tracer(runner.mfload) as tracer:
            traced = []
            for k, i in enumerate(pass_list):
                tracer.scenario = k
                traced.append(runner.run(i))
        if [p[2] for p in plain] != [t[2] for t in traced]:
            print("traced outputs differ from untraced outputs", file=sys.stderr)
            correct = False
        plain_s.append(sum(p[0] for p in plain))
        traced_s.append(sum(t[0] for t in traced))
        layer_runs.append(tracer.layer_metrics())
        dumps.append({"aggregates": tracer.aggregates(), "spans": tracer.spans})

    counts = [{m: v for m, v in run.items() if units[m] != "s"} for run in layer_runs]
    if any(c != counts[0] for c in counts[1:]):
        print("per-layer counts differ between traced passes", file=sys.stderr)
        correct = False
    metrics = dict(counts[0])
    for m in layer_runs[0]:
        if units[m] == "s":
            metrics[m] = statistics.median(run[m] for run in layer_runs)
    metrics["trace_overhead_ratio"] = sum(traced_s) / sum(plain_s)

    trace_file.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_file, "w", encoding="utf-8") as fh:
        json.dump({"context": context, "scenarios": pass_list, "passes": dumps}, fh)
    print(f"traced passes: {len(layer_runs)}; trace written to {trace_file.relative_to(ROOT)}")
    return metrics, correct


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the harness self-test sizes")
    args = parser.parse_args(argv)

    # one CPU for mfload and the reference kernels, so they time the same core
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        mfload = workloads.import_program(ROOT)
    except workloads.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    import numpy

    units = declared_units(args.trace)
    setup = [] if args.trace else measure_setup(args.workload, args.size)
    tmp = workloads.make_tmp(ROOT)
    try:
        inputs = WORKLOADS[args.workload].build(mfload, args.size, tmp)
        runner = Runner(mfload, WORKLOADS[args.workload], inputs,
                        workloads.load_reference(args.workload, args.size))
        order = workloads.scenario_order(args.seed, len(inputs))
        context = {
            "workload": args.workload, "seed": args.seed, "size": args.size,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "blas_pin": workloads.BLAS_PIN,
            "tolerance": {"rel": workloads.REL_TOL, "abs": workloads.ABS_TOL},
        }
        print("context: " + json.dumps(context, sort_keys=True))
        out = ROOT / "perfbench" / "out"
        stem = f"{args.workload}-{args.size}-seed{args.seed}.json"
        if args.trace:
            metrics, correct = per_layer(runner, order, args.seconds, units, out / f"trace-{stem}", context)
        else:
            (metrics, host), correct = end_to_end(runner, order, args.seconds, setup), True
            out.mkdir(parents=True, exist_ok=True)
            with open(out / f"run-{stem}", "w", encoding="utf-8") as fh:
                json.dump({"context": context, "host": host, "metrics": metrics}, fh)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if sorted(metrics) != sorted(units):
        raise RuntimeError(f"measured metrics {sorted(metrics)} != declared {sorted(units)}")
    metrics = {name: metrics[name] for name in units}
    correct = correct and runner.failed == 0
    print(f"fail_ratio = {runner.failed}/{runner.attempted} scenarios")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
