"""Alternating parent/change pairs of perfbench's end-to-end runs, summarised as JSON.

Run from the root of the change's checkout, with the parent commit checked
out (or exported) in another directory:

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \\
        --seed 13 --seconds 30 --claim calibrated_sweep:scenario_s \\
        --describe "what the change does" --out BENCH_17.json

Pair k runs ``perfbench/run.py --workload W --seed S --seconds T --trace 0``
once in each checkout for every workload in turn; the parent runs first in
odd pairs and the change first in even pairs. Each checkout runs its own
``perfbench/`` and ``src/``. The output is rewritten after every pair, so
an interrupted set keeps the pairs it finished.

Per workload and end-to-end metric (as the change's BENCHMARK.json declares
them) the output holds both sides' runs, medians and inclusive quartiles,
the pairs the change won (ties count for neither side), the relative change
of the medians, the parent's interquartile range over its median, and
whether the change's median is worse than the declared bound. The claimed
metric is met when the change wins at least nine tenths of the pairs and
its median is better than the parent's by more than the parent's
interquartile range.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def src_digest(checkout: Path) -> str:
    """SHA-256 over the relative paths and bytes of the checkout's ``src/`` Python files."""
    h = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        h.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line and raw host figures of one untraced perfbench run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(lines[-1])
    host = next(json.loads(line[len("host: "):]) for line in lines if line.startswith("host: "))
    return {"result": result, "host": host}


def quartiles(runs: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive") if len(runs) > 1 else runs * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarise(runs: dict, metrics: list[dict], workloads: list[str]) -> dict:
    """Per-workload summary of the pairs in `runs[workload][side]`."""
    out = {}
    for w in workloads:
        sides = runs[w]
        pairs = len(sides["change"])
        entry = {
            "pairs": pairs,
            "failed": {s: sum(r["result"]["failed"] for r in sides[s]) for s in SIDES},
            "attempted": {s: sum(r["result"]["attempted"] for r in sides[s]) for s in SIDES},
            "metrics": {},
            "host": {},
        }
        for m in metrics:
            name, lower = m["name"], m["better"] == "lower"
            vals = {s: [r["result"]["metrics"][name]["value"] for r in sides[s]] for s in SIDES}
            stats = {s: dict(quartiles(vals[s]), runs=vals[s]) for s in SIDES}
            p_med, c_med = stats["parent"]["median"], stats["change"]["median"]
            change = (c_med - p_med) / p_med
            entry["metrics"][name] = {
                "better": m["better"],
                "bound": m["bound"],
                **stats,
                "change_wins": sum((c < p) if lower else (c > p) for p, c in zip(vals["parent"], vals["change"])),
                "median_change": change,
                "parent_iqr_over_median": (stats["parent"]["q3"] - stats["parent"]["q1"]) / p_med,
                "worse_than_bound": (change if lower else -change) > m["bound"],
            }
        for key in sorted(sides["change"][0]["host"]):
            if key != "interpreted_share":
                entry["host"][key] = {s: quartiles([r["host"][key] for r in sides[s]]) for s in SIDES}
        out[w] = entry
    return out


def claim_of(summary: dict, workload: str, metric: str) -> dict:
    m = summary[workload]["metrics"][metric]
    pairs = summary[workload]["pairs"]
    p_med, c_med = m["parent"]["median"], m["change"]["median"]
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    gain = (p_med - c_med) if m["better"] == "lower" else (c_med - p_med)
    return {
        "metric": metric,
        "workload": workload,
        "parent_median": p_med,
        "change_median": c_med,
        "median_change": m["median_change"],
        "change_wins": m["change_wins"],
        "pairs": pairs,
        "parent_iqr": iqr,
        "median_difference": gain,
        "met": m["change_wins"] >= math.ceil(0.9 * pairs) and gain > iqr,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated workloads; default: every one BENCHMARK.json declares")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC the change claims a gain on")
    parser.add_argument("--describe", default="", help="one line saying what the change does")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be positive")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    with open(checkouts["change"] / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [w["name"] for w in spec["workloads"]]
    workloads = args.workloads.split(",") if args.workloads else declared
    unknown = sorted(set(workloads) - set(declared))
    if unknown:
        parser.error(f"unknown workloads {unknown}; BENCHMARK.json declares {declared}")
    claim = args.claim.split(":") if args.claim else None
    if claim and (len(claim) != 2 or claim[0] not in workloads
                  or claim[1] not in {m["name"] for m in spec["end_to_end"]}):
        parser.error(f"--claim must be WORKLOAD:METRIC over the run workloads, got {args.claim!r}")

    runs = {w: {s: [] for s in SIDES} for w in workloads}
    for k in range(1, args.pairs + 1):
        order = SIDES if k % 2 else SIDES[::-1]
        for w in workloads:
            for side in order:
                runs[w][side].append(run_once(checkouts[side], w, args.seed, args.seconds))
        summary = summarise(runs, spec["end_to_end"], workloads)
        report = {
            "change": args.describe,
            "command": f"python3 perfbench/run.py --workload <workload> --seed {args.seed} "
                       f"--seconds {args.seconds:g} --trace 0",
            "method": (
                f"{k} alternating pairs per workload, parent first in odd pairs and the change first in "
                "even pairs, workloads interleaved within each pair; each side ran from its own checkout. "
                "Values are perfbench's rescaled end-to-end metrics; 'host' holds the raw host figures. "
                "Quartiles are inclusive quartiles over the runs. change_wins counts pairs where the change "
                "is better; median_change is (change - parent) / parent of the medians."
            ),
            "commits": {f"{s}_src_sha256": src_digest(checkouts[s]) for s in SIDES},
            "context": {
                "python": platform.python_version(),
                "nproc": os.cpu_count(),
                "seed": args.seed,
                "seconds": args.seconds,
            },
            "claim": claim_of(summary, *claim) if claim else None,
            "workloads": summary,
        }
        args.out.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
        print(f"pair {k}/{args.pairs} written to {args.out}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
