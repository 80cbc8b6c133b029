"""Self-test of the benchmark harness at its tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file is not named test_*.py, so the repository's own test suite does
not collect it.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def tiny_result(workload: str, trace: int, seed: int = 1) -> dict:
    done = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_prints_every_metric_with_its_unit_and_no_failure(workload, trace, kind):
    result = tiny_result(workload, trace)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0, "fail_ratio must be 0"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"])


def test_traced_counts_repeat_exactly_across_runs():
    counts = [m["name"] for m in SPEC["per_layer"]
              if m["unit"] != "s" and m["name"] != "trace_overhead_ratio"]
    first, second = (tiny_result("saturated_migration", 1)["metrics"] for _ in range(2))
    assert {n: first[n]["value"] for n in counts} == {n: second[n]["value"] for n in counts}
    assert first["simulation.rebalance.calls"]["value"] > 0


def test_exits_nonzero_without_the_program():
    out = ROOT / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=out))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run_bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
        assert done.returncode != 0
        assert done.stdout.strip() == ""
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_reference_check_uses_a_relative_tolerance():
    ref = workloads.load_reference("sparse_least_sil", "tiny")[0]
    close = {k: [v * (1 + 1e-12) for v in vals] for k, vals in ref.items()}
    assert workloads.mismatch(close, ref) is None
    off = {k: list(vals) for k, vals in ref.items()}
    off["isl_tot"][3] *= 1 + 1e-6
    assert "isl_tot[3]" in workloads.mismatch(off, ref)
    assert workloads.mismatch({"isl_tot": ref["isl_tot"][:-1], "efficiency": ref["efficiency"]}, ref)


def test_slowness_blends_kernels_by_interpreted_share():
    import speed

    def measure(name, budget_s, repeats):
        return speed.NOMINAL_S[name] * {"interpreted": 4.0, "numerical": 1.0}[name]

    assert speed.slowness(1.0, measure=measure) == 4.0
    assert speed.slowness(0.0, measure=measure) == 1.0
    assert math.isclose(speed.slowness(0.5, measure=measure), 2.0)
