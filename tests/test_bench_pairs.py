"""The summary functions and the benchmark check of tools/bench_pairs.py, on made-up runs and checkouts; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "scenario_s", "better": "lower", "bound": 0.25},
    {"name": "ticks_per_s", "better": "higher", "bound": 0.25},
]


def _run(scenario_s, ticks_per_s=1000.0, failed=0):
    return {
        "result": {"failed": failed, "attempted": 4, "metrics": {
            "scenario_s": {"value": scenario_s}, "ticks_per_s": {"value": ticks_per_s}}},
        "host": {"scenario_s": scenario_s},
    }


def _summary(parent, change, parent_ticks=None, change_ticks=None):
    """One workload's summary of paired scenario_s (and ticks_per_s) values."""
    parent_ticks = parent_ticks or [1000.0] * len(parent)
    change_ticks = change_ticks or [1000.0] * len(change)
    runs = {"w": {
        "parent": [_run(s, t) for s, t in zip(parent, parent_ticks)],
        "change": [_run(s, t) for s, t in zip(change, change_ticks)],
    }}
    return bench_pairs.summarise(runs, METRICS, ["w"])


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_claim_is_met_with_nine_wins_and_a_gain_above_the_parent_iqr():
    change = [p - 0.2 for p in PARENT]
    change[3] = PARENT[3] + 0.01  # one pair lost
    claim = bench_pairs.claim_of(_summary(PARENT, change), "w", "scenario_s")
    assert (claim["change_wins"], claim["pairs"]) == (9, 10)
    assert claim["median_difference"] > claim["parent_iqr"]
    assert claim["met"]


def test_claim_is_not_met_with_eight_wins():
    change = [p - 0.2 for p in PARENT]
    change[3] = PARENT[3] + 0.01
    change[5] = PARENT[5] + 0.01
    claim = bench_pairs.claim_of(_summary(PARENT, change), "w", "scenario_s")
    assert claim["change_wins"] == 8
    assert claim["median_difference"] > claim["parent_iqr"]
    assert not claim["met"]


def test_claim_is_not_met_when_the_median_gain_is_within_the_parent_iqr():
    change = [p - 0.01 for p in PARENT]
    claim = bench_pairs.claim_of(_summary(PARENT, change), "w", "scenario_s")
    assert claim["change_wins"] == 10
    assert 0.0 < claim["median_difference"] <= claim["parent_iqr"]
    assert not claim["met"]


def test_claim_is_not_met_when_the_change_fails_more_scenarios(tmp_path, monkeypatch):
    spec = json.dumps({"workloads": [{"name": "w"}], "end_to_end": METRICS})
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    for root in (parent, change):
        (root / "BENCHMARK.json").write_text(spec)
    # the change wins every pair by far more than the parent's IQR, but one of its runs failed a scenario
    runs = {parent: [_run(p) for p in PARENT],
            change: [_run(p - 0.2, failed=int(k == 4)) for k, p in enumerate(PARENT)]}
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *args: runs[checkout].pop(0))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--seed", "1", "--pairs", "10",
            "--claim", "w:scenario_s", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    report = json.loads(out.read_text())
    w = report["workloads"]["w"]
    assert w["failed"] == {"parent": 0, "change": 1} and w["attempted"] == {"parent": 40, "change": 40}
    assert w["failed_share"] == {"parent": 0.0, "change": 1 / 40}
    assert w["more_failures"] is True
    claim = report["claim"]
    assert claim["change_wins"] == 10 and claim["median_difference"] > claim["parent_iqr"]
    assert claim["more_failures"] is True and claim["met"] is False


def test_claim_on_a_higher_is_better_metric_counts_rises_as_gains():
    parent_ticks = [1000.0 + 10.0 * k for k in range(10)]
    summary = _summary(PARENT, PARENT, parent_ticks, [t * 1.5 for t in parent_ticks])
    assert bench_pairs.claim_of(summary, "w", "ticks_per_s")["met"]
    summary = _summary(PARENT, PARENT, parent_ticks, [t * 0.5 for t in parent_ticks])
    claim = bench_pairs.claim_of(summary, "w", "ticks_per_s")
    assert claim["change_wins"] == 0 and claim["median_difference"] < 0 and not claim["met"]


@pytest.mark.parametrize("factor, worse", [(1.3, True), (1.2, False), (0.7, False)])
def test_worse_than_bound_when_lower_is_better(factor, worse):
    entry = _summary(PARENT, [p * factor for p in PARENT])["w"]["metrics"]["scenario_s"]
    assert entry["median_change"] == pytest.approx(factor - 1.0)
    assert entry["worse_than_bound"] is worse


@pytest.mark.parametrize("factor, worse", [(0.7, True), (0.8, False), (1.5, False)])
def test_worse_than_bound_when_higher_is_better(factor, worse):
    ticks = [1000.0] * 10
    entry = _summary(PARENT, PARENT, ticks, [t * factor for t in ticks])["w"]["metrics"]["ticks_per_s"]
    assert entry["median_change"] == pytest.approx(factor - 1.0)
    assert entry["worse_than_bound"] is worse


def test_quartiles_of_a_single_run_are_that_run():
    assert bench_pairs.quartiles([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}


def _checkout(root, run_py="print('run')\n"):
    """A made-up checkout holding only benchmark files, with leftovers in out/ and __pycache__/."""
    (root / "perfbench" / "out").mkdir(parents=True)
    (root / "perfbench" / "__pycache__").mkdir()
    (root / "BENCHMARK.json").write_text('{"workloads": [{"name": "w"}], "end_to_end": []}\n')
    (root / "perfbench" / "run.py").write_text(run_py)
    (root / "perfbench" / "out" / "run-w.json").write_text(str(root))
    (root / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(bytes(str(root), "utf-8"))
    return root


def test_bench_digest_ignores_out_and_pycache(tmp_path):
    a, b = _checkout(tmp_path / "a"), _checkout(tmp_path / "b")
    assert sorted(bench_pairs.bench_files(a)) == ["BENCHMARK.json", "perfbench/run.py"]
    assert bench_pairs.bench_digest(a) == bench_pairs.bench_digest(b)
    (b / "perfbench" / "run.py").write_text("print('other')\n")
    assert bench_pairs.bench_digest(a) != bench_pairs.bench_digest(b)


def test_different_benchmarks_are_refused_before_any_run(tmp_path, monkeypatch, capsys):
    parent = _checkout(tmp_path / "parent")
    change = _checkout(tmp_path / "change", run_py="print('other')\n")
    (change / "perfbench" / "extra.py").write_text("")

    def no_run(*args):
        raise AssertionError("a benchmark ran")

    monkeypatch.setattr(bench_pairs, "run_once", no_run)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(parent), "--change", str(change), "--seed", "1", "--out", str(out)])
    assert exc.value.code != 0
    assert "perfbench/extra.py, perfbench/run.py" in capsys.readouterr().err
    assert not out.exists()


def test_both_bench_digests_are_recorded(tmp_path, monkeypatch):
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: _run(1.0))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--seed", "1", "--pairs", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    commits = json.loads(out.read_text())["commits"]
    assert commits["parent_bench_sha256"] == commits["change_bench_sha256"] == bench_pairs.bench_digest(change)


def test_a_metric_is_unresolved_when_the_parent_spreads_past_its_bound(tmp_path, monkeypatch):
    spec = json.dumps({"workloads": [{"name": "w"}], "end_to_end": METRICS})
    parent, change = _checkout(tmp_path / "parent"), _checkout(tmp_path / "change")
    for root in (parent, change):
        (root / "BENCHMARK.json").write_text(spec)
    # scenario_s: the parent's IQR is 0.5 of its median, past the 0.25 bound, and one
    # change run is worse than the parent's best; ticks_per_s: the same spread, but
    # every change run beats every parent run
    wide = [0.5, 1.0, 1.5, 0.6, 1.4, 0.5, 1.0, 1.5, 0.6, 1.4]
    runs = {
        parent: [_run(s, 1000.0 * s) for s in wide],
        change: [_run(0.45 if k else 0.55, 1600.0) for k in range(10)],
    }
    monkeypatch.setattr(bench_pairs, "run_once", lambda checkout, *args: runs[checkout].pop(0))
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--seed", "1", "--pairs", "10", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    metrics = json.loads(out.read_text())["workloads"]["w"]["metrics"]
    assert metrics["scenario_s"]["parent_iqr_over_median"] > 0.25
    assert metrics["scenario_s"]["change_wins"] == 9
    assert metrics["scenario_s"]["unresolved"] is True
    assert metrics["ticks_per_s"]["parent_iqr_over_median"] > 0.25
    assert metrics["ticks_per_s"]["unresolved"] is False
    # a parent spread within the bound resolves the metric whatever the runs
    narrow = _summary(PARENT, [p * 1.1 for p in PARENT])["w"]["metrics"]["scenario_s"]
    assert narrow["parent_iqr_over_median"] < 0.25 and narrow["unresolved"] is False
