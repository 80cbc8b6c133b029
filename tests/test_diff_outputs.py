"""tools/diff_outputs.py on made-up output trees; its CLI and demo runners are stubbed, so no command runs."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from mfload.config import parse_config
from mfload.simulation import DemandParams, Policy, PolicyKind

_PATH = Path(__file__).resolve().parents[1] / "tools" / "diff_outputs.py"
_SPEC = importlib.util.spec_from_file_location("diff_outputs", _PATH)
diff_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(diff_outputs)


def _manifest(hurst=0.75, start="2026-01-01T00:00:00+00:00"):
    return {"scenario": "s", "measured": {"hurst": hurst, "delta_h": 1.5},
            "outputs": ["report.csv"], "timestamps": {"start": start, "end": start}}


def _stub(monkeypatch, outputs, stdout=None):
    """Stub the runners: each command writes `outputs[side](name)`, a {file: text or manifest dict} map,
    and the demo writes `stdout[side]`."""
    stdout = stdout or {"parent": "policy isl_tot\n", "change": "policy isl_tot\n"}
    calls = []

    def fake_run_demo(checkout, demo, out):
        calls.append((checkout.name, out.name, [demo]))
        out.mkdir(parents=True)
        (out / "stdout.txt").write_text(stdout[checkout.name])

    def fake_run_cli(checkout, args, out):
        side, name = checkout.name, out.name
        calls.append((side, name, list(args)))
        out.mkdir(parents=True)
        for rel, content in outputs[side](name).items():
            (out / rel).write_text(content if isinstance(content, str) else json.dumps(content))

    monkeypatch.setattr(diff_outputs, "run_cli", fake_run_cli)
    monkeypatch.setattr(diff_outputs, "run_demo", fake_run_demo)
    return calls


def _same(name):
    return {"report.csv": f"tick,{name}\n0,1\n", "manifest.json": _manifest()}


def _main(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    return diff_outputs.main(["--parent", str(parent), "--change", str(change)])


def test_identical_outputs_exit_0_after_every_command_in_both_checkouts(tmp_path, monkeypatch, capsys):
    calls = _stub(monkeypatch, {"parent": _same, "change": lambda name: {
        **_same(name), "manifest.json": _manifest(start="2026-06-01T12:00:00+00:00")}})
    read, stubbed = {"simulate_dense_migration": [], "simulate_huge_demand": []}, diff_outputs.run_cli

    def reading_run_cli(checkout, args, out):
        # the config files live only while main runs, so read them here
        if out.name in read:
            read[out.name].append((args[2], parse_config(args[2])))
        stubbed(checkout, args, out)

    monkeypatch.setattr(diff_outputs, "run_cli", reading_run_cli)
    assert _main(tmp_path) == 0
    assert capsys.readouterr().out.strip() == "17 files in both trees, 0 differences"
    names = [name for name, _ in diff_outputs.COMMANDS] + ["policy_faceoff", "traffic_width",
                                                           "grid_ordering"]
    assert [(side, name) for side, name, _ in calls] == [(s, n) for s in ("parent", "change") for n in names]
    for side, name, args in calls:
        if name.startswith("analyze"):
            # each checkout analyzes the series its own generate command wrote
            series = Path(args[1])
            assert series.name == "series.csv" and series.parent.name == "generate"
            assert series.parent.parent.name == side
    # both checkouts read one dense threshold_migration config and one past-the-float-range demand config
    configs = {}
    for name, ((path, config), (change_path, change_config)) in read.items():
        assert path == change_path and config == change_config
        configs[name] = config
    dense, huge = configs["simulate_dense_migration"], configs["simulate_huge_demand"]
    assert dense.policy == Policy(PolicyKind.THRESHOLD_MIGRATION, 0.001)
    assert (dense.arrival_scale, dense.horizon, dense.seed) == (1.0, 4096, 3)
    assert huge.demand_params == DemandParams(cpu_mean=1e308, cpu_sigma=3.0)
    assert (huge.policy, huge.horizon) == (Policy(), 4096)


def test_a_csv_byte_differs(tmp_path, monkeypatch, capsys):
    _stub(monkeypatch, {"parent": _same, "change": lambda name: {
        **_same(name), "report.csv": f"tick,{name}\n0,1.0\n" if name == "sweep" else f"tick,{name}\n0,1\n"}})
    assert _main(tmp_path) == 1
    assert capsys.readouterr().out.splitlines()[0] == "sweep/report.csv: bytes differ"


def test_a_manifest_float_is_reported_in_ulps(tmp_path, monkeypatch, capsys):
    moved = math.nextafter(math.nextafter(0.75, 1.0), 1.0)
    _stub(monkeypatch, {"parent": _same, "change": lambda name: {
        **_same(name), "manifest.json": _manifest(hurst=moved if name == "simulate" else 0.75)}})
    assert _main(tmp_path) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"simulate/manifest.json.measured.hurst: 0.75 -> {moved!r} (2 ulps)"
    assert out[-1] == "17 files in both trees, 1 differences"


def test_the_demo_stdout_is_compared_byte_for_byte(tmp_path, monkeypatch, capsys):
    calls = _stub(monkeypatch, {"parent": _same, "change": _same},
                  stdout={"parent": "least_sil 0.00100\n", "change": "least_sil 0.00101\n"})
    assert _main(tmp_path) == 1
    assert capsys.readouterr().out.splitlines() == [
        "grid_ordering/stdout.txt: bytes differ", "policy_faceoff/stdout.txt: bytes differ",
        "traffic_width/stdout.txt: bytes differ", "17 files in both trees, 3 differences"]
    assert ("change", "policy_faceoff", ["policy_faceoff"]) in calls
    assert ("change", "traffic_width", ["traffic_width"]) in calls
    assert ("change", "grid_ordering", ["grid_ordering"]) in calls


def test_run_demo_writes_the_demo_stdout(tmp_path, monkeypatch):
    ran = []

    def fake_python(checkout, args):
        ran.append((checkout, args))
        return "policy isl_tot\n"

    monkeypatch.setattr(diff_outputs, "_python", fake_python)
    diff_outputs.run_demo(tmp_path, "policy_faceoff", tmp_path / "out" / "policy_faceoff")
    assert ran == [(tmp_path, ["demos/policy_faceoff.py"])]
    assert (tmp_path / "out" / "policy_faceoff" / "stdout.txt").read_text() == "policy isl_tot\n"


def test_a_file_on_one_side_only(tmp_path, monkeypatch, capsys):
    _stub(monkeypatch, {"parent": _same, "change": lambda name: {
        **_same(name), **({"extra.csv": "x\n"} if name == "generate" else {})}})
    assert _main(tmp_path) == 1
    assert "generate/extra.csv: only in the change" in capsys.readouterr().out.splitlines()


def test_manifest_keys_and_types_are_compared():
    assert diff_outputs.diff_json({"a": 1, "b": [1.0]}, {"a": 1.0, "c": [1.0]}, "m") == [
        "m.b: only in the parent", "m.c: only in the change", "m.a: 1 -> 1.0"]


@pytest.mark.parametrize("a, b, expected", [
    (1.0, math.nextafter(1.0, 2.0), 1),
    (1.0, 1.0, 0),
    (-0.0, 0.0, 0),
    (-5e-324, 5e-324, 2),
    (math.nextafter(2.0, 0.0), 2.0, 1),  # across a binade
    (-1.0, math.nextafter(-1.0, -2.0), 1),
])
def test_ulps(a, b, expected):
    assert diff_outputs.ulps(a, b) == diff_outputs.ulps(b, a) == expected
