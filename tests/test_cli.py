"""Command-line behaviour: outputs, exit codes, reproducibility."""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import mfload
from mfload import traffic
from mfload.cli import main
from mfload.config import _KEYS
from mfload.fractal import mfdfa
from mfload.traffic import generate_fgn, read_series_csv

FAST_SIM = """\
[traffic]
kind = fgn
hurst = 0.7

[cluster]
servers = 4

[sim]
name = cli-check
horizon = 1024
window = 64
arrival_scale = 0.3
seed = 5
"""


def _run(argv):
    return main(argv)


# ----------------------------------------------------------------- generate


def test_generate_writes_series(tmp_path, capsys):
    out = tmp_path / "g"
    assert _run(["generate", "--hurst", "0.7", "--length", "4096",
                 "--seed", "2", "--out", str(out)]) == 0
    lines = (out / "series.csv").read_text().splitlines()
    assert lines[0] == "tick,value"
    assert len(lines) == 4097
    assert "wrote" in capsys.readouterr().out


def test_generate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert _run(["generate", "--hurst", "0.8", "--length", "2048",
                     "--seed", "3", "--out", str(out)]) == 0
    assert (a / "series.csv").read_bytes() == (b / "series.csv").read_bytes()


def test_generate_validation(tmp_path, capsys):
    assert _run(["generate", "--hurst", "0.7", "--length", "10",
                 "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err
    assert _run(["generate", "--length", "128"]) == 1  # --hurst is required
    assert _run(["generate", "--hurst", "0.7", "--frobnicate", "1"]) == 1


def test_generate_calibrated_series_past_the_probe_depth(tmp_path):
    # calibration probes at depth 14 (16384 ticks); a longer series needs more
    out = tmp_path / "g"
    assert _run(["generate", "--hurst", "0.8", "--delta-h", "1.0", "--length", "32768",
                 "--out", str(out)]) == 0
    assert len((out / "series.csv").read_text().splitlines()) == 32769


@pytest.mark.parametrize("argv, named", [
    (["--hurst", "1.2", "--delta-h", "1.0"], "--hurst: must lie in (0.5, 1), got 1.2"),
    (["--hurst", "1.2"], "--hurst: must lie in (0, 1), got 1.2"),
    (["--hurst", "0.7", "--delta-h", "5"], "--delta-h: must lie in [0, 4], got 5.0"),
    (["--hurst", "0.7", "--delta-h", "-1"], "--delta-h: must lie in [0, 4], got -1.0"),
], ids=["calibrated-hurst", "fgn-hurst", "delta-h-above", "delta-h-negative"])
def test_generate_out_of_range_target_names_its_option(tmp_path, capsys, argv, named):
    out = tmp_path / "g"
    assert _run(["generate", *argv, "--length", "1024", "--out", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--hurst", "0.7"], ["--hurst", "0.7", "--delta-h", "1.0"]],
                         ids=["fgn", "calibrated"])
def test_generate_too_long_a_series_names_length(tmp_path, capsys, argv):
    # 2^24 ticks is the deepest dyadic draw; past it numpy once failed to allocate with a traceback
    out = tmp_path / "g"
    assert _run(["generate", *argv, "--length", "100000000000", "--out", str(out)]) == 1
    assert "--length: must lie in [64, 16777216] ticks, got 100000000000" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------------------ analyze


def test_analyze_round_trip(tmp_path, capsys):
    gen_out = tmp_path / "g"
    assert _run(["generate", "--hurst", "0.7", "--length", "16384",
                 "--seed", "0", "--out", str(gen_out)]) == 0
    ana_out = tmp_path / "a"
    assert _run(["analyze", str(gen_out / "series.csv"), "--out", str(ana_out)]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert summary.startswith("# H=")
    h = float(summary.split()[1].split("=")[1])
    # the 12-digit CSV round trip must not move the estimate
    direct = mfdfa(generate_fgn(0.7, 16384, seed=0).values)
    assert abs(h - direct.h_at(2.0)) < 1e-6
    assert abs(h - 0.7) <= 0.1
    assert (ana_out / "spectrum.csv").exists()


def test_analyze_custom_q_grid(tmp_path):
    gen_out = tmp_path / "g"
    _run(["generate", "--hurst", "0.6", "--length", "2048", "--out", str(gen_out)])
    ana_out = tmp_path / "a"
    assert _run(["analyze", str(gen_out / "series.csv"), "--q-min", "-3",
                 "--q-max", "3", "--q-steps", "7", "--out", str(ana_out)]) == 0
    lines = (ana_out / "spectrum.csv").read_text().splitlines()
    # linspace(-3, 3, 7) already contains 2.0; header + 7 rows + summary
    assert len(lines) == 9


@pytest.mark.parametrize("flag, value", [("--q-min", "nan"), ("--q-max", "inf"), ("--q-min", "-inf")])
def test_analyze_rejects_a_non_finite_q_bound(tmp_path, capsys, flag, value):
    gen_out = tmp_path / "g"
    _run(["generate", "--hurst", "0.6", "--length", "2048", "--out", str(gen_out)])
    capsys.readouterr()
    ana_out = tmp_path / "a"
    assert _run(["analyze", str(gen_out / "series.csv"), f"{flag}={value}", "--out", str(ana_out)]) == 1
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert not (ana_out / "spectrum.csv").exists()


def test_analyze_rejects_q_bounds_past_the_float_range_apart(tmp_path, capsys):
    # linspace once overflowed on the span, warned twice and then named a grid the user never gave
    gen_out = tmp_path / "g"
    _run(["generate", "--hurst", "0.6", "--length", "2048", "--out", str(gen_out)])
    capsys.readouterr()
    ana_out = tmp_path / "a"
    argv = ["analyze", str(gen_out / "series.csv"), "--q-min=-1e308", "--q-max=1e308", "--out", str(ana_out)]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: --q-min and --q-max must lie a finite distance apart, got -1e+308 and 1e+308\n")
    assert not (ana_out / "spectrum.csv").exists()


@pytest.mark.parametrize("steps", ["1", "1000000000000000"])
def test_analyze_rejects_q_steps_outside_its_range(tmp_path, capsys, steps):
    # a huge count once died in np.linspace with a numpy memory traceback
    gen_out = tmp_path / "g"
    _run(["generate", "--hurst", "0.6", "--length", "2048", "--out", str(gen_out)])
    capsys.readouterr()
    ana_out = tmp_path / "a"
    assert _run(["analyze", str(gen_out / "series.csv"), "--q-steps", steps, "--out", str(ana_out)]) == 1
    assert f"--q-steps must lie in [2, 1000], got {steps}" in capsys.readouterr().err
    assert not (ana_out / "spectrum.csv").exists()


def test_analyze_non_finite_spectrum_is_a_runtime_error(tmp_path, capsys):
    # the q = -400 moment overflows; its NaN row was once written with exit 0,
    # and numpy's overflow warnings were once printed above the error line.
    # A fresh interpreter shows warnings as a user would see them.
    gen_out = tmp_path / "g"
    _run(["generate", "--hurst", "0.7", "--length", "2048", "--seed", "3", "--out", str(gen_out)])
    capsys.readouterr()
    ana_out = tmp_path / "a"
    argv = ["analyze", str(gen_out / "series.csv"), "--q-min=-400", "--q-max=400", "--out", str(ana_out)]
    env = dict(os.environ, PYTHONPATH=str(Path(mfload.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "mfload.cli", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr == "error: h(q) at q=-400 is not finite; the q-th moment left the float range\n"
    assert not (ana_out / "spectrum.csv").exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("unit", [1e300, 1e-300])
def test_analyze_series_past_the_float_range_is_one_runtime_error(tmp_path, capsys, unit):
    # x 1e300 once printed numpy's overflow warning, then failed at q = -5;
    # x 1e-300 once read as a series whose fluctuations vanish
    values = np.random.default_rng(4).random(2048) * unit
    series = tmp_path / "series.csv"
    series.write_text("tick,value\n" + "".join(f"{t},{v!r}\n" for t, v in enumerate(values.tolist())))
    assert _run(["analyze", str(series), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: squared fluctuations left the float range; rescale the series\n"
    assert not (tmp_path / "o").exists()


def test_analyze_error_codes(tmp_path, capsys):
    assert _run(["analyze", str(tmp_path / "missing.csv")]) == 1
    flat = tmp_path / "flat.csv"
    flat.write_text("tick,value\n" + "".join(f"{t},1.0\n" for t in range(2048)))
    assert _run(["analyze", str(flat), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_analyze_rejects_rows_out_of_tick_order(tmp_path, capsys):
    # sorted by value, a 2048-tick fGn once measured H = 1.6 instead of 0.7
    values = generate_fgn(0.7, 2048, seed=1).values
    shuffled = tmp_path / "sorted.csv"
    order = np.argsort(values, kind="stable").tolist()
    shuffled.write_text("tick,value\n" + "".join(f"{t},{values[t]:.12g}\n" for t in order))
    assert _run(["analyze", str(shuffled), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: {shuffled}:2: expected tick 0, got '{order[0]}'\n"
    assert not (tmp_path / "o").exists()


def test_analyze_non_numeric_value_names_file_and_line(tmp_path, capsys):
    # each bad file's text and the line its one error names
    for name, text, line in (("bad.csv", "tick,value\n0,1.0\n1,abc\n", 3),
                             ("semicolon.csv", "tick;value\n0;1.0\n", 1),
                             ("empty.csv", "", 1)):
        bad = tmp_path / name
        bad.write_text(text)
        assert _run(["analyze", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert f"{bad}:{line}:" in capsys.readouterr().err


@pytest.mark.parametrize("case", ("generate_out_is_a_file", "simulate_config_is_a_directory",
                                  "analyze_series_is_a_directory", "config_is_not_utf8",
                                  "series_is_not_utf8"))
def test_os_and_decoding_errors_are_one_line_and_exit_1(tmp_path, capsys, case):
    taken = tmp_path / "taken"
    taken.write_text("")
    latin1 = tmp_path / "latin1.ini"
    latin1.write_bytes("[sim]\nname = caf\u00e9\n".encode("latin-1"))
    latin1_csv = tmp_path / "latin1.csv"
    latin1_csv.write_bytes("tick,value\n0,1.0\n1,caf\u00e9\n".encode("latin-1"))
    # each case's argv and the path its one error line names
    argv, named = {
        "generate_out_is_a_file": (["generate", "--hurst", "0.7", "--length", "256", "--out", str(taken)], taken),
        "simulate_config_is_a_directory": (["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "o")],
                                           tmp_path),
        "analyze_series_is_a_directory": (["analyze", str(tmp_path), "--out", str(tmp_path / "o")], tmp_path),
        "config_is_not_utf8": (["simulate", "--config", str(latin1), "--out", str(tmp_path / "o")], latin1),
        "series_is_not_utf8": (["analyze", str(latin1_csv), "--out", str(tmp_path / "o")], latin1_csv),
    }[case]
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(named) in err


# ----------------------------------------------------------------- simulate


def test_simulate_outputs_and_determinism(tmp_path, capsys):
    cfg = tmp_path / "run.ini"
    cfg.write_text(FAST_SIM)
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert _run(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    for name in ("series.csv", "report.csv", "sil.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()

    report = (a / "report.csv").read_text().splitlines()
    assert report[0] == "tick,isl_cpu,isl_ram,isl_net,ibl_tot,isl_tot,efficiency"
    assert len(report) == 1 + 1024 // 64 + 1  # header, one row per window, summary
    assert report[-1].startswith("# scenario=cli-check H=")

    manifest = json.loads((a / "manifest.json").read_text())
    assert manifest["scenario"] == "cli-check"
    assert manifest["outputs"] == ["report.csv", "series.csv", "sil.csv"]
    assert set(manifest["measured"]) == {"hurst", "delta_h"}
    assert len(manifest["config_digest"]) == 64
    assert "mean_isl_tot" in capsys.readouterr().out

    values = read_series_csv(a / "series.csv")
    assert len(values) == 1024


def test_simulate_cascade_at_the_default_arrival_scale_is_not_empty(tmp_path, capsys):
    # a cascade is unit-mean like every other kind, so the default scale drives a live run
    cfg = tmp_path / "cascade.ini"
    cfg.write_text("[traffic]\nkind = cascade\nspread = 0.5\n")
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    mean = float(capsys.readouterr().out.split("mean_isl_tot=")[1])
    assert mean > 0.0


def test_simulate_seed_override_changes_draws(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(FAST_SIM)
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert _run(["simulate", "--config", str(cfg), "--seed", "99", "--out", str(b)]) == 0
    assert (a / "report.csv").read_bytes() != (b / "report.csv").read_bytes()


def test_simulate_seed_override_is_the_run_of_the_file_with_that_seed(tmp_path):
    # the default composite record draws at sim.seed, so --seed must reach it as well as the run
    runs = {}
    for name, seed, flags in (("flag", 1, ["--seed", "7"]), ("file", 7, [])):
        cfg = tmp_path / f"{name}.ini"
        cfg.write_text(f"[sim]\nhorizon = 1024\nseed = {seed}\n")
        assert _run(["simulate", "--config", str(cfg), *flags, "--out", str(tmp_path / name)]) == 0
        runs[name] = {f: (tmp_path / name / f).read_bytes() for f in ("series.csv", "report.csv", "sil.csv")}
        runs[name]["digest"] = json.loads((tmp_path / name / "manifest.json").read_text())["config_digest"]
    assert runs["flag"] == runs["file"]


def test_simulate_config_errors(tmp_path, capsys):
    assert _run(["simulate", "--config", str(tmp_path / "nope.ini")]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[weights]\na = 0.5\nb = 0.5\nc = 0.5\n")
    assert _run(["simulate", "--config", str(bad)]) == 1
    assert "error: weights.a + weights.b + weights.c: must equal 1, got 1.5\n" in capsys.readouterr().err
    typo = tmp_path / "typo.ini"
    typo.write_text("[sim]\nhorzon = 1024\n")
    assert _run(["simulate", "--config", str(typo)]) == 1
    assert "sim.horzon: unknown key" in capsys.readouterr().err
    # MF-DFA needs 1024 ticks, so a shorter run is refused before any traffic is made
    short = tmp_path / "short.ini"
    short.write_text("[sim]\nhorizon = 512\n")
    assert _run(["simulate", "--config", str(short), "--out", str(tmp_path / "o")]) == 1
    assert "sim.horizon" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text", ["[traffic]\nkind = fgn\n[sim]\nhorizon = 100000000000\n",
                                  "[sim]\nhorizon = 33554432\n"], ids=["fgn", "composite"])
def test_simulate_too_long_a_horizon_names_the_key(tmp_path, capsys, text):
    cfg = tmp_path / "long.ini"
    cfg.write_text(text)
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "sim.horizon: must lie in [1024, 16777216] ticks" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_malformed_server_id_names_key(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[cluster]\nserver_x = 1,8,4\n")
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "cluster.server_x" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,value,named",
    [
        ("sim", "arrival_scale", "nan", "arrival_scale"),
        ("sim", "arrival_scale", "inf", "arrival_scale"),
        ("sim", "arrival_scale", "1e300", "arrival_scale"),
        ("weights", "a", "nan", "weights.a"),
        ("policy", "migration_threshold", "nan", "migration_threshold"),
        ("demand", "cpu_mean", "nan", "cpu_mean"),
        ("demand", "classes", "0.5:nan:1 0.5:1:1", "demand.classes"),
        ("cluster", "ram_capacity", "nan", "ram_capacity"),
        ("traffic", "spread", "nan", "spread"),
        ("traffic", "spread", "inf", "spread"),
    ],
)
def test_simulate_rejects_non_finite_numbers(tmp_path, capsys, section, key, value, named):
    cfg = tmp_path / "nonfinite.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.csv").exists()


def test_simulate_arrival_mean_above_the_cap_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "flood.ini"
    cfg.write_text(FAST_SIM.replace("arrival_scale = 0.3", "arrival_scale = 1e300"))
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: sim.arrival_scale: ")
    assert not (tmp_path / "o").exists()


def test_simulate_demand_past_the_float_range_clips_to_its_maximum(tmp_path):
    # math.exp overflows on some cpu draws; they clip to cpu_max as lognormal's inf did
    cfg = tmp_path / "huge.ini"
    cfg.write_text("[demand]\ncpu_mean = 1e308\ncpu_sigma = 3\n[sim]\nhorizon = 4096\n")
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    digest = hashlib.sha256((tmp_path / "o" / "report.csv").read_bytes()).hexdigest()
    assert digest == "e89ddfb2e15f504781ad2d55215c65f4157ab2b31c9fb8f0df531c82c989e9da"


@pytest.mark.parametrize("text, message", [
    ("[demand]\nduration_mean = 1e17\n",
     "duration_mean: mean duration 1e+17 ticks rounds geometric q = 1 - 1/mean to 1"),
    ("[demand]\nclasses = 1.0:1.0:1e17\n",
     "demand.classes[0]: mean duration 9.6e+18 ticks rounds geometric q = 1 - 1/mean to 1"),
    ("[demand]\ncpu_sigma = 1e155\n", "demand.cpu_sigma: must be non-negative with a finite square, got 1e+155"),
    ("[cluster]\ncpu_count = " + "9" * 401 + "\n", "cluster.cpu_count: must lie in [1, 1e308], got 999"),
], ids=["duration-mean", "class-duration-scale", "sigma-square", "cpu-count"])
def test_simulate_rejects_values_that_would_break_the_run(tmp_path, capsys, text, message):
    cfg = tmp_path / "edge.ini"
    cfg.write_text(text + "[sim]\nhorizon = 1024\n")
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_calibration_failure_is_runtime_error(tmp_path):
    cfg = tmp_path / "hard.ini"
    cfg.write_text(
        "[traffic]\nkind = calibrate\nhurst = 0.52\ndelta_h = 4.0\nbudget = 2\n"
        "[sim]\nhorizon = 1024\n"
    )
    out = tmp_path / "o"
    assert _run(["simulate", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()  # a failed run leaves no output directory


def test_simulate_too_shallow_depth_leaves_no_output_directory(tmp_path, capsys):
    # rejected while the config is read, naming both keys
    cfg = tmp_path / "shallow.ini"
    cfg.write_text("[traffic]\nkind = composite\ndepth = 12\n")
    out = tmp_path / "o"
    assert _run(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
    assert "traffic.depth: 12 yields 4096 ticks < sim.horizon = 16384" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_zero_calibration_budget_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "nobudget.ini"
    cfg.write_text(
        "[traffic]\nkind = calibrate\nhurst = 0.7\ndelta_h = 0.5\nbudget = 0\n"
        "[sim]\nhorizon = 1024\n"
    )
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "traffic.budget: must be a positive integer, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("key, value, message", [
    ("hurst", "1.2", "traffic.hurst: must lie in (0.5, 1), got 1.2"),
    ("delta_h", "4.5", "traffic.delta_h: must lie in [0, 4], got 4.5"),
])
def test_simulate_out_of_range_calibration_target_names_its_key(tmp_path, capsys, key, value,
                                                                message):
    targets = {"hurst": "0.7", "delta_h": "1.5", key: value}
    cfg = tmp_path / "target.ini"
    cfg.write_text("[traffic]\nkind = calibrate\n"
                   + "".join(f"{k} = {v}\n" for k, v in targets.items()))
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("text, named", [
    # values the chosen kind or command does not read are still parsed and checked
    ("[traffic]\nkind = cascade\nhurst = abc\n", "traffic.hurst: expected a number, got 'abc'"),
    ("[traffic]\nkind = fgn\nbudget = 0\n", "traffic.budget: must be a positive integer, got 0"),
    ("[sweep]\nbudget = zero\n", "sweep.budget: expected an integer, got 'zero'"),
    ("[sweep]\ngrid = 0.6:9\n", "sweep.grid: cell '0.6:9': delta_h: must lie in [0, 4]"),
    ("[sweep]\ngrid = 0.6:1.5 0.6000001:1.5\n",
     "sweep.grid: cells 0.6:1.5 and 0.6000001:1.5 both write h0.6_dh1.5"),
    ("[sweep]\ngrid = ,\n", "sweep.grid: no cells given"),
    ("[sweep]\nbudget = 8\n", "sweep.grid: no cells given"),
    ("[cluster]\nserver_0 = 8, 64, 32\ncpu_count = 2\n",
     "cluster: give either per-server lines or the homogeneous shorthand"),
    # a record checks every knob it is given before it drops those its kind ignores
    ("[traffic]\nkind = composite\ndelta_h = 9\n", "traffic.delta_h: must lie in [0, 4], got 9.0"),
    ("[traffic]\nkind = fgn\nspread = -1\n", "traffic.spread: must be finite and positive, got -1.0"),
    ("[traffic]\nkind = fgn\ndepth = 99\n", "traffic.depth: must lie in [1, 24], got 99"),
    ("[traffic]\nkind = cascade\nhurst = 7\n", "traffic.hurst: must lie in (0, 1), got 7.0"),
    ("[traffic]\nkind = calibrate\nhurst = 0.7\ndelta_h = 1\ndepth = 30\n",
     "traffic.depth: must lie in [5, 24], got 30"),
], ids=["cascade-hurst", "fgn-budget", "sweep-budget", "sweep-grid", "sweep-grid-collision",
        "sweep-grid-empty", "sweep-grid-missing", "server-and-shorthand",
        "composite-delta-h", "fgn-spread", "fgn-depth", "cascade-hurst-range", "calibrate-depth"])
def test_simulate_rejects_bad_values_its_run_ignores(tmp_path, capsys, text, named):
    cfg = tmp_path / "ignored.ini"
    cfg.write_text(text)
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv, text, named", [
    (["simulate"], "[sim]\nseed = -1\n", "sim.seed: must be a non-negative integer, got -1"),
    (["simulate", "--seed", "-2"], "", "--seed: must be a non-negative integer, got -2"),
    (["generate", "--hurst", "0.7", "--seed", "-1"], None,
     "--seed: must be a non-negative integer, got -1"),
    (["simulate"], "[sim]\nwindow = 0\n", "sim.window: must satisfy 1 <= window <= horizon"),
], ids=["config-seed", "simulate-seed", "generate-seed", "config-window"])
def test_out_of_range_run_value_names_its_key_or_option(tmp_path, capsys, argv, text, named):
    if text is not None:
        cfg = tmp_path / "run.ini"
        cfg.write_text(text)
        argv = [*argv, "--config", str(cfg)]
    assert _run([*argv, "--out", str(tmp_path / "o")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("name", ["alpha\n  beta = 1", "tab\tname"], ids=["continuation-line", "tab"])
def test_simulate_rejects_a_name_that_is_not_one_printable_line(tmp_path, capsys, name):
    # an indented INI line continues the name; it once landed in report.csv as a data row
    cfg = tmp_path / "named.ini"
    cfg.write_text(FAST_SIM.replace("name = cli-check", f"name = {name}"))
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert "sim.name: must be one printable line, got " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_simulate_duplicate_server_ids_name_both_keys(tmp_path, capsys):
    cfg = tmp_path / "dup.ini"
    cfg.write_text("[cluster]\nserver_1 = 2, 16, 8\nserver_01 = 4, 32, 16\n")
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: cluster.server_01: duplicate server id 1, also cluster.server_1\n"
    assert not (tmp_path / "o").exists()


# one out-of-range value for every key of every section
BAD_VALUES = {
    ("traffic", "kind"): "sine",
    ("traffic", "hurst"): "1.5",
    ("traffic", "delta_h"): "9",
    ("traffic", "budget"): "0",
    ("traffic", "depth"): "30",
    ("traffic", "spread"): "-1",
    ("cluster", "servers"): "0",
    ("cluster", "cpu_count"): "0",
    ("cluster", "ram_capacity"): "-1",
    ("cluster", "net_capacity"): "0",
    ("weights", "a"): "-0.5",
    ("weights", "b"): "nan",
    ("weights", "c"): "inf",
    ("policy", "kind"): "greedy",
    ("policy", "migration_threshold"): "-1",
    ("sim", "name"): "tab\tname",
    ("sim", "horizon"): "512",
    ("sim", "window"): "0",
    ("sim", "arrival_scale"): "-1",
    ("sim", "seed"): "-1",
    ("demand", "cpu_mean"): "-1",
    ("demand", "cpu_sigma"): "-1",
    ("demand", "ram_mean"): "0",
    ("demand", "ram_sigma"): "nan",
    ("demand", "net_mean"): "inf",
    ("demand", "net_sigma"): "1e155",
    ("demand", "duration_mean"): "0.5",
    ("demand", "cpu_max"): "0",
    ("demand", "ram_max"): "-2",
    ("demand", "net_max"): "nan",
    ("demand", "classes"): "0.5:1:1 0.2:1:1",
    ("sweep", "grid"): "0.6:9",
    ("sweep", "budget"): "0",
}


def test_simulate_weights_summing_off_one_name_every_weight_key(tmp_path, capsys):
    # each weight lies in range on its own, so the rejection is of the three keys together
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[weights]\na = 1.0\n")
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == (
        "error: weights.a + weights.b + weights.c: must equal 1, got 1.6666666666666665\n")
    assert not (tmp_path / "o").exists()


def test_bad_values_cover_every_config_key():
    assert set(BAD_VALUES) == {(section, key) for section, keys in _KEYS.items() for key in keys}


@pytest.mark.parametrize("section, key", sorted(BAD_VALUES), ids=[f"{s}.{k}" for s, k in sorted(BAD_VALUES)])
def test_simulate_out_of_range_value_names_its_key_path(tmp_path, capsys, section, key):
    cfg = tmp_path / "bad.ini"
    cfg.write_text(f"[{section}]\n{key} = {BAD_VALUES[section, key]}\n")
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {section}.{key}: ")
    assert not (tmp_path / "o").exists()


def test_default_section_is_rejected_by_its_own_name(tmp_path, capsys):
    # configparser would copy [DEFAULT] keys into [traffic] and blame traffic.seed
    cfg = tmp_path / "defaults.ini"
    cfg.write_text("[DEFAULT]\nseed = 3\n[traffic]\nkind = fgn\n")
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "DEFAULT: unknown section (keys: seed)" in err
    assert "traffic.seed" not in err


# -------------------------------------------------------------------- sweep


def test_sweep_grid_summary(tmp_path):
    cfg = tmp_path / "sweep.ini"
    cfg.write_text(
        FAST_SIM + "\n[sweep]\ngrid = 0.7:0.05 0.6:0.05\nbudget = 16\n"
    )
    out = tmp_path / "s"
    assert _run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0] == (
        "scenario,H_target,dH_target,H_measured,dH_measured,"
        "mean_isl_tot_final_quarter,cv_isl_tot_final_half"
    )
    names = [row.split(",")[0] for row in lines[1:]]
    assert names == ["h0.6_dh0.05", "h0.7_dh0.05"]  # sorted, not input order
    for name in names:
        cell = out / name
        assert (cell / "report.csv").exists()
        assert (cell / "manifest.json").exists()
        manifest = json.loads((cell / "manifest.json").read_text())
        assert manifest["scenario"] == name
    row = lines[1].split(",")
    assert float(row[1]) == 0.6
    assert np.isfinite(float(row[5])) and float(row[6]) >= 0.0


def test_sweep_without_arrivals_summarizes_cv_as_zero(tmp_path):
    # every window's ISL is 0, so the final half's cv would divide by a zero mean
    cfg = tmp_path / "idle.ini"
    cfg.write_text(FAST_SIM.replace("arrival_scale = 0.3", "arrival_scale = 1e-300")
                   + "\n[sweep]\ngrid = 0.7:0.05\nbudget = 16\n")
    out = tmp_path / "s"
    assert _run(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
    row = (out / "summary.csv").read_text().splitlines()[1].split(",")
    assert row[0] == "h0.7_dh0.05"
    assert row[5:] == ["0", "0"]


def test_sweep_requires_grid_section(tmp_path, capsys):
    cfg = tmp_path / "nosweep.ini"
    cfg.write_text(FAST_SIM)
    assert _run(["sweep", "--config", str(cfg)]) == 1
    assert "sweep" in capsys.readouterr().err


def test_sweep_rejects_an_empty_grid(tmp_path, capsys):
    cfg = tmp_path / "empty.ini"
    cfg.write_text(FAST_SIM + "\n[sweep]\ngrid = ,\n")
    out = tmp_path / "s"
    assert _run(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert "sweep.grid" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


def test_sweep_rejects_cells_whose_names_collide(tmp_path, capsys):
    cfg = tmp_path / "collide.ini"
    cfg.write_text(FAST_SIM + "\n[sweep]\ngrid = 0.6:1.5 0.6000001:1.5\n")
    out = tmp_path / "s"
    assert _run(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "sweep.grid" in err and "0.6:1.5" in err and "0.6000001:1.5" in err
    assert not out.exists()


@pytest.mark.parametrize("grid, message", [
    ("0.6:1.5 0.4:1.5", "sweep.grid: cell '0.4:1.5': hurst: must lie in (0.5, 1), got 0.4"),
    ("0.6:9", "sweep.grid: cell '0.6:9': delta_h: must lie in [0, 4], got 9.0"),
])
def test_sweep_out_of_range_cell_names_the_cell(tmp_path, capsys, grid, message):
    cfg = tmp_path / "range.ini"
    cfg.write_text(FAST_SIM + f"\n[sweep]\ngrid = {grid}\n")
    out = tmp_path / "s"
    assert _run(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()  # rejected before any cell runs


def test_sweep_zero_budget_names_its_key(tmp_path, capsys):
    cfg = tmp_path / "nobudget.ini"
    cfg.write_text(FAST_SIM + "\n[sweep]\ngrid = 0.7:0.05\nbudget = 0\n")
    assert _run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 1
    assert "sweep.budget" in capsys.readouterr().err


def test_sweep_whose_first_cell_fails_leaves_no_output_directory(tmp_path):
    cfg = tmp_path / "hard.ini"
    cfg.write_text(FAST_SIM + "\n[sweep]\ngrid = 0.52:4.0\nbudget = 2\n")
    out = tmp_path / "s"
    assert _run(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


def test_sweep_calibration_failure_names_the_cell(tmp_path, capsys):
    cfg = tmp_path / "hard.ini"
    cfg.write_text(FAST_SIM + "\n[sweep]\ngrid = 0.52:4.0\nbudget = 2\n")
    assert _run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
    assert "error: sweep.grid: cell 0.52:4.0: calibration exhausted budget 2" in capsys.readouterr().err


def test_sweep_generates_each_distinct_probe_once(tmp_path, monkeypatch):
    # a composite probe is composed from the envelope of its exponent, so the
    # envelope object it is handed names that exponent; each drawn envelope
    # is kept alive here, so no later object takes over its id
    calls = Counter()
    drawn = {}
    envelope, compose = traffic._envelope, traffic._compose

    def drawn_envelope(depth, hurst, noise):
        env = envelope(depth, hurst, noise)
        drawn[id(env)] = (env, hurst)
        return env

    def counted(env, depth, spread, seed):
        calls[(depth, drawn[id(env)][1], spread, seed)] += 1
        return compose(env, depth, spread, seed)

    monkeypatch.setattr(traffic, "_envelope", drawn_envelope)
    monkeypatch.setattr(traffic, "_compose", counted)
    cfg = tmp_path / "pair.ini"
    cfg.write_text(FAST_SIM + "\n[sweep]\ngrid = 0.6:1.5 0.6:2.5 0.9:2.5 0.9:2.4\n")
    assert _run(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
    # the coarse grid is tabulated, so the first two cells compose no probe; 0.9:2.5
    # composes its 34 local probes, and 0.9:2.4 visits 14 of them again, from the memo
    # (the other compositions are the four cells' run series, at the run seed)
    assert sum(key[3] == traffic._PROBE_SEED for key in calls) == 34
    assert len(calls) == 34 + 4
    assert max(calls.values()) == 1


# ------------------------------------------------------------------- parser


def test_unknown_command_and_empty_argv(capsys):
    assert _run(["frobnicate"]) == 1
    assert _run([]) == 1
    capsys.readouterr()
