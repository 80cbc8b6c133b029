"""Command-line behaviour: outputs, exit codes, reproducibility."""

import json

import numpy as np
import pytest

from mfload.cli import main
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


def test_analyze_error_codes(tmp_path, capsys):
    assert _run(["analyze", str(tmp_path / "missing.csv")]) == 1
    flat = tmp_path / "flat.csv"
    flat.write_text("tick,value\n" + "".join(f"{t},1.0\n" for t in range(2048)))
    assert _run(["analyze", str(flat), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err


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


def test_simulate_seed_override_changes_draws(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(FAST_SIM)
    a, b = tmp_path / "a", tmp_path / "b"
    assert _run(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert _run(["simulate", "--config", str(cfg), "--seed", "99", "--out", str(b)]) == 0
    assert (a / "report.csv").read_bytes() != (b / "report.csv").read_bytes()


def test_simulate_config_errors(tmp_path, capsys):
    assert _run(["simulate", "--config", str(tmp_path / "nope.ini")]) == 1
    bad = tmp_path / "bad.ini"
    bad.write_text("[weights]\na = 0.5\nb = 0.5\nc = 0.5\n")
    assert _run(["simulate", "--config", str(bad)]) == 1
    assert "a + b + c = 1" in capsys.readouterr().err
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
    ],
)
def test_simulate_rejects_non_finite_numbers(tmp_path, capsys, section, key, value, named):
    cfg = tmp_path / "nonfinite.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert named in capsys.readouterr().err
    assert not (tmp_path / "o" / "report.csv").exists()


def test_simulate_calibration_failure_is_runtime_error(tmp_path):
    cfg = tmp_path / "hard.ini"
    cfg.write_text(
        "[traffic]\nkind = calibrate\nhurst = 0.52\ndelta_h = 4.0\nbudget = 2\n"
        "[sim]\nhorizon = 1024\n"
    )
    assert _run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2


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


def test_sweep_requires_grid_section(tmp_path, capsys):
    cfg = tmp_path / "nosweep.ini"
    cfg.write_text(FAST_SIM)
    assert _run(["sweep", "--config", str(cfg)]) == 1
    assert "sweep" in capsys.readouterr().err


# ------------------------------------------------------------------- parser


def test_unknown_command_and_empty_argv(capsys):
    assert _run(["frobnicate"]) == 1
    assert _run([]) == 1
    capsys.readouterr()
