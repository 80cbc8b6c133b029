"""Scenario file parsing: defaults, overrides, and failure messages."""

import re
from pathlib import Path

import pytest

from mfload.config import _KEYS, canonical_config_text, config_digest, parse_config, parse_sweep_grid
from mfload.errors import ConfigError
from mfload.metrics import WeightTriple
from mfload.simulation import (
    CalibrationTarget,
    PolicyKind,
    ScenarioConfig,
    reference_cluster,
    run_scenario,
)
from mfload.traffic import GeneratorKind, GeneratorMeta


def _write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_empty_file_yields_documented_defaults(tmp_path):
    cfg = parse_config(_write(tmp_path, ""))
    assert cfg.horizon == 16384
    assert cfg.window == 64
    assert cfg.seed == 1
    assert cfg.arrival_scale == 0.1
    assert cfg.name == "scenario"
    assert cfg.policy.kind is PolicyKind.LEAST_SIL
    assert cfg.weights == WeightTriple(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)
    assert cfg.cluster == reference_cluster()
    assert isinstance(cfg.traffic, GeneratorMeta)
    assert cfg.traffic.kind is GeneratorKind.COMPOSITE
    assert cfg.traffic.depth == 14  # ceil(log2(horizon))
    assert cfg.traffic.seed == cfg.seed


def test_sim_section_overrides(tmp_path):
    cfg = parse_config(
        _write(
            tmp_path,
            "[sim]\nname = demo\nhorizon = 2048\nwindow = 32\narrival_scale = 0.25\nseed = 9\n",
        )
    )
    assert (cfg.name, cfg.horizon, cfg.window, cfg.seed) == ("demo", 2048, 32, 9)
    assert cfg.arrival_scale == 0.25


def test_traffic_kinds(tmp_path):
    fgn = parse_config(_write(tmp_path, "[traffic]\nkind = fgn\nhurst = 0.8\n"))
    assert fgn.traffic.kind is GeneratorKind.FGN and fgn.traffic.target_hurst == 0.8

    # 2^12 ticks cover the horizon; a shallower depth is refused (see below)
    cascade = parse_config(_write(tmp_path, "[traffic]\nkind = cascade\ndepth = 12\nspread = 0.9\n"
                                            "[sim]\nhorizon = 4096\n"))
    assert cascade.traffic.kind is GeneratorKind.CASCADE
    assert (cascade.traffic.depth, cascade.traffic.multiplier_spread) == (12, 0.9)

    cal = parse_config(_write(tmp_path, "[traffic]\nkind = calibrate\nhurst = 0.7\ndelta_h = 1.5\n"))
    assert cal.traffic == CalibrationTarget(hurst=0.7, delta_h=1.5, budget=64)

    with pytest.raises(ConfigError, match="requires traffic.hurst"):
        parse_config(_write(tmp_path, "[traffic]\nkind = calibrate\nhurst = 0.7\n"))
    with pytest.raises(ConfigError, match="traffic.kind"):
        parse_config(_write(tmp_path, "[traffic]\nkind = sine\n"))


@pytest.mark.parametrize("kind, depth, bounds", [
    ("cascade", 25, "[1, 24]"),
    ("composite", 30, "[5, 24]"),
    ("composite", 4, "[5, 24]"),
])
def test_traffic_depth_outside_its_kind_range_is_rejected(tmp_path, kind, depth, bounds):
    # refused while the config is read, before any run or output directory
    text = f"[traffic]\nkind = {kind}\ndepth = {depth}\n"
    with pytest.raises(ConfigError, match=re.escape(f"traffic.depth: must lie in {bounds}, got {depth}")):
        parse_config(_write(tmp_path, text))


@pytest.mark.parametrize("kind", ["cascade", "composite"])
def test_traffic_depth_too_shallow_for_the_horizon_names_both_keys(tmp_path, kind):
    text = f"[traffic]\nkind = {kind}\ndepth = 10\n[sim]\nhorizon = 4096\n"
    with pytest.raises(ConfigError, match=re.escape("traffic.depth: 10 yields 1024 ticks < sim.horizon = 4096")):
        parse_config(_write(tmp_path, text))
    # a depth that covers the horizon exactly is accepted
    assert parse_config(_write(tmp_path, text.replace("4096", "1024"))).traffic.depth == 10


def test_traffic_knobs_the_kind_does_not_read_are_left_out(tmp_path):
    # an fGn run reads neither depth nor spread, a cascade run no exponent; both are
    # still range-checked (see test_cli), so these are in range
    fgn = parse_config(_write(tmp_path, "[traffic]\nkind = fgn\ndepth = 12\nspread = 0.3\n"))
    assert fgn.traffic == GeneratorMeta(kind=GeneratorKind.FGN, seed=1, target_hurst=0.7)
    cascade = parse_config(_write(tmp_path, "[traffic]\nkind = cascade\nhurst = 0.9\n"))
    assert cascade.traffic == GeneratorMeta(kind=GeneratorKind.CASCADE, seed=1, depth=14,
                                            multiplier_spread=0.5)


def test_cluster_explicit_lines(tmp_path):
    cfg = parse_config(
        _write(tmp_path, "[cluster]\nserver_1 = 2, 16.0, 8.0\nserver_0 = 8, 64.0, 32.0\n")
    )
    assert [s.id for s in cfg.cluster] == [0, 1]
    assert cfg.cluster[0].cpu_count == 8
    assert cfg.cluster[1].ram_capacity == 16.0


def test_cluster_shorthand_and_conflicts(tmp_path):
    cfg = parse_config(_write(tmp_path, "[cluster]\nservers = 3\ncpu_count = 2\n"))
    assert len(cfg.cluster) == 3
    assert {s.cpu_count for s in cfg.cluster} == {2}
    with pytest.raises(ConfigError, match="either per-server lines or"):
        parse_config(_write(tmp_path, "[cluster]\nservers = 2\nserver_0 = 4, 32, 16\n"))
    with pytest.raises(ConfigError, match="^cluster.server_00: duplicate server id 0, also cluster.server_0$"):
        parse_config(_write(tmp_path, "[cluster]\nserver_0 = 4, 32, 16\nserver_00 = 2, 16, 8\n"))
    with pytest.raises(ConfigError, match="cluster.server_0"):
        parse_config(_write(tmp_path, "[cluster]\nserver_0 = 4, 32\n"))


def test_weights_invariant_message(tmp_path):
    with pytest.raises(ConfigError, match=r"^a \+ b \+ c: must equal 1, got 1\.5$"):
        parse_config(_write(tmp_path, "[weights]\na = 0.5\nb = 0.5\nc = 0.5\n"))
    cfg = parse_config(_write(tmp_path, "[weights]\na = 0.5\nb = 0.3\nc = 0.2\n"))
    assert cfg.weights == WeightTriple(0.5, 0.3, 0.2)


def test_library_weights_drive_placement(tmp_path):
    # one triple places and scores: a library config with the default policy
    # reproduces the same scenario read from a file with that [weights]
    parsed = parse_config(
        _write(
            tmp_path,
            "[traffic]\nkind = fgn\nhurst = 0.8\n[weights]\na = 0.6\nb = 0.1\nc = 0.3\n"
            "[sim]\nhorizon = 1024\narrival_scale = 0.6\n",
        )
    )
    w = WeightTriple(0.6, 0.1, 0.3)
    library = ScenarioConfig(traffic=parsed.traffic, weights=w, horizon=1024, arrival_scale=0.6)
    assert library == parsed
    assert run_scenario(library) == run_scenario(parsed)


def test_policy_parsing(tmp_path):
    cfg = parse_config(
        _write(tmp_path, "[policy]\nkind = threshold_migration\nmigration_threshold = 0.02\n")
    )
    assert cfg.policy.kind is PolicyKind.THRESHOLD_MIGRATION
    assert cfg.policy.migration_threshold == 0.02
    with pytest.raises(ConfigError, match="policy.kind"):
        parse_config(_write(tmp_path, "[policy]\nkind = greedy\n"))


def test_demand_overrides_and_classes(tmp_path):
    cfg = parse_config(
        _write(
            tmp_path,
            "[demand]\nduration_mean = 32\ncpu_mean = 0.2\nclasses = 0.75:1:1 0.25:2.0:4.0\n",
        )
    )
    p = cfg.demand_params
    assert p.duration_mean == 32.0 and p.cpu_mean == 0.2
    assert len(p.classes) == 2
    assert p.classes[1].duration_scale == 4.0
    with pytest.raises(ConfigError, match="demand.classes"):
        parse_config(_write(tmp_path, "[demand]\nclasses = 0.5:1 0.5:2\n"))
    with pytest.raises(ConfigError, match="sum to 1"):
        parse_config(_write(tmp_path, "[demand]\nclasses = 0.5:1:1 0.2:1:1\n"))


def test_unknown_sections_and_keys(tmp_path):
    with pytest.raises(ConfigError, match="sim.horzon: unknown key"):
        parse_config(_write(tmp_path, "[sim]\nhorzon = 1024\n"))
    with pytest.raises(ConfigError, match="network: unknown section"):
        parse_config(_write(tmp_path, "[network]\nlatency = 5\n"))
    with pytest.raises(ConfigError, match="weights.servers: unknown key"):
        parse_config(_write(tmp_path, "[weights]\nservers = 4\n"))


def test_missing_file_and_bad_values(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        parse_config(tmp_path / "nope.ini")
    with pytest.raises(ConfigError, match="expected an integer"):
        parse_config(_write(tmp_path, "[sim]\nhorizon = many\n"))
    with pytest.raises(ConfigError, match="expected a number"):
        parse_config(_write(tmp_path, "[sim]\narrival_scale = fast\n"))
    # invariants from the resolved scenario surface with the same error type
    with pytest.raises(ConfigError, match="horizon"):
        parse_config(_write(tmp_path, "[sim]\nhorizon = 128\n"))


def test_horizon_is_at_most_the_deepest_dyadic_draw(tmp_path):
    # one bound for every traffic kind: a composite at 2^24 ticks infers depth 24, the deepest draw
    cfg = parse_config(_write(tmp_path, "[sim]\nhorizon = 16777216\n"))
    assert cfg.horizon == 2**24 and cfg.traffic.depth == 24
    for kind in ("fgn", "cascade", "composite", "calibrate\nhurst = 0.7\ndelta_h = 1.0"):
        for horizon in (2**24 + 1, 10**11):
            message = rf"sim.horizon: must lie in \[1024, 16777216\] ticks, got {horizon}"
            with pytest.raises(ConfigError, match=message):
                parse_config(_write(tmp_path, f"[traffic]\nkind = {kind}\n[sim]\nhorizon = {horizon}\n"))
    with pytest.raises(ConfigError, match=r"horizon: must lie in \[256, 16777216\] ticks"):
        ScenarioConfig(traffic=CalibrationTarget(0.7, 1.0), horizon=2**24 + 1, window=64)


def test_scenario_name_must_be_one_printable_line():
    # the library path names the field; the INI path names sim.name
    for name in ("alpha\nbeta = 1", "bell\a", 7):
        with pytest.raises(ConfigError, match=r"^name: must be one printable line, got "):
            ScenarioConfig(traffic=CalibrationTarget(0.7, 1.0), name=name)
    assert ScenarioConfig(traffic=CalibrationTarget(0.7, 1.0), name="h0.6 dh1.5").name == "h0.6 dh1.5"


def test_sweep_grid_parsing(tmp_path):
    path = _write(tmp_path, "[sweep]\ngrid = 0.6:1.5, 0.6:2.5 0.9:2.5\nbudget = 32\n")
    cells, budget = parse_sweep_grid(path)
    assert cells == [(0.6, 1.5), (0.6, 2.5), (0.9, 2.5)]
    assert budget == 32
    cells, budget = parse_sweep_grid(_write(tmp_path, "[sweep]\ngrid = 0.7:0.5\n"))
    assert budget == 64
    with pytest.raises(ConfigError, match="section missing"):
        parse_sweep_grid(_write(tmp_path, "[sim]\nseed = 1\n"))
    with pytest.raises(ConfigError, match="expected H:delta_h"):
        parse_sweep_grid(_write(tmp_path, "[sweep]\ngrid = 0.7\n"))


def test_canonical_text_and_digest(tmp_path):
    a = parse_config(_write(tmp_path, "[sim]\nseed = 3\nhorizon = 1024\n", name="a.ini"))
    b = parse_config(_write(tmp_path, "[sim]\nhorizon = 1024\nseed = 3\n", name="b.ini"))
    assert canonical_config_text(a) == canonical_config_text(b)
    assert config_digest(a) == config_digest(b)
    c = parse_config(_write(tmp_path, "[sim]\nseed = 4\nhorizon = 1024\n", name="c.ini"))
    assert config_digest(a) != config_digest(c)
    text = canonical_config_text(a)
    assert "seed=3" in text
    assert text == "\n".join(sorted(text.splitlines())) + "\n"


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_shipped_configs_parse_and_document_every_key():
    parse_config(CONFIGS / "example.ini")
    parse_config(CONFIGS / "grid.ini")
    assert parse_sweep_grid(CONFIGS / "grid.ini") == ([(0.6, 1.5), (0.6, 2.5), (0.9, 2.5)], 64)
    # every accepted key appears in its section of the annotated file, commented or not
    documented, section = set(), None
    for line in (CONFIGS / "example.ini").read_text().splitlines():
        line = line.lstrip("# ")
        header, key = re.match(r"\[(\w+)\]$", line), re.match(r"(\w+)\s*=", line)
        if header:
            section = header.group(1)
        elif key:
            documented.add((section, key.group(1)))
    expected = {(section, key) for section, keys in _KEYS.items() for key in keys}
    assert expected - documented == set()
