"""INI-style configuration for simulation runs and sweeps.

Sections: [traffic], [cluster], [weights], [policy], [sim], [demand],
[sweep]. Every key is optional; an empty file yields the documented
defaults (window 64, equal weights, LeastSIL policy, the mixed-size
reference cluster, composite traffic). Unknown sections or keys, and
bad values even of keys the run ignores, are rejected with the
offending key path so typos cannot silently change an experiment.

See configs/example.ini for a fully annotated file.
"""

from __future__ import annotations

import configparser
import functools
import hashlib
import math
import os
from dataclasses import fields, is_dataclass
from enum import Enum

from .errors import ConfigError
from .fractal import MFDFA_MIN_SAMPLES
from .metrics import ServerSpec, WeightTriple
from .simulation import (
    CalibrationTarget,
    DemandParams,
    Policy,
    ScenarioConfig,
    ServiceClass,
    homogeneous_cluster,
    reference_cluster,
)
from .traffic import (GeneratorKind, GeneratorMeta, check_calibration_targets, check_length,
                      check_probe_budget, check_seed)

__all__ = ["parse_config", "parse_sweep_grid", "config_digest", "canonical_config_text"]


def _budget(raw: str) -> int:
    """A calibration probe budget, checked by the one budget rule."""
    budget = int(raw)
    check_probe_budget(budget)
    return budget


def _parse_server(key: str, raw: str) -> ServerSpec:
    """`cluster.server_<id> = cpu_count, ram_capacity, net_capacity`."""
    try:
        sid = int(key.split("_", 1)[1])
    except ValueError as exc:
        raise ConfigError(f"cluster.{key}: malformed server id") from exc
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"cluster.{key}: expected 'cpu_count,ram_capacity,net_capacity'")
    try:
        return ServerSpec(
            id=sid,
            cpu_count=int(parts[0]),
            ram_capacity=float(parts[1]),
            net_capacity=float(parts[2]),
        )
    except ValueError as exc:
        raise ConfigError(f"cluster.{key}: {exc}") from exc


def _parse_classes(raw: str) -> tuple[ServiceClass, ...]:
    """`prob:demand_scale:duration_scale` triples separated by whitespace."""
    classes = []
    for token in raw.split():
        parts = token.split(":")
        if len(parts) != 3:
            raise ConfigError(
                f"demand.classes: expected prob:demand_scale:duration_scale, got {token!r}"
            )
        try:
            classes.append(
                ServiceClass(
                    probability=float(parts[0]),
                    demand_scale=float(parts[1]),
                    duration_scale=float(parts[2]),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"demand.classes: {exc}") from exc
    return tuple(classes)


def _parse_grid(raw: str) -> list[tuple[float, float]]:
    """Whitespace- or comma-separated `H:delta_h` cells, e.g. ``0.6:1.5 0.9:2.5``."""
    cells = []
    for token in raw.replace(",", " ").split():
        parts = token.split(":")
        if len(parts) != 2:
            raise ConfigError(f"sweep.grid: expected H:delta_h, got {token!r}")
        try:
            hurst, delta_h = float(parts[0]), float(parts[1])
        except ValueError as exc:
            raise ConfigError(f"sweep.grid: {exc}") from exc
        where = f"sweep.grid: cell {token!r}:"
        check_calibration_targets(hurst, delta_h, f"{where} hurst", f"{where} delta_h")
        cells.append((hurst, delta_h))
    return cells


# every accepted key and the parser of its value; `cluster.server_<id>`
# lines are the one key pattern and go to _parse_server
_KEYS = {
    "traffic": {
        "kind": str.lower,
        "hurst": float,
        "delta_h": float,
        "budget": _budget,
        "depth": int,
        "spread": float,
    },
    "cluster": {"servers": int, "cpu_count": int, "ram_capacity": float, "net_capacity": float},
    "weights": {f.name: float for f in fields(WeightTriple)},
    "policy": {"kind": str.lower, "migration_threshold": float},
    "sim": {"name": str, "horizon": int, "window": int, "arrival_scale": float, "seed": int},
    # every DemandParams field is a number but the class list
    "demand": {**{f.name: float for f in fields(DemandParams)}, "classes": _parse_classes},
    "sweep": {"grid": _parse_grid, "budget": _budget},
}

# the fields whose INI key has another name
_KEY_OF_FIELD = {"target_hurst": "hurst", "multiplier_spread": "spread", "n": "servers"}


def _named(section: str, make, *args, **kwargs):
    """`make(*args, **kwargs)`, a rejection's leading ``field`` (or ``field[i]``) rewritten to ``section.key``."""
    try:
        return make(*args, **kwargs)
    except ConfigError as exc:
        field, sep, rule = str(exc).partition(": ")
        name, bracket, index = field.partition("[")
        key = _KEY_OF_FIELD.get(name, name)
        if sep and key in _KEYS[section]:
            raise ConfigError(f"{section}.{key}{bracket}{index}: {rule}") from None
        raise


def _load(path) -> dict[str, dict]:
    """Every value in the file at `path`, parsed: {section: {key: value}}.

    Values are parsed whether or not the run reads them, so a bad value
    is rejected even under a kind that ignores it.
    """
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    # no section header can hold a newline, so a [DEFAULT] section is not
    # copied into every section but rejected as an unknown one
    parser = configparser.ConfigParser(interpolation=None, default_section="\n")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    sections = {}
    for section in parser.sections():
        if section not in _KEYS:
            keys = ", ".join(parser[section])
            raise ConfigError(f"{section}: unknown section" + (f" (keys: {keys})" if keys else ""))
        values = sections[section] = {}
        for key, raw in parser[section].items():
            parse = _KEYS[section].get(key)
            if section == "cluster" and key.startswith("server_"):
                parse = functools.partial(_parse_server, key)
            if parse is None:
                raise ConfigError(f"{section}.{key}: unknown key")
            try:
                values[key] = _named(section, parse, raw)
            except ConfigError:
                raise
            except ValueError as exc:  # from int() or float(); the other parsers raise ConfigError
                noun = "a number" if parse is float else "an integer"
                raise ConfigError(f"{section}.{key}: expected {noun}, got {raw!r}") from exc
    return sections


def _parse_traffic(sec: dict, seed: int, horizon: int):
    kind = sec.get("kind", "composite")
    if kind == "calibrate":
        if "hurst" not in sec or "delta_h" not in sec:
            raise ConfigError("traffic.kind=calibrate requires traffic.hurst and traffic.delta_h")
        target = _named("traffic", CalibrationTarget, sec["hurst"], sec["delta_h"],
                        sec.get("budget", CalibrationTarget.budget))
    elif kind not in {k.value for k in GeneratorKind}:
        raise ConfigError(
            f"traffic.kind: expected one of calibrate/fgn/cascade/composite, got {kind!r}"
        )
    else:
        # the kinds that draw ignore delta_h, but it is held to the target range all the same
        _named("traffic", check_calibration_targets, None, sec.get("delta_h"))
    # a record checks every knob it is given before it drops those its kind ignores; a
    # composite one reads all three, so it also checks the knobs calibrate ignores
    meta = _named("traffic", GeneratorMeta, kind="composite" if kind == "calibrate" else kind, seed=seed,
                  depth=sec.get("depth", math.ceil(math.log2(horizon))),
                  target_hurst=sec.get("hurst", 0.7), multiplier_spread=sec.get("spread", 0.5))
    if kind == "calibrate":
        return target
    # generate_from_meta would refuse it too, but without naming either key
    if meta.depth is not None and 2**meta.depth < horizon:
        raise ConfigError(f"traffic.depth: {meta.depth} yields {2**meta.depth} ticks < sim.horizon = {horizon}")
    return meta


def _parse_cluster(sec: dict) -> tuple[ServerSpec, ...]:
    explicit = {key: sec.pop(key) for key in list(sec) if key.startswith("server_")}
    if explicit and sec:
        raise ConfigError("cluster: give either per-server lines or the homogeneous shorthand")
    if explicit:
        first = {}
        for key, spec in explicit.items():
            if first.setdefault(spec.id, key) != key:
                raise ConfigError(f"cluster.{key}: duplicate server id {spec.id}, also cluster.{first[spec.id]}")
        return tuple(sorted(explicit.values(), key=lambda s: s.id))
    if not sec:
        return reference_cluster()
    return _named("cluster", homogeneous_cluster, sec.pop("servers", 8), **sec)


def parse_config(path) -> ScenarioConfig:
    """Read and fully validate a scenario configuration file."""
    sections = _load(path)
    sim = sections.get("sim", {})
    horizon = sim.get("horizon", ScenarioConfig.horizon)
    # every CLI run measures its traffic with MF-DFA, a floor above ScenarioConfig's; checked
    # here, before a composite infers its depth from the horizon
    _named("sim", check_length, horizon, MFDFA_MIN_SAMPLES, "horizon")
    seed = sim.get("seed", ScenarioConfig.seed)
    # the traffic record takes the seed before ScenarioConfig exists to check it
    _named("sim", check_seed, seed)
    return _named(
        "sim", ScenarioConfig,
        traffic=_parse_traffic(sections.get("traffic", {}), seed, horizon),
        cluster=_parse_cluster(sections.get("cluster", {})),
        weights=_named("weights", WeightTriple, **sections.get("weights", {})),
        policy=_named("policy", Policy, **sections.get("policy", {})),
        demand_params=_named("demand", DemandParams, **sections.get("demand", {})),
        **sim,
    )


def parse_sweep_grid(path) -> tuple[list[tuple[float, float]], int]:
    """Read the [sweep] section: (H, delta_h) cells plus a calibration budget."""
    sections = _load(path)
    if "sweep" not in sections:
        raise ConfigError("sweep: section missing (required by the sweep command)")
    sweep = sections["sweep"]
    if not sweep.get("grid"):
        raise ConfigError("sweep.grid: no cells given")
    return sweep["grid"], sweep.get("budget", CalibrationTarget.budget)


def canonical_config_text(config: ScenarioConfig) -> str:
    """Stable, sorted key=value rendering of a resolved config."""
    lines = []

    def emit(prefix: str, value) -> None:
        if is_dataclass(value):
            for fname in sorted(value.__dataclass_fields__):
                emit(f"{prefix}.{fname}", getattr(value, fname))
        elif isinstance(value, (tuple, list)):
            for j, item in enumerate(value):
                emit(f"{prefix}[{j}]", item)
        elif isinstance(value, Enum):
            lines.append(f"{prefix}={value.value}")
        elif isinstance(value, float):
            lines.append(f"{prefix}={value!r}")
        elif value is None:
            lines.append(f"{prefix}=none")
        else:
            lines.append(f"{prefix}={value}")

    for fname in sorted(config.__dataclass_fields__):
        emit(fname, getattr(config, fname))
    return "\n".join(sorted(lines)) + "\n"


def config_digest(config: ScenarioConfig) -> str:
    """SHA-256 hex digest of the canonical config text."""
    return hashlib.sha256(canonical_config_text(config).encode("utf-8")).hexdigest()
