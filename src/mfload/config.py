"""INI-style configuration for simulation runs and sweeps.

Sections: [traffic], [cluster], [weights], [policy], [sim], [demand],
[sweep]. Every key is optional; an empty file yields the documented
defaults (window 64, equal weights, LeastSIL policy, the mixed-size
reference cluster, composite traffic). Unknown sections or keys are
rejected with the offending key path so typos cannot silently change an
experiment.

See configs/example.ini for a fully annotated file.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
from dataclasses import fields, is_dataclass
from enum import Enum

from .errors import ConfigError
from .fractal import MFDFA_MIN_SAMPLES
from .metrics import ServerSpec, WeightTriple, default_weights
from .simulation import (
    CalibrationTarget,
    DemandParams,
    Policy,
    PolicyKind,
    ScenarioConfig,
    ServiceClass,
    homogeneous_cluster,
    reference_cluster,
)
from .traffic import GeneratorKind, GeneratorMeta

__all__ = ["parse_config", "parse_sweep_grid", "config_digest", "canonical_config_text"]

_KNOWN_KEYS = {
    "traffic": {"kind", "hurst", "delta_h", "budget", "depth", "spread"},
    "cluster": {"servers", "cpu_count", "ram_capacity", "net_capacity"},
    "weights": {f.name for f in fields(WeightTriple)},
    "policy": {f.name for f in fields(Policy)},
    "sim": {"name", "horizon", "window", "arrival_scale", "seed"},
    "demand": {f.name for f in fields(DemandParams)},
    "sweep": {"grid", "budget"},
}

_POLICY_NAMES = {k.value: k for k in PolicyKind}


def _load(path) -> configparser.ConfigParser:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    for section in parser.sections():
        known = _KNOWN_KEYS.get(section)
        if known is None:
            raise ConfigError(f"{section}: unknown section")
        for key in parser[section]:
            if key.startswith("server_"):
                if section != "cluster":
                    raise ConfigError(f"{section}.{key}: unknown key")
                continue
            if key not in known:
                raise ConfigError(f"{section}.{key}: unknown key")
    return parser


def _section(parser, name) -> dict:
    return dict(parser[name]) if parser.has_section(name) else {}


def _get(sec: dict, section: str, key: str, default, kind=float):
    """`sec[key]` parsed as `kind` (float or int), or `default` when absent."""
    raw = sec.get(key)
    if raw is None:
        return default
    try:
        return kind(raw)
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{section}.{key}: expected {noun}, got {raw!r}") from exc


def _parse_traffic(sec: dict, seed: int, horizon: int):
    kind = sec.get("kind", "composite").strip().lower()
    depth_default = max(5, math.ceil(math.log2(horizon)))
    if kind == "calibrate":
        if "hurst" not in sec or "delta_h" not in sec:
            raise ConfigError("traffic.kind=calibrate requires traffic.hurst and traffic.delta_h")
        return CalibrationTarget(
            hurst=_get(sec, "traffic", "hurst", 0.0),
            delta_h=_get(sec, "traffic", "delta_h", 0.0),
            budget=_get(sec, "traffic", "budget", 64, int),
        )
    if kind == "fgn":
        return GeneratorMeta(
            kind=GeneratorKind.FGN,
            seed=seed,
            target_hurst=_get(sec, "traffic", "hurst", 0.7),
        )
    if kind == "cascade":
        return GeneratorMeta(
            kind=GeneratorKind.CASCADE,
            seed=seed,
            depth=_get(sec, "traffic", "depth", depth_default, int),
            multiplier_spread=_get(sec, "traffic", "spread", 0.5),
        )
    if kind == "composite":
        return GeneratorMeta(
            kind=GeneratorKind.COMPOSITE,
            seed=seed,
            depth=_get(sec, "traffic", "depth", depth_default, int),
            target_hurst=_get(sec, "traffic", "hurst", 0.7),
            multiplier_spread=_get(sec, "traffic", "spread", 0.5),
        )
    raise ConfigError(
        f"traffic.kind: expected one of calibrate/fgn/cascade/composite, got {kind!r}"
    )


def _parse_cluster(sec: dict) -> tuple[ServerSpec, ...]:
    explicit = {k: v for k, v in sec.items() if k.startswith("server_")}
    shorthand = {k for k in ("servers",) if k in sec}
    if explicit and shorthand:
        raise ConfigError("cluster: give either per-server lines or the homogeneous shorthand")

    if explicit:
        specs = []
        for key, raw in explicit.items():
            try:
                sid = int(key.split("_", 1)[1])
            except ValueError as exc:
                raise ConfigError(f"cluster.{key}: malformed server id") from exc
            parts = [p.strip() for p in raw.split(",")]
            if len(parts) != 3:
                raise ConfigError(
                    f"cluster.{key}: expected 'cpu_count,ram_capacity,net_capacity'"
                )
            try:
                specs.append(
                    ServerSpec(
                        id=sid,
                        cpu_count=int(parts[0]),
                        ram_capacity=float(parts[1]),
                        net_capacity=float(parts[2]),
                    )
                )
            except ValueError as exc:
                raise ConfigError(f"cluster.{key}: {exc}") from exc
        # duplicate ids are rejected by ScenarioConfig
        return tuple(sorted(specs, key=lambda s: s.id))

    if not sec:
        return reference_cluster()
    return homogeneous_cluster(
        n=_get(sec, "cluster", "servers", 8, int),
        cpu_count=_get(sec, "cluster", "cpu_count", 4, int),
        ram_capacity=_get(sec, "cluster", "ram_capacity", 32.0),
        net_capacity=_get(sec, "cluster", "net_capacity", 16.0),
    )


def _parse_weights(sec: dict) -> WeightTriple:
    if not sec:
        return default_weights()
    a = _get(sec, "weights", "a", 1.0 / 3.0)
    b = _get(sec, "weights", "b", 1.0 / 3.0)
    c = _get(sec, "weights", "c", 1.0 / 3.0)
    return WeightTriple(a=a, b=b, c=c)


def _parse_policy(sec: dict) -> Policy:
    name = sec.get("kind", PolicyKind.LEAST_SIL.value).strip().lower()
    kind = _POLICY_NAMES.get(name)
    if kind is None:
        raise ConfigError(
            f"policy.kind: expected one of {sorted(_POLICY_NAMES)}, got {name!r}"
        )
    return Policy(
        kind=kind,
        migration_threshold=_get(sec, "policy", "migration_threshold", 0.0),
    )


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
    if not classes:
        raise ConfigError("demand.classes: no classes given")
    return tuple(classes)


def _parse_demand(sec: dict) -> DemandParams:
    # every field but the class list is a plain number with a default
    kwargs = {
        f.name: _get(sec, "demand", f.name, f.default)
        for f in fields(DemandParams)
        if f.name != "classes"
    }
    if "classes" in sec:
        kwargs["classes"] = _parse_classes(sec["classes"])
    return DemandParams(**kwargs)


def parse_config(path) -> ScenarioConfig:
    """Read and fully validate a scenario configuration file."""
    parser = _load(path)
    sim = _section(parser, "sim")
    seed = _get(sim, "sim", "seed", 1, int)
    horizon = _get(sim, "sim", "horizon", 16384, int)
    if horizon < MFDFA_MIN_SAMPLES:
        # every CLI run measures its traffic with MF-DFA
        raise ConfigError(f"sim.horizon: must be >= {MFDFA_MIN_SAMPLES} ticks, got {horizon}")
    return ScenarioConfig(
        traffic=_parse_traffic(_section(parser, "traffic"), seed, horizon),
        cluster=_parse_cluster(_section(parser, "cluster")),
        weights=_parse_weights(_section(parser, "weights")),
        policy=_parse_policy(_section(parser, "policy")),
        horizon=horizon,
        window=_get(sim, "sim", "window", 64, int),
        arrival_scale=_get(sim, "sim", "arrival_scale", 0.1),
        demand_params=_parse_demand(_section(parser, "demand")),
        seed=seed,
        name=sim.get("name", "scenario").strip(),
    )


def parse_sweep_grid(path) -> tuple[list[tuple[float, float]], int]:
    """Read the [sweep] section: (H, delta_h) cells plus a calibration budget.

    Grid format: whitespace- or comma-separated `H:delta_h` pairs, e.g.
    ``grid = 0.6:1.5 0.6:2.5 0.9:2.5``.
    """
    parser = _load(path)
    if not parser.has_section("sweep"):
        raise ConfigError("sweep: section missing (required by the sweep command)")
    sec = _section(parser, "sweep")
    raw = sec.get("grid")
    if not raw:
        raise ConfigError("sweep.grid: no cells given")
    cells = []
    for token in raw.replace(",", " ").split():
        parts = token.split(":")
        if len(parts) != 2:
            raise ConfigError(f"sweep.grid: expected H:delta_h, got {token!r}")
        try:
            cells.append((float(parts[0]), float(parts[1])))
        except ValueError as exc:
            raise ConfigError(f"sweep.grid: {exc}") from exc
    return cells, _get(sec, "sweep", "budget", 64, int)


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
