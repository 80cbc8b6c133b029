"""Load-imbalance metric suite for a multi-server cluster.

Given per-server windowed utilizations in [0,1] for CPU, RAM and network,
this module computes capacity-weighted system averages, per-resource
imbalance (sum of squared deviations from the system average), the combined
total, a weighted per-server imbalance score (SIL), the system mean of those
scores (ISL_tot), and a composite efficiency.

Conventions that matter when comparing numbers across cluster sizes:
per-resource imbalance is a raw sum over servers, not divided by N, while
ISL_tot is a mean over servers. Both are kept as-is deliberately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import ConfigError, InsufficientDataError

__all__ = [
    "ServerSpec",
    "ResourceUtilization",
    "SystemAverages",
    "WeightTriple",
    "ImbalanceReport",
    "average_utilization",
    "system_averages",
    "resource_imbalance",
    "total_imbalance",
    "server_sil",
    "sil_value",
    "composite_load",
    "system_sil",
    "efficiency",
    "full_report",
    "write_report_csv",
    "write_sil_csv",
]


@dataclass(frozen=True)
class ServerSpec:
    """Static capacities of one server."""

    id: int
    cpu_count: int
    ram_capacity: float
    net_capacity: float

    def __post_init__(self):
        if self.cpu_count < 1:
            raise ConfigError(f"server {self.id}: cpu_count must be >= 1")
        if not all(math.isfinite(v) and v > 0 for v in (self.ram_capacity, self.net_capacity)):
            raise ConfigError(f"server {self.id}: ram_capacity and net_capacity must be finite and positive")


@dataclass(frozen=True)
class ResourceUtilization:
    """Mean utilization triple over one observation window of `window` ticks."""

    cpu: float
    ram: float
    net: float
    window: int

    def __post_init__(self):
        for name in ("cpu", "ram", "net"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} utilization {v} outside [0,1]")
        if self.window < 1:
            raise ConfigError("window must be a positive tick count")


@dataclass(frozen=True)
class SystemAverages:
    """Capacity-weighted mean utilization across the whole cluster."""

    cpu_all: float
    ram_all: float
    net_all: float

    def __post_init__(self):
        for name in ("cpu_all", "ram_all", "net_all"):
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name} = {v} outside [0,1]")


@dataclass(frozen=True)
class WeightTriple:
    """Resource weights (a, b, c); non-negative, summing to 1."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ConfigError(f"weights.{name} must be a finite number, got {v}")
        if min(self.a, self.b, self.c) < 0.0:
            raise ConfigError("weights must be non-negative")
        if abs(self.a + self.b + self.c - 1.0) > 1e-9:
            raise ConfigError(f"weights: invariant a + b + c = 1 violated (got {self.a + self.b + self.c})")


def default_weights() -> WeightTriple:
    return WeightTriple(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)


@dataclass(frozen=True)
class ImbalanceReport:
    """Every imbalance figure for one observation window."""

    isl_cpu: float
    isl_ram: float
    isl_net: float
    ibl_tot: float
    sil: tuple[float, ...]
    isl_tot: float
    efficiency: float

    def __post_init__(self):
        scalars = (self.isl_cpu, self.isl_ram, self.isl_net, self.ibl_tot, self.isl_tot)
        if any(v < 0.0 or v != v for v in scalars):
            raise ConfigError("imbalance fields must be finite and non-negative")
        if any(s < 0.0 for s in self.sil):
            raise ConfigError("per-server SIL values must be non-negative")
        if not (0.0 <= self.efficiency <= 1.0):
            raise ConfigError(f"efficiency {self.efficiency} outside [0,1]")
        if abs(self.ibl_tot - (self.isl_cpu + self.isl_ram + self.isl_net)) > 1e-12:
            raise ConfigError("ibl_tot must equal isl_cpu + isl_ram + isl_net")
        mean_sil = sum(self.sil) / len(self.sil)
        if abs(self.isl_tot - mean_sil) > 1e-12:
            raise ConfigError("isl_tot must equal mean(sil)")


def average_utilization(
    samples: Sequence[tuple[float, float, float]], window: int
) -> ResourceUtilization:
    """Arithmetic mean of instantaneous (cpu, ram, net) triples over a window."""
    if len(samples) == 0:
        raise InsufficientDataError("cannot average an empty sample window")
    if window != len(samples):
        raise ConfigError(f"window {window} != number of samples {len(samples)}")
    acc = [0.0, 0.0, 0.0]
    for s in samples:
        for j in range(3):
            v = s[j]
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"instantaneous utilization {v} outside [0,1]")
            acc[j] += v
    n = float(len(samples))
    return ResourceUtilization(cpu=acc[0] / n, ram=acc[1] / n, net=acc[2] / n, window=window)


def _check_aligned(utils: Sequence[ResourceUtilization], specs: Sequence[ServerSpec]) -> None:
    if len(utils) == 0 or len(specs) == 0:
        raise InsufficientDataError("need at least one server")
    if len(utils) != len(specs):
        raise ConfigError(f"{len(utils)} utilizations for {len(specs)} servers")
    ids = [s.id for s in specs]
    if len(set(ids)) != len(ids):
        raise ConfigError("server ids must be unique within a cluster")


def system_averages(
    utils: Sequence[ResourceUtilization], specs: Sequence[ServerSpec]
) -> SystemAverages:
    """Capacity-weighted cluster averages: CPUs weight cpu, capacities weight ram/net."""
    _check_aligned(utils, specs)
    cpu_w = sum(s.cpu_count for s in specs)
    ram_w = sum(s.ram_capacity for s in specs)
    net_w = sum(s.net_capacity for s in specs)
    return SystemAverages(
        cpu_all=sum(u.cpu * s.cpu_count for u, s in zip(utils, specs)) / cpu_w,
        ram_all=sum(u.ram * s.ram_capacity for u, s in zip(utils, specs)) / ram_w,
        net_all=sum(u.net * s.net_capacity for u, s in zip(utils, specs)) / net_w,
    )


def resource_imbalance(values: Iterable[float], system_avg: float) -> float:
    """Raw sum of squared deviations from the system average (not per-server)."""
    vals = list(values)
    if not vals:
        raise InsufficientDataError("cannot measure imbalance of zero servers")
    return sum((v - system_avg) ** 2 for v in vals)


def total_imbalance(isl_cpu: float, isl_ram: float, isl_net: float) -> float:
    """Combined imbalance across the three resources."""
    if min(isl_cpu, isl_ram, isl_net) < 0.0:
        raise ConfigError("per-resource imbalance cannot be negative")
    return isl_cpu + isl_ram + isl_net


def sil_value(cpu, ram, net, cpu_all, ram_all, net_all, w: WeightTriple) -> float:
    """The SIL formula on plain floats: the one place it is written down.

    Placement, migration scoring and window reports all call this, so a
    decision and the score it is judged by can never disagree.
    """
    return w.a * (cpu - cpu_all) ** 2 + w.b * (ram - ram_all) ** 2 + w.c * (net - net_all) ** 2


def composite_load(cpu, ram, net, w: WeightTriple) -> float:
    """Weighted load a*cpu + b*ram + c*net: the one place it is written down."""
    return w.a * cpu + w.b * ram + w.c * net


def server_sil(util: ResourceUtilization, avgs: SystemAverages, w: WeightTriple) -> float:
    """Weighted squared deviation of one server from the system averages."""
    return sil_value(util.cpu, util.ram, util.net, avgs.cpu_all, avgs.ram_all, avgs.net_all, w)


def system_sil(sils: Sequence[float]) -> float:
    """Mean per-server imbalance score across the cluster."""
    if len(sils) == 0:
        raise InsufficientDataError("cannot average zero SIL values")
    if any(s < 0.0 for s in sils):
        raise ConfigError("SIL values cannot be negative")
    return sum(sils) / len(sils)


def efficiency(utils: Sequence[ResourceUtilization], w: WeightTriple) -> float:
    """Mean composite load a*cpu + b*ram + c*net over all servers."""
    if len(utils) == 0:
        raise InsufficientDataError("need at least one server")
    return sum(composite_load(u.cpu, u.ram, u.net, w) for u in utils) / len(utils)


def full_report(
    utils: Sequence[ResourceUtilization],
    specs: Sequence[ServerSpec],
    w: WeightTriple,
) -> ImbalanceReport:
    """Compose all the metrics above into one report for a window."""
    _check_aligned(utils, specs)
    avgs = system_averages(utils, specs)
    isl_cpu = resource_imbalance((u.cpu for u in utils), avgs.cpu_all)
    isl_ram = resource_imbalance((u.ram for u in utils), avgs.ram_all)
    isl_net = resource_imbalance((u.net for u in utils), avgs.net_all)
    sils = tuple(server_sil(u, avgs, w) for u in utils)
    return ImbalanceReport(
        isl_cpu=isl_cpu,
        isl_ram=isl_ram,
        isl_net=isl_net,
        ibl_tot=total_imbalance(isl_cpu, isl_ram, isl_net),
        sil=sils,
        isl_tot=system_sil(sils),
        efficiency=efficiency(utils, w),
    )


def write_report_csv(path, reports: Sequence[ImbalanceReport], window: int, summary: str | None = None) -> None:
    """One row per window: tick boundary plus every scalar report field.

    `summary`, when given, is appended verbatim as a trailing `# ...` line.
    """
    lines = ["tick,isl_cpu,isl_ram,isl_net,ibl_tot,isl_tot,efficiency"]
    for i, r in enumerate(reports):
        tick = (i + 1) * window
        lines.append(
            f"{tick},{r.isl_cpu:.12g},{r.isl_ram:.12g},{r.isl_net:.12g},"
            f"{r.ibl_tot:.12g},{r.isl_tot:.12g},{r.efficiency:.12g}"
        )
    if summary is not None:
        lines.append(f"# {summary}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_sil_csv(path, reports: Sequence[ImbalanceReport], window: int, server_ids: Sequence[int]) -> None:
    """Per-server SIL trajectories in long form, one row per (window, server)."""
    lines = ["tick,server_id,sil"]
    for i, r in enumerate(reports):
        if len(r.sil) != len(server_ids):
            raise ConfigError("report SIL width does not match the server list")
        tick = (i + 1) * window
        for sid, s in zip(server_ids, r.sil):
            lines.append(f"{tick},{sid},{s:.12g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
