"""Load-imbalance metric suite for a multi-server cluster.

Given per-server windowed utilizations in [0,1] for CPU, RAM and network,
this module computes capacity-weighted system averages, per-resource
imbalance (sum of squared deviations from the system average), the combined
total, a weighted per-server imbalance score (SIL), the system mean of those
scores (ISL_tot), and a composite efficiency.

Conventions that matter when comparing numbers across cluster sizes:
per-resource imbalance is a raw sum over servers, not divided by N, while
ISL_tot is a mean over servers. Both are kept as-is deliberately.

Squares are written as products (``d * d``), never ``d ** 2``: CPython's
float power calls the C library's ``pow``, which can differ from the
correctly rounded product in the last bit, while numpy's product is that
same rounded product. So each formula below gives bitwise the same result
on a float and on a numpy column of floats, which lets :func:`score_windows`
score many windows at once with the bits of one window at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConfigError, InsufficientDataError, check_non_negative, check_positive

__all__ = [
    "ServerSpec",
    "ResourceUtilization",
    "WeightTriple",
    "ImbalanceReport",
    "resource_imbalance",
    "sil_value",
    "composite_load",
    "score_windows",
    "full_report",
    "write_report_csv",
    "write_sil_csv",
]

_RESOURCES = ("cpu", "ram", "net")
# weights may sum to 1 within this slack, so a window's efficiency may exceed 1 by it
_WEIGHT_SUM_SLACK = 1e-9


@dataclass(frozen=True)
class ServerSpec:
    """Static capacities of one server."""

    id: int
    cpu_count: int
    ram_capacity: float
    net_capacity: float

    def __post_init__(self):
        if not (1 <= self.cpu_count <= 1e308):
            raise ConfigError(f"cpu_count: must lie in [1, 1e308], got {self.cpu_count!r}")
        check_positive(self.ram_capacity, "ram_capacity")
        check_positive(self.net_capacity, "net_capacity")


@dataclass(frozen=True)
class ResourceUtilization:
    """Mean utilization triple over one observation window of `window` ticks."""

    cpu: float
    ram: float
    net: float
    window: int

    def __post_init__(self):
        for name in _RESOURCES:
            v = getattr(self, name)
            if not (0.0 <= v <= 1.0):
                raise ConfigError(f"{name}: must lie in [0, 1], got {v!r}")
        if self.window < 1:
            raise ConfigError(f"window: must be a positive tick count, got {self.window!r}")


@dataclass(frozen=True)
class WeightTriple:
    """Resource weights (a, b, c); non-negative, summing to 1. Equal by default."""

    a: float = 1.0 / 3.0
    b: float = 1.0 / 3.0
    c: float = 1.0 / 3.0

    def __post_init__(self):
        for name in ("a", "b", "c"):
            check_non_negative(getattr(self, name), name)
        if abs(self.a + self.b + self.c - 1.0) > _WEIGHT_SUM_SLACK:
            raise ConfigError(f"a + b + c: must equal 1, got {self.a + self.b + self.c!r}")


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
        if not (0.0 <= self.efficiency <= 1.0 + _WEIGHT_SUM_SLACK):
            raise ConfigError(f"efficiency {self.efficiency} outside [0,1]")
        if abs(self.ibl_tot - (self.isl_cpu + self.isl_ram + self.isl_net)) > 1e-12:
            raise ConfigError("ibl_tot must equal isl_cpu + isl_ram + isl_net")
        mean_sil = sum(self.sil) / len(self.sil)
        if abs(self.isl_tot - mean_sil) > 1e-12:
            raise ConfigError("isl_tot must equal mean(sil)")


def _check_aligned(n: int, specs: Sequence[ServerSpec]) -> None:
    if n == 0 or len(specs) == 0:
        raise InsufficientDataError("need at least one server")
    if n != len(specs):
        raise ConfigError(f"{n} utilizations for {len(specs)} servers")
    ids = [s.id for s in specs]
    if len(set(ids)) != len(ids):
        raise ConfigError("server ids must be unique within a cluster")


def _server_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0, the servers, one at a time in order: a float loop's bits. A loop
    from 0 differs from a running sum only where that gives -0.0, which ``+ 0.0`` turns to +0.0."""
    return np.add.accumulate(terms, axis=0)[-1] + 0.0


def resource_imbalance(values: Iterable, system_avg) -> float:
    """Raw sum of squared deviations from the system average (not per-server).

    `values` holds one entry per server: a float, or an array of windows.
    """
    devs = np.asarray(list(values), dtype=float) - system_avg
    if len(devs) == 0:
        raise InsufficientDataError("cannot measure imbalance of zero servers")
    return _server_sum(devs * devs)


def sil_value(cpu, ram, net, cpu_all, ram_all, net_all, w: WeightTriple) -> float:
    """The SIL formula on floats or numpy columns: the one place it is written down.

    Placement, migration scoring and window reports all call this, so a
    decision and the score it is judged by can never disagree.
    """
    dc, dr, dn = cpu - cpu_all, ram - ram_all, net - net_all
    return w.a * (dc * dc) + w.b * (dr * dr) + w.c * (dn * dn)


def composite_load(cpu, ram, net, w: WeightTriple) -> float:
    """Weighted load a*cpu + b*ram + c*net: the one place it is written down."""
    return w.a * cpu + w.b * ram + w.c * net


def score_windows(means, specs: Sequence[ServerSpec], w: WeightTriple) -> list[ImbalanceReport]:
    """One report per window from mean utilizations shaped (W, n, 3).

    `means[k, i]` is server i's (cpu, ram, net) over window k, in the order
    of `specs`. Formulas run on the whole array and each sum over servers is
    a running sum, so every window's floats are added in the order of a
    plain float loop over its servers: sums start from 0 and add one server
    at a time, averages are capacity-weighted sums over capacity totals,
    and ISL_tot and efficiency are sums over n. A window's report is thus
    the same whichever windows share the call.
    """
    means = np.asarray(means, dtype=float)
    _check_aligned(means.shape[1], specs)
    n = len(specs)
    by_server = means.transpose(1, 0, 2)  # (n, W, 3): every server sum runs over axis 0
    caps = [(s.cpu_count, s.ram_capacity, s.net_capacity) for s in specs]
    # capacity-weighted averages: the same quantity as simulation._system_averages_now,
    # summed in another float order; kept apart because one shared sum would move the bits
    avgs = (_server_sum(by_server * np.array(caps, dtype=float)[:, None])
            / np.array([sum(cap) for cap in zip(*caps)], dtype=float))
    for label, values in (("utilization", means), ("average", avgs)):
        bad = ~((values >= 0.0) & (values <= 1.0))  # NaN included
        if bad.any():
            at = tuple(np.argwhere(bad)[0])
            raise ConfigError(f"{_RESOURCES[at[-1]]} {label} {values[at]} outside [0,1]")
    isl = resource_imbalance(by_server, avgs).T
    cpu_ram_net = by_server.transpose(2, 0, 1)
    sils = sil_value(*cpu_ram_net, *avgs.T, w)  # (n, W)
    scalars = (
        *isl,
        isl[0] + isl[1] + isl[2],
        _server_sum(sils) / n,
        _server_sum(composite_load(*cpu_ram_net, w)) / n,
    )
    rows = zip(*(f.tolist() for f in scalars), sils.T.tolist())
    return [
        ImbalanceReport(isl_cpu=ic, isl_ram=ir, isl_net=inet, ibl_tot=ibl, sil=tuple(sil),
                        isl_tot=isl_tot, efficiency=eff)
        for ic, ir, inet, ibl, isl_tot, eff, sil in rows
    ]


def full_report(
    utils: Sequence[ResourceUtilization],
    specs: Sequence[ServerSpec],
    w: WeightTriple,
) -> ImbalanceReport:
    """Every metric for one window: the one-window case of :func:`score_windows`."""
    means = np.array([[(u.cpu, u.ram, u.net) for u in utils]], dtype=float).reshape(1, -1, 3)
    return score_windows(means, specs, w)[0]


def write_report_csv(path, reports: Sequence[ImbalanceReport], window: int, summary: str | None = None) -> None:
    """One row per window: tick boundary plus every scalar report field.

    `summary`, when given, is appended verbatim as a trailing `# ...` line.
    """
    fields = []
    for i, r in enumerate(reports, 1):
        fields += (i * window, r.isl_cpu, r.isl_ram, r.isl_net, r.ibl_tot, r.isl_tot, r.efficiency)
    text = "%d,%.12g,%.12g,%.12g,%.12g,%.12g,%.12g\n" * len(reports) % tuple(fields)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tick,isl_cpu,isl_ram,isl_net,ibl_tot,isl_tot,efficiency\n" + text)
        if summary is not None:
            fh.write(f"# {summary}\n")


def write_sil_csv(path, reports: Sequence[ImbalanceReport], window: int, server_ids: Sequence[int]) -> None:
    """Per-server SIL trajectories in long form, one row per (window, server)."""
    fields = []
    for i, r in enumerate(reports, 1):
        if len(r.sil) != len(server_ids):
            raise ConfigError("report SIL width does not match the server list")
        for sid, s in zip(server_ids, r.sil):
            fields += (i * window, sid, s)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("tick,server_id,sil\n" + "%d,%d,%.12g\n" * (len(fields) // 3) % tuple(fields))
