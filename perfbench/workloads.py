"""The benchmark's workloads: their inputs, one timed call each, and the output check.

A workload owns a fixed pool of scenarios. The benchmark's ``--seed`` only
picks the order in which the pool is visited, so every scenario it can run
has a stored reference output under ``perfbench/reference/``.

The program is reached only through its public functions
(``simulation.run_scenario``) and its CLI entry point (``cli.main``), both
looked up at call time so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE_DIR = BENCH_DIR / "reference"

# outputs match their reference within this tolerance; a tolerance rather than
# a digest lets a change that only reorders float sums keep passing
REL_TOL = 1e-9
ABS_TOL = 1e-12

# OpenMP, OpenBLAS and MKL each read their own variable
BLAS_PIN = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


@dataclass(frozen=True)
class Size:
    horizon: int
    pool: int


class ProgramMissing(RuntimeError):
    """The checkout holds no mfload sources to benchmark."""


def import_program(root: Path):
    """Import mfload from ``root/src``, refusing any other copy of it."""
    src = (root / "src").resolve()
    if not (src / "mfload" / "__init__.py").is_file():
        raise ProgramMissing(f"no mfload package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import mfload
    import mfload.cli
    import mfload.config

    if src not in Path(mfload.__file__).resolve().parents:
        raise ProgramMissing(f"imported mfload from {mfload.__file__}, not from {src}")
    return mfload


class SimWorkload:
    """One ``run_scenario`` call per scenario on explicit composite traffic.

    Every pool entry shares one explicit traffic record (H 0.85, spread
    0.8, no calibration) and has its own scenario seed, so only the arrival
    and demand draws differ between scenarios.
    """

    # the tick engine is interpreted code throughout (see speed.py)
    interpreted_share = 1.0

    def __init__(self, name, policy, arrival_scale, sizes, trace_pass, migration_threshold=0.0):
        self.name = name
        self.policy = policy
        self.arrival_scale = arrival_scale
        self.sizes = sizes
        self.trace_pass = trace_pass
        self.migration_threshold = migration_threshold

    def build(self, mfload, size: str, tmp: Path) -> list:
        sim, traffic = mfload.simulation, mfload.traffic
        horizon = self.sizes[size].horizon
        depth = max(5, math.ceil(math.log2(horizon)))
        policy = sim.Policy(
            kind=sim.PolicyKind(self.policy), migration_threshold=self.migration_threshold
        )
        meta = traffic.GeneratorMeta(
            kind=traffic.GeneratorKind.COMPOSITE,
            seed=1,
            depth=depth,
            target_hurst=0.85,
            multiplier_spread=0.8,
        )
        configs = []
        for seed in range(1, self.sizes[size].pool + 1):
            configs.append(
                sim.ScenarioConfig(
                    traffic=meta,
                    cluster=sim.reference_cluster(),
                    policy=policy,
                    horizon=horizon,
                    window=64,
                    arrival_scale=self.arrival_scale,
                    seed=seed,
                    name=f"{self.name}_{seed}",
                )
            )
        return configs

    def call(self, mfload, config):
        return mfload.simulation.run_scenario(config)

    def outputs(self, config, reports) -> dict:
        return {
            "isl_tot": [r.isl_tot for r in reports],
            "efficiency": [r.efficiency for r in reports],
        }

    def ticks(self, config) -> int:
        return config.horizon


@dataclass(frozen=True)
class SweepCall:
    config_path: str
    seed: int
    out_dir: str
    cells: int
    horizon: int


class SweepWorkload:
    """One ``mfload sweep`` per scenario over a generated grid config."""

    # about the tick engine's share of a sweep in the traced run; the rest is
    # calibration and MF-DFA numerics (see speed.py)
    interpreted_share = 0.35

    def __init__(self, name, grids, sizes, trace_pass):
        self.name = name
        self.grids = grids
        self.sizes = sizes
        self.trace_pass = trace_pass

    def build(self, mfload, size: str, tmp: Path) -> list:
        horizon = self.sizes[size].horizon
        grid = self.grids[size]
        path = tmp / "grid.ini"
        path.write_text(
            "[sim]\n"
            f"name = grid\nhorizon = {horizon}\nwindow = 64\narrival_scale = 0.1\nseed = 1\n\n"
            f"[sweep]\ngrid = {' '.join(grid)}\nbudget = 64\n",
            encoding="utf-8",
        )
        return [
            SweepCall(str(path), seed, str(tmp / f"sweep_{seed}"), len(grid), horizon)
            for seed in range(1, self.sizes[size].pool + 1)
        ]

    def call(self, mfload, inp: SweepCall) -> int:
        argv = ["sweep", "--config", inp.config_path, "--seed", str(inp.seed), "--out", inp.out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            return mfload.cli.main(argv)

    def outputs(self, inp: SweepCall, code: int) -> dict:
        """Summary rows of the sweep; removes its output directory."""
        try:
            if code != 0:
                raise RuntimeError(f"mfload sweep exited with code {code}")
            out = Path(inp.out_dir)
            with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
                rows = list(csv.reader(fh))
            for row in rows[1:]:
                for fname in ("series.csv", "report.csv", "sil.csv", "manifest.json"):
                    if not (out / row[0] / fname).is_file():
                        raise RuntimeError(f"sweep wrote no {row[0]}/{fname}")
            return {
                "header": rows[0],
                "rows": [[row[0]] + [float(v) for v in row[1:]] for row in rows[1:]],
            }
        finally:
            shutil.rmtree(inp.out_dir, ignore_errors=True)

    def ticks(self, inp: SweepCall) -> int:
        return inp.cells * inp.horizon


# trace_pass is the number of scenarios in one traced pass, sized to a few
# seconds untraced
WORKLOADS = {
    w.name: w
    for w in (
        SimWorkload(
            "sparse_least_sil",
            policy="least_sil",
            arrival_scale=0.1,
            sizes={"full": Size(2**14, 16), "tiny": Size(2**10, 3)},
            trace_pass=4,
        ),
        # 2^12 ticks rather than 2^14 keeps one scenario near a second, so a
        # run holds enough scenarios for a steady median
        SimWorkload(
            "saturated_migration",
            policy="threshold_migration",
            arrival_scale=1.0,
            migration_threshold=0.001,
            sizes={"full": Size(2**12, 16), "tiny": Size(2**9, 3)},
            trace_pass=2,
        ),
        SweepWorkload(
            "calibrated_sweep",
            grids={"full": ("0.6:1.5", "0.6:2.5", "0.9:2.5"), "tiny": ("0.9:2.5",)},
            sizes={"full": Size(2**14, 16), "tiny": Size(2**10, 2)},
            trace_pass=1,
        ),
    )
}


def scenario_order(seed: int, pool: int) -> list[int]:
    """Pool indices in the order a run visits them; a pure function of the seed."""
    order = list(range(pool))
    random.Random(seed).shuffle(order)
    return order


def make_tmp(root: Path) -> Path:
    out = root / "perfbench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="tmp-", dir=out))


def timed_setup(root: str, workload: str, size: str) -> float:
    """Seconds to import mfload and build the workload's inputs.

    Meant for a fresh interpreter, so the import is not already cached.
    """
    root = Path(root)
    t0 = time.perf_counter()
    mfload = import_program(root)
    tmp = make_tmp(root)
    try:
        WORKLOADS[workload].build(mfload, size, tmp)
        return time.perf_counter() - t0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def reference_path(workload: str, size: str) -> Path:
    return REFERENCE_DIR / f"{workload}-{size}.json"


def load_reference(workload: str, size: str) -> list[dict]:
    with open(reference_path(workload, size), encoding="utf-8") as fh:
        return json.load(fh)["scenarios"]


def mismatch(got, want, where="output") -> str | None:
    """First difference between an output and its reference, or None."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            return f"{where}: keys differ"
        for key in want:
            found = mismatch(got[key], want[key], f"{where}.{key}")
            if found:
                return found
        return None
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            return f"{where}: length {len(got) if isinstance(got, list) else '?'} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            found = mismatch(g, w, f"{where}[{i}]")
            if found:
                return found
        return None
    if isinstance(want, float):
        if isinstance(got, (int, float)) and math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return None
        return f"{where}: {got!r} != {want!r}"
    return None if got == want else f"{where}: {got!r} != {want!r}"
