"""Acceptance gate: one test per release criterion, each printing a verdict.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS/FAIL lines. The heavyweight scenario grid (criteria 6, 7, 9) is
computed once in module-scoped fixtures and shared.
"""

import time

import numpy as np
import pytest
from numpy.random import default_rng

from mfload.cli import main as cli_main
from mfload.fractal import mfdfa
from mfload.metrics import ServerSpec, WeightTriple, full_report
from mfload.metrics import ResourceUtilization
from mfload.simulation import (
    ClusterState,
    DemandParams,
    Policy,
    PolicyKind,
    ScenarioConfig,
    arrivals_from_traffic,
    homogeneous_cluster,
    reference_cluster,
    run_scenario,
    step,
)
from mfload.traffic import calibrate, generate_cascade, generate_fgn, generate_from_meta, measure_scaling

GRID = ((0.6, 1.5), (0.6, 2.5), (0.9, 2.5))
SEEDS = tuple(range(1, 11))
HORIZON = 2**14
WINDOW = 64


def _verdict(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def grid_metas():
    """Calibrated generator records for the three (H, delta_h) cells."""
    t0 = time.monotonic()
    metas = {cell: calibrate(target_hurst=cell[0], target_delta_h=cell[1]) for cell in GRID}
    elapsed = time.monotonic() - t0
    measured = {}
    for cell, meta in metas.items():
        series = generate_from_meta(meta, HORIZON)
        measured[cell] = measure_scaling(series)
    return {"metas": metas, "measured": measured, "elapsed": elapsed}


@pytest.fixture(scope="module")
def grid_runs(grid_metas):
    """10-seed scenario runs per grid cell; final-quarter means and tail CVs."""
    means = np.empty((len(GRID), len(SEEDS)))
    cvs = np.empty((len(GRID), len(SEEDS)))
    t0 = time.monotonic()
    completed = 0
    for ci, cell in enumerate(GRID):
        meta = grid_metas["metas"][cell]
        for si, seed in enumerate(SEEDS):
            config = ScenarioConfig(
                traffic=meta,
                horizon=HORIZON,
                window=WINDOW,
                seed=seed,
                name=f"h{cell[0]:g}_dh{cell[1]:g}_s{seed}",
            )
            reports = run_scenario(config)
            isl = np.array([r.isl_tot for r in reports])
            means[ci, si] = isl[-(len(isl) // 4):].mean()
            tail = isl[len(isl) // 2:]
            cvs[ci, si] = tail.std() / tail.mean()
            completed += 1
    elapsed = time.monotonic() - t0
    return {"means": means, "cvs": cvs, "elapsed": elapsed, "completed": completed}


def test_criterion_1_metric_exactness():
    rng = default_rng(812)
    t0 = time.monotonic()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 9))
        specs = [
            ServerSpec(
                id=i,
                cpu_count=int(rng.integers(1, 17)),
                ram_capacity=float(rng.uniform(4.0, 64.0)),
                net_capacity=float(rng.uniform(2.0, 32.0)),
            )
            for i in range(n)
        ]
        utils = [ResourceUtilization(*rng.random(3), window=64) for _ in range(n)]
        raw = rng.random(3)
        w = WeightTriple(*(raw / raw.sum()))
        r = full_report(utils, specs, w)

        cpu = np.array([u.cpu for u in utils])
        ram = np.array([u.ram for u in utils])
        net = np.array([u.net for u in utils])
        cw = np.array([s.cpu_count for s in specs], dtype=float)
        rw = np.array([s.ram_capacity for s in specs])
        nw = np.array([s.net_capacity for s in specs])
        avg = (cpu @ cw / cw.sum(), ram @ rw / rw.sum(), net @ nw / nw.sum())
        isl = (
            float(((cpu - avg[0]) ** 2).sum()),
            float(((ram - avg[1]) ** 2).sum()),
            float(((net - avg[2]) ** 2).sum()),
        )
        sil = (
            w.a * (cpu - avg[0]) ** 2 + w.b * (ram - avg[1]) ** 2 + w.c * (net - avg[2]) ** 2
        )
        diffs = (
            abs(r.isl_cpu - isl[0]),
            abs(r.isl_ram - isl[1]),
            abs(r.isl_net - isl[2]),
            abs(r.ibl_tot - sum(isl)),
            abs(r.isl_tot - sil.mean()),
            abs(r.efficiency - np.mean(w.a * cpu + w.b * ram + w.c * net)),
            float(np.max(np.abs(np.array(r.sil) - sil))),
        )
        worst = max(worst, max(diffs))
    elapsed = time.monotonic() - t0
    _verdict(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"100 random clusters, worst field deviation {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_trivial_zero_and_perturbation():
    w = WeightTriple()
    specs = reference_cluster()
    uniform = [ResourceUtilization(0.5, 0.25, 0.75, window=64) for _ in specs]
    r0 = full_report(uniform, specs, w)
    zero_ok = (
        r0.isl_cpu == 0.0
        and r0.isl_ram == 0.0
        and r0.isl_net == 0.0
        and r0.ibl_tot == 0.0
        and r0.isl_tot == 0.0
    )

    n = 6
    homo = homogeneous_cluster(n)
    wj = 1.0 / n
    quad_ok = True
    worst = 0.0
    for delta in (0.01, 0.05, 0.2):
        utils = [ResourceUtilization(0.4, 0.4, 0.4, window=64) for _ in range(n)]
        utils[2] = ResourceUtilization(0.4 + delta, 0.4, 0.4, window=64)
        floor = w.a * delta**2 * ((1.0 - wj) ** 2 + (n - 1) * wj**2) / n
        got = full_report(utils, homo, w).isl_tot
        worst = max(worst, abs(got - floor))
        quad_ok = quad_ok and got > 0.0 and abs(got - floor) <= 1e-12
    _verdict(
        2,
        zero_ok and quad_ok,
        f"uniform cluster exactly zero: {zero_ok}; "
        f"quadratic bump oracle worst deviation {worst:.2e}",
    )


def test_criterion_3_hurst_recovery():
    t0 = time.monotonic()
    per_target = {}
    for hurst in (0.5, 0.6, 0.7, 0.8, 0.9):
        hits = 0
        for seed in range(10):
            series = generate_fgn(hurst=hurst, length=2**14, seed=seed)
            if abs(measure_scaling(series)[0] - hurst) <= 0.07:
                hits += 1
        per_target[hurst] = hits
    elapsed = time.monotonic() - t0
    ok = all(h >= 8 for h in per_target.values()) and elapsed < 30.0
    _verdict(
        3,
        ok,
        f"hits per target {per_target} (need >= 8/10 each), {elapsed:.1f}s",
    )


def test_criterion_4_monofractal_flatness():
    widths = {}
    for hurst in (0.5, 0.7, 0.9):
        series = generate_fgn(hurst=hurst, length=2**16, seed=0)
        widths[hurst] = mfdfa(series.values).delta_h
    worst = max(widths.values())
    _verdict(
        4,
        worst <= 0.2,
        f"delta_h by target {({h: round(v, 3) for h, v in widths.items()})}, worst {worst:.3f}",
    )


def test_criterion_5_cascade_width_ordering():
    spreads = (0.2, 0.4, 0.8)
    ok_seeds = 0
    for seed in range(5):
        widths = [
            measure_scaling(generate_cascade(depth=14, multiplier_spread=s, seed=seed))[1]
            for s in spreads
        ]
        if widths[0] < widths[1] < widths[2]:
            ok_seeds += 1
    _verdict(5, ok_seeds >= 4, f"strictly increasing width in {ok_seeds}/5 seeds")


def test_criterion_6_calibration(grid_metas):
    residuals = {}
    ok = grid_metas["elapsed"] < 120.0
    for cell in ((0.6, 1.5), (0.9, 2.5)):
        h, dh = grid_metas["measured"][cell]
        residuals[cell] = (round(abs(h - cell[0]), 3), round(abs(dh - cell[1]), 3))
        ok = ok and abs(h - cell[0]) <= 0.1 and abs(dh - cell[1]) <= 0.3
    _verdict(
        6,
        ok,
        f"|H|,|dH| residuals {residuals} (limits 0.1/0.3), "
        f"calibration {grid_metas['elapsed']:.1f}s",
    )


def test_criterion_7_scenario_ordering(grid_runs):
    means, cvs = grid_runs["means"], grid_runs["cvs"]
    lo, mid, hi = 0, 1, 2
    a_hits = int(
        np.sum(
            (means[lo] < means[mid])
            & (means[lo] < means[hi])
            & (means[hi] > means[mid])
        )
    )
    b_hits = int(np.sum(cvs[hi] > cvs[lo]))
    ok = a_hits >= 8 and b_hits >= 8 and grid_runs["elapsed"] < 300.0
    _verdict(
        7,
        ok,
        f"mean ordering {a_hits}/10, cv ordering {b_hits}/10 (need >= 8), "
        f"runs {grid_runs['elapsed']:.1f}s",
    )


def test_criterion_8_determinism(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[traffic]\nkind = fgn\nhurst = 0.7\n"
        "[cluster]\nservers = 4\n"
        "[sim]\nhorizon = 1024\nwindow = 64\narrival_scale = 0.3\nseed = 5\n"
    )
    identical = True
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli_main(["simulate", "--config", str(cfg), "--out", str(b)]) == 0
    for name in ("series.csv", "report.csv", "sil.csv"):
        identical = identical and (a / name).read_bytes() == (b / name).read_bytes()
    g1, g2 = tmp_path / "g1", tmp_path / "g2"
    for out in (g1, g2):
        assert cli_main(["generate", "--hurst", "0.8", "--length", "1024",
                         "--seed", "2", "--out", str(out)]) == 0
    identical = identical and (g1 / "series.csv").read_bytes() == (g2 / "series.csv").read_bytes()
    _verdict(8, identical, "simulate and generate outputs byte-identical across reruns")


def test_criterion_9_safety(grid_runs):
    # every grid run already passed the engine's per-tick utilization check
    # and its end-of-run conservation check by completing without error;
    # here an overloaded instrumented run re-verifies both from the outside
    series = generate_fgn(hurst=0.85, length=1024, seed=90)
    c_rng, d_rng = default_rng(91), default_rng(92)
    state = ClusterState(homogeneous_cluster(2, cpu_count=1, ram_capacity=4.0, net_capacity=2.0))
    pol = Policy(kind=PolicyKind.LEAST_SIL)
    over_cap = 0
    peak = 0.0
    for t in range(1024):
        arrivals = arrivals_from_traffic(
            series, t, 3.0, DemandParams(), c_rng, d_rng, id_start=state.arrived
        )
        step(state, arrivals, pol, WeightTriple())
        for i in range(state.n):
            peak = max(peak, *state.utilization(i))
            if max(state.utilization(i)) > 1.0:
                over_cap += 1
    conserved = state.arrived == state.completed + state.running_count() + state.queue_len()
    ok = over_cap == 0 and conserved and peak <= 1.0 and grid_runs["completed"] == 30
    _verdict(
        9,
        ok,
        f"over-capacity ticks {over_cap}, conservation {conserved}, "
        f"peak utilization {peak:.6f}, "
        f"grid runs completed {grid_runs['completed']}/30",
    )
