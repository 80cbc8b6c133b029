"""The central qualitative result at desk scale.

Three traffic regimes: smooth (H=0.6, dh=1.5), bursty-but-short-memory
(0.6, 2.5), and persistent-and-bursty (0.9, 2.5). The smooth cell should
show the lowest steady-state imbalance, the persistent bursty cell the
highest, and the persistent cell's tail should also wander more (higher
CV): long memory keeps the system from settling.

Each cell is one explicit GeneratorMeta from `calibrate`, which records
the realization the calibration probes measured (seed 167). An explicit
record reproduces its one series whatever the config seed, so each cell
realizes it once, by `resolve_traffic`, and the five seeds run on that
series; only their arrival and demand draws differ. The averages below
are over those draws, not over traffic realizations.
"""

import numpy as np

from mfload import ScenarioConfig, calibrate, run_scenario
from mfload.simulation import resolve_traffic

GRID = ((0.6, 1.5), (0.6, 2.5), (0.9, 2.5))
SEEDS = (1, 2, 3, 4, 5)
HORIZON = 2**14

print("calibrating the three cells (one-time cost) ...")
metas = {cell: calibrate(target_hurst=cell[0], target_delta_h=cell[1]) for cell in GRID}

print(f"{'cell':>12} {'tail mean isl_tot':>18} {'tail CV':>9}")
for cell in GRID:
    series = resolve_traffic(ScenarioConfig(traffic=metas[cell], horizon=HORIZON))
    means, cvs = [], []
    for seed in SEEDS:
        config = ScenarioConfig(traffic=metas[cell], horizon=HORIZON, window=64, seed=seed)
        isl = np.array([r.isl_tot for r in run_scenario(config, series)])
        means.append(isl[-len(isl) // 4:].mean())
        tail = isl[len(isl) // 2:]
        cvs.append(tail.std() / tail.mean())
    label = f"({cell[0]}, {cell[1]})"
    print(f"{label:>12} {np.mean(means):18.5f} {np.mean(cvs):9.3f}")
