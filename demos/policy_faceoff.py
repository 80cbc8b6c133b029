"""Dispatch policies head to head on one bursty scenario.

Same traffic, same demand draws, same mixed cluster; only the placement
rule changes. The explicit record is realized once, by `resolve_traffic`,
and every run takes that series. Deviation-aware placement keeps isl_tot
below blind rotation, and threshold migration, which also moves tasks off
the worst server, keeps it lowest of the four.
"""

import numpy as np

from mfload import GeneratorKind, GeneratorMeta, Policy, PolicyKind, ScenarioConfig, run_scenario
from mfload.simulation import resolve_traffic

meta = GeneratorMeta(
    kind=GeneratorKind.COMPOSITE, seed=7, depth=12, target_hurst=0.85, multiplier_spread=0.8
)
HORIZON = 4096
series = resolve_traffic(ScenarioConfig(traffic=meta, horizon=HORIZON))

print(f"{'policy':>22} {'mean isl_tot':>13} {'mean efficiency':>16}")
for kind in (PolicyKind.ROUND_ROBIN, PolicyKind.LEAST_COMPOSITE,
             PolicyKind.THRESHOLD_MIGRATION, PolicyKind.LEAST_SIL):
    config = ScenarioConfig(
        traffic=meta,
        policy=Policy(kind=kind, migration_threshold=0.001),
        horizon=HORIZON,
        window=64,
        seed=2,
        name=kind.value,
    )
    reports = run_scenario(config, series)
    isl = np.mean([r.isl_tot for r in reports])
    eff = np.mean([r.efficiency for r in reports])
    print(f"{kind.value:>22} {isl:13.5f} {eff:16.3f}")
