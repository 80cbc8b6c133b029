"""Regenerate the stored reference outputs the benchmark checks against.

Run from the root of a checkout:

    python3 perfbench/make_reference.py

It regenerates every workload at both sizes. Each file under
perfbench/reference/ holds the outputs of every scenario in a workload's
pool, in pool order: the per-window isl_tot and efficiency of a
simulation, or the summary.csv rows of a sweep. Regenerate only when a
change to mfload is meant to change its outputs, and say why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

os.environ.update(workloads.BLAS_PIN)

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    mfload = workloads.import_program(ROOT)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, w in sorted(workloads.WORKLOADS.items()):
        for size in ("full", "tiny"):
            tmp = workloads.make_tmp(ROOT)
            try:
                scenarios = [w.outputs(inp, w.call(mfload, inp)) for inp in w.build(mfload, size, tmp)]
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
            path = workloads.reference_path(name, size)
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"workload": name, "size": size, "scenarios": scenarios}, fh)
                fh.write("\n")
            print(f"wrote {path.relative_to(ROOT)} ({len(scenarios)} scenarios)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
