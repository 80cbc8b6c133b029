"""Fixed reference kernels that measure how fast the machine runs right now.

On a shared host the same scenario can take twice as long from one minute
to the next, and interpreted code slows down more than numpy code does.
Two kernels that never change stand in for the two kinds of work in
mfload. ``interpreted`` is dict updates, float arithmetic and tiny numpy
calls, like the tick engine. ``numerical`` is cumulative sums and FFTs
over freshly allocated arrays of 2^14 to 2^18 values, like calibration
and MF-DFA, whose page faults are part of their cost.

Timing the kernels next to each scenario gives the machine's slowness: the
kernel times over their nominal times, blended by the workload's share of
interpreted work. A host time divided by the slowness is the time the same
work would take on a machine where each kernel takes its nominal time.
Changes to mfload move such times; the machine's drift cancels.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_SMALL = np.arange(64.0)
_SERIES = np.sin(np.arange(2.0**14))


def interpreted() -> float:
    acc = {}
    total = 0.0
    for i in range(60000):
        key = i & 255
        acc[key] = acc.get(key, 0.0) + i * 0.5
        total += i * i % 7
    for _ in range(1500):
        total += float((_SMALL * 1.5 < 40.0).sum())
    return total


def numerical() -> float:
    total = 0.0
    for _ in range(12):
        profile = np.cumsum(_SERIES - _SERIES.mean())
        segments = profile.reshape(-1, 64)
        total += float(np.abs(np.fft.rfft(_SERIES)).sum() + (segments**2).mean(axis=1).sum())
    for n in (15, 16, 17, 18):
        x = np.random.default_rng(n).standard_normal(2**n)
        total += float(np.abs(np.fft.fft(x)).sum() + np.cumsum(x).sum())
    return total


KERNELS = {"interpreted": interpreted, "numerical": numerical}

# about each kernel's time on an unloaded 2-vCPU x86-64 host with Python
# 3.11 and numpy 2.4, so rescaled times stay close to host seconds there
NOMINAL_S = {"interpreted": 0.02, "numerical": 0.04}


def kernel_seconds(name: str, budget_s: float = 0.0, repeats: int = 1) -> float:
    """Median time of one kernel over at least `repeats` runs and `budget_s` seconds."""
    fn = KERNELS[name]
    times = []
    start = time.perf_counter()
    while len(times) < repeats or time.perf_counter() - start < budget_s:
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def slowness(interpreted_share: float, budget_s: float = 0.0, repeats: int = 1,
             measure=kernel_seconds) -> float:
    """Kernel times over nominal, geometrically blended; 1.0 at nominal speed."""
    result = 1.0
    for name, weight in (("interpreted", interpreted_share), ("numerical", 1.0 - interpreted_share)):
        if weight > 0.0:
            seconds = measure(name, budget_s * weight, repeats)
            result *= (seconds / NOMINAL_S[name]) ** weight
    return result


def serve() -> None:
    """Answer each ``name budget_s repeats`` line on stdin with kernel_seconds()."""
    for line in sys.stdin:
        name, budget_s, repeats = line.split()
        print(kernel_seconds(name, float(budget_s), int(repeats)), flush=True)


class KernelProcess:
    """The kernels in a child process, so their arrays never raise the
    benchmark process's own peak memory."""

    def __init__(self):
        self._proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]); import speed; speed.serve()",
             str(Path(__file__).resolve().parent)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def seconds(self, name: str, budget_s: float = 0.0, repeats: int = 1) -> float:
        self._proc.stdin.write(f"{name} {budget_s} {repeats}\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def slowness(self, interpreted_share: float, budget_s: float = 0.0, repeats: int = 1) -> float:
        return slowness(interpreted_share, budget_s, repeats, measure=self.seconds)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=60)
        finally:
            if self._proc.poll() is None:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()
        return False
