"""Host diagnostics recorded with every run.

A shared two-CPU host loses a varying share of its ticks to other guests
(steal), which moves every timing in a set the same way. Each run records
the steal share over its measured region and the time of a fixed
calibration loop, so a contended set can be told apart from a regression.
"""

from __future__ import annotations

import os
import platform
import resource
import time

import numpy as np


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies from the aggregate ``cpu`` line of /proc/stat."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = handle.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu":
        return None
    ticks = [int(value) for value in fields[1:9]]
    return ticks[7], sum(ticks)


def steal_share(before, after) -> float:
    """Share of CPU ticks stolen by the hypervisor between two readings."""
    if before is None or after is None or after[1] <= before[1]:
        return 0.0
    return (after[0] - before[0]) / (after[1] - before[1])


def calibration_ms(repeats: int = 5) -> float:
    """Median time of a fixed pure-Python plus small-numpy loop, in ms."""
    vector = np.arange(256, dtype=float)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i & 7
        for _ in range(500):
            vector = np.exp(-vector * 1e-3) + vector.sum() * 1e-9
        samples.append(time.perf_counter() - start)
    samples.sort()
    return samples[len(samples) // 2] * 1000.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> dict[str, object]:
    """CPU count and model, Python and numpy versions."""
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }
