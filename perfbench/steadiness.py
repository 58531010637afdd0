"""Steadiness record for the benchmark: sets of runs on one code version.

Run a set (ten seeds per workload, one run after another)::

    python3 perfbench/steadiness.py run --label set-a --seeds 1-10

and a second set later, then derive each end-to-end metric's bound from
the two and, with ``--write``, put the bounds into ``BENCHMARK.json``::

    python3 perfbench/steadiness.py bounds set-a set-b --write

A set records, per workload and metric, every run's value with the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread, the
distance between the quartiles as a share of the median; plus each run's
host steal share and calibration time, so a contended set can be
recognised. Sets are stored in ``steadiness.json`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RECORD = BENCH_DIR / "steadiness.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: A bound is three times the worst spread or drift seen, clamped to
#: 0.05–0.25.
BOUND_FLOOR, BOUND_CEILING, BOUND_FACTOR = 0.05, 0.25, 3.0


def _seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _stats(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def run_set(label: str, seeds: list[int], seconds: int,
            workloads: list[str]) -> None:
    benchmark = json.loads(BENCHMARK.read_text())
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    entry = {"seeds": seeds, "seconds": seconds, "workloads": {}}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        steal, calib, failures = [], [], 0
        for seed in seeds:
            command = [sys.executable, str(BENCH_DIR / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(command, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            failures += not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            detail = json.loads((ROOT / ".perfbench" / "runs" / (
                f"{workload}-seed{seed}-trace0.json")).read_text())
            steal.append(detail["host"]["steal_share"])
            calib.append(detail["host"]["calib_ms"])
            entry["host"] = {k: v for k, v in detail["host"].items()
                             if k not in ("steal_share", "calib_ms")}
            print(f"{label} {workload} seed={seed} "
                  f"correct={result['correct']} steal={steal[-1]:.3f} "
                  + " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()),
                  flush=True)
        entry["workloads"][workload] = {
            "failed_runs": failures,
            "host.steal_share": _stats(steal),
            "host.calib_ms": _stats(calib),
            "metrics": {name: _stats(values[name])
                        for name in (m["name"]
                                     for m in benchmark["end_to_end"])},
        }
    record[label] = entry
    RECORD.write_text(json.dumps(record, indent=1) + "\n")


def _worse_by(first: float, second: float, better: str) -> float:
    """How far ``second`` is worse than ``first``, as a share of it."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return max(0.0, change if better == "lower" else -change)


def derive_bounds(first: str, second: str, write: bool) -> bool:
    record = json.loads(RECORD.read_text())
    benchmark = json.loads(BENCHMARK.read_text())
    sets = (record[first], record[second])
    steady = True
    for metric in benchmark["end_to_end"]:
        name, better = metric["name"], metric["better"]
        spread = drift = 0.0
        for workload in sets[0]["workloads"]:
            a, b = (s["workloads"][workload]["metrics"][name] for s in sets)
            spread = max(spread, a["spread"], b["spread"])
            drift = max(drift, _worse_by(a["median"], b["median"], better),
                        _worse_by(b["median"], a["median"], better))
        bound = math.ceil(BOUND_FACTOR * max(spread, drift) * 100) / 100
        bound = min(BOUND_CEILING, max(BOUND_FLOOR, bound))
        ok = spread <= bound / BOUND_FACTOR and drift <= bound
        steady &= ok
        print(f"{name:22s} max spread {spread:.4f}  max drift {drift:.4f}  "
              f"bound {bound:.2f}  {'ok' if ok else 'NOT STEADY'}")
        metric["bound"] = bound
    if write:
        BENCHMARK.write_text(json.dumps(benchmark, indent=2) + "\n")
    return steady


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run and record one set")
    run.add_argument("--label", required=True)
    run.add_argument("--seeds", default="1-10", type=_seeds)
    run.add_argument("--seconds", type=int, default=None,
                     help="run length (default: BENCHMARK.json run_seconds)")
    run.add_argument("--workloads", nargs="*", default=None)
    bounds = commands.add_parser("bounds", help="derive bounds from two sets")
    bounds.add_argument("first")
    bounds.add_argument("second")
    bounds.add_argument("--write", action="store_true")
    args = parser.parse_args(argv)
    if args.command == "run":
        benchmark = json.loads(BENCHMARK.read_text())
        run_set(args.label, args.seeds,
                args.seconds or benchmark["run_seconds"],
                args.workloads or [w["name"] for w in benchmark["workloads"]])
        return 0
    return 0 if derive_bounds(args.first, args.second, args.write) else 1


if __name__ == "__main__":
    sys.exit(main())
