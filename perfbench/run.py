"""End-to-end benchmark of the crowd-answer validation engine in ``src/repro``.

Run from the repository root::

    python3 perfbench/run.py --workload hybrid-guidance --seed 1 \\
        --seconds 40 --trace 0

The load comes from this one process and thread: a closed loop with one
simulated expert who answers at once. BLAS threads are pinned to 1 before
numpy is imported. A run keeps starting instances of the workload,
generated from ``--seed``, while one more still fits in ``--seconds`` (an
untraced run measures at least two), then prints every metric with its
unit and sample count, and as its last line one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, measured with no probes
installed.
``--trace 1`` runs every instance twice, first without and then with the
span probes of ``probes.py``, and reports the per-layer metrics plus the
probes' overhead; both copies must give identical deterministic counts.

Store roots, span dumps and per-run detail records go under ``.perfbench/``
in the repository root; store roots are removed when the run ends.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench"

#: name -> (unit, better). ``failed_share`` is carried by the result's
#: ``failed``/``attempted`` fields; ``completed_share`` is its complement,
#: because a metric that reads 0 on every good run cannot carry a bound.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "time_to_goal_s": ("s", "lower"),
    "expert_wait_p50_ms": ("ms", "lower"),
    "expert_wait_p90_ms": ("ms", "lower"),
    "validations_to_goal": ("count", "lower"),
    "final_precision": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
    "completed_share": ("ratio", "higher"),
}

#: Instances an untraced run measures even when they overrun ``--seconds``,
#: so that the fastest-instance figures always have two to choose from.
MIN_INSTANCES = 2

#: Set-ups timed per instance: at least ``SETUP_MIN_REPEATS``, and more
#: until they add up to ``SETUP_BUDGET_S`` (at most ``SETUP_MAX_REPEATS``),
#: so that short set-ups still give a steady median.
SETUP_MIN_REPEATS, SETUP_BUDGET_S, SETUP_MAX_REPEATS = 3, 1.0, 100


@dataclass
class Instance:
    """One instance measured once (with or without probes)."""

    setups: list[float] = field(default_factory=list)
    setup_counts: set = field(default_factory=set)
    time_to_goal: float = float("nan")
    waits: list[float] = field(default_factory=list)
    checked: object = None
    store_bytes: int = 0
    operations: int = 1
    errors: list[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.setups[-1] + self.time_to_goal if self.setups else 0.0


def _measure_instance(workload, inputs, root: Path, min_repeats: int,
                      budget_s: float, tracer=None) -> Instance:
    """Set up at least ``min_repeats`` times and until the set-ups add up
    to ``budget_s``; run the last set-up to the goal and check it."""
    clock = time.perf_counter
    out = Instance()
    installed = tracer if tracer is not None else contextlib.nullcontext()
    state = None
    try:
        with installed:
            while True:
                path = root / f"setup{len(out.setups)}"
                state = None
                gc.collect()
                with _span(tracer, "bench.setup"):
                    start = clock()
                    state = workload.set_up(inputs, path)
                    out.setups.append(clock() - start)
                out.setup_counts.add(workload.setup_counts(state))
                if len(out.setups) >= SETUP_MAX_REPEATS or (
                        len(out.setups) >= min_repeats
                        and sum(out.setups) >= budget_s):
                    break
                shutil.rmtree(path, ignore_errors=True)
            gc.collect()
            with _span(tracer, "bench.goal"):
                start = clock()
                result = workload.to_goal(state, out.waits)
                out.time_to_goal = clock() - start
        out.checked = workload.check(inputs, state, result)
        out.store_bytes = workload.store_bytes(state)
        out.operations = out.checked.operations
        out.errors += out.checked.errors
        if len(out.setup_counts) != 1:
            out.errors.append("set-up counts differ between repeats: "
                              f"{sorted(out.setup_counts)}")
    except Exception:  # a failing instance is reported, not fatal
        out.operations = len(out.waits) + 1
        out.errors.append(traceback.format_exc(limit=3))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return out


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None \
        else contextlib.nullcontext()


# A run with no good instance reports zeros; it is marked incorrect.
def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _fastest_per_question(instances: list[Instance]) -> np.ndarray:
    """For each question (or refresh) index, the fastest of the instances.

    The instances of a run ask the same questions with the same work, so
    any cost of the program recurs at the same index in each; the bursts
    in which other guests slow the shared host for a few seconds do not,
    and the minimum filters them out.
    """
    if not instances:
        return np.empty(0)
    length = min(len(i.waits) for i in instances)
    return np.min([i.waits[:length] for i in instances], axis=0)


def measure(name: str, seed: int, seconds: float, trace: bool,
            size: str = "full") -> dict:
    """Run one benchmark run; returns the full detail record."""
    import host
    import probes
    import workloads

    workload = workloads.make(name, size)
    scratch = WORK_DIR / f"tmp-{os.getpid()}"
    tracer = probes.Tracer() if trace else None
    plain: list[Instance] = []
    traced: list[Instance] = []
    streamed = 0
    workload.prepare()
    # The interpreter, the imports and the campaign are not the program:
    # keep the collector from walking their objects (some 70k, 45 ms a
    # full pass) before each timed region and inside it.
    gc.collect()
    gc.freeze()
    try:
        calib_ms = host.calibration_ms()
        ticks_before = host.cpu_ticks()
        started = time.perf_counter()
        index = 0
        # Start another instance only while one more, at the mean length
        # so far, still ends within the run length.
        while index < (1 if trace else MIN_INSTANCES) or \
                (time.perf_counter() - started) * (index + 1) / index \
                <= seconds:
            inputs = workload.generate(seed, index)
            if index == 0:
                rss_before = host.peak_rss_mb()
            plain.append(_measure_instance(
                workload, inputs, scratch / f"i{index}",
                *((1, 0.0) if trace else (SETUP_MIN_REPEATS, SETUP_BUDGET_S))))
            if trace:
                traced.append(_measure_instance(
                    workload, inputs, scratch / f"t{index}", 1, 0.0, tracer))
                streamed += workload.streamed_answers(inputs)
            if index == 0:
                # Later instances reuse the first one's freed memory, and
                # how many fit in a run depends on the host's speed.
                rss_after = host.peak_rss_mb()
            index += 1
        elapsed = time.perf_counter() - started
        steal = host.steal_share(ticks_before, host.cpu_ticks())
    finally:
        gc.unfreeze()
        shutil.rmtree(scratch, ignore_errors=True)

    for untraced, probed in zip(plain, traced):
        if untraced.checked is None or probed.checked is None:
            continue
        if (untraced.checked.counts != probed.checked.counts
                or untraced.setup_counts != probed.setup_counts):
            probed.errors.append("traced run's deterministic counts differ "
                                 "from the untraced run's")
    if trace:
        totals = probes.summarise(tracer.spans)
        _cross_check(totals, traced)

    everything = plain + traced
    attempted = sum(i.operations for i in everything)
    failed = sum(i.operations for i in everything if i.errors)
    good = [i for i in plain if not i.errors]
    waits = _fastest_per_question(good)
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "size": size, "elapsed_s": elapsed,
        "host": {**host.fingerprint(), "steal_share": steal,
                 "calib_ms": calib_ms},
        "process_peak_rss_mb": {"before": rss_before, "after": rss_after},
        "samples": {"instances": len(good),
                    "setups": sum(len(i.setups) for i in good),
                    "waits": len(waits)},
        "errors": [e for i in everything for e in i.errors],
        "instances": [_instance_record(i) for i in plain],
        "traced_instances": [_instance_record(i) for i in traced],
    }
    if trace:
        metrics = probes.layer_metrics(totals, streamed)
        metrics["store.bytes"] = (
            _median([i.store_bytes for i in traced]), "bytes")
        metrics["host.steal_share"] = (steal, "ratio")
        metrics["host.calib_ms"] = (calib_ms, "ms")
        plain_wall = sum(i.wall for i in plain)
        metrics["trace.overhead"] = (
            sum(i.wall for i in traced) / plain_wall - 1.0
            if plain_wall > 0 else 0.0, "ratio")
        traces = WORK_DIR / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.dump(traces / f"{name}-seed{seed}.jsonl")
    else:
        metrics = {
            "setup_s": _median([_median(i.setups) for i in good]),
            "time_to_goal_s": min((i.time_to_goal for i in good),
                                  default=0.0),
            "expert_wait_p50_ms": _percentile(waits, 50) * 1000.0,
            "expert_wait_p90_ms": _percentile(waits, 90) * 1000.0,
            "validations_to_goal": _median(
                [i.checked.validations for i in good]),
            "final_precision": _median([i.checked.precision for i in good]),
            # The program's share: how far the first instance raised the
            # process's peak RSS above what imports and inputs had taken.
            "peak_rss_mb": rss_after - rss_before,
            "completed_share": 1.0 - failed / attempted,
        }
        metrics = {key: (value, END_TO_END[key][0])
                   for key, value in metrics.items()}
    record.update(attempted=attempted, failed=failed,
                  correct=failed == 0 and bool(good),
                  metrics={k: {"value": v, "unit": u}
                           for k, (v, u) in metrics.items()})
    return record


def _cross_check(totals: dict, traced: list[Instance]) -> None:
    """Probe counts must agree with what the library reports itself."""
    if not traced or any(i.checked is None for i in traced):
        return
    for key, probed in (("em_iterations", "em.refresh.iterations"),
                        ("wal_records", "store.appends")):
        reported = sum(value for i in traced
                       for name, value in i.checked.counts.items()
                       if name.rpartition(".")[2] == key)
        if totals.get(probed, 0) != reported:
            traced[0].errors.append(
                f"probes counted {totals.get(probed, 0)} {probed}, the "
                f"library reports {reported} {key}")


def _instance_record(instance: Instance) -> dict:
    checked = instance.checked
    return {
        "setups_s": instance.setups,
        "time_to_goal_s": instance.time_to_goal,
        "waits_s": instance.waits,
        "validations": None if checked is None else checked.validations,
        "precision": None if checked is None else checked.precision,
        "counts": None if checked is None else checked.counts,
        "store_bytes": instance.store_bytes,
        "errors": instance.errors,
    }


def _report(record: dict) -> None:
    host = record["host"]
    samples = record["samples"]
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={record['trace']} elapsed={record['elapsed_s']:.1f}s "
          f"instances={samples['instances']} setups={samples['setups']} "
          f"waits={samples['waits']}")
    print(f"host nproc={host['nproc']} cpu={host['cpu_model']!r} "
          f"python={host['python']} numpy={host['numpy']} "
          f"steal_share={host['steal_share']:.4f} "
          f"calib_ms={host['calib_ms']:.2f}")
    for key, metric in record["metrics"].items():
        print(f"  {key:32s} {metric['value']:14.6g} {metric['unit']}")
    for error in record["errors"]:
        print(f"ERROR {error}")
    print(f"correct={record['correct']} attempted={record['attempted']} "
          f"failed={record['failed']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    sys.path[:0] = [str(source), str(BENCH_DIR)]
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {source}: {exc}",
              file=sys.stderr)
        return 2
    if not Path(repro.__file__).resolve().is_relative_to(source):
        print(f"perfbench: repro resolved to {repro.__file__}, not to the "
              f"sources under {source}", file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")

    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    runs = WORK_DIR / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    detail = runs / (f"{args.workload}-seed{args.seed}"
                     f"-trace{args.trace}.json")
    detail.write_text(json.dumps(record, indent=1, default=str))
    _report(record)
    print(json.dumps({key: record[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
