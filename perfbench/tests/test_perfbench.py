"""Tests of the end-to-end benchmark itself, at tiny input sizes.

They run each workload once in-process, check the reported metric names
and units against ``BENCHMARK.json``, check that the span probes change no
decision or count, and that ``--seed`` drives the generated inputs.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import probes  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_METRICS = ("guidance.selects", "guidance.candidates_scored",
                 "em.lookahead.solves", "em.lookahead.iterations",
                 "em.refresh.solves", "em.refresh.iterations",
                 "session.concludes", "detect.calls", "store.appends",
                 "store.checkpoints")


@pytest.fixture(autouse=True)
def _work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK_DIR", tmp_path / ".perfbench")


def _measure(name: str, trace: bool, seed: int = 3) -> dict:
    # A run length of 0 still measures exactly one instance.
    return run.measure(name, seed, 0.0, trace, size="tiny")


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(name):
    record = _measure(name, trace=False)
    assert record["correct"], record["errors"]
    assert record["attempted"] >= 1 and record["failed"] == 0
    reported = {k: m["unit"] for k, m in record["metrics"].items()}
    assert reported == _declared("end_to_end")
    # peak_rss_mb is the rise of the process's peak RSS over the run; in a
    # test process that already peaked higher it can read 0.
    assert all(m["value"] > 0 for k, m in record["metrics"].items()
               if k != "peak_rss_mb")
    assert record["metrics"]["peak_rss_mb"]["value"] >= 0
    assert record["samples"]["waits"] >= 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_matches_untraced_counts_and_selections(name):
    record = _measure(name, trace=True)
    assert record["correct"], record["errors"]
    reported = {k: m["unit"] for k, m in record["metrics"].items()}
    assert reported == _declared("per_layer")
    plain, traced = record["instances"], record["traced_instances"]
    assert [i["counts"] for i in plain] == [i["counts"] for i in traced]
    assert record["metrics"]["trace.coverage"]["value"] >= 0.9


def test_traced_counts_repeat_exactly():
    first = _measure("hybrid-guidance", trace=True)["metrics"]
    second = _measure("hybrid-guidance", trace=True)["metrics"]
    for key in COUNT_METRICS:
        assert first[key] == second[key], key


def test_probes_are_removed_after_a_traced_run():
    before = [owner.__dict__[attr] for owner, attr, *_ in probes.TARGETS]
    _measure("stream-ingest", trace=True)
    after = [owner.__dict__[attr] for owner, attr, *_ in probes.TARGETS]
    assert before == after


@pytest.mark.parametrize("name", ["checkpointed-target", "stream-ingest"])
def test_seed_drives_generated_inputs(name):
    workload = workloads.make(name, "tiny")
    workload.prepare()

    def signature(seed: int, index: int = 0) -> list[np.ndarray]:
        inputs = workload.generate(seed, index)
        if name == "checkpointed-target":
            crowd, process_seed = inputs
            return [crowd.answer_set.matrix, np.array([process_seed])]
        return [inputs.bulk.matrix,
                np.array([e.object_index for e in inputs.events])]

    def same(a, b) -> bool:
        return all(x.shape == y.shape and np.array_equal(x, y)
                   for x, y in zip(a, b))

    assert same(signature(1), signature(1))
    assert not same(signature(1), signature(2))
    assert not same(signature(1, 0), signature(1, 1))


def test_self_time_subtracts_children_and_splits_em_by_caller():
    spans = [
        ["bench.goal", 0.0, 10.0, -1, None],
        ["process.step", 1.0, 9.0, 0, None],
        ["guidance.select", 1.0, 5.0, 1, (4, "uncertainty")],
        ["em.run", 2.0, 4.0, 2, (7, False)],
        ["session.conclude", 5.0, 8.0, 1, None],
        ["em.run", 5.5, 7.5, 4, (3, True)],
    ]
    totals = probes.summarise(spans)
    assert totals["wall"] == 10.0
    assert totals["bench.self"] == 2.0
    assert totals["process.self"] == 1.0
    assert totals["guidance.self"] == 2.0
    assert totals["em.lookahead.busy"] == 2.0
    assert totals["em.lookahead.iterations"] == 7
    assert totals["em.lookahead.capped"] == 1
    assert totals["em.refresh.busy"] == 2.0
    assert totals["session.self"] == 1.0
    metrics = probes.layer_metrics(totals, streamed_answers=0)
    assert metrics["trace.coverage"][0] == pytest.approx(0.8)


def test_cli_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stream-ingest",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
