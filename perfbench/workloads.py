"""The benchmark's workloads: seeded input generation and measured drivers.

Every workload is a closed loop with one simulated expert who answers at
once (an :class:`~repro.experts.simulated.OracleExpert`) or, on
``stream-ingest``, one event stream replayed as fast as the session takes
it. The crowd simulation, dataset stand-ins and event streams are the load
generator: they run in :meth:`generate`, outside every timed region.

Each workload runs on a fixed campaign: the ``bb`` and ``art`` dataset
stand-ins at their canonical seeds, or one simulated crowd generated from a
constant seed. A run repeats *instances*. On ``checkpointed-target`` and
``stream-ingest``, instance ``i`` of seed ``s`` renumbers the campaign's
objects and workers by a permutation drawn from ``SeedSequence([s, i])``:
the same seed yields the same inputs, and every seed poses the same problem
under other indices. ``hybrid-guidance`` repeats one input, see
:meth:`HybridGuidance.generate`. A fixed campaign is deliberate: EM's
convergence cost varied two- to threefold between independently simulated
crowds of one size, and by a third between seeded thinnings or validation
picks of one crowd, which swamped the signal at this run length.

Each workload exposes five steps, of which only ``set_up`` and ``to_goal``
are timed:

``prepare()``
    Build the fixed campaign (untimed, once per run).
``generate(seed, index)``
    Build one instance's inputs (untimed).
``set_up(inputs, root)``
    From inputs in hand to the first question ready: process or session
    construction including the cold conclude, plus opening the store
    under ``root``.
``to_goal(state, waits)``
    From the first question ready to the goal (or the drained stream),
    including the final checkpoint; appends the latency of every expert
    question (or refresh) to ``waits``.
``check(inputs, state, result)``
    Correctness checks and the deterministic counts of the instance.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from pathlib import Path
import time

import numpy as np

from repro.core.answer_set import MISSING, AnswerSet
from repro.core.validation import ExpertValidation
from repro.experiments.common import hybrid_strategy
from repro.experts.simulated import OracleExpert
from repro.guidance.max_entropy import MaxEntropyStrategy
from repro.metrics.evaluation import precision
from repro.process.goals import PrecisionReached, QualityTarget
from repro.process.validation_process import ValidationProcess
from repro.simulation import stream
from repro.simulation.crowd import (CrowdConfig, SimulatedCrowd,
                                    simulate_crowd)
from repro.simulation.realworld import DATASET_SPECS
from repro.state.filestore import FileSessionStore
from repro.streaming.session import ValidationSession


@dataclass
class Checked:
    """What :meth:`check` learned about one measured instance."""

    validations: int
    precision: float
    operations: int
    counts: dict[str, object]
    errors: list[str] = field(default_factory=list)


def _seeds(seed: int, index: int, n: int) -> list[int]:
    state = np.random.SeedSequence([int(seed), int(index)])
    return [int(x) for x in state.generate_state(n)]


def _renumbering(crowd: SimulatedCrowd, seed: int):
    """Random new orders of the campaign's objects and workers."""
    rng = np.random.default_rng(seed)
    n, k = crowd.answer_set.matrix.shape
    return rng.permutation(n), rng.permutation(k)


def _renumbered(crowd: SimulatedCrowd, objects: np.ndarray,
                workers: np.ndarray) -> SimulatedCrowd:
    """``crowd`` with new object ``i`` = old ``objects[i]`` (same for
    workers): the same problem under other indices."""
    matrix = crowd.answer_set.matrix[np.ix_(objects, workers)]
    return replace(crowd,
                   answer_set=AnswerSet(matrix,
                                        labels=crowd.answer_set.labels),
                   gold=crowd.gold[objects],
                   worker_types=tuple(crowd.worker_types[w]
                                      for w in workers),
                   true_confusions=crowd.true_confusions[workers])


def _posterior_errors(assignment: np.ndarray) -> list[str]:
    errors = []
    if not np.all(np.isfinite(assignment)):
        errors.append("posteriors are not finite")
    elif not np.allclose(assignment.sum(axis=1), 1.0, rtol=0, atol=1e-9):
        errors.append("posterior rows do not sum to 1")
    return errors


def _selection_digest(records) -> str:
    chosen = ",".join(str(r.object_index) for r in records)
    return hashlib.sha1(chosen.encode()).hexdigest()[:16]


def _store_bytes(store: FileSessionStore) -> int:
    return sum(p.stat().st_size for p in Path(store.root).rglob("*")
               if p.is_file())


def _run_process(process: ValidationProcess, waits: list[float]):
    clock = time.perf_counter
    while not process.is_done():
        start = clock()
        process.step()
        waits.append(clock() - start)
    # Returns at once with the goal met; a process with a store takes its
    # final checkpoint here.
    return process.run()


# ----------------------------------------------------------------------
class HybridGuidance:
    """The hybrid arm of the paper's Fig. 10/16 driver on bb and art.

    Information-gain look-ahead (``CANDIDATE_LIMIT`` candidates) plus
    worker-driven guidance, an oracle expert, and ``PrecisionReached(1.0)``,
    on the dense ``bb`` and the sparse, hard ``art`` stand-ins, one after
    the other. Look-ahead EM does almost all the work here.
    """

    name = "hybrid-guidance"
    DATASETS = ("bb", "art")

    def __init__(self, n_objects: dict[str, int]) -> None:
        self.n_objects = n_objects

    def prepare(self) -> None:
        # At the stand-ins' own sizes this is exactly ``load_dataset``.
        self.crowds = [
            simulate_crowd(replace(DATASET_SPECS[name].to_config(),
                                   n_objects=self.n_objects[name]),
                           rng=DATASET_SPECS[name].seed)
            for name in self.DATASETS]

    def generate(self, seed: int, index: int):
        # Every instance, whatever the seed, runs the stand-ins as they are
        # with the same process streams. Renumbering or reseeding changes
        # which tied candidates win, hence the mix of cheap worker-driven
        # and costly look-ahead questions, and moved the p50 wait by a
        # quarter between seeds.
        return list(zip(self.crowds, _seeds(0, 0, len(self.crowds))))

    def set_up(self, inputs, root: Path):
        return [ValidationProcess(crowd.answer_set, OracleExpert(crowd.gold),
                                  strategy=hybrid_strategy(),
                                  goal=PrecisionReached(1.0),
                                  gold=crowd.gold, rng=process_seed)
                for crowd, process_seed in inputs]

    def setup_counts(self, state) -> tuple:
        return tuple(p.session.total_em_iterations for p in state)

    def to_goal(self, state, waits: list[float]):
        return [_run_process(process, waits) for process in state]

    def check(self, inputs, state, reports) -> Checked:
        errors, counts = [], {}
        validations = operations = 0
        precisions = []
        for (crowd, _), process, report in zip(inputs, state, reports):
            name = f"n{crowd.answer_set.n_objects}"
            if not report.goal_reached:
                errors.append(f"{name}: goal not reached within budget")
            errors += _posterior_errors(process.prob_set.assignment)
            validations += len(report.records)
            operations += 1 + len(report.records)
            precisions.append(report.final_precision())
            counts[f"{name}.validations"] = len(report.records)
            counts[f"{name}.selections"] = _selection_digest(report.records)
            counts[f"{name}.concludes"] = process.session.n_concludes
            counts[f"{name}.em_iterations"] = \
                process.session.total_em_iterations
        return Checked(validations, float(np.mean(precisions)), operations,
                       counts, errors)

    def store_bytes(self, state) -> int:
        return 0

    def streamed_answers(self, inputs) -> int:
        return 0


# ----------------------------------------------------------------------
class CheckpointedTarget:
    """``ValidationProcess`` to a quality target with file checkpoints.

    Max-entropy guidance, ``QualityTarget(0.99, 0.95)`` and a
    ``FileSessionStore`` checkpointing every 25 questions, on a simulated
    crowd with 4 labels and 10 answers per object. Guidance is cheap here;
    the work is in the refresh conclude, spammer detection, the WAL and the
    checkpoints.
    """

    name = "checkpointed-target"
    CHECKPOINT_EVERY = 25
    CAMPAIGN_SEED = 20150531

    def __init__(self, n_objects: int, n_workers: int,
                 reliability: float = 0.8) -> None:
        self.config = CrowdConfig(n_objects=n_objects, n_workers=n_workers,
                                  n_labels=4, answers_per_object=10,
                                  reliability=reliability)

    def prepare(self) -> None:
        self.campaign = simulate_crowd(self.config, rng=self.CAMPAIGN_SEED)

    def generate(self, seed: int, index: int):
        (order_seed,) = _seeds(seed, index, 1)
        (process_seed,) = _seeds(0, index, 1)
        crowd = self.campaign
        return _renumbered(crowd, *_renumbering(crowd, order_seed)), \
            process_seed

    def set_up(self, inputs, root: Path):
        crowd, process_seed = inputs
        return ValidationProcess(
            crowd.answer_set, OracleExpert(crowd.gold),
            strategy=MaxEntropyStrategy(),
            goal=QualityTarget(0.99, 0.95), gold=crowd.gold,
            store=FileSessionStore(root),
            checkpoint_every=self.CHECKPOINT_EVERY, rng=process_seed)

    def setup_counts(self, state) -> tuple:
        return (state.session.total_em_iterations,)

    def to_goal(self, state, waits: list[float]):
        return _run_process(state, waits)

    def check(self, inputs, process, report) -> Checked:
        errors = []
        if not process.goal.satisfied(process):
            errors.append("quality target not reached within budget")
        errors += _posterior_errors(process.prob_set.assignment)
        counts = {
            "validations": len(report.records),
            "selections": _selection_digest(report.records),
            "concludes": process.session.n_concludes,
            "em_iterations": process.session.total_em_iterations,
            "wal_records": process.store.wal_position,
            "checkpoints": len(process.store.checkpoints()),
        }
        return Checked(len(report.records), report.final_precision(),
                       1 + len(report.records), counts, errors)

    def store_bytes(self, process) -> int:
        return _store_bytes(process.store)

    def streamed_answers(self, inputs) -> int:
        return 0


# ----------------------------------------------------------------------
@dataclass
class StreamInputs:
    crowd: object
    bulk: AnswerSet
    bulk_validation: ExpertValidation
    events: list
    refresh_every: float
    checkpoint_every: float


class StreamIngest:
    """Bulk-load a session from half a crowd's answers, replay the rest.

    The first half of the timed answer stream (and the validations that
    arrived meanwhile) are the session's set-up; the replay then ingests
    the second half with per-event ``add_answer`` and a WAL append, refines
    on an event-time cadence of :attr:`REFRESHES` intervals, and takes
    :attr:`CHECKPOINTS` timed checkpoints. No guidance runs.
    """

    name = "stream-ingest"
    REFRESHES = 110
    CHECKPOINTS = 5
    ANSWER_RATE = 100.0
    CAMPAIGN_SEED = 20150533

    def __init__(self, n_objects: int, n_workers: int,
                 answers_per_object: int, validations: int) -> None:
        self.config = CrowdConfig(n_objects=n_objects, n_workers=n_workers,
                                  n_labels=4,
                                  answers_per_object=answers_per_object,
                                  reliability=0.8)
        self.validations = validations

    def prepare(self) -> None:
        self.campaign = simulate_crowd(self.config, rng=self.CAMPAIGN_SEED)
        horizon = self.campaign.answer_set.n_answers / self.ANSWER_RATE
        self.events = list(stream.crowd_streams(
            self.campaign, answer_rate=self.ANSWER_RATE,
            validation_rate=self.validations / horizon,
            validation_limit=self.validations, seed=self.CAMPAIGN_SEED))

    def generate(self, seed: int, index: int) -> StreamInputs:
        # The arrival order is part of the fixed campaign; the seed only
        # renumbers objects and workers.
        (order_seed,) = _seeds(seed, index, 1)
        objects, workers = _renumbering(self.campaign, order_seed)
        crowd = _renumbered(self.campaign, objects, workers)
        new_object, new_worker = np.argsort(objects), np.argsort(workers)
        events = [
            stream.AnswerEvent(e.time, int(new_object[e.object_index]),
                               int(new_worker[e.worker_index]), e.label)
            if isinstance(e, stream.AnswerEvent) else
            stream.ValidationEvent(e.time, int(new_object[e.object_index]),
                                   e.label)
            for e in self.events]
        answers = [e for e in events if isinstance(e, stream.AnswerEvent)]
        cut = answers[len(answers) // 2 - 1].time
        n, k = self.config.n_objects, self.config.n_workers
        matrix = np.full((n, k), MISSING, dtype=np.int64)
        validation = ExpertValidation(n, self.config.n_labels)
        rest = []
        for event in events:
            if event.time > cut:
                rest.append(event)
            elif isinstance(event, stream.AnswerEvent):
                matrix[event.object_index, event.worker_index] = event.label
            else:
                validation.assign(event.object_index, event.label)
        bulk = AnswerSet(matrix, labels=crowd.answer_set.labels)
        span = rest[-1].time - cut
        return StreamInputs(crowd, bulk, validation, rest,
                            refresh_every=span / self.REFRESHES,
                            checkpoint_every=span / self.CHECKPOINTS)

    def set_up(self, inputs: StreamInputs, root: Path):
        session = ValidationSession.from_answer_set(inputs.bulk,
                                                    inputs.bulk_validation)
        session.conclude()
        return session, FileSessionStore(root), inputs

    def setup_counts(self, state) -> tuple:
        return (state[0].total_em_iterations,)

    def to_goal(self, state, waits: list[float]):
        session, store, inputs = state
        # Times each refresh the replay triggers: an instance attribute
        # shadows the class method for this session only.
        refine = session.conclude
        clock = time.perf_counter

        def timed_conclude():
            start = clock()
            result = refine()
            waits.append(clock() - start)
            return result
        session.conclude = timed_conclude
        try:
            return stream.replay(
                inputs.events, session,
                conclude_every_seconds=inputs.refresh_every,
                store=store,
                checkpoint_every_seconds=inputs.checkpoint_every)
        finally:
            del session.conclude

    def check(self, inputs: StreamInputs, state, summary) -> Checked:
        session, store, _ = state
        errors = _posterior_errors(session.posteriors())
        replayed_answers = sum(isinstance(e, stream.AnswerEvent)
                               for e in inputs.events)
        replayed_validations = len(inputs.events) - replayed_answers
        expected_validated = inputs.bulk_validation.count \
            + replayed_validations
        if (summary.n_answers, summary.n_validations) != \
                (replayed_answers, replayed_validations):
            errors.append("replay did not ingest every generated event")
        if session.n_answers != inputs.crowd.answer_set.n_answers:
            errors.append(f"session holds {session.n_answers} answers, "
                          f"generated {inputs.crowd.answer_set.n_answers}")
        if session.n_validated != expected_validated:
            errors.append(f"session holds {session.n_validated} "
                          f"validations, generated {expected_validated}")
        labels = np.argmax(session.posteriors(), axis=1)
        counts = {
            "answers": session.n_answers,
            "validations": session.n_validated,
            "concludes": session.n_concludes,
            "em_iterations": session.total_em_iterations,
            "wal_records": store.wal_position,
            "checkpoints": len(store.checkpoints()),
        }
        return Checked(summary.n_validations,
                       precision(labels, inputs.crowd.gold),
                       1 + len(inputs.events), counts, errors)

    def store_bytes(self, state) -> int:
        return _store_bytes(state[1])

    def streamed_answers(self, inputs: StreamInputs) -> int:
        return sum(isinstance(e, stream.AnswerEvent) for e in inputs.events)


#: Input sizes per preset. ``full`` is what the benchmark measures;
#: ``tiny`` keeps the smoke tests to seconds.
SIZES = {
    "full": {
        "hybrid-guidance": lambda: HybridGuidance({"bb": 108, "art": 120}),
        "checkpointed-target": lambda: CheckpointedTarget(1150, 115),
        "stream-ingest": lambda: StreamIngest(1200, 120, 20, 1000),
    },
    "tiny": {
        "hybrid-guidance": lambda: HybridGuidance({"bb": 16, "art": 20}),
        "checkpointed-target": lambda: CheckpointedTarget(200, 40, 0.6),
        "stream-ingest": lambda: StreamIngest(60, 20, 8, 40),
    },
}

WORKLOADS = tuple(SIZES["full"])


def make(name: str, size: str = "full"):
    return SIZES[size][name]()
