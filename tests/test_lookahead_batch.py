"""Bit-for-bit guarantees of the batched look-ahead (paper Eq. 8–13).

Both arms of the hybrid guidance score a candidate by solving one
hypothetical problem per ``(candidate, label)``: information gain re-runs
i-EM (Eq. 8–10), worker-driven guidance re-runs spammer detection
(Eq. 12–13). The batched paths solve all hypotheses of a select at once,
and every float must stay what the one-hypothesis-at-a-time path gives —
``np.array_equal``, never ``allclose`` — or a changed ulp can flip an
``argmax`` tie and change which object the expert sees next:

* :func:`repro.core.em_kernel.run_em_batch` against a serial
  :func:`~repro.core.em_kernel.run_em` per hypothesis, under every chunk
  size;
* stacked :meth:`SpammerDetector.detect_from_counts` against the
  per-worker ``rank_one_distance``/``error_rate`` loop;
* worker-driven and information-gain scores against copies of the
  per-hypothesis loops they replaced (kept here, not in ``src``);
* process- and thread-pool executors against serial scoring.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import em_kernel
from repro.core.answer_set import MISSING, AnswerSet
from repro.core.confusion import (
    error_rate,
    error_rates,
    normalize_rows,
    rank_one_distance,
    rank_one_distances,
    validated_answer_counts,
    validated_confusion_counts,
)
from repro.core.iem import IncrementalEM
from repro.core.uncertainty import answer_set_uncertainty, object_entropies
from repro.core.validation import ExpertValidation
from repro.guidance import InformationGainStrategy, WorkerDrivenStrategy
from repro.guidance.base import GuidanceContext
from repro.parallel.executor import Executor
from repro.simulation.crowd import CrowdConfig, simulate_crowd
from repro.telemetry import Telemetry
from repro.workers.spammer_detection import DetectionResult, SpammerDetector


# ----------------------------------------------------------------------
# run_em_batch ≡ run_em per hypothesis
# ----------------------------------------------------------------------
@st.composite
def batch_problems(draw):
    """An answer matrix (some objects unanswered), a warm start, shared
    validations, and clamped hypotheses — some on validated objects."""
    n = draw(st.integers(2, 14))
    k = draw(st.integers(1, 7))
    # Nine labels take the reductions past numpy's eight-term blocking.
    m = draw(st.sampled_from([2, 3, 4, 9]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    matrix = rng.integers(-1, m, size=(n, k))
    for obj in rng.choice(n, size=draw(st.integers(0, 2)), replace=False):
        matrix[obj] = MISSING
    encoded = em_kernel.encode_answers(
        AnswerSet(matrix, tuple(f"l{i}" for i in range(m))))
    initial = rng.dirichlet(np.ones(m), size=n)
    n_validated = draw(st.integers(0, n - 1))
    validated = np.sort(rng.choice(n, size=n_validated, replace=False))
    labels = rng.integers(0, m, size=n_validated)
    h = draw(st.integers(1, 9))
    clamp_objects = rng.integers(0, n, size=h)
    if n_validated and draw(st.booleans()):
        clamp_objects[0] = validated[0]   # re-validate a validated object
    clamp_labels = rng.integers(0, m, size=h)
    options = dict(max_iter=draw(st.sampled_from([1, 2, 7, 25])),
                   tol=draw(st.sampled_from([1e-4, 1e-2])),
                   smoothing=draw(st.sampled_from([0.0, 0.01])))
    return (encoded, initial, validated, labels, clamp_objects, clamp_labels,
            options)


def serial_solve(encoded, initial, validated, labels, obj, label, options):
    """The single-hypothesis ``run_em`` call a batch row must reproduce."""
    hypothetical = np.full(encoded.n_objects, MISSING)
    hypothetical[validated] = labels
    hypothetical[obj] = label
    clamped = np.flatnonzero(hypothetical != MISSING)
    return em_kernel.run_em(encoded, initial, clamped,
                            hypothetical[clamped], **options)


class TestRunEmBatch:
    @settings(max_examples=80, deadline=None)
    @given(batch_problems())
    def test_every_hypothesis_matches_serial_run_em(self, problem):
        (encoded, initial, validated, labels, objects, hyp_labels,
         options) = problem
        batch = em_kernel.run_em_batch(encoded, initial, validated, labels,
                                       objects, hyp_labels, **options)
        for h, (obj, label) in enumerate(zip(objects, hyp_labels)):
            serial = serial_solve(encoded, initial, validated, labels, obj,
                                  label, options)
            assert np.array_equal(batch.assignments[h], serial.assignment)
            assert np.array_equal(batch.confusions[h], serial.confusions)
            assert np.array_equal(batch.priors[h], serial.priors)
            assert batch.n_iterations[h] == serial.n_iterations
            assert batch.converged[h] == serial.converged

    @settings(max_examples=40, deadline=None)
    @given(batch_problems())
    def test_batch_composition_never_changes_a_result(self, problem):
        """Solving the hypotheses in batches of 1, 3 or all at once gives
        identical floats: no hypothesis depends on its batch-mates."""
        (encoded, initial, validated, labels, objects, hyp_labels,
         options) = problem
        runs = []
        for size in (1, 3, objects.size):
            parts = [em_kernel.run_em_batch(
                encoded, initial, validated, labels,
                objects[start:start + size], hyp_labels[start:start + size],
                **options) for start in range(0, objects.size, size)]
            runs.append({field: np.concatenate([getattr(part, field)
                                                for part in parts])
                         for field in ("assignments", "confusions", "priors",
                                       "n_iterations", "converged")})
        for other in runs[1:]:
            for field, value in runs[0].items():
                assert np.array_equal(value, other[field])

    def test_hypotheses_retire_at_different_iterations(self, small_crowd):
        """A chunk whose hypotheses converge at different iterations (and
        one that hits the cap) still matches serial solves row by row."""
        encoded = em_kernel.encode_answers(small_crowd.answer_set)
        m = encoded.n_labels
        initial = em_kernel.initial_assignment_majority(encoded)
        objects = np.arange(12)
        hyp_labels = np.arange(12) % m
        options = dict(max_iter=6, tol=1e-3, smoothing=0.01)
        batch = em_kernel.run_em_batch(encoded, initial, None, None,
                                       objects, hyp_labels, **options)
        assert np.unique(batch.n_iterations).size > 1
        assert not batch.converged.all()
        for h in range(objects.size):
            serial = serial_solve(encoded, initial, np.empty(0, int),
                                  np.empty(0, int), objects[h],
                                  hyp_labels[h], options)
            assert np.array_equal(batch.assignments[h], serial.assignment)
            assert batch.n_iterations[h] == serial.n_iterations

    def test_empty_hypothesis_list(self, small_crowd):
        encoded = em_kernel.encode_answers(small_crowd.answer_set)
        initial = em_kernel.initial_assignment_majority(encoded)
        batch = em_kernel.run_em_batch(encoded, initial, None, None,
                                       np.empty(0, int), np.empty(0, int))
        assert batch.assignments.shape == (0, encoded.n_objects,
                                           encoded.n_labels)
        assert batch.n_iterations.size == 0

    def test_memoized_operator_is_not_pickled(self, small_crowd):
        encoded = em_kernel.encode_answers(small_crowd.answer_set)
        fresh = len(pickle.dumps(encoded))
        initial = em_kernel.initial_assignment_majority(encoded)
        em_kernel.run_em_batch(encoded, initial, None, None, [0], [1])
        assert "_answer_operator" in encoded.__dict__
        assert len(pickle.dumps(encoded)) == fresh

    def test_rejects_unsorted_encodings_and_bad_arguments(self):
        encoded = em_kernel.EncodedAnswers(
            n_objects=2, n_workers=1, n_labels=2,
            object_index=np.array([1, 0]), worker_index=np.array([0, 0]),
            label_index=np.array([0, 1]))
        initial = np.full((2, 2), 0.5)
        with pytest.raises(ValueError, match="object-sorted"):
            em_kernel.run_em_batch(encoded, initial, None, None, [0], [1])
        ordered = em_kernel.encode_answers(
            AnswerSet(np.array([[0], [1]]), ("a", "b")))
        with pytest.raises(ValueError, match="max_iter"):
            em_kernel.run_em_batch(ordered, initial, None, None, [0], [1],
                                   max_iter=0)
        with pytest.raises(ValueError, match="shapes differ"):
            em_kernel.run_em_batch(ordered, initial, None, None, [0, 1], [1])

    def test_chunk_size_follows_the_byte_budget(self, monkeypatch,
                                                small_crowd):
        encoded = em_kernel.encode_answers(small_crowd.answer_set)
        n, k, m = encoded.n_objects, encoded.n_workers, encoded.n_labels
        per_hypothesis = 32 * (n * m + k * m * m)
        monkeypatch.setattr(em_kernel, "BATCH_BYTES", 5 * per_hypothesis)
        assert em_kernel.batch_chunk_size(encoded) == 5
        monkeypatch.setattr(em_kernel, "BATCH_BYTES", 1)
        assert em_kernel.batch_chunk_size(encoded) == 1


# ----------------------------------------------------------------------
# Stacked detection ≡ per-worker loop
# ----------------------------------------------------------------------
def loop_detect(detector: SpammerDetector, counts, evidence, priors):
    """The per-worker detection loop the stacked SVD replaced."""
    k = counts.shape[0]
    confusions = normalize_rows(counts, smoothing=detector.smoothing)
    scores = np.full(k, np.inf)
    errors = np.zeros(k)
    for w in np.flatnonzero(evidence >= max(detector.min_validated, 1)):
        scores[w] = rank_one_distance(confusions[w])
        errors[w] = error_rate(confusions[w], priors)
    return scores, errors


@st.composite
def count_stacks(draw):
    m = draw(st.sampled_from([2, 3, 4]))
    k = draw(st.integers(1, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = rng.integers(0, 4, size=(k, m, m))
    counts[rng.random((k, m, m)) < 0.4] = 0
    evidence = counts.sum(axis=(1, 2))
    priors = None if draw(st.booleans()) else rng.dirichlet(np.ones(m))
    detector = SpammerDetector(min_validated=draw(st.integers(0, 6)),
                               smoothing=draw(st.sampled_from([0.0, 0.5])))
    return detector, counts, evidence, priors


class TestStackedDetection:
    @settings(max_examples=80, deadline=None)
    @given(count_stacks())
    def test_matches_the_per_worker_loop(self, stack):
        detector, counts, evidence, priors = stack
        result = detector.detect_from_counts(counts, evidence, priors)
        scores, errors = loop_detect(detector, counts, evidence, priors)
        assert np.array_equal(result.spammer_scores, scores)
        assert np.array_equal(result.error_rates, errors)
        assert np.array_equal(result.spammer_mask, scores < detector.tau_s)
        assert np.array_equal(result.sloppy_mask, errors > detector.tau_p)
        # Workers below the evidence bar are never scored or flagged.
        short = evidence < max(detector.min_validated, 1)
        assert np.all(np.isinf(result.spammer_scores[short]))
        assert not result.faulty_mask[short].any()

    @settings(max_examples=60, deadline=None)
    @given(count_stacks())
    def test_stacked_scores_match_single_matrices(self, stack):
        _, counts, _, priors = stack
        confusions = normalize_rows(counts)
        distances = rank_one_distances(confusions)
        rates = error_rates(confusions, priors)
        for w, matrix in enumerate(confusions):
            singular = np.linalg.svd(matrix, compute_uv=False)
            assert distances[w] == np.sqrt(np.sum(singular[1:] ** 2))
            assert rates[w] == error_rate(matrix, priors)
            # The product-then-sum form is the prior-weighted error rate;
            # it may differ from a dot product in the last ulp only.
            weights = (np.full(matrix.shape[0], 1 / matrix.shape[0])
                       if priors is None else priors)
            assert rates[w] == pytest.approx(
                float(np.dot(weights, 1 - np.diag(matrix))), abs=1e-15)

    def test_single_label_and_empty_stacks(self):
        assert rank_one_distances(np.ones((3, 1, 1))).tolist() == [0.0] * 3
        assert rank_one_distances(np.empty((0, 2, 2))).size == 0


# ----------------------------------------------------------------------
# Worker-driven scores ≡ the per-hypothesis loop they replaced
# ----------------------------------------------------------------------
def loop_expected_detections(obj, answer_set, detector, assignment,
                             base_counts, base_evidence, base_faulty, priors):
    """``R(W | o)`` one hypothesis at a time (the replaced implementation)."""
    row = answer_set.matrix[obj]
    answerers = np.flatnonzero(row != MISSING)
    invariant = int(np.count_nonzero(base_faulty)) \
        - int(np.count_nonzero(base_faulty[answerers]))
    if answerers.size == 0:
        return float(np.count_nonzero(base_faulty))
    expected = 0.0
    for label in range(answer_set.n_labels):
        weight = float(assignment[obj, label])
        if weight == 0.0:
            continue
        counts = np.array(base_counts[answerers], copy=True)
        counts[np.arange(answerers.size), label, row[answerers]] += 1
        evidence = base_evidence[answerers] + 1
        detection = detector.detect_from_counts(counts, evidence, priors)
        expected += weight * (invariant + detection.n_faulty)
    return expected


def _context(crowd, n_validated: int, seed: int = 0,
             telemetry=None) -> GuidanceContext:
    validation = ExpertValidation(crowd.answer_set.n_objects,
                                  crowd.answer_set.n_labels)
    for obj in range(n_validated):
        validation.assign(obj, int(crowd.gold[obj]))
    aggregator = IncrementalEM()
    prob_set = aggregator.conclude(crowd.answer_set, validation)
    extra = {} if telemetry is None else {"telemetry": telemetry}
    return GuidanceContext(prob_set=prob_set, aggregator=aggregator,
                           detector=SpammerDetector(min_validated=2),
                           rng=np.random.default_rng(seed), **extra)


@st.composite
def crowds(draw):
    n_workers = draw(st.integers(2, 12))
    config = CrowdConfig(
        n_objects=draw(st.integers(6, 30)), n_workers=n_workers,
        n_labels=draw(st.sampled_from([2, 3, 4])),
        answers_per_object=draw(st.integers(1, min(4, n_workers))))
    crowd = simulate_crowd(config, rng=draw(st.integers(0, 10_000)))
    return crowd, draw(st.integers(0, config.n_objects // 2))


class TestWorkerDrivenScores:
    @settings(max_examples=30, deadline=None)
    @given(crowds(), st.sampled_from([None, 1, 5]))
    def test_scores_match_the_per_hypothesis_loop(self, drawn, limit):
        crowd, n_validated = drawn
        context = _context(crowd, n_validated)
        selection = WorkerDrivenStrategy(candidate_limit=limit).select(
            context)
        prob_set = context.prob_set
        base_counts = validated_confusion_counts(prob_set.answer_set,
                                                 prob_set.validation)
        base_evidence = validated_answer_counts(prob_set.answer_set,
                                                prob_set.validation)
        base_faulty = context.detector.detect_from_counts(
            base_counts, base_evidence, prob_set.priors).faulty_mask
        reference = np.array([
            loop_expected_detections(
                int(obj), prob_set.answer_set, context.detector,
                prob_set.assignment, base_counts, base_evidence,
                base_faulty, prob_set.priors)
            for obj in selection.candidate_indices])
        assert np.array_equal(selection.scores, reference)

    def test_small_budget_splits_stacks_without_changing_scores(
            self, monkeypatch, spammy_crowd):
        context = _context(spammy_crowd, 10)
        strategy = WorkerDrivenStrategy()
        wide = strategy.select(context).scores
        monkeypatch.setattr(em_kernel, "BATCH_BYTES", 1)
        narrow = strategy.select(_context(spammy_crowd, 10)).scores
        assert np.array_equal(wide, narrow)


# ----------------------------------------------------------------------
# Information-gain scores ≡ the per-candidate run_em loop
# ----------------------------------------------------------------------
def loop_posterior_entropies(prob_set, candidates, label_floor, max_iter,
                             tol, smoothing):
    """``H(P | o)`` per candidate, one ``run_em`` per hypothesis (the
    replaced ``_SharedLookahead.__call__``), plus its solve statistics."""
    encoded = em_kernel.encode_answers(prob_set.answer_set)
    plan = em_kernel.kernel_plan(encoded)
    initial = em_kernel.e_step(encoded, prob_set.confusions,
                               prob_set.priors, plan=plan)
    current = answer_set_uncertainty(prob_set)
    validated = prob_set.validation.as_array()
    expected_all, iterations, converged = [], [], []
    for obj in candidates:
        hypothetical = validated.copy()
        expected = 0.0
        for label, weight in enumerate(prob_set.assignment[obj]):
            if weight < label_floor:
                expected += weight * current
                continue
            hypothetical[obj] = label
            clamped = np.flatnonzero(hypothetical != MISSING)
            result = em_kernel.run_em(encoded, initial, clamped,
                                      hypothetical[clamped],
                                      max_iter=max_iter, tol=tol,
                                      smoothing=smoothing)
            expected += weight * float(
                object_entropies(result.assignment).sum())
            iterations.append(result.n_iterations)
            converged.append(result.converged)
        expected_all.append(expected)
    return np.array(expected_all), iterations, converged


class TestInformationGainScores:
    @settings(max_examples=20, deadline=None)
    @given(crowds(), st.sampled_from([None, 4]),
           st.sampled_from([1e-3, 0.3]))
    def test_scores_and_counters_match_serial_solves(self, drawn, limit,
                                                     floor):
        crowd, n_validated = drawn
        hub = Telemetry()
        context = _context(crowd, n_validated, telemetry=hub)
        strategy = InformationGainStrategy(candidate_limit=limit,
                                           label_floor=floor,
                                           lookahead_max_iter=6)
        selection = strategy.select(context)
        expected, iterations, converged = loop_posterior_entropies(
            context.prob_set, selection.candidate_indices, floor, 6,
            context.aggregator.tol, context.aggregator.smoothing)
        current = answer_set_uncertainty(context.prob_set)
        assert np.array_equal(selection.scores, current - expected)

        (span,) = [r for r in hub.tracer.records
                   if r.name == "guidance.select"]
        assert span.attrs["lookahead_solves"] == len(iterations)
        assert span.attrs["lookahead_iterations"] == sum(iterations)
        assert span.attrs["lookahead_capped"] == converged.count(False)
        registry = hub.registry
        assert registry.counter("em.lookahead.solves").value == len(
            iterations)
        assert registry.counter("em.lookahead.iterations").value == sum(
            iterations)
        assert registry.counter("em.lookahead.nonconverged").value == \
            converged.count(False)

    def test_local_lookahead_reports_its_solves(self, small_crowd):
        hub = Telemetry()
        context = _context(small_crowd, 3, telemetry=hub)
        InformationGainStrategy(candidate_limit=4,
                                lookahead="local").select(context)
        (span,) = [r for r in hub.tracer.records
                   if r.name == "guidance.select"]
        assert span.attrs["lookahead_solves"] >= 4
        assert span.attrs["lookahead_iterations"] >= \
            span.attrs["lookahead_solves"]


class TestExecutors:
    @pytest.mark.parametrize("mode", ["processes", "threads"])
    def test_pooled_scoring_is_bitwise_serial(self, mode, small_crowd):
        context = _context(small_crowd, 4)
        serial = InformationGainStrategy(candidate_limit=12).select(context)
        with Executor(mode, max_workers=2) as executor:
            pooled = InformationGainStrategy(
                candidate_limit=12, executor=executor).select(
                    _context(small_crowd, 4))
        assert np.array_equal(pooled.scores, serial.scores)
        assert np.array_equal(pooled.candidate_indices,
                              serial.candidate_indices)
        assert pooled.object_index == serial.object_index

    def test_processes_map_several_chunks(self, monkeypatch, small_crowd):
        """With a one-byte budget every hypothesis is its own chunk, so the
        pool really fans out — and the scores still match serial."""
        monkeypatch.setattr(em_kernel, "BATCH_BYTES", 1)
        serial = InformationGainStrategy(candidate_limit=6).select(
            _context(small_crowd, 2))
        with Executor("processes", max_workers=2) as executor:
            pooled = InformationGainStrategy(
                candidate_limit=6, executor=executor).select(
                    _context(small_crowd, 2))
        assert np.array_equal(pooled.scores, serial.scores)


def test_detection_result_type_is_unchanged():
    result = SpammerDetector().detect_from_counts(
        np.zeros((2, 2, 2), dtype=np.int64), np.zeros(2, dtype=np.int64))
    assert isinstance(result, DetectionResult)
    assert result.n_faulty == 0
