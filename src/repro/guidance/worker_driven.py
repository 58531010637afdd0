"""Worker-driven expert guidance (paper §5.3).

Selects the object whose validation is expected to unmask the most faulty
workers. For a candidate object ``o`` and hypothetical expert label ``l``,
``R(W | o = l)`` (Eq. 12) counts the workers that the detectors would flag
after adding the validation ``(o → l)`` to the evidence; the expected count
``R(W | o) = Σ_l U(o, l) · R(W | o = l)`` (Eq. 13) weights the hypotheses by
the current beliefs, and the strategy selects the argmax (Eq. 14).

Only workers who answered ``o`` can change detection status under the
hypothesis, so the implementation splits the count into an invariant part
(non-answerers, computed once per selection) and a per-hypothesis part
(answerers re-scored against their incremented confusion counts). The
answerer blocks of all hypotheses are stacked — as many as fit the
look-ahead's working-set budget per call — into one
:meth:`~repro.workers.spammer_detection.SpammerDetector.detect_from_counts`,
which scores the stack with one batched SVD; the flagged rows are counted
back per hypothesis. Each worker row is scored on its own, so the counts
equal those of one detection per hypothesis.
"""

from __future__ import annotations

import numpy as np

from repro.core import em_kernel
from repro.core.answer_set import MISSING
from repro.core.confusion import (
    validated_answer_counts,
    validated_confusion_counts,
)
from repro.guidance.base import (
    GuidanceContext,
    GuidanceStrategy,
    Selection,
    argmax_with_ties,
)


class WorkerDrivenStrategy(GuidanceStrategy):
    """``select_w(O) = argmax_o R(W | o)`` (Eq. 14).

    Parameters
    ----------
    candidate_limit:
        Score only the ``K`` candidates with the most answers from
        currently-unflagged workers (``None`` = all). More answers on an
        object means more workers whose status the validation could flip.
    """

    name = "worker"

    def __init__(self, candidate_limit: int | None = None) -> None:
        if candidate_limit is not None and candidate_limit < 1:
            raise ValueError(
                f"candidate_limit must be >= 1 or None, got {candidate_limit}")
        self.candidate_limit = candidate_limit

    # ------------------------------------------------------------------
    def select(self, context: GuidanceContext) -> Selection:
        candidates = self._require_candidates(context)
        prob_set = context.prob_set
        answer_set = prob_set.answer_set
        detector = context.detector
        priors = prob_set.priors
        span = context.telemetry.span(
            "guidance.select", strategy=self.name,
            frontier_size=int(candidates.size))
        with span:
            base_counts = validated_confusion_counts(answer_set,
                                                     prob_set.validation)
            base_evidence = validated_answer_counts(answer_set,
                                                    prob_set.validation)
            base_detection = detector.detect_from_counts(
                base_counts, base_evidence, priors)
            base_faulty = base_detection.faulty_mask

            if (self.candidate_limit is not None
                    and candidates.size > self.candidate_limit):
                answered = answer_set.matrix[candidates, :] != MISSING
                coverage = answered.sum(axis=1)
                # Stable argsort on the negated key so boundary ties keep
                # the lowest candidate index (see
                # InformationGainStrategy.select).
                top = np.argsort(-coverage,
                                 kind="stable")[:self.candidate_limit]
                candidates = candidates[np.sort(top)]

            scores = self._expected_detections(
                candidates, answer_set, detector, prob_set.assignment,
                base_counts, base_evidence, base_faulty, priors)
            choice = argmax_with_ties(scores, candidates, context.rng)
            span.set("candidates_scored", int(candidates.size))
            span.set("object_index", choice)
        return Selection(object_index=choice, strategy=self.name,
                         scores=scores, candidate_indices=candidates)

    # ------------------------------------------------------------------
    @staticmethod
    def _expected_detections(candidates: np.ndarray,
                             answer_set,
                             detector,
                             assignment: np.ndarray,
                             base_counts: np.ndarray,
                             base_evidence: np.ndarray,
                             base_faulty: np.ndarray,
                             priors: np.ndarray) -> np.ndarray:
        """``R(W | o)`` for every candidate object (Eq. 13).

        Hypothesis ``(o, l)`` re-scores the answerers of ``o`` with one
        more validated answer each (true label ``l``). The answerer blocks
        of many hypotheses are stacked into one
        :meth:`~repro.workers.spammer_detection.SpammerDetector.detect_from_counts`
        call — as many as fit the look-ahead's working-set budget
        (:data:`~repro.core.em_kernel.BATCH_BYTES`) — and the flagged rows
        counted back per block.
        """
        m = answer_set.n_labels
        total_faulty = int(np.count_nonzero(base_faulty))
        answered = answer_set.matrix[candidates] != MISSING
        # Per candidate: how many answerers, and how many of them are
        # already flagged (their status is re-decided by the hypothesis).
        sizes = answered.sum(axis=1)
        rows, workers = np.nonzero(answered)
        faulty_answerers = np.bincount(rows[base_faulty[workers]],
                                       minlength=candidates.size)
        # Hypotheses (o, l), candidate-major and label-minor. A zero
        # belief is never simulated; an object nobody answered cannot
        # change any status.
        weights = assignment[candidates]
        hyp_rows, hyp_labels = np.nonzero((weights != 0.0)
                                          & (sizes > 0)[:, None])
        flagged = np.zeros(hyp_rows.size, dtype=np.int64)
        # A stacked row costs about four m × m and four m-long float
        # arrays across the detection.
        row_bytes = 8 * 4 * (m * m + m)
        step = max(1, em_kernel.BATCH_BYTES
                   // (row_bytes * max(int(sizes.max(initial=0)), 1)))
        for start in range(0, hyp_rows.size, step):
            chunk_rows = hyp_rows[start:start + step]
            chunk_labels = hyp_labels[start:start + step]
            # The chunk's answerer blocks, hypothesis-major.
            block, block_workers = np.nonzero(answered[chunk_rows])
            objects = candidates[chunk_rows[block]]
            counts = base_counts[block_workers]
            counts[np.arange(block.size), chunk_labels[block],
                   answer_set.matrix[objects, block_workers]] += 1
            detection = detector.detect_from_counts(
                counts, base_evidence[block_workers] + 1, priors)
            flagged[start:start + step] = np.bincount(
                block[detection.faulty_mask], minlength=chunk_rows.size)

        scores = np.empty(candidates.size)
        solved = iter(flagged.tolist())
        for index in range(candidates.size):
            if not sizes[index]:
                scores[index] = float(total_faulty)
                continue
            invariant = total_faulty - int(faulty_answerers[index])
            expected = 0.0
            for weight in weights[index].tolist():
                if weight == 0.0:
                    continue
                expected += weight * (invariant + next(solved))
            scores[index] = expected
        return scores
