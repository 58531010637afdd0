"""Uncertainty-driven expert guidance via information gain (paper §5.2).

For each candidate object ``o`` the strategy evaluates the *expected*
uncertainty of the probabilistic answer set after a hypothetical expert
validation of ``o`` (Eq. 8): for every label ``l`` it re-runs the i-EM
``conclude`` with ``e'(o) = l`` and measures the entropy of the resulting
answer set, weighting by the current belief ``U(o, l)``. The information
gain (Eq. 9) is the expected entropy drop; the strategy selects its argmax
(Eq. 10).

Because one selection requires ``O(|candidates| × m)`` i-EM invocations,
the cost controls mirror — and extend — the paper's implementation notes
(§5.4):

* **lock-step look-ahead**: the flat answer encoding, the warm-start
  E-step and the solver's sparse answer operator are computed **once per
  selection**; the ``(candidate, label)`` hypotheses that pass
  ``label_floor`` are then solved together, a chunk at a time, by
  :func:`~repro.core.em_kernel.run_em_batch`, which iterates the whole
  chunk at once and gives every hypothesis exactly the floats of its own
  ``run_em``. The entropies are folded back into Eq. 8 in label order;
* an :class:`~repro.parallel.executor.Executor` can fan the chunks out over
  threads or processes;
* ``candidate_limit`` optionally prunes candidates to the top-K by object
  entropy before the expensive look-ahead (an implementation choice
  documented in DESIGN.md; ``None`` scores every candidate);
* an opt-in **localized look-ahead** (``lookahead="local"``) re-solves only
  the candidate's worker-neighborhood block — the objects coupled to it
  through shared workers, via the same
  :func:`~repro.core.em_kernel.block_subencoding` machinery that drives
  :class:`~repro.streaming.ShardedRefresher` block refreshes — instead of
  running global EM, trading the exact Eq. 8 expectation for block-local
  cost on large sparse answer sets. Each block has its own encoding, so
  this mode solves its hypotheses one ``run_em`` at a time.

The default exact mode reproduces the rebuild-per-conclude selection
choices bit-for-bit: every hypothesis sees identical floats (same
encoding, same warm start, same clamps, same summation order) as a fresh
``conclude`` would. Each select reports how many hypothetical solves it
ran, their total iterations, and how many hit the iteration cap, on its
``guidance.select`` span and in the ``em.lookahead.*`` counters.
"""

from __future__ import annotations

import numpy as np

from repro.core import em_kernel
from repro.core.answer_set import MISSING
from repro.core.confusion import PROB_FLOOR
from repro.core.iem import IncrementalEM
from repro.core.probabilistic import ProbabilisticAnswerSet
from repro.core.uncertainty import answer_set_uncertainty, object_entropies
from repro.guidance.base import (
    GuidanceContext,
    GuidanceStrategy,
    Selection,
    argmax_with_ties,
)
from repro.core.em_kernel import block_subencoding
from repro.parallel.executor import Executor

#: Labels with current belief below this floor are skipped in the
#: expectation of Eq. 8; their (negligible) mass keeps the current entropy.
DEFAULT_LABEL_FLOOR = 1e-3

#: Supported look-ahead modes.
LOOKAHEAD_MODES = ("exact", "local")


def expected_posterior_entropy(prob_set: ProbabilisticAnswerSet,
                               aggregator: IncrementalEM,
                               obj: int,
                               label_floor: float = DEFAULT_LABEL_FLOOR,
                               *,
                               encoded: em_kernel.EncodedAnswers | None = None,
                               ) -> float:
    """``H(P | o)`` of Eq. 8: expected uncertainty after validating ``obj``.

    Runs one warm-started ``conclude`` per label whose current probability
    exceeds ``label_floor``; the remaining probability mass is assumed to
    leave the uncertainty unchanged (contributing the current ``H(P)``).
    Pass ``encoded`` to reuse an externally built flat encoding across many
    calls (each ``conclude`` otherwise re-flattens the full matrix).
    """
    current_entropy = answer_set_uncertainty(prob_set)
    beliefs = prob_set.assignment[obj]
    expected = 0.0
    for label, weight in enumerate(beliefs):
        if weight < label_floor:
            expected += weight * current_entropy
            continue
        hypothetical = prob_set.validation.with_assignment(obj, label)
        posterior = aggregator.conclude(prob_set.answer_set, hypothetical,
                                        previous=prob_set, encoded=encoded)
        expected += weight * answer_set_uncertainty(posterior)
    return expected


def information_gain(prob_set: ProbabilisticAnswerSet,
                     aggregator: IncrementalEM,
                     obj: int,
                     label_floor: float = DEFAULT_LABEL_FLOOR,
                     *,
                     encoded: em_kernel.EncodedAnswers | None = None,
                     ) -> float:
    """``IG(o) = H(P) − H(P | o)`` (Eq. 9)."""
    return (answer_set_uncertainty(prob_set)
            - expected_posterior_entropy(prob_set, aggregator, obj,
                                         label_floor, encoded=encoded))


class _Lookahead:
    """Shared parts of the two look-ahead scorers.

    :meth:`score` turns a candidate list into the expected posterior
    entropies ``H(P | o)`` of Eq. 8, plus the iteration count and
    convergence flag of every hypothetical solve it ran (candidate-major,
    label-minor). Labels whose belief is below ``label_floor`` are not
    solved; their mass keeps the current entropy.
    """

    def __init__(self, prob_set: ProbabilisticAnswerSet,
                 encoded: em_kernel.EncodedAnswers,
                 label_floor: float, current_entropy: float,
                 max_iter: int, tol: float, smoothing: float) -> None:
        self.assignment = prob_set.assignment
        self.validated = prob_set.validation.as_array()
        self.encoded = encoded
        self.label_floor = label_floor
        self.current_entropy = current_entropy
        self.max_iter = max_iter
        self.tol = tol
        self.smoothing = smoothing

    def _expected(self, candidates: np.ndarray,
                  entropies: np.ndarray) -> np.ndarray:
        """Fold per-hypothesis entropies into ``H(P | o)`` per candidate.

        The sum runs over labels in ascending order, adding
        ``weight × entropy`` term by term — the same float operations as
        :func:`expected_posterior_entropy`.
        """
        expected = np.empty(candidates.size)
        solved = iter(entropies.tolist())
        for index, obj in enumerate(candidates):
            total = 0.0
            for weight in self.assignment[obj]:
                if weight < self.label_floor:
                    total += weight * self.current_entropy
                else:
                    total += weight * next(solved)
            expected[index] = total
        return expected


class _SharedLookahead(_Lookahead):
    """Lock-step scorer of a whole candidate list over one encoding.

    Everything invariant across the ``|candidates| × m`` hypothetical
    solves is computed once per selection: the flat encoding, the
    solver's sparse answer operator, and the warm-start E-step (the
    look-ahead ``conclude``'s initial assignment does not depend on the
    hypothesis — clamping happens inside the solver). :meth:`score`
    enumerates the hypotheses, cuts them into chunks of
    :func:`~repro.core.em_kernel.batch_chunk_size`, and solves each chunk
    with one :func:`~repro.core.em_kernel.run_em_batch` call (the
    executor maps over chunks). Each hypothesis gets exactly the floats
    of its own ``run_em``, so scores match the rebuild-per-conclude path
    bit-for-bit.
    """

    def __init__(self, prob_set: ProbabilisticAnswerSet,
                 encoded: em_kernel.EncodedAnswers,
                 label_floor: float, current_entropy: float,
                 max_iter: int, tol: float, smoothing: float) -> None:
        super().__init__(prob_set, encoded, label_floor, current_entropy,
                         max_iter, tol, smoothing)
        self.validated_objects = np.flatnonzero(self.validated != MISSING)
        self.validated_labels = self.validated[self.validated_objects]
        # The reference scatter (bit-for-bit the plan path's) spares
        # building a kernel plan for this one E-step.
        self.initial = em_kernel.e_step(encoded, prob_set.confusions,
                                        prob_set.priors)

    def hypotheses(self, candidates: np.ndarray,
                   ) -> tuple[np.ndarray, np.ndarray]:
        """The solved ``(object, label)`` pairs, candidate- then label-major."""
        # ``not weight < floor`` rather than ``weight >= floor``: the fold
        # in ``_expected`` skips exactly the labels the comparison skips.
        solved = ~(self.assignment[candidates] < self.label_floor)
        rows, labels = np.nonzero(solved)
        return candidates[rows], labels

    def __call__(self, chunk: tuple[np.ndarray, np.ndarray],
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entropies, iterations and convergence of one hypothesis chunk."""
        objects, labels = chunk
        result = em_kernel.run_em_batch(
            self.encoded, self.initial,
            self.validated_objects, self.validated_labels, objects, labels,
            max_iter=self.max_iter, tol=self.tol, smoothing=self.smoothing)
        entropies = object_entropies(result.assignments).sum(axis=1)
        return entropies, result.n_iterations, result.converged

    def score(self, candidates: np.ndarray, executor: Executor,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        objects, labels = self.hypotheses(candidates)
        size = em_kernel.batch_chunk_size(self.encoded)
        chunks = [(objects[start:start + size], labels[start:start + size])
                  for start in range(0, objects.size, size)]
        # No hypothesis passes the floor only if the floor exceeds every
        # belief of every candidate.
        parts = executor.map(self, chunks) or [
            (np.empty(0), np.empty(0, dtype=np.int64), np.empty(0, bool))]
        entropies, iterations, converged = (
            np.concatenate(column) for column in zip(*parts))
        return self._expected(candidates, entropies), iterations, converged


class _LocalizedLookahead(_Lookahead):
    """Block-local per-candidate scorer (the opt-in ``"local"`` mode).

    For candidate ``o``, the hypothetical validation is propagated only
    through ``o``'s *worker neighborhood*: the objects sharing at least one
    worker with ``o``, solved as an independent block
    (:func:`~repro.core.em_kernel.block_subencoding`) warm-started from
    the current model, exactly like one
    :class:`~repro.streaming.ShardedRefresher` block refresh. Objects
    outside the block keep their current entropies. Per candidate this
    costs EM over the block's answers instead of all ``A`` answers — the
    independent-blocks approximation the paper's partitioning already
    embraces (§5.4); when the neighborhood spans the whole matrix it
    degenerates to the exact solve. Each block has its own encoding, so
    the executor maps over candidates and each hypothesis runs serially
    through :func:`~repro.core.em_kernel.run_em`.
    """

    def __init__(self, prob_set: ProbabilisticAnswerSet,
                 encoded: em_kernel.EncodedAnswers,
                 label_floor: float, current_entropy: float,
                 max_iter: int, tol: float, smoothing: float) -> None:
        super().__init__(prob_set, encoded, label_floor, current_entropy,
                         max_iter, tol, smoothing)
        self.confusions = prob_set.confusions
        self.priors = prob_set.priors
        self.log_conf = np.log(np.clip(prob_set.confusions, PROB_FLOOR,
                                       None))
        self.log_priors = np.log(np.clip(prob_set.priors, PROB_FLOOR, None))
        self.base_entropies = object_entropies(prob_set.assignment)
        # Worker-neighborhood adjacency over the flat encoding: the
        # shared CSR view supplies both the per-object answer slices and
        # the per-worker (stable argsort) segments — built once per
        # encoding epoch, shared with the sharded refresher and session.
        self._csr = em_kernel.csr_view(encoded)
        self._object_starts = self._csr.object_starts

    def _neighborhood(self, obj: int) -> np.ndarray:
        """Sorted unique objects sharing a worker with ``obj`` (incl. it)."""
        workers = self.encoded.worker_index[self._csr.object_slice(obj)]
        if not workers.size:
            return np.array([obj], dtype=np.int64)
        positions = np.concatenate([
            self._csr.worker_positions(int(w)) for w in workers])
        return np.unique(self.encoded.object_index[positions])

    def __call__(self, obj: int) -> list[tuple[float, int, bool]]:
        """``(entropy, iterations, converged)`` of each solved label."""
        objects = self._neighborhood(obj)
        sub, workers = block_subencoding(self.encoded, objects,
                                         object_starts=self._object_starts)
        plan = em_kernel.kernel_plan(sub)
        initial = em_kernel.e_step(
            sub, self.confusions[workers], self.priors, plan=plan,
            log_confusions=self.log_conf[workers],
            log_priors=self.log_priors)
        entropy_of_rest = (float(self.base_entropies.sum())
                           - float(self.base_entropies[objects].sum()))
        block_validated = self.validated[objects]
        local_obj = int(np.searchsorted(objects, obj))
        solves = []
        for label, weight in enumerate(self.assignment[obj]):
            if weight < self.label_floor:
                continue
            hypothetical = block_validated.copy()
            hypothetical[local_obj] = label
            validated_objects = np.flatnonzero(hypothetical != MISSING)
            result = em_kernel.run_em(
                sub, initial,
                validated_objects, hypothetical[validated_objects],
                max_iter=self.max_iter, tol=self.tol,
                smoothing=self.smoothing, plan=plan)
            solves.append((entropy_of_rest + float(
                object_entropies(result.assignment).sum()),
                result.n_iterations, result.converged))
        return solves

    def score(self, candidates: np.ndarray, executor: Executor,
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        solves = [solve for per_candidate in
                  executor.map(self, [int(c) for c in candidates])
                  for solve in per_candidate]
        entropies = np.array([s[0] for s in solves], dtype=float)
        iterations = np.array([s[1] for s in solves], dtype=np.int64)
        converged = np.array([s[2] for s in solves], dtype=bool)
        return self._expected(candidates, entropies), iterations, converged


class InformationGainStrategy(GuidanceStrategy):
    """``select_u(O) = argmax_o IG(o)`` (Eq. 10).

    Parameters
    ----------
    candidate_limit:
        Evaluate the expensive look-ahead only for the top-``K`` candidates
        by object entropy (``None`` = all candidates). Objects with zero
        entropy can never have positive gain from their own validation, so
        pruning low-entropy objects is near-lossless in practice.
    label_floor:
        Belief threshold below which a hypothetical label is not simulated.
    executor:
        Parallel map for candidate scoring (defaults to serial).
    lookahead_max_iter:
        Iteration cap for look-ahead i-EM runs; warm starts converge fast,
        so a low cap bounds the per-selection latency.
    lookahead:
        ``"exact"`` (default) runs each hypothetical solve over the full
        answer set through one shared encoding/plan — identical selections
        to the rebuild-per-conclude path, several times faster.
        ``"local"`` additionally restricts each solve to the candidate's
        worker-neighborhood block (see :class:`_LocalizedLookahead`) — an
        approximation suited to large sparse answer sets where even the
        shared-encoding look-ahead is too slow.
    """

    name = "uncertainty"

    def __init__(self,
                 candidate_limit: int | None = None,
                 label_floor: float = DEFAULT_LABEL_FLOOR,
                 executor: Executor | None = None,
                 lookahead_max_iter: int = 25,
                 lookahead: str = "exact") -> None:
        if candidate_limit is not None and candidate_limit < 1:
            raise ValueError(
                f"candidate_limit must be >= 1 or None, got {candidate_limit}")
        if lookahead not in LOOKAHEAD_MODES:
            raise ValueError(
                f"lookahead must be one of {LOOKAHEAD_MODES}, "
                f"got {lookahead!r}")
        self.candidate_limit = candidate_limit
        self.label_floor = float(label_floor)
        self.executor = executor or Executor("serial")
        self.lookahead_max_iter = int(lookahead_max_iter)
        self.lookahead = lookahead

    # ------------------------------------------------------------------
    def select(self, context: GuidanceContext) -> Selection:
        candidates = self._require_candidates(context)
        prob_set = context.prob_set
        span = context.telemetry.span(
            "guidance.select", strategy=self.name, lookahead=self.lookahead,
            frontier_size=int(candidates.size))
        with span:
            if (self.candidate_limit is not None
                    and candidates.size > self.candidate_limit):
                entropies = object_entropies(prob_set.assignment)[candidates]
                # Stable argsort on the negated key: boundary ties resolve
                # to the lowest candidate index (the PR 2 tie-break
                # convention), unlike reversing an ascending argsort, which
                # picks the highest index and makes the pruned set
                # order-unstable.
                top = np.argsort(-entropies,
                                 kind="stable")[:self.candidate_limit]
                candidates = candidates[np.sort(top)]

            encoded = em_kernel.encode_answers(prob_set.answer_set)
            current_entropy = answer_set_uncertainty(prob_set)
            scorer_type = _LocalizedLookahead if self.lookahead == "local" \
                else _SharedLookahead
            scorer = scorer_type(
                prob_set, encoded, self.label_floor, current_entropy,
                max_iter=self.lookahead_max_iter,
                tol=context.aggregator.tol,
                smoothing=context.aggregator.smoothing,
            )
            posterior_entropies, iterations, converged = scorer.score(
                candidates, self.executor)
            gains = current_entropy - posterior_entropies
            choice = argmax_with_ties(gains, candidates, context.rng)
            solves = int(iterations.size)
            total_iterations = int(iterations.sum())
            capped = int(np.count_nonzero(~converged))
            span.set("candidates_scored", int(candidates.size))
            span.set("lookahead_solves", solves)
            span.set("lookahead_iterations", total_iterations)
            span.set("lookahead_capped", capped)
            span.set("object_index", choice)
        telemetry = context.telemetry
        telemetry.counter("em.lookahead.solves").inc(solves)
        telemetry.counter("em.lookahead.iterations").inc(total_iterations)
        telemetry.counter("em.lookahead.nonconverged").inc(capped)
        return Selection(object_index=choice, strategy=self.name,
                         scores=gains, candidate_indices=candidates)
