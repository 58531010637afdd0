"""Vectorized expectation-maximization kernel (paper §4.1, Eq. 1–5).

Both the traditional batch EM baseline (:mod:`repro.core.em`) and the
incremental i-EM (:mod:`repro.core.iem`) are thin policies over this kernel;
they differ only in how the first estimate is produced (random/majority
initialization vs. warm start from the previous probabilistic answer set)
and in whether expert validations are clamped as ground truth.

Implementation notes
--------------------
* Answers are flattened into three parallel index arrays (object, worker,
  label), so an E-step is a single scatter of per-answer log-likelihood
  rows and an M-step is one scatter into per-worker count matrices.
  Complexity per iteration is ``O(A·m)`` for ``A`` answers.
* The scatters run in one of two interchangeable forms: a reference
  ``np.add.at`` path, and a fast path driven by a :class:`KernelPlan` of
  precomputed flat gather/scatter indices reduced with ``np.bincount``.
  Both iterate the per-cell additions in the same order, so the two paths
  are **bit-for-bit identical** (``np.add.at`` and ``np.bincount`` are both
  sequential in-order accumulations); the golden Dawid–Skene fixtures pin
  this equivalence.
* All likelihood products run in log space with probability flooring, so
  degenerate confusion rows never produce NaNs.
* Objects with an expert validation are clamped to a one-hot row after
  every E-step (Eq. 4) and therefore act as ground truth in the following
  M-step — this is what makes expert input a "first-class citizen".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from repro.core.answer_set import MISSING, AnswerSet
from repro.core.confusion import PROB_FLOOR, normalize_rows
from repro.errors import InvalidAnswerSetError
from repro.telemetry import NULL_TELEMETRY

#: Default Laplace-style smoothing added to confusion counts in the M-step.
DEFAULT_SMOOTHING = 0.01

#: Default convergence tolerance on ``max |U_t − U_{t−1}|``.
DEFAULT_TOL = 1e-4

#: Default cap on EM iterations.
DEFAULT_MAX_ITER = 100

#: Largest value an ``int32`` index may take; the width-adaptive dtype
#: machinery narrows every index array whose *flat* bound stays under it.
INT32_BOUND = int(np.iinfo(np.int32).max)


def index_dtype(n_objects: int, n_workers: int, n_labels: int,
                n_answers: int = 0) -> np.dtype:
    """Narrowest safe index dtype for an encoding of these dimensions.

    The kernel's flat gather/scatter indices range over ``n·m`` (raveled
    assignment), ``k·m·m`` (raveled confusion stack), and ``A`` (answer
    positions), so ``int32`` is valid exactly when every one of those
    bounds fits — validated here, at build time, rather than trusted.
    Dimensions beyond the bound (or answer logs past 2³¹ entries) widen
    to ``int64``. Halving index width roughly halves the working set of
    a :class:`KernelPlan`, which is what keeps the 10⁵–10⁶-object tiers
    cache-resident (see ``benchmarks/test_scale_tiers.py``).
    """
    bound = max(int(n_objects) * int(n_labels),
                int(n_workers) * int(n_labels) * int(n_labels),
                int(n_objects), int(n_workers), int(n_answers))
    return np.dtype(np.int32 if bound <= INT32_BOUND else np.int64)


@dataclass(frozen=True)
class EncodedAnswers:
    """Flat (object, worker, label) encoding of an answer matrix."""

    n_objects: int
    n_workers: int
    n_labels: int
    object_index: np.ndarray
    worker_index: np.ndarray
    label_index: np.ndarray

    @property
    def n_answers(self) -> int:
        return int(self.object_index.size)

    def __getstate__(self) -> dict:
        # The memoized kernel plan, CSR view and answer operator (see
        # kernel_plan / csr_view / _answer_operator) double the pickled
        # payload of every process-executor task; workers re-derive them
        # from the same memoization in one pass, so never ship them.
        state = self.__dict__.copy()
        state.pop("_kernel_plan", None)
        state.pop("_csr_view", None)
        state.pop("_answer_operator", None)
        return state


def encode_answers(answer_set: AnswerSet) -> EncodedAnswers:
    """Flatten an :class:`~repro.core.answer_set.AnswerSet` for the kernel.

    Index arrays carry the narrowest safe dtype (:func:`index_dtype`):
    ``int32`` for every realistically sized campaign, ``int64`` beyond
    the 2³¹ flat-index bound.
    """
    matrix = answer_set.matrix
    obj, wrk = np.nonzero(matrix != MISSING)
    dtype = index_dtype(answer_set.n_objects, answer_set.n_workers,
                        answer_set.n_labels, obj.size)
    return EncodedAnswers(
        n_objects=answer_set.n_objects,
        n_workers=answer_set.n_workers,
        n_labels=answer_set.n_labels,
        object_index=np.ascontiguousarray(obj, dtype=dtype),
        worker_index=np.ascontiguousarray(wrk, dtype=dtype),
        label_index=np.ascontiguousarray(matrix[obj, wrk], dtype=dtype),
    )


# ----------------------------------------------------------------------
# Kernel plans: precomputed scatter/gather indices per encoding
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class KernelPlan:
    """Precomputed flat indices shared by every E/M step over one encoding.

    The reference :func:`e_step`/:func:`m_step` rebuild the same index
    arithmetic — ``(worker·m + row)·m + label`` gathers and scatters — on
    every invocation and accumulate through ``np.add.at``, which is an
    order of magnitude slower than ``np.bincount`` on these shapes. A plan
    computes the indices once per :class:`EncodedAnswers`:

    ``conf_gather``
        ``(m, A)`` flat indices into a raveled ``(k, m, m)`` confusion
        stack; row ``r`` gathers ``log F_w(r, l)`` for every answer
        ``(o, w, l)``. The same indices are the M-step scatter targets,
        since ``counts[w, r, l]`` lives at the identical flat offset.
    ``assign_gather``
        ``(m, A)`` flat indices into a raveled ``(n, m)`` assignment;
        row ``r`` gathers ``U(o, r)`` for every answer.

    Within any accumulator cell the answers are visited in ascending
    answer order on both paths, so plan-driven results are bit-for-bit
    equal to the ``np.add.at`` reference.

    Obtain plans through :func:`kernel_plan`, which memoizes the plan on
    the encoding object itself — and since :meth:`AnswerStats.encoded`
    caches its encoding per :attr:`AnswerStats.version`, streaming callers
    get one plan per statistics version for free.
    """

    n_objects: int
    n_workers: int
    n_labels: int
    object_index: np.ndarray
    conf_gather: np.ndarray
    assign_gather: np.ndarray

    @property
    def n_answers(self) -> int:
        return int(self.object_index.size)


def kernel_plan(encoded: EncodedAnswers) -> KernelPlan:
    """The (memoized) :class:`KernelPlan` for an encoding.

    The plan is cached on the ``EncodedAnswers`` instance, so repeated
    ``run_em`` calls over the same encoding — warm-started look-aheads,
    streaming refinements, block solves — pay the index construction once.
    """
    plan = encoded.__dict__.get("_kernel_plan")
    if plan is None:
        m = encoded.n_labels
        # Width-adaptive flat indices: the gather values range over k·m·m
        # and n·m, so every operand is cast to the validated index dtype
        # *before* the arithmetic — computing in int32 when the flat
        # bound exceeds 2³¹ would overflow silently, and mixing an int32
        # encoding with int64 rows would silently widen the whole plan.
        dtype = index_dtype(encoded.n_objects, encoded.n_workers,
                            encoded.n_labels, encoded.n_answers)
        worker_index = encoded.worker_index.astype(dtype, copy=False)
        label_index = encoded.label_index.astype(dtype, copy=False)
        object_index = np.ascontiguousarray(
            encoded.object_index.astype(dtype, copy=False))
        rows = np.arange(m, dtype=dtype)[:, None]
        conf_gather = ((worker_index[None, :] * m + rows) * m
                       + label_index[None, :])
        assign_gather = object_index[None, :] * m + rows
        plan = KernelPlan(
            n_objects=encoded.n_objects,
            n_workers=encoded.n_workers,
            n_labels=encoded.n_labels,
            object_index=object_index,
            conf_gather=np.ascontiguousarray(conf_gather),
            assign_gather=np.ascontiguousarray(assign_gather),
        )
        object.__setattr__(encoded, "_kernel_plan", plan)
    return plan


# ----------------------------------------------------------------------
# CSR segment views (per-object and per-worker answer neighborhoods)
# ----------------------------------------------------------------------
class EncodingCSR:
    """Lazy CSR segment views over one encoding epoch.

    The per-object and per-worker neighborhood structures that
    :func:`object_segment_starts` and ad-hoc ``argsort``/``searchsorted``
    pairs used to half-build in three different places (guidance
    look-aheads, :class:`repro.streaming.ShardedRefresher` block payloads,
    session read paths) live here, built **once per encoding epoch** and
    memoized on the encoding itself via :func:`csr_view`:

    ``object_starts``
        Length ``n + 1`` segment boundaries; the answers of object ``o``
        occupy positions ``object_starts[o]:object_starts[o + 1]`` of the
        (object-sorted) encoding. This is the CSR ``indptr`` of the
        object → answer adjacency.
    ``worker_order`` / ``worker_starts``
        A stable argsort of ``worker_index`` plus its segment boundaries:
        ``worker_order[worker_starts[w]:worker_starts[w + 1]]`` are the
        answer positions of worker ``w``, in ascending answer order
        (stability guarantees it). Together they are the CSR transpose —
        the worker → answer adjacency — without materializing per-worker
        copies of the triple arrays.

    Every array carries the encoding's width-adaptive index dtype
    (:func:`index_dtype`), and each is built lazily on first touch so
    callers that only need one side of the adjacency never pay for the
    other.
    """

    __slots__ = ("_encoded", "_object_starts", "_worker_order",
                 "_worker_starts")

    def __init__(self, encoded: EncodedAnswers) -> None:
        self._encoded = encoded
        self._object_starts: np.ndarray | None = None
        self._worker_order: np.ndarray | None = None
        self._worker_starts: np.ndarray | None = None

    def _index_dtype(self) -> np.dtype:
        encoded = self._encoded
        return index_dtype(encoded.n_objects, encoded.n_workers,
                           encoded.n_labels, encoded.n_answers)

    @property
    def encoded(self) -> EncodedAnswers:
        return self._encoded

    @property
    def object_starts(self) -> np.ndarray:
        """Per-object segment boundaries (CSR indptr), length ``n + 1``."""
        if self._object_starts is None:
            encoded = self._encoded
            self._object_starts = np.searchsorted(
                encoded.object_index,
                np.arange(encoded.n_objects + 1),
            ).astype(self._index_dtype(), copy=False)
        return self._object_starts

    @property
    def worker_order(self) -> np.ndarray:
        """Answer positions stably sorted by worker (CSR transpose data)."""
        if self._worker_order is None:
            self._worker_order = np.argsort(
                self._encoded.worker_index, kind="stable",
            ).astype(self._index_dtype(), copy=False)
        return self._worker_order

    @property
    def worker_starts(self) -> np.ndarray:
        """Per-worker boundaries into ``worker_order``, length ``k + 1``."""
        if self._worker_starts is None:
            encoded = self._encoded
            self._worker_starts = np.searchsorted(
                encoded.worker_index[self.worker_order],
                np.arange(encoded.n_workers + 1),
            ).astype(self._index_dtype(), copy=False)
        return self._worker_starts

    def object_slice(self, obj: int) -> slice:
        """Contiguous position range of object ``obj``'s answers."""
        starts = self.object_starts
        return slice(int(starts[obj]), int(starts[obj + 1]))

    def worker_positions(self, worker: int) -> np.ndarray:
        """Answer positions of ``worker``, ascending (a view, not a copy)."""
        starts = self.worker_starts
        return self.worker_order[int(starts[worker]):int(starts[worker + 1])]


def csr_view(encoded: EncodedAnswers) -> EncodingCSR:
    """The (memoized) :class:`EncodingCSR` for an encoding.

    Like :func:`kernel_plan`, the view is cached on the ``EncodedAnswers``
    instance, so the guidance look-aheads, the sharded refresher, and the
    streaming session all share one set of segment arrays per encoding
    epoch instead of each rebuilding their own.
    """
    view = encoded.__dict__.get("_csr_view")
    if view is None:
        view = EncodingCSR(encoded)
        object.__setattr__(encoded, "_csr_view", view)
    return view


# ----------------------------------------------------------------------
# Block extraction (partition-scoped and neighborhood-scoped solves)
# ----------------------------------------------------------------------
def object_segment_starts(encoded: EncodedAnswers) -> np.ndarray:
    """Per-object segment boundaries into a sorted flat encoding.

    ``encoded.object_index`` is non-decreasing on both construction paths
    (:func:`encode_answers` emits row-major ``np.nonzero`` order;
    :meth:`AnswerStats.encoded` lexsorts by ``(object, worker)``), so the
    answers of object ``o`` are exactly positions
    ``starts[o]:starts[o + 1]``. Computing the boundaries once lets block
    extraction run in ``O(block answers)`` instead of an ``O(A)`` scan per
    block. Delegates to the shared :func:`csr_view`, so the boundaries are
    built once per encoding epoch no matter how many subsystems ask.
    """
    return csr_view(encoded).object_starts


def block_subencoding(encoded: EncodedAnswers,
                      objects: np.ndarray,
                      workers: np.ndarray | None = None,
                      *,
                      n_labels: int | None = None,
                      object_starts: np.ndarray | None = None,
                      ) -> tuple[EncodedAnswers, np.ndarray]:
    """Restrict a flat encoding to an object block with local indices.

    The shared seam of every partition-scoped solve: the
    :class:`repro.streaming.ShardedRefresher` block refreshes and the
    localized look-ahead of
    :class:`repro.guidance.information_gain.InformationGainStrategy` both
    re-solve an object neighborhood as its own small EM instance.

    Parameters
    ----------
    encoded:
        The full flat encoding.
    objects:
        Sorted unique object indices of the block.
    workers:
        Sorted unique worker indices covering every answer of ``objects``;
        derived from the block's answers when omitted.
    n_labels:
        Label vocabulary of the sub-encoding (defaults to ``encoded``'s).
    object_starts:
        Precomputed :func:`object_segment_starts` of ``encoded``. With it,
        the block's answer positions are gathered segment-by-segment in
        ``O(block answers)``; without it, an ``O(A)`` ``np.isin`` scan
        locates them.

    Returns
    -------
    (sub_encoding, workers)
        The block's encoding under local (positional) object/worker
        indices, and the worker index set actually used.
    """
    objects = np.asarray(objects, dtype=np.int64)
    if object_starts is not None:
        counts = object_starts[objects + 1] - object_starts[objects]
        positions = np.repeat(object_starts[objects], counts) \
            + _ranges(counts)
        local_obj = np.repeat(np.arange(objects.size, dtype=np.int64),
                              counts)
        kept_workers = encoded.worker_index[positions]
        kept_labels = encoded.label_index[positions]
    else:
        keep = np.isin(encoded.object_index, objects)
        local_obj = np.searchsorted(objects, encoded.object_index[keep])
        kept_workers = encoded.worker_index[keep]
        kept_labels = encoded.label_index[keep]
    if workers is None:
        workers = np.unique(kept_workers)
    else:
        workers = np.asarray(workers, dtype=np.int64)
    sub_labels = encoded.n_labels if n_labels is None else int(n_labels)
    sub_dtype = index_dtype(int(objects.size), int(workers.size),
                            sub_labels, int(local_obj.size))
    sub = EncodedAnswers(
        n_objects=objects.size,
        n_workers=workers.size,
        n_labels=sub_labels,
        object_index=np.ascontiguousarray(local_obj, dtype=sub_dtype),
        worker_index=np.ascontiguousarray(
            np.searchsorted(workers, kept_workers), dtype=sub_dtype),
        label_index=np.ascontiguousarray(kept_labels, dtype=sub_dtype))
    return sub, workers


def _ranges(counts: np.ndarray) -> np.ndarray:
    """``concat(arange(c) for c in counts)`` without a Python loop."""
    total = int(counts.sum())
    if not total:
        return np.empty(0, dtype=np.int64)
    offsets = np.repeat(np.cumsum(counts) - counts, counts)
    return np.arange(total, dtype=np.int64) - offsets


# ----------------------------------------------------------------------
# Incremental sufficient statistics (streaming ingestion)
# ----------------------------------------------------------------------
class AnswerStats:
    """Mutable sufficient statistics over a *growing* answer stream.

    The batch entry point :func:`encode_answers` flattens a full ``n × k``
    matrix on every call — ``O(n·k)`` even when only one answer changed.
    ``AnswerStats`` maintains the same flat encoding as an append-only log
    plus delta-maintained aggregates, so streaming callers
    (:class:`repro.streaming.ValidationSession`) pay ``O(1)`` amortized per
    ingested answer:

    * the ``(object, worker, label)`` triple log (geometrically grown);
    * per-object label vote counts (majority initialization in ``O(n·m)``
      without touching the answer log);
    * per-worker answer counts;
    * per-object and per-worker position indexes into the log, so delta
      queries (:meth:`answers_of_object`, :meth:`objects_of_worker`) never
      scan the full answer stream;
    * a masked-worker set (the §5.3 faulty-worker exclusion) applied at
      encoding time instead of by copying matrix columns.

    :meth:`encoded` produces an :class:`EncodedAnswers` that is **bit-for-bit
    identical** to ``encode_answers(equivalent AnswerSet)``: answers are
    lexicographically sorted by ``(object, worker)``, which is exactly the
    row-major order ``np.nonzero`` yields, so every downstream kernel
    computation (``np.add.at`` scatter order included) matches the batch
    path exactly.

    Dimensions may grow (:meth:`grow`) as unseen objects/workers appear in
    the stream; label vocabulary size is fixed at construction.
    """

    __slots__ = ("_n_objects", "_n_workers", "_n_labels",
                 "_obj", "_wrk", "_lab", "_n_answers",
                 "_cells", "_by_object", "_by_worker", "_masked",
                 "_vote_counts", "_worker_answer_counts",
                 "_encoded_cache", "_version")

    def __init__(self, n_objects: int, n_workers: int, n_labels: int) -> None:
        if n_objects < 0 or n_workers < 0:
            raise ValueError("n_objects and n_workers must be >= 0, got "
                             f"{n_objects} and {n_workers}")
        if n_labels < 1:
            raise ValueError(f"n_labels must be >= 1, got {n_labels}")
        self._n_objects = int(n_objects)
        self._n_workers = int(n_workers)
        self._n_labels = int(n_labels)
        capacity = 64
        dtype = index_dtype(self._n_objects, self._n_workers, self._n_labels)
        self._obj = np.empty(capacity, dtype=dtype)
        self._wrk = np.empty(capacity, dtype=dtype)
        self._lab = np.empty(capacity, dtype=dtype)
        self._n_answers = 0
        #: (object, worker) -> label, for duplicate/conflict detection.
        self._cells: dict[tuple[int, int], int] = {}
        #: object -> positions into the log, for per-object delta queries.
        self._by_object: dict[int, list[int]] = {}
        #: worker -> positions into the log, for per-worker delta queries.
        self._by_worker: dict[int, list[int]] = {}
        self._masked: frozenset[int] = frozenset()
        self._vote_counts = np.zeros((self._n_objects, self._n_labels))
        self._worker_answer_counts = np.zeros(self._n_workers, dtype=np.int64)
        self._encoded_cache: EncodedAnswers | None = None
        self._version = 0

    # ------------------------------------------------------------------
    @classmethod
    def from_answer_set(cls, answer_set: AnswerSet) -> "AnswerStats":
        """Seed statistics from an existing batch answer set."""
        stats = cls(answer_set.n_objects, answer_set.n_workers,
                    answer_set.n_labels)
        matrix = answer_set.matrix
        obj, wrk = np.nonzero(matrix != MISSING)
        stats.add_answers(obj, wrk, matrix[obj, wrk])
        return stats

    # ------------------------------------------------------------------
    @property
    def n_objects(self) -> int:
        return self._n_objects

    @property
    def n_workers(self) -> int:
        return self._n_workers

    @property
    def n_labels(self) -> int:
        return self._n_labels

    @property
    def n_answers(self) -> int:
        """Total ingested answers (masked workers' answers included)."""
        return self._n_answers

    @property
    def masked_workers(self) -> frozenset[int]:
        """Workers whose answers are currently excluded from encoding."""
        return self._masked

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every mutation (cache keys)."""
        return self._version

    def label_of(self, obj: int, worker: int) -> int:
        """Ingested label for a cell (:data:`MISSING` when unanswered)."""
        return self._cells.get((int(obj), int(worker)), MISSING)

    def answers_of_object(self, obj: int) -> tuple[np.ndarray, np.ndarray]:
        """``(workers, labels)`` of every ingested answer for ``obj``."""
        positions = self._by_object.get(int(obj), [])
        idx = np.asarray(positions, dtype=np.int64)
        return self._wrk[idx], self._lab[idx]

    def objects_of_worker(self, worker: int) -> np.ndarray:
        """Unique objects the worker answered (ascending).

        Served from the per-worker position index — ``O(answers of the
        worker)``, not a scan of the full answer log.
        """
        positions = self._by_worker.get(int(worker), [])
        idx = np.asarray(positions, dtype=np.int64)
        return np.unique(self._obj[idx])

    def answer_log(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(objects, workers, labels)`` in exact insertion order (copies).

        The raw append-only triple log — masked workers' answers included —
        which is the complete mutable input of the statistics: replaying it
        through :meth:`add_answers` into a fresh instance of the same
        dimensions rebuilds every aggregate bit-for-bit. This is the
        serialization surface used by :mod:`repro.state`.
        """
        n = self._n_answers
        return (self._obj[:n].copy(), self._wrk[:n].copy(),
                self._lab[:n].copy())

    def vote_counts(self) -> np.ndarray:
        """Per-object label vote counts over *unmasked* answers (copy)."""
        return self._vote_counts.copy()

    def worker_answer_counts(self) -> np.ndarray:
        """Answers ingested per worker, masked or not (copy)."""
        return self._worker_answer_counts.copy()

    # ------------------------------------------------------------------
    def grow(self, n_objects: int | None = None,
             n_workers: int | None = None) -> None:
        """Extend the object/worker dimensions (streams may introduce both).

        Shrinking is rejected; aggregates are padded with zeros.
        """
        if n_objects is not None:
            n_objects = int(n_objects)
            if n_objects < self._n_objects:
                raise ValueError(
                    f"cannot shrink n_objects from {self._n_objects} "
                    f"to {n_objects}")
            if n_objects > self._n_objects:
                extra = np.zeros((n_objects - self._n_objects,
                                  self._n_labels))
                self._vote_counts = np.vstack([self._vote_counts, extra])
                self._n_objects = n_objects
                self._bump()
        if n_workers is not None:
            n_workers = int(n_workers)
            if n_workers < self._n_workers:
                raise ValueError(
                    f"cannot shrink n_workers from {self._n_workers} "
                    f"to {n_workers}")
            if n_workers > self._n_workers:
                self._worker_answer_counts = np.concatenate([
                    self._worker_answer_counts,
                    np.zeros(n_workers - self._n_workers, dtype=np.int64)])
                self._n_workers = n_workers
                self._bump()
        self._maybe_widen()

    def add_answer(self, obj: int, worker: int, label: int) -> bool:
        """Ingest one answer; returns ``False`` for an exact duplicate.

        A conflicting re-answer for an already-answered cell raises
        :class:`~repro.errors.InvalidAnswerSetError`, matching the batch
        :meth:`~repro.core.answer_set.AnswerSet.from_triples` contract.
        """
        obj, worker, label = int(obj), int(worker), int(label)
        if not 0 <= obj < self._n_objects:
            raise InvalidAnswerSetError(
                f"object index {obj} outside [0, {self._n_objects})")
        if not 0 <= worker < self._n_workers:
            raise InvalidAnswerSetError(
                f"worker index {worker} outside [0, {self._n_workers})")
        if not 0 <= label < self._n_labels:
            raise InvalidAnswerSetError(
                f"label code {label} outside [0, {self._n_labels})")
        current = self._cells.get((obj, worker), MISSING)
        if current != MISSING:
            if current == label:
                return False
            raise InvalidAnswerSetError(
                f"cell ({obj}, {worker}) already holds label {current}; "
                f"conflicting re-answer {label} rejected")
        position = self._n_answers
        if position == self._obj.size:
            self._reserve(position + 1)
        self._obj[position] = obj
        self._wrk[position] = worker
        self._lab[position] = label
        self._n_answers += 1
        self._cells[(obj, worker)] = label
        self._by_object.setdefault(obj, []).append(position)
        self._by_worker.setdefault(worker, []).append(position)
        self._worker_answer_counts[worker] += 1
        if worker not in self._masked:
            self._vote_counts[obj, label] += 1.0
        self._bump()
        return True

    def add_answers(self,
                    objects: np.ndarray,
                    workers: np.ndarray,
                    labels: np.ndarray) -> int:
        """Ingest a batch of answers; returns how many were new.

        When the log is empty and the batch holds no duplicate cells (the
        bulk-seeding case of :meth:`from_answer_set`), the aggregates are
        updated with vectorized scatters instead of per-answer calls.
        """
        objects = np.asarray(objects, dtype=np.int64).ravel()
        workers = np.asarray(workers, dtype=np.int64).ravel()
        labels = np.asarray(labels, dtype=np.int64).ravel()
        if objects.size and not self._cells \
                and self._bulk_load(objects, workers, labels):
            return int(objects.size)
        added = 0
        for obj, wrk, lab in zip(objects, workers, labels):
            if self.add_answer(int(obj), int(wrk), int(lab)):
                added += 1
        return added

    def _bulk_load(self, objects: np.ndarray, workers: np.ndarray,
                   labels: np.ndarray) -> bool:
        """Vectorized first fill; returns False to fall back on the loop."""
        if objects.min() < 0 or objects.max() >= self._n_objects \
                or workers.min() < 0 or workers.max() >= self._n_workers \
                or labels.min() < 0 or labels.max() >= self._n_labels:
            return False  # let add_answer raise the precise error
        keys = objects * self._n_workers + workers
        if np.unique(keys).size != keys.size:
            return False  # in-batch duplicates need per-answer semantics
        count = int(objects.size)
        if count > self._obj.size:
            self._reserve(count)
        self._obj[:count] = objects
        self._wrk[:count] = workers
        self._lab[:count] = labels
        self._n_answers = count
        self._cells = dict(zip(zip(objects.tolist(), workers.tolist()),
                               labels.tolist()))
        by_object: dict[int, list[int]] = {}
        by_worker: dict[int, list[int]] = {}
        for position, (obj, wrk) in enumerate(zip(objects.tolist(),
                                                  workers.tolist())):
            by_object.setdefault(obj, []).append(position)
            by_worker.setdefault(wrk, []).append(position)
        self._by_object = by_object
        self._by_worker = by_worker
        np.add.at(self._worker_answer_counts, workers, 1)
        if self._masked:
            keep = ~np.isin(workers,
                            np.fromiter(self._masked, dtype=np.int64))
            np.add.at(self._vote_counts,
                      (objects[keep], labels[keep]), 1.0)
        else:
            np.add.at(self._vote_counts, (objects, labels), 1.0)
        self._bump()
        return True

    def set_masked_workers(self, workers) -> frozenset[int]:
        """Replace the masked-worker set; returns the workers that toggled.

        Vote counts are delta-adjusted with a single ``np.isin`` pass over
        the answer log (one vectorized scatter for all toggled workers at
        once, instead of one ``flatnonzero`` scan per worker).
        """
        new_masked = frozenset(int(w) for w in workers)
        for worker in new_masked:
            if not 0 <= worker < self._n_workers:
                raise InvalidAnswerSetError(
                    f"worker index {worker} outside [0, {self._n_workers})")
        toggled = new_masked ^ self._masked
        if not toggled:
            return frozenset()
        log_workers = self._wrk[:self._n_answers]
        toggled_arr = np.asarray(sorted(toggled), dtype=np.int64)
        positions = np.flatnonzero(np.isin(log_workers, toggled_arr))
        if positions.size:
            newly_masked = np.asarray(sorted(new_masked & toggled),
                                      dtype=np.int64)
            delta = np.where(
                np.isin(log_workers[positions], newly_masked), -1.0, 1.0)
            np.add.at(self._vote_counts,
                      (self._obj[positions], self._lab[positions]), delta)
        self._masked = new_masked
        self._bump()
        return toggled

    # ------------------------------------------------------------------
    def encoded(self) -> EncodedAnswers:
        """The current (masked-filtered) flat encoding, cached per version.

        Sorted by ``(object, worker)`` so it is bit-for-bit identical to
        :func:`encode_answers` on the equivalent answer matrix.
        """
        if self._encoded_cache is not None:
            return self._encoded_cache
        obj = self._obj[:self._n_answers]
        wrk = self._wrk[:self._n_answers]
        lab = self._lab[:self._n_answers]
        if self._masked:
            keep = ~np.isin(wrk, np.fromiter(self._masked, dtype=np.int64))
            obj, wrk, lab = obj[keep], wrk[keep], lab[keep]
        order = np.lexsort((wrk, obj))
        self._encoded_cache = EncodedAnswers(
            n_objects=self._n_objects,
            n_workers=self._n_workers,
            n_labels=self._n_labels,
            object_index=np.ascontiguousarray(obj[order]),
            worker_index=np.ascontiguousarray(wrk[order]),
            label_index=np.ascontiguousarray(lab[order]),
        )
        return self._encoded_cache

    def majority_assignment(self) -> np.ndarray:
        """Majority initialization from the maintained vote counts.

        Counts are whole numbers, so any ingestion order sums to the exact
        same floats as :func:`initial_assignment_majority` over
        :meth:`encoded` — the cold-start path stays bit-for-bit stable.
        """
        return normalize_rows(self._vote_counts.copy())

    def to_matrix(self, include_masked: bool = True) -> np.ndarray:
        """Materialize the ``n × k`` answer matrix (⊥ = :data:`MISSING`)."""
        matrix = np.full((self._n_objects, self._n_workers), MISSING,
                         dtype=np.int64)
        obj = self._obj[:self._n_answers]
        wrk = self._wrk[:self._n_answers]
        lab = self._lab[:self._n_answers]
        matrix[obj, wrk] = lab
        if not include_masked and self._masked:
            matrix[:, sorted(self._masked)] = MISSING
        return matrix

    # ------------------------------------------------------------------
    def _reserve(self, capacity: int) -> None:
        """Grow the triple log to hold at least ``capacity`` answers.

        Growth is geometric: whatever the requested size, the new capacity
        is at least **double** the current one, so a stream of ``A``
        appends performs ``O(log A)`` reallocations and ``O(A)`` total
        copied elements — never the ``O(A²)`` copy cascade a
        request-sized policy degrades to on million-answer bulk ingest.
        The policy lives here (not at the call sites) so every growth
        path inherits it; ``tests/test_scale_kernel.py`` pins it.
        """
        capacity = max(int(capacity), 2 * self._obj.size)
        for name in ("_obj", "_wrk", "_lab"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[:self._n_answers] = old[:self._n_answers]
            setattr(self, name, grown)

    def _maybe_widen(self) -> None:
        """Widen the triple log when grown dimensions outgrow its dtype.

        Streams may :meth:`grow` past the bound the construction-time
        :func:`index_dtype` was validated against; indices already stored
        are unaffected (they were bounded by the *old* dimensions), but
        future appends need the wider type.
        """
        dtype = index_dtype(self._n_objects, self._n_workers,
                            self._n_labels, self._n_answers)
        if dtype.itemsize > self._obj.dtype.itemsize:
            for name in ("_obj", "_wrk", "_lab"):
                setattr(self, name, getattr(self, name).astype(dtype))

    def _bump(self) -> None:
        self._version += 1
        self._encoded_cache = None

    def __repr__(self) -> str:
        return (f"AnswerStats(n_objects={self._n_objects}, "
                f"n_workers={self._n_workers}, n_labels={self._n_labels}, "
                f"n_answers={self._n_answers}, "
                f"masked={sorted(self._masked)})")


def update_stats(stats: AnswerStats,
                 delta_answers) -> AnswerStats:
    """Apply a batch of new ``(object, worker, label)`` answers to ``stats``.

    The incremental sibling of :func:`encode_answers`: instead of
    re-flattening a full matrix, only the delta is ingested and the
    maintained sufficient statistics (triple log, vote counts, per-worker
    counts) are updated in place. ``delta_answers`` is any iterable of
    integer triples (an ``EncodedAnswers`` is accepted too). Returns
    ``stats`` for chaining.
    """
    if isinstance(delta_answers, EncodedAnswers):
        stats.add_answers(delta_answers.object_index,
                          delta_answers.worker_index,
                          delta_answers.label_index)
        return stats
    for obj, wrk, lab in delta_answers:
        stats.add_answer(int(obj), int(wrk), int(lab))
    return stats


@dataclass(frozen=True)
class EMResult:
    """Converged (or iteration-capped) EM state.

    Attributes
    ----------
    assignment:
        ``n × m`` matrix ``U``; each row is a distribution over labels.
    confusions:
        ``k × m × m`` stack of row-stochastic worker confusion matrices.
    priors:
        Length-``m`` label prior ``p(l)`` (Eq. 3).
    n_iterations:
        Number of E/M iterations executed.
    converged:
        Whether the tolerance was reached before the iteration cap.
    """

    assignment: np.ndarray
    confusions: np.ndarray
    priors: np.ndarray
    n_iterations: int
    converged: bool


# ----------------------------------------------------------------------
# Initial estimates
# ----------------------------------------------------------------------
def initial_assignment_majority(encoded: EncodedAnswers) -> np.ndarray:
    """Soft majority-vote initialization: normalized per-object vote counts.

    Objects with no answers start uniform. This is the standard
    Dawid–Skene [9] initialization.
    """
    n, m = encoded.n_objects, encoded.n_labels
    counts = np.zeros((n, m), dtype=float)
    np.add.at(counts, (encoded.object_index, encoded.label_index), 1.0)
    return normalize_rows(counts)


def initial_assignment_uniform(encoded: EncodedAnswers) -> np.ndarray:
    """Uninformative uniform initialization."""
    n, m = encoded.n_objects, encoded.n_labels
    return np.full((n, m), 1.0 / m)


def initial_assignment_random(encoded: EncodedAnswers,
                              rng: np.random.Generator) -> np.ndarray:
    """Random-probability initialization — the paper's "traditional EM"
    restart policy (§6.4): each object row is an independent Dirichlet(1)
    draw."""
    n, m = encoded.n_objects, encoded.n_labels
    return rng.dirichlet(np.ones(m), size=n)


# ----------------------------------------------------------------------
# E/M steps
# ----------------------------------------------------------------------
def clamp_validated(assignment: np.ndarray,
                    validated_objects: np.ndarray,
                    validated_labels: np.ndarray) -> np.ndarray:
    """Overwrite validated rows with one-hot expert labels (Eq. 4).

    Returns ``assignment`` (mutated in place) for chaining.
    """
    if validated_objects.size:
        assignment[validated_objects, :] = 0.0
        assignment[validated_objects, validated_labels] = 1.0
    return assignment


def estimate_priors(assignment: np.ndarray) -> np.ndarray:
    """Label priors ``p(l) = Σ_o U(o, l) / |O|`` (Eq. 3)."""
    n = assignment.shape[0]
    if n == 0:
        m = assignment.shape[1]
        return np.full(m, 1.0 / m)
    priors = assignment.sum(axis=0) / n
    # Guard against all-mass-on-one-label degeneracies feeding log(0).
    clipped = np.clip(priors, PROB_FLOOR, None)
    return clipped / clipped.sum()


def m_step(encoded: EncodedAnswers,
           assignment: np.ndarray,
           smoothing: float = DEFAULT_SMOOTHING,
           *,
           plan: KernelPlan | None = None,
           dtype: np.dtype | type | str = np.float64) -> np.ndarray:
    """Estimate worker confusion matrices from the soft assignment (Eq. 5).

    ``F_w(l', l) ∝ Σ_o U(o, l') · d_w(o, l)``, row-normalized with
    ``smoothing`` pseudo-counts; rows with no evidence become uniform.

    With a ``plan`` the scatter runs as one ``np.bincount`` segment
    reduction over precomputed flat indices; without one, the reference
    ``np.add.at`` scatter rebuilds the indices in place. Both accumulate
    each count cell in ascending answer order, so the results are
    bit-for-bit identical.

    ``dtype`` selects the accumulation precision. The ``float64`` default
    is the bit-exact path above. ``float32`` is the scale-tier opt-in:
    the plan path loops the bincount per assignment row ``r`` (rows
    target disjoint ``(w, r, l)`` cells, so the pieces assemble exactly),
    bounding the float64 temporaries ``np.bincount`` creates internally
    to one answer-length array instead of ``m`` of them — that, plus the
    float32 gather, is what cuts peak memory below the 0.6× target in
    ``benchmarks/test_scale_tiers.py``. Reduced precision is approximate:
    plan and reference results agree to float32 tolerance, not bit-wise.
    """
    k, m = encoded.n_workers, encoded.n_labels
    out_dtype = np.dtype(dtype)
    if not encoded.n_answers:
        return normalize_rows(np.zeros((k, m, m), dtype=float),
                              smoothing=smoothing).astype(out_dtype,
                                                          copy=False)
    if plan is not None:
        if out_dtype == np.float64:
            counts = np.bincount(
                plan.conf_gather.reshape(-1),
                weights=assignment.reshape(-1)[
                    plan.assign_gather.reshape(-1)],
                minlength=k * m * m).reshape(k, m, m)
        else:
            counts = np.empty((k, m, m), dtype=out_dtype)
            flat_assignment = np.ascontiguousarray(
                assignment, dtype=out_dtype).reshape(-1)
            for row in range(m):
                row_counts = np.bincount(
                    plan.conf_gather[row],
                    weights=flat_assignment[plan.assign_gather[row]],
                    minlength=k * m * m).reshape(k, m, m)
                counts[:, row, :] = row_counts[:, row, :]
        if smoothing > 0:
            # Inline the normalize_rows smoothed branch: counts are
            # bincount sums of non-negative probabilities and smoothing
            # makes every row total positive, so the validation scan and
            # zero-row selects are dead weight here. Same divisions,
            # bit-for-bit identical result.
            smoothed = counts + counts.dtype.type(smoothing)
            return smoothed / smoothed.sum(axis=-1, keepdims=True)
    else:
        # counts[w, :, l] += U[o, :] for each answer (o, w, l). Flattened
        # scatter: index = (w*m + row)*m + l for each of the m rows.
        counts = np.zeros((k, m, m), dtype=out_dtype)
        rows = np.arange(m)
        flat_index = ((encoded.worker_index.astype(np.int64)[:, None] * m
                       + rows[None, :]) * m
                      + encoded.label_index[:, None])
        np.add.at(counts.reshape(-1), flat_index.reshape(-1),
                  np.ascontiguousarray(
                      assignment[encoded.object_index, :],
                      dtype=out_dtype).reshape(-1))
    return normalize_rows(counts, smoothing=smoothing)


def scatter_log_likelihood(encoded: EncodedAnswers,
                           log_confusions: np.ndarray,
                           *,
                           plan: KernelPlan | None = None,
                           dtype: np.dtype | type | str = np.float64,
                           ) -> np.ndarray:
    """Per-object log-likelihood rows ``Σ_answers log F_w(·, l)``.

    The E-step's scatter, factored out so delta-maintained read paths
    (:meth:`repro.streaming.ValidationSession.posteriors`) share it. With a
    ``plan``, each label column is one ``np.bincount`` over the object
    index; without one, the reference ``np.add.at`` scatter runs.
    Bit-for-bit identical either way at the ``float64`` default; the
    ``float32`` opt-in halves the output and gathers one answer-length
    column at a time instead of materializing the full ``(m, A)``
    contribution block — same values at float32 tolerance, with the
    per-iteration floating working set bounded to ``O(A)`` instead of
    ``O(m·A)`` (the other half of the scale-tier memory budget, next to
    the :func:`m_step` per-row loop).
    """
    n, m = encoded.n_objects, encoded.n_labels
    out_dtype = np.dtype(dtype)
    if not encoded.n_answers:
        return np.zeros((n, m), dtype=out_dtype)
    if plan is not None:
        log_like = np.empty((n, m), dtype=out_dtype)
        flat_logconf = log_confusions.reshape(-1)
        if out_dtype == np.float64:
            contributions = flat_logconf[plan.conf_gather]
            for label in range(m):
                log_like[:, label] = np.bincount(
                    plan.object_index, weights=contributions[label],
                    minlength=n)
        else:
            for label in range(m):
                log_like[:, label] = np.bincount(
                    plan.object_index,
                    weights=flat_logconf[plan.conf_gather[label]],
                    minlength=n)
        return log_like
    log_like = np.zeros((n, m), dtype=out_dtype)
    contributions = log_confusions[encoded.worker_index, :,
                                   encoded.label_index]
    np.add.at(log_like, encoded.object_index,
              contributions.astype(out_dtype, copy=False))
    return log_like


def e_step(encoded: EncodedAnswers,
           confusions: np.ndarray,
           priors: np.ndarray,
           *,
           plan: KernelPlan | None = None,
           log_confusions: np.ndarray | None = None,
           log_priors: np.ndarray | None = None,
           dtype: np.dtype | type | str = np.float64) -> np.ndarray:
    """Estimate assignment probabilities from confusion matrices (Eq. 1).

    ``U(o, l) ∝ p(l) · Π_w Π_{l'} F_w(l, l')^{d_w(o, l')}``, computed in log
    space: each answer ``(o, w, l')`` contributes the column
    ``log F_w(·, l')`` to row ``o`` of the log-likelihood accumulator.
    Objects without any answers fall back to the prior.

    ``log_confusions``/``log_priors`` accept the pre-clipped logs of
    ``confusions``/``priors`` so callers evaluating many E-steps against
    the *same* model (look-ahead fans, shared warm starts) hoist the
    ``log(clip(...))`` work out of the loop; when omitted they are
    computed here. ``plan`` selects the segment-reduce scatter (see
    :func:`scatter_log_likelihood`).
    """
    out_dtype = np.dtype(dtype)
    if log_confusions is None:
        log_confusions = np.log(
            np.clip(confusions, PROB_FLOOR, None)).astype(out_dtype,
                                                          copy=False)
    if log_priors is None:
        log_priors = np.log(np.clip(priors, PROB_FLOOR, None))
    log_like = scatter_log_likelihood(encoded, log_confusions, plan=plan,
                                      dtype=out_dtype)
    log_like += log_priors[None, :]
    log_like -= log_like.max(axis=1, keepdims=True)
    assignment = np.exp(log_like)
    assignment /= assignment.sum(axis=1, keepdims=True)
    return assignment


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_em(encoded: EncodedAnswers,
           initial_assignment: np.ndarray,
           validated_objects: np.ndarray | None = None,
           validated_labels: np.ndarray | None = None,
           *,
           max_iter: int = DEFAULT_MAX_ITER,
           tol: float = DEFAULT_TOL,
           smoothing: float = DEFAULT_SMOOTHING,
           plan: KernelPlan | None = None,
           use_plan: bool = True,
           dtype: np.dtype | type | str = np.float64,
           parallel_m_step=None,
           telemetry=NULL_TELEMETRY) -> EMResult:
    """Run EM to convergence from an initial soft assignment.

    Parameters
    ----------
    encoded:
        Flattened answers (see :func:`encode_answers`).
    initial_assignment:
        ``n × m`` starting value of ``U``; not mutated.
    validated_objects, validated_labels:
        Parallel arrays of expert-validated object indices and their labels.
        Their rows are clamped to one-hot before every M-step, making the
        expert input ground truth for worker-reliability estimation.
    max_iter, tol, smoothing:
        Iteration cap, convergence tolerance on ``max |ΔU|``, and M-step
        pseudo-count.
    plan, use_plan:
        Kernel plan driving the segment-reduce scatters; derived (and
        memoized on ``encoded``) when omitted. ``use_plan=False`` forces
        the ``np.add.at`` reference path — bit-for-bit identical, kept for
        golden-fixture verification and honest before/after benchmarks.
    dtype:
        Accumulation precision. The ``float64`` default is the bit-exact
        path; ``float32`` halves the floating working set at float32
        tolerance (see :func:`m_step`), and assignment/confusion/prior
        outputs all follow it.
    parallel_m_step:
        Opt-in shard-parallel M-step (requires ``use_plan`` and the
        ``float64`` path). Accepts a prebuilt
        :class:`repro.parallel.sharded_kernel.ShardedKernel` over this
        same encoding, a :class:`repro.parallel.Executor` to build one
        on, ``True`` for a process-parallel kernel with default workers,
        or an ``int`` worker count. Kernels built here are closed before
        returning; a caller-supplied kernel is the caller's to close.
        The shard reduction is deterministic and bit-for-bit equal to
        the serial plan path (``tests/test_scale_kernel.py`` pins it).
    telemetry:
        A :class:`repro.telemetry.Telemetry` hub (or spawn scope). One
        ``em.run`` span wraps the whole call — never the inner E/M
        loop — tagged with the path (plan vs reference), dtype,
        parallelism, and final iteration count / convergence delta.
        Disabled (the default) this costs a handful of no-op calls.

    Returns
    -------
    EMResult
        Final assignment, confusion matrices, priors, and iteration count.
    """
    if validated_objects is None:
        validated_objects = np.empty(0, dtype=np.int64)
    if validated_labels is None:
        validated_labels = np.empty(0, dtype=np.int64)
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    compute = np.dtype(dtype)
    if not use_plan:
        plan = None
    elif plan is None:
        plan = kernel_plan(encoded)

    if parallel_m_step is None or parallel_m_step is False:
        kernel = owned_kernel = None
    else:
        if plan is None:
            raise ValueError(
                "parallel_m_step requires the plan path (use_plan=True)")
        if compute != np.float64:
            raise ValueError(
                "parallel_m_step shards the float64 plan path; "
                f"got dtype={compute}")
        from repro.parallel.sharded_kernel import ShardedKernel
        owned_kernel = None
        if isinstance(parallel_m_step, ShardedKernel):
            kernel = parallel_m_step
        elif parallel_m_step is True:
            kernel = owned_kernel = ShardedKernel(encoded)
        elif isinstance(parallel_m_step, (int, np.integer)):
            kernel = owned_kernel = ShardedKernel(
                encoded, max_workers=int(parallel_m_step))
        else:
            kernel = owned_kernel = ShardedKernel(encoded, parallel_m_step)
        if kernel.encoded is not encoded:
            raise ValueError(
                "parallel_m_step kernel was built for a different encoding")

    def _m_step(current: np.ndarray) -> np.ndarray:
        if kernel is not None:
            return kernel.m_step(current, smoothing)
        return m_step(encoded, current, smoothing, plan=plan, dtype=compute)

    # One span per EM call; the E/M inner loop stays instrumentation-free.
    span = telemetry.span(
        "em.run",
        path="plan" if plan is not None else "reference",
        dtype=compute.name,
        parallel=kernel is not None,
        n_objects=encoded.n_objects, n_workers=encoded.n_workers,
        n_labels=encoded.n_labels, n_answers=encoded.n_answers,
        n_validated=int(validated_objects.size))
    try:
        with span:
            assignment = np.array(initial_assignment, dtype=compute,
                                  copy=True)
            clamp_validated(assignment, validated_objects, validated_labels)

            confusions = _m_step(assignment)
            priors = estimate_priors(assignment)
            converged = False
            iterations = 0
            delta = 0.0
            for iterations in range(1, max_iter + 1):
                new_assignment = e_step(encoded, confusions, priors,
                                        plan=plan, dtype=compute)
                clamp_validated(new_assignment, validated_objects,
                                validated_labels)
                delta = float(np.max(np.abs(new_assignment - assignment))) \
                    if assignment.size else 0.0
                assignment = new_assignment
                confusions = _m_step(assignment)
                priors = estimate_priors(assignment)
                if delta < tol:
                    converged = True
                    break
            span.set("n_iterations", iterations)
            span.set("converged", converged)
            span.set("final_delta", delta)
    finally:
        if owned_kernel is not None:
            owned_kernel.close()
    telemetry.counter("em.calls").inc()
    telemetry.counter("em.iterations").inc(iterations)
    return EMResult(assignment=assignment, confusions=confusions,
                    priors=priors, n_iterations=iterations,
                    converged=converged)


# ----------------------------------------------------------------------
# Lock-step look-ahead driver
# ----------------------------------------------------------------------
#: Working-set budget of one lock-step chunk of :func:`run_em_batch`, in
#: bytes (see :func:`batch_chunk_size`). A chunk's arrays are rewritten
#: every iteration; the per-iteration overhead a chunk shares is roughly
#: ten hypotheses' worth of scatter work at 100–120 objects. This budget
#: holds 9–10 such hypotheses; twice the budget solved ~30% faster per
#: hypothesis there but raised a whole run's peak RSS by ~150 KiB.
BATCH_BYTES = 1 << 17


@dataclass(frozen=True)
class EMBatchResult:
    """Final states of the ``H`` hypotheses of one :func:`run_em_batch`.

    Hypothesis ``h`` owns index ``h`` of every array; each slice holds the
    exact floats :func:`run_em` returns for that hypothesis alone.

    Attributes
    ----------
    assignments:
        ``(H, n, m)`` stack of assignment matrices ``U``.
    confusions:
        ``(H, k, m, m)`` stack of confusion-matrix stacks.
    priors:
        ``(H, m)`` label priors.
    n_iterations:
        ``(H,)`` E/M iterations executed per hypothesis.
    converged:
        ``(H,)`` whether each hypothesis reached the tolerance before the
        iteration cap.
    """

    assignments: np.ndarray
    confusions: np.ndarray
    priors: np.ndarray
    n_iterations: np.ndarray
    converged: np.ndarray


def batch_chunk_size(encoded: EncodedAnswers) -> int:
    """Hypotheses per :func:`run_em_batch` call under :data:`BATCH_BYTES`
    (at least one)."""
    n, k, m = encoded.n_objects, encoded.n_workers, encoded.n_labels
    per_hypothesis = 8 * 4 * (n * m + k * m * m)
    return max(1, BATCH_BYTES // per_hypothesis)


def run_em_batch(encoded: EncodedAnswers,
                 initial_assignment: np.ndarray,
                 validated_objects: np.ndarray | None,
                 validated_labels: np.ndarray | None,
                 clamp_objects: np.ndarray,
                 clamp_labels: np.ndarray,
                 *,
                 max_iter: int = DEFAULT_MAX_ITER,
                 tol: float = DEFAULT_TOL,
                 smoothing: float = DEFAULT_SMOOTHING) -> EMBatchResult:
    """Solve ``H`` clamped hypotheses over one encoding in lock-step.

    Hypothesis ``h`` is the :func:`run_em` call that starts from
    ``initial_assignment`` with the shared ``validated_objects`` clamped to
    ``validated_labels`` and, in addition, object ``clamp_objects[h]``
    clamped to ``clamp_labels[h]`` (overriding a shared validation of the
    same object) — one look-ahead hypothesis of Eq. 8. All hypotheses
    iterate together: the assignment and confusion stacks, clamping,
    ``log(clip(·))``, priors, normalisation and the ``max |ΔU|`` test run
    once per iteration over the whole batch, and a hypothesis retires as
    soon as it converges. The two scatters are sparse products over the
    whole batch (see :func:`_answer_operator`) that add every accumulator
    cell's terms in the order the plan path's ``np.bincount`` adds them,
    so each hypothesis gets exactly the floats its serial ``run_em``
    (float64 plan path) would — whatever the other hypotheses of the
    batch. Working memory grows with ``H``; callers cut long hypothesis
    lists into batches of :func:`batch_chunk_size`.

    ``encoded`` must be sorted by object, as :func:`encode_answers`,
    :meth:`AnswerStats.encoded` and :func:`block_subencoding` all emit it.
    """
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    if validated_objects is None:
        validated_objects = np.empty(0, dtype=np.int64)
    if validated_labels is None:
        validated_labels = np.empty(0, dtype=np.int64)
    clamp_objects = np.asarray(clamp_objects, dtype=np.int64).ravel()
    clamp_labels = np.asarray(clamp_labels, dtype=np.int64).ravel()
    if clamp_objects.shape != clamp_labels.shape:
        raise ValueError(
            f"clamp objects/labels shapes differ: {clamp_objects.shape} "
            f"vs {clamp_labels.shape}")
    n, k, m = encoded.n_objects, encoded.n_workers, encoded.n_labels
    slots = np.arange(clamp_objects.size)
    result = EMBatchResult(
        assignments=np.empty((slots.size, n, m)),
        confusions=np.empty((slots.size, k, m, m)),
        priors=np.empty((slots.size, m)),
        n_iterations=np.zeros(slots.size, dtype=np.int64),
        converged=np.zeros(slots.size, dtype=bool))
    if not slots.size:
        return result
    operator = _answer_operator(encoded)

    def clamp(stack: np.ndarray) -> np.ndarray:
        if validated_objects.size:
            stack[validated_objects] = 0.0
            stack[validated_objects, validated_labels] = 1.0
        columns = np.arange(stack.shape[-1])
        stack[clamp_objects, :, columns] = 0.0
        stack[clamp_objects, clamp_labels, columns] = 1.0
        return stack

    # The stacks keep hypotheses on their last axis — assignments
    # (n, m, h), confusions (k, m_l, m_r, h), priors (m, h) — so that a
    # flattened stack is the dense operand of the operator's products.
    # Column i holds hypothesis slots[i]; converged hypotheses are copied
    # out and the stacks compacted, so retired columns cost nothing.
    initial = np.asarray(initial_assignment, dtype=np.float64)
    assignments = clamp(np.repeat(initial[:, :, None], slots.size, axis=2))
    confusions = _m_step_batch(operator, assignments, smoothing)
    priors = _priors_batch(assignments)
    for iteration in range(1, max_iter + 1):
        new_assignments = clamp(_e_step_batch(operator, confusions, priors))
        change = new_assignments - assignments
        delta = np.abs(change, out=change).reshape(-1, slots.size).max(
            axis=0, initial=0.0)
        del change
        assignments = new_assignments
        confusions = _m_step_batch(operator, assignments, smoothing)
        priors = _priors_batch(assignments)
        result.n_iterations[slots] = iteration
        done = delta < tol
        if iteration == max_iter:
            done[:] = True
        elif not done.any():
            continue
        retired = slots[done]
        result.assignments[retired] = assignments[..., done].transpose(
            2, 0, 1)
        result.confusions[retired] = confusions[..., done].transpose(
            3, 0, 2, 1)
        result.priors[retired] = priors[:, done].T
        result.converged[retired] = delta[done] < tol
        if done.all():
            break
        keep = ~done
        slots = slots[keep]
        clamp_objects = clamp_objects[keep]
        clamp_labels = clamp_labels[keep]
        assignments = assignments[..., keep]
        confusions = confusions[..., keep]
        priors = priors[:, keep]
    return result


def _answer_operator(encoded: EncodedAnswers,
                     ) -> tuple[sparse.csr_matrix, sparse.csr_matrix]:
    """The (memoized) answer indicator ``T`` and its transpose.

    ``T`` is ``n × k·m`` with a one at ``(o, w·m + l)`` for every answer
    ``(o, w, l)``. The lock-step driver keeps hypotheses on the last axis
    of its stacks and confusions with the true label next to it —
    ``(k, m_l, m_r, h)`` — so both scatters of an iteration are one
    sparse product for the whole chunk: the E-step's log-likelihood rows
    are ``T @ log F`` and the M-step's counts are ``Tᵀ @ U``. scipy's CSR
    product adds each output cell's terms one by one from zero, in the
    order the row's entries are stored (multiplying by one is exact).
    Stored in answer order, those are exactly the terms the plan path's
    ``np.bincount`` adds, in the same order, so every hypothesis gets the
    plan path's floats.
    """
    operator = encoded.__dict__.get("_answer_operator")
    if operator is not None:
        return operator
    n, k, m = encoded.n_objects, encoded.n_workers, encoded.n_labels
    objects = encoded.object_index
    if np.any(objects[1:] < objects[:-1]):
        raise ValueError("run_em_batch needs an object-sorted encoding")
    dtype = index_dtype(n, k, m, encoded.n_answers)
    cells = (encoded.worker_index.astype(dtype) * m
             + encoded.label_index.astype(dtype))
    forward = _csr(objects, cells, n, k * m, dtype)
    # Tᵀ in CSR form too (rows by cell, stable so each row keeps answer
    # order): one sparse kernel serves both products.
    order = np.argsort(cells, kind="stable")
    backward = _csr(cells[order], objects[order], k * m, n, dtype)
    operator = (forward, backward)
    object.__setattr__(encoded, "_answer_operator", operator)
    return operator


def _csr(rows: np.ndarray, columns: np.ndarray, n_rows: int, n_columns: int,
         dtype: np.dtype) -> sparse.csr_matrix:
    """0/1 CSR matrix from row-sorted ``(row, column)`` pairs, kept in order."""
    indptr = np.zeros(n_rows + 1, dtype=dtype)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return sparse.csr_matrix(
        (np.ones(columns.size), columns.astype(dtype, copy=False), indptr),
        shape=(n_rows, n_columns))


def _m_step_batch(operator: tuple, assignments: np.ndarray,
                  smoothing: float) -> np.ndarray:
    """:func:`m_step` (float64 plan path) of a chunk: ``(n, m, h)``
    assignments → ``(k, m_l, m_r, h)`` confusions."""
    n, m, h = assignments.shape
    _, backward = operator
    counts = (backward @ assignments.reshape(n, m * h)).reshape(-1, m, m, h)
    if smoothing > 0 and backward.nnz:
        counts += np.float64(smoothing)
        counts /= _label_sum(counts, axis=1)
        return counts
    # normalize_rows sums its last axis; hand it contiguous label rows so
    # that the sum runs as it does on the plan path's (k, m, m) counts.
    rows = np.ascontiguousarray(np.moveaxis(counts, 1, -1))
    return np.moveaxis(normalize_rows(rows, smoothing=smoothing), -1, 1)


def _e_step_batch(operator: tuple, confusions: np.ndarray,
                  priors: np.ndarray) -> np.ndarray:
    """:func:`e_step` (float64 plan path) of a chunk: ``(k, m_l, m_r, h)``
    confusions and ``(m, h)`` priors → ``(n, m, h)`` assignments."""
    m, h = priors.shape
    forward, _ = operator
    # np.clip(x, floor, None) is np.maximum(x, floor).
    log_conf = np.maximum(confusions, PROB_FLOOR)
    np.log(log_conf, out=log_conf)
    log_like = (forward @ log_conf.reshape(-1, m * h)).reshape(-1, m, h)
    del log_conf
    log_like += np.log(np.maximum(priors, PROB_FLOOR))
    log_like -= _label_max(log_like, axis=1)
    np.exp(log_like, out=log_like)
    log_like /= _label_sum(log_like, axis=1)
    return log_like


def _priors_batch(assignments: np.ndarray) -> np.ndarray:
    """:func:`estimate_priors` of a chunk: ``(n, m, h)`` → ``(m, h)``."""
    n, m, h = assignments.shape
    if n == 0:
        return np.full((m, h), 1.0 / m)
    # Summed over the outer (object) axis, as estimate_priors sums its
    # (n, m) array: numpy adds such a reduction object by object.
    priors = assignments.sum(axis=0) / n
    np.maximum(priors, PROB_FLOOR, out=priors)
    priors /= _label_sum(priors, axis=0)
    return priors


#: Rows shorter than this are summed strictly left to right by numpy's
#: reductions (its pairwise summation only starts blocking at eight
#: terms). Below it the lock-step driver adds the label slices itself —
#: the same floats, without the per-row cost of a reduction over a tiny
#: axis, which dominated the batched E-step.
_SEQUENTIAL_SUM = 8


def _label_sum(stack: np.ndarray, axis: int) -> np.ndarray:
    """Sum over the label ``axis`` (keepdims), bit-for-bit as numpy sums
    a contiguous row of the labels."""
    m = stack.shape[axis]
    if m >= _SEQUENTIAL_SUM:
        rows = np.ascontiguousarray(np.moveaxis(stack, axis, -1))
        return np.moveaxis(rows.sum(axis=-1, keepdims=True), -1, axis)
    head = (slice(None),) * axis
    total = stack[head + (slice(0, 1),)].copy()
    for label in range(1, m):
        total += stack[head + (slice(label, label + 1),)]
    return total


def _label_max(stack: np.ndarray, axis: int) -> np.ndarray:
    """Maximum over the label ``axis`` (keepdims); a maximum is exact."""
    head = (slice(None),) * axis
    top = stack[head + (slice(0, 1),)].copy()
    for label in range(1, stack.shape[axis]):
        np.maximum(top, stack[head + (slice(label, label + 1),)], out=top)
    return top
