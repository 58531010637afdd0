"""Worker confusion matrices (paper §3.1, §4, §5.3).

A confusion matrix ``F_w`` is an ``m × m`` row-stochastic matrix where
``F_w(l, l')`` is the probability that worker ``w`` assigns label ``l'`` to
an object whose correct label is ``l``. Two distinct constructions appear in
the paper and both live here:

* **EM confusion matrices** — estimated from the soft assignment matrix
  ``U`` during the M-step (Eq. 5); built by :mod:`repro.core.em_kernel`.
* **Validated confusion matrices** — counted only over expert-validated
  objects (§5.3), used for spammer detection to avoid the estimation bias
  of building them from inferred labels.
"""

from __future__ import annotations

import numpy as np

from repro.core.answer_set import MISSING, AnswerSet
from repro.core.validation import ExpertValidation
from repro.errors import InvalidProbabilityError

#: Smallest probability kept when normalizing rows (guards ``log`` calls).
PROB_FLOOR = 1e-12


def normalize_rows(counts: np.ndarray,
                   smoothing: float = 0.0) -> np.ndarray:
    """Row-normalize a non-negative count matrix into a stochastic matrix.

    Rows whose total mass (after adding ``smoothing`` to each cell) is zero
    become uniform — the natural prior for a worker never observed on that
    true label.
    """
    counts = np.asarray(counts)
    if np.any(counts < 0):
        raise InvalidProbabilityError("confusion counts must be non-negative")
    smoothed = np.array(counts, dtype=float)
    smoothed += float(smoothing)
    sums = smoothed.sum(axis=-1, keepdims=True)
    positive = sums > 0
    smoothed /= np.where(positive, sums, 1.0)
    np.copyto(smoothed, 1.0 / counts.shape[-1], where=~positive)
    return smoothed


def rank_one_distance(confusion: np.ndarray) -> float:
    """Frobenius distance of ``confusion`` to its best rank-one approximation.

    This is the spammer score ``s(w)`` of Eq. 11. By the Eckart–Young
    theorem the distance equals ``sqrt(σ₂² + … + σ_m²)`` over the singular
    values, so uniform and random spammers — whose confusion matrices are
    (close to) rank one — score near zero, while a diagonal (reliable)
    matrix scores near ``sqrt(m − 1)``.
    """
    matrix = np.asarray(confusion, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise InvalidProbabilityError(
            f"confusion matrix must be square, got shape {matrix.shape}")
    return float(rank_one_distances(matrix[None])[0])


def rank_one_distances(confusions: np.ndarray) -> np.ndarray:
    """:func:`rank_one_distance` of every matrix of a ``(W, m, m)`` stack.

    One stacked SVD instead of ``W`` calls; each entry is bit-for-bit the
    single-matrix score (LAPACK factorises every matrix of the stack on
    its own).
    """
    stack = np.asarray(confusions, dtype=float)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
        raise InvalidProbabilityError(
            "confusion stack must be (W, m, m), got shape "
            f"{stack.shape}")
    if stack.shape[1] <= 1 or not stack.shape[0]:
        return np.zeros(stack.shape[0])
    singular = np.linalg.svd(stack, compute_uv=False)
    return np.sqrt(np.sum(singular[:, 1:] ** 2, axis=1))


def error_rate(confusion: np.ndarray,
               priors: np.ndarray | None = None) -> float:
    """Off-diagonal mass of ``confusion`` weighted by the label priors.

    This is the sloppy-worker error rate ``e_w`` of §5.3: the probability
    that the worker answers incorrectly, under the given prior over true
    labels (uniform when ``priors`` is ``None``).
    """
    matrix = np.asarray(confusion, dtype=float)
    return float(error_rates(matrix[None], priors)[0])


def error_rates(confusions: np.ndarray,
                priors: np.ndarray | None = None) -> np.ndarray:
    """:func:`error_rate` of every matrix of a ``(W, m, m)`` stack.

    The prior-weighted sum is a product followed by a row sum, so each
    entry is bit-for-bit the single-matrix rate (a matrix–vector product
    or ``einsum`` may round differently).
    """
    stack = np.asarray(confusions, dtype=float)
    m = stack.shape[-1]
    if priors is None:
        priors = np.full(m, 1.0 / m)
    priors = np.asarray(priors, dtype=float)
    per_label_error = 1.0 - np.diagonal(stack, axis1=-2, axis2=-1)
    return np.sum(per_label_error * priors, axis=-1)


def accuracy(confusion: np.ndarray,
             priors: np.ndarray | None = None) -> float:
    """Prior-weighted probability of a correct answer (1 − error rate)."""
    return 1.0 - error_rate(confusion, priors)


def validated_confusion_counts(answer_set: AnswerSet,
                               validation: ExpertValidation) -> np.ndarray:
    """Per-worker confusion *counts* over expert-validated objects only.

    Returns a ``k × m × m`` integer array where entry ``(w, l, l')`` counts
    how often worker ``w`` answered ``l'`` on a validated object whose
    expert-asserted label is ``l``. This is the §5.3 construction: only
    answer validations — never inferred labels — contribute, so the result
    is unbiased ground truth about each worker (at the price of sparsity
    early in the validation process).
    """
    k = answer_set.n_workers
    m = answer_set.n_labels
    counts = np.zeros((k, m, m), dtype=np.int64)
    validated = validation.validated_indices()
    if validated.size == 0:
        return counts
    true_labels = validation.validated_labels()
    sub = answer_set.matrix[validated, :]  # (v, k)
    obj_pos, workers = np.nonzero(sub != MISSING)
    answered = sub[obj_pos, workers]
    np.add.at(counts, (workers, true_labels[obj_pos], answered), 1)
    return counts


def validated_answer_counts(answer_set: AnswerSet,
                            validation: ExpertValidation) -> np.ndarray:
    """Number of validated answers per worker (length ``k``).

    A worker's validated-confusion evidence: how many of their answers fall
    on expert-validated objects. Detection thresholds should only be applied
    to workers with enough evidence (see Table 3's cautionary example).
    """
    validated = validation.validated_indices()
    if validated.size == 0:
        return np.zeros(answer_set.n_workers, dtype=np.int64)
    sub = answer_set.matrix[validated, :]
    return np.count_nonzero(sub != MISSING, axis=0)


def validated_confusions(answer_set: AnswerSet,
                         validation: ExpertValidation,
                         smoothing: float = 0.0) -> np.ndarray:
    """Row-normalized validated confusion matrices (``k × m × m``)."""
    counts = validated_confusion_counts(answer_set, validation)
    return normalize_rows(counts, smoothing=smoothing)


def sensitivity_specificity(confusion: np.ndarray) -> tuple[float, float]:
    """(sensitivity, specificity) of a *binary* confusion matrix.

    Matches Figure 1's axes: sensitivity is the probability of answering
    positive on a true positive (``F(0, 0)`` with label 0 = positive);
    specificity is ``F(1, 1)``.
    """
    matrix = np.asarray(confusion, dtype=float)
    if matrix.shape != (2, 2):
        raise InvalidProbabilityError(
            "sensitivity/specificity are defined for binary tasks; "
            f"got shape {matrix.shape}")
    return float(matrix[0, 0]), float(matrix[1, 1])
