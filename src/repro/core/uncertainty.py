"""Uncertainty of answer aggregation via Shannon entropy (paper §4.2).

The entropy of an object (Eq. 6) quantifies how undecided the aggregation
is about its label; the entropy of the probabilistic answer set (Eq. 7) is
the sum over objects and is the validation goal's natural currency: it is
zero exactly when every assignment probability is 0 or 1.
"""

from __future__ import annotations

import numpy as np

from repro.core.probabilistic import ProbabilisticAnswerSet

#: Floor under probabilities inside ``p log p`` (0·log 0 is defined as 0).
_ENTROPY_FLOOR = 1e-300


def entropy_of_distribution(probabilities: np.ndarray) -> float:
    """Shannon entropy (natural log) of one probability vector."""
    p = np.asarray(probabilities, dtype=float)
    positive = p[p > 0]
    return float(-np.sum(positive * np.log(positive)))


def object_entropies(assignment: np.ndarray) -> np.ndarray:
    """Per-object entropies ``H(o)`` for an ``n × m`` assignment matrix (Eq. 6).

    A stack of assignments (``(..., n, m)``) gives the stack of per-object
    entropies (``(..., n)``), each row bit-for-bit equal to its own call.
    """
    clipped = np.clip(assignment, _ENTROPY_FLOOR, 1.0)
    terms = np.where(assignment > 0, assignment * np.log(clipped), 0.0)
    return -terms.sum(axis=-1)


def answer_set_uncertainty(prob_set: ProbabilisticAnswerSet) -> float:
    """Total uncertainty ``H(P) = Σ_o H(o)`` (Eq. 7)."""
    return float(object_entropies(prob_set.assignment).sum())


def normalized_uncertainty(prob_set: ProbabilisticAnswerSet) -> float:
    """``H(P)`` scaled into [0, 1] by the maximum ``n · log m``.

    Convenient for goals and cross-dataset comparison (used when plotting
    Figure 15, where the paper normalizes by the run's maximum).
    """
    n, m = prob_set.assignment.shape
    if n == 0 or m <= 1:
        return 0.0
    return answer_set_uncertainty(prob_set) / (n * np.log(m))


def max_entropy_object(prob_set: ProbabilisticAnswerSet,
                       candidates: np.ndarray | None = None) -> int:
    """Index of the most uncertain object (the §6.6 baseline selector).

    Parameters
    ----------
    candidates:
        Restrict the argmax to these object indices (e.g., unvalidated
        objects). Defaults to all objects.
    """
    entropies = object_entropies(prob_set.assignment)
    if candidates is None:
        return int(np.argmax(entropies))
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        raise ValueError("no candidate objects to select from")
    return int(candidates[np.argmax(entropies[candidates])])
