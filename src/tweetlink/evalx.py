"""Masked evaluation metrics over three-valued ground truth.

Cells labeled 0 (unknown) are removed from both matrices before any metric
is computed. Average precision groups tied scores into one rank step, so it
is deterministic without tie-break randomness and invariant under strictly
monotone score transforms. Zero-denominator precision/recall/F1 are defined
as 0, matching how an all-negative classifier is conventionally reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

from .errors import (
    DegenerateAgreementError,
    EmptyInputError,
    NonFiniteValueError,
    NoPositivesError,
    ShapeMismatchError,
    UnequalRaterCountsError,
)
from .matrices import GroundTruthMatrix


@dataclass(frozen=True)
class MetricsReport:
    """Threshold metrics and average precision over the evaluated (labeled) cells."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    n_evaluated: int
    average_precision: float | None = None

    def to_dict(self) -> dict:
        return {
            "ap": self.average_precision,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "n": self.n_evaluated,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def masked_pairs(values, gt: GroundTruthMatrix) -> tuple[np.ndarray, np.ndarray]:
    """Flatten row-major and drop positions where the ground truth is 0."""
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != gt.values.shape:
        raise ShapeMismatchError(f"values {vals.shape} vs ground truth {gt.values.shape}")
    flat_vals = vals.ravel()
    flat_gt = gt.values.ravel()
    keep = flat_gt != 0
    return flat_vals[keep], flat_gt[keep].astype(np.int8)


def ranked_sweep(scores, labels) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision-recall steps of thresholding at each distinct score.

    Returns (distinct scores descending, positives scoring >= each, pairs
    scoring >= each) from one sort. Tied scores fall into one step.
    """
    if not np.isfinite(scores).all():
        raise NonFiniteValueError("scores must be finite")
    order = np.argsort(-scores, kind="stable")
    ranked = scores[order]
    tp = np.cumsum(labels[order] == 1)
    # The last index of each tie group; comparing with != keeps -0.0 and 0.0 tied.
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    return ranked[ends], tp[ends], ends + 1


def average_precision(scores, labels) -> float:
    """Area under the precision-recall steps of a descending-score ranking.

    Equal scores enter the ranking together (one step per distinct score),
    i.e. the metric reflects thresholding the score rather than an arbitrary
    permutation of ties.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.size == 0:
        raise EmptyInputError("average_precision needs at least one scored pair")
    if scores.shape != labels.shape:
        raise ShapeMismatchError("scores and labels must have equal length")
    total_pos = int(np.sum(labels == 1))
    if total_pos == 0:
        raise NoPositivesError("average_precision needs at least one positive label")

    _, tp, kept = ranked_sweep(scores, labels)
    recall = tp / total_pos
    steps = np.diff(recall, prepend=0.0) * (tp / kept)
    # cumsum adds strictly left to right, as a loop over the steps would.
    return float(np.cumsum(steps)[-1])


def binary_metrics(preds, labels) -> MetricsReport:
    """Confusion-matrix metrics with positive class +1 (no average precision)."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.size == 0:
        raise EmptyInputError("binary_metrics needs at least one prediction")
    if preds.shape != labels.shape:
        raise ShapeMismatchError("predictions and labels must have equal length")
    if not (np.isin(preds, (-1, 1)).all() and np.isin(labels, (-1, 1)).all()):
        raise ValueError("predictions and labels must be +1 or -1")

    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == -1)))
    fn = int(np.sum((preds == -1) & (labels == 1)))
    tn = int(np.sum((preds == -1) & (labels == -1)))
    n = tp + fp + fn + tn

    precision, recall, f1 = map(float, precision_recall_f1(tp, tp + fp, tp + fn))
    return MetricsReport(
        accuracy=(tp + tn) / n,
        precision=precision,
        recall=recall,
        f1=f1,
        n_evaluated=n,
    )


def precision_recall_f1(tp, n_predicted, n_positive) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Precision tp / n_predicted, recall tp / n_positive and F1, their
    harmonic mean, elementwise over counts; each is 0 where its denominator is."""
    tp, n_predicted, n_positive = np.asarray(tp), np.asarray(n_predicted), np.asarray(n_positive)
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(n_predicted > 0, tp / n_predicted, 0.0)
        recall = np.where(n_positive > 0, tp / n_positive, 0.0)
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
    return precision, recall, f1


def evaluate_masked(sim_values, cls_values, gt: GroundTruthMatrix) -> MetricsReport:
    """Full masked report: AP from the scores, the rest from the decisions."""
    scores, labels = masked_pairs(sim_values, gt)
    preds, _ = masked_pairs(cls_values, gt)
    report = binary_metrics(preds.astype(np.int8), labels)
    return replace(report, average_precision=average_precision(scores, labels))


def fleiss_kappa(table) -> float:
    """Chance-corrected agreement for a fixed rater count.

    `table` holds per-item category counts (items x categories); every row
    must sum to the same number of raters r >= 2.
    """
    counts = np.asarray(table, dtype=np.int64)
    if counts.ndim != 2 or counts.shape[0] < 1 or counts.shape[1] < 1:
        raise EmptyInputError("fleiss_kappa needs a nonempty items x categories table")
    row_sums = counts.sum(axis=1)
    r = int(row_sums[0])
    if r < 2 or not (row_sums == r).all():
        raise UnequalRaterCountsError(
            "every item must be rated by the same number of raters (>= 2)"
        )
    n_items = counts.shape[0]
    per_item = ((counts.astype(np.float64) ** 2).sum(axis=1) - r) / (r * (r - 1))
    p_observed = float(per_item.mean())
    category_share = counts.sum(axis=0) / (n_items * r)
    p_chance = float((category_share**2).sum())
    if p_chance >= 1.0:
        raise DegenerateAgreementError("all ratings fall in a single category")
    return (p_observed - p_chance) / (1.0 - p_chance)
