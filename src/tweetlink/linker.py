"""Pairwise cosine scoring, thresholding, and F1-maximizing calibration."""

from __future__ import annotations

import numpy as np

from . import evalx
from .errors import (
    DimMismatchError,
    EmptyInputError,
    MissingEmbeddingError,
    NoLabeledCellsError,
    NoPositivesError,
)
from .matrices import ClassificationMatrix, GroundTruthMatrix, SimilarityMatrix

# Offset for the outermost threshold candidates, below/above every score.
_EDGE_EPS = 1e-6


def cosine(u, v) -> float:
    """Cosine similarity; defined as 0 when either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimMismatchError(f"cannot compare vectors of shapes {u.shape} and {v.shape}")
    nu = np.linalg.norm(u)
    nv = np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return 0.0
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


def score_matrix(
    tweet_vecs,
    article_vecs,
    tweet_ids=None,
    article_ids=None,
) -> SimilarityMatrix:
    """All-pairs cosine similarities, rows = tweets, columns = articles.

    Axis order follows the given id lists (defaulting to mapping order);
    ids without a vector raise MissingEmbeddingError. The article vectors
    are stacked once and each tweet row costs one matrix-vector product;
    tweet vectors are never stacked, so no tweets x dim copy is made.
    """
    tweet_ids = tuple(tweet_ids if tweet_ids is not None else tweet_vecs.keys())
    article_ids = tuple(article_ids if article_ids is not None else article_vecs.keys())
    if not tweet_ids or not article_ids:
        raise EmptyInputError("score_matrix needs at least one tweet and one article")

    def fetch(vecs, doc_id):
        try:
            return np.asarray(vecs[doc_id], dtype=np.float64)
        except KeyError:
            raise MissingEmbeddingError(doc_id) from None

    t_mat = [fetch(tweet_vecs, tid) for tid in tweet_ids]
    a_list = [fetch(article_vecs, aid) for aid in article_ids]
    dims = {v.shape for v in t_mat} | {v.shape for v in a_list}
    if len(dims) != 1:
        raise DimMismatchError(f"mixed vector shapes in the joint space: {sorted(dims)}")
    if len(dims.pop()) != 1:
        raise DimMismatchError("score_matrix needs flat vectors")

    a_mat = np.stack(a_list)
    a_norms = np.linalg.norm(a_mat, axis=1)
    values = np.zeros((len(tweet_ids), len(article_ids)), dtype=np.float64)
    for row, tv in zip(values, t_mat):
        # A zero norm on either side leaves the cell at 0, as in cosine().
        denom = a_norms * np.linalg.norm(tv)
        np.divide(a_mat @ tv, denom, out=row, where=denom != 0.0)
        np.clip(row, -1.0, 1.0, out=row)
    return SimilarityMatrix(tweet_ids, article_ids, values)


def classify(sim: SimilarityMatrix, threshold: float) -> ClassificationMatrix:
    """Binary decisions: +1 where similarity >= threshold (inclusive), else -1."""
    values = np.where(sim.values >= threshold, 1, -1).astype(np.int8)
    return ClassificationMatrix(sim.tweet_ids, sim.article_ids, values)


def calibrate_threshold(sim: SimilarityMatrix, gt: GroundTruthMatrix) -> tuple[float, float]:
    """Threshold maximizing masked F1, scanned over all decision boundaries.

    Candidates are the midpoints between consecutive distinct masked scores
    plus one value below and one above all scores, so every achievable
    confusion matrix is visited exactly once. Ties go to the smallest
    threshold. One sort of the labeled cells gives every candidate's counts,
    so the scan costs O(n log n) in the number of labeled cells.
    """
    scores, labels = evalx.masked_pairs(sim.values, gt)
    if scores.size == 0:
        raise NoLabeledCellsError("calibration needs at least one labeled cell")
    if not (labels == 1).any():
        raise NoPositivesError("calibration needs at least one positive cell")

    ranked, tp_ge, kept_ge = evalx._ranked_sweep(scores, labels)
    distinct, tp_ge, kept_ge = ranked[::-1], tp_ge[::-1], kept_ge[::-1]
    candidates = np.concatenate(
        [
            [distinct[0] - _EDGE_EPS],
            (distinct[:-1] + distinct[1:]) / 2.0,
            [distinct[-1] + _EDGE_EPS],
        ]
    )
    # scores >= theta are exactly the distinct values from the first one >= theta
    # on, even where a midpoint of adjacent doubles rounds onto one of them.
    first = np.searchsorted(distinct, candidates, side="left")
    tp = np.append(tp_ge, 0)[first]
    kept = np.append(kept_ge, 0)[first]

    # binary_metrics' formulas, with 0 for a zero denominator.
    total_pos = tp_ge[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(kept > 0, tp / kept, 0.0)
        recall = tp / total_pos
        f1 = np.where(precision + recall > 0, 2 * precision * recall / (precision + recall), 0.0)
    best = int(np.argmax(f1))  # the first maximum: ties go to the smallest threshold
    return float(candidates[best]), float(f1[best])
