"""Pairwise cosine scoring, thresholding, and F1-maximizing calibration.

Every cosine comes from one kernel over row matrices: the articles are
stacked densely once, and the tweets are either sparse CSR rows (one gather
of the article columns their entries hit, summed per tweet row) or dense
rows (one batched matrix-vector product).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from . import evalx
from .errors import (
    DimMismatchError,
    EmptyInputError,
    MissingEmbeddingError,
    NoLabeledCellsError,
    NoPositivesError,
)
from .matrices import ClassificationMatrix, CsrRows, GroundTruthMatrix, SimilarityMatrix

# Offset for the outermost threshold candidates, below/above every score.
_EDGE_EPS = 1e-6
# Cells of one block of gathered article columns (512 KB): blocks stay in
# cache, and the gather never holds nonzeros x articles at once.
_GATHER_CELLS = 1 << 16


def _sparse_dots(tweets: CsrRows, articles: np.ndarray) -> np.ndarray:
    """Dot products of CSR tweet rows with dense article rows, block by block.

    Each row's entries sit in one block and are summed in order by reduceat,
    so a row's dots do not depend on the blocking or on the other rows.
    """
    indptr = tweets.indptr
    dots = np.zeros((tweets.shape[0], len(articles)))
    nonempty = np.flatnonzero(np.diff(indptr))  # reduceat cannot sum an empty row
    if not nonempty.size:
        return dots
    columns = np.ascontiguousarray(articles.T)  # article values per feature
    step = max(1, _GATHER_CELLS // max(1, len(articles)))
    # Blocks of whole rows, each starting at the first row that starts at or
    # past a multiple of step entries (a row longer than step is one block).
    cuts = np.unique(np.searchsorted(indptr[nonempty], np.arange(0, indptr[-1], step)))
    cuts = cuts[cuts < len(nonempty)].tolist()
    for lo, hi in zip(cuts, [*cuts[1:], len(nonempty)]):
        rows = nonempty[lo:hi]
        first, last = indptr[rows[0]], indptr[rows[-1] + 1]
        terms = columns[tweets.indices[first:last]]
        terms *= tweets.data[first:last, None]
        dots[rows] = np.add.reduceat(terms, indptr[rows] - first, axis=0)
    return dots


def _cosines(tweets, articles: np.ndarray) -> np.ndarray:
    """(n_tweets, n_articles) cosines of CSR or dense tweet rows against dense article rows.

    Each cell divides by both row norms (no row is assumed to be unit-length),
    a zero norm on either side gives 0, and results are clipped to [-1, 1].
    """
    if isinstance(tweets, CsrRows):
        dots = _sparse_dots(tweets, articles)
        entries = tweets.row_of_entries()
        t_norms = np.sqrt(np.bincount(entries, tweets.data**2, tweets.shape[0]))
    else:
        # One matrix-vector product and one dot per tweet row, looped over in
        # C by np.matmul: each cell rounds as `articles @ row` and
        # np.linalg.norm(row) do, so equal rows keep equal scores.
        dots = np.matmul(articles, tweets[:, :, None])[:, :, 0]
        t_norms = np.sqrt(np.matmul(tweets[:, None, :], tweets[:, :, None]).ravel())
    denom = np.multiply.outer(t_norms, np.linalg.norm(articles, axis=1))
    values = np.zeros_like(dots)
    np.divide(dots, denom, out=values, where=denom != 0.0)
    return np.clip(values, -1.0, 1.0, out=values)


def cosine(u, v) -> float:
    """Cosine similarity; defined as 0 when either vector has zero norm."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimMismatchError(f"cannot compare vectors of shapes {u.shape} and {v.shape}")
    return float(_cosines(u[None], v[None])[0, 0])


def _ids(vecs, ids, side: str) -> tuple:
    if ids is not None:
        return tuple(ids)
    if isinstance(vecs, Mapping):
        return tuple(vecs.keys())
    raise TypeError(f"{side} rows given as a matrix need their ids")


def _rows(vecs, ids: tuple, side: str):
    """A CSR or dense row matrix as given, or a mapping's vectors stacked densely in ids order."""
    if not isinstance(vecs, Mapping):
        rows = vecs if isinstance(vecs, CsrRows) else np.asarray(vecs, dtype=np.float64)
        if len(rows.shape) != 2 or rows.shape[0] != len(ids):
            raise DimMismatchError(f"{len(ids)} {side} ids for a matrix of shape {rows.shape}")
        return rows

    def fetch(doc_id):
        try:
            return np.asarray(vecs[doc_id], dtype=np.float64)
        except KeyError:
            raise MissingEmbeddingError(doc_id) from None

    vectors = [fetch(doc_id) for doc_id in ids]
    shapes = {v.shape for v in vectors}
    if len(shapes) != 1:
        raise DimMismatchError(f"mixed {side} vector shapes: {sorted(shapes)}")
    if len(shapes.pop()) != 1:
        raise DimMismatchError("score_matrix needs flat vectors")
    return np.stack(vectors)


def score_matrix(
    tweet_vecs,
    article_vecs,
    tweet_ids=None,
    article_ids=None,
) -> SimilarityMatrix:
    """All-pairs cosine similarities, rows = tweets, columns = articles.

    Each side is a row matrix (CsrRows or a dense 2-D array) whose rows
    follow the given id list, or a mapping id -> vector, read in the order
    of the given ids (defaulting to mapping order); an id without a vector
    raises MissingEmbeddingError. Every cell comes from one product, see
    _cosines.
    """
    tweet_ids = _ids(tweet_vecs, tweet_ids, "tweet")
    article_ids = _ids(article_vecs, article_ids, "article")
    if not tweet_ids or not article_ids:
        raise EmptyInputError("score_matrix needs at least one tweet and one article")
    tweets = _rows(tweet_vecs, tweet_ids, "tweet")
    articles = _rows(article_vecs, article_ids, "article")
    if tweets.shape[1] != articles.shape[1]:
        raise DimMismatchError(
            f"tweet rows have dim {tweets.shape[1]}, article rows dim {articles.shape[1]}"
        )
    if isinstance(articles, CsrRows):
        articles = articles.toarray()
    return SimilarityMatrix(tweet_ids, article_ids, _cosines(tweets, articles))


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
