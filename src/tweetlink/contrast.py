"""Trainable dual encoder over feature vectors with cosine embedding loss.

Two affine maps (optionally followed by tanh) project tweet features and
article features into one joint space. Training pulls matching pairs
together and pushes sampled non-matching pairs apart:

    loss = 1 - cos(e1, e2)            for similar pairs (y = +1)
    loss = max(0, cos(e1, e2) - m)    for dissimilar pairs (y = -1)

with margin m = 0 by default. Negatives are sampled per tweet at a
configurable ratio, independent of the batch size. Long articles are
handled by one of three strategies: plain truncation, mean over uniform
sentinel-wrapped chunks, or a header+parts split where every piece becomes
an extra positive example.

Training reads the tweet rows and the article piece rows as CSR matrices:
the featurizer's sparse rows as they are, dense rows through one nonzero
scan, and an id -> vector mapping stacked into rows first. Examples are
row indices: a tweet row, a run of piece rows and a label (see
build_training_pairs). Each mini-batch step works on a dense block over
only the feature columns nonzero in its batch, so the forward pass, the
backward pass and the weight update cost time in proportion to the
batch's nonzeros, not to the vocabulary; the other columns have a zero
gradient. Only the momentum velocity update stays dense, because every
column with a nonzero velocity moves on every step.

Under mean_chunks an affine encoder (nonlinearity "none") trains on one
row per article, the mean of its piece rows, built once before the first
epoch: an affine map commutes with the mean, and so does its gradient.
The tanh encoder projects every piece row and averages the projections.
When every example has one row (truncate, augment, or pooled mean_chunks),
a step builds no pooling matrix.

The blocks are planned once per epoch: after the epoch's shuffle, one
vectorized pass per side finds every batch's sorted distinct columns and
each nonzero's place in its batch's block, so a step only slices the plan
and scatters its block. The plan holds one epoch of int32 positions and
values and is freed when the epoch ends. The arithmetic and its order are
those of gathering each batch on its own, so the weights come out the same
bit for bit.

Encoding projects all of a side's documents with one batched product
(encode_batch), averaging a document's piece rows under mean_chunks.

save_encoder writes encoder.json version 2, which stores each weight and
bias array as base64 of its float64 bytes (layout in save_encoder). One
string per array instead of a float repr per weight makes the save a few
milliseconds and halves the file; the bytes stay deterministic and the
weights load back bit for bit. load_encoder reads version 2 only: no
command has ever read an encoder file, so version-1 files (nested JSON
float lists) are rejected.
"""

from __future__ import annotations

import binascii
import json
import math
import re
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatchError,
    EmptyChunkListError,
    EmptyInputError,
    MissingEmbeddingError,
    NoNegativesAvailableError,
    NonFiniteLossError,
    check_types,
    read_model,
)
from .matrices import CsrRows

STRATEGIES = ("truncate", "mean_chunks", "augment")
SIDES = ("tweet", "article")


@dataclass(frozen=True)
class TrainConfig:
    neg_ratio: float = 1.0
    lr: float = 0.1
    epochs: int = 100
    batch_size: int = 32
    seed: int = 0
    margin: float = 0.0
    nonlinearity: str = "none"  # "none" | "tanh"
    momentum: float = 0.0
    joint_dim: int = 64

    def __post_init__(self):
        if self.neg_ratio <= 0:
            raise ValueError("neg_ratio must be > 0")
        if self.lr <= 0:
            raise ValueError("lr must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 <= self.margin < 1.0:
            raise ValueError("margin must lie in [0, 1)")
        if self.nonlinearity not in ("none", "tanh"):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.joint_dim < 1:
            raise ValueError("joint_dim must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True, eq=False)
class AffineMap:
    weight: np.ndarray = field(repr=False)  # (out_dim, in_dim)
    bias: np.ndarray = field(repr=False)  # (out_dim,)

    def __post_init__(self):
        if self.weight.ndim != 2 or self.bias.shape != (self.weight.shape[0],):
            raise DimMismatchError("affine map weight/bias shapes disagree")
        if not (np.isfinite(self.weight).all() and np.isfinite(self.bias).all()):
            raise NonFiniteLossError("affine map parameters are not finite")

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]


@dataclass(frozen=True, eq=False)
class DualEncoder:
    tweet_map: AffineMap
    article_map: AffineMap
    nonlinearity: str = "none"

    def __post_init__(self):
        if self.tweet_map.out_dim != self.article_map.out_dim:
            raise DimMismatchError("tweet and article maps must share the joint dimension")
        if self.nonlinearity not in ("none", "tanh"):
            raise ValueError(f"unknown nonlinearity {self.nonlinearity!r}")

    @property
    def joint_dim(self) -> int:
        return self.tweet_map.out_dim


# --- loss and gradient ------------------------------------------------------


def _one_row(e1, e2, y: int, margin: float):
    """Validate one embedding pair and run it through the batch loss kernel."""
    e1 = np.asarray(e1, dtype=np.float64)
    e2 = np.asarray(e2, dtype=np.float64)
    if e1.shape != e2.shape or e1.ndim != 1:
        raise DimMismatchError(f"embedding shapes disagree: {e1.shape} vs {e2.shape}")
    if y not in (1, -1):
        raise ValueError("y must be +1 or -1")
    return _batch_loss_and_grads(e1[None], e2[None], np.array([float(y)]), margin)


def cosine_embedding_loss(e1, e2, y: int, margin: float = 0.0) -> float:
    """Contrastive cosine loss; zero-norm inputs use the cosine=0 convention."""
    losses, _, _ = _one_row(e1, e2, y, margin)
    return float(losses[0])


def loss_gradient(e1, e2, y: int, margin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of the loss w.r.t. both embeddings.

    On the inactive side of the hinge (including the boundary cos == margin
    for y = -1) both gradients are zero; the same convention applies to
    zero-norm inputs, where the cosine is pinned to 0.
    """
    _, d_e1, d_e2 = _one_row(e1, e2, y, margin)
    return d_e1[0], d_e2[0]


# --- negative sampling --------------------------------------------------------


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def sample_negatives(positives, articles, ratio: float, seed: int) -> list[tuple[str, str]]:
    """Per tweet with p positives, draw round(ratio * p) unlinked articles.

    Sampling is uniform without replacement from the articles not positively
    linked to that tweet (capped at the pool size) and deterministic per
    seed. A tweet linked to every article raises NoNegativesAvailableError.
    """
    if ratio <= 0:
        raise ValueError("ratio must be > 0")
    articles = list(articles)
    pos_counts: dict[str, int] = {}
    linked: dict[str, set[str]] = {}
    for tweet_id, article_id in positives:
        pos_counts[tweet_id] = pos_counts.get(tweet_id, 0) + 1
        linked.setdefault(tweet_id, set()).add(article_id)

    rng = np.random.default_rng(seed)
    negatives: list[tuple[str, str]] = []
    for tweet_id, p in pos_counts.items():
        pool = [a for a in articles if a not in linked[tweet_id]]
        if not pool:
            raise NoNegativesAvailableError(tweet_id)
        k = min(_round_half_up(ratio * p), len(pool))
        picks = rng.choice(len(pool), size=k, replace=False)
        negatives.extend((tweet_id, pool[i]) for i in picks)
    return negatives


# --- training -----------------------------------------------------------------


def build_training_pairs(
    positives,
    tweet_ids,
    article_ids,
    piece_counts,
    cfg: TrainConfig,
    strategy: str = "truncate",
) -> np.ndarray:
    """Resolve id pairs into training examples, including sampled negatives.

    Tweet tweet_ids[i] has row i; article article_ids[j] has the next
    piece_counts[j] piece rows, after those of article j - 1. Returns one
    row per example: (tweet row, first piece row, piece count, label +1/-1).
    Under the augment strategy each piece of a positive article (header,
    then each part) is its own positive example, and a negative is its
    article's header piece. Under mean_chunks an example holds all of its
    article's pieces, and the encoder averages their projections. Negatives
    come from sample_negatives over article_ids, in that order.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    positives = list(positives)
    if not positives:
        raise EmptyInputError("training needs at least one positive pair")
    tweet_row = {doc_id: r for r, doc_id in enumerate(tweet_ids)}
    firsts = np.cumsum(piece_counts) - piece_counts
    pieces = {doc_id: (int(f), int(n)) for doc_id, f, n in zip(article_ids, firsts, piece_counts)}

    def lookup(index, doc_id):
        try:
            return index[doc_id]
        except KeyError:
            raise MissingEmbeddingError(doc_id) from None

    examples: list[tuple[int, int, int, int]] = []
    expanded: list[tuple[str, str]] = []
    for tweet_id, article_id in positives:
        t = lookup(tweet_row, tweet_id)
        first, n = lookup(pieces, article_id)
        if strategy == "augment":
            examples += [(t, first + k, 1, 1) for k in range(n)]
            expanded += [(tweet_id, article_id)] * n
            continue
        if strategy == "truncate" and n != 1:
            raise DimMismatchError(f"article {article_id!r} has {n} pieces under 'truncate'")
        examples.append((t, first, n, 1))
        expanded.append((tweet_id, article_id))

    for tweet_id, article_id in sample_negatives(expanded, article_ids, cfg.neg_ratio, cfg.seed):
        first, n = pieces[article_id]
        examples.append((tweet_row[tweet_id], first, n if strategy == "mean_chunks" else 1, -1))
    return np.array(examples, dtype=np.int64)


def _feature_rows(features, ids, counts, side: str):
    """(CSR rows, ids, rows per id) of one side's training features; see train."""
    if isinstance(features, Mapping):
        ids = list(features)
        try:
            blocks = [np.atleast_2d(np.asarray(features[i], dtype=np.float64)) for i in ids]
            features = np.concatenate(blocks) if blocks else np.zeros((0, 0))
        except ValueError as exc:
            raise DimMismatchError(f"{side} features do not stack into rows: {exc}") from None
        counts = [len(block) for block in blocks]
        if side == "tweet" and len(features) != len(ids):
            raise DimMismatchError("every tweet needs exactly one feature vector")
    elif ids is None:
        raise TypeError(f"{side} rows given as a matrix need their ids")
    ids = list(ids)
    counts = np.ones(len(ids), dtype=np.int64) if counts is None else np.asarray(counts, np.int64)
    if not isinstance(features, CsrRows):
        rows = np.asarray(features, dtype=np.float64)
        if rows.ndim != 2:
            raise DimMismatchError(f"{side} rows have shape {rows.shape}, expected a 2-D matrix")
        flat = np.flatnonzero(rows)
        row_of, cols = np.divmod(flat, rows.shape[1])
        indptr = np.searchsorted(row_of, np.arange(len(rows) + 1))
        features = CsrRows(indptr, cols, rows.ravel()[flat], rows.shape[1])
    if features.shape[1] == 0:
        raise DimMismatchError(f"{side} rows have no feature columns")
    if (counts < 1).any():
        raise EmptyChunkListError(f"every {side} needs at least one feature row")
    if counts.shape != (len(ids),) or counts.sum() > features.shape[0]:
        raise DimMismatchError(
            f"{len(ids)} {side} ids with {counts.sum()} rows for a matrix of shape {features.shape}"
        )
    return features, ids, counts


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + n) over (starts, lens)."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)


class _EpochGather:
    """Every batch's rows of a CsrRows matrix as dense blocks over the batch's columns.

    `rows` lists the CSR rows of all batches back to back, and `batch[r]` is
    the batch of rows[r] (non-decreasing). One np.unique over the keys
    batch * in_dim + column sorts every batch's distinct columns at once and
    places each nonzero in its batch's block, instead of one np.unique per
    batch. The plan keeps only the values and their int32 positions.
    """

    def __init__(self, csr: CsrRows, rows: np.ndarray, batch: np.ndarray, n_batches: int):
        in_dim = csr.n_cols
        starts = csr.indptr[rows]
        lens = csr.indptr[rows + 1] - starts
        pos = _ranges(starts, lens)
        self.values = csr.data[pos]
        key = csr.indices[pos].astype(np.int64, copy=False)
        del pos
        nz_batch = np.repeat(batch, lens)
        # int64 keys: n_batches * in_dim may pass 2**31.
        key += nz_batch * np.int64(in_dim)
        keys, local_col = np.unique(key, return_inverse=True)
        del key
        ends = np.arange(n_batches + 1)
        row_bounds = np.searchsorted(batch, ends)
        col_bounds = np.searchsorted(keys, ends * np.int64(in_dim))
        local_col -= col_bounds[nz_batch]
        # Position in the batch's flattened (rows, columns) block.
        local_row = np.arange(len(rows)) - row_bounds[batch]
        local_col += np.repeat(local_row, lens) * np.diff(col_bounds)[nz_batch]
        # int32 unless a batch's block has 2**31 cells, which no memory holds anyway.
        self.flat = local_col.astype(np.int32 if local_col.max(initial=0) < 2**31 else np.int64)
        del local_col
        self.cols = (keys % in_dim).astype(np.int32)
        self.row_bounds = row_bounds.tolist()
        self.col_bounds = col_bounds.tolist()
        self.nz_bounds = np.searchsorted(nz_batch, ends).tolist()

    def __call__(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """(u, block) for batch k: u holds its sorted distinct columns, and
        block[r, j] is its r-th row's value in column u[j]."""
        c0, c1 = self.col_bounds[k], self.col_bounds[k + 1]
        z0, z1 = self.nz_bounds[k], self.nz_bounds[k + 1]
        shape = (self.row_bounds[k + 1] - self.row_bounds[k], c1 - c0)
        block = np.zeros(shape[0] * shape[1])
        block[self.flat[z0:z1]] = self.values[z0:z1]
        return self.cols[c0:c1], block.reshape(shape)


def _mean_rows(csr: CsrRows, counts: np.ndarray) -> CsrRows:
    """One row per group, where group j is the next counts[j] rows of csr:
    their sum in row order divided by counts[j].

    One np.unique over the keys group * n_cols + column finds each group's
    columns, and np.bincount, which adds its weights in input order, adds a
    column's entries in row order. A row thus equals the dense sum of its
    group's rows over the count bit for bit; a sum that cancels to 0 keeps
    no entry, as a dense row's zeros keep none.
    """
    n_rows = int(counts.sum())
    lo, hi = csr.indptr[0], csr.indptr[n_rows]
    group = np.repeat(np.arange(len(counts)), counts)
    key = np.repeat(group, np.diff(csr.indptr[: n_rows + 1])) * np.int64(csr.n_cols)
    key += csr.indices[lo:hi]
    keys, slot = np.unique(key, return_inverse=True)
    sums = np.bincount(slot, weights=csr.data[lo:hi], minlength=len(keys))
    nonzero = sums != 0
    row, col = np.divmod(keys[nonzero], csr.n_cols)
    indptr = np.searchsorted(row, np.arange(len(counts) + 1))
    return CsrRows(indptr, col, sums[nonzero] / counts[row], csr.n_cols)


def _epoch_batches(x_t: CsrRows, x_a: CsrRows, examples: np.ndarray, order: np.ndarray, bs: int):
    """Yield each batch of one epoch: (u_t, bx_t, u_a, bx_a, pool, counts, y).

    Batch k holds the examples (rows of build_training_pairs' result)
    order[k * bs : (k + 1) * bs]; pool[i, r] = 1 where piece row r of bx_a
    belongs to example i. When every example has one piece row, pool and
    counts are None and row i of bx_a is example i's. Both sides' gathers
    are planned for the whole epoch up front and freed when it ends.
    """
    n = len(order)
    n_batches = -(-n // bs)
    example_batch = np.arange(n) // bs
    t_row, first_piece, counts, labels = examples[order].T
    y = labels.astype(np.float64)
    gather_t = _EpochGather(x_t, t_row, example_batch, n_batches)
    gather_a = _EpochGather(
        x_a, _ranges(first_piece, counts), np.repeat(example_batch, counts), n_batches
    )
    pooling = (counts > 1).any()
    # The example each piece row belongs to, counted within its batch.
    piece_example = np.repeat(np.arange(n) % bs, counts)
    piece_bounds = gather_a.row_bounds
    pool = bcounts = None
    for k, start in enumerate(range(0, n, bs)):
        stop = min(start + bs, n)
        u_a, bx_a = gather_a(k)
        if pooling:
            n_rows = bx_a.shape[0]
            pool = np.zeros((stop - start, n_rows))
            pool[piece_example[piece_bounds[k] : piece_bounds[k + 1]], np.arange(n_rows)] = 1.0
            bcounts = counts[start:stop, None]
        yield *gather_t(k), u_a, bx_a, pool, bcounts, y[start:stop]


def _init_map(rng: np.random.Generator, in_dim: int, out_dim: int):
    """Seeded uniform(-s, s) weights, transposed to (in_dim, out_dim), and bias."""
    scale = 1.0 / math.sqrt(in_dim)
    weight = rng.uniform(-scale, scale, size=(out_dim, in_dim))
    bias = rng.uniform(-scale, scale, size=out_dim)
    return weight.T.copy(), bias


def _batch_loss_and_grads(e_t, e_a, y, margin):
    """Vectorized loss row-per-pair and gradients w.r.t. both embedding batches."""
    # np.linalg.norm's own arithmetic for real rows, without its wrapper.
    n1 = np.sqrt(np.add.reduce(e_t * e_t, axis=1))
    n2 = np.sqrt(np.add.reduce(e_a * e_a, axis=1))
    ok = (n1 > 0) & (n2 > 0)
    safe1 = np.where(ok, n1, 1.0)
    safe2 = np.where(ok, n2, 1.0)
    denom = safe1 * safe2
    cos = np.where(ok, (e_t * e_a).sum(axis=1) / denom, 0.0)
    cos = np.minimum(np.maximum(cos, -1.0), 1.0)  # np.clip, without its wrapper

    positive = y > 0
    losses = np.where(positive, 1.0 - cos, np.maximum(0.0, cos - margin))
    # Gradient sign: -dcos for positives, +dcos for active negatives, 0 elsewhere.
    sign = (np.where(positive, -1.0, np.where(cos > margin, 1.0, 0.0)) * ok)[:, None]
    denom = denom[:, None]
    dc_det = e_a / denom - (cos / safe1**2)[:, None] * e_t
    dc_dea = e_t / denom - (cos / safe2**2)[:, None] * e_a
    return losses, sign * dc_det, sign * dc_dea


def train(
    positives,
    tweet_features,
    article_features,
    cfg: TrainConfig,
    strategy: str = "truncate",
    tweet_ids=None,
    article_ids=None,
    piece_counts=None,
) -> tuple[DualEncoder, list[float]]:
    """Fit the dual encoder by mini-batch gradient descent on sampled pairs.

    Each side is a mapping id -> features, read in key order, or a row
    matrix (CsrRows or dense 2-D) with its ids, as in linker.score_matrix.
    In a mapping a tweet maps to one vector, and an article to one vector
    or to its pieces (a 2-D array or a list of vectors). In an article
    matrix, article_ids[j] owns the next piece_counts[j] rows (default: one
    each); rows past them are not used. Negatives are drawn from the
    articles in that order; see build_training_pairs.

    Both maps start from seeded uniform(-s, s) with s = 1/sqrt(in_dim), so
    epochs=0 returns the reproducible initialization untouched. The returned
    trace holds, per epoch, the mean loss over all examples as seen during
    that epoch's forward passes (pre-update), which for full-batch descent
    is the exact objective sequence.

    Under mean_chunks with nonlinearity "none", every article trains on one
    row, the mean of its piece rows (their sum in piece order over the
    count): the affine map of the mean is the mean of the pieces' affine
    maps, up to rounding, and so is the gradient. With tanh, each step
    projects every piece row and averages the projections, as encode_batch
    does.
    """
    x_t, tweet_ids, _ = _feature_rows(tweet_features, tweet_ids, None, "tweet")
    x_a, article_ids, piece_counts = _feature_rows(
        article_features, article_ids, piece_counts, "article"
    )
    examples = build_training_pairs(positives, tweet_ids, article_ids, piece_counts, cfg, strategy)
    n_examples = len(examples)
    tanh = cfg.nonlinearity == "tanh"
    if not tanh and (examples[:, 2] > 1).any():
        # mean_chunks under an affine map: mean(x_i W + b) = (mean x_i) W + b,
        # and the gradient sum x_i^T (d / n) is (mean x_i)^T d, so each article
        # trains on one row, the mean of its piece rows.
        x_a = _mean_rows(x_a, piece_counts)
        examples[:, 1] = np.searchsorted(np.cumsum(piece_counts) - piece_counts, examples[:, 1])
        examples[:, 2] = 1

    rng = np.random.default_rng(cfg.seed)
    # Transposed (in_dim, joint_dim) weights: a batch's columns are contiguous rows.
    wt_t, b_t = _init_map(rng, x_t.n_cols, cfg.joint_dim)
    wt_a, b_a = _init_map(rng, x_a.n_cols, cfg.joint_dim)

    if cfg.momentum > 0:
        vel = [np.zeros_like(wt_t), np.zeros_like(b_t), np.zeros_like(wt_a), np.zeros_like(b_a)]
    trace: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n_examples)
        loss_sum = 0.0
        batches = _epoch_batches(x_t, x_a, examples, order, cfg.batch_size)
        for u_t, bx_t, u_a, bx_a, pool, bcounts, by in batches:
            b = len(by)
            # The batch's weight rows; without momentum they are updated here
            # and written back, so they are gathered once per step.
            w_t = wt_t.take(u_t, axis=0)
            w_a = wt_a.take(u_a, axis=0)

            e_t = bx_t @ w_t + b_t
            h = bx_a @ w_a + b_a  # (piece rows, d)
            if tanh:
                e_t = np.tanh(e_t)
                h = np.tanh(h)
            e_a = h if pool is None else (pool @ h) / bcounts
            losses, d_et, d_ea = _batch_loss_and_grads(e_t, e_a, by, cfg.margin)
            batch_loss = float(losses.sum())
            if not math.isfinite(batch_loss):
                raise NonFiniteLossError("training loss diverged")
            loss_sum += batch_loss

            d_pre_t = d_et * (1.0 - e_t**2) if tanh else d_et
            d_h = d_ea if pool is None else pool.T @ (d_ea / bcounts)
            d_pre_a = d_h * (1.0 - h**2) if tanh else d_h

            # Steps lr * (gradient / b), each rounded as written.
            steps = [bx_t.T @ d_pre_t, d_pre_t.sum(axis=0), bx_a.T @ d_pre_a, d_pre_a.sum(axis=0)]
            for step in steps:
                step /= b
                step *= cfg.lr
            if cfg.momentum > 0:
                touched = [u_t, slice(None), u_a, slice(None)]
                for v, param, step, at in zip(vel, (wt_t, b_t, wt_a, b_a), steps, touched):
                    v *= cfg.momentum
                    v[at] -= step
                    param += v
            else:
                w_t -= steps[0]
                wt_t[u_t] = w_t
                b_t -= steps[1]
                w_a -= steps[2]
                wt_a[u_a] = w_a
                b_a -= steps[3]
        trace.append(loss_sum / n_examples)

    encoder = DualEncoder(
        tweet_map=AffineMap(weight=np.ascontiguousarray(wt_t.T), bias=b_t),
        article_map=AffineMap(weight=np.ascontiguousarray(wt_a.T), bias=b_a),
        nonlinearity=cfg.nonlinearity,
    )
    return encoder, trace


# --- encoding ------------------------------------------------------------------


def encode(model: DualEncoder, side: str, features, strategy: str = "truncate") -> np.ndarray:
    """Project one document's features into the joint space; see encode_batch.

    mean_chunks expects the chunk feature vectors (list or 2-D array) and
    averages their projections; truncate/augment expect one feature vector.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    pieces = np.asarray(features, dtype=np.float64)
    if strategy != "mean_chunks":
        if pieces.ndim != 1:
            raise DimMismatchError(f"strategy {strategy!r} expects a single feature vector")
    elif pieces.shape[:1] == (0,):
        raise EmptyChunkListError("mean_chunks needs at least one chunk")
    pieces = np.atleast_2d(pieces)
    return encode_batch(model, side, pieces, [len(pieces)])[0]


def encode_batch(model: DualEncoder, side: str, rows, counts=None) -> np.ndarray:
    """Project feature rows (dense or CsrRows) with one batched product; one
    output row per document.

    Document i owns the next counts[i] rows and gets the mean of their
    projections; counts=None gives every row its own document. Each row is
    projected on its own (np.matmul loops over the rows in C), so a row's
    projection does not depend on the other rows in the batch, and row i
    equals encode() of document i bit for bit.
    """
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}; expected one of {SIDES}")
    amap = model.tweet_map if side == "tweet" else model.article_map
    rows = rows.toarray() if isinstance(rows, CsrRows) else np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2 or rows.shape[1] != amap.in_dim:
        raise DimMismatchError(
            f"{side} features have shape {rows.shape}, expected (rows, {amap.in_dim})"
        )
    out = np.matmul(rows[:, None, :], amap.weight.T)[:, 0] + amap.bias
    if model.nonlinearity == "tanh":
        out = np.tanh(out)
    if counts is None:
        return out
    counts = np.asarray(counts, dtype=np.int64)
    if (counts < 1).any():
        raise EmptyChunkListError("every document needs at least one feature row")
    if counts.sum() != len(rows):
        raise DimMismatchError(f"counts cover {counts.sum()} rows, got {len(rows)}")
    starts = np.cumsum(counts) - counts
    return np.add.reduceat(out, starts, axis=0) / counts[:, None]


# --- persistence -----------------------------------------------------------------

_DTYPE = "<f8"


def save_encoder(model: DualEncoder, path, train_config: TrainConfig | None = None) -> None:
    """Write `model` to `path` as a one-line, key-sorted version-2 JSON file.

    Every weight and bias array is an object {"dtype": "<f8", "shape": [...],
    "data": base64 of its C-order little-endian float64 bytes}, so the
    weights load back bit for bit. `format`, `version`, `nonlinearity`,
    `joint_dim` and the optional `train_config` provenance are plain JSON.
    """
    payload = {
        "format": "dual_encoder",
        "version": 2,
        "nonlinearity": model.nonlinearity,
        "joint_dim": model.joint_dim,
        "tweet_map": _map_payload(model.tweet_map),
        "article_map": _map_payload(model.article_map),
    }
    if train_config is not None:
        # Provenance only; loading ignores it.
        payload["train_config"] = {
            k: getattr(train_config, k) for k in train_config.__dataclass_fields__
        }
    # json.dumps would scan each base64 string for characters to escape, and base64 holds
    # none. Each is written in quotes where its index stands, so no whole-file copy is built.
    blobs = []
    for amap in (payload["tweet_map"], payload["article_map"]):
        for array in amap.values():
            blobs.append(array["data"])
            array["data"] = len(blobs) - 1
    # json.dumps takes the C encoder; json.dump always runs the pure-Python one.
    parts = re.split(r'(?<="data": )(\d+)', json.dumps(payload, sort_keys=True) + "\n")
    with open(path, "w", encoding="utf-8") as fh:
        for i, part in enumerate(parts):
            fh.writelines(('"', blobs[int(part)], '"') if i % 2 else (part,))


def load_encoder(path) -> DualEncoder:
    """Read a save_encoder file.

    A file that is not a version-2 dual_encoder file (errors.read_model),
    lacks a key, holds a value of the wrong type, holds arrays that do not
    decode to the shapes they declare, or whose joint_dim is not the maps'
    output width raises ConfigInvalidError naming `path`. Non-finite weights
    raise NonFiniteLossError.
    """
    with read_model(path, "dual_encoder", 2) as payload:
        check_types(DualEncoder, payload, f"{path}: ")
        maps = [
            AffineMap(
                weight=_array_from_payload(payload[key]["weight"]),
                bias=_array_from_payload(payload[key]["bias"]),
            )
            for key in ("tweet_map", "article_map")
        ]
        model = DualEncoder(*maps, nonlinearity=payload["nonlinearity"])
        joint_dim = payload["joint_dim"]
        if type(joint_dim) is not int or joint_dim != model.joint_dim:
            raise ValueError(
                f"joint_dim {joint_dim!r} is not the maps' output width {model.joint_dim}"
            )
    return model


def _map_payload(amap: AffineMap) -> dict:
    return {"weight": _array_payload(amap.weight), "bias": _array_payload(amap.bias)}


def _array_payload(a: np.ndarray) -> dict:
    raw = np.ascontiguousarray(a, dtype=_DTYPE).tobytes()
    return {
        "dtype": _DTYPE,
        "shape": list(a.shape),
        "data": binascii.b2a_base64(raw, newline=False).decode("ascii"),
    }


def _array_from_payload(obj: dict) -> np.ndarray:
    if obj["dtype"] != _DTYPE:
        raise ValueError(f"dtype {obj['dtype']!r} is not {_DTYPE!r}")
    shape = obj["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"shape {shape!r} is not a list of sizes")
    if not isinstance(obj["data"], str):
        raise ValueError("data is not a base64 string")
    data = obj["data"].encode("ascii")
    raw = binascii.a2b_base64(data)
    # a2b_base64 skips characters outside the alphabet; only the exact
    # encoding of the decoded bytes is accepted.
    if binascii.b2a_base64(raw, newline=False) != data:
        raise ValueError("data is not canonical base64")
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"{len(raw)} data bytes do not fill shape {shape}")
    return np.frombuffer(raw, dtype=_DTYPE).astype(np.float64).reshape(shape)

