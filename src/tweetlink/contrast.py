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
build_training_pairs). Each mini-batch step works on dense blocks over
only the feature columns nonzero in its batch, so the forward pass, the
backward pass and the weight update cost time in proportion to the
batch's nonzeros, not to the vocabulary. Only the momentum velocity
update stays dense, because every column with a nonzero velocity moves.

Under mean_chunks an affine encoder (nonlinearity "none") trains on one
row per article, the mean of its piece rows, built once before the first
epoch: an affine map commutes with the mean, and so does its gradient.
The tanh encoder projects every piece row and averages the projections.
When every example has one row (truncate, augment, or pooled mean_chunks),
a step builds no pooling matrix.

Both towers take each step together. Their transposed weights are stacked
in one table, tweet rows first, and a batch's columns are its tweet
columns, then its article columns offset by the tweet width, so one take
gathers both towers' rows. After each epoch's shuffle, one vectorized
pass over both towers plans every batch's columns and each nonzero's
place in its batch's buffer, so a step scatters one buffer, runs the loss
once on the stacked embeddings and writes one step array. Every float
operation keeps its operands and order, so the weights equal those of
stepping each tower and each batch on its own, bit for bit.

Encoding projects all of a side's documents with one batched product
(encode_batch), averaging a document's piece rows under mean_chunks.

save_encoder writes encoder.json version 2 (errors.write_model). load_encoder
reads version 2 only: no command has ever read an encoder file, so version-1
files (nested JSON float lists) are rejected.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import NONLINEARITIES, STRATEGIES, TrainConfig
from .errors import (
    DimMismatchError,
    EmptyChunkListError,
    EmptyInputError,
    MissingEmbeddingError,
    NoNegativesAvailableError,
    NonFiniteLossError,
    read_array,
    read_model,
    write_model,
)
from .matrices import CsrRows

SIDES = ("tweet", "article")


@dataclass(frozen=True, eq=False)
class AffineMap:
    """x -> weight @ x + bias, with finite parameters."""

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
    """One affine map per side into a shared joint space, optionally followed by tanh."""

    tweet_map: AffineMap
    article_map: AffineMap
    nonlinearity: str = "none"

    def __post_init__(self):
        if self.tweet_map.out_dim != self.article_map.out_dim:
            raise DimMismatchError("tweet and article maps must share the joint dimension")
        if self.nonlinearity not in NONLINEARITIES:
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
    return _loss_and_grads(np.stack((e1, e2))[:, None], np.array([float(y)]), margin)


def cosine_embedding_loss(e1, e2, y: int, margin: float = 0.0) -> float:
    """Contrastive cosine loss; zero-norm inputs use the cosine=0 convention."""
    losses, _ = _one_row(e1, e2, y, margin)
    return float(losses[0])


def loss_gradient(e1, e2, y: int, margin: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Exact gradient of the loss w.r.t. both embeddings.

    On the inactive side of the hinge (including the boundary cos == margin
    for y = -1) both gradients are zero; the same convention applies to
    zero-norm inputs, where the cosine is pinned to 0.
    """
    _, grads = _one_row(e1, e2, y, margin)
    return grads[0, 0], grads[1, 0]


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


# An epoch plans on a bitmap of n_batches x stacked width cells when it has
# at most this many cells per nonzero, and with np.unique otherwise. Planning
# dual-chunks' epochs (4.7 cells per nonzero) with their columns spread k-fold
# wider (numpy 2.4, 2-core VM), the bitmap won 60 of 60 interleaved trials at
# 4.7 cells (1.5x faster), about 50 of 60 at 9.5 and 14, half at 19, and 15 or
# fewer at 24 and up. On dense rows it planned 1.9-2.5x faster.
_BITMAP_CELLS_PER_NONZERO = 16


def _epoch_blocks(x_t: CsrRows, x_a: CsrRows, rows_t, batch_t, rows_a, batch_a, n_batches):
    """Yield (u, bx_t, bx_a) for each batch: u holds its sorted distinct stacked
    columns, bx_t[r, j] is its r-th tweet row's value in column u[j], and
    bx_a[r, j] its r-th article row's value in column u[bx_t.shape[1] + j].

    rows_t and rows_a list the tweet and article CSR rows of all batches back
    to back, and batch_t and batch_a give each row's batch (non-decreasing).
    The plan merges each batch's tweet rows, then its article rows, into one
    CSR over the stacked columns, and keys each nonzero batch * width +
    column. The sorted distinct keys give every batch's columns at once, and
    a key's rank among them places its nonzero in its batch's buffer: the
    tweet block, then the article block. With at most
    _BITMAP_CELLS_PER_NONZERO cells of n_batches * width per nonzero, the
    keys mark a bitmap of the cells, np.flatnonzero reads them back in
    order, and a table over the cells gives each its rank; otherwise one
    np.unique sorts them. The plan keeps only the values and their int32
    positions.
    """
    in_t, width = x_t.n_cols, np.int64(x_t.n_cols + x_a.n_cols)
    seg = np.concatenate((2 * batch_t, 2 * batch_a + 1))
    merge = np.argsort(seg, kind="stable")
    seg, rows = seg[merge], np.concatenate((rows_t, rows_a + len(x_t.indptr)))[merge]
    indptr = np.concatenate((x_t.indptr, x_a.indptr + len(x_t.data)))
    lens = indptr[rows + 1] - indptr[rows]
    pos = _ranges(indptr[rows], lens)
    values = np.concatenate((x_t.data, x_a.data))[pos]
    # int32 keys unless n_batches * width passes 2**31.
    cells = n_batches * width
    key_type = np.int32 if cells < 2**31 else np.int64
    key = np.concatenate((x_t.indices, x_a.indices + in_t)).astype(key_type)[pos]
    del pos
    key += np.repeat((seg // 2 * width).astype(key_type), lens)
    if cells <= _BITMAP_CELLS_PER_NONZERO * len(key):
        marked = np.zeros(cells, dtype=bool)
        marked[key] = True
        keys = np.flatnonzero(marked)
        del marked
        rank = np.empty(cells, dtype=key_type)  # only the marked cells are written
        rank[keys] = np.arange(len(keys), dtype=key_type)
        local_col = rank[key]
        del rank
    else:
        keys, local_col = np.unique(key, return_inverse=True)
    del key
    edges = np.arange(2 * n_batches + 1)
    col_bounds = np.searchsorted(keys, edges // 2 * width + edges % 2 * in_t)
    cols = (keys % width).astype(np.int32)
    del keys
    row_bounds = np.searchsorted(seg, edges)
    # In its batch's buffer, a row's cells start where the previous row's cells end.
    row_width = np.diff(col_bounds)[seg]
    row_end = np.cumsum(row_width)
    batch_start = np.concatenate(([0], row_end))[row_bounds[::2]]
    # int32 unless a batch's buffer has 2**31 cells, which no memory holds anyway.
    # A subtraction in either type is exact, since its result fits.
    seg_cells = np.diff(row_bounds) * np.diff(col_bounds)
    flat_type = np.int32 if (seg_cells[::2] + seg_cells[1::2]).max() <= 2**31 else np.int64
    flat = local_col.astype(flat_type, copy=False)
    del local_col
    flat -= np.repeat(col_bounds[seg] + batch_start[seg // 2] - row_end + row_width, lens)
    nz_bounds = np.concatenate(([0], np.cumsum(lens)))[row_bounds[::2]].tolist()
    row_bounds, col_bounds = row_bounds.tolist(), col_bounds.tolist()
    for k in range(n_batches):
        (r0, r1, r2), (c0, c1, c2) = row_bounds[2 * k : 2 * k + 3], col_bounds[2 * k : 2 * k + 3]
        z0, z1, mid = nz_bounds[k], nz_bounds[k + 1], (r1 - r0) * (c1 - c0)
        buf = np.zeros(mid + (r2 - r1) * (c2 - c1))
        buf[flat[z0:z1]] = values[z0:z1]
        yield cols[c0:c2], buf[:mid].reshape(r1 - r0, c1 - c0), buf[mid:].reshape(r2 - r1, c2 - c1)


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
    """Yield each batch of one epoch: (u, bx_t, bx_a, pool, counts, y).

    Batch k holds the examples (rows of build_training_pairs' result)
    order[k * bs : (k + 1) * bs], and u, bx_t and bx_a are its _epoch_blocks
    blocks; pool[i, r] = 1 where piece row r of bx_a belongs to example i.
    When every example has one piece row, pool and counts are None and row
    i of bx_a is example i's. The plan covers the whole epoch and is freed
    when it ends.
    """
    n = len(order)
    example_batch = np.arange(n) // bs
    t_row, first_piece, counts, labels = examples[order].T
    y = labels.astype(np.float64)
    pieces, piece_batch = _ranges(first_piece, counts), np.repeat(example_batch, counts)
    blocks = _epoch_blocks(x_t, x_a, t_row, example_batch, pieces, piece_batch, -(-n // bs))
    pooling = (counts > 1).any()
    # The example each piece row belongs to, counted within its batch.
    piece_example = np.repeat(np.arange(n) % bs, counts)
    pool, bcounts, p = None, None, 0
    for start, (u, bx_t, bx_a) in zip(range(0, n, bs), blocks):
        if pooling:
            n_rows = len(bx_a)
            pool = np.zeros((len(bx_t), n_rows))
            pool[piece_example[p : p + n_rows], np.arange(n_rows)] = 1.0
            p += n_rows
            bcounts = counts[start : start + bs, None]
        yield u, bx_t, bx_a, pool, bcounts, y[start : start + bs]


def _loss_and_grads(e, y, margin):
    """Loss per pair and its gradient w.r.t. the stacked embeddings e.

    e[0] holds the b tweet embeddings and e[1] their articles', (2, b, d);
    the gradient has the same layout. A pair with a zero-norm side has
    cosine 0 and a zero gradient.
    """
    # np.linalg.norm's own arithmetic for real rows, without its wrapper.
    norms = np.sqrt(np.add.reduce(e * e, axis=2))
    masked = not norms.min() > 0  # the masks change nothing when every norm is positive
    if masked:
        ok = (norms > 0).all(axis=0)
        norms = np.where(ok, norms, 1.0)
    denom = norms[0] * norms[1]
    cos = np.add.reduce(e[0] * e[1], axis=1) / denom
    cos = np.where(ok, cos, 0.0) if masked else cos
    cos = np.minimum(np.maximum(cos, -1.0), 1.0)  # np.clip, without its wrapper

    positive = y > 0
    losses = np.where(positive, 1.0 - cos, np.maximum(0.0, cos - margin))
    # Gradient sign: -dcos for positives, +dcos for active negatives, 0 elsewhere.
    sign = np.where(positive, -1.0, np.where(cos > margin, 1.0, 0.0))
    if masked:
        sign *= ok
    # dcos/de_t = e_a / (|e_t| |e_a|) - cos / |e_t|^2 * e_t, and the same with the sides swapped.
    dcos = e[::-1] / denom[:, None] - (cos / norms**2)[:, :, None] * e
    return losses, sign[:, None] * dcos


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
    # Both maps' transposed (in_dim, joint_dim) weights in one table, tweet rows
    # first, so a batch's stacked columns u are its rows; the biases in another.
    in_t, d = x_t.n_cols, cfg.joint_dim
    table, biases = np.empty((in_t + x_a.n_cols, d)), np.empty((2, d))
    weights = np.split(table, [in_t])  # views of each tower's rows
    for weight, bias in zip(weights, biases):
        scale = 1.0 / math.sqrt(len(weight))
        weight[...] = rng.uniform(-scale, scale, size=(d, len(weight))).T
        bias[...] = rng.uniform(-scale, scale, size=d)

    if cfg.momentum > 0:
        vel_w, vel_b = np.zeros_like(table), np.zeros_like(biases)
    trace: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n_examples)
        loss_sum = 0.0
        batches = _epoch_batches(x_t, x_a, examples, order, cfg.batch_size)
        for u, bx_t, bx_a, pool, bcounts, by in batches:
            b, n_t = len(by), bx_t.shape[1]
            # The batch's weight rows; without momentum they are updated here
            # and written back, so they are gathered once per step.
            w = table.take(u, axis=0)
            h = np.empty((b + len(bx_a), d))  # tweet rows, then article piece rows
            np.matmul(bx_t, w[:n_t], out=h[:b])
            np.matmul(bx_a, w[n_t:], out=h[b:])
            h[:b] += biases[0]
            h[b:] += biases[1]
            if tanh:
                np.tanh(h, out=h)
            e = h.reshape(2, b, d) if pool is None else np.stack((h[:b], pool @ h[b:] / bcounts))
            losses, d_e = _loss_and_grads(e, by, cfg.margin)
            batch_loss = float(losses.sum())
            if not math.isfinite(batch_loss):
                raise NonFiniteLossError("training loss diverged")
            loss_sum += batch_loss

            d_h = d_e.reshape(-1, d)
            if pool is not None:
                d_h = np.concatenate((d_e[0], pool.T @ (d_e[1] / bcounts)))
            d_pre = d_h * (1.0 - h**2) if tanh else d_h
            # Steps lr * (gradient / b), each rounded as written: the weight
            # rows u, then the two biases.
            step = np.empty((len(u) + 2, d))
            np.matmul(bx_t.T, d_pre[:b], out=step[:n_t])
            np.matmul(bx_a.T, d_pre[b:], out=step[n_t:-2])
            np.add.reduce(d_pre[:b], axis=0, out=step[-2])
            np.add.reduce(d_pre[b:], axis=0, out=step[-1])
            # x * (1 / b) is x / b bit for bit when b is a power of two, and cheaper.
            if b & (b - 1):
                step /= b
            else:
                step *= 1.0 / b
            step *= cfg.lr
            if cfg.momentum > 0:
                vel_w *= cfg.momentum
                vel_w[u] -= step[:-2]
                table += vel_w
                vel_b *= cfg.momentum
                vel_b -= step[-2:]
                biases += vel_b
            else:
                w -= step[:-2]
                table[u] = w
                biases -= step[-2:]
        trace.append(loss_sum / n_examples)

    maps = [AffineMap(np.ascontiguousarray(w.T), bias) for w, bias in zip(weights, biases)]
    return DualEncoder(*maps, nonlinearity=cfg.nonlinearity), trace


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


def save_encoder(model: DualEncoder, path, train_config: TrainConfig | None = None) -> None:
    """Write `model` to `path` as a version-2 dual_encoder model file
    (errors.write_model): each map's weight and bias are array objects, and
    `nonlinearity`, `joint_dim` and the optional `train_config` provenance are
    plain JSON."""
    payload = {
        "format": "dual_encoder",
        "version": 2,
        "nonlinearity": model.nonlinearity,
        "joint_dim": model.joint_dim,
        "tweet_map": {"weight": model.tweet_map.weight, "bias": model.tweet_map.bias},
        "article_map": {"weight": model.article_map.weight, "bias": model.article_map.bias},
    }
    if train_config is not None:
        # Provenance only; loading ignores it.
        payload["train_config"] = asdict(train_config)
    write_model(path, payload)


def load_encoder(path) -> DualEncoder:
    """Read a save_encoder file.

    A file that is not a version-2 dual_encoder file (errors.read_model),
    lacks a key, holds a value of the wrong type, holds arrays that do not
    decode to the shapes they declare (errors.read_array), or whose joint_dim
    is not the maps' output width raises ConfigInvalidError naming `path`.
    Non-finite weights raise NonFiniteLossError.
    """
    with read_model(path, "dual_encoder", 2, DualEncoder) as payload:
        maps = [
            AffineMap(
                weight=read_array(payload[key]["weight"]),
                bias=read_array(payload[key]["bias"]),
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
