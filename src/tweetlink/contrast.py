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

Training packs the feature vectors as sparse rows. Each mini-batch step
gathers only the feature columns nonzero in its batch, so the forward pass,
the backward pass and the weight update cost time in proportion to the
batch's nonzeros, not to the vocabulary; the other columns have a zero
gradient. Only the momentum velocity update stays dense, because every
column with a nonzero velocity moves on every step.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ConfigInvalidError,
    DimMismatchError,
    EmptyChunkListError,
    EmptyInputError,
    MissingEmbeddingError,
    NoNegativesAvailableError,
    NonFiniteLossError,
)

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


@dataclass(frozen=True)
class TrainingPair:
    x_tweet: np.ndarray = field(repr=False)
    x_article: np.ndarray = field(repr=False)  # (in_dim,) or (n_pieces, in_dim)
    y: int

    def __post_init__(self):
        if self.y not in (1, -1):
            raise ValueError("pair label must be +1 or -1")


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


def _as_pieces(x) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim == 1:
        return arr[None, :]
    if arr.ndim == 2:
        if arr.shape[0] == 0:
            raise EmptyChunkListError("article has no feature pieces")
        return arr
    raise DimMismatchError(f"article features must be 1-D or 2-D, got shape {arr.shape}")


def _article_pieces(article_features, article_id: str) -> np.ndarray:
    try:
        raw = article_features[article_id]
    except KeyError:
        raise MissingEmbeddingError(article_id) from None
    if isinstance(raw, (list, tuple)) and raw and np.ndim(raw[0]) == 1:
        return np.stack([np.asarray(p, dtype=np.float64) for p in raw])
    return _as_pieces(raw)


def build_training_pairs(
    positives,
    tweet_features,
    article_features,
    cfg: TrainConfig,
    strategy: str = "truncate",
) -> list[TrainingPair]:
    """Resolve id pairs into labeled feature pairs, including sampled negatives.

    Under the augment strategy each positive article piece (header, then each
    part) becomes its own positive pair, and negatives are represented by
    their header piece. Under mean_chunks the article keeps all its chunk
    vectors and the encoder averages their projections.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    positives = list(positives)
    if not positives:
        raise EmptyInputError("training needs at least one positive pair")

    def tweet_vec(tweet_id: str) -> np.ndarray:
        try:
            return np.asarray(tweet_features[tweet_id], dtype=np.float64)
        except KeyError:
            raise MissingEmbeddingError(tweet_id) from None

    stacked: dict[str, np.ndarray] = {}

    def article_pieces(article_id: str) -> np.ndarray:
        """The article's pieces, stacked once and shared by all of its pairs."""
        if article_id not in stacked:
            stacked[article_id] = _article_pieces(article_features, article_id)
        return stacked[article_id]

    pairs: list[TrainingPair] = []
    expanded: list[tuple[str, str]] = []
    for tweet_id, article_id in positives:
        x_t = tweet_vec(tweet_id)
        pieces = article_pieces(article_id)
        if strategy == "augment":
            for piece in pieces:
                pairs.append(TrainingPair(x_t, piece, 1))
                expanded.append((tweet_id, article_id))
        elif strategy == "mean_chunks":
            pairs.append(TrainingPair(x_t, pieces, 1))
            expanded.append((tweet_id, article_id))
        else:
            if pieces.shape[0] != 1:
                raise DimMismatchError(
                    f"article {article_id!r} has {pieces.shape[0]} pieces under 'truncate'"
                )
            pairs.append(TrainingPair(x_t, pieces[0], 1))
            expanded.append((tweet_id, article_id))

    article_ids = list(article_features.keys())
    for tweet_id, article_id in sample_negatives(expanded, article_ids, cfg.neg_ratio, cfg.seed):
        pieces = article_pieces(article_id)
        if strategy == "mean_chunks":
            pairs.append(TrainingPair(tweet_vec(tweet_id), pieces, -1))
        else:
            pairs.append(TrainingPair(tweet_vec(tweet_id), pieces[0], -1))
    return pairs


def _csr(rows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR arrays (indptr, indices, data) holding the nonzeros of 1-D rows."""
    cols = [np.flatnonzero(r) for r in rows]
    indptr = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in cols], out=indptr[1:])
    indices = np.concatenate(cols)
    data = np.concatenate([r[c] for r, c in zip(rows, cols)])
    return indptr, indices, data


def _pack(pairs: list[TrainingPair]):
    """Pack pairs as sparse rows.

    Returns (dim_t, dim_a, tweet CSR, article piece CSR, pieces per pair,
    labels).

    Tweet rows follow the pair order; the article pieces of pair i are the
    contiguous piece rows starting at the sum of the earlier pairs' counts.
    """
    in_t = {p.x_tweet.shape[-1] for p in pairs}
    in_a = {np.atleast_2d(p.x_article).shape[-1] for p in pairs}
    if len(in_t) != 1 or len(in_a) != 1:
        raise DimMismatchError("inconsistent feature dimensions across training pairs")
    pieces = [np.atleast_2d(p.x_article) for p in pairs]
    x_t = _csr([p.x_tweet for p in pairs])
    x_a = _csr([row for piece_rows in pieces for row in piece_rows])
    counts = np.array([len(piece_rows) for piece_rows in pieces], dtype=np.int64)
    y = np.array([float(p.y) for p in pairs])
    return in_t.pop(), in_a.pop(), x_t, x_a, counts, y


def _ranges(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + n) over (starts, lens)."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)


def _gather(csr, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The given CSR rows as a dense block over their distinct columns only.

    Returns (u, block): u holds the sorted column ids nonzero in any of the
    rows, and block[r, j] is row r's value in column u[j].
    """
    indptr, indices, data = csr
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    pos = _ranges(starts, lens)
    u, local = np.unique(indices[pos], return_inverse=True)
    block = np.zeros((len(rows), len(u)))
    block[np.repeat(np.arange(len(rows)), lens), local] = data[pos]
    return u, block


def _init_map(rng: np.random.Generator, in_dim: int, out_dim: int) -> AffineMap:
    scale = 1.0 / math.sqrt(in_dim)
    weight = rng.uniform(-scale, scale, size=(out_dim, in_dim))
    bias = rng.uniform(-scale, scale, size=out_dim)
    return AffineMap(weight=weight, bias=bias)


def _batch_loss_and_grads(e_t, e_a, y, margin):
    """Vectorized loss row-per-pair and gradients w.r.t. both embedding batches."""
    n1 = np.linalg.norm(e_t, axis=1)
    n2 = np.linalg.norm(e_a, axis=1)
    ok = (n1 > 0) & (n2 > 0)
    safe1 = np.where(ok, n1, 1.0)
    safe2 = np.where(ok, n2, 1.0)
    cos = np.where(ok, (e_t * e_a).sum(axis=1) / (safe1 * safe2), 0.0)
    cos = np.clip(cos, -1.0, 1.0)

    losses = np.where(y > 0, 1.0 - cos, np.maximum(0.0, cos - margin))
    # Gradient sign: -dcos for positives, +dcos for active negatives, 0 elsewhere.
    sign = np.where(y > 0, -1.0, np.where(cos > margin, 1.0, 0.0)) * ok
    dc_det = e_a / (safe1 * safe2)[:, None] - (cos / safe1**2)[:, None] * e_t
    dc_dea = e_t / (safe1 * safe2)[:, None] - (cos / safe2**2)[:, None] * e_a
    return losses, sign[:, None] * dc_det, sign[:, None] * dc_dea


def train(
    positives,
    tweet_features,
    article_features,
    cfg: TrainConfig,
    strategy: str = "truncate",
) -> tuple[DualEncoder, list[float]]:
    """Fit the dual encoder by mini-batch gradient descent on sampled pairs.

    Both maps start from seeded uniform(-s, s) with s = 1/sqrt(in_dim), so
    epochs=0 returns the reproducible initialization untouched. The returned
    trace holds, per epoch, the mean loss over all examples as seen during
    that epoch's forward passes (pre-update), which for full-batch descent
    is the exact objective sequence.
    """
    pairs = build_training_pairs(positives, tweet_features, article_features, cfg, strategy)
    dim_t, dim_a, x_t, x_a, counts, y = _pack(pairs)
    n_examples = len(pairs)
    first_piece = np.cumsum(counts) - counts

    rng = np.random.default_rng(cfg.seed)
    t_map = _init_map(rng, dim_t, cfg.joint_dim)
    a_map = _init_map(rng, dim_a, cfg.joint_dim)
    # Transposed (in_dim, joint_dim) weights: a batch's columns are contiguous rows.
    wt_t, b_t = t_map.weight.T.copy(), t_map.bias.copy()
    wt_a, b_a = a_map.weight.T.copy(), a_map.bias.copy()
    tanh = cfg.nonlinearity == "tanh"

    vel = [np.zeros_like(wt_t), np.zeros_like(b_t), np.zeros_like(wt_a), np.zeros_like(b_a)]
    trace: list[float] = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n_examples)
        loss_sum = 0.0
        for start in range(0, n_examples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            b = len(idx)
            u_t, bx_t = _gather(x_t, idx)
            bcounts = counts[idx]
            u_a, bx_a = _gather(x_a, _ranges(first_piece[idx], bcounts))
            # pool[i, r] = 1 where piece row r belongs to example i.
            pool = np.zeros((b, bx_a.shape[0]))
            pool[np.repeat(np.arange(b), bcounts), np.arange(bx_a.shape[0])] = 1.0

            e_t = bx_t @ wt_t[u_t] + b_t
            h = bx_a @ wt_a[u_a] + b_a  # (piece rows, d)
            if tanh:
                e_t = np.tanh(e_t)
                h = np.tanh(h)
            e_a = (pool @ h) / bcounts[:, None]
            losses, d_et, d_ea = _batch_loss_and_grads(e_t, e_a, y[idx], cfg.margin)
            batch_loss = float(losses.sum())
            if not np.isfinite(batch_loss):
                raise NonFiniteLossError("training loss diverged")
            loss_sum += batch_loss

            d_pre_t = d_et * (1.0 - e_t**2) if tanh else d_et
            d_h = pool.T @ (d_ea / bcounts[:, None])
            d_pre_a = d_h * (1.0 - h**2) if tanh else d_h

            grads = [
                bx_t.T @ d_pre_t / b,
                d_pre_t.sum(axis=0) / b,
                bx_a.T @ d_pre_a / b,
                d_pre_a.sum(axis=0) / b,
            ]
            touched = [u_t, slice(None), u_a, slice(None)]
            params = [wt_t, b_t, wt_a, b_a]
            for k, (param, grad, at) in enumerate(zip(params, grads, touched)):
                if cfg.momentum > 0:
                    vel[k] *= cfg.momentum
                    vel[k][at] -= cfg.lr * grad
                    param += vel[k]
                else:
                    param[at] -= cfg.lr * grad
        trace.append(loss_sum / n_examples)

    encoder = DualEncoder(
        tweet_map=AffineMap(weight=np.ascontiguousarray(wt_t.T), bias=b_t),
        article_map=AffineMap(weight=np.ascontiguousarray(wt_a.T), bias=b_a),
        nonlinearity=cfg.nonlinearity,
    )
    return encoder, trace


# --- encoding ------------------------------------------------------------------


def encode(model: DualEncoder, side: str, features, strategy: str = "truncate") -> np.ndarray:
    """Project features into the joint space.

    mean_chunks expects the chunk feature vectors (list or 2-D array) and
    averages their projections; truncate/augment expect one feature vector.
    """
    if side not in SIDES:
        raise ValueError(f"unknown side {side!r}; expected one of {SIDES}")
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    amap = model.tweet_map if side == "tweet" else model.article_map

    if strategy == "mean_chunks":
        if isinstance(features, (list, tuple)):
            if not features:
                raise EmptyChunkListError("mean_chunks needs at least one chunk")
            pieces = np.stack([np.asarray(p, dtype=np.float64) for p in features])
        else:
            pieces = _as_pieces(features)
    else:
        vec = np.asarray(features, dtype=np.float64)
        if vec.ndim != 1:
            raise DimMismatchError(f"strategy {strategy!r} expects a single feature vector")
        pieces = vec[None, :]

    if pieces.shape[1] != amap.in_dim:
        raise DimMismatchError(
            f"{side} features have dim {pieces.shape[1]}, expected {amap.in_dim}"
        )
    out = pieces @ amap.weight.T + amap.bias
    if model.nonlinearity == "tanh":
        out = np.tanh(out)
    return out.mean(axis=0)


# --- persistence -----------------------------------------------------------------


def save_encoder(model: DualEncoder, path, train_config: TrainConfig | None = None) -> None:
    payload = {
        "format": "dual_encoder",
        "version": 1,
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
    # json.dumps takes the C encoder; json.dump always runs the pure-Python one.
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def load_encoder(path) -> DualEncoder:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != "dual_encoder" or payload.get("version") != 1:
        raise ConfigInvalidError(f"{path}: expected a version-1 dual_encoder file")
    return DualEncoder(
        tweet_map=_map_from_payload(payload["tweet_map"]),
        article_map=_map_from_payload(payload["article_map"]),
        nonlinearity=payload["nonlinearity"],
    )


def _map_payload(amap: AffineMap) -> dict:
    return {
        "weight": amap.weight.tolist(),
        "bias": amap.bias.tolist(),
    }


def _map_from_payload(obj: dict) -> AffineMap:
    return AffineMap(
        weight=np.asarray(obj["weight"], dtype=np.float64),
        bias=np.asarray(obj["bias"], dtype=np.float64),
    )
