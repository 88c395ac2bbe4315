"""Independent reference implementations used as test oracles.

These deliberately avoid the library's code paths: plain loops, dicts and
math only, so a bug in the package cannot hide in its own oracle.
"""

import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from tweetlink.contrast import STRATEGIES, sample_negatives
from tweetlink.corpus import AnnotationRecord, Document, LinkedPair
from tweetlink.errors import (
    ConflictingLabelError,
    DimMismatchError,
    DuplicateIdError,
    EmptyChunkListError,
    EmptyInputError,
    MalformedLineError,
    MissingEmbeddingError,
    MissingFieldError,
    UnknownIdError,
)
from tweetlink.evalx import average_precision, masked_pairs
from tweetlink.matrices import GroundTruthMatrix
from tweetlink.textprep import (
    _ALIAS_RE,
    _EMOJI_MODIFIERS,
    _EMOJI_RANGES,
    _emoji_alias,
)


def ap_reference(scores, labels):
    """Average precision by explicit threshold scan over distinct scores.

    At each distinct score value (descending) every pair scoring >= that
    value is predicted positive; precision/recall come from direct counts.
    """
    scores = list(map(float, scores))
    labels = list(map(int, labels))
    total_pos = sum(1 for y in labels if y == 1)
    assert total_pos > 0
    ap = 0.0
    prev_recall = 0.0
    for threshold in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 1)
        kept = sum(1 for s in scores if s >= threshold)
        recall = tp / total_pos
        precision = tp / kept
        ap += (recall - prev_recall) * precision
        prev_recall = recall
    return ap


def confusion_reference(preds, labels):
    tp = fp = fn = tn = 0
    for p, y in zip(preds, labels):
        if p == 1 and y == 1:
            tp += 1
        elif p == 1 and y == -1:
            fp += 1
        elif p == -1 and y == 1:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def binary_metrics_reference(preds, labels):
    tp, fp, fn, tn = confusion_reference(preds, labels)
    n = tp + fp + fn + tn
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "accuracy": (tp + tn) / n,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "n": n,
    }


def calibrate_reference(scores, labels, edge_eps=1e-6):
    """F1-maximizing threshold by evaluating every candidate on its own.

    Candidates are the midpoints between consecutive distinct scores plus
    one value edge_eps below and one above them all; ties go to the first
    (smallest) candidate. Costs O(distinct scores x pairs).
    """
    scores = list(map(float, scores))
    labels = list(map(int, labels))
    distinct = sorted(set(scores))
    candidates = [distinct[0] - edge_eps]
    candidates.extend((lo + hi) / 2.0 for lo, hi in zip(distinct, distinct[1:]))
    candidates.append(distinct[-1] + edge_eps)
    best_threshold, best_f1 = None, -1.0
    for theta in candidates:
        preds = [1 if s >= theta else -1 for s in scores]
        f1 = binary_metrics_reference(preds, labels)["f1"]
        if f1 > best_f1:
            best_threshold, best_f1 = theta, f1
    return best_threshold, best_f1


def masked_flatten_reference(values, gt_values):
    out_vals, out_labels = [], []
    for row_v, row_g in zip(values, gt_values):
        for v, g in zip(row_v, row_g):
            if g != 0:
                out_vals.append(float(v))
                out_labels.append(int(g))
    return out_vals, out_labels


def document_frequency_reference(docs):
    """(number of nonempty documents, term -> number of documents holding it)."""
    docs = [list(d) for d in docs if d]
    df = {}
    for doc in docs:
        for term in set(doc):
            df[term] = df.get(term, 0) + 1
    return len(docs), df


def tfidf_reference(docs):
    """Hand-rolled TF-IDF: returns (term -> idf, transform function)."""
    n_docs, df = document_frequency_reference(docs)
    idf = {t: math.log((1 + n_docs) / (1 + c)) + 1.0 for t, c in df.items()}

    def transform(doc):
        counts = {}
        for t in doc:
            counts[t] = counts.get(t, 0) + 1
        weights = {t: c * idf[t] for t, c in counts.items() if t in idf}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        if norm == 0:
            return {}
        return {t: w / norm for t, w in weights.items()}

    return idf, transform


def tfidf_transform_reference(model, doc):
    """One document's dense tf-idf vector, built entry by entry (the per-document transform)."""
    vec = np.zeros(model.vocab.size, dtype=np.float64)
    for term, count in Counter(doc).items():
        i = model.vocab.index.get(term)
        if i is not None:
            vec[i] = count * model.idf[i]
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


def score_matrix_reference(tweet_vecs, article_vecs, tweet_ids, article_ids):
    """All-pairs cosines of two id -> vector mappings, one matrix-vector product per tweet row."""
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
    if len(dims) != 1 or len(dims.pop()) != 1:
        raise DimMismatchError("vectors must be flat and of one shape")
    a_mat = np.stack(a_list)
    a_norms = np.linalg.norm(a_mat, axis=1)
    values = np.zeros((len(tweet_ids), len(article_ids)), dtype=np.float64)
    for row, tv in zip(values, t_mat):
        # A zero norm on either side leaves the cell at 0.
        denom = a_norms * np.linalg.norm(tv)
        np.divide(a_mat @ tv, denom, out=row, where=denom != 0.0)
        np.clip(row, -1.0, 1.0, out=row)
    return values


def fd_gradient(fn, x, step=1e-6):
    """Central finite differences of a scalar function of a vector."""
    grad = []
    for i in range(len(x)):
        hi = list(x)
        lo = list(x)
        hi[i] += step
        lo[i] -= step
        grad.append((fn(hi) - fn(lo)) / (2 * step))
    return grad


def fleiss_kappa_reference(table):
    n_items = len(table)
    n_cats = len(table[0])
    r = sum(table[0])
    p_obs = 0.0
    for row in table:
        p_obs += (sum(c * c for c in row) - r) / (r * (r - 1))
    p_obs /= n_items
    p_chance = 0.0
    for j in range(n_cats):
        share = sum(row[j] for row in table) / (n_items * r)
        p_chance += share * share
    return (p_obs - p_chance) / (1 - p_chance)


def random_tree(rng, n_nodes, base_time=1000):
    """Random parent choices with non-decreasing timestamps.

    Returns a list of (tweet_id, parent_id, created_at) with node 0 as root.
    """
    rows = [("n000", None, base_time)]
    t = base_time
    for i in range(1, n_nodes):
        parent = int(rng.integers(0, i))
        t += int(rng.integers(0, 3))  # allows timestamp ties
        rows.append((f"n{i:03d}", f"n{parent:03d}", t))
    return rows


def _oldest_member_ids(cascade, n):
    """The ids of a cascade's n oldest members, in (created_at, depth, id)
    order, with each depth counted along the parent links."""
    parent = {m.tweet_id: m.parent_id for m in cascade.members}

    def depth(tweet_id):
        d = 0
        while parent[tweet_id] is not None:
            tweet_id = parent[tweet_id]
            d += 1
        return d

    members = sorted(cascade.members, key=lambda m: (m.created_at, depth(m.tweet_id), m.tweet_id))
    return [m.tweet_id for m in members[:n]]


_AGGREGATE_REFERENCE = {"mean": np.mean, "median": np.median, "max": np.max}


def sweep_size_reference(sim, sizes, cascades, gt, aggregation):
    """sweep-size's rows: for each n, every cascade's n oldest members, their
    similarity rows stacked afresh and reduced column by column, and the
    masked AP of those rows against `gt` (one row per cascade)."""
    row_of = {tweet_id: sim.values[i] for i, tweet_id in enumerate(sim.tweet_ids)}
    reduce = _AGGREGATE_REFERENCE[aggregation]
    n_evaluated = int((np.abs(gt.values).sum(axis=1) > 0).sum())
    rows = []
    for n in sizes:
        agg_rows = [
            reduce(np.stack([row_of[t] for t in _oldest_member_ids(c, n)]), axis=0)
            for c in cascades
        ]
        values = np.clip(np.asarray(agg_rows), -1.0, 1.0)
        scores, labels = masked_pairs(values, gt)
        rows.append({"n": n, "ap": average_precision(scores, labels), "n_cascades": n_evaluated})
    return rows


def lda_fit_reference(docs, n_topics, alpha=None, beta=0.01, iters=100, seed=0, counts=False):
    """Collapsed Gibbs LDA with one numpy draw and cumsum per token.

    Returns (phi, log_likelihood), with `counts` also the final count tables
    (n_kw, n_k, n_dk, doc_lens). On a one-document corpus lda_fit must
    reproduce this generator stream and every rounding step exactly.
    """
    nonempty = [doc for doc in docs if doc]
    if alpha is None:
        alpha = 50.0 / n_topics
    index = {term: i for i, term in enumerate(sorted({t for doc in nonempty for t in doc}))}
    word_ids = [np.array([index[t] for t in doc], dtype=np.int64) for doc in nonempty]
    vocab_size = len(index)
    n_docs = len(word_ids)

    rng = np.random.default_rng(seed)
    n_dk = np.zeros((n_docs, n_topics), dtype=np.int64)
    n_kw = np.zeros((n_topics, vocab_size), dtype=np.int64)
    n_k = np.zeros(n_topics, dtype=np.int64)
    assignments = []
    for d, words in enumerate(word_ids):
        z = rng.integers(0, n_topics, size=len(words))
        assignments.append(z)
        for w, k in zip(words, z):
            n_dk[d, k] += 1
            n_kw[k, w] += 1
            n_k[k] += 1

    beta_sum = vocab_size * beta
    for _ in range(iters):
        for d, words in enumerate(word_ids):
            z = assignments[d]
            row = n_dk[d]
            for j in range(len(words)):
                w = words[j]
                k = z[j]
                row[k] -= 1
                n_kw[k, w] -= 1
                n_k[k] -= 1
                p = (row + alpha) * (n_kw[:, w] + beta) / (n_k + beta_sum)
                cum = np.cumsum(p)
                k_new = int(np.searchsorted(cum, rng.random() * cum[-1]))
                z[j] = k_new
                row[k_new] += 1
                n_kw[k_new, w] += 1
                n_k[k_new] += 1

    phi, ll = _lda_phi_and_ll(n_dk, n_kw, n_k, word_ids, alpha, beta)
    return (phi, ll, _count_tables(n_kw, n_k, n_dk)) if counts else (phi, ll)


def lda_fit_steps_reference(
    docs, n_topics, alpha=None, beta=0.01, iters=100, seed=0, counts=False
):
    """Document-parallel collapsed Gibbs LDA, one document and one token at a time.

    Every document steps its token j together with the others: each draws
    against the counts as of the step's start minus its own old assignment,
    with its own uniform (one rng.random(n_tokens) per sweep, in document
    order); then every token moves to its drawn topic. Same generator stream
    as lda_fit_reference. Returns (phi, log_likelihood, n_dk), n_dk holding
    the final topic counts of the nonempty documents in their given order;
    with `counts` also the final count tables (n_kw, n_k, n_dk, doc_lens).
    """
    nonempty = [doc for doc in docs if doc]
    if alpha is None:
        alpha = 50.0 / n_topics
    index = {term: i for i, term in enumerate(sorted({t for doc in nonempty for t in doc}))}
    word_ids = [np.array([index[t] for t in doc], dtype=np.int64) for doc in nonempty]
    vocab_size = len(index)
    n_docs = len(word_ids)

    rng = np.random.default_rng(seed)
    n_dk = np.zeros((n_docs, n_topics), dtype=np.int64)
    n_kw = np.zeros((n_topics, vocab_size), dtype=np.int64)
    n_k = np.zeros(n_topics, dtype=np.int64)
    assignments = [rng.integers(0, n_topics, size=len(words)) for words in word_ids]
    for d, words in enumerate(word_ids):
        for w, k in zip(words, assignments[d]):
            n_dk[d, k] += 1
            n_kw[k, w] += 1
            n_k[k] += 1

    beta_sum = vocab_size * beta
    first = np.cumsum([0] + [len(words) for words in word_ids])  # first[d]: d's first uniform
    for _ in range(iters):
        uniforms = rng.random(first[-1])
        for j in range(max(len(words) for words in word_ids)):
            active = [d for d in range(n_docs) if j < len(word_ids[d])]
            drawn = []
            for d in active:
                w, k = word_ids[d][j], assignments[d][j]
                row, word, topic = n_dk[d].copy(), n_kw[:, w].copy(), n_k.copy()
                row[k] -= 1
                word[k] -= 1
                topic[k] -= 1
                p = (row + alpha) * (word + beta) / (topic + beta_sum)
                cum = np.cumsum(p)
                drawn.append(int(np.searchsorted(cum, uniforms[first[d] + j] * cum[-1])))
            for d, k_new in zip(active, drawn):
                w, k = word_ids[d][j], assignments[d][j]
                n_dk[d, k] -= 1
                n_kw[k, w] -= 1
                n_k[k] -= 1
                assignments[d][j] = k_new
                n_dk[d, k_new] += 1
                n_kw[k_new, w] += 1
                n_k[k_new] += 1

    phi, ll = _lda_phi_and_ll(n_dk, n_kw, n_k, word_ids, alpha, beta)
    return (phi, ll, n_dk, _count_tables(n_kw, n_k, n_dk)) if counts else (phi, ll, n_dk)


def _count_tables(n_kw, n_k, n_dk):
    """The chain's final counts as vectorize._gibbs_counts_ll takes them."""
    return n_kw, n_k, n_dk, n_dk.sum(axis=1)


def _lda_phi_and_ll(n_dk, n_kw, n_k, word_ids, alpha, beta):
    beta_sum = n_kw.shape[1] * beta
    phi = (n_kw + beta) / (n_k + beta_sum)[:, None]
    doc_lens = np.array([len(w) for w in word_ids], dtype=np.int64)
    return phi, gammaln_ll_reference(n_kw, n_k, n_dk, doc_lens, alpha, beta)


def gammaln_ll_reference(n_kw, n_k, n_dk, doc_lens, alpha, beta):
    """Collapsed-Gibbs log p(words, assignments) as the sum of its ln Gamma terms
    (Griffiths & Steyvers, PNAS 2004)."""
    n_topics, vocab_size = n_kw.shape
    n_docs = len(doc_lens)
    ll = n_topics * (gammaln(vocab_size * beta) - vocab_size * gammaln(beta))
    ll += gammaln(n_kw + beta).sum() - gammaln(n_k + vocab_size * beta).sum()
    ll += n_docs * (gammaln(n_topics * alpha) - n_topics * gammaln(alpha))
    ll += gammaln(n_dk + alpha).sum() - gammaln(doc_lens + n_topics * alpha).sum()
    return float(ll)


def gammaln_ll_rounding(n_kw, n_k, n_dk, doc_lens, alpha, beta, ulps=4):
    """A bound on gammaln_ll_reference's own rounding error: `ulps` units in
    the last place of the sum of its terms' magnitudes. The terms nearly
    cancel where the counts are small against the priors, so its result can
    sit this far from a formula that never forms them (all-zero counts give
    exactly 0 there, but about 1e-12 here)."""
    n_topics, vocab_size = n_kw.shape
    n_docs = len(doc_lens)
    magnitude = n_topics * (abs(gammaln(vocab_size * beta)) + vocab_size * abs(gammaln(beta)))
    magnitude += abs(gammaln(n_kw + beta)).sum() + abs(gammaln(n_k + vocab_size * beta)).sum()
    magnitude += n_docs * (abs(gammaln(n_topics * alpha)) + n_topics * abs(gammaln(alpha)))
    magnitude += abs(gammaln(n_dk + alpha)).sum() + abs(gammaln(doc_lens + n_topics * alpha)).sum()
    return ulps * np.finfo(np.float64).eps * float(magnitude)


def lda_infer_reference(phi, vocab_index, alpha, doc, iters=50, seed=0):
    """Fold one document in against frozen phi with its own seeded generator."""
    n_topics = phi.shape[0]
    words = np.array([vocab_index[t] for t in doc if t in vocab_index], dtype=np.int64)
    if len(words) == 0:
        return np.full(n_topics, 1.0 / n_topics)

    rng = np.random.default_rng(seed)
    z = rng.integers(0, n_topics, size=len(words))
    counts = np.bincount(z, minlength=n_topics).astype(np.int64)
    for _ in range(iters):
        for j in range(len(words)):
            w = words[j]
            counts[z[j]] -= 1
            p = (counts + alpha) * phi[:, w]
            cum = np.cumsum(p)
            k_new = int(np.searchsorted(cum, rng.random() * cum[-1]))
            z[j] = k_new
            counts[k_new] += 1
    return (counts + alpha) / (len(words) + n_topics * alpha)


@dataclass(frozen=True)
class TrainingPair:
    x_tweet: np.ndarray = field(repr=False)
    x_article: np.ndarray = field(repr=False)  # (in_dim,) or (n_pieces, in_dim)
    y: int

    def __post_init__(self):
        if self.y not in (1, -1):
            raise ValueError("pair label must be +1 or -1")


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


def build_training_pairs_reference(
    positives,
    tweet_features,
    article_features,
    cfg,
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

    # One array per tweet and per article piece, shared by every pair that uses it.
    tweet_rows: dict[str, np.ndarray] = {}
    stacked: dict[str, tuple[np.ndarray, list[np.ndarray]]] = {}

    def tweet_vec(tweet_id: str) -> np.ndarray:
        if tweet_id not in tweet_rows:
            try:
                tweet_rows[tweet_id] = np.asarray(tweet_features[tweet_id], dtype=np.float64)
            except KeyError:
                raise MissingEmbeddingError(tweet_id) from None
        return tweet_rows[tweet_id]

    def article_pieces(article_id: str) -> tuple[np.ndarray, list[np.ndarray]]:
        """The article's stacked pieces and one view per piece row."""
        if article_id not in stacked:
            pieces = _article_pieces(article_features, article_id)
            stacked[article_id] = pieces, list(pieces)
        return stacked[article_id]

    pairs: list[TrainingPair] = []
    expanded: list[tuple[str, str]] = []
    for tweet_id, article_id in positives:
        x_t = tweet_vec(tweet_id)
        pieces, rows = article_pieces(article_id)
        if strategy == "augment":
            for piece in rows:
                pairs.append(TrainingPair(x_t, piece, 1))
                expanded.append((tweet_id, article_id))
        elif strategy == "mean_chunks":
            pairs.append(TrainingPair(x_t, pieces, 1))
            expanded.append((tweet_id, article_id))
        else:
            if len(rows) != 1:
                raise DimMismatchError(
                    f"article {article_id!r} has {len(rows)} pieces under 'truncate'"
                )
            pairs.append(TrainingPair(x_t, rows[0], 1))
            expanded.append((tweet_id, article_id))

    article_ids = list(article_features.keys())
    for tweet_id, article_id in sample_negatives(expanded, article_ids, cfg.neg_ratio, cfg.seed):
        pieces, rows = article_pieces(article_id)
        x_a = pieces if strategy == "mean_chunks" else rows[0]
        pairs.append(TrainingPair(tweet_vec(tweet_id), x_a, -1))
    return pairs


def _pack_dense(pairs):
    """Stack pairs into padded arrays: (X_t, X_a, piece mask, labels)."""
    in_t = {p.x_tweet.shape[-1] for p in pairs}
    in_a = {np.atleast_2d(p.x_article).shape[-1] for p in pairs}
    assert len(in_t) == 1 and len(in_a) == 1
    dim_t = in_t.pop()
    dim_a = in_a.pop()
    n = len(pairs)
    max_pieces = max(np.atleast_2d(p.x_article).shape[0] for p in pairs)

    x_t = np.zeros((n, dim_t))
    x_a = np.zeros((n, max_pieces, dim_a))
    mask = np.zeros((n, max_pieces))
    y = np.zeros(n)
    for i, p in enumerate(pairs):
        x_t[i] = p.x_tweet
        pieces = np.atleast_2d(p.x_article)
        x_a[i, : pieces.shape[0]] = pieces
        mask[i, : pieces.shape[0]] = 1.0
        y[i] = p.y
    return x_t, x_a, mask, y


def _init_reference(rng, in_dim, out_dim):
    """Seeded uniform(-s, s) weight (out_dim, in_dim) and bias, s = 1/sqrt(in_dim)."""
    scale = 1.0 / math.sqrt(in_dim)
    weight = rng.uniform(-scale, scale, size=(out_dim, in_dim))
    return weight, rng.uniform(-scale, scale, size=out_dim)


def _forward_dense(w_t, b_t, w_a, b_a, tanh, x_t, x_a, mask):
    """Batched forward pass; returns embeddings plus intermediates for backprop."""
    e_t = x_t @ w_t.T + b_t
    if tanh:
        e_t = np.tanh(e_t)
    h = x_a @ w_a.T + b_a  # (n, pieces, d)
    if tanh:
        h = np.tanh(h)
    counts = mask.sum(axis=1)
    e_a = (h * mask[:, :, None]).sum(axis=1) / counts[:, None]
    return e_t, e_a, h, counts


def train_reference(positives, tweet_features, article_features, cfg, strategy="truncate"):
    """Dual-encoder training on padded dense arrays over the whole vocabulary.

    The same pairs, initialization, generator stream and update rule as
    contrast.train, and the loss kernel batch_loss_and_grads_reference, with
    every step's forward pass, einsum backward pass and update run over all
    feature columns. Returns
    (w_t, b_t, w_a, b_a, trace) with weights shaped (joint_dim, in_dim).
    """
    pairs = build_training_pairs_reference(
        positives, tweet_features, article_features, cfg, strategy
    )
    x_t, x_a, mask, y = _pack_dense(pairs)
    n_examples, dim_t = x_t.shape
    dim_a = x_a.shape[2]

    rng = np.random.default_rng(cfg.seed)
    w_t, b_t = _init_reference(rng, dim_t, cfg.joint_dim)
    w_a, b_a = _init_reference(rng, dim_a, cfg.joint_dim)
    tanh = cfg.nonlinearity == "tanh"

    vel = [np.zeros_like(w_t), np.zeros_like(b_t), np.zeros_like(w_a), np.zeros_like(b_a)]
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n_examples)
        loss_sum = 0.0
        for start in range(0, n_examples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            bx_t, bx_a, bmask, by = x_t[idx], x_a[idx], mask[idx], y[idx]
            e_t, e_a, h, counts = _forward_dense(w_t, b_t, w_a, b_a, tanh, bx_t, bx_a, bmask)
            losses, d_et, d_ea = batch_loss_and_grads_reference(e_t, e_a, by, cfg.margin)
            loss_sum += float(losses.sum())

            d_pre_t = d_et * (1.0 - e_t**2) if tanh else d_et
            d_h = (d_ea / counts[:, None])[:, None, :] * bmask[:, :, None]
            d_pre_a = d_h * (1.0 - h**2) if tanh else d_h

            b = len(idx)
            grads = [
                d_pre_t.T @ bx_t / b,
                d_pre_t.sum(axis=0) / b,
                np.einsum("npd,npi->di", d_pre_a, bx_a) / b,
                d_pre_a.sum(axis=(0, 1)) / b,
            ]
            params = [w_t, b_t, w_a, b_a]
            for k, (param, grad) in enumerate(zip(params, grads)):
                if cfg.momentum > 0:
                    vel[k] = cfg.momentum * vel[k] - cfg.lr * grad
                    param += vel[k]
                else:
                    param -= cfg.lr * grad
        trace.append(loss_sum / n_examples)
    return w_t, b_t, w_a, b_a, trace


def iter_jsonl_reference(path):
    """(line number, object) per non-blank line, each parsed with json.loads;
    any ValueError it raises (bad JSON, a number of over 4,300 digits), or
    RecursionError (a value nested past the recursion limit), is a malformed
    line."""
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise MalformedLineError(str(path), line_no, str(exc)) from exc
            if not isinstance(obj, dict):
                raise MalformedLineError(str(path), line_no, "expected a JSON object")
            yield line_no, obj


_ABSENT = object()


def _require(path, obj, field, line_no, default=_ABSENT):
    """A field's value; `default` if it is absent, unless it is required."""
    if field in obj:
        return obj[field]
    if default is _ABSENT:
        raise MissingFieldError(str(path), line_no, field)
    return default


_JSON_KIND_WORDS = [
    (bool, "a boolean"), (int, "an integer"), (str, "a string"), (list, "an array"),
    (dict, "an object"), (float, "a number with a fraction or exponent"),
]


def _kind_word(value):
    return next((word for t, word in _JSON_KIND_WORDS if isinstance(value, t)), "null")


def _ill_typed(path, line_no, name, want, got):
    return MalformedLineError(str(path), line_no, f"{name} must be {want}, got {got}")


def _is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def id_reference(path, obj, name, line_no, optional=False):
    """An id field: a JSON string as is, an integer as its decimal string;
    any other value is a malformed line. An optional id (parent_id) is None
    when absent or null."""
    value = _require(path, obj, name, line_no, None if optional else _ABSENT)
    if optional and value is None:
        return None
    if isinstance(value, str) or _is_int(value):
        return str(value)
    want = "a string, an integer or null" if optional else "a string or an integer"
    raise _ill_typed(path, line_no, name, want, _kind_word(value))


def typed_reference(path, obj, name, line_no, ok, want, default=_ABSENT):
    """A field whose value passes `ok`, worded `want`."""
    value = _require(path, obj, name, line_no, default)
    if not ok(value):
        raise _ill_typed(path, line_no, name, want, _kind_word(value))
    return value


def choice_reference(path, obj, name, line_no, choices, default=_ABSENT):
    """A field whose value is one of the strings `choices`."""
    value = _require(path, obj, name, line_no, default)
    if isinstance(value, str) and value in choices:
        return value
    want = "one of " + ", ".join(repr(c) for c in choices)
    got = repr(value) if isinstance(value, str) else _kind_word(value)
    raise _ill_typed(path, line_no, name, want, got)


def load_documents_reference(path):
    """One Document per line, its fields read in the order id, kind, text,
    created_at, summary, parent_id, parent_kind; then a repeated id, then the
    dataclass's own rules (only tweets have parents, with a parent_kind)."""
    docs, seen = [], set()
    for line_no, obj in iter_jsonl_reference(path):
        doc_id = id_reference(path, obj, "id", line_no)
        fields = dict(
            kind=choice_reference(path, obj, "kind", line_no, ("tweet", "article")),
            text=typed_reference(path, obj, "text", line_no, lambda v: isinstance(v, str),
                                 "a string"),
            created_at=typed_reference(path, obj, "created_at", line_no, _is_int, "an integer"),
            summary=typed_reference(path, obj, "summary", line_no,
                                    lambda v: v is None or isinstance(v, str),
                                    "a string or null", None),
            parent_id=id_reference(path, obj, "parent_id", line_no, optional=True),
            parent_kind=choice_reference(path, obj, "parent_kind", line_no,
                                         ("none", "reply", "quote"), "none"),
        )
        if doc_id in seen:
            raise DuplicateIdError(str(path), line_no, doc_id)
        seen.add(doc_id)
        try:
            docs.append(Document(id=doc_id, **fields))
        except ValueError as exc:
            raise MalformedLineError(str(path), line_no, str(exc)) from exc
    return docs


def load_pairs_reference(path):
    """One LinkedPair per line, its fields read in the order tweet_id,
    article_id, label."""
    return [
        LinkedPair(
            id_reference(path, obj, "tweet_id", line_no),
            id_reference(path, obj, "article_id", line_no),
            choice_reference(path, obj, "label", line_no, ("match", "no_match", "unknown")),
        )
        for line_no, obj in iter_jsonl_reference(path)
    ]


def load_annotations_reference(path):
    """One AnnotationRecord per line, its fields read in the order tweet_id,
    article_id, annotator_id, verdict; then a repeated (tweet, article,
    annotator)."""
    records, seen = [], set()
    for line_no, obj in iter_jsonl_reference(path):
        rec = AnnotationRecord(
            id_reference(path, obj, "tweet_id", line_no),
            id_reference(path, obj, "article_id", line_no),
            id_reference(path, obj, "annotator_id", line_no),
            choice_reference(path, obj, "verdict", line_no, ("match", "no_match", "skip")),
        )
        key = (rec.tweet_id, rec.article_id, rec.annotator_id)
        if key in seen:
            raise DuplicateIdError(str(path), line_no, "/".join(key))
        seen.add(key)
        records.append(rec)
    return records


def vector_reference(path, obj, line_no):
    """An embeddings line's vector as a list of floats: a nonempty array of
    numbers (not booleans), each finite as a float, checked one value at a
    time, types first."""
    value = _require(path, obj, "vector", line_no)
    want = "a nonempty array of finite numbers"
    if not isinstance(value, list):
        raise _ill_typed(path, line_no, "vector", want, _kind_word(value))
    if not value:
        raise _ill_typed(path, line_no, "vector", want, "an empty array")
    for x in value:
        if not (_is_int(x) or isinstance(x, float)):
            raise _ill_typed(path, line_no, "vector", want, f"an array holding {_kind_word(x)}")
    floats = []
    for x in value:
        try:
            x = float(x)
        except OverflowError:
            x = math.inf
        if not math.isfinite(x):
            got = "an array holding a number that is not finite as a float64"
            raise _ill_typed(path, line_no, "vector", want, got)
        floats.append(x)
    return floats


def load_embeddings_reference(path):
    """(id, vector as floats) per line in order; a repeated id, then a
    vector of another length than the first line's, is an error."""
    rows = {}
    for line_no, obj in iter_jsonl_reference(path):
        doc_id = id_reference(path, obj, "id", line_no)
        vec = vector_reference(path, obj, line_no)
        if doc_id in rows:
            raise DuplicateIdError(str(path), line_no, doc_id)
        dim = len(next(iter(rows.values()), vec))
        if len(vec) != dim:
            reason = f"id {doc_id!r} has dim {len(vec)}, expected {dim}"
            raise MalformedLineError(str(path), line_no, reason)
        rows[doc_id] = vec
    return list(rows.items())


# One pairs.jsonl line exactly as write_pairs writes it: the definition of
# write_pairs' form. An id holding no double quote, backslash or control
# character is a JSON string as it stands, so json.loads decodes it to itself.
WRITE_PAIRS_LINE = re.compile(
    r'\{"tweet_id": "([^"\\\x00-\x1f]*)", "article_id": "([^"\\\x00-\x1f]*)", '
    r'"label": "(match|no_match|unknown)"\}'
)
_LABEL_VALUES = {"match": 1, "no_match": -1, "unknown": 0}


def code_pair_block_reference(block):
    """A block of newline-ended lines that each fullmatch WRITE_PAIRS_LINE,
    coded with dicts: the distinct tweet ids and article ids in order of
    first appearance, each row's tweet and article codes, and its label
    value (1 match, -1 no_match, 0 unknown). None for any other block."""
    if not block.endswith("\n"):
        return None
    matches = [WRITE_PAIRS_LINE.fullmatch(line) for line in block[:-1].split("\n")]
    if not all(matches):
        return None
    tweets, articles = {}, {}
    tweet_codes = [tweets.setdefault(m[1], len(tweets)) for m in matches]
    article_codes = [articles.setdefault(m[2], len(articles)) for m in matches]
    values = [_LABEL_VALUES[m[3]] for m in matches]
    return list(tweets), list(articles), tweet_codes, article_codes, values


def select_reference(pairs, tweet_ids=None, article_ids=None, labels=None):
    """The pairs PairTable.select keeps, tested one pair at a time on its strings."""
    return [
        p for p in pairs
        if (tweet_ids is None or p.tweet_id in tweet_ids)
        and (article_ids is None or p.article_id in article_ids)
        and (labels is None or p.label in labels)
    ]


def build_ground_truth_reference(pairs, tweet_ids, article_ids):
    """Label matrix filled one pair at a time, raising at the first bad pair."""
    t_index = {tid: i for i, tid in enumerate(tweet_ids)}
    a_index = {aid: j for j, aid in enumerate(article_ids)}
    values = np.zeros((len(tweet_ids), len(article_ids)), dtype=np.int8)
    assigned = {}
    for pair in pairs:
        if pair.tweet_id not in t_index:
            raise UnknownIdError(pair.tweet_id)
        if pair.article_id not in a_index:
            raise UnknownIdError(pair.article_id)
        cell = (t_index[pair.tweet_id], a_index[pair.article_id])
        if cell in assigned and assigned[cell] != pair.label:
            raise ConflictingLabelError(pair.tweet_id, pair.article_id)
        assigned[cell] = pair.label
        values[cell] = {"match": 1, "no_match": -1, "unknown": 0}[pair.label]
    return GroundTruthMatrix(tuple(tweet_ids), tuple(article_ids), values)


def _csr_rows(rows):
    """CSR arrays (indptr, indices, data) holding the nonzeros of 1-D rows."""
    cols = [np.flatnonzero(r) for r in rows]
    indptr = np.zeros(len(cols) + 1, dtype=np.int64)
    np.cumsum([len(c) for c in cols], out=indptr[1:])
    indices = np.concatenate(cols)
    data = np.concatenate([r[c] for r, c in zip(rows, cols)])
    return indptr, indices, data


def _ranges(starts, lens):
    """Concatenation of arange(s, s + n) over (starts, lens)."""
    ends = np.cumsum(lens)
    return np.arange(ends[-1]) + np.repeat(starts - ends + lens, lens)


def _gather_rows(csr, rows):
    """(u, block): the CSR rows as a dense block over their sorted distinct columns u."""
    indptr, indices, data = csr
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    pos = _ranges(starts, lens)
    u, local = np.unique(indices[pos], return_inverse=True)
    block = np.zeros((len(rows), len(u)))
    block[np.repeat(np.arange(len(rows)), lens), local] = data[pos]
    return u, block


def batch_loss_and_grads_reference(e_t, e_a, y, margin):
    """The batch loss kernel with its norms taken by np.linalg.norm."""
    n1 = np.linalg.norm(e_t, axis=1)
    n2 = np.linalg.norm(e_a, axis=1)
    ok = (n1 > 0) & (n2 > 0)
    safe1 = np.where(ok, n1, 1.0)
    safe2 = np.where(ok, n2, 1.0)
    cos = np.where(ok, (e_t * e_a).sum(axis=1) / (safe1 * safe2), 0.0)
    cos = np.clip(cos, -1.0, 1.0)

    losses = np.where(y > 0, 1.0 - cos, np.maximum(0.0, cos - margin))
    sign = np.where(y > 0, -1.0, np.where(cos > margin, 1.0, 0.0)) * ok
    dc_det = e_a / (safe1 * safe2)[:, None] - (cos / safe1**2)[:, None] * e_t
    dc_dea = e_t / (safe1 * safe2)[:, None] - (cos / safe2**2)[:, None] * e_a
    return losses, sign[:, None] * dc_det, sign[:, None] * dc_dea


def mean_rows_reference(rows):
    """The mean of an article's piece rows: their sum in piece order, divided by
    their count."""
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    return total / len(rows)


def train_stepwise_reference(positives, tweet_features, article_features, cfg, strategy="truncate"):
    """Sparse-row dual-encoder training that gathers each batch on its own.

    Every pair's rows are packed separately, and every step finds its
    batch's distinct columns with its own np.unique. Under an affine
    encoder, a pair with several pieces trains on their mean row
    (mean_rows_reference) instead; tanh pairs keep their pieces.
    contrast.train must reproduce its weights, biases and trace bit for
    bit. Returns (w_t, b_t, w_a, b_a, trace) with weights shaped
    (joint_dim, in_dim).
    """
    pairs = build_training_pairs_reference(
        positives, tweet_features, article_features, cfg, strategy
    )
    pieces = [np.atleast_2d(p.x_article) for p in pairs]
    if cfg.nonlinearity == "none" and any(len(rows) > 1 for rows in pieces):
        pieces = [mean_rows_reference(rows)[None] for rows in pieces]
    x_t = _csr_rows([p.x_tweet for p in pairs])
    x_a = _csr_rows([row for piece_rows in pieces for row in piece_rows])
    counts = np.array([len(piece_rows) for piece_rows in pieces], dtype=np.int64)
    y = np.array([float(p.y) for p in pairs])
    n_examples = len(pairs)
    first_piece = np.cumsum(counts) - counts

    rng = np.random.default_rng(cfg.seed)
    w_t, b_t = _init_reference(rng, pairs[0].x_tweet.shape[-1], cfg.joint_dim)
    w_a, b_a = _init_reference(rng, pieces[0].shape[-1], cfg.joint_dim)
    wt_t, wt_a = w_t.T.copy(), w_a.T.copy()
    tanh = cfg.nonlinearity == "tanh"

    vel = [np.zeros_like(wt_t), np.zeros_like(b_t), np.zeros_like(wt_a), np.zeros_like(b_a)]
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n_examples)
        loss_sum = 0.0
        for start in range(0, n_examples, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            b = len(idx)
            u_t, bx_t = _gather_rows(x_t, idx)
            bcounts = counts[idx]
            u_a, bx_a = _gather_rows(x_a, _ranges(first_piece[idx], bcounts))
            pool = np.zeros((b, bx_a.shape[0]))
            pool[np.repeat(np.arange(b), bcounts), np.arange(bx_a.shape[0])] = 1.0

            e_t = bx_t @ wt_t[u_t] + b_t
            h = bx_a @ wt_a[u_a] + b_a
            if tanh:
                e_t = np.tanh(e_t)
                h = np.tanh(h)
            e_a = (pool @ h) / bcounts[:, None]
            losses, d_et, d_ea = batch_loss_and_grads_reference(e_t, e_a, y[idx], cfg.margin)
            loss_sum += float(losses.sum())

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
    return wt_t.T, b_t, wt_a.T, b_a, trace


def save_encoder_v1_reference(model, path, train_config=None):
    """The version-1 encoder writer: every array as nested JSON float lists.

    Kept so tests can write the files that earlier releases wrote and check
    that contrast.load_encoder rejects them.
    """
    def amap(m):
        return {"weight": m.weight.tolist(), "bias": m.bias.tolist()}

    payload = {
        "format": "dual_encoder",
        "version": 1,
        "nonlinearity": model.nonlinearity,
        "joint_dim": model.joint_dim,
        "tweet_map": amap(model.tweet_map),
        "article_map": amap(model.article_map),
    }
    if train_config is not None:
        payload["train_config"] = {
            k: getattr(train_config, k) for k in train_config.__dataclass_fields__
        }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True) + "\n")


def _is_emoji(ch):
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _EMOJI_RANGES)


def _handle_emoji_per_char(text, mode):
    out = []
    for ch in text:
        if ord(ch) in _EMOJI_MODIFIERS:
            continue
        if _is_emoji(ch):
            if mode == "alias":
                out.append(_emoji_alias(ch))
        else:
            out.append(ch)
    return "".join(out)


def _filter_chars_per_char(segment, keep_hash):
    out = []
    token_start = True
    for ch in segment:
        if ch.isalpha():
            out.append(ch)
            token_start = False
        elif ch.isspace():
            out.append(ch)
            token_start = True
        elif keep_hash and ch == "#" and token_start:
            out.append(ch)
            token_start = False
    return "".join(out)


# A URL or mention starts at the text's start or after whitespace.
_URL_START_RE = re.compile(r"(?:^|(?<=\s))(?:https?://|www\.)\S*")
_MENTION_START_RE = re.compile(r"(?:^|(?<=\s))@\S+")


def clean_reference(text, cfg):
    """textprep.clean with per-character emoji handling and filtering."""
    t = text.lower()
    t = _URL_START_RE.sub(" ", t)
    t = _MENTION_START_RE.sub(" ", t)
    if cfg.strip_hashes:
        t = t.replace("#", "")
    t = _handle_emoji_per_char(t, cfg.emoji_mode)
    keep_hash = not cfg.strip_hashes
    parts = []
    pos = 0
    for m in _ALIAS_RE.finditer(t):
        parts.append(_filter_chars_per_char(t[pos : m.start()], keep_hash))
        parts.append(m.group())
        pos = m.end()
    parts.append(_filter_chars_per_char(t[pos:], keep_hash))
    words = [w for w in "".join(parts).split() if len(w) >= cfg.min_word_len]
    return " ".join(words)
