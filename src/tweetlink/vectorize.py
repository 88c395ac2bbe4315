"""Document vectorizers: TF-IDF, LDA topic proportions, and file-based embeddings.

TF-IDF uses the smoothed convention idf(t) = ln((1+N)/(1+df(t))) + 1 with raw
term counts and L2 normalization; the exact variant is pinned here so tests
can check against an independent hand computation. A batch of documents is
transformed into one sparse row matrix (CSR arrays), since a document holds
a handful of the vocabulary's terms.

LDA is fitted with collapsed Gibbs sampling, which keeps runs deterministic
per seed and needs nothing beyond integer count tables. Inference folds new
documents in against frozen topic-word distributions, batched across
documents: each row equals the per-document fold-in bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .corpus import _iter_jsonl
from .errors import (
    ConfigInvalidError,
    DegenerateKError,
    DimMismatchError,
    DuplicateIdError,
    EmptyCorpusError,
    MalformedLineError,
    MissingEmbeddingError,
)
from .matrices import CsrRows
from .textprep import TokenSeq


@dataclass(frozen=True)
class Vocabulary:
    """Dense bijection term <-> [0, size)."""

    index: dict[str, int]

    @classmethod
    def from_terms(cls, terms) -> "Vocabulary":
        ordered = sorted(set(terms))
        return cls({term: i for i, term in enumerate(ordered)})

    @property
    def size(self) -> int:
        return len(self.index)

    def terms(self) -> list[str]:
        out = [""] * self.size
        for term, i in self.index.items():
            out[i] = term
        return out


@dataclass(frozen=True, eq=False)
class TfidfModel:
    vocab: Vocabulary
    idf: np.ndarray = field(repr=False)
    n_docs: int


@dataclass(frozen=True, eq=False)
class LdaModel:
    n_topics: int
    alpha: float
    beta: float
    phi: np.ndarray = field(repr=False)  # (n_topics, vocab) rows sum to 1
    vocab: Vocabulary
    seed: int
    # Joint log p(words, assignments) from the final Gibbs counts; a training
    # diagnostic that grows as sampling settles.
    log_likelihood: float = float("nan")


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    vectors: dict[str, np.ndarray]
    dim: int

    def lookup(self, doc_id: str) -> np.ndarray:
        try:
            return self.vectors[doc_id]
        except KeyError:
            raise MissingEmbeddingError(doc_id) from None


# --- TF-IDF ---------------------------------------------------------------


def tfidf_fit(docs: list[TokenSeq]) -> TfidfModel:
    """Fit vocabulary and smoothed inverse document frequencies."""
    nonempty = [doc for doc in docs if doc]
    if not nonempty:
        raise EmptyCorpusError("tfidf_fit needs at least one nonempty document")
    vocab = Vocabulary.from_terms(tok for doc in nonempty for tok in doc)
    n_docs = len(nonempty)
    df = np.zeros(vocab.size, dtype=np.int64)
    for doc in nonempty:
        for term in set(doc):
            df[vocab.index[term]] += 1
    idf = np.log((1.0 + n_docs) / (1.0 + df)) + 1.0
    return TfidfModel(vocab=vocab, idf=idf, n_docs=n_docs)


def tfidf_transform(model: TfidfModel, doc: TokenSeq) -> np.ndarray:
    """One document's dense weight vector; see tfidf_transform_batch."""
    return tfidf_transform_batch(model, [doc]).toarray()[0]


def tfidf_transform_batch(model: TfidfModel, docs: list[TokenSeq]) -> CsrRows:
    """Rows count(t) * idf(t), L2-normalized, as a (len(docs), vocab) CSR matrix.

    Each row's columns are sorted. Out-of-vocabulary tokens are ignored, so
    empty and all-OOV documents map to zero rows.
    """
    index = model.vocab.index
    ids = [[index[t] for t in doc if t in index] for doc in docs]
    doc_of = np.repeat(np.arange(len(docs), dtype=np.int64), [len(i) for i in ids])
    terms = np.fromiter(chain.from_iterable(ids), dtype=np.int64, count=len(doc_of))
    # One key per (document, term): np.unique sorts them row-major and counts repeats.
    keys, counts = np.unique(doc_of * model.vocab.size + terms, return_counts=True)
    rows, indices = np.divmod(keys, model.vocab.size)
    data = counts * model.idf[indices]
    norms = np.sqrt(np.bincount(rows, weights=data * data, minlength=len(docs)))
    data /= norms[rows]
    indptr = np.searchsorted(rows, np.arange(len(docs) + 1))
    return CsrRows(indptr, indices, data, model.vocab.size)


# --- LDA ------------------------------------------------------------------


def _doc_word_ids(docs: list[TokenSeq], vocab: Vocabulary) -> list[np.ndarray]:
    return [
        np.array([vocab.index[t] for t in doc if t in vocab.index], dtype=np.int64)
        for doc in docs
    ]


def _gibbs_counts_ll(n_kw, n_k, n_dk, doc_lens, alpha, beta):
    # Imported here: scipy costs more to import than anything else the CLI loads.
    from scipy.special import gammaln

    n_topics, vocab_size = n_kw.shape
    n_docs = len(doc_lens)
    ll = n_topics * (gammaln(vocab_size * beta) - vocab_size * gammaln(beta))
    ll += gammaln(n_kw + beta).sum() - gammaln(n_k + vocab_size * beta).sum()
    ll += n_docs * (gammaln(n_topics * alpha) - n_topics * gammaln(alpha))
    ll += gammaln(n_dk + alpha).sum() - gammaln(doc_lens + n_topics * alpha).sum()
    return float(ll)


def _check_prior(name: str, prior: float) -> None:
    if not (math.isfinite(prior) and prior > 0):
        raise ConfigInvalidError(f"lda {name} must be finite and > 0, got {prior!r}")


def lda_fit(
    docs: list[TokenSeq],
    n_topics: int,
    alpha: float | None = None,
    beta: float = 0.01,
    iters: int = 100,
    seed: int = 0,
) -> LdaModel:
    """Collapsed Gibbs sampling over token-topic assignments.

    Defaults follow the common heuristic alpha = 50 / n_topics, beta = 0.01.
    phi is read off the final count tables with beta smoothing, so every
    entry is strictly positive and each row sums to one.
    """
    if n_topics < 1:
        raise DegenerateKError("n_topics must be >= 1")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if alpha is not None:
        _check_prior("alpha", alpha)
    _check_prior("beta", beta)
    nonempty = [doc for doc in docs if doc]
    if not nonempty:
        raise EmptyCorpusError("lda_fit needs at least one nonempty document")
    if alpha is None:
        alpha = 50.0 / n_topics

    vocab = Vocabulary.from_terms(tok for doc in nonempty for tok in doc)
    word_ids = [[vocab.index[t] for t in doc] for doc in nonempty]
    vocab_size = vocab.size
    n_docs = len(word_ids)
    n_tokens = sum(len(words) for words in word_ids)

    # Integer counts live in Python lists (cheap scalar updates); the float
    # factors (count + prior) of the sampling weight are cached per topic and
    # rewritten from the integer count after every change, never nudged by
    # +-1, so each one rounds exactly as (count + prior) does.
    rng = np.random.default_rng(seed)
    n_dk = [[0] * n_topics for _ in range(n_docs)]
    n_wk = [[0] * n_topics for _ in range(vocab_size)]  # word-major
    n_k = [0] * n_topics
    assignments = []
    for d, words in enumerate(word_ids):
        z = rng.integers(0, n_topics, size=len(words)).tolist()
        assignments.append(z)
        for w, k in zip(words, z):
            n_dk[d][k] += 1
            n_wk[w][k] += 1
            n_k[k] += 1

    beta_sum = vocab_size * beta
    doc_f = np.array(n_dk, dtype=np.float64) + alpha
    word_f = np.array(n_wk, dtype=np.float64) + beta
    topic_f = np.array(n_k, dtype=np.float64) + beta_sum
    p, cum = np.empty(n_topics), np.empty(n_topics)
    multiply, divide, accumulate = np.multiply, np.divide, np.add.accumulate
    for _ in range(iters):
        # One uniform per token in sweep order: the same stream as one
        # rng.random() call per token.
        uniforms = iter(rng.random(n_tokens).tolist())
        for d, words in enumerate(word_ids):
            z = assignments[d]
            d_counts, d_f = n_dk[d], doc_f[d]
            for j, w in enumerate(words):
                k = z[j]
                w_counts, w_f = n_wk[w], word_f[w]
                d_counts[k] -= 1
                d_f[k] = d_counts[k] + alpha
                w_counts[k] -= 1
                w_f[k] = w_counts[k] + beta
                n_k[k] -= 1
                topic_f[k] = n_k[k] + beta_sum
                # p = (n_dk + alpha) * (n_kw + beta) / (n_k + beta_sum), cumulated.
                multiply(d_f, w_f, out=p)
                divide(p, topic_f, out=p)
                accumulate(p, out=cum)
                k = int(cum.searchsorted(next(uniforms) * cum[-1]))
                z[j] = k
                d_counts[k] += 1
                d_f[k] = d_counts[k] + alpha
                w_counts[k] += 1
                w_f[k] = w_counts[k] + beta
                n_k[k] += 1
                topic_f[k] = n_k[k] + beta_sum

    # Topic-major and C-contiguous: gammaln(...).sum() adds pairwise in memory
    # order, and a transposed view would round the log-likelihood differently.
    n_kw = np.ascontiguousarray(np.array(n_wk, dtype=np.int64).T)
    n_k = np.array(n_k, dtype=np.int64)
    phi = (n_kw + beta) / (n_k + beta_sum)[:, None]
    doc_lens = np.array([len(w) for w in word_ids], dtype=np.int64)
    ll = _gibbs_counts_ll(n_kw, n_k, np.array(n_dk, dtype=np.int64), doc_lens, alpha, beta)
    return LdaModel(
        n_topics=n_topics, alpha=alpha, beta=beta, phi=phi, vocab=vocab, seed=seed,
        log_likelihood=ll,
    )


def lda_infer(model: LdaModel, doc: TokenSeq, iters: int = 50, seed: int = 0) -> np.ndarray:
    """Fold-in Gibbs against frozen phi for one document; see lda_infer_batch."""
    return lda_infer_batch(model, [doc], iters=iters, seed=seed)[0]


def lda_infer_batch(
    model: LdaModel, docs: list[TokenSeq], iters: int = 50, seed: int = 0
) -> np.ndarray:
    """Fold-in Gibbs against frozen phi; returns (len(docs), n_topics) topic proportions.

    Row i equals folding docs[i] in alone with a fresh generator seeded with
    `seed`, bit for bit. Documents are independent given phi, so the batch
    steps token position j of every document at once; sorted longest first,
    the documents that still have a token j are a prefix. Out-of-vocabulary
    tokens are ignored; a document with no known tokens falls back to the
    symmetric prior, i.e. the uniform distribution.
    """
    n_topics, alpha = model.n_topics, model.alpha
    theta = np.full((len(docs), n_topics), 1.0 / n_topics)
    word_ids = _doc_word_ids(docs, model.vocab)
    known = [d for d in range(len(docs)) if len(word_ids[d])]
    order = sorted(known, key=lambda d: -len(word_ids[d]))
    if not order:
        return theta
    lens = np.array([len(word_ids[d]) for d in order], dtype=np.int64)
    n_docs = len(order)
    # Position-major ragged layout: token j of the active documents 0..a-1
    # sits at flat[starts[j]:starts[j] + a], so no row is padded.
    active = n_docs - np.searchsorted(lens[::-1], np.arange(lens[0]), side="right")
    starts = np.concatenate(([0], np.cumsum(active)))
    # slot[r]: flat index of the r-th token in document-major order.
    slot = np.concatenate([starts[:n] + i for i, n in enumerate(lens.tolist())])
    flat = np.empty(len(slot), dtype=np.int64)
    flat[slot] = np.concatenate([word_ids[d] for d in order])
    phi_t = np.ascontiguousarray(model.phi.T)  # (vocab, n_topics): phi[:, w] as a row

    rngs = [np.random.default_rng(seed) for _ in order]
    z0 = np.concatenate([rng.integers(0, n_topics, size=n) for rng, n in zip(rngs, lens)])
    # Whole numbers held as floats: exact, and count + alpha rounds as it does
    # from an integer count.
    counts = np.zeros((n_docs, n_topics))
    cells = counts.reshape(-1)  # counts[d, k] is cells[row_base[d] + k]
    row_base = np.arange(0, n_docs * n_topics, n_topics)
    cell = np.empty_like(flat)  # each token's topic as its counts cell
    cell[slot] = np.repeat(row_base, lens) + z0
    np.add.at(cells, cell, 1)
    u = np.empty((len(slot), 1))
    accumulate, reduce = np.add.accumulate, np.add.reduce
    for _ in range(iters):
        # One sweep of uniforms per document, drawn as the lone fold-in would.
        u[slot, 0] = np.concatenate([rng.random(n) for rng, n in zip(rngs, lens)])
        # Each step touches one cell per document, so the fancy-index
        # updates below never hit the same cell twice.
        for lo, a in zip(starts.tolist(), active.tolist()):
            hi = lo + a
            cells[cell[lo:hi]] -= 1
            cum = accumulate((counts[:a] + alpha) * phi_t[flat[lo:hi]], axis=1)
            # Counting cum < target is searchsorted(cum, target, side="left").
            new = row_base[:a] + reduce(cum < u[lo:hi] * cum[:, -1:], axis=1)
            cell[lo:hi] = new
            cells[new] += 1
    theta[order] = (counts + alpha) / (lens + n_topics * alpha)[:, None]
    return theta


# --- external embeddings ----------------------------------------------------


def load_embeddings(path) -> EmbeddingTable:
    """Read embeddings.jsonl ({"id": ..., "vector": [...]}); dim fixed by the first row."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    for line_no, obj in _iter_jsonl(path):
        try:
            doc_id = str(obj["id"])
            vec = np.asarray(obj["vector"], dtype=np.float64)
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedLineError(str(path), line_no, str(exc)) from exc
        if vec.ndim != 1:
            raise MalformedLineError(str(path), line_no, "vector must be a flat list")
        # JSON decoding accepts the NaN and Infinity literals.
        if not np.isfinite(vec).all():
            raise MalformedLineError(str(path), line_no, "vector holds NaN or Infinity")
        if doc_id in vectors:
            raise DuplicateIdError(doc_id)
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise DimMismatchError(f"id {doc_id!r} has dim {len(vec)}, expected {dim}")
        vectors[doc_id] = vec
    return EmbeddingTable(vectors=vectors, dim=dim or 0)


# --- model persistence ------------------------------------------------------


def save_tfidf(model: TfidfModel, path) -> None:
    payload = {
        "format": "tfidf",
        "version": 1,
        "n_docs": model.n_docs,
        "vocab": model.vocab.terms(),
        "idf": [float(v) for v in model.idf],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_tfidf(path) -> TfidfModel:
    payload = _load_model_payload(path, "tfidf")
    vocab = Vocabulary({term: i for i, term in enumerate(payload["vocab"])})
    return TfidfModel(
        vocab=vocab,
        idf=np.asarray(payload["idf"], dtype=np.float64),
        n_docs=int(payload["n_docs"]),
    )


def save_lda(model: LdaModel, path) -> None:
    payload = {
        "format": "lda",
        "version": 1,
        "n_topics": model.n_topics,
        "alpha": model.alpha,
        "beta": model.beta,
        "seed": model.seed,
        "log_likelihood": model.log_likelihood,
        "vocab": model.vocab.terms(),
        "phi": [[float(v) for v in row] for row in model.phi],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_lda(path) -> LdaModel:
    payload = _load_model_payload(path, "lda")
    vocab = Vocabulary({term: i for i, term in enumerate(payload["vocab"])})
    n_topics = int(payload["n_topics"])
    alpha = float(payload["alpha"])
    beta = float(payload["beta"])
    _check_prior("alpha", alpha)
    _check_prior("beta", beta)
    try:
        phi = np.asarray(payload["phi"], dtype=np.float64)
    except (TypeError, ValueError):
        raise ConfigInvalidError(f"{path}: lda phi is not a numeric table") from None
    if phi.shape != (n_topics, vocab.size):
        raise ConfigInvalidError(
            f"{path}: lda phi has shape {phi.shape}, expected {(n_topics, vocab.size)}"
        )
    if not (np.isfinite(phi).all() and (phi >= 0).all()):
        raise ConfigInvalidError(f"{path}: lda phi must be finite and non-negative")
    return LdaModel(
        n_topics=n_topics,
        alpha=alpha,
        beta=beta,
        phi=phi,
        vocab=vocab,
        seed=int(payload["seed"]),
        log_likelihood=float(payload["log_likelihood"]),
    )


def _load_model_payload(path, expected_format: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload.get("format") != expected_format or payload.get("version") != 1:
        raise ConfigInvalidError(
            f"{path}: expected a version-1 {expected_format!r} model file"
        )
    return payload
