"""Document vectorizers: TF-IDF, LDA topic proportions, and file-based embeddings.

TF-IDF uses the smoothed convention idf(t) = ln((1+N)/(1+df(t))) + 1 with raw
term counts and L2 normalization; the exact variant is pinned here so tests
can check against an independent hand computation.

LDA is fitted with collapsed Gibbs sampling, which keeps runs deterministic
per seed and needs nothing beyond integer count tables. Inference folds new
documents in against frozen topic-word distributions.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln

from .errors import (
    ConfigInvalidError,
    DegenerateKError,
    DimMismatchError,
    DuplicateIdError,
    EmptyCorpusError,
    MalformedLineError,
    MissingEmbeddingError,
)
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
    """Weight vector count(t) * idf(t), L2-normalized; all-OOV docs map to zero."""
    vec = np.zeros(model.vocab.size, dtype=np.float64)
    for term, count in Counter(doc).items():
        i = model.vocab.index.get(term)
        if i is not None:
            vec[i] = count * model.idf[i]
    norm = np.linalg.norm(vec)
    if norm > 0.0:
        vec /= norm
    return vec


# --- LDA ------------------------------------------------------------------


def _doc_word_ids(docs: list[TokenSeq], vocab: Vocabulary) -> list[np.ndarray]:
    return [
        np.array([vocab.index[t] for t in doc if t in vocab.index], dtype=np.int64)
        for doc in docs
    ]


def _gibbs_counts_ll(n_kw, n_k, n_dk, doc_lens, alpha, beta):
    n_topics, vocab_size = n_kw.shape
    n_docs = len(doc_lens)
    ll = n_topics * (gammaln(vocab_size * beta) - vocab_size * gammaln(beta))
    ll += gammaln(n_kw + beta).sum() - gammaln(n_k + vocab_size * beta).sum()
    ll += n_docs * (gammaln(n_topics * alpha) - n_topics * gammaln(alpha))
    ll += gammaln(n_dk + alpha).sum() - gammaln(doc_lens + n_topics * alpha).sum()
    return float(ll)


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
    nonempty = [doc for doc in docs if doc]
    if not nonempty:
        raise EmptyCorpusError("lda_fit needs at least one nonempty document")
    if alpha is None:
        alpha = 50.0 / n_topics

    vocab = Vocabulary.from_terms(tok for doc in nonempty for tok in doc)
    word_ids = _doc_word_ids(nonempty, vocab)
    vocab_size = vocab.size
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

    phi = (n_kw + beta) / (n_k + beta_sum)[:, None]
    doc_lens = np.array([len(w) for w in word_ids], dtype=np.int64)
    ll = _gibbs_counts_ll(n_kw, n_k, n_dk, doc_lens, alpha, beta)
    return LdaModel(
        n_topics=n_topics, alpha=alpha, beta=beta, phi=phi, vocab=vocab, seed=seed,
        log_likelihood=ll,
    )


def lda_infer(model: LdaModel, doc: TokenSeq, iters: int = 50, seed: int = 0) -> np.ndarray:
    """Fold-in Gibbs against frozen phi; returns smoothed topic proportions.

    Out-of-vocabulary tokens are ignored; a document with no known tokens
    falls back to the symmetric prior, i.e. the uniform distribution.
    """
    n_topics = model.n_topics
    words = np.array([model.vocab.index[t] for t in doc if t in model.vocab.index], dtype=np.int64)
    if len(words) == 0:
        return np.full(n_topics, 1.0 / n_topics)

    rng = np.random.default_rng(seed)
    z = rng.integers(0, n_topics, size=len(words))
    counts = np.bincount(z, minlength=n_topics).astype(np.int64)
    for _ in range(iters):
        for j in range(len(words)):
            w = words[j]
            counts[z[j]] -= 1
            p = (counts + model.alpha) * model.phi[:, w]
            cum = np.cumsum(p)
            k_new = int(np.searchsorted(cum, rng.random() * cum[-1]))
            z[j] = k_new
            counts[k_new] += 1
    theta = (counts + model.alpha) / (len(words) + n_topics * model.alpha)
    return theta


# --- external embeddings ----------------------------------------------------


def load_embeddings(path) -> EmbeddingTable:
    """Read embeddings.jsonl ({"id": ..., "vector": [...]}); dim fixed by the first row."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                doc_id = str(obj["id"])
                vec = np.asarray(obj["vector"], dtype=np.float64)
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise MalformedLineError(str(path), line_no, str(exc)) from exc
            if vec.ndim != 1:
                raise MalformedLineError(str(path), line_no, "vector must be a flat list")
            # json.loads accepts the NaN and Infinity literals.
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
    return LdaModel(
        n_topics=int(payload["n_topics"]),
        alpha=float(payload["alpha"]),
        beta=float(payload["beta"]),
        phi=np.asarray(payload["phi"], dtype=np.float64),
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
