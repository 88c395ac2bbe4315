"""Document vectorizers: TF-IDF and LDA topic proportions.

TF-IDF uses the smoothed convention idf(t) = ln((1+N)/(1+df(t))) + 1 with raw
term counts and L2 normalization; the exact variant is pinned here so tests
can check against an independent hand computation. A batch of documents is
transformed into one sparse row matrix (CSR arrays), since a document holds
a handful of the vocabulary's terms.

LDA is fitted with collapsed Gibbs sampling, which keeps runs deterministic
per seed and needs nothing beyond integer count tables. Every document is
sampled token by token, and all documents take their token j in one step:
each draws against the counts as of the step's start without its own token,
AD-LDA's update (Newman, Asuncion, Smyth & Welling, JMLR 2009) with one
document per worker and the counts merged after every step. A fitted
document's topic proportions are read from the chain's final counts,
theta_d = (n_dk + alpha) / (n_d + K alpha) (Griffiths & Steyvers, PNAS 2004),
and kept on the model. Documents outside the fit are folded in against
frozen topic-word distributions (Wallach et al., ICML 2009), batched across
documents the same way: each row equals the per-document fold-in bit for bit.

save_tfidf and save_lda write version-2 model files (errors.write_model):
idf and phi are base64 float64 array objects and load back bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .errors import (
    ConfigInvalidError,
    DegenerateKError,
    EmptyCorpusError,
    read_array,
    read_model,
    write_model,
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
    """A fitted TF-IDF space: vocabulary, smoothed idf per term and document count."""

    vocab: Vocabulary
    idf: np.ndarray = field(repr=False)
    n_docs: int


@dataclass(frozen=True, eq=False)
class LdaModel:
    """A fitted LDA model: topic-word distributions phi over the vocabulary."""

    n_topics: int
    alpha: float
    beta: float
    phi: np.ndarray = field(repr=False)  # (n_topics, vocab) rows sum to 1
    vocab: Vocabulary
    seed: int
    # Joint log p(words, assignments) from the final Gibbs counts; a training
    # diagnostic that grows as sampling settles.
    log_likelihood: float = float("nan")
    # (n_docs, n_topics) topic proportions of the documents lda_fit sampled,
    # in input order; None for a model loaded from a file, which omits them.
    theta: np.ndarray | None = field(default=None, repr=False)


# --- TF-IDF ---------------------------------------------------------------


def _code_tokens(docs: list[TokenSeq], vocab: Vocabulary) -> tuple[np.ndarray, np.ndarray]:
    """(ids, lens): each document's in-vocabulary token ids, end to end, and their count."""
    lens = np.fromiter(map(len, docs), np.int64, len(docs))
    ids = np.fromiter(
        map(vocab.index.get, chain.from_iterable(docs), repeat(-1)), np.int64, lens.sum()
    )
    known = ids >= 0
    doc_of = np.repeat(np.arange(len(docs)), lens)
    return ids[known], np.bincount(doc_of[known], minlength=len(docs))


def tfidf_fit(docs: list[TokenSeq]) -> TfidfModel:
    """Fit vocabulary and smoothed inverse document frequencies."""
    if not any(docs):
        raise EmptyCorpusError("tfidf_fit needs at least one nonempty document")
    vocab = Vocabulary.from_terms(chain.from_iterable(docs))
    ids, lens = _code_tokens(docs, vocab)
    n_docs = int(np.count_nonzero(lens))
    # One key per (document, distinct term): df is their count per term.
    keys = np.unique(np.repeat(np.arange(len(docs)), lens) * vocab.size + ids)
    df = np.bincount(keys % vocab.size, minlength=vocab.size)
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
    terms, lens = _code_tokens(docs, model.vocab)
    doc_of = np.repeat(np.arange(len(docs), dtype=np.int64), lens)
    # One key per (document, term): np.unique sorts them row-major and counts repeats.
    keys, counts = np.unique(doc_of * model.vocab.size + terms, return_counts=True)
    rows, indices = np.divmod(keys, model.vocab.size)
    data = counts * model.idf[indices]
    norms = np.sqrt(np.bincount(rows, weights=data * data, minlength=len(docs)))
    data /= norms[rows]
    indptr = np.searchsorted(rows, np.arange(len(docs) + 1))
    return CsrRows(indptr, indices, data, model.vocab.size)


# --- LDA ------------------------------------------------------------------


def _log_rising(counts: np.ndarray, c: float) -> float:
    """Sum over the cells of ln Gamma(n + c) - ln Gamma(c) = sum_{i<n} ln(c + i),
    where ln(c + i) counts once per cell holding more than i."""
    hist = np.bincount(counts.reshape(-1))
    above = counts.size - np.cumsum(hist)[:-1]
    return float(above @ np.log(c + np.arange(len(above))))


def _gibbs_counts_ll(n_kw, n_k, n_dk, doc_lens, alpha, beta):
    """Collapsed-Gibbs log p(words, assignments) of integer count tables: its
    Gamma ratios as _log_rising sums, where the ln Gamma(prior) terms cancel."""
    n_topics, vocab_size = n_kw.shape
    ll = _log_rising(n_kw, beta) - _log_rising(n_k, vocab_size * beta)
    return ll + _log_rising(n_dk, alpha) - _log_rising(doc_lens, n_topics * alpha)


def _check_prior(name: str, prior: float) -> None:
    if not (math.isfinite(prior) and prior > 0):
        raise ConfigInvalidError(f"lda {name} must be finite and > 0, got {prior!r}")


def _position_major(lens):
    """Position-major ragged layout of documents with lens[d] >= 1 tokens each.

    Documents are ranked longest first (ties keep their order), so the
    documents that have a token j are ranks 0..active[j]-1, and token j of
    rank r sits at flat index starts[j] + r: no row is padded. Returns
    (rank, starts, active, slot, token_rank): the i-th token of the documents
    concatenated in their given order has flat index slot[i], and its
    document has rank token_rank[i].
    """
    lens = np.asarray(lens, dtype=np.int64)
    order = np.argsort(-lens, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(len(lens))
    by_len = lens[order]
    active = len(lens) - np.searchsorted(by_len[::-1], np.arange(by_len[0]), side="right")
    starts = np.concatenate(([0], np.cumsum(active)))
    position = np.arange(by_len.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
    token_rank = np.repeat(rank, lens)
    return rank, starts, active, starts[position] + token_rank, token_rank


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
    All documents step their token j together (see _DocumentGibbs), drawing
    the generator stream of a token-by-token sweep, so on a one-document
    corpus it is that sweep bit for bit. phi is read off the
    final count tables with beta smoothing, so every entry is strictly
    positive and each row sums to one. theta holds one row per input document:
    (n_dk + alpha) / (n_d + n_topics * alpha) from the same counts, and the
    uniform row that lda_infer_batch gives an empty document.
    """
    if n_topics < 1:
        raise DegenerateKError("n_topics must be >= 1")
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if alpha is not None:
        _check_prior("alpha", alpha)
    _check_prior("beta", beta)
    if not any(docs):
        raise EmptyCorpusError("lda_fit needs at least one nonempty document")
    if alpha is None:
        alpha = 50.0 / n_topics

    vocab = Vocabulary.from_terms(chain.from_iterable(docs))
    ids, lens = _code_tokens(docs, vocab)
    doc_lens = lens[lens > 0]
    beta_sum = vocab.size * beta
    rng = np.random.default_rng(seed)
    gibbs = _DocumentGibbs(ids, doc_lens, n_topics, vocab.size, alpha, beta, rng)
    for _ in range(iters):
        gibbs.sweep(rng.random(len(gibbs.words)))
    n_kw, n_k, n_dk = gibbs.counts()

    phi = (n_kw + beta) / (n_k + beta_sum)[:, None]
    ll = _gibbs_counts_ll(n_kw, n_k, n_dk, doc_lens, alpha, beta)
    theta = np.full((len(docs), n_topics), 1.0 / n_topics)
    theta[lens > 0] = (n_dk + alpha) / (doc_lens + n_topics * alpha)[:, None]
    return LdaModel(
        n_topics=n_topics, alpha=alpha, beta=beta, phi=phi, vocab=vocab, seed=seed,
        log_likelihood=ll, theta=theta,
    )


def _draw(cum: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Per row of cum, the first index whose cum is >= target[row, 0].

    This counts the row's cells below its target, searchsorted(side="left"),
    as long as every row is nondecreasing and its target is at most its last
    cell, as a cumulative sum of positive weights times a uniform in [0, 1)
    is. argmax stops at the first True, where summing the comparison would
    cast every cell to an integer first.
    """
    return (cum >= target).argmax(axis=1)


# Steps with at most this many active documents draw row by row: a row costs
# about 8-17 us and a block step a fixed 22-40 us (numpy 2.4, 2-core VM). In
# interleaved trials two rows beat the block step 67 times in 75, and the
# block step beat three rows 54 times in 75. Without it a long document's
# tail would cost a block step per token.
_ROW_STEP_MAX = 2


class _DocumentGibbs:
    """Document-parallel collapsed Gibbs state.

    Each document is sampled token by token in order, and all documents take
    their token j in one step of the position-major layout. Within a step
    every document draws against the counts as of the step's start with only
    its own old assignment taken out, as an AD-LDA worker does; the step's
    changes are merged into the count tables before the next step. Counts
    are floats holding whole numbers, so count + prior rounds as it does from
    an integer count: on one document every draw equals the token-by-token
    sweep's.
    """

    def __init__(self, ids, lens, n_topics, vocab_size, alpha, beta, rng):
        self.rank, self.starts, self.active, self.slot, token_rank = _position_major(lens)
        self.n_topics, self.alpha, self.beta = n_topics, alpha, beta
        self.beta_sum = vocab_size * beta
        n_tokens = len(self.slot)
        # words[i], z[i]: the word and topic of flat token i.
        self.words = np.empty(n_tokens, dtype=np.int64)
        self.words[self.slot] = ids
        self.z = np.empty(n_tokens, dtype=np.int64)
        # Initial topics in document order, in one call: numpy's bounded fill
        # reads each value straight from the bit generator and buffers none of
        # its own, so this is the stream of one call per document.
        self.z[self.slot] = rng.integers(0, n_topics, size=n_tokens)
        doc = np.empty(n_tokens, dtype=np.int64)
        doc[self.slot] = token_rank
        self.n_dk = np.zeros((len(lens), n_topics))  # rows by rank
        self.n_wk = np.zeros((vocab_size, n_topics))  # word-major
        np.add.at(self.n_dk, (doc, self.z), 1.0)
        np.add.at(self.n_wk, (self.words, self.z), 1.0)
        self.n_k = np.bincount(self.z, minlength=n_topics).astype(np.float64)
        self._row_base = np.arange(0, self.n_dk.size, n_topics)  # n_dk[r, k] is at r * K + k
        self._word_base = self.words * n_topics  # n_wk[w, k] is at w * K + k
        self._u = np.empty((n_tokens, 1))

    def sweep(self, uniforms: np.ndarray) -> None:
        """One sweep, drawing with uniforms[i] for the i-th token in document order."""
        n_topics, alpha, beta, beta_sum = self.n_topics, self.alpha, self.beta, self.beta_sum
        words, z, u = self.words, self.z, self._u
        u[self.slot, 0] = uniforms
        dk, wk, n_k = self.n_dk.reshape(-1), self.n_wk.reshape(-1), self.n_k
        row_base, word_base = self._row_base, self._word_base
        # ufunc.at with a float operand: an integer one takes numpy off its fast path.
        subtract_at, add_at, bincount = np.subtract.at, np.add.at, np.bincount
        for lo, a in zip(self.starts.tolist(), self.active.tolist()):
            if a <= _ROW_STEP_MAX:
                self._row_step(lo, a)
                continue
            hi = lo + a
            old = z[lo:hi]  # a view, so z[lo:hi] is written last
            # Each document's own token out of the step-start counts: its n_dk
            # row is its own, its n_wk and n_k rows are copies. Rank r's cell
            # of topic k is at r * K + k in all three (a, K) tables.
            own = row_base[:a] + old
            dk[own] -= 1.0
            word_k = self.n_wk.take(words[lo:hi], axis=0)
            word_k.reshape(-1)[own] -= 1.0
            topic_k = n_k[None].repeat(a, axis=0)
            topic_k.reshape(-1)[own] -= 1.0
            p = (self.n_dk[:a] + alpha) * (word_k + beta) / (topic_k + beta_sum)
            cum = np.add.accumulate(p, axis=1)
            new = _draw(cum, u[lo:hi] * cum[:, -1:])
            dk[row_base[:a] + new] += 1.0
            # Several documents may share a word, hence ufunc.at for n_wk.
            subtract_at(wk, word_base[lo:hi] + old, 1.0)
            add_at(wk, word_base[lo:hi] + new, 1.0)
            n_k += bincount(new, minlength=n_topics) - bincount(old, minlength=n_topics)
            z[lo:hi] = new

    def _row_step(self, lo: int, a: int) -> None:
        """The step of sweep() drawn one row at a time, for a step with few
        active documents, as in a long document's tail. Same counts and float
        operations as the block step, so the same draws."""
        n_dk, n_wk, n_k = self.n_dk, self.n_wk, self.n_k
        alpha, beta, beta_sum = self.alpha, self.beta, self.beta_sum
        hi = lo + a
        words, old, targets = self.words[lo:hi].tolist(), self.z[lo:hi].tolist(), self._u[lo:hi, 0]
        new = []
        for r, (w, k) in enumerate(zip(words, old)):
            # Own token out for this draw only: the others still see it.
            n_dk[r, k] -= 1
            n_wk[w, k] -= 1
            n_k[k] -= 1
            cum = np.add.accumulate((n_dk[r] + alpha) * (n_wk[w] + beta) / (n_k + beta_sum))
            new.append(int(cum.searchsorted(targets[r] * cum[-1])))
            n_wk[w, k] += 1
            n_k[k] += 1
        for r, (w, k, k_new) in enumerate(zip(words, old, new)):
            n_dk[r, k_new] += 1
            n_wk[w, k] -= 1
            n_wk[w, k_new] += 1
            n_k[k] -= 1
            n_k[k_new] += 1
        self.z[lo:hi] = new

    def counts(self):
        """(n_kw, n_k, n_dk) as int64, n_kw topic-major, n_dk in document order."""
        n_dk = self.n_dk[self.rank]
        return self.n_wk.T.astype(np.int64), self.n_k.astype(np.int64), n_dk.astype(np.int64)


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
    the documents that still have a token j are a prefix. Documents of one
    length draw the same values from their fresh generators, so the batch
    keeps one generator per distinct length, and each token reads its value
    from its length's draw. Out-of-vocabulary tokens are ignored; a document
    with no known tokens falls back to the symmetric prior, i.e. the uniform
    distribution.
    """
    n_topics, alpha = model.n_topics, model.alpha
    theta = np.full((len(docs), n_topics), 1.0 / n_topics)
    ids, lens = _code_tokens(docs, model.vocab)
    known = lens > 0
    if not known.any():
        return theta
    lens = lens[known]
    rank, starts, active, slot, token_rank = _position_major(lens)
    flat = np.empty_like(ids)
    flat[slot] = ids
    phi_t = np.ascontiguousarray(model.phi.T)  # (vocab, n_topics): phi[:, w] as a row

    lengths, group = np.unique(lens, return_inverse=True)
    rngs = [np.random.default_rng(seed) for _ in lengths]
    # source[i]: where token i finds its value in the lengths' draws laid end
    # to end; a document's token j is j past its length's first value.
    first = (np.cumsum(lengths) - lengths)[group] - (np.cumsum(lens) - lens)
    source = np.empty_like(flat)
    source[slot] = np.arange(len(slot)) + np.repeat(first, lens)
    lengths = lengths.tolist()
    # Whole numbers held as floats: exact, and count + alpha rounds as it does
    # from an integer count. Rows by rank, so the active documents are a prefix.
    counts = np.zeros((len(known), n_topics))
    cells = counts.reshape(-1)  # counts[r, k] is cells[row_base[r] + k]
    row_base = np.arange(0, counts.size, n_topics)
    cell = np.empty_like(flat)  # each token's topic as its counts cell
    cell[slot] = row_base[token_rank]
    z0 = np.concatenate([rng.integers(0, n_topics, size=n) for rng, n in zip(rngs, lengths)])
    cell += z0[source]
    np.add.at(cells, cell, 1.0)
    for _ in range(iters):
        # One sweep of uniforms per length, drawn as a lone fold-in would.
        u = np.concatenate([rng.random(n) for rng, n in zip(rngs, lengths)])[source, None]
        # Each step touches one cell per document, so the fancy-index
        # updates below never hit the same cell twice.
        for lo, a in zip(starts.tolist(), active.tolist()):
            hi = lo + a
            cells[cell[lo:hi]] -= 1
            cum = np.add.accumulate((counts[:a] + alpha) * phi_t.take(flat[lo:hi], axis=0), axis=1)
            new = row_base[:a] + _draw(cum, u[lo:hi] * cum[:, -1:])
            cell[lo:hi] = new
            cells[new] += 1
    theta[known] = (counts[rank] + alpha) / (lens + n_topics * alpha)[:, None]
    return theta


# --- model persistence ------------------------------------------------------


def save_tfidf(model: TfidfModel, path) -> None:
    write_model(path, {
        "format": "tfidf",
        "version": 2,
        "n_docs": model.n_docs,
        "vocab": model.vocab.terms(),
        "idf": model.idf,
    })


def load_tfidf(path) -> TfidfModel:
    """Read a save_tfidf file. A file that is not a version-2 tfidf model
    (errors.read_model), lacks a key, holds a value of the wrong type, or
    whose idf is not one finite number >= 1 per vocabulary term raises
    ConfigInvalidError naming `path`. ln((1+N)/(1+df)) + 1 is never below 1."""
    with read_model(path, "tfidf", 2, TfidfModel) as payload:
        vocab = _vocabulary(payload["vocab"])
        idf = read_array(payload["idf"])
        if idf.shape != (vocab.size,) or not (np.isfinite(idf).all() and (idf >= 1).all()):
            raise ValueError(
                f"idf must hold one finite value >= 1 per vocabulary term ({vocab.size}), "
                f"got shape {idf.shape}"
            )
        return TfidfModel(vocab=vocab, idf=idf, n_docs=payload["n_docs"])


def save_lda(model: LdaModel, path) -> None:
    write_model(path, {
        "format": "lda",
        "version": 2,
        "n_topics": model.n_topics,
        "alpha": model.alpha,
        "beta": model.beta,
        "seed": model.seed,
        "log_likelihood": model.log_likelihood,
        "vocab": model.vocab.terms(),
        "phi": model.phi,
    })


def load_lda(path) -> LdaModel:
    """Read a save_lda file. A file that is not a version-2 lda model
    (errors.read_model), lacks a key, holds a value of the wrong type, has a
    prior that is not > 0, or a phi that is not a finite non-negative
    (n_topics, vocabulary) table whose rows sum to 1 raises
    ConfigInvalidError naming `path`."""
    with read_model(path, "lda", 2, LdaModel) as payload:
        vocab = _vocabulary(payload["vocab"])
        n_topics, alpha, beta = payload["n_topics"], payload["alpha"], payload["beta"]
        if not (alpha > 0 and beta > 0):
            raise ValueError(f"priors must be > 0, got alpha {alpha!r} and beta {beta!r}")
        phi = read_array(payload["phi"])
        if phi.shape != (n_topics, vocab.size):
            raise ValueError(f"phi has shape {phi.shape}, expected {(n_topics, vocab.size)}")
        # NaN fails phi >= 0 too, and an infinity puts its row's sum off 1.
        if not (phi >= 0).all():
            raise ValueError("phi must be non-negative")
        # lda_fit's rows (n_kw + beta) / (n_k + V beta) sum to 1 within a few
        # roundings per entry; 4 V ulps of 1 bound them with room to spare.
        off = np.abs(phi.sum(axis=1) - 1.0)
        if (off > 4 * vocab.size * np.finfo(np.float64).eps).any():
            row = int(off.argmax())
            raise ValueError(f"phi rows must sum to 1; row {row} is off by {off[row]:.3g}")
        return LdaModel(
            n_topics=n_topics,
            alpha=alpha,
            beta=beta,
            phi=phi,
            vocab=vocab,
            seed=payload["seed"],
            log_likelihood=payload["log_likelihood"],
        )


def _vocabulary(terms) -> Vocabulary:
    if not (isinstance(terms, list) and all(isinstance(term, str) for term in terms)):
        raise ValueError("vocab is not a list of strings")
    vocab = Vocabulary({term: i for i, term in enumerate(terms)})
    if vocab.size != len(terms):
        raise ValueError("vocab repeats a term")
    return vocab
