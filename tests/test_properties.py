"""Property tests: the one-sort calibration and AP sweep, the one-product
scoring kernel, the batch TF-IDF transform, batched encoding, the LDA
sampler (against document-parallel and one-document token-by-token oracles),
its log-likelihood (against the gammaln formula), its draw helper, its
topic proportions and batched fold-in, the sparse-row dual-encoder training
loop (against dense and per-step-gather oracles), its
epoch gather plan (against the per-batch gather), its pooled article rows
(against the dense mean) and its row-index
examples (against the per-pair vector builder), text
cleaning one text at a time and in batches, the TF-IDF document frequencies,
and the JSONL reader, the loader of each line format (against a field-by-field
oracle), the pair table loader and ground-truth builder against the oracles
they replace."""

import json
import math
import tempfile
from collections import Counter
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
from numpy.testing import assert_array_equal
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from reference import (
    WRITE_PAIRS_LINE,
    _csr_rows,
    _gather_rows,
    ap_reference,
    batch_loss_and_grads_reference,
    build_ground_truth_reference,
    build_training_pairs_reference,
    calibrate_reference,
    clean_reference,
    code_pair_block_reference,
    document_frequency_reference,
    gammaln_ll_reference,
    gammaln_ll_rounding,
    iter_jsonl_reference,
    lda_fit_reference,
    lda_fit_steps_reference,
    lda_infer_reference,
    load_annotations_reference,
    load_documents_reference,
    load_embeddings_reference,
    load_pairs_reference,
    masked_flatten_reference,
    mean_rows_reference,
    score_matrix_reference,
    select_reference,
    tfidf_reference,
    tfidf_transform_reference,
    train_reference,
    train_stepwise_reference,
)
from tweetlink import cli, config, contrast, corpus, evalx, linker, textprep, vectorize
from tweetlink.errors import (
    ConfigInvalidError,
    DimMismatchError,
    EmptyInputError,
    MissingEmbeddingError,
    TweetLinkError,
)
from tweetlink.matrices import CsrRows, GroundTruthMatrix, SimilarityMatrix


@st.composite
def score_pools(draw):
    """A few scores to draw cells from, so ties are common.

    Half the pools hold a run of adjacent doubles, whose midpoints round onto
    one of the two scores they sit between.
    """
    pool = draw(st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4))
    if draw(st.booleans()):
        x = draw(st.floats(-0.99, 0.99))
        pool += [x, np.nextafter(x, 1.0), np.nextafter(np.nextafter(x, 1.0), 1.0)]
    return pool


@st.composite
def labeled_matrices(draw):
    """(similarity values, ground truth) with at least one positive cell."""
    rows = draw(st.integers(1, 6))
    cols = draw(st.integers(1, 6))
    n = rows * cols
    values = draw(st.lists(st.sampled_from(draw(score_pools())), min_size=n, max_size=n))
    labels = draw(
        st.one_of(
            st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n),
            # A single label class, apart from the positive set below.
            st.sampled_from([-1, 1]).map(lambda y: [y] * n),
        )
    )
    labels[draw(st.integers(0, n - 1))] = 1
    return np.reshape(values, (rows, cols)), np.reshape(labels, (rows, cols))


def _matrices(values, labels):
    tweets = tuple(f"t{i}" for i in range(values.shape[0]))
    articles = tuple(f"a{j}" for j in range(values.shape[1]))
    return SimilarityMatrix(tweets, articles, values), GroundTruthMatrix(tweets, articles, labels)


@settings(max_examples=300, deadline=None)
@given(labeled_matrices())
def test_calibrate_threshold_matches_per_candidate_scan(case):
    sim, gt = _matrices(*case)
    expected = calibrate_reference(*masked_flatten_reference(*case))
    assert linker.calibrate_threshold(sim, gt) == expected


@settings(max_examples=300, deadline=None)
@given(labeled_matrices())
def test_average_precision_matches_reference(case):
    scores, labels = masked_flatten_reference(*case)
    assert evalx.average_precision(scores, labels) == ap_reference(scores, labels)


coords = st.one_of(st.just(0.0), st.floats(1e-3, 10.0), st.floats(-10.0, -1e-3))


@st.composite
def vector_tables(draw):
    """Tweet and article vectors (some all-zero) plus permuted id lists."""
    dim = draw(st.integers(1, 5))
    vec = st.one_of(st.just([0.0] * dim), st.lists(coords, min_size=dim, max_size=dim))
    tweets = {f"t{i}": draw(vec) for i in range(draw(st.integers(1, 5)))}
    articles = {f"a{j}": draw(vec) for j in range(draw(st.integers(1, 5)))}
    tweet_ids = draw(st.permutations(sorted(tweets)))
    article_ids = draw(st.permutations(sorted(articles)))
    return tweets, articles, tweet_ids, article_ids


@settings(max_examples=200, deadline=None)
@given(vector_tables())
def test_score_matrix_matches_per_pair_cosine(case):
    tweets, articles, tweet_ids, article_ids = case
    sim = linker.score_matrix(tweets, articles, tweet_ids, article_ids)
    expected = [[linker.cosine(tweets[t], articles[a]) for a in article_ids] for t in tweet_ids]
    assert sim.tweet_ids == tuple(tweet_ids) and sim.article_ids == tuple(article_ids)
    np.testing.assert_allclose(sim.values, expected, rtol=0, atol=1e-12)


def _csr(dense) -> CsrRows:
    return CsrRows(*_csr_rows(list(dense)), dense.shape[1])


@st.composite
def row_matrices(draw):
    """Dense tweet and article rows of one width; some rows are zero, few are unit-length."""
    dim = draw(st.integers(1, 6))
    row = st.one_of(st.just([0.0] * dim), st.lists(coords, min_size=dim, max_size=dim))
    tweets = draw(st.lists(row, min_size=1, max_size=6))
    articles = draw(st.lists(row, min_size=1, max_size=6))
    return np.array(tweets, dtype=np.float64), np.array(articles, dtype=np.float64)


@settings(max_examples=300, deadline=None)
@given(row_matrices())
@example((np.array([[3.0]]), np.array([[-0.5]])))
@example((np.array([[0.0, 0.0]]), np.array([[0.0, 2.0]])))
def test_score_matrix_kernel_matches_row_loop(case):
    tweets, articles = case
    t_ids = [f"t{i}" for i in range(len(tweets))]
    a_ids = [f"a{j}" for j in range(len(articles))]
    expected = score_matrix_reference(dict(zip(t_ids, tweets)), dict(zip(a_ids, articles)), t_ids, a_ids)
    inputs = [
        (_csr(tweets), articles),  # sparse tweets x dense articles, the tfidf path
        (tweets, articles),  # dense x dense, the lda / external / dual path
        (_csr(tweets), _csr(articles)),
        (dict(zip(t_ids, tweets)), dict(zip(a_ids, articles))),
    ]
    for t_rows, a_rows in inputs:
        sim = linker.score_matrix(t_rows, a_rows, t_ids, a_ids)
        assert sim.tweet_ids == tuple(t_ids) and sim.article_ids == tuple(a_ids)
        np.testing.assert_allclose(sim.values, expected, rtol=0, atol=1e-15)
        assert not sim.values[~tweets.any(axis=1)].any()
        assert not sim.values[:, ~articles.any(axis=1)].any()


@settings(max_examples=200, deadline=None)
@given(row_matrices(), st.integers(1, 40))
def test_sparse_dots_do_not_depend_on_blocking(case, cells):
    tweets, articles = case
    csr = _csr(tweets)
    whole = linker._sparse_dots(csr, articles)  # one block at these sizes
    saved = linker._GATHER_CELLS
    linker._GATHER_CELLS = cells
    try:
        blocked = linker._sparse_dots(csr, articles)
    finally:
        linker._GATHER_CELLS = saved
    assert np.array_equal(blocked, whole)
    np.testing.assert_allclose(whole, tweets @ articles.T, rtol=0, atol=1e-13)


def _error_type(fn, *args):
    try:
        fn(*args)
    except TweetLinkError as exc:
        return type(exc)
    return None


def test_score_matrix_errors_match_row_loop():
    t, a = {"t": [1.0, 0.0]}, {"a": [1.0, 0.0]}
    cases = [
        (t, a, ["t"], ["a", "ghost"], MissingEmbeddingError),
        (t, {"a": [1.0, 0.0, 0.0]}, ["t"], ["a"], DimMismatchError),
        ({"t": [[1.0, 0.0]]}, {"a": [[1.0, 0.0]]}, ["t"], ["a"], DimMismatchError),
        (t, a, [], ["a"], EmptyInputError),
        (t, a, ["t"], [], EmptyInputError),
    ]
    for tweets, articles, t_ids, a_ids, error in cases:
        assert _error_type(linker.score_matrix, tweets, articles, t_ids, a_ids) is error
        assert _error_type(score_matrix_reference, tweets, articles, t_ids, a_ids) is error
    rows = np.eye(2)
    for tweets, articles, t_ids in [
        (_csr(rows), np.ones((1, 3)), ["t0", "t1"]),  # widths differ
        (_csr(rows), np.ones((1, 2)), ["t0"]),  # fewer ids than rows
        (rows[0], np.ones((1, 2)), ["t0"]),  # not a row matrix
    ]:
        assert _error_type(linker.score_matrix, tweets, articles, t_ids, ["a0"]) is DimMismatchError
    assert _error_type(linker.score_matrix, np.zeros((0, 2)), rows, [], ["a0", "a1"]) is EmptyInputError


@st.composite
def tfidf_cases(draw):
    """A fitted vocabulary and query documents: empty, all out-of-vocabulary,
    mixed, and a few tokens repeated many times."""
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 10)))]
    fit_docs = draw(st.lists(st.lists(st.sampled_from(vocab), max_size=8), max_size=6))
    fit_docs.append(draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=8)))
    token = st.sampled_from(vocab + ["oov1", "oov2"])
    query = st.one_of(
        st.just([]),
        st.lists(st.sampled_from(["oov1", "oov2"]), min_size=1, max_size=3),
        st.lists(token, max_size=12),
        st.tuples(st.lists(token, min_size=1, max_size=2), st.integers(2, 9)).map(
            lambda case: case[0] * case[1]
        ),
    )
    return fit_docs, draw(st.lists(query, max_size=8))


@settings(max_examples=200, deadline=None)
@given(st.lists(
    st.lists(st.one_of(st.sampled_from(["a", "b", "c", "\u00e9", "B"]), st.text(max_size=2)),
             max_size=10),
    max_size=12,
).filter(any))
@example([["a"]])
@example([[], ["b", "a", "b"], [], ["a", "a", "a"], ["c"]])
def test_tfidf_fit_counts_document_frequency_as_the_reference(docs):
    """idf is ln((1 + N) / (1 + df)) + 1 of the oracle's per-document term
    sets, bit for bit with numpy's log, and within rounding of math.log's."""
    model = vectorize.tfidf_fit(docs)
    n_docs, df = document_frequency_reference(docs)
    terms = model.vocab.terms()
    assert terms == sorted(df) and model.n_docs == n_docs
    counts = np.array([df[t] for t in terms], dtype=np.int64)
    assert model.idf.tobytes() == (np.log((1.0 + n_docs) / (1.0 + counts)) + 1.0).tobytes()
    ref_idf, _transform = tfidf_reference(docs)
    np.testing.assert_allclose(model.idf, [ref_idf[t] for t in terms], rtol=1e-15, atol=0)


@settings(max_examples=200, deadline=None)
@given(tfidf_cases())
def test_tfidf_transform_batch_matches_references(case):
    fit_docs, queries = case
    model = vectorize.tfidf_fit(fit_docs)
    _idf, transform = tfidf_reference(fit_docs)
    rows = vectorize.tfidf_transform_batch(model, queries)
    assert rows.shape == (len(queries), model.vocab.size)
    dense = rows.toarray()
    for r, doc in enumerate(queries):
        cols = rows.indices[rows.indptr[r] : rows.indptr[r + 1]]
        assert (np.diff(cols) > 0).all() and (rows.data[rows.indptr[r] : rows.indptr[r + 1]] > 0).all()
        np.testing.assert_allclose(dense[r], tfidf_transform_reference(model, doc), rtol=0, atol=1e-15)
        by_hand = np.zeros(model.vocab.size)
        for term, weight in transform(doc).items():
            by_hand[model.vocab.index[term]] = weight
        np.testing.assert_allclose(dense[r], by_hand, rtol=0, atol=1e-15)
        assert np.array_equal(vectorize.tfidf_transform(model, doc), dense[r])


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(contrast.STRATEGIES),
    st.sampled_from(["none", "tanh"]),
)
def test_encode_batch_matches_per_document_encode(seed, strategy, nonlinearity):
    rng = np.random.default_rng(seed)
    d, in_t, in_a = (int(n) for n in rng.integers(1, 8, size=3))
    encoder = contrast.DualEncoder(
        tweet_map=contrast.AffineMap(rng.normal(size=(d, in_t)), rng.normal(size=d)),
        article_map=contrast.AffineMap(rng.normal(size=(d, in_a)), rng.normal(size=d)),
        nonlinearity=nonlinearity,
    )
    n_docs = int(rng.integers(1, 6))
    # Some rows are zero, as all-out-of-vocabulary documents are.
    tweets = rng.normal(size=(n_docs, in_t)) * rng.integers(0, 2, size=(n_docs, 1))
    counts = rng.integers(1, 4, size=n_docs) if strategy == "mean_chunks" else np.ones(n_docs, int)
    pieces = rng.normal(size=(int(counts.sum()), in_a))
    starts = np.cumsum(counts) - counts

    got = contrast.encode_batch(encoder, "tweet", tweets)
    for row, x in zip(got, tweets):
        assert np.array_equal(row, contrast.encode(encoder, "tweet", x, strategy))
    got = contrast.encode_batch(encoder, "article", pieces, counts)
    for row, start, n in zip(got, starts, counts):
        features = pieces[start : start + n] if strategy == "mean_chunks" else pieces[start]
        expected = contrast.encode(encoder, "article", features, strategy)
        assert np.array_equal(row, expected)


@st.composite
def lda_cases(draw):
    """A small corpus, priors, a sweep count and a seed for lda_fit.

    Some documents are empty; at least one is not.
    """
    vocab = [f"w{i}" for i in range(draw(st.integers(1, 12)))]
    doc = st.lists(st.sampled_from(vocab), max_size=12)
    docs = draw(st.lists(doc, min_size=1, max_size=8))
    docs.append(draw(st.lists(st.sampled_from(vocab), min_size=1, max_size=12)))
    docs = draw(st.permutations(docs))
    return {
        "docs": docs,
        "n_topics": draw(st.integers(1, 30)),
        "alpha": draw(st.one_of(st.none(), st.floats(0.01, 5.0))),
        "beta": draw(st.one_of(st.just(0.01), st.floats(0.001, 2.0))),
        "iters": draw(st.integers(1, 4)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _ll_tolerance(expected, counts, alpha, beta):
    """1e-12 relative, plus the gammaln oracle's own rounding of its terms."""
    return 1e-12 * max(1.0, abs(expected)) + gammaln_ll_rounding(*counts, alpha, beta)


def _assert_log_likelihood(model, counts, log_likelihood):
    """The model's LL is _gibbs_counts_ll of the oracle chain's final counts,
    bit for bit, and agrees with the oracle's gammaln formula."""
    assert model.log_likelihood == vectorize._gibbs_counts_ll(*counts, model.alpha, model.beta)
    tolerance = _ll_tolerance(log_likelihood, counts, model.alpha, model.beta)
    assert abs(model.log_likelihood - log_likelihood) <= tolerance


@st.composite
def count_tables(draw):
    """Random topic-word and document-topic count tables, with their margins."""
    n_topics, vocab_size, n_docs = (draw(st.integers(1, 12)) for _ in range(3))
    high = draw(st.integers(0, 200))

    def table(shape):
        flat = draw(st.lists(st.integers(0, high), min_size=shape[0] * shape[1],
                             max_size=shape[0] * shape[1]))
        return np.array(flat, dtype=np.int64).reshape(shape)

    n_kw, n_dk = table((n_topics, vocab_size)), table((n_docs, n_topics))
    return n_kw, n_kw.sum(axis=1), n_dk, n_dk.sum(axis=1)


def _zero_counts(n_topics, vocab_size, n_docs):
    n_kw, n_dk = np.zeros((n_topics, vocab_size), np.int64), np.zeros((n_docs, n_topics), np.int64)
    return n_kw, n_kw.sum(axis=1), n_dk, n_dk.sum(axis=1)


@settings(max_examples=300, deadline=None)
@given(count_tables(), st.floats(0.001, 50.0), st.floats(0.0001, 5.0))
# _gibbs_counts_ll gives exactly 0.0; the oracle's ln Gamma terms of about
# 1,300 cancel to 1.8e-12, beyond 1e-12 relative of a result below 1.
@example(_zero_counts(6, 1, 5), 47.0, 1.0)
def test_gibbs_counts_ll_matches_the_gammaln_formula(counts, alpha, beta):
    got = vectorize._gibbs_counts_ll(*counts, alpha, beta)
    expected = gammaln_ll_reference(*counts, alpha, beta)
    assert abs(got - expected) <= _ll_tolerance(expected, counts, alpha, beta)


# Draw every step in blocks, every step row by row, or the default mix.
row_step_limits = st.sampled_from([0, vectorize._ROW_STEP_MAX, 10**9])


@settings(max_examples=100, deadline=None)
@given(lda_cases(), row_step_limits)
def test_lda_fit_matches_reference(case, row_step_max):
    with mock.patch.object(vectorize, "_ROW_STEP_MAX", row_step_max):
        model = vectorize.lda_fit(**case)
    phi, log_likelihood, _n_dk, counts = lda_fit_steps_reference(**case, counts=True)
    assert np.array_equal(model.phi, phi)
    _assert_log_likelihood(model, counts, log_likelihood)


def _theta_from_counts(docs, n_dk, alpha):
    """(n_dk + alpha) / (n_d + K alpha) per nonempty document, uniform rows for empty ones."""
    n_topics = n_dk.shape[1]
    theta = np.full((len(docs), n_topics), 1.0 / n_topics)
    nonempty = [d for d, doc in enumerate(docs) if doc]
    theta[nonempty] = (n_dk + alpha) / (n_dk.sum(axis=1) + n_topics * alpha)[:, None]
    return theta


@settings(max_examples=100, deadline=None)
@given(lda_cases(), st.lists(st.integers(0, 9), min_size=1, max_size=3))
def test_lda_fit_theta_is_the_final_counts_of_the_chain(case, empty_at):
    """theta row d is document d's topic share in the oracle's final counts."""
    for at in empty_at:
        case["docs"].insert(min(at, len(case["docs"])), [])
    model = vectorize.lda_fit(**case)
    _phi, _ll, n_dk = lda_fit_steps_reference(**case)
    assert_array_equal(model.theta, _theta_from_counts(case["docs"], n_dk, model.alpha))
    assert np.allclose(model.theta.sum(axis=1), 1.0)
    uniform = vectorize.lda_infer_batch(model, [[]])[0]
    for row, doc in zip(model.theta, case["docs"]):
        if not doc:
            assert_array_equal(row, uniform)


@st.composite
def long_document_cases(draw):
    """lda_cases plus one document holding at least 80% of the tokens, and
    at least four other nonempty documents, so a sweep has block steps (more
    than _ROW_STEP_MAX documents active) and row steps (the long tail)."""
    case = draw(lda_cases())
    vocab = sorted({t for doc in case["docs"] for t in doc})
    short_doc = st.lists(st.sampled_from(vocab), min_size=1, max_size=12)
    docs = case["docs"] + draw(st.lists(short_doc, min_size=4, max_size=4))
    n_short = sum(map(len, docs))
    long_doc = draw(st.lists(st.sampled_from(vocab), min_size=4 * n_short, max_size=4 * n_short + 20))
    docs.insert(draw(st.integers(0, len(docs))), long_doc)
    return {**case, "docs": docs}


@settings(max_examples=30, deadline=None)
@given(long_document_cases())
def test_lda_fit_with_one_long_document_matches_reference(case):
    lens = [len(doc) for doc in case["docs"] if doc]
    assert max(lens) >= 0.8 * sum(lens)
    active = vectorize._position_major(lens)[2]
    n_row_steps = int((active <= vectorize._ROW_STEP_MAX).sum())
    assert 0 < n_row_steps < len(active)  # both kinds of step occur
    row_step = vectorize._DocumentGibbs._row_step
    with mock.patch.object(
        vectorize._DocumentGibbs, "_row_step", autospec=True, side_effect=row_step
    ) as spy:
        model = vectorize.lda_fit(**case)
    assert spy.call_count == case["iters"] * n_row_steps
    phi, log_likelihood, n_dk, counts = lda_fit_steps_reference(**case, counts=True)
    assert np.array_equal(model.phi, phi)
    _assert_log_likelihood(model, counts, log_likelihood)
    assert_array_equal(model.theta, _theta_from_counts(case["docs"], n_dk, model.alpha))


@settings(max_examples=100, deadline=None)
@given(lda_cases(), row_step_limits)
def test_lda_fit_on_one_document_matches_sequential_reference(case, row_step_max):
    """With one nonempty document the parallel steps are the token-by-token sweep."""
    first = next(i for i, doc in enumerate(case["docs"]) if doc)
    case["docs"] = [doc if i == first else [] for i, doc in enumerate(case["docs"])]
    with mock.patch.object(vectorize, "_ROW_STEP_MAX", row_step_max):
        model = vectorize.lda_fit(**case)
    phi, log_likelihood, counts = lda_fit_reference(**case, counts=True)
    assert np.array_equal(model.phi, phi)
    _assert_log_likelihood(model, counts, log_likelihood)


@settings(max_examples=100, deadline=None)
@given(lda_cases())
def test_lda_documents_sweep_keeps_counts_equal_to_assignments(case):
    docs = [doc for doc in case["docs"] if doc]
    vocab = vectorize.Vocabulary.from_terms(t for doc in docs for t in doc)
    word_ids = [[vocab.index[t] for t in doc] for doc in docs]
    n_topics, beta = case["n_topics"], case["beta"]
    rng = np.random.default_rng(case["seed"])
    gibbs = vectorize._DocumentGibbs(word_ids, n_topics, vocab.size, 0.5, beta, rng)
    words = np.concatenate(word_ids)
    doc_of = np.repeat(np.arange(len(docs)), [len(w) for w in word_ids])
    for _ in range(case["iters"] + 1):
        z = gibbs.z[gibbs.slot]  # topics in document order
        n_dk = np.zeros((len(docs), n_topics), dtype=np.int64)
        n_kw = np.zeros((n_topics, vocab.size), dtype=np.int64)
        np.add.at(n_dk, (doc_of, z), 1)
        np.add.at(n_kw, (z, words), 1)
        got_kw, got_k, got_dk = gibbs.counts()
        assert np.array_equal(got_kw, n_kw)
        assert np.array_equal(got_k, n_kw.sum(axis=1))
        assert np.array_equal(got_dk, n_dk)
        assert np.array_equal(gibbs.words[gibbs.slot], words)
        gibbs.sweep(rng.random(len(words)))


@settings(max_examples=100, deadline=None)
@given(lda_cases(), st.data())
def test_lda_infer_batch_rows_match_reference(case, data):
    model = vectorize.lda_fit(**{**case, "iters": 1})
    known = sorted(model.vocab.index)
    token = st.sampled_from(known + ["oov1", "oov2"])
    queries = data.draw(
        st.lists(
            st.one_of(
                st.lists(token, max_size=30),
                st.lists(st.sampled_from(["oov1", "oov2"]), min_size=1, max_size=3),
            ),
            max_size=8,
        )
    )
    queries += case["docs"]
    iters = data.draw(st.integers(1, 5))
    seed = data.draw(st.integers(0, 2**32 - 1))
    theta = vectorize.lda_infer_batch(model, queries, iters=iters, seed=seed)
    assert theta.shape == (len(queries), case["n_topics"])
    for row, doc in zip(theta, queries):
        expected = lda_infer_reference(model.phi, model.vocab.index, model.alpha, doc, iters, seed)
        assert np.array_equal(row, expected)


@st.composite
def draw_cases(draw):
    """Nondecreasing rows with repeated values, and per row a target at most
    its last value: one of its cells, its last value, or a share of it."""
    n_topics = draw(st.integers(1, 25))
    step = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 10.0))
    rows = draw(st.lists(st.lists(step, min_size=n_topics, max_size=n_topics), min_size=1, max_size=6))
    cum = np.cumsum(rows, axis=1)
    targets = [
        draw(st.one_of(
            st.sampled_from(row.tolist()),
            st.just(row[-1]),
            st.floats(0.0, 1.0).map(lambda u: u * row[-1]),
        ))
        for row in cum
    ]
    return cum, np.array(targets)[:, None]


@settings(max_examples=200, deadline=None)
@given(draw_cases())
def test_draw_is_searchsorted_left(case):
    cum, targets = case
    expected = [np.searchsorted(row, target, side="left") for row, target in zip(cum, targets[:, 0])]
    assert_array_equal(vectorize._draw(cum, targets), expected)


def _sparse_rows(rng, n_rows, n_cols):
    """CsrRows with 0-4 nonzeros per row, so some rows are all zero."""
    cols = [
        np.sort(rng.choice(n_cols, size=min(int(rng.integers(0, 5)), n_cols), replace=False))
        for _ in range(n_rows)
    ]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum([len(c) for c in cols], out=indptr[1:])
    indices = np.concatenate(cols).astype(np.int64)
    return CsrRows(indptr, indices, rng.random(len(indices)) + 0.1, n_cols)


@st.composite
def training_cases(draw):
    """Features, positives, strategy and config for one contrast.train call.

    Feature values come from a drawn seed, not drawn floats, so exact hinge
    ties (cos == margin) do not occur. Rows are either sparse and
    L2-normalized with 0-3 nonzeros (TF-IDF-like; zero nonzeros is an
    all-out-of-vocabulary document) or dense topic proportions (LDA-like,
    K = 3-20).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    strategy = draw(st.sampled_from(contrast.STRATEGIES))
    dense = draw(st.booleans())
    dim = draw(st.integers(3, 20)) if dense else draw(st.integers(4, 60))

    def row():
        if dense:
            return rng.dirichlet(np.ones(dim))
        vec = np.zeros(dim)
        cols = rng.choice(dim, size=int(rng.integers(0, 4)), replace=False)
        vec[cols] = rng.random(len(cols)) + 0.1
        return vec / np.linalg.norm(vec) if len(cols) else vec

    def pieces():
        if strategy == "truncate":
            return row()
        return np.stack([row() for _ in range(int(rng.integers(1, 4)))])

    n_tweets = draw(st.integers(1, 6))
    n_articles = draw(st.integers(2, 5))
    tweets = {f"t{i}": row() for i in range(n_tweets)}
    articles = {f"a{j}": pieces() for j in range(n_articles)}
    positives = []
    for t in tweets:
        linked = rng.choice(n_articles, size=int(rng.integers(1, n_articles)), replace=False)
        positives += [(t, f"a{j}") for j in sorted(linked)]
    cfg = contrast.TrainConfig(
        neg_ratio=draw(st.sampled_from([0.5, 1.0, 2.0])),
        lr=draw(st.sampled_from([0.05, 0.5])),
        epochs=draw(st.integers(0, 5)),
        batch_size=draw(st.one_of(st.integers(1, 9), st.just(10**6))),
        seed=draw(st.integers(0, 1000)),
        margin=draw(st.sampled_from([0.0, 0.3])),
        nonlinearity=draw(st.sampled_from(["none", "tanh"])),
        momentum=draw(st.sampled_from([0.0, 0.9])),
        joint_dim=draw(st.integers(1, 6)),
    )
    return positives, tweets, articles, cfg, strategy


@settings(max_examples=300, deadline=None)
@given(training_cases())
def test_resolved_examples_match_reference_pairs(case):
    positives, tweets, articles, cfg, strategy = case
    tweet_x, tweet_ids, _ = contrast._feature_rows(tweets, None, None, "tweet")
    piece_x, article_ids, counts = contrast._feature_rows(articles, None, None, "article")
    tweet_rows, piece_rows = tweet_x.toarray(), piece_x.toarray()
    examples = contrast.build_training_pairs(positives, tweet_ids, article_ids, counts, cfg, strategy)
    pairs = build_training_pairs_reference(*case)
    assert len(examples) == len(pairs)
    for (t_row, first, n, y), pair in zip(examples.tolist(), pairs):
        assert_array_equal(tweet_rows[t_row], pair.x_tweet, strict=True)
        pieces = pair.x_article if strategy == "mean_chunks" else pair.x_article[None]
        assert_array_equal(piece_rows[first : first + n], pieces, strict=True)
        assert y == pair.y


def _multi_piece_case(momentum, nonlinearity="none"):
    """mean_chunks; tweets have 6 columns and every article 2-4 pieces over 5,
    so its pieces share columns. The affine encoder trains on their mean row,
    tanh on the pieces themselves."""
    rng = np.random.default_rng(5)
    tweets = {f"t{i}": rng.random(6) for i in range(5)}
    articles = {
        f"a{j}": rng.random((2 + j % 3, 5)) * (rng.random((2 + j % 3, 5)) < 0.6) for j in range(4)
    }
    positives = [(f"t{i}", f"a{i % 4}") for i in range(5)]
    cfg = contrast.TrainConfig(
        lr=0.5, epochs=4, batch_size=3, seed=2, momentum=momentum, joint_dim=3,
        nonlinearity=nonlinearity,
    )
    return positives, tweets, articles, cfg, "mean_chunks"


def _two_width_case():
    """Sparse tweet rows over 30 columns, three of them all zero, and article rows over 8."""
    rng = np.random.default_rng(11)
    x_t, x_a = _sparse_rows(rng, 7, 30).toarray(), _sparse_rows(rng, 4, 8).toarray()
    tweets = {f"t{i}": row for i, row in enumerate(x_t)}
    articles = {f"a{j}": row for j, row in enumerate(x_a)}
    positives = [(f"t{i}", f"a{i % 4}") for i in range(7)]
    cfg = contrast.TrainConfig(lr=0.5, epochs=3, batch_size=3, seed=4, joint_dim=4)
    return positives, tweets, articles, cfg, "truncate"


@settings(max_examples=300, deadline=None)
@given(training_cases())
@example(_multi_piece_case(momentum=0.0))
@example(_multi_piece_case(momentum=0.9))
def test_train_matches_dense_reference(case):
    encoder, trace = contrast.train(*case)
    w_t, b_t, w_a, b_a, ref_trace = train_reference(*case)
    for got, want in (
        (encoder.tweet_map.weight, w_t),
        (encoder.tweet_map.bias, b_t),
        (encoder.article_map.weight, w_a),
        (encoder.article_map.bias, b_a),
        (trace, ref_trace),
    ):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)


def _seven_example_case(batch_size):
    """7 examples: t0 has 2 positives and t1, t2 one each, and neg_ratio 0.5
    draws 1 negative per tweet. Batch size 4 gives batches of 4 and 3, and
    batch size 3 gives 3, 3 and 1, so each takes a power-of-two and another
    batch."""
    rng = np.random.default_rng(13)
    tweets = {f"t{i}": rng.random(5) * (rng.random(5) < 0.7) for i in range(3)}
    articles = {f"a{j}": rng.random(4) for j in range(4)}
    positives = [("t0", "a0"), ("t0", "a1"), ("t1", "a2"), ("t2", "a3")]
    cfg = contrast.TrainConfig(
        neg_ratio=0.5, lr=0.5, epochs=3, batch_size=batch_size, seed=6, momentum=0.9, joint_dim=3,
    )
    return positives, tweets, articles, cfg, "truncate"


@settings(max_examples=300, deadline=None)
@given(training_cases())
@example(_multi_piece_case(momentum=0.0))
@example(_multi_piece_case(momentum=0.9))
@example(_multi_piece_case(momentum=0.5, nonlinearity="tanh"))
@example(_two_width_case())
@example(_seven_example_case(batch_size=4))
@example(_seven_example_case(batch_size=3))
def test_train_matches_stepwise_reference_exactly(case):
    encoder, trace = contrast.train(*case)
    w_t, b_t, w_a, b_a, ref_trace = train_stepwise_reference(*case)
    assert np.array_equal(encoder.tweet_map.weight, w_t)
    assert np.array_equal(encoder.tweet_map.bias, b_t)
    assert np.array_equal(encoder.article_map.weight, w_a)
    assert np.array_equal(encoder.article_map.bias, b_a)
    assert trace == ref_trace


def _dense_rows(rng, n_rows, n_cols):
    """CsrRows with every cell nonzero, except some rows that are all zero."""
    values = (rng.random((n_rows, n_cols)) + 0.1) * (rng.random((n_rows, 1)) < 0.8)
    rows, cols = np.nonzero(values)
    indptr = np.searchsorted(rows, np.arange(n_rows + 1))
    return CsrRows(indptr, cols, values[rows, cols], n_cols)


def _bitmap_plan(case):
    """Whether contrast._epoch_blocks plans `case` on its bitmap path: at most
    _BITMAP_CELLS_PER_NONZERO cells of n_batches x stacked width per nonzero."""
    cells = len(case[0][1]) * sum(csr.n_cols for csr, _ in case)
    nonzeros = sum(int(np.diff(csr.indptr)[np.concatenate(batches)].sum()) for csr, batches in case)
    return cells <= contrast._BITMAP_CELLS_PER_NONZERO * nonzeros


@st.composite
def epoch_gather_cases(draw):
    """[(tweet CsrRows, batches), (article CsrRows, batches)]: each tower's
    rows over its own width, and the rows of each of the same 1-5 batches
    (1-6 of them, repeats allowed). Rows are sparse over 1-40 columns, sparse
    over 200-2,000 (far more cells per nonzero than the bitmap plan takes),
    or dense over 1-12, so cases fall on both sides of
    contrast._BITMAP_CELLS_PER_NONZERO. In one batch, a tower's rows may all
    be zero, which gives that tower a zero-width block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_batches = draw(st.integers(1, 5))
    widths = {"narrow": (1, 40), "wide": (200, 2000), "dense": (1, 12)}
    kind = draw(st.sampled_from(sorted(widths)))
    towers = []
    for _ in range(2):
        n_rows, n_cols = draw(st.integers(1, 12)), draw(st.integers(*widths[kind]))
        csr = (_dense_rows if kind == "dense" else _sparse_rows)(rng, n_rows, n_cols)
        zero_rows = np.flatnonzero(np.diff(csr.indptr) == 0)
        batches = [rng.integers(0, n_rows, size=int(rng.integers(1, 7))) for _ in range(n_batches)]
        if len(zero_rows) and draw(st.booleans()):
            k = draw(st.integers(0, n_batches - 1))
            batches[k] = rng.choice(zero_rows, size=int(rng.integers(1, 4)))
        towers.append((csr, batches))
    return towers


def _zero_width_blocks_case():
    """Tweet width 3 and article width 7. Batch 0's tweet rows are all zero,
    and so are batch 1's article rows."""
    x_t = CsrRows(np.array([0, 0, 2]), np.array([0, 2]), np.array([0.5, 1.5]), 3)
    x_a = CsrRows(np.array([0, 3, 3]), np.array([1, 4, 6]), np.array([1.0, 2.0, 3.0]), 7)
    return [(x_t, [np.array([0, 0]), np.array([1, 0])]), (x_a, [np.array([0]), np.array([1, 1])])]


def _wide_sparse_case():
    """2 batches over 600 + 400 columns with 10 nonzeros: 200 cells per nonzero."""
    x_t = CsrRows(np.array([0, 2, 3, 5]), np.array([7, 599, 300, 0, 42]), np.arange(1.0, 6.0), 600)
    x_a = CsrRows(np.array([0, 1, 3]), np.array([399, 5, 17]), np.array([0.5, 1.5, 2.5]), 400)
    return [(x_t, [np.array([0, 1]), np.array([2])]), (x_a, [np.array([1]), np.array([0, 1])])]


def _dense_case():
    """3 batches of dense rows over 3 + 4 columns: fewer cells than nonzeros."""
    rng = np.random.default_rng(3)
    x_t, x_a = _dense_rows(rng, 5, 3), _dense_rows(rng, 4, 4)
    batches_t = [np.array([0, 4]), np.array([1, 2, 3]), np.array([4])]
    batches_a = [np.array([3]), np.array([0, 1]), np.array([2, 2, 3])]
    return [(x_t, batches_t), (x_a, batches_a)]


@settings(max_examples=300, deadline=None)
@given(epoch_gather_cases(), st.none())
@example(_zero_width_blocks_case(), None)
@example(_wide_sparse_case(), False)
@example(_dense_case(), True)
def test_epoch_gather_matches_per_batch_gather(case, bitmap):
    """Each tower's block of batch k is that tower's rows gathered on their
    own, on either plan path; an example names the path it takes."""
    if bitmap is not None:
        assert _bitmap_plan(case) == bitmap
    event("bitmap plan" if _bitmap_plan(case) else "np.unique plan")
    (x_t, batches_t), (x_a, batches_a) = case
    plan_args = []
    for batches in (batches_t, batches_a):
        sizes = [len(rows) for rows in batches]
        plan_args += [np.concatenate(batches), np.repeat(np.arange(len(batches)), sizes)]
    blocks = list(contrast._epoch_blocks(x_t, x_a, *plan_args, len(batches_t)))
    assert len(blocks) == len(batches_t)
    for (u, bx_t, bx_a), rows_t, rows_a in zip(blocks, batches_t, batches_a):
        n_t = bx_t.shape[1]
        for got_u, block, csr, rows in (
            (u[:n_t], bx_t, x_t, rows_t),
            (u[n_t:] - x_t.n_cols, bx_a, x_a, rows_a),
        ):
            want_u, want_block = _gather_rows((csr.indptr, csr.indices, csr.data), rows)
            assert got_u.shape == want_u.shape and block.shape == want_block.shape
            assert_array_equal(got_u, want_u)
            assert_array_equal(block, want_block, strict=True)


@st.composite
def grouped_rows(draw):
    """(CsrRows, counts): groups of 1-4 sparse rows, row j of the result
    pooling the next counts[j] rows. Few columns make a group's rows share
    columns; some rows are all zero, some entries are +-0.5 and can cancel,
    and trailing rows may belong to no group."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    counts = np.array(draw(st.lists(st.integers(1, 4), min_size=1, max_size=6)))
    n_rows = int(counts.sum()) + draw(st.integers(0, 2))
    n_cols = draw(st.integers(1, 8))
    cols = [
        np.sort(rng.choice(n_cols, size=min(int(rng.integers(0, 5)), n_cols), replace=False))
        for _ in range(n_rows)
    ]
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum([len(c) for c in cols], out=indptr[1:])
    indices = np.concatenate(cols).astype(np.int64)
    values = np.where(rng.random(len(indices)) < 0.3, 0.5, rng.normal(size=len(indices)))
    values *= rng.choice([-1.0, 1.0], size=len(indices))
    return CsrRows(indptr, indices, values, n_cols), counts


@settings(max_examples=300, deadline=None)
@given(grouped_rows())
def test_mean_rows_match_the_dense_mean_of_each_group(case):
    csr, counts = case
    pooled = contrast._mean_rows(csr, counts)
    dense = csr.toarray()
    firsts = np.cumsum(counts) - counts
    want = np.array([mean_rows_reference(dense[f : f + n]) for f, n in zip(firsts, counts)])
    assert pooled.shape == want.shape
    assert_array_equal(pooled.toarray(), want, strict=True)
    # Rows in canonical form: increasing columns and no stored zero.
    assert (pooled.data != 0).all()
    for r in range(len(counts)):
        assert (np.diff(pooled.indices[pooled.indptr[r] : pooled.indptr[r + 1]]) > 0).all()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 6), st.sampled_from([0.0, 0.3]))
@example(6, 5, 4, 0.3)  # every norm positive: the kernel skips its masks
@example(0, 5, 4, 0.3)  # some norm zero
def test_batch_loss_kernel_matches_linalg_norm_kernel(seed, rows, dim, margin):
    rng = np.random.default_rng(seed)
    scale = rng.choice([0.0, 1e-3, 1.0, 1e3], size=(2, rows, 1))  # 0.0 makes all-zero rows
    e = rng.normal(size=(2, rows, dim)) * scale
    y = rng.choice([-1.0, 1.0], size=rows)
    losses, grads = contrast._loss_and_grads(e, y, margin)
    want_losses, want_t, want_a = batch_loss_and_grads_reference(e[0], e[1], y, margin)
    assert np.array_equal(losses, want_losses)
    assert np.array_equal(grads[0], want_t)
    assert np.array_equal(grads[1], want_a)


# Signed zeros, subnormals and values near the float64 limits, which a
# lossy float text or byte encoding would change.
_EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                1.7976931348623157e308, 0.1, -1 / 3]


@st.composite
def encoders(draw):
    d, in_t, in_a = draw(st.integers(1, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    value = st.one_of(
        st.sampled_from(_EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
    )

    def array(*shape):
        return np.array(draw(st.lists(value, min_size=int(np.prod(shape)),
                                      max_size=int(np.prod(shape))))).reshape(shape)

    return contrast.DualEncoder(
        tweet_map=contrast.AffineMap(array(d, in_t), array(d)),
        article_map=contrast.AffineMap(array(d, in_a), array(d)),
        nonlinearity=draw(st.sampled_from(["none", "tanh"])),
    )


@settings(max_examples=200, deadline=None)
@given(encoders())
def test_encoder_files_load_bit_for_bit(encoder):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "encoder.json"
        contrast.save_encoder(encoder, path, contrast.TrainConfig())
        got = contrast.load_encoder(path)
    assert got.nonlinearity == encoder.nonlinearity
    for side in ("tweet_map", "article_map"):
        for name in ("weight", "bias"):
            want = getattr(getattr(encoder, side), name)
            have = getattr(getattr(got, side), name)
            assert have.shape == want.shape and have.tobytes() == want.tobytes()


# --- JSONL reading and the ground truth -----------------------------------------

# Characters that may sit around a value. Only the first four are JSON
# whitespace; "\r" also ends a line when the file is read back; all but the
# BOM are whitespace to str.strip, so a line of them alone is blank.
PADS = ["", " ", "\t", "\r", "\ufeff", "\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"]

# No lone surrogates: lines are written to the file as UTF-8.
texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | texts,
    lambda kids: st.lists(kids, max_size=3) | st.dictionaries(texts, kids, max_size=3),
    max_leaves=6,
)


@st.composite
def jsonl_lines(draw):
    """One line of text: a value, a bad literal or nothing, between pads."""
    value = draw(json_values)
    body = draw(
        st.sampled_from(
            [
                json.dumps({"v": value}),
                json.dumps(value, ensure_ascii=False),
                '{"v": NaN}',
                '{"v": -Infinity}',
                '{"a": 1, "a": 2}',
                '{"a": ',
                "nul",
                "",
            ]
        )
    )
    tail = draw(st.sampled_from(["", " x", ' {"b": 2}', "]", "[]", ","]))
    pads = st.lists(st.sampled_from(PADS), max_size=2).map("".join)
    return draw(pads) + body + draw(st.sampled_from([tail, ""])) + draw(pads)


def _write(text: str, lines) -> Path:
    path = Path(text) / "data.jsonl"
    path.write_text("\n".join(lines), encoding="utf-8", newline="")
    return path


def _outcome(fn, *args):
    """fn's result as a repr, or the error it raised: (type, message, line)."""
    try:
        return repr(list(fn(*args)))
    except TweetLinkError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)


@settings(max_examples=300, deadline=None)
@given(st.lists(jsonl_lines(), min_size=1, max_size=5), st.booleans())
@example(['\ufeff{"a": 1}'], True)
@example(['\x0b{"a": 1}'], True)
@example(['{"a": 1}\x1c'], True)
@example([' {"a": 1}\t\r', '{"a": 2}\xa0'], False)
@example(['{"a": 1} {"b": 2}'], True)
@example(['{"a": 1}x'], False)
@example(['{"v": NaN}', '{"v": Infinity}', ' {"v": -Infinity} '], True)
@example(["", "  ", "\x0b", "\u2028\x1c", '{"a": 1}', "\t", "[1]"], True)
@example(['{"a": 1' + "0" * 5000 + "}", '{"b": 2}'], True)  # past int()'s digit limit
def test_iter_jsonl_matches_json_loads(lines, final_newline):
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(tmp, lines + [""] if final_newline else lines)
        assert _outcome(corpus._iter_jsonl, path) == _outcome(iter_jsonl_reference, path)


pair_ids = st.one_of(
    st.sampled_from(["t1", "t2", "a1"]), st.integers(-2, 2), st.none(), st.floats(-1, 1),
    st.lists(st.integers(0, 2), max_size=2), st.booleans(), st.just({}),
)
bad_labels = st.one_of(
    st.sampled_from(["maybe", "Match", ""]), st.none(), st.integers(0, 2),
    st.just([]), st.just({}), st.just(["match"]),
)


@st.composite
def pair_lines(draw):
    """A pairs.jsonl line: mostly valid, else missing a field, holding a bad
    label, not an object, malformed or blank."""
    obj = {
        "tweet_id": draw(pair_ids),
        "article_id": draw(pair_ids),
        "label": draw(st.sampled_from(corpus.PAIR_LABELS)),
        **draw(st.dictionaries(st.sampled_from(["note", "score"]), json_values, max_size=1)),
    }
    fault = draw(st.integers(0, 12))
    if fault < 3:
        del obj[("tweet_id", "article_id", "label")[fault]]
    elif fault < 5:
        obj["label"] = draw(bad_labels)
    elif fault == 5:
        return json.dumps(list(obj.values()))
    elif fault == 6:
        return draw(st.sampled_from(["{", "  ", "\x0b", '"match"', "7"]))
    items = list(obj.items())
    return json.dumps(dict(draw(st.permutations(items))))


# Ids as write_pairs may meet them: plain, or holding a character json.dumps
# escapes (quote, backslash, control, non-ASCII), or one it writes as is.
# Non-ASCII characters of 2, 3 and 4 UTF-8 bytes put an id's byte offsets
# off its character offsets.
write_pairs_ids = st.one_of(
    st.sampled_from(["t1", "t2", "a1", "", "x y"]),
    st.text(st.sampled_from('ab"\\\x00\x1f\x7f\xe9\u2028\u65b0\U0001F600 {}:,'), max_size=3),
)


@st.composite
def write_pairs_lines(draw):
    """A line in write_pairs' form, non-ASCII escaped or not, at times padded."""
    obj = {
        "tweet_id": draw(write_pairs_ids),
        "article_id": draw(write_pairs_ids),
        "label": draw(st.sampled_from(corpus.PAIR_LABELS)),
    }
    line = json.dumps(obj, ensure_ascii=draw(st.booleans()))
    if draw(st.integers(0, 9)) == 0:
        line = draw(st.sampled_from(PADS)) + line + draw(st.sampled_from(PADS))
    return line


@st.composite
def pairs_files(draw):
    """Text of a pairs file: write_pairs lines, any pair lines, or both mixed
    with blank ones, ended by a drawn line end, with or without a final one."""
    line = draw(st.sampled_from([
        write_pairs_lines(), pair_lines(),
        st.one_of(write_pairs_lines(), pair_lines(), st.sampled_from(PADS)),
    ]))
    lines = draw(st.lists(line, max_size=12))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = end.join(lines)
    return text + end if lines and draw(st.booleans()) else text


_PAIR = '{"tweet_id": "t1", "article_id": "a1", "label": "match"}'


@settings(max_examples=400, deadline=None)
@given(pairs_files(), st.integers(1, 200))
@example("\n".join([_PAIR, '{"tweet_id": "t1", "label": "match"}']), 200)
@example("\n".join([_PAIR, '{"article_id": "a1"}']), 200)
@example("\n".join(["", _PAIR, '["t1", "a1", "match"]']), 200)
@example("\n".join([_PAIR, _PAIR, '{"tweet_id": "t1", "article_id": "a1", "label": "maybe"}']), 1)
@example("\n".join([_PAIR, '{"tweet_id": 5, "article_id": null, "label": []}']), 200)
@example("\n".join([_PAIR, '{"tweet_id": true, "article_id": [1], "label": "match"}']), 200)
@example("\n".join([_PAIR, '{"tweet_id": 1' + "0" * 5000 + ', "article_id": "a1"}']), 200)
@example('{"tweet_id": "t1", "article_id": "a1", "label": {}}', 200)
@example(_PAIR + "\n" + _PAIR, 1)  # no final newline
@example(_PAIR + "\n\n" + _PAIR + "\n", 1)  # a blank line
@example("\ufeff" + _PAIR + "\n", 200)  # a BOM before the brace
@example(_PAIR + " \n", 200)  # a space before the newline
@example(_PAIR + "\r\n" + _PAIR.replace("t1", "t\\u00e9") + "\r\n", 1)
@example(_PAIR + "\n" + _PAIR.replace('"match"', '"maybe"') + "\n", 60)
@example(_PAIR.replace("t1", "t\x01") + "\n", 200)  # raw control characters
@example(_PAIR.replace("a1", "a\t") + "\n", 200)
def test_load_pair_table_matches_per_pair_loader(text, block_chars):
    """Any file, in blocks of any size: the outcome of the per-line oracle,
    whichever path parses it."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        want = _outcome(load_pairs_reference, path)
        with mock.patch.object(corpus, "_PAIR_BLOCK_CHARS", block_chars):
            assert _outcome(corpus.load_pair_table, path) == want
            assert _outcome(corpus.load_pairs, path) == want


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(write_pairs_ids, write_pairs_ids, st.sampled_from(corpus.PAIR_LABELS)),
             min_size=1, max_size=12),
    st.sampled_from(["\r\n", "\r", "\n"]),
    st.booleans(),
    st.integers(1, 200),
)
@example([("t\u00e9", "\u65b0", "match")] * 3, "\r", True, 1)
@example([("t1", "a1", "match"), ("\U0001F600", "a", "unknown")], "\r\n", True, 60)
def test_load_pair_table_reads_line_ends_as_text_mode(rows, end, final_end, block_bytes):
    """A file of write_pairs lines with raw non-ASCII ids and any line end,
    read as bytes in blocks of any size: the per-line oracle's outcome, which
    reads the file as text. Every block whose lines are all in write_pairs'
    form is coded with array operations, after its "\r"s are translated."""
    lines = [json.dumps({"tweet_id": t, "article_id": a, "label": label}, ensure_ascii=False)
             for t, a, label in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pairs.jsonl"
        path.write_text(end.join(lines) + (end if final_end else ""), encoding="utf-8",
                        newline="")
        want = _outcome(load_pairs_reference, path)
        parse = corpus._parse_pair_lines
        with mock.patch.object(corpus, "_PAIR_BLOCK_CHARS", block_bytes), \
                mock.patch.object(corpus, "_parse_pair_lines", side_effect=parse) as spy:
            assert _outcome(corpus.load_pair_table, path) == want
    if final_end and all(map(WRITE_PAIRS_LINE.fullmatch, lines)):
        assert spy.call_count == 0


# A field of any JSON kind, or absent: every kind a line format's table
# must sort. Integers of over 400 digits are ids as any other integer, but
# overflow a float64.
ABSENT = object()
big_ints = st.integers(10**400, 10**401) | st.integers(-(10**401), -(10**400))
any_field = st.one_of(
    st.just(ABSENT), st.none(), st.booleans(), st.integers(-3, 3),
    big_ints, st.floats(),
    st.sampled_from(["", "t1", "a1", "tweet", "article", "reply", "match", "skip"]) | texts,
    st.lists(st.one_of(st.integers(0, 2), big_ints, st.floats(), st.booleans(), st.none(),
                       texts, st.just([1])), max_size=2),
    st.dictionaries(st.sampled_from(["n"]), st.integers(0, 1), max_size=1),
)
field_ids = st.sampled_from(["t1", "t2", "a1", "a2", ""]) | st.integers(-2, 2) | st.just(10**400)


@st.composite
def table_lines(draw, valid):
    """A JSONL line of a format: a line `valid` draws (ABSENT: a field left
    out), with up to two fields then redrawn as any kind, its keys in any
    order."""
    obj = draw(valid)
    for name in draw(st.lists(st.sampled_from(list(obj)), max_size=2)):
        obj[name] = draw(any_field)
    items = [(name, value) for name, value in obj.items() if value is not ABSENT]
    return json.dumps(dict(draw(st.permutations(items))))


def _table_file_outcomes(lines, load, oracle):
    """(load's outcome, the oracle's) on a file of `lines`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return _outcome(load, path), _outcome(oracle, path)


@st.composite
def valid_documents(draw):
    """A valid documents line; a tweet has a parent half the time."""
    doc = {
        "id": draw(field_ids),
        "kind": draw(st.sampled_from(corpus.KINDS)),
        "text": draw(texts),
        "created_at": draw(st.integers(-2, 2) | st.just(10**400)),
        "summary": draw(st.just(ABSENT) | st.none() | texts),
        "parent_id": draw(st.just(ABSENT) | st.none()),
        "parent_kind": draw(st.sampled_from([ABSENT, "none"])),
    }
    if doc["kind"] == "tweet" and draw(st.booleans()):
        doc["parent_id"] = draw(field_ids)
        doc["parent_kind"] = draw(st.sampled_from(["reply", "quote"]))
    return doc


_DOC = '{"id": "a1", "kind": "article", "text": "x", "created_at": 1}'


@settings(max_examples=300, deadline=None)
@given(st.lists(table_lines(valid_documents()), min_size=1, max_size=4))
@example([_DOC, '{"id": "a2", "text": "x", "created_at": 1}'])  # no kind
@example([_DOC, _DOC.replace('"a1"', '"t2"').replace("}", ', "parent_kind": 3}')])
@example([_DOC, _DOC.replace('"article"', '"tweet"').replace("}", ', "parent_id": 7, '
                                                                 '"parent_kind": "quote"}')])
@example([_DOC, _DOC.replace('"x"', "[" * 5000 + "]" * 5000)])  # past the recursion limit
@example([_DOC, _DOC.replace('"a1"', "true").replace('"x"', "3")])  # two faults: id first
@example([_DOC, _DOC.replace('"x"', "3")])  # a repeated id after an ill-typed text
def test_load_documents_matches_field_table_oracle(lines):
    got, want = _table_file_outcomes(lines, corpus.load_documents, load_documents_reference)
    assert got == want


PAIR_VALID = st.fixed_dictionaries({
    "tweet_id": field_ids, "article_id": field_ids,
    "label": st.sampled_from(corpus.PAIR_LABELS),
})


@settings(max_examples=300, deadline=None)
@given(st.lists(table_lines(PAIR_VALID), min_size=1, max_size=4))
@example(['{"tweet_id": 1' + "0" * 400 + ', "article_id": "a1", "label": "match"}'])
@example(['{"tweet_id": "t1", "article_id": "a1", "label": ' + "[" * 5000 + "]" * 5000 + "}"])
def test_load_pair_table_matches_field_table_oracle(lines):
    got, want = _table_file_outcomes(lines, corpus.load_pair_table, load_pairs_reference)
    assert got == want


ANNOTATION_VALID = st.fixed_dictionaries({
    "tweet_id": field_ids, "article_id": field_ids, "annotator_id": field_ids,
    "verdict": st.sampled_from(corpus.VERDICTS),
})


@settings(max_examples=300, deadline=None)
@given(st.lists(table_lines(ANNOTATION_VALID), min_size=1, max_size=4))
@example(['{"tweet_id": "t", "article_id": 3, "annotator_id": null, "verdict": "match"}'])
@example(['{"tweet_id": "t", "article_id": 3, "annotator_id": "u", "verdict": "maybe"}'])
def test_load_annotations_matches_field_table_oracle(lines):
    got, want = _table_file_outcomes(lines, corpus.load_annotations, load_annotations_reference)
    assert got == want


def _embedding_rows(path):
    table = corpus.load_embeddings(path)
    return [(doc_id, vec.tolist()) for doc_id, vec in table.vectors.items()]


numbers = st.integers(-3, 3) | st.floats(-1e3, 1e3) | st.just(2**70 + 1) | st.just(1e308)
EMBEDDING_VALID = st.fixed_dictionaries({
    "id": field_ids,
    "vector": st.lists(numbers, min_size=2, max_size=2) | st.lists(numbers, max_size=3),
})


@settings(max_examples=300, deadline=None)
@given(st.lists(table_lines(EMBEDDING_VALID), min_size=1, max_size=4))
@example(['{"id": ["art-0000"], "vector": [1]}'])
@example(['{"id": null, "vector": [1]}', '{"id": true, "vector": [1]}'])
@example(['{"id": "x", "vector": [1, "2"]}'])
@example(['{"id": "x", "vector": [true, false]}'])
@example(['{"id": "x", "vector": [1e308, 1' + "0" * 400 + "]}"])
@example(['{"id": "x", "vector": [NaN, "a"]}'])  # the types are checked first
@example(['{"id": "x", "vector": [[1]]}', '{"id": "x", "vector": []}'])
@example(['{"id": 1' + "0" * 400 + ', "vector": [1' + "0" * 300 + ", 2]}",
          '{"id": "x", "vector": [1]}'])
def test_load_embeddings_matches_field_table_oracle(lines):
    got, want = _table_file_outcomes(lines, _embedding_rows, load_embeddings_reference)
    assert got == want


@st.composite
def pair_blocks(draw):
    """A block of lines in write_pairs' form, non-ASCII escaped or not, with
    up to two edits: a character inserted, deleted or replaced. An edit can
    break a line and keep the block's quote count."""
    lines = [
        json.dumps(
            {"tweet_id": draw(write_pairs_ids), "article_id": draw(write_pairs_ids),
             "label": draw(st.sampled_from(corpus.PAIR_LABELS))},
            ensure_ascii=draw(st.booleans()),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    block = "\n".join(lines) + "\n"
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(block) - 1))
        edit = draw(st.sampled_from(["insert", "replace", "delete"]))
        char = "" if edit == "delete" else draw(st.sampled_from('"\\ x\n\x01\x7f\xe9}'))
        block = block[:at] + char + block[at + (edit != "insert"):]
    return block


def _line(tweet_id, article_id, label="match"):
    return json.dumps({"tweet_id": tweet_id, "article_id": article_id, "label": label},
                      ensure_ascii=False) + "\n"


@settings(max_examples=600, deadline=None)
@given(pair_blocks())
# One line holds an extra quote and the next lacks one: the count is still 12 a line.
@example(_line("t1", "a1").replace("a1", 'a"1') + _line("t2", "a1").replace('a1"', "a1", 1))
@example(_line("t1", "a1").replace('"match"', '"natch"'))  # label look-alikes
@example(_line("t1", "a1") + _line("t2", "a1", "unknown").replace("unknown", "unknowm"))
@example(_line("t1", "a1", "no_match").replace("no_match", "no_matcx"))
@example(_line("", "") + _line("", "a1") + _line("t1", ""))  # empty ids
@example(_line("", ""))  # a line of exactly the minimum length
@example(_line("", "").replace(', "label"', ',"label"'))  # one byte short
# A long id first and short ids last: every key window reaches past the block.
@example(_line("x" * 200, "a" * 3) + _line("t1", "a1") + _line("t1", "a2") + _line("", ""))
@example(_line("\U0001F600" * 64, "\u65b0" * 85) + _line("t", "a"))  # 256 and 255 bytes
# Lines too short for the literals, holding 12 quotes each: first, and last
# after a line long enough that a tweet id's quote is sought 257 bytes on.
@example('"' * 12 + "\n" + _line("t1", "a1"))
@example(_line("x" * 255, "a1") + '"' * 12 + "\n")
# The tail overlaps the article id's opening quote (11 quotes), and the next
# line holds an extra one.
@example('{"tweet_id": "t1", "article_id": ", "label": "match"}\n'
         + _line("t2", "a2").replace("a2", 'a"2'))
@example(_line("y" * 257, "a1") + _line("t1", "a1"))  # an id too long to key
@example(_line("t1", "z" * 257) + _line("t1", "a1"))
def test_array_pair_block_codes_as_the_write_pairs_regex(block):
    """The array path accepts a block's UTF-8 bytes only if every line is in
    write_pairs' form (WRITE_PAIRS_LINE), and then codes it as the regex and
    dicts do. It declines such a block only for an id of over _PAIR_KEY_BYTES
    bytes."""
    want = code_pair_block_reference(block)
    got = corpus._code_pair_block(block.encode())
    if got is None:
        ids = [] if want is None else [*want[0], *want[1]]
        assert want is None or max(len(i.encode()) for i in ids) > corpus._PAIR_KEY_BYTES
        return
    assert want is not None
    columns = corpus._PairColumns()
    columns.append(*got)
    tweet_ids, article_ids, tweet_codes, article_codes, values = columns.coded()
    assert (list(tweet_ids), list(article_ids)) == want[:2]
    assert [tweet_codes.tolist(), article_codes.tolist(), values.tolist()] == list(want[2:])
    assert tweet_codes.dtype == article_codes.dtype == np.int32 and values.dtype == np.int8


@st.composite
def pair_lists(draw):
    """LinkedPairs over few ids, so ids and cells repeat; "t?" is in no id list."""
    return draw(st.lists(
        st.builds(
            corpus.LinkedPair,
            st.sampled_from(["t0", "t1", "t2", "t?"]),
            st.sampled_from(["a0", "a1", "a2"]),
            st.sampled_from(corpus.PAIR_LABELS),
        ),
        max_size=12,
    ))


def _subsets(values):
    return st.none() | st.sets(st.sampled_from(values))


@settings(max_examples=300, deadline=None)
@given(
    pair_lists(), _subsets(["t0", "t1", "t?", "t9"]), _subsets(["a0", "a2"]),
    _subsets(list(corpus.PAIR_LABELS)),
)
def test_pair_table_queries_match_the_string_rows(pairs, tweet_ids, article_ids, labels):
    """select, the match pairs, the label counts and the ground truth of a
    coded table (selected rows keep their source's distinct ids) equal those
    of the same rows as strings."""
    got = corpus.PairTable.from_pairs(pairs).select(tweet_ids, article_ids, labels)
    want = select_reference(pairs, tweet_ids, article_ids, labels)
    assert list(got) == want
    assert (got.tweet_ids, got.article_ids, got.labels) == (
        tuple(p.tweet_id for p in want), tuple(p.article_id for p in want),
        tuple(p.label for p in want),
    )
    assert [got[i] for i in range(len(got))] == want
    assert cli._match_pairs(got) == [(p.tweet_id, p.article_id) for p in want if p.label == "match"]
    counts = Counter(p.label for p in want)
    assert {label: len(got.select(labels={label})) for label in corpus.PAIR_LABELS} == {
        label: counts[label] for label in corpus.PAIR_LABELS
    }
    ids = (["t0", "t1", "t2"], ["a0", "a1", "a2"])
    assert _ground_truth_outcome(got, *ids, corpus.build_ground_truth) == (
        _ground_truth_outcome(want, *ids, build_ground_truth_reference)
    )


@st.composite
def ground_truth_cases(draw):
    """(pairs, tweet ids, article ids): few ids, so duplicate cells are common.

    Consistent cases give every cell one label; the others draw a label per
    pair, so a cell may get several. Unknown ids ("t?", "a?") are optional.
    """
    tweet_ids = [f"t{i}" for i in range(draw(st.integers(0, 4)))]
    article_ids = [f"a{j}" for j in range(draw(st.integers(0, 4)))]
    unknown = draw(st.booleans())
    pool_t = tweet_ids + ["t?"] * unknown
    pool_a = article_ids + ["a?"] * unknown
    consistent = draw(st.booleans())
    cell_labels = {}
    pairs = []
    if pool_t and pool_a:
        for _ in range(draw(st.integers(0, 12))):
            cell = (draw(st.sampled_from(pool_t)), draw(st.sampled_from(pool_a)))
            label = draw(st.sampled_from(corpus.PAIR_LABELS))
            if consistent:
                label = cell_labels.setdefault(cell, label)
            pairs.append(corpus.LinkedPair(*cell, label))
    return pairs, tweet_ids, article_ids


def _ground_truth_outcome(pairs, tweet_ids, article_ids, build):
    try:
        gt = build(pairs, tweet_ids, article_ids)
    except TweetLinkError as exc:
        return type(exc), str(exc)
    return gt.tweet_ids, gt.article_ids, gt.values.dtype, gt.values.tolist()


def _pairs(*rows):
    return [corpus.LinkedPair(*row) for row in rows]


@settings(max_examples=500, deadline=None)
@given(ground_truth_cases())
# Unknown tweet and article on one pair: the tweet is named.
@example((_pairs(("t0", "a0", "match"), ("t?", "a?", "match")), ["t0"], ["a0"]))
@example((_pairs(("t0", "a0", "match"), ("t0", "a?", "match")), ["t0"], ["a0"]))
# Conflicts on two cells: the first in file order is reported.
@example((
    _pairs(("t0", "a0", "match"), ("t1", "a0", "no_match"), ("t1", "a0", "match"),
           ("t0", "a0", "unknown"), ("t0", "a0", "no_match")),
    ["t0", "t1"], ["a0"],
))
# A conflict before an unknown id, and after one.
@example((_pairs(("t0", "a0", "match"), ("t0", "a0", "no_match"), ("t?", "a0", "match")),
          ["t0"], ["a0"]))
@example((_pairs(("t0", "a0", "match"), ("t?", "a0", "match"), ("t0", "a0", "no_match")),
          ["t0"], ["a0"]))
# Consistent duplicates pass.
@example((_pairs(("t0", "a1", "no_match"), ("t0", "a1", "no_match"), ("t1", "a0", "unknown"),
                 ("t1", "a0", "unknown"), ("t0", "a0", "match")), ["t0", "t1"], ["a0", "a1"]))
# unknown (0, the matrix's fill) against match, in both orders.
@example((_pairs(("t0", "a0", "unknown"), ("t0", "a0", "match")), ["t0"], ["a0"]))
@example((_pairs(("t0", "a0", "match"), ("t0", "a0", "unknown")), ["t0"], ["a0"]))
def test_build_ground_truth_matches_per_pair_loop(case):
    pairs, tweet_ids, article_ids = case
    want = _ground_truth_outcome(pairs, tweet_ids, article_ids, build_ground_truth_reference)
    for given_pairs in (corpus.PairTable.from_pairs(pairs), pairs, iter(pairs)):
        got = _ground_truth_outcome(given_pairs, tweet_ids, article_ids, corpus.build_ground_truth)
        assert got == want


@st.composite
def labeled_grids(draw):
    """(pairs, tweet ids, article ids): consistent labels on up to 12 x 12
    cells, repeated, with up to two pairs relabeling a labeled cell and at
    times a pair with an unknown id, each put at a drawn position."""
    tweet_ids = [f"t{i}" for i in range(draw(st.integers(1, 12)))]
    article_ids = [f"a{j}" for j in range(draw(st.integers(1, 12)))]
    cell = st.tuples(st.sampled_from(tweet_ids), st.sampled_from(article_ids))
    cells = draw(st.lists(cell, min_size=1, max_size=80))
    labels = {c: draw(st.sampled_from(corpus.PAIR_LABELS)) for c in dict.fromkeys(cells)}
    pairs = [corpus.LinkedPair(*c, labels[c]) for c in cells]
    for _ in range(draw(st.integers(0, 2))):
        c = draw(st.sampled_from(cells))
        other = draw(st.sampled_from([x for x in corpus.PAIR_LABELS if x != labels[c]]))
        pairs.insert(draw(st.integers(0, len(pairs))), corpus.LinkedPair(*c, other))
    if draw(st.booleans()):
        t, a = draw(cell)
        stranger = draw(st.sampled_from([("t?", a), (t, "a?"), ("t?", "a?")]))
        pairs.insert(draw(st.integers(0, len(pairs))), corpus.LinkedPair(*stranger, "match"))
    return pairs, tweet_ids, article_ids


@settings(max_examples=300, deadline=None)
@given(labeled_grids())
def test_build_ground_truth_scatter_matches_per_pair_loop(case):
    """Many repeated cells, few conflicts: the same matrix as the per-pair
    loop, or the same error type naming the same ids."""
    pairs, tweet_ids, article_ids = case
    want = _ground_truth_outcome(pairs, tweet_ids, article_ids, build_ground_truth_reference)
    table = corpus.PairTable.from_pairs(pairs)
    assert _ground_truth_outcome(table, tweet_ids, article_ids, corpus.build_ground_truth) == want


# --- text cleaning ---------------------------------------------------------------

_EMOJI_EDGES = [
    chr(cp) for lo, hi in textprep._EMOJI_RANGES for cp in (lo - 1, lo, hi, hi + 1)
]
_TEXT_PIECES = _EMOJI_EDGES + [
    "\ufe0e", "\ufe0f", "\u200d",  # emoji modifiers
    ":smile:", ":a_1:", "::", ":", ":x", "\U0001F600\u200d\U0001F600",
    "#", "##", "#tag", "a#b", "1#x", ":ok:#x",
    "0", "42", "\u00b2", "\u216b", "\u0663", "\u00bd", "_",  # digits, some not isdecimal
    "a", "Zz", "\u00e9t\u00e9", "\u00df", "\u0130", "\u01c5", "\u05d0\u05d1",  # letters
    " ", "\t", "\n", "\u3000", "\x85", "\u2028", "\x1c", "\xa0",  # whitespace
    "!", "-", "@who", "http://x.y/z", "www.a.b", ".", "\u2764",
]


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.one_of(st.sampled_from(_TEXT_PIECES), st.characters()), max_size=12).map("".join),
    st.sampled_from(["drop", "alias"]),
    st.booleans(),
    st.integers(1, 4),
)
@example("\u2600\u27bf\u25ff\u27c0 \U0001F1E6\U0001F1FF", "alias", True, 1)
@example("\ufe0e#a\ufe0f#b \u200d:smile:#tag a#b ##c 1#x", "drop", False, 1)
@example(":ok:#x :a_1:\U0001F600:b: \u00b2\u216b\u0663abc", "alias", False, 1)
@example("z\u00e9\u0142 \u3000mi\x85da\u2028x", "drop", True, 1)
def test_clean_matches_per_character_reference(text, emoji_mode, strip_hashes, min_word_len):
    cfg = textprep.CleaningConfig(
        min_word_len=min_word_len, emoji_mode=emoji_mode, strip_hashes=strip_hashes
    )
    assert textprep.clean(text, cfg) == clean_reference(text, cfg)


# Pieces where cleaning a batch as one newline-joined string could go wrong:
# line ends of every kind, other whitespace split() and \s know, the final
# sigma and other case mappings with the case-ignorable characters around
# them, and URLs, mentions, aliases and hashes at a text's edges.
_BATCH_PIECES = [
    "\n", "\r\n", "\r", "\x1c", "\x1d", "\x1e", "\x1f", "\x85", " ", "\u2028", "\u2029",
    "\u03a3", "a\u03a3", "\u03a3a", "\u0130", "'", ".", "\u0307", "\u00ad",
    "\U0001F600", "\U0001F44D\U0001F3FD", "\ufe0f", "\u200d", "\u2764\ufe0f",
    "http://x.y/z", "https://a", "www.b.c", "@who", "@", ":smile:", ":a_1:", ":", "::",
    "#", "#tag", "a#b", "abc", "Word", "\u00e9t\u00e9", "42",
]
_batch_texts = st.lists(
    st.one_of(st.sampled_from(_BATCH_PIECES), st.sampled_from(_TEXT_PIECES), st.characters()),
    max_size=10,
).map("".join)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(_batch_texts, max_size=6),
    st.sampled_from(["drop", "alias"]),
    st.booleans(),
    st.integers(1, 4),
)
@example([], "drop", True, 3)
@example([""], "alias", False, 1)
@example(["", "", ""], "drop", True, 1)
@example(["a\u03a3", "\u03a3b", "x\u03a3'", "'\u03a3y"], "drop", True, 1)
@example(["http://x\ny", "@a\r\nb", "#c\n#d", ":ok:\n:ok:"], "alias", False, 1)
@example(["abc\U0001F600", "\u200d:smile:", "www.a\x85www.b"], "alias", True, 2)
# URLs and mentions inside a token stay; at its start they go.
@example(["xhttp://a.b hhttps://c wwww.d a@b @@c", "http://x@y @h www.e\u2028@f"], "drop", True, 1)
def test_clean_words_matches_per_text_reference(texts, emoji_mode, strip_hashes, min_word_len):
    cfg = textprep.CleaningConfig(
        min_word_len=min_word_len, emoji_mode=emoji_mode, strip_hashes=strip_hashes
    )
    assert textprep.clean_words(texts, cfg) == [clean_reference(t, cfg).split() for t in texts]


# ASCII pieces around the cheap tests that let clean_words skip a rule: the
# URL rule runs only on text holding "://" or "www.", the emoji rule only on
# text that is not all ASCII.
_ASCII_PIECES = [
    "http://a.b", "https://c", "www.d.e", "WWW.F", "HTTP://G", "://", ":/", "//", "www",
    "ww.", "w.", "www.", "xhttp://a", "wwww.b", "@who", "#tag", ":smile:", ":", "abc", "Word",
    "42", " ", "\n", "\t", ".",
]
_ascii_texts = st.lists(
    st.sampled_from(_ASCII_PIECES) | st.characters(max_codepoint=0x7F), max_size=10
).map("".join)


@settings(max_examples=500, deadline=None)
@given(
    st.lists(_ascii_texts, min_size=1, max_size=6),
    st.sampled_from(_TEXT_PIECES + ["\U0001F600", "\u00e9", "\u212a"]),
    st.booleans(),
    st.sampled_from(["drop", "alias"]),
    st.booleans(),
    st.integers(1, 4),
)
@example(["see http://x.y z", "www.a b"], "\u00e9", False, "alias", True, 1)
@example(["://x", "wwW.a"], "\U0001F600", True, "alias", False, 1)
@example(["\u212aa"], "\u212a", True, "drop", True, 1)  # the Kelvin sign lowers to "k"
def test_clean_words_skips_only_rules_that_cannot_match(
    texts, piece, add_piece, emoji_mode, strip_hashes, min_word_len
):
    """ASCII texts, or the same with one non-ASCII piece added: the words of
    a reference that always runs the URL and emoji rules."""
    if add_piece:
        texts = [texts[0] + piece, *texts[1:]]
    cfg = textprep.CleaningConfig(
        min_word_len=min_word_len, emoji_mode=emoji_mode, strip_hashes=strip_hashes
    )
    assert textprep.clean_words(texts, cfg) == [clean_reference(t, cfg).split() for t in texts]


def test_every_emoji_and_modifier_is_outside_ascii():
    """clean_words skips the emoji rule on ASCII text, so no character the
    rule matches may be ASCII."""
    bounds = [cp for pair in textprep._EMOJI_RANGES for cp in pair]
    assert min(bounds + list(textprep._EMOJI_MODIFIERS)) > 0x7F
    assert not any(textprep._EMOJI_OR_MODIFIER_RE.search(chr(cp)) for cp in range(0x80))


# --- config keys -------------------------------------------------------------

# Each config key as (section, key), section "" for a top-level key, the four
# sections among them.
CONFIG_KEYS = [("", f.name) for f in fields(config.RunConfig)] + [
    (section, f.name) for section, cls in config._SECTIONS.items() for f in fields(cls)
]
# Strings that are valid somewhere: every choice and sentinel, and paths.
_CONFIG_STRINGS = sorted({
    *config.MODELS, *config.FEATURES, *config.STRATEGIES, *config.AGGREGATIONS,
    *config.NONLINEARITIES, *config.EMOJI_MODES, "<s>", "</s>", "<pad>", "", "d", "e.jsonl",
})
config_values = st.one_of(
    st.just(ABSENT), st.none(), st.booleans(), st.integers(-2, 3),
    st.sampled_from([10**4999, -(10**4999), 2**31 - 1, 2**31]),  # 5,000 digits; the int32 cap
    st.floats(-2, 2) | st.sampled_from([1e-300, 0.999, 1e300]),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.sampled_from(_CONFIG_STRINGS), st.lists(st.integers(0, 1), max_size=1),
)


def _config_outcome(build):
    try:
        return build()
    except ConfigInvalidError as exc:
        return f"ConfigInvalidError: {exc}"


@settings(max_examples=600, deadline=None)
@given(st.sampled_from(CONFIG_KEYS), config_values, st.sampled_from(["tfidf", "dual"]))
@example(("", "threshold"), math.nan, "tfidf")
@example(("train", "lr"), math.nan, "dual")
@example(("lda", "n_topics"), 2.5, "tfidf")
@example(("lda", "beta"), math.inf, "tfidf")
@example(("cleaning", "min_word_len"), True, "tfidf")
@example(("chunking", "content_len"), ABSENT, "tfidf")
@example(("lda", "alpha"), 10**4999, "tfidf")
@example(("", "seed"), 10**4999, "tfidf")
def test_config_from_dict_and_construction_agree(key, value, model):
    """A config key's value, read from a config document or passed to the
    dataclasses in Python, meets one check: both give equal configs, or both
    raise ConfigInvalidError with one message, naming `<section>.<key>`."""
    section, name = key
    assume(not (value is ABSENT and name in ("documents", "pairs") and not section))
    base = {"documents": "d", "pairs": "p", "model": model}
    given_key = {} if value is ABSENT else {name: value}
    if section:
        raw = {**base, section: given_key}
        built = lambda: config.RunConfig(**base, **{section: config._SECTIONS[section](**given_key)})
    else:
        raw = {**base, **given_key}
        built = lambda: config.RunConfig(**raw)
    from_dict = _config_outcome(lambda: config.RunConfig.from_dict(raw))
    assert from_dict == _config_outcome(built)
    if isinstance(from_dict, str):
        message = from_dict.removeprefix("ConfigInvalidError: ")
        qualified = f"{section}.{name}" if section else name
        if message.startswith(("features and strategy", "chunking.bos, chunking.eos and")):
            assert qualified in message  # a rule joining two keys names both
        else:
            assert message.startswith(qualified)
