"""Property tests: the one-sort calibration and AP sweep, the row-wise
scoring kernel, the LDA sampler and batched fold-in, and the sparse-row
dual-encoder training loop against the oracles they replace."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import (
    ap_reference,
    calibrate_reference,
    lda_fit_reference,
    lda_infer_reference,
    masked_flatten_reference,
    train_reference,
)
from tweetlink import contrast, evalx, linker, vectorize
from tweetlink.matrices import GroundTruthMatrix, SimilarityMatrix


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


@settings(max_examples=100, deadline=None)
@given(lda_cases())
def test_lda_fit_matches_reference(case):
    model = vectorize.lda_fit(**case)
    phi, log_likelihood = lda_fit_reference(**case)
    assert np.array_equal(model.phi, phi)
    assert model.log_likelihood == log_likelihood


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
