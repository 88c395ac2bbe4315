import base64
import dataclasses
import json
import math
import re

import numpy as np
import pytest

from reference import tfidf_reference
from tweetlink import corpus, textprep, vectorize
from tweetlink.errors import (
    ConfigInvalidError,
    DegenerateKError,
    DimMismatchError,
    DuplicateIdError,
    EmptyCorpusError,
    MalformedLineError,
    MissingEmbeddingError,
    NonFiniteValueError,
)


def _array(values, **fields):
    """`values` as a model-file array object, with `fields` replaced."""
    a = np.asarray(values, dtype="<f8")
    data = base64.b64encode(a.tobytes()).decode("ascii")
    return {"dtype": "<f8", "shape": list(a.shape), "data": data, **fields}


def _fixture_tokens(seed=11, n_articles=10, vocab=30):
    docs, _ = corpus.synth_fixture(
        seed=seed, n_topics=2, n_articles=n_articles, tweets_per_article=4, vocab_per_topic=vocab
    )
    return [textprep.tokenize_lemmatize(textprep.clean(d.text)) for d in docs]


class TestTfidf:
    def test_worked_idf(self):
        model = vectorize.tfidf_fit([["a", "b"], ["a", "c"]])
        idx = model.vocab.index
        assert model.idf[idx["a"]] == pytest.approx(1.0, abs=1e-12)
        assert model.idf[idx["b"]] == pytest.approx(math.log(1.5) + 1, abs=1e-12)
        assert model.idf[idx["c"]] == pytest.approx(1.4055, abs=1e-4)

    def test_worked_transform(self):
        model = vectorize.tfidf_fit([["a", "b"], ["a", "c"]])
        vec = vectorize.tfidf_transform(model, ["a", "b"])
        idx = model.vocab.index
        assert vec[idx["a"]] == pytest.approx(0.5797, abs=1e-4)
        assert vec[idx["b"]] == pytest.approx(0.8148, abs=1e-4)
        assert vec[idx["c"]] == 0.0

    def test_single_doc_idf(self):
        model = vectorize.tfidf_fit([["a"]])
        assert model.idf[model.vocab.index["a"]] == pytest.approx(1.0, abs=1e-15)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpusError):
            vectorize.tfidf_fit([])
        with pytest.raises(EmptyCorpusError):
            vectorize.tfidf_fit([[], []])

    def test_oov_doc_is_zero(self):
        model = vectorize.tfidf_fit([["a", "b"]])
        assert not vectorize.tfidf_transform(model, ["zzz", "qqq"]).any()

    def test_count_scaling_same_direction(self):
        model = vectorize.tfidf_fit([["a", "b"], ["a", "c"]])
        v1 = vectorize.tfidf_transform(model, ["a"])
        v2 = vectorize.tfidf_transform(model, ["a", "a"])
        np.testing.assert_allclose(v1, v2, atol=1e-15)

    def test_norm_property(self):
        rng = np.random.default_rng(3)
        words = [f"w{i}" for i in range(30)]
        for _ in range(30):
            docs = [
                [words[int(i)] for i in rng.integers(0, 30, rng.integers(1, 12))]
                for _ in range(int(rng.integers(1, 8)))
            ]
            model = vectorize.tfidf_fit(docs)
            for doc in docs:
                norm = np.linalg.norm(vectorize.tfidf_transform(model, doc))
                assert norm == pytest.approx(1.0, abs=1e-9) or norm == 0.0

    def test_matches_reference_oracle(self):
        rng = np.random.default_rng(4)
        words = [f"w{i}" for i in range(20)]
        for _ in range(20):
            docs = [
                [words[int(i)] for i in rng.integers(0, 20, rng.integers(1, 10))]
                for _ in range(int(rng.integers(1, 6)))
            ]
            ref_idf, ref_transform = tfidf_reference(docs)
            model = vectorize.tfidf_fit(docs)
            for term, value in ref_idf.items():
                assert model.idf[model.vocab.index[term]] == pytest.approx(value, abs=1e-12)
            for doc in docs:
                vec = vectorize.tfidf_transform(model, doc)
                ref = ref_transform(doc)
                for term, value in ref.items():
                    assert vec[model.vocab.index[term]] == pytest.approx(value, abs=1e-12)

    def test_save_load_roundtrip(self, tmp_path):
        model = vectorize.tfidf_fit([["a", "b"], ["a", "c"]])
        path = tmp_path / "tfidf.json"
        vectorize.save_tfidf(model, path)
        loaded = vectorize.load_tfidf(path)
        assert loaded.vocab.index == model.vocab.index
        np.testing.assert_array_equal(loaded.idf, model.idf)
        assert loaded.n_docs == model.n_docs


class TestLda:
    def test_k1_phi_is_smoothed_unigram(self):
        docs = [["a", "b", "a"], ["c"]]
        model = vectorize.lda_fit(docs, n_topics=1, beta=0.01, iters=3, seed=0)
        counts = {"a": 2, "b": 1, "c": 1}
        total = 4
        for term, c in counts.items():
            expected = (c + 0.01) / (total + 3 * 0.01)
            assert model.phi[0, model.vocab.index[term]] == pytest.approx(expected, abs=1e-12)

    def test_k1_infer_is_one(self):
        model = vectorize.lda_fit([["a", "b"]], n_topics=1, iters=2, seed=0)
        np.testing.assert_array_equal(vectorize.lda_infer(model, ["a"]), [1.0])

    def test_deterministic(self):
        docs = _fixture_tokens()
        a = vectorize.lda_fit(docs, n_topics=3, iters=15, seed=9)
        b = vectorize.lda_fit(docs, n_topics=3, iters=15, seed=9)
        np.testing.assert_array_equal(a.phi, b.phi)
        ta = vectorize.lda_infer(a, docs[0], iters=10, seed=1)
        tb = vectorize.lda_infer(b, docs[0], iters=10, seed=1)
        np.testing.assert_array_equal(ta, tb)

    def test_distribution_invariants(self):
        docs = _fixture_tokens()
        model = vectorize.lda_fit(docs, n_topics=4, iters=15, seed=2)
        np.testing.assert_allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
        assert (model.phi > 0).all()
        for doc in docs[:10]:
            theta = vectorize.lda_infer(model, doc, iters=10, seed=0)
            assert theta.sum() == pytest.approx(1.0, abs=1e-9)
            assert (theta > 0).all()

    def test_oov_doc_uniform(self):
        model = vectorize.lda_fit([["a", "b"], ["c", "d"]], n_topics=4, iters=3, seed=0)
        np.testing.assert_allclose(vectorize.lda_infer(model, ["zzz"]), [0.25] * 4, atol=1e-12)

    def test_topic_doc_inference(self):
        docs = _fixture_tokens()
        model = vectorize.lda_fit(docs, n_topics=2, alpha=0.5, iters=50, seed=1)
        half0 = np.array([t.startswith("aaa") for t in model.vocab.terms()])
        topic0 = int(np.argmax(model.phi[:, half0].sum(axis=1)))
        long_doc = [t for d in docs for t in d if t.startswith("aaa")][:40]
        theta = vectorize.lda_infer(model, long_doc, iters=50, seed=0)
        assert theta[topic0] > 0.9

    def test_log_likelihood_improves_with_sweeps(self):
        docs = _fixture_tokens()
        for seed in range(5):
            short = vectorize.lda_fit(docs, n_topics=2, alpha=0.5, iters=1, seed=seed)
            long = vectorize.lda_fit(docs, n_topics=2, alpha=0.5, iters=50, seed=seed)
            assert long.log_likelihood >= short.log_likelihood

    def test_degenerate_inputs(self):
        with pytest.raises(DegenerateKError):
            vectorize.lda_fit([["a"]], n_topics=0)
        with pytest.raises(EmptyCorpusError):
            vectorize.lda_fit([[]], n_topics=2)
        with pytest.raises(ValueError):
            vectorize.lda_fit([["a"]], n_topics=1, iters=0)

    @pytest.mark.parametrize(
        "prior",
        [
            {"alpha": math.nan},
            {"alpha": math.inf},
            {"alpha": 0.0},
            {"alpha": -0.5},
            {"beta": math.nan},
            {"beta": math.inf},
            {"beta": 0.0},
            {"beta": -0.01},
        ],
    )
    def test_bad_priors_rejected(self, prior):
        with pytest.raises(ConfigInvalidError):
            vectorize.lda_fit([["a", "b"], ["c"]], n_topics=2, iters=2, **prior)

    def test_batch_rows_equal_single_fold_ins(self):
        docs = _fixture_tokens()
        model = vectorize.lda_fit(docs, n_topics=3, iters=5, seed=4)
        queries = [docs[0], [], ["zzz"], docs[1] + ["zzz"], docs[2][:1]]
        batch = vectorize.lda_infer_batch(model, queries, iters=7, seed=2)
        assert batch.shape == (len(queries), 3)
        for row, doc in zip(batch, queries):
            np.testing.assert_array_equal(row, vectorize.lda_infer(model, doc, iters=7, seed=2))
        assert vectorize.lda_infer_batch(model, [], iters=7, seed=2).shape == (0, 3)

    def test_save_load_roundtrip(self, tmp_path):
        model = vectorize.lda_fit([["a", "b"], ["c", "d"]], n_topics=2, iters=5, seed=3)
        path = tmp_path / "lda.json"
        vectorize.save_lda(model, path)
        loaded = vectorize.load_lda(path)
        np.testing.assert_array_equal(loaded.phi, model.phi)
        assert loaded.vocab.index == model.vocab.index
        assert (loaded.n_topics, loaded.alpha, loaded.beta, loaded.seed) == (
            model.n_topics, model.alpha, model.beta, model.seed,
        )

    @pytest.mark.parametrize("beta", [1e-8, 0.01, 5.0])
    @pytest.mark.parametrize("vocab_size", [1, 7, 900])
    def test_fitted_phi_rows_pass_the_sum_check(self, tmp_path, beta, vocab_size):
        rng = np.random.default_rng(vocab_size)
        docs = [[f"w{i}" for i in rng.integers(0, vocab_size, size=12)] for _ in range(80)]
        docs.append([f"w{i}" for i in range(vocab_size)])
        model = vectorize.lda_fit(docs, n_topics=5, beta=beta, iters=3, seed=1)
        path = tmp_path / "lda.json"
        vectorize.save_lda(model, path)
        np.testing.assert_array_equal(vectorize.load_lda(path).phi, model.phi)

    @pytest.mark.parametrize(
        "edit",
        [
            {"alpha": -1.0},
            {"alpha": 0.0},
            {"alpha": math.nan},
            {"beta": 0.0},
            {"beta": math.inf},
            {"alpha": 10**400},  # an integer too large for a float
            # A negative entry in rows that sum to 1, a NaN, two wrong shapes,
            # and data that does not fill its shape.
            {"phi": _array([[0.5, 0.5], [1.5, -0.5]])},
            {"phi": _array([[0.5, math.nan], [0.5, 0.5]])},
            {"phi": _array([[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]])},
            {"phi": _array([[1.0], [1.0]])},
            {"phi": _array([[0.5, 0.5], [1.0, 0.0]], shape=[2, 3])},
        ],
    )
    def test_load_rejects_bad_model(self, tmp_path, edit):
        model = vectorize.lda_fit([["a", "b"], ["a"]], n_topics=2, iters=2, seed=3)
        path = tmp_path / "lda.json"
        vectorize.save_lda(model, path)
        payload = json.loads(path.read_text())
        path.write_text(json.dumps({**payload, **edit}))
        with pytest.raises(ConfigInvalidError):
            vectorize.load_lda(path)


def _saved_models(tmp_path):
    """{format: (path of a saved model, its loader)} for tfidf and lda."""
    tfidf_path, lda_path = tmp_path / "tfidf.json", tmp_path / "lda.json"
    vectorize.save_tfidf(vectorize.tfidf_fit([["a", "b"], ["a", "c"]]), tfidf_path)
    vectorize.save_lda(
        vectorize.lda_fit([["a", "b"], ["a"]], n_topics=2, iters=2, seed=3), lda_path
    )
    return {"tfidf": (tfidf_path, vectorize.load_tfidf), "lda": (lda_path, vectorize.load_lda)}


def _edited(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))


class TestModelFileErrors:
    """Every malformed model file raises ConfigInvalidError naming the file."""

    @pytest.mark.parametrize("fmt", ["tfidf", "lda"])
    @pytest.mark.parametrize("text", ["{", "[]", '"tfidf"', "null", ""])
    def test_not_a_json_object(self, tmp_path, fmt, text):
        path, load = _saved_models(tmp_path)[fmt]
        path.write_text(text)
        with pytest.raises(ConfigInvalidError, match=re.escape(str(path))):
            load(path)

    @pytest.mark.parametrize("fmt", ["tfidf", "lda"])
    def test_not_utf8(self, tmp_path, fmt):
        path, load = _saved_models(tmp_path)[fmt]
        path.write_bytes(b'{"format": "\xff"}')
        with pytest.raises(ConfigInvalidError, match=re.escape(str(path))):
            load(path)

    @pytest.mark.parametrize(
        "fmt, key",
        [("tfidf", "idf"), ("tfidf", "vocab"), ("tfidf", "n_docs"), ("lda", "phi"),
         ("lda", "seed"), ("lda", "vocab"), ("lda", "log_likelihood")],
    )
    def test_missing_key(self, tmp_path, fmt, key):
        path, load = _saved_models(tmp_path)[fmt]
        _edited(path, lambda payload: payload.pop(key))
        with pytest.raises(ConfigInvalidError, match=f"{re.escape(str(path))}.*lacks key '{key}'"):
            load(path)

    @pytest.mark.parametrize(
        "fmt, edit",
        [
            ("tfidf", {"idf": _array([1.0, 2.0])}),  # shorter than the 3-term vocabulary
            ("tfidf", {"idf": _array([1.0, 2.0, 3.0, 4.0])}),
            ("tfidf", {"idf": _array([1.0, math.nan, 1.0])}),
            ("tfidf", {"idf": _array([1.0, math.inf, 1.0])}),
            ("tfidf", {"idf": _array([[1.0], [2.0], [3.0]])}),
            ("tfidf", {"idf": _array([1.0, 1.0, 1.0], dtype="<f4")}),
            ("tfidf", {"idf": None}),
            ("tfidf", {"n_docs": None}),
            ("tfidf", {"vocab": ["a", "a", "b"]}),
            ("tfidf", {"vocab": "abc"}),
            ("lda", {"vocab": [1, 2]}),
            ("lda", {"seed": "x"}),
            ("lda", {"n_topics": None}),
            ("lda", {"log_likelihood": []}),
            # A field of the wrong JSON type, array data that is not canonical
            # base64 or does not fill its shape, or an idf below its floor of 1.
            ("tfidf", {"n_docs": "7"}),
            ("tfidf", {"n_docs": 2.5}),
            ("tfidf", {"idf": _array([1.0, 2.0, 3.0], data="!" + _array([1.0, 2.0, 3.0])["data"])}),
            ("tfidf", {"idf": _array([1.0, 2.0, 3.0], shape=[4])}),
            ("tfidf", {"idf": _array([-5.0, 1.0, 1.0])}),
            ("tfidf", {"idf": _array([0.5, 1.0, 1.0])}),
            ("tfidf", {"version": 1.0}),
            ("tfidf", {"version": True}),
            ("lda", {"seed": 3.9}),
            ("lda", {"n_topics": 2.0}),
            ("lda", {"alpha": "0.5"}),
            ("lda", {"beta": True}),
            ("lda", {"log_likelihood": "-3.5"}),
            ("lda", {"phi": [[0.5, 0.5], [0.5, 0.5]]}),  # not an array object
            ("tfidf", {"idf": _array([1.0, 1.0, 1.0], data=10**400)}),
            # phi rows that are not distributions over the vocabulary loaded,
            # and lda_infer_batch returned a theta from them.
            ("lda", {"phi": _array([[0.0, 0.0], [0.0, 0.0]])}),
            ("lda", {"phi": _array([[5.0, 7.0], [0.0, 3.0]])}),
            ("lda", {"phi": _array([[0.5, 0.5], [0.5, 0.4999]])}),
            ("lda", {"phi": _array([[0.5, 0.5], [0.5, 0.5 + 1e-12]])}),
            # A size numpy would infer from the data.
            ("tfidf", {"idf": _array([1.0, 2.0, 3.0], shape=[-1])}),
        ],
    )
    def test_malformed_field(self, tmp_path, fmt, edit):
        path, load = _saved_models(tmp_path)[fmt]
        _edited(path, lambda payload: payload.update(edit))
        with pytest.raises(ConfigInvalidError, match=re.escape(str(path))):
            load(path)

    @pytest.mark.parametrize("fmt, key", [("tfidf", "idf"), ("lda", "phi")])
    def test_version_1_file_is_rejected(self, tmp_path, fmt, key):
        """Version 1 held idf and phi as JSON float lists; it is no longer read,
        and such a list in a version-2 file is not an array object."""
        path, load = _saved_models(tmp_path)[fmt]
        values = getattr(load(path), key).tolist()
        _edited(path, lambda payload: payload.update({"version": 1, key: values}))
        with pytest.raises(ConfigInvalidError, match=f"{re.escape(str(path))}.*version 1"):
            load(path)
        _edited(path, lambda payload: payload.update(version=2))
        with pytest.raises(ConfigInvalidError, match="list is not an array object"):
            load(path)


class TestModelFileWrite:
    def test_bytes_are_the_json_dumps_of_the_payload(self, tmp_path):
        tfidf = vectorize.tfidf_fit([["a", "b"], ["a", "c"]])
        lda = vectorize.lda_fit([["a", "b"], ["a"]], n_topics=2, iters=2, seed=3)
        cases = [
            (vectorize.save_tfidf, tfidf, {
                "format": "tfidf", "version": 2, "n_docs": 2, "vocab": tfidf.vocab.terms(),
                "idf": _array(tfidf.idf),
            }),
            (vectorize.save_lda, lda, {
                "format": "lda", "version": 2, "n_topics": 2, "alpha": lda.alpha,
                "beta": lda.beta, "seed": 3, "log_likelihood": lda.log_likelihood,
                "vocab": lda.vocab.terms(), "phi": _array(lda.phi),
            }),
        ]
        for save, model, payload in cases:
            path = tmp_path / f"{payload['format']}.json"
            save(model, path)
            assert path.read_bytes() == (json.dumps(payload, sort_keys=True) + "\n").encode()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_scalar_is_not_written(self, tmp_path, value):
        """JSON has no NaN or infinity: such a scalar fails the save, naming
        the file, instead of writing a file that load_lda rejects."""
        model = vectorize.lda_fit([["a", "b"], ["a"]], n_topics=2, iters=2, seed=3)
        path = tmp_path / "lda.json"
        with pytest.raises(NonFiniteValueError, match=re.escape(str(path))):
            vectorize.save_lda(dataclasses.replace(model, log_likelihood=value), path)
        assert not path.exists()


class TestEmbeddings:
    def test_load(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text(
            '{"id": "t1", "vector": [1.0, 0.0, 0.0]}\n{"id": "a1", "vector": [0.0, 1.0, 0.0]}\n'
        )
        table = vectorize.load_embeddings(path)
        assert table.dim == 3
        assert len(table.vectors) == 2
        np.testing.assert_array_equal(table.lookup("t1"), [1.0, 0.0, 0.0])

    def test_dim_mismatch(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "t1", "vector": [1, 2, 3]}\n{"id": "t2", "vector": [1, 2, 3, 4]}\n')
        with pytest.raises(DimMismatchError):
            vectorize.load_embeddings(path)

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "t1", "vector": [1]}\n{"id": "t1", "vector": [2]}\n')
        with pytest.raises(DuplicateIdError):
            vectorize.load_embeddings(path)

    def test_malformed(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "t1"}\n')
        with pytest.raises(MalformedLineError):
            vectorize.load_embeddings(path)

    def test_empty_vector_rejected(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "t1", "vector": []}\n{"id": "t2", "vector": []}\n')
        with pytest.raises(MalformedLineError, match=":1:.*empty"):
            vectorize.load_embeddings(path)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_rejected(self, tmp_path, literal):
        path = tmp_path / "emb.jsonl"
        path.write_text(f'{{"id": "t1", "vector": [1.0]}}\n{{"id": "t2", "vector": [{literal}]}}\n')
        with pytest.raises(MalformedLineError, match=":2:"):
            vectorize.load_embeddings(path)

    def test_missing_lookup(self, tmp_path):
        path = tmp_path / "emb.jsonl"
        path.write_text('{"id": "t1", "vector": [1.0]}\n')
        table = vectorize.load_embeddings(path)
        with pytest.raises(MissingEmbeddingError):
            table.lookup("absent")
