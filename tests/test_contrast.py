import base64
import dataclasses
import json

import numpy as np
import pytest

from reference import fd_gradient, save_encoder_v1_reference
from tweetlink import contrast
from tweetlink.contrast import TrainConfig
from tweetlink.errors import (
    ConfigInvalidError,
    DimMismatchError,
    EmptyChunkListError,
    EmptyInputError,
    MissingEmbeddingError,
    NoNegativesAvailableError,
    NonFiniteLossError,
)


class TestLoss:
    def test_identical_positive(self):
        assert contrast.cosine_embedding_loss([1.0, 0.0], [1.0, 0.0], 1) == 0.0

    def test_orthogonal_negative(self):
        assert contrast.cosine_embedding_loss([1.0, 0.0], [0.0, 1.0], -1) == 0.0

    def test_identical_negative(self):
        assert contrast.cosine_embedding_loss([1.0, 0.0], [1.0, 0.0], -1) == 1.0

    def test_zero_vector_convention(self):
        assert contrast.cosine_embedding_loss([0.0, 0.0], [1.0, 1.0], 1) == 1.0
        assert contrast.cosine_embedding_loss([0.0, 0.0], [1.0, 1.0], -1) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            contrast.cosine_embedding_loss([1.0], [1.0, 0.0], 1)

    def test_nonnegative_and_zero_conditions(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            d = int(rng.integers(1, 6))
            e1 = rng.normal(size=d)
            e2 = rng.normal(size=d)
            y = 1 if rng.random() < 0.5 else -1
            margin = float(rng.uniform(0, 0.5))
            loss = contrast.cosine_embedding_loss(e1, e2, y, margin)
            assert loss >= 0.0
            c = float(np.dot(e1, e2) / (np.linalg.norm(e1) * np.linalg.norm(e2)))
            if loss == 0.0:
                assert (y == 1 and c > 1 - 1e-12) or (y == -1 and c <= margin + 1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            e1 = rng.normal(size=4)
            e2 = rng.normal(size=4)
            scale = float(rng.uniform(0.1, 10.0))
            y = 1 if rng.random() < 0.5 else -1
            base = contrast.cosine_embedding_loss(e1, e2, y)
            scaled = contrast.cosine_embedding_loss(scale * e1, e2, y)
            assert scaled == pytest.approx(base, abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            e1, e2 = rng.normal(size=3), rng.normal(size=3)
            assert 0.0 <= contrast.cosine_embedding_loss(e1, e2, 1) <= 2.0
            assert 0.0 <= contrast.cosine_embedding_loss(e1, e2, -1) <= 1.0


class TestLossGradient:
    def test_stationary_at_identical_positive(self):
        e = np.array([0.3, -0.7, 1.1])
        g1, g2 = contrast.loss_gradient(e, e.copy(), 1)
        np.testing.assert_allclose(g1, 0.0, atol=1e-12)
        np.testing.assert_allclose(g2, 0.0, atol=1e-12)

    def test_inactive_hinge_zero(self):
        g1, g2 = contrast.loss_gradient([1.0, 0.0], [-1.0, 0.1], -1)
        assert not g1.any() and not g2.any()

    def test_boundary_returns_inactive_subgradient(self):
        # cos == margin exactly: orthogonal vectors at margin 0.
        g1, g2 = contrast.loss_gradient([1.0, 0.0], [0.0, 1.0], -1, margin=0.0)
        assert not g1.any() and not g2.any()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 100:
            d = int(rng.integers(2, 7))
            e1 = rng.normal(size=d)
            e2 = rng.normal(size=d)
            n1, n2 = np.linalg.norm(e1), np.linalg.norm(e2)
            if n1 < 0.3 or n2 < 0.3:
                continue
            y = 1 if rng.random() < 0.5 else -1
            margin = float(rng.uniform(0, 0.3))
            c = float(np.dot(e1, e2) / (n1 * n2))
            if y == -1 and abs(c - margin) < 1e-3:
                continue  # finite differences straddle the hinge kink here
            g1, g2 = contrast.loss_gradient(e1, e2, y, margin)
            f1 = fd_gradient(lambda v: contrast.cosine_embedding_loss(v, e2, y, margin), list(e1))
            f2 = fd_gradient(lambda v: contrast.cosine_embedding_loss(e1, v, y, margin), list(e2))
            for g, f in ((g1, f1), (g2, f2)):
                denom = max(np.linalg.norm(f), 1e-12)
                assert np.linalg.norm(g - np.asarray(f)) / denom < 1e-5
            checked += 1

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatchError):
            contrast.loss_gradient([1.0], [1.0, 2.0], 1)


class TestSampleNegatives:
    POS = [("t1", "a1"), ("t2", "a1"), ("t2", "a2")]
    ARTICLES = ["a1", "a2", "a3", "a4"]

    def test_counts_and_disjointness(self):
        negs = contrast.sample_negatives(self.POS, self.ARTICLES, ratio=1.0, seed=0)
        assert len(negs) == 3  # 1 for t1, 2 for t2
        assert not (set(negs) & set(self.POS))
        for t, a in negs:
            assert a in self.ARTICLES

    def test_no_negatives_available(self):
        with pytest.raises(NoNegativesAvailableError):
            contrast.sample_negatives([("t1", "a1")], ["a1"], ratio=1.0, seed=0)

    def test_deterministic(self):
        a = contrast.sample_negatives(self.POS, self.ARTICLES, ratio=2.0, seed=5)
        b = contrast.sample_negatives(self.POS, self.ARTICLES, ratio=2.0, seed=5)
        assert a == b

    def test_round_half_up(self):
        negs = contrast.sample_negatives([("t1", "a1")], self.ARTICLES, ratio=0.5, seed=0)
        assert len(negs) == 1  # round(0.5) rounds half up
        negs = contrast.sample_negatives([("t1", "a1")], self.ARTICLES, ratio=0.4, seed=0)
        assert len(negs) == 0

    def test_capped_at_pool(self):
        negs = contrast.sample_negatives([("t1", "a1")], self.ARTICLES, ratio=10.0, seed=0)
        assert len(negs) == 3
        assert len(set(negs)) == 3  # without replacement


def _toy_problem(seed=0):
    rng = np.random.default_rng(seed)
    tweet_feats = {f"t{i}": rng.normal(size=6) for i in range(8)}
    article_feats = {f"a{i}": rng.normal(size=5) for i in range(6)}
    positives = [(f"t{i}", f"a{i % 6}") for i in range(8)]
    return positives, tweet_feats, article_feats


class TestTrain:
    def test_epochs_zero_is_seeded_init(self):
        positives, tf, af = _toy_problem()
        cfg = TrainConfig(epochs=0, seed=3, joint_dim=4)
        enc1, trace1 = contrast.train(positives, tf, af, cfg)
        enc2, trace2 = contrast.train(positives, tf, af, cfg)
        assert trace1 == trace2 == []
        np.testing.assert_array_equal(enc1.tweet_map.weight, enc2.tweet_map.weight)
        np.testing.assert_array_equal(enc1.article_map.bias, enc2.article_map.bias)

    def test_reproducible_bitwise(self):
        positives, tf, af = _toy_problem()
        cfg = TrainConfig(epochs=15, seed=11, joint_dim=4, lr=0.2, batch_size=4)
        enc1, trace1 = contrast.train(positives, tf, af, cfg)
        enc2, trace2 = contrast.train(positives, tf, af, cfg)
        assert trace1 == trace2
        np.testing.assert_array_equal(enc1.tweet_map.weight, enc2.tweet_map.weight)
        np.testing.assert_array_equal(enc1.tweet_map.bias, enc2.tweet_map.bias)
        np.testing.assert_array_equal(enc1.article_map.weight, enc2.article_map.weight)
        np.testing.assert_array_equal(enc1.article_map.bias, enc2.article_map.bias)

    def test_trace_length_and_training_changes_params(self):
        positives, tf, af = _toy_problem()
        base = TrainConfig(epochs=0, seed=2, joint_dim=4)
        cfg = TrainConfig(epochs=10, seed=2, joint_dim=4, lr=0.5)
        enc0, _ = contrast.train(positives, tf, af, base)
        enc, trace = contrast.train(positives, tf, af, cfg)
        assert len(trace) == 10
        assert not np.array_equal(enc0.tweet_map.weight, enc.tweet_map.weight)

    def test_momentum_and_tanh_run(self):
        positives, tf, af = _toy_problem()
        cfg = TrainConfig(epochs=5, seed=2, joint_dim=4, momentum=0.9, nonlinearity="tanh")
        enc, trace = contrast.train(positives, tf, af, cfg)
        assert len(trace) == 5
        assert np.isfinite(enc.tweet_map.weight).all()

    def test_empty_positives(self):
        _, tf, af = _toy_problem()
        with pytest.raises(EmptyInputError):
            contrast.train([], tf, af, TrainConfig())

    def test_missing_feature(self):
        positives, tf, af = _toy_problem()
        with pytest.raises(MissingEmbeddingError):
            contrast.train([("ghost", "a0")], tf, af, TrainConfig())

    def test_mean_chunks_training(self):
        rng = np.random.default_rng(4)
        tf = {f"t{i}": rng.normal(size=4) for i in range(4)}
        af = {f"a{i}": [rng.normal(size=3) for _ in range(int(rng.integers(1, 4)))] for i in range(4)}
        positives = [(f"t{i}", f"a{i}") for i in range(4)]
        cfg = TrainConfig(epochs=5, seed=0, joint_dim=3, batch_size=2)
        enc, trace = contrast.train(positives, tf, af, cfg, strategy="mean_chunks")
        assert len(trace) == 5

    @pytest.mark.parametrize("counts, pooled", [([1, 1, 1], False), ([1, 2, 1], True)])
    def test_epoch_batches_pool_only_multi_row_examples(self, counts, pooled):
        rng = np.random.default_rng(1)
        x_t = contrast._feature_rows(rng.random((3, 4)), list("xyz"), None, "tweet")[0]
        x_a = contrast._feature_rows(rng.random((4, 5)), list("abcd"), None, "article")[0]
        first = np.cumsum(counts) - counts
        examples = np.column_stack([[0, 1, 2], first, counts, [1, -1, 1]])
        batches = list(contrast._epoch_batches(x_t, x_a, examples, np.array([2, 0, 1]), 2))
        assert len(batches) == 2
        for _, _, bx_a, pool, bcounts, _ in batches:
            if pooled:
                assert pool.shape == (len(bcounts), len(bx_a))
            else:
                assert pool is None and bcounts is None
        if not pooled:
            # Row i of bx_t (bx_a) is example i's tweet (article) row, over the
            # batch's tweet (article) columns; article columns follow the tweet ones.
            u, bx_t, bx_a = batches[0][:3]
            u_t, u_a = u[: bx_t.shape[1]], u[bx_t.shape[1] :] - x_t.n_cols
            np.testing.assert_array_equal(bx_t, x_t.toarray()[[2, 0]][:, u_t])
            np.testing.assert_array_equal(bx_a, x_a.toarray()[[2, 0]][:, u_a])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)
        with pytest.raises(ValueError):
            TrainConfig(margin=1.0)
        with pytest.raises(ValueError):
            TrainConfig(neg_ratio=0.0)


class TestAugmentExpansion:
    def test_positive_pair_count_matches_split_arithmetic(self):
        header_len, part_len = 4, 3
        cfg = TrainConfig(seed=0, neg_ratio=1.0)
        for n_tokens in (2, 4, 5, 10, 17):
            n_pieces = 1 + max(0, -(-(n_tokens - header_len) // part_len))
            examples = contrast.build_training_pairs(
                [("t0", "long")], ["t0"], ["long", "other"], [n_pieces, 1], cfg, "augment"
            )
            positives = examples[examples[:, 3] == 1]
            assert len(positives) == n_pieces
            # One example per piece row, each holding that piece alone.
            assert positives[:, 1].tolist() == list(range(n_pieces))
            assert (positives[:, 2] == 1).all()

    def test_negatives_use_header_piece(self):
        cfg = TrainConfig(seed=0, neg_ratio=1.0)
        # "pos" owns piece row 0; "neg" owns rows 1 (its header) and 2.
        examples = contrast.build_training_pairs(
            [("t0", "pos")], ["t0"], ["pos", "neg"], [1, 2], cfg, "augment"
        )
        negatives = examples[examples[:, 3] == -1]
        assert negatives.tolist() == [[0, 1, 1, -1]]  # tweet row, header row, one piece


class TestTrainFromRowMatrices:
    def test_matrix_input_matches_mapping_input(self):
        rng = np.random.default_rng(8)
        tf = {f"t{i}": rng.normal(size=4) * (rng.random(4) < 0.5) for i in range(5)}
        af = {f"a{i}": rng.normal(size=(int(rng.integers(1, 4)), 3)) for i in range(4)}
        positives = [(f"t{i}", f"a{i % 4}") for i in range(5)]
        cfg = TrainConfig(epochs=3, seed=1, joint_dim=3, batch_size=2)
        counts = [len(p) for p in af.values()]
        pieces = np.concatenate(list(af.values()) + [np.ones((2, 3))])  # unused trailing rows
        want, want_trace = contrast.train(positives, tf, af, cfg, "mean_chunks")
        got, trace = contrast.train(
            positives, np.stack(list(tf.values())), pieces, cfg, "mean_chunks",
            list(tf), list(af), counts,
        )
        assert trace == want_trace
        np.testing.assert_array_equal(got.tweet_map.weight, want.tweet_map.weight)
        np.testing.assert_array_equal(got.article_map.weight, want.article_map.weight)

    def test_matrix_input_is_checked(self):
        positives = [("t0", "a0")]
        tweets, articles = np.ones((1, 2)), np.ones((3, 2))
        with pytest.raises(TypeError):
            contrast.train(positives, tweets, articles, TrainConfig(), "truncate", ["t0"])
        for counts, error in (([2, 2], DimMismatchError), ([1], DimMismatchError),
                              ([0, 3], EmptyChunkListError)):
            with pytest.raises(error):
                contrast.train(
                    positives, tweets, articles, TrainConfig(), "mean_chunks",
                    ["t0"], ["a0", "a1"], counts,
                )
        with pytest.raises(DimMismatchError):
            contrast.train(positives, {"t0": np.ones((2, 2))}, {"a0": np.ones(2)}, TrainConfig())
        mixed_widths = {"a0": np.ones(2), "a1": np.ones(3)}
        with pytest.raises(DimMismatchError):
            contrast.train(positives, {"t0": np.ones(2)}, mixed_widths, TrainConfig())

    def test_zero_width_features_rejected(self):
        cfg = TrainConfig(epochs=1)
        with pytest.raises(DimMismatchError, match="no feature columns"):
            contrast.train([("t", "a")], {"t": []}, {"a": [], "b": []}, cfg)
        with pytest.raises(DimMismatchError, match="no feature columns"):
            contrast.train(
                [("t", "a")], np.zeros((1, 0)), np.zeros((2, 0)), cfg, "truncate",
                ["t"], ["a", "b"],
            )


class TestEncode:
    def _encoder(self, d=3, in_t=4, in_a=5, nonlinearity="none"):
        rng = np.random.default_rng(0)
        return contrast.DualEncoder(
            tweet_map=contrast.AffineMap(rng.normal(size=(d, in_t)), rng.normal(size=d)),
            article_map=contrast.AffineMap(rng.normal(size=(d, in_a)), rng.normal(size=d)),
            nonlinearity=nonlinearity,
        )

    def test_single_chunk_equals_plain(self):
        enc = self._encoder()
        vec = np.arange(5.0)
        single = contrast.encode(enc, "article", vec, "truncate")
        chunked = contrast.encode(enc, "article", [vec], "mean_chunks")
        np.testing.assert_allclose(single, chunked, atol=1e-15)

    def test_duplicate_chunks_mean_idempotent(self):
        enc = self._encoder()
        vec = np.arange(5.0)
        one = contrast.encode(enc, "article", [vec], "mean_chunks")
        two = contrast.encode(enc, "article", [vec, vec.copy()], "mean_chunks")
        np.testing.assert_allclose(one, two, atol=1e-15)

    def test_output_dimension(self):
        enc = self._encoder(d=7)
        out = contrast.encode(enc, "tweet", np.ones(4), "truncate")
        assert out.shape == (7,)

    def test_dim_mismatch(self):
        enc = self._encoder()
        with pytest.raises(DimMismatchError):
            contrast.encode(enc, "tweet", np.ones(9), "truncate")

    def test_empty_chunk_list(self):
        enc = self._encoder()
        with pytest.raises(EmptyChunkListError):
            contrast.encode(enc, "article", [], "mean_chunks")

    def test_bad_side(self):
        enc = self._encoder()
        with pytest.raises(ValueError):
            contrast.encode(enc, "caption", np.ones(4), "truncate")

    def test_batch_counts_must_cover_the_rows(self):
        enc = self._encoder()
        rows = np.ones((3, 5))
        assert contrast.encode_batch(enc, "article", rows, [2, 1]).shape == (2, 3)
        with pytest.raises(EmptyChunkListError):
            contrast.encode_batch(enc, "article", rows, [3, 0])
        with pytest.raises(DimMismatchError):
            contrast.encode_batch(enc, "article", rows, [1, 1])
        with pytest.raises(DimMismatchError):
            contrast.encode_batch(enc, "article", np.ones(5))


class TestPersistence:
    def test_roundtrip_bitwise(self, tmp_path):
        positives, tf, af = _toy_problem()
        cfg = TrainConfig(epochs=3, seed=1, joint_dim=4, nonlinearity="tanh")
        enc, _ = contrast.train(positives, tf, af, cfg)
        path = tmp_path / "encoder.json"
        contrast.save_encoder(enc, path)
        loaded = contrast.load_encoder(path)
        np.testing.assert_array_equal(loaded.tweet_map.weight, enc.tweet_map.weight)
        np.testing.assert_array_equal(loaded.article_map.weight, enc.article_map.weight)
        np.testing.assert_array_equal(loaded.article_map.bias, enc.article_map.bias)
        assert loaded.nonlinearity == "tanh"

    def test_deterministic_bytes(self, tmp_path):
        positives, tf, af = _toy_problem()
        cfg = TrainConfig(epochs=3, seed=1, joint_dim=4)
        enc, _ = contrast.train(positives, tf, af, cfg)
        p1, p2 = tmp_path / "e1.json", tmp_path / "e2.json"
        contrast.save_encoder(enc, p1)
        contrast.save_encoder(enc, p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("train_config", [None, TrainConfig(epochs=2, lr=0.25, joint_dim=4)])
    def test_bytes_are_the_json_dumps_of_the_payload(self, tmp_path, train_config):
        rng = np.random.default_rng(3)
        enc = contrast.DualEncoder(
            tweet_map=contrast.AffineMap(rng.normal(size=(4, 300)), rng.normal(size=4)),
            article_map=contrast.AffineMap(rng.normal(size=(4, 120)), rng.normal(size=4)),
            nonlinearity="tanh",
        )

        def array(a):
            data = base64.b64encode(a.astype("<f8").tobytes()).decode("ascii")
            return {"dtype": "<f8", "shape": list(a.shape), "data": data}

        payload = {
            "format": "dual_encoder",
            "version": 2,
            "nonlinearity": "tanh",
            "joint_dim": 4,
            "tweet_map": {"weight": array(enc.tweet_map.weight), "bias": array(enc.tweet_map.bias)},
            "article_map": {
                "weight": array(enc.article_map.weight), "bias": array(enc.article_map.bias)
            },
        }
        if train_config is not None:
            payload["train_config"] = dataclasses.asdict(train_config)
        path = tmp_path / "encoder.json"
        contrast.save_encoder(enc, path, train_config)
        assert path.read_bytes() == (json.dumps(payload, sort_keys=True) + "\n").encode("ascii")

    @staticmethod
    def _write(path, edit, write=contrast.save_encoder):
        """Write a 1-wide two-input encoder with `write`, then apply `edit` to its JSON."""
        enc = contrast.DualEncoder(
            tweet_map=contrast.AffineMap(np.array([[0.5, -1.0]]), np.array([0.25])),
            article_map=contrast.AffineMap(np.array([[2.0, 0.0]]), np.array([-0.5])),
        )
        write(enc, path)
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))

    @pytest.mark.parametrize("edit", [
        lambda p: p.pop("article_map"),
        lambda p: p.update(nonlinearity="relu"),
        lambda p: p.update(joint_dim=5),
        lambda p: p["tweet_map"]["weight"].update(data="!" + p["tweet_map"]["weight"]["data"]),
        lambda p: p["tweet_map"]["weight"].update(data="AAAAAAAAAA="),
        lambda p: p["tweet_map"]["weight"].update(dtype="<f4"),
        lambda p: p["tweet_map"]["weight"].update(shape=[1, 3]),
        lambda p: p["tweet_map"]["bias"].update(shape=[2]),
        lambda p: p.update(version=3),
        lambda p: p.update(joint_dim=1.0),
        lambda p: p.update(version=2.0),
    ], ids=[
        "v2-missing-map", "v2-unknown-nonlinearity", "v2-joint-dim", "v2-junk-in-base64",
        "v2-bad-padding", "v2-dtype", "v2-shape", "v2-bias-shape", "unknown-version",
        "v2-float-joint-dim", "v2-float-version",
    ])
    def test_malformed_file_is_a_config_error(self, tmp_path, edit):
        path = tmp_path / "encoder.json"
        self._write(path, edit)
        with pytest.raises(ConfigInvalidError, match="encoder.json"):
            contrast.load_encoder(path)

    def test_version_1_file_is_a_config_error(self, tmp_path):
        """Version 1 held each array as nested float lists; it is no longer read."""
        path = tmp_path / "encoder.json"
        self._write(path, lambda p: None, save_encoder_v1_reference)
        with pytest.raises(ConfigInvalidError, match="encoder.json.*version 1"):
            contrast.load_encoder(path)

    def test_invalid_json_is_a_config_error(self, tmp_path):
        path = tmp_path / "encoder.json"
        path.write_text('{"format": "dual_encoder", "version": 2,')
        with pytest.raises(ConfigInvalidError, match="encoder.json"):
            contrast.load_encoder(path)

    @pytest.mark.parametrize("key, values, shape", [
        ("weight", [np.inf, 0.0], [1, 2]),
        ("bias", [np.nan], [1]),
    ], ids=["v2", "v2-nan-bias"])
    def test_non_finite_weights_are_rejected(self, tmp_path, key, values, shape):
        data = base64.b64encode(np.array(values).tobytes()).decode()
        array = {"dtype": "<f8", "shape": shape, "data": data}
        path = tmp_path / "encoder.json"
        self._write(path, lambda p: p["article_map"].update({key: array}))
        with pytest.raises(NonFiniteLossError):
            contrast.load_encoder(path)
