import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tweetlink import cli, contrast, corpus, evalx, linker, textprep, vectorize
from tweetlink.cli import RunConfig
from tweetlink.errors import ConfigInvalidError, EmptyCorpusError, EmptyGridError
from tweetlink.matrices import SimilarityMatrix


class TestRunConfig:
    def test_missing_required_paths(self):
        with pytest.raises(ConfigInvalidError):
            RunConfig.from_dict({"documents": "d.jsonl"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigInvalidError):
            RunConfig.from_dict({"documents": "d", "pairs": "p", "modle": "tfidf"})

    def test_bad_enum(self):
        with pytest.raises(ConfigInvalidError):
            RunConfig.from_dict({"documents": "d", "pairs": "p", "model": "bert"})

    def test_nested_sections(self):
        cfg = RunConfig.from_dict({
            "documents": "d", "pairs": "p",
            "train": {"lr": 0.5, "epochs": 3},
            "lda": {"n_topics": 4},
            "cleaning": {"min_word_len": 2},
        })
        assert cfg.train.lr == 0.5
        assert cfg.lda.n_topics == 4
        assert cfg.cleaning.min_word_len == 2

    def test_dotted_overrides(self):
        cfg = RunConfig.from_dict({"documents": "d", "pairs": "p"})
        out = cfg.with_overrides({"train.lr": 0.9, "seed": 3})
        assert out.train.lr == 0.9
        assert out.seed == 3
        with pytest.raises(ConfigInvalidError):
            cfg.with_overrides({"train.learning_rate": 1.0})

    def test_external_needs_embeddings(self):
        with pytest.raises(ConfigInvalidError):
            RunConfig.from_dict({"documents": "d", "pairs": "p", "model": "dual",
                                 "features": "external"})
        with pytest.raises(ConfigInvalidError):
            RunConfig.from_dict({"documents": "d", "pairs": "p", "model": "dual",
                                 "features": "external", "embeddings": "e.jsonl",
                                 "strategy": "mean_chunks"})


class TestExitCodes:
    def test_eval_success(self, small_corpus, make_config, capsys):
        cfg_path = make_config()
        assert cli.main(["--config", str(cfg_path), "eval"]) == 0

    def test_missing_documents_path(self, tmp_path, capsys):
        cfg = {"documents": str(tmp_path / "nope.jsonl"), "pairs": str(tmp_path / "p.jsonl"),
               "out_dir": str(tmp_path / "out")}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["--config", str(path), "eval"]) == 2

    def test_missing_config_flag(self, capsys):
        assert cli.main(["eval"]) == 2

    def test_unhashable_pair_label_exit_2(self, small_corpus, make_config, capsys):
        path = small_corpus["pairs_path"]
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = '{"tweet_id": "t", "article_id": "a", "label": []}\n'
        path.write_text("".join(lines))
        assert cli.main(["--config", str(make_config()), "eval"]) == 2
        assert "pairs.jsonl:3: unknown pair label []" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "prior",
        [{"alpha": float("nan")}, {"alpha": 0.0}, {"alpha": -1.0}, {"beta": 0.0}, {"beta": -1.0}],
    )
    def test_bad_lda_prior_exit_2(self, small_corpus, make_config, prior, capsys):
        cfg_path = make_config({"model": "lda", "lda": {"iters": 2, **prior}})
        assert cli.main(["--config", str(cfg_path), "eval"]) == 2

    def test_degenerate_labels_exit_1(self, tmp_path, capsys):
        docs, pairs = corpus.synth_fixture(seed=1, n_topics=1, n_articles=2,
                                           tweets_per_article=2, vocab_per_topic=10)
        unknown = [corpus.LinkedPair(p.tweet_id, p.article_id, "unknown") for p in pairs]
        corpus.write_documents(docs, tmp_path / "documents.jsonl")
        corpus.write_pairs(unknown, tmp_path / "pairs.jsonl")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "documents": str(tmp_path / "documents.jsonl"),
            "pairs": str(tmp_path / "pairs.jsonl"),
            "out_dir": str(tmp_path / "out"),
        }))
        assert cli.main(["--config", str(cfg), "eval"]) == 1

    def test_bad_matrix_cell_exit_2(self, small_corpus, make_config, tmp_path, capsys):
        matrix = tmp_path / "bad.csv"
        matrix.write_text("tweet_id,a1\nt1,abc\n")
        cfg_path = make_config()
        assert cli.main(["--config", str(cfg_path), "calibrate", "--matrix", str(matrix)]) == 2
        assert "bad.csv:2:" in capsys.readouterr().err

    def test_nan_embeddings_exit_2(self, small_corpus, make_config, tmp_path):
        # The NaN tweet is left out of training, so only scoring would see it.
        nan_id = next(d.id for d in small_corpus["docs"] if d.kind == "tweet")
        emb = tmp_path / "embeddings.jsonl"
        emb.write_text("".join(
            f'{{"id": "{d.id}", "vector": [{"NaN" if d.id == nan_id else 1.0}, 0.5, {i}]}}\n'
            for i, d in enumerate(small_corpus["docs"])
        ))
        train = [p for p in small_corpus["pairs"] if p.label == "match" and p.tweet_id != nan_id]
        corpus.write_pairs(train, tmp_path / "train.jsonl")
        cfg_path = make_config({
            "model": "dual", "features": "external", "embeddings": str(emb),
            "train_pairs": str(tmp_path / "train.jsonl"),
            "train": {"epochs": 2, "joint_dim": 4, "seed": 7},
        })
        # In a child process, so a hang fails at the timeout instead of stalling the suite.
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-m", "tweetlink.cli", "--config", str(cfg_path), "eval"],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 2, proc.stderr
        assert "embeddings.jsonl:" in proc.stderr


class TestRunPipeline:
    def test_report_schema_and_artifacts(self, small_corpus, make_config, tmp_path):
        cli.main(["--config", str(make_config()), "eval"])
        out = tmp_path / "out"
        assert (out / "similarity.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert set(report["metrics"]) == {"ap", "accuracy", "precision", "recall", "f1", "n"}
        assert report["calibrated"] is True

    def test_supplied_threshold_echoed(self, small_corpus, make_config, tmp_path):
        cfg_path = make_config({"threshold": 0.25}, name="thr.json")
        cli.main(["--config", str(cfg_path), "eval"])
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["threshold"] == 0.25
        assert report["calibrated"] is False

    def test_byte_identical_reruns(self, small_corpus, make_config, tmp_path):
        cfg_path = make_config()
        cli.main(["--config", str(cfg_path), "--out-dir", str(tmp_path / "r1"), "eval"])
        cli.main(["--config", str(cfg_path), "--out-dir", str(tmp_path / "r2"), "eval"])
        for name in ("similarity.csv", "report.json"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_transductive_dual_eval_is_flagged(self, small_corpus, make_config, tmp_path, capsys):
        """Without train_pairs the encoder trains on the very match pairs eval scores."""
        dual = {"model": "dual", "train": {"epochs": 2, "joint_dim": 4, "seed": 7}}
        assert cli.main(["--config", str(make_config(dual)), "eval"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        n_matches = sum(p.label == "match" for p in small_corpus["pairs"])
        assert report["n_train_eval_overlap"] == n_matches > 0
        warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
        assert len(warnings) == 1 and str(n_matches) in warnings[0]
        assert "set train_pairs" in warnings[0]

        # Training on every second match: only those are counted.
        matches = [p for p in small_corpus["pairs"] if p.label == "match"]
        corpus.write_pairs(matches[::2], tmp_path / "train.jsonl")
        cfg_path = make_config({**dual, "train_pairs": str(tmp_path / "train.jsonl")}, "t.json")
        assert cli.main(["--config", str(cfg_path), "eval"]) == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["n_train_eval_overlap"] == len(matches[::2])
        # train_pairs is already set: the hint names the labeled cells instead.
        warnings = [line for line in capsys.readouterr().err.splitlines() if "warning" in line]
        assert len(warnings) == 1 and str(len(matches[::2])) in warnings[0]
        assert "set train_pairs" not in warnings[0]
        assert "still labeled cells of pairs" in warnings[0]



class TestThresholdReplay:
    def test_stored_threshold_reproduces_decisions(self, make_config, tmp_path, monkeypatch):
        # Scores 0.1234564 (match) and 0.1234561 (no match): the calibrated
        # threshold is their midpoint, 0.12345625. At 6 decimals it would be
        # stored as 0.123456, which turns the true negative into a false positive.
        docs = [
            corpus.Document("a1", "article", "markets rally after the central bank", 1),
            corpus.Document("t1", "tweet", "markets rally today", 2),
            corpus.Document("t2", "tweet", "central bank news", 3),
        ]
        pairs = [corpus.LinkedPair("t1", "a1", "match"), corpus.LinkedPair("t2", "a1", "no_match")]
        corpus.write_documents(docs, tmp_path / "documents.jsonl")
        corpus.write_pairs(pairs, tmp_path / "pairs.jsonl")
        sim = SimilarityMatrix(("t1", "t2"), ("a1",), [[0.1234564], [0.1234561]])
        monkeypatch.setattr(linker, "score_matrix", lambda *args, **kwargs: sim)

        threshold, _ = linker.calibrate_threshold(
            sim, corpus.build_ground_truth(pairs, ["t1", "t2"], ["a1"])
        )
        assert threshold == pytest.approx(0.12345625, abs=1e-12)
        decisions = linker.classify(sim, threshold).values.tolist()
        assert decisions == [[1], [-1]]

        cfg_path = str(make_config())
        assert cli.main(["--config", cfg_path, "eval"]) == 0
        assert cli.main(["--config", cfg_path, "calibrate"]) == 0
        for name in ("report.json", "threshold.json"):
            stored = json.loads((tmp_path / "out" / name).read_text())["threshold"]
            assert stored == threshold
            assert linker.classify(sim, stored).values.tolist() == decisions

class TestSubcommands:
    def test_ingest(self, small_corpus, make_config, tmp_path):
        assert cli.main(["--config", str(make_config()), "ingest"]) == 0
        summary = json.loads((tmp_path / "out" / "ingest.json").read_text())
        assert summary["n_tweets"] == 24
        assert summary["n_articles"] == 8
        assert summary["pair_labels"]["match"] + summary["pair_labels"]["no_match"] == 192

    def test_prep(self, small_corpus, make_config, tmp_path):
        assert cli.main(["--config", str(make_config()), "prep"]) == 0
        lines = (tmp_path / "out" / "prepared.jsonl").read_text().splitlines()
        assert len(lines) == 32
        row = json.loads(lines[0])
        assert set(row) == {"id", "kind", "tokens"}

    def test_fit_tfidf_and_lda(self, small_corpus, make_config, tmp_path):
        cfg_path = make_config({"lda": {"n_topics": 2, "iters": 5}})
        assert cli.main(["--config", str(cfg_path), "fit", "--model", "tfidf"]) == 0
        assert cli.main(["--config", str(cfg_path), "fit", "--model", "lda"]) == 0
        assert (tmp_path / "out" / "model_tfidf.json").exists()
        assert (tmp_path / "out" / "model_lda.json").exists()

    def test_train_writes_encoder(self, small_corpus, make_config, tmp_path):
        cfg_path = make_config({
            "model": "dual",
            "train": {"epochs": 3, "joint_dim": 8, "seed": 7},
        }, name="dual.json")
        assert cli.main(["--config", str(cfg_path), "train"]) == 0
        loaded = contrast.load_encoder(tmp_path / "out" / "encoder.json")
        trained = cli._Run(RunConfig.from_file(cfg_path)).vectors[2]
        assert loaded.nonlinearity == trained.nonlinearity
        for side in ("tweet_map", "article_map"):
            for name in ("weight", "bias"):
                have, want = (getattr(getattr(e, side), name) for e in (loaded, trained))
                assert (have.shape, have.tobytes()) == (want.shape, want.tobytes())

    def test_score_and_calibrate(self, small_corpus, make_config, tmp_path):
        cfg_path = make_config()
        assert cli.main(["--config", str(cfg_path), "score"]) == 0
        matrix = tmp_path / "out" / "similarity.csv"
        assert matrix.exists()
        assert cli.main(["--config", str(cfg_path), "calibrate",
                         "--matrix", str(matrix)]) == 0
        thr = json.loads((tmp_path / "out" / "threshold.json").read_text())
        assert 0.0 <= thr["f1"] <= 1.0
        # Calibrated on the CSV's rounded cells, and says so.
        assert thr["score_decimals"] == 6
        assert thr["max_score_error"] == 5e-7
        assert cli.main(["--config", str(cfg_path), "calibrate"]) == 0
        thr = json.loads((tmp_path / "out" / "threshold.json").read_text())
        assert set(thr) == {"threshold", "f1"}

    def test_cascades(self, small_corpus, make_config, tmp_path):
        assert cli.main(["--config", str(make_config()), "cascades"]) == 0
        lines = (tmp_path / "out" / "cascades.jsonl").read_text().splitlines()
        assert len(lines) == 8  # one cascade per article group
        members = [m for line in lines for m in json.loads(line)["member_ids"]]
        assert len(members) == 24

    def test_report_roundtrip(self, tmp_path):
        data = [{"n": 1, "ap": 0.5, "n_cascades": 3}]
        src = tmp_path / "in.json"
        src.write_text(json.dumps(data))
        assert cli.main(["--out-dir", str(tmp_path), "report", "--input", str(src),
                         "--format", "csv"]) == 0
        assert (tmp_path / "report.csv").read_text() == "n,ap,n_cascades\n1,0.500000,3\n"

    def test_report_empty_is_error(self, tmp_path):
        src = tmp_path / "in.json"
        src.write_text("[]")
        assert cli.main(["--out-dir", str(tmp_path), "report", "--input", str(src)]) == 2


class TestSweepSize:
    def test_rows_and_limits(self, small_corpus, make_config, tmp_path):
        cfg_path = make_config()
        assert cli.main(["--config", str(cfg_path), "sweep-size", "--sizes", "1,2,3,99"]) == 0
        lines = (tmp_path / "out" / "sweep_size.csv").read_text().splitlines()
        assert lines[0] == "n,ap,n_cascades"
        assert len(lines) == 5
        full = lines[3].split(",")[1]
        beyond = lines[4].split(",")[1]
        assert full == beyond  # n >= max cascade size equals full-cascade evaluation

    def test_n1_equals_root_only_evaluation(self, small_corpus, make_config, tmp_path):
        cfg = RunConfig.from_file(make_config())
        tweets, articles, pairs = cli._load_corpus(cfg)
        cascades = cli.cascade_mod.build_cascades(tweets)
        root_ids = [c.root_id for c in cascades]
        article_ids = [d.id for d in articles]
        gt = corpus.build_ground_truth(
            [p for p in pairs if p.tweet_id in set(root_ids)], root_ids, article_ids
        )
        rows = cli.sweep_size(cfg, [1], cascades, gt)

        # Independent root-only evaluation: score roots directly.
        from tweetlink import evalx, linker, textprep, vectorize

        tokens = cli._prepare_tokens(cfg, tweets, articles)
        tv, av, _ = cli.build_vectors(
            cfg, tokens, [d.id for d in tweets], article_ids, root_ids, article_ids,
            cli._match_pairs(pairs),
        )
        sim = linker.score_matrix(tv, av, root_ids, article_ids)
        scores, labels = evalx.masked_pairs(sim.values, gt)
        assert rows[0].ap == pytest.approx(evalx.average_precision(scores, labels), abs=1e-12)

    def test_unsorted_sizes_rejected(self, small_corpus, make_config):
        cfg = RunConfig.from_file(make_config())
        with pytest.raises(ConfigInvalidError):
            cli.sweep_size(cfg, [3, 1], [], None)


class TestSweepHyperparams:
    @pytest.fixture
    def bigger_corpus(self, tmp_path):
        docs, pairs = corpus.synth_fixture(
            seed=2, n_topics=2, n_articles=20, tweets_per_article=3, vocab_per_topic=30
        )
        corpus.write_documents(docs, tmp_path / "documents.jsonl")
        corpus.write_pairs(pairs, tmp_path / "pairs.jsonl")
        return tmp_path

    def _config(self, tmp_path):
        return RunConfig.from_dict({
            "documents": str(tmp_path / "documents.jsonl"),
            "pairs": str(tmp_path / "pairs.jsonl"),
            "model": "dual",
            "seed": 3,
            "out_dir": str(tmp_path / "out"),
            "train": {"joint_dim": 16, "batch_size": 256, "seed": 3},
        })

    def test_separating_config_wins(self, bigger_corpus):
        cfg = self._config(bigger_corpus)
        tweets, articles, pairs = cli._load_corpus(cfg)
        split = cli.split_by_article([d.id for d in articles], cli._match_pairs(pairs), 3)
        grid = [
            {"train.lr": 1e-4, "train.epochs": 1},
            {"train.lr": 0.5, "train.epochs": 60},
        ]
        best, best_ap, rows = cli.sweep_hyperparams(cfg, grid, split)
        assert best == grid[1]
        assert best_ap == max(r["val_ap"] for r in rows)
        assert rows[1]["val_ap"] > rows[0]["val_ap"]

    def test_tie_takes_first(self, bigger_corpus):
        cfg = self._config(bigger_corpus)
        tweets, articles, pairs = cli._load_corpus(cfg)
        split = cli.split_by_article([d.id for d in articles], cli._match_pairs(pairs), 3)
        point = {"train.lr": 0.5, "train.epochs": 5}
        best, _, rows = cli.sweep_hyperparams(cfg, [dict(point), dict(point)], split)
        assert best == point
        assert rows[0]["val_ap"] == rows[1]["val_ap"]

    def test_empty_grid(self, bigger_corpus):
        cfg = self._config(bigger_corpus)
        with pytest.raises(EmptyGridError):
            cli.sweep_hyperparams(cfg, [], {"train_articles": ["a"], "val_articles": ["b"],
                                            "train_tweets": ["t"], "val_tweets": ["u"]})

    def test_overlapping_split_rejected(self, bigger_corpus):
        cfg = self._config(bigger_corpus)
        split = {"train_articles": ["a"], "val_articles": ["a"],
                 "train_tweets": ["t"], "val_tweets": ["u"]}
        with pytest.raises(ConfigInvalidError):
            cli.sweep_hyperparams(cfg, [{}], split)

    def test_budget_subsamples_deterministically(self, bigger_corpus):
        cfg = self._config(bigger_corpus)
        tweets, articles, pairs = cli._load_corpus(cfg)
        split = cli.split_by_article([d.id for d in articles], cli._match_pairs(pairs), 3)
        grid = [{"train.epochs": e, "train.lr": 0.5} for e in (1, 2, 3, 40)]
        best1, ap1, rows1 = cli.sweep_hyperparams(cfg, grid, split, budget=2)
        best2, ap2, rows2 = cli.sweep_hyperparams(cfg, grid, split, budget=2)
        assert rows1 == rows2 and best1 == best2
        assert len(rows1) == 2

    def _val_ap(self, cfg, split, positives):
        """Validation AP of cfg trained on `positives`, evaluated without sweep_hyperparams."""
        tweets, articles, pairs = cli._load_corpus(cfg)
        train_t, train_a = split["train_tweets"], split["train_articles"]
        val_t, val_a = split["val_tweets"], split["val_articles"]
        positives = [(t, a) for t, a in positives if t in set(train_t) and a in set(train_a)]
        tokens = cli._prepare_tokens(cfg, tweets, articles)
        tv, av, _ = cli.build_vectors(cfg, tokens, train_t, train_a, val_t, val_a, positives)
        sim = linker.score_matrix(tv, av, val_t, val_a)
        gt = corpus.build_ground_truth(pairs.select(set(val_t), set(val_a)), val_t, val_a)
        return evalx.average_precision(*evalx.masked_pairs(sim.values, gt))

    def test_text_overrides_rebuild_tokens(self, bigger_corpus):
        cfg = self._config(bigger_corpus)
        tweets, articles, pairs = cli._load_corpus(cfg)
        split = cli.split_by_article([d.id for d in articles], cli._match_pairs(pairs), 3)
        point = {"summary_articles": True, "max_summary_chars": 40,
                 "train.lr": 0.5, "train.epochs": 5}
        _, _, rows = cli.sweep_hyperparams(cfg, [point], split)
        derived = cfg.with_overrides(point)
        assert rows[0]["val_ap"] == self._val_ap(derived, split, cli._match_pairs(pairs))

    def test_trains_on_train_pairs(self, bigger_corpus):
        pairs = corpus.load_pairs(bigger_corpus / "pairs.jsonl")
        matches = [p for p in pairs if p.label == "match"]
        corpus.write_pairs(matches[::3], bigger_corpus / "train.jsonl")
        cfg = self._config(bigger_corpus).with_overrides(
            {"train_pairs": str(bigger_corpus / "train.jsonl")}
        )
        tweets, articles, pairs = cli._load_corpus(cfg)
        split = cli.split_by_article([d.id for d in articles], cli._match_pairs(pairs), 3)
        point = {"train.lr": 0.5, "train.epochs": 5}
        _, _, rows = cli.sweep_hyperparams(cfg, [point], split)
        positives = [(p.tweet_id, p.article_id) for p in matches[::3]]
        assert rows[0]["val_ap"] == self._val_ap(cfg.with_overrides(point), split, positives)

    def test_cleaning_override_that_empties_every_document(self, bigger_corpus):
        cfg = self._config(bigger_corpus)
        tweets, articles, pairs = cli._load_corpus(cfg)
        split = cli.split_by_article([d.id for d in articles], cli._match_pairs(pairs), 3)
        # Every word of the fixture has 6 letters.
        with pytest.raises(EmptyCorpusError):
            cli.sweep_hyperparams(cfg, [{"cleaning.min_word_len": 7}], split)


def _record_calls(monkeypatch, module, name):
    """Replace module.name with a pass-through that records (args, result) per call."""
    calls = []
    original = getattr(module, name)

    def record(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(module, name, record)
    return calls


def _fold_in_every_document(cfg, kind, tokens, fit_tweet_ids, fit_article_ids):
    """An lda featurizer that folds every document in, including those the fit sampled."""
    assert kind == "lda"
    model = cli._fit(cfg, kind, tokens, fit_tweet_ids, fit_article_ids)
    return lambda docs: vectorize.lda_infer_batch(
        model, [toks for _id, toks in docs], iters=cfg.lda.infer_iters, seed=cfg.seed
    )


class TestLdaTopicVectors:
    """Fitted documents take their lda rows from the chain; only others are folded in."""

    LDA = {"n_topics": 3, "alpha": 0.5, "iters": 5, "infer_iters": 5}

    def test_run_takes_every_row_from_the_fit(self, small_corpus, make_config, monkeypatch):
        cfg = RunConfig.from_file(make_config({"model": "lda", "lda": self.LDA}))
        fits = _record_calls(monkeypatch, vectorize, "lda_fit")
        folds = _record_calls(monkeypatch, vectorize, "lda_infer_batch")
        run = cli._Run(cfg)
        tweet_rows, article_rows, encoder = run.vectors
        assert encoder is None and len(fits) == 1 and folds == []
        theta = fits[0][1].theta
        n_tweets = len(run.tweet_ids)
        assert theta.shape == (n_tweets + len(run.article_ids), self.LDA["n_topics"])
        np.testing.assert_array_equal(tweet_rows, theta[:n_tweets])
        np.testing.assert_array_equal(article_rows, theta[n_tweets:])

    def test_sweep_hp_folds_in_the_validation_side_as_before(
        self, small_corpus, make_config, tmp_path, monkeypatch
    ):
        grid_path = tmp_path / "grid.json"
        grid_path.write_text(json.dumps([{"lda.n_topics": 2}, {"lda.n_topics": 3, "lda.iters": 3}]))
        outputs = {}
        for name in ("fitted", "fold_in"):
            with monkeypatch.context() as patch:
                if name == "fold_in":
                    patch.setattr(cli, "_featurizer", _fold_in_every_document)
                folds = _record_calls(patch, vectorize, "lda_infer_batch")
                cfg_path = make_config(
                    {"model": "lda", "lda": self.LDA, "out_dir": str(tmp_path / name)}
                )
                assert cli.main(["--config", str(cfg_path), "sweep-hp", "--grid", str(grid_path)]) == 0
            outputs[name] = (tmp_path / name / "sweep_hp.json").read_bytes()
            if name == "fitted":
                split = json.loads(outputs[name])["split"]
                val_t, val_a = split["val_tweets"], split["val_articles"]
                # Per grid point one call per validation side, and nothing else.
                assert [len(args[1]) for args, _ in folds] == [len(val_t), len(val_a)] * 2
        assert outputs["fitted"] == outputs["fold_in"]

    @pytest.mark.parametrize("strategy", ["mean_chunks", "truncate"])
    def test_dual_folds_in_article_pieces_only(
        self, small_corpus, make_config, monkeypatch, strategy
    ):
        cfg = RunConfig.from_file(make_config({
            "model": "dual", "features": "lda", "strategy": strategy, "lda": self.LDA,
            "chunking": {"content_len": 6, "truncate_limit": 20},
            "train": {"epochs": 1, "joint_dim": 4, "seed": 7},
        }))
        folds = _record_calls(monkeypatch, vectorize, "lda_infer_batch")
        run = cli._Run(cfg)
        run.vectors
        tokens = run.tokens
        # A piece equal to the whole article is the fitted document itself.
        expected = [
            piece for doc_id in run.article_ids
            for piece in cli._article_pieces(cfg, tokens[doc_id]) if piece != tokens[doc_id]
        ]
        assert expected
        assert [args[1] for args, _ in folds] == [expected]


class TestEmitReport:
    def test_deterministic_bytes(self, tmp_path):
        data = {"b": 0.123456789, "a": [1, 2.0]}
        p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
        cli.emit_report(data, "json", p1)
        cli.emit_report(data, "json", p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert json.loads(p1.read_text())["b"] == 0.123457  # 6-decimal fixing

    def test_csv_schema(self, tmp_path):
        rows = [{"n": 1, "ap": 1.0, "n_cascades": 2}, {"n": 5, "ap": 0.25, "n_cascades": 2}]
        path = tmp_path / "sweep.csv"
        cli.emit_report(rows, "csv", path)
        lines = path.read_text().splitlines()
        assert lines[0] == "n,ap,n_cascades"
        assert lines[1] == "1,1.000000,2"

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ConfigInvalidError):
            cli.emit_report([], "json", tmp_path / "r.json")

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigInvalidError):
            cli.emit_report({"a": 1}, "xml", tmp_path / "r.xml")


class TestCommandsAgree:
    """score, calibrate, sweep-size and train run the stages eval runs, on the same positives."""

    @pytest.fixture(params=["tfidf", "lda", "dual"])
    def config(self, request, small_corpus, make_config, tmp_path):
        extra = {
            "tfidf": {},
            "lda": {"model": "lda", "lda": {"n_topics": 2, "iters": 5, "infer_iters": 5}},
            "dual": {
                "model": "dual", "strategy": "truncate",
                "train_pairs": str(tmp_path / "train.jsonl"),
                "train": {"epochs": 3, "joint_dim": 8, "seed": 7},
            },
        }[request.param]
        matches = [p for p in small_corpus["pairs"] if p.label == "match"]
        corpus.write_pairs(matches[::2], tmp_path / "train.jsonl")  # a strict subset
        return request.param, str(make_config(extra))

    def test_outputs_match_eval(self, config, tmp_path, monkeypatch):
        model, cfg_path = config
        scored = []
        score_matrix = linker.score_matrix

        def recording(*args, **kwargs):
            scored.append(score_matrix(*args, **kwargs))
            return scored[-1]

        monkeypatch.setattr(linker, "score_matrix", recording)

        def run(command, *flags):
            out = tmp_path / command
            assert cli.main(["--config", cfg_path, "--out-dir", str(out), command, *flags]) == 0
            return out

        evaluated, scored_out, calibrated = run("eval"), run("score"), run("calibrate")
        run("sweep-size", "--sizes", "1,2")
        assert (scored_out / "similarity.csv").read_bytes() == (
            evaluated / "similarity.csv"
        ).read_bytes()
        report = json.loads((evaluated / "report.json").read_text())
        threshold = json.loads((calibrated / "threshold.json").read_text())
        assert threshold["threshold"] == report["threshold"]
        # sweep-size aggregates the same scores eval writes.
        assert len(scored) == 4
        assert all(np.array_equal(sim.values, scored[0].values) for sim in scored)
        if model == "dual":
            encoder = (run("train") / "encoder.json").read_bytes()
            assert encoder == (evaluated / "encoder.json").read_bytes()


def test_cli_surface():
    """Subcommands and their option strings; dropping or renaming one breaks callers."""
    parser = cli._build_parser()

    def options(p):
        return {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}

    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert options(parser) == {"--config", "--seed", "--out-dir"}
    assert {name: options(p) for name, p in sub.choices.items()} == {
        "ingest": set(),
        "prep": set(),
        "fit": {"--model"},
        "train": set(),
        "score": set(),
        "calibrate": {"--matrix"},
        "eval": set(),
        "cascades": set(),
        "sweep-size": {"--sizes"},
        "sweep-hp": {"--grid", "--budget", "--val-fraction"},
        "report": {"--input", "--format"},
    }


def test_dual_featurizes_each_document_once(small_corpus, make_config, monkeypatch):
    rows = []
    transform = vectorize.tfidf_transform_batch
    monkeypatch.setattr(
        vectorize, "tfidf_transform_batch", lambda model, docs: rows.extend(docs) or transform(model, docs)
    )
    cfg_path = make_config({"model": "dual", "train": {"epochs": 1, "joint_dim": 4, "seed": 7}})
    assert cli.main(["--config", str(cfg_path), "eval"]) == 0
    assert len(rows) == len(small_corpus["docs"])  # 24 tweets + 8 single-piece articles


def test_sweep_size_needs_the_runs_article_columns(small_corpus, make_config):
    cfg = RunConfig.from_file(make_config())
    tweets, articles, pairs = cli._load_corpus(cfg)
    cascades = cli.cascade_mod.build_cascades(tweets)
    root_ids = [c.root_id for c in cascades]
    reversed_articles = [d.id for d in articles][::-1]
    gt = corpus.build_ground_truth(pairs.select(set(root_ids)), root_ids, reversed_articles)
    with pytest.raises(ConfigInvalidError):
        cli.sweep_size(cfg, [1], cascades, gt)


def test_import_loads_no_scipy():
    """scipy is imported only where LDA computes its log-likelihood, not at startup."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, tweetlink.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("sizes", ["1,x", "1.5"])
def test_sweep_size_rejects_non_integer_sizes(small_corpus, make_config, sizes, capsys):
    assert cli.main(["--config", str(make_config()), "sweep-size", "--sizes", sizes]) == 2
    assert "--sizes" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["documents", "pairs", "keywords", "train_pairs"])
def test_sweep_hp_rejects_corpus_overrides(small_corpus, make_config, tmp_path, key, capsys):
    # The corpus is loaded once for the whole grid, so such a point could not be applied.
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{}, {key: str(tmp_path / "nope.txt")}]))
    code = cli.main(["--config", str(make_config()), "sweep-hp", "--grid", str(grid)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep_hp.json").exists()


@pytest.mark.parametrize("strategy", ["truncate", "mean_chunks", "augment"])
def test_dual_rows_match_per_document_encoding(small_corpus, make_config, strategy):
    """build_vectors encodes each side in one batch; each row is the document's own encode()."""
    cfg = RunConfig.from_file(make_config({
        "model": "dual", "strategy": strategy,
        "chunking": {"content_len": 6, "header_len": 5, "part_len": 4, "truncate_limit": 20},
        "train": {"epochs": 2, "joint_dim": 5, "seed": 7},
    }))
    run = cli._Run(cfg)
    tweet_rows, article_rows, encoder = run.vectors
    tokens, trunc = run.tokens, cfg.chunking.truncate_limit
    model = cli._fit(cfg, "tfidf", tokens, run.tweet_ids, run.article_ids)
    for row, doc_id in zip(tweet_rows, run.tweet_ids):
        feats = vectorize.tfidf_transform(model, textprep.truncate(tokens[doc_id], trunc))
        assert np.array_equal(row, contrast.encode(encoder, "tweet", feats))
    n_pieces = []
    for row, doc_id in zip(article_rows, run.article_ids):
        pieces = [vectorize.tfidf_transform(model, p) for p in cli._article_pieces(cfg, tokens[doc_id])]
        n_pieces.append(len(pieces))
        features = pieces if strategy == "mean_chunks" else pieces[0]
        assert np.array_equal(row, contrast.encode(encoder, "article", features, strategy))
    if strategy != "truncate":
        assert max(n_pieces) > 1
