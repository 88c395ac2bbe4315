import argparse
import ast
import csv
import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reference import sweep_size_reference
from smoke import UNRUN_AFTER_CALL
from tweetlink import cli, contrast, corpus, evalx, linker, textprep, vectorize
from tweetlink.cli import RunConfig
from tweetlink.errors import ConfigInvalidError, EmptyCorpusError, EmptyGridError, UnknownIdError
from tweetlink.matrices import CsrRows, SimilarityMatrix


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


    @pytest.mark.parametrize("model", ["tfidf", "lda"])
    @pytest.mark.parametrize(
        "extra",
        [{"features": "external", "embeddings": "e.jsonl"}, {"features": "lda"},
         {"strategy": "mean_chunks"}, {"strategy": "augment"}],
    )
    def test_features_and_strategy_need_the_dual_model(self, model, extra):
        with pytest.raises(ConfigInvalidError, match="features and strategy"):
            RunConfig.from_dict({"documents": "d", "pairs": "p", "model": model, **extra})
        RunConfig.from_dict({"documents": "d", "pairs": "p", "model": "dual", **extra})

    @pytest.mark.parametrize(
        "prior", [{"alpha": 0.0}, {"alpha": -1.0}, {"beta": 0.0}, {"beta": -1e-9}]
    )
    def test_lda_priors_must_be_positive(self, prior):
        (name, _value), = prior.items()
        with pytest.raises(ConfigInvalidError, match=f"{name} must be > 0"):
            RunConfig.from_dict({"documents": "d", "pairs": "p", "lda": prior})
        RunConfig.from_dict({"documents": "d", "pairs": "p", "lda": {"alpha": None, "beta": 1e-9}})

    def test_integer_fields_stop_at_int32_but_seeds_do_not(self):
        base = {"documents": "d", "pairs": "p"}
        cfg = RunConfig.from_dict({**base, "lda": {"n_topics": 2**31 - 1},
                                   "seed": 2**40, "train": {"seed": 2**40}})
        assert (cfg.lda.n_topics, cfg.seed, cfg.train.seed) == (2**31 - 1, 2**40, 2**40)
        for section, key in [("lda", "iters"), ("train", "epochs"), ("chunking", "part_len")]:
            message = f"{section}.{key} must be at most 2147483647"
            with pytest.raises(ConfigInvalidError, match=message):
                RunConfig.from_dict({**base, section: {key: 2**31}})
        with pytest.raises(ConfigInvalidError, match="max_summary_chars must be at most"):
            RunConfig.from_dict({**base, "max_summary_chars": 2**31})

    def test_integer_too_long_to_print_is_a_config_error(self):
        # 5,000 digits: past the 4,300-digit limit of int-to-str, so the
        # message names the size instead of the value.
        with pytest.raises(ConfigInvalidError, match="lda.alpha .* an integer of 16610 bits"):
            RunConfig.from_dict({"documents": "d", "pairs": "p", "lda": {"alpha": 10**5000}})

    @pytest.mark.parametrize("section, key, value", [
        ("train", "lr", math.nan), ("train", "epochs", 2.5), ("lda", "n_topics", 2.5),
        ("lda", "beta", math.inf), ("cleaning", "min_word_len", True), ("", "threshold", math.nan),
    ])
    def test_bad_value_rejected_in_python_as_in_json(self, section, key, value):
        """A Python caller meets the one check as a JSON config does, with the same message."""
        base = {"documents": "d", "pairs": "p"}
        if section:
            section_cls = type(getattr(RunConfig(**base), section))
            raw = {**base, section: {key: value}}
            build = lambda: RunConfig(**base, **{section: section_cls(**{key: value})})
        else:
            raw = {**base, key: value}
            build = lambda: RunConfig(**raw)
        qualified = f"{section}.{key}" if section else key
        with pytest.raises(ConfigInvalidError, match=f"^{re.escape(qualified)} must be ") as json_err:
            RunConfig.from_dict(raw)
        with pytest.raises(ValueError) as python_err:
            build()
        assert isinstance(python_err.value, ConfigInvalidError)
        assert str(python_err.value) == str(json_err.value)

    def test_unknown_section_key_named_with_its_section(self):
        with pytest.raises(ConfigInvalidError, match=re.escape("unknown config keys: ['lda.bogus']")):
            RunConfig.from_dict({"documents": "d", "pairs": "p", "lda": {"bogus": 1}})

    def test_section_of_another_type_rejected(self):
        with pytest.raises(ConfigInvalidError, match="^lda must be an object, got 3$"):
            RunConfig.from_dict({"documents": "d", "pairs": "p", "lda": 3})

    def test_chunking_content_len_defaults_to_510(self):
        cfg = RunConfig.from_dict({"documents": "d", "pairs": "p",
                                   "chunking": {"truncate_limit": 100}})
        assert (cfg.chunking.content_len, cfg.chunking.truncate_limit) == (510, 100)
        assert cfg.chunking == textprep.ChunkingConfig(truncate_limit=100)


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

    @pytest.mark.parametrize(
        "field, value", [("created_at", "3.9"), ("created_at", "1e400"), ("text", "7"), ("id", "null")]
    )
    def test_ill_typed_document_field_exit_2(self, small_corpus, make_config, field, value, capsys):
        path = small_corpus["documents"]
        lines = path.read_text().splitlines(keepends=True)
        obj = json.loads(lines[3])
        lines[3] = json.dumps({**obj, field: "@"}).replace('"@"', value) + "\n"
        path.write_text("".join(lines))
        assert cli.main(["--config", str(make_config()), "eval"]) == 2
        err = capsys.readouterr().err
        assert f"documents.jsonl:4: {field} must be" in err and "Traceback" not in err

    def test_unhashable_pair_label_exit_2(self, small_corpus, make_config, capsys):
        path = small_corpus["pairs_path"]
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = '{"tweet_id": "t", "article_id": "a", "label": []}\n'
        path.write_text("".join(lines))
        assert cli.main(["--config", str(make_config()), "eval"]) == 2
        err = capsys.readouterr().err
        assert "pairs.jsonl:3: label must be one of 'match', 'no_match', 'unknown', got an array" in err

    @pytest.mark.parametrize(
        "prior",
        [{"alpha": float("nan")}, {"alpha": 0.0}, {"alpha": -1.0}, {"beta": 0.0}, {"beta": -1.0},
         # An integer too large for a float: a config error, not an OverflowError.
         {"alpha": 10**400}, {"beta": 10**400}],
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

    def test_blank_matrix_row_exit_2(self, small_corpus, make_config, tmp_path, capsys):
        matrix = tmp_path / "blank.csv"
        matrix.write_bytes(b"tweet_id\r\n\r\n")
        cfg_path = make_config()
        assert cli.main(["--config", str(cfg_path), "calibrate", "--matrix", str(matrix)]) == 2
        assert "blank.csv:2: row has no tweet id" in capsys.readouterr().err

    def test_repeated_matrix_row_exit_2(self, small_corpus, make_config, tmp_path, capsys):
        cfg_path = make_config()
        assert cli.main(["--config", str(cfg_path), "score"]) == 0
        lines = (tmp_path / "out" / "similarity.csv").read_text().splitlines(keepends=True)
        tweet_id = lines[1].split(",")[0]
        n_articles = len(lines[0].split(",")) - 1
        matrix = tmp_path / "repeated.csv"
        matrix.write_text("".join(lines) + tweet_id + ",0.999000" * n_articles + "\n")
        assert cli.main(["--config", str(cfg_path), "calibrate", "--matrix", str(matrix)]) == 2
        err = capsys.readouterr().err
        assert f"repeated.csv:{len(lines) + 1}: repeated tweet id {tweet_id!r}" in err
        assert not (tmp_path / "out" / "threshold.json").exists()

    def test_matrix_missing_labeled_id_exit_2(self, small_corpus, make_config, tmp_path, capsys):
        # The id is in the corpus; only the matrix lacks its column.
        cfg_path = make_config()
        assert cli.main(["--config", str(cfg_path), "score"]) == 0
        lines = (tmp_path / "out" / "similarity.csv").read_text().splitlines(keepends=True)
        article_id = lines[0].split(",")[1]
        lines[0] = lines[0].replace(f",{article_id},", ",renamed,", 1)
        matrix = tmp_path / "renamed.csv"
        matrix.write_text("".join(lines))
        assert cli.main(["--config", str(cfg_path), "calibrate", "--matrix", str(matrix)]) == 2
        err = capsys.readouterr().err
        assert f"renamed.csv: labeled id {article_id!r} is not in the matrix" in err
        assert not (tmp_path / "out" / "threshold.json").exists()

    def test_non_dual_model_with_dual_inputs_exit_2(self, small_corpus, make_config, tmp_path,
                                                    capsys):
        # features and strategy choose the dual encoder's input; a tfidf run
        # must not silently ignore them.
        cfg_path = make_config({
            "model": "tfidf", "features": "external", "embeddings": str(tmp_path / "none.jsonl"),
        })
        assert cli.main(["--config", str(cfg_path), "eval"]) == 2
        assert "features and strategy" in capsys.readouterr().err
        assert not (tmp_path / "out" / "report.json").exists()

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

    @pytest.mark.parametrize("text, message", [
        ("aaaaai\nAaaaab\n", "keywords.txt:2: keyword 'Aaaaab' is not lowercase"),
        ("\n  \n", "keywords.txt holds no keywords"),
    ])
    def test_bad_keywords_file_exit_2(self, small_corpus, make_config, tmp_path, text, message,
                                      capsys):
        keywords = tmp_path / "keywords.txt"
        keywords.write_text(text)
        assert cli.main(["--config", str(make_config({"keywords": str(keywords)})), "ingest"]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["cascades"], ["sweep-size", "--sizes", "1,2"]])
    def test_reply_before_its_parent_exit_2(self, small_corpus, make_config, command, capsys):
        docs = small_corpus["docs"]
        created = {d.id: d.created_at for d in docs}
        reply = next(d for d in docs if d.parent_id is not None)
        early = dataclasses.replace(reply, created_at=created[reply.parent_id] - 1)
        corpus.write_documents([early if d is reply else d for d in docs],
                               small_corpus["documents"])
        assert cli.main(["--config", str(make_config()), *command]) == 2
        err = capsys.readouterr().err
        assert repr(reply.id) in err and repr(reply.parent_id) in err

    @pytest.mark.parametrize("which, value", [
        ("documents", r'"created_at": -?\d+'), ("pairs_path", r'"tweet_id": "[^"]*"'),
    ])
    def test_number_past_the_int_digit_limit_exit_2(self, small_corpus, make_config, which,
                                                     value, capsys):
        # json.loads raises a plain ValueError for a number of over 4,300 digits.
        path = small_corpus[which]
        lines = path.read_text().splitlines(keepends=True)
        field = value.split(":")[0]
        lines[1] = re.sub(value, f"{field}: 1" + "0" * 5000, lines[1], count=1)
        assert "0" * 5000 in lines[1]
        path.write_text("".join(lines))
        assert cli.main(["--config", str(make_config()), "eval"]) == 2
        assert f"{path}:2: Exceeds the limit" in capsys.readouterr().err

    def test_zero_width_embeddings_exit_2(self, small_corpus, make_config, tmp_path, capsys):
        emb = tmp_path / "embeddings.jsonl"
        emb.write_text("".join(f'{{"id": "{d.id}", "vector": []}}\n' for d in small_corpus["docs"]))
        cfg_path = make_config({
            "model": "dual", "features": "external", "embeddings": str(emb),
            "train": {"epochs": 2, "joint_dim": 4, "seed": 7},
        })
        assert cli.main(["--config", str(cfg_path), "eval"]) == 2
        assert "embeddings.jsonl:1:" in capsys.readouterr().err


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

    def test_ingest_with_keywords_and_annotations(self, small_corpus, make_config, tmp_path):
        keywords = tmp_path / "keywords.txt"
        keywords.write_text("aaaaai\naabaaf\n")
        annotations = tmp_path / "annotations.jsonl"
        records = [
            {"tweet_id": p.tweet_id, "article_id": p.article_id, "annotator_id": annotator,
             "verdict": "skip"}
            for p in small_corpus["pairs"][:2] for annotator in ("u1", "u2")
        ]
        annotations.write_text("".join(json.dumps(r) + "\n" for r in records))
        cfg_path = make_config({"keywords": str(keywords), "annotations": str(annotations)})
        assert cli.main(["--config", str(cfg_path), "ingest"]) == 0
        summary = json.loads((tmp_path / "out" / "ingest.json").read_text())

        kept = {d.id: d.kind for d in small_corpus["docs"]
                if {"aaaaai", "aabaaf"} & set(d.text.split())}
        pairs = [p for p in small_corpus["pairs"] if p.tweet_id in kept and p.article_id in kept]
        kinds = list(kept.values())
        assert 0 < kinds.count("tweet") < 24 and 0 < kinds.count("article") < 8
        assert summary["n_tweets"] == kinds.count("tweet")
        assert summary["n_articles"] == kinds.count("article")
        assert summary["n_pairs"] == len(pairs)
        assert summary["pair_labels"] == {
            label: sum(p.label == label for p in pairs) for label in corpus.PAIR_LABELS
        }
        assert summary["pair_labels"]["match"] and summary["pair_labels"]["no_match"]
        assert summary["n_annotations"] == 4

    def test_eval_on_keyword_filtered_corpus(self, small_corpus, make_config, tmp_path):
        """A keywords file gives the artifacts of the same run on the kept
        documents and the pairs between them."""
        keywords = tmp_path / "keywords.txt"
        keywords.write_text("aaaaai\naabaaf\n")
        filtered = make_config({"keywords": str(keywords), "out_dir": str(tmp_path / "filtered")},
                               name="filtered.json")
        docs = [d for d in small_corpus["docs"] if {"aaaaai", "aabaaf"} & set(d.text.split())]
        ids = {d.id for d in docs}
        corpus.write_documents(docs, tmp_path / "kept_documents.jsonl")
        corpus.write_pairs(
            [p for p in small_corpus["pairs"] if p.tweet_id in ids and p.article_id in ids],
            tmp_path / "kept_pairs.jsonl",
        )
        kept = make_config({"documents": str(tmp_path / "kept_documents.jsonl"),
                            "pairs": str(tmp_path / "kept_pairs.jsonl"),
                            "out_dir": str(tmp_path / "kept")}, name="kept.json")
        assert cli.main(["--config", str(filtered), "eval"]) == 0
        assert cli.main(["--config", str(kept), "eval"]) == 0
        report = json.loads((tmp_path / "filtered" / "report.json").read_text())
        assert report["n_tweets"] + report["n_articles"] == len(docs) < 32
        for name in ("report.json", "similarity.csv"):
            assert (tmp_path / "filtered" / name).read_bytes() == (tmp_path / "kept" / name).read_bytes()

    def test_prep(self, small_corpus, make_config, tmp_path):
        assert cli.main(["--config", str(make_config()), "prep"]) == 0
        lines = (tmp_path / "out" / "prepared.jsonl").read_text().splitlines()
        assert len(lines) == 32
        row = json.loads(lines[0])
        assert set(row) == {"id", "kind", "tokens"}

    def test_prep_and_cascades_write_non_ascii_as_utf8(self, make_config, tmp_path):
        """prepared.jsonl and cascades.jsonl are written as documents and pairs
        are (corpus.write_jsonl): non-ASCII characters raw, in UTF-8."""
        tweet, reply, article = "tw\u00e9et", "r\u00e9ply", "\u65b0\u805e"
        corpus.write_documents([
            corpus.Document(tweet, "tweet", "caf\u00e9 na\u00efve", 1),
            corpus.Document(reply, "tweet", "d\u00e9j\u00e0", 2, None, tweet, "reply"),
            corpus.Document(article, "article", "\u65b0\u805e\u8a18\u4e8b text", 3),
        ], tmp_path / "documents.jsonl")
        corpus.write_pairs([corpus.LinkedPair(tweet, article, "match")], tmp_path / "pairs.jsonl")
        cfg_path = make_config()
        assert cli.main(["--config", str(cfg_path), "prep"]) == 0
        assert cli.main(["--config", str(cfg_path), "cascades"]) == 0
        for name, rows in [
            ("prepared.jsonl", [
                {"id": tweet, "kind": "tweet", "tokens": ["caf\u00e9", "na\u00efve"]},
                {"id": reply, "kind": "tweet", "tokens": ["d\u00e9j\u00e0"]},
                {"id": article, "kind": "article", "tokens": ["\u65b0\u805e\u8a18\u4e8b", "text"]},
            ]),
            ("cascades.jsonl", [{"root_id": tweet, "member_ids": [tweet, reply]}]),
        ]:
            want = "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows)
            assert (tmp_path / "out" / name).read_bytes() == want.encode()

    def test_fit_tfidf_and_lda(self, small_corpus, make_config, tmp_path):
        cfg_path = make_config({"lda": {"n_topics": 2, "iters": 5}})
        assert cli.main(["--config", str(cfg_path), "fit", "--model", "tfidf"]) == 0
        assert cli.main(["--config", str(cfg_path), "fit", "--model", "lda"]) == 0
        assert (tmp_path / "out" / "model_tfidf.json").exists()
        assert (tmp_path / "out" / "model_lda.json").exists()

    @pytest.mark.parametrize("kind", ["tfidf", "lda"])
    def test_fit_file_loads_back_bit_for_bit(self, small_corpus, make_config, tmp_path, kind):
        cfg_path = make_config({"lda": {"n_topics": 2, "iters": 5}})
        assert cli.main(["--config", str(cfg_path), "fit", "--model", kind]) == 0
        load = {"tfidf": vectorize.load_tfidf, "lda": vectorize.load_lda}[kind]
        loaded = load(tmp_path / "out" / f"model_{kind}.json")
        run = cli._Run(RunConfig.from_file(cfg_path))
        fitted, _ = cli._fit_with_docs(run.cfg, kind, run.tokens, run.tweet_ids, run.article_ids)
        assert loaded.vocab.index == fitted.vocab.index
        array = {"tfidf": "idf", "lda": "phi"}[kind]
        have, want = getattr(loaded, array), getattr(fitted, array)
        assert (have.shape, have.tobytes()) == (want.shape, want.tobytes())
        scalars = {"tfidf": ["n_docs"],
                   "lda": ["n_topics", "alpha", "beta", "seed", "log_likelihood"]}[kind]
        assert [getattr(loaded, s) for s in scalars] == [getattr(fitted, s) for s in scalars]

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
        rows = cli.sweep_size(cfg, [1])

        # Independent root-only evaluation: score roots directly.
        from tweetlink import evalx, linker, textprep, vectorize

        tokens = cli._prepare_tokens(cfg, tweets, articles)
        tv, av, _ = cli.build_vectors(
            cfg, tokens, [d.id for d in tweets], article_ids, root_ids, article_ids,
            cli._match_pairs(pairs),
        )
        sim = linker.score_matrix(tv, av, root_ids, article_ids)
        scores, labels = evalx.masked_pairs(sim.values, gt)
        assert rows[0]["ap"] == pytest.approx(evalx.average_precision(scores, labels), abs=1e-12)

    def test_unsorted_sizes_rejected(self, small_corpus, make_config):
        cfg = RunConfig.from_file(make_config())
        with pytest.raises(ConfigInvalidError):
            cli.sweep_size(cfg, [3, 1])


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
    model = cli._fit_with_docs(cfg, kind, tokens, fit_tweet_ids, fit_article_ids)[0]
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

    def test_csv_quotes_a_cell_holding_a_comma(self, tmp_path):
        path = tmp_path / "r.csv"
        cli.emit_report([{"name": "x,y", "ap": 0.5}], "csv", path)
        assert path.read_text() == 'name,ap\n"x,y",0.500000\n'
        with open(path, newline="") as fh:
            assert list(csv.reader(fh)) == [["name", "ap"], ["x,y", "0.500000"]]

    def test_csv_rows_with_unlike_keys_rejected(self, tmp_path):
        with pytest.raises(ConfigInvalidError, match="same keys"):
            cli.emit_report([{"a": 1.5}, {"b": 2}], "csv", tmp_path / "r.csv")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_exit_2(self, tmp_path, fmt, value, capsys):
        src = tmp_path / "in.json"
        src.write_text(json.dumps([{"n": 1, "ap": value}]))
        command = ["--out-dir", str(tmp_path), "report", "--input", str(src), "--format", fmt]
        assert cli.main(command) == 2
        assert "NaN or infinity" in capsys.readouterr().err
        assert not (tmp_path / f"report.{fmt}").exists()

    def test_nested_non_finite_value_rejected(self, tmp_path):
        with pytest.raises(ConfigInvalidError, match="NaN or infinity"):
            cli.emit_report({"rows": [{"ap": math.nan}]}, "json", tmp_path / "r.json")


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


@pytest.mark.parametrize("aggregation", cli.cascade_mod.AGGREGATIONS)
def test_sweep_size_matches_a_cascade_cut_per_size(small_corpus, make_config, aggregation):
    """Each cut aggregates a prefix of its cascade's member rows: the same
    rows, bit for bit, as the oracle's n oldest members stacked afresh."""
    run = cli._Run(RunConfig.from_file(make_config({"aggregation": aggregation})))
    sizes = [1, 2, 3, 99]
    tweets, _articles, pairs = run.corpus
    cascades = cli.cascade_mod.build_cascades(tweets)
    root_ids = [c.root_id for c in cascades]
    gt = corpus.build_ground_truth(pairs.select(set(root_ids)), root_ids, run.article_ids)
    expected = sweep_size_reference(run.similarity, sizes, cascades, gt, aggregation)
    assert cli.sweep_size(run, sizes) == expected


def _run_fresh(code: str, *argv: str) -> set[str]:
    """The words that `code` prints, run with `argv` in a fresh interpreter
    that imports tweetlink from this tree."""
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


def _packages_after_cli_import() -> set[str]:
    """The top-level names in sys.modules after `import tweetlink.cli` in a fresh interpreter."""
    return _run_fresh("import sys, tweetlink.cli; print(*{m.split('.')[0] for m in sys.modules})")


def test_import_tweetlink_runs_no_submodule():
    """`import tweetlink` loads none of its modules and no numpy: its public
    names resolve on first access."""
    loaded = _run_fresh(
        "import sys, tweetlink; print(*[m for m in sys.modules "
        "if m.startswith('tweetlink.') or m.split('.')[0] == 'numpy'])"
    )
    assert loaded == set()


def test_cli_import_registers_the_dual_encoder_and_cascades_unrun():
    assert _run_fresh(UNRUN_AFTER_CALL) == {"tweetlink.contrast", "tweetlink.cascade"}


@pytest.mark.parametrize("model, command, unrun", [
    ("tfidf", ["eval"], {"tweetlink.contrast", "tweetlink.cascade"}),
    ("lda", ["eval"], {"tweetlink.contrast", "tweetlink.cascade"}),
    ("dual", ["eval"], {"tweetlink.cascade"}),
    ("tfidf", ["sweep-size", "--sizes", "1,2"], {"tweetlink.contrast"}),
    ("tfidf", ["cascades"], {"tweetlink.contrast"}),
], ids=["tfidf-eval", "lda-eval", "dual-eval", "sweep-size", "cascades"])
def test_a_command_runs_only_the_layers_it_uses(small_corpus, make_config, model, command, unrun):
    """contrast runs only for model=dual, cascade only in cascades and sweep-size."""
    cfg_path = make_config({"model": model, "lda": {"n_topics": 2, "iters": 5},
                            "train": {"epochs": 2}})
    assert _run_fresh(UNRUN_AFTER_CALL, "--config", str(cfg_path), *command) == unrun


def test_every_traced_layer_is_registered_after_cli_import():
    """perfbench/spans.py reads sys.modules[f"tweetlink.{layer}"] for each name
    in its LAYERS, so each must be registered, run or not, once the CLI is
    imported."""
    spans = Path(__file__).parents[1] / "perfbench" / "spans.py"
    assignment, = [node for node in ast.parse(spans.read_text(encoding="utf-8")).body
                   if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LAYERS"]
    layers = ast.literal_eval(assignment.value)
    registered = _run_fresh("import sys, tweetlink.cli; print(*sys.modules)")
    assert layers and {f"tweetlink.{layer}" for layer in layers} <= registered


def test_import_loads_no_scipy():
    """Importing the CLI loads no scipy: numpy is the only runtime dependency."""
    assert "scipy" not in _packages_after_cli_import()


def test_import_loads_no_logging():
    """Importing the CLI loads no logging: the cascade orphan warning goes
    through warnings, which the interpreter always has loaded."""
    packages = _packages_after_cli_import()
    assert "tweetlink" in packages
    assert "logging" not in packages


# numpy functions, and keywords of older functions, added after numpy 1.24,
# the floor that pyproject.toml declares.
_NUMPY_NAMES_AFTER_FLOOR = {
    "unique_values", "unique_counts", "unique_inverse", "unique_all", "cumulative_sum",
    "cumulative_prod", "concat", "astype", "vecdot", "matrix_transpose", "permute_dims", "pow",
    "bitwise_count", "isdtype", "trapezoid",
}
_NUMPY_KEYWORDS_AFTER_FLOOR = {"unique": "sorted", "asarray": "copy"}


def _numpy_names_after_floor(source: str) -> list[str]:
    """Each use in `source` of a numpy name or keyword newer than the floor."""
    tree = ast.parse(source)
    aliases = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for a in node.names if a.name == "numpy"}

    def numpy_path(node):  # ["np", "linalg", "vecdot"] for np.linalg.vecdot, else None
        parts = []
        while isinstance(node, ast.Attribute):
            parts.insert(0, node.attr)
            node = node.value
        if parts and isinstance(node, ast.Name) and node.id in aliases:
            return [node.id, *parts]
        return None

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "numpy":
            found += [f"{node.lineno}: {a.name}" for a in node.names
                      if a.name in _NUMPY_NAMES_AFTER_FLOOR]
        path = numpy_path(node)
        if path and path[-1] in _NUMPY_NAMES_AFTER_FLOOR:
            found.append(f"{node.lineno}: {'.'.join(path)}")
        path = numpy_path(node.func) if isinstance(node, ast.Call) else None
        keyword = _NUMPY_KEYWORDS_AFTER_FLOOR.get(path[-1]) if path else None
        if keyword and keyword in {k.arg for k in node.keywords}:
            found.append(f"{node.lineno}: {'.'.join(path)}({keyword}=...)")
    return sorted(found)


def test_src_uses_no_numpy_name_newer_than_the_floor():
    """A partial stand-in for the CI dependency-floor job, which installs
    numpy 1.24 and cannot run offline: src/ calls no numpy function, and
    passes no keyword, that numpy 1.24 lacks."""
    sample = ("import numpy as xp\nfrom numpy import concat\nxp.linalg.vecdot(a, b)\n"
              "xp.unique(a, sorted=True)\nxp.asarray(a, copy=False)\na.astype(float)\n")
    assert _numpy_names_after_floor(sample) == [
        "2: concat", "3: xp.linalg.vecdot", "4: xp.unique(sorted=...)", "5: xp.asarray(copy=...)",
    ]
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        assert _numpy_names_after_floor(path.read_text(encoding="utf-8")) == [], path.name


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


@pytest.mark.parametrize("flag, value", [
    ("--budget", "0"), ("--budget", "-1"), ("--val-fraction", "nan"), ("--val-fraction", "inf"),
    ("--val-fraction", "0"), ("--val-fraction", "-1"), ("--val-fraction", "1"),
])
def test_sweep_hp_rejects_out_of_range_flags(small_corpus, make_config, tmp_path, flag, value,
                                              capsys):
    grid = tmp_path / "grid.json"
    grid.write_text("[{}]")
    code = cli.main(["--config", str(make_config()), "sweep-hp", "--grid", str(grid), flag, value])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err
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
    model = cli._fit_with_docs(cfg, "tfidf", tokens, run.tweet_ids, run.article_ids)[0]
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


@pytest.mark.parametrize("features", ["tfidf", "lda"])
@pytest.mark.parametrize("strategy", ["truncate", "mean_chunks", "augment"])
def test_dual_training_reads_the_featurized_rows_exactly(
    small_corpus, make_config, monkeypatch, features, strategy
):
    """The trainer takes the featurized row matrices as they are; dense id -> vector
    dicts of the same rows give the same weights, biases and loss trace bit for bit."""
    cfg = RunConfig.from_file(make_config({
        "model": "dual", "features": features, "strategy": strategy,
        "lda": TestLdaTopicVectors.LDA,
        "chunking": {"content_len": 6, "header_len": 5, "part_len": 4, "truncate_limit": 20},
        "train": {"epochs": 3, "joint_dim": 5, "seed": 7, "batch_size": 8},
    }))
    calls = _record_calls(monkeypatch, contrast, "train")
    encoder = cli._Run(cfg).vectors[2]
    [(args, (trained, trace))] = calls
    positives, tweet_x, piece_x, train_cfg, _strategy, tweet_ids, article_ids, counts = args
    assert trained is encoder
    assert isinstance(tweet_x, CsrRows) == isinstance(piece_x, CsrRows) == (features == "tfidf")

    def dense(rows):
        return rows.toarray() if isinstance(rows, CsrRows) else rows

    firsts = np.cumsum(counts) - counts
    tweets = dict(zip(tweet_ids, dense(tweet_x)))
    articles = {a: dense(piece_x)[f : f + n] for a, f, n in zip(article_ids, firsts, counts)}
    want, want_trace = contrast.train(positives, tweets, articles, train_cfg, strategy)
    assert trace == want_trace
    for got, ref in (
        (encoder.tweet_map.weight, want.tweet_map.weight),
        (encoder.tweet_map.bias, want.tweet_map.bias),
        (encoder.article_map.weight, want.article_map.weight),
        (encoder.article_map.bias, want.article_map.bias),
    ):
        assert np.array_equal(got, ref)


@pytest.mark.parametrize("model", ["tfidf", "lda"])
def test_non_dual_run_does_not_read_train_pairs(small_corpus, make_config, tmp_path, model):
    """Only the dual encoder trains, so a missing train_pairs file changes nothing."""
    extra = {"model": model, "lda": TestLdaTopicVectors.LDA}
    outputs = {}
    for name, train_pairs in (("plain", {}), ("missing", {"train_pairs": str(tmp_path / "nope")})):
        cfg_path = make_config({**extra, **train_pairs}, name=f"{name}.json")
        out = tmp_path / name
        for command in (["eval"], ["score"], ["sweep-size", "--sizes", "1,2"]):
            assert cli.main(["--config", str(cfg_path), "--out-dir", str(out), *command]) == 0
        outputs[name] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert sorted(outputs["plain"]) == ["report.json", "similarity.csv", "sweep_size.csv"]
    assert outputs["missing"] == outputs["plain"]


@pytest.mark.parametrize("model", ["tfidf", "lda", "dual"])
def test_unknown_output_id_raises_unknown_id_error(small_corpus, make_config, model):
    cfg = RunConfig.from_file(make_config({
        "model": model, "lda": TestLdaTopicVectors.LDA,
        "train": {"epochs": 1, "joint_dim": 4, "seed": 7},
    }))
    tweets, articles, pairs = cli._load_corpus(cfg)
    split = cli.split_by_article([d.id for d in articles], cli._match_pairs(pairs), 3)
    split["val_tweets"].append("no-such-tweet")
    with pytest.raises(UnknownIdError) as info:
        cli.sweep_hyperparams(cfg, [{}], split)
    assert info.value.doc_id == "no-such-tweet"


@pytest.mark.parametrize("summary_articles", [True, False])
def test_tfidf_rows_are_the_plain_featurizer_rows(small_corpus, make_config, summary_articles):
    """model=tfidf outputs tfidf_transform_batch of the truncated tweets and whole articles,
    with the model fitted on the same documents."""
    cfg = RunConfig.from_file(make_config({
        "summary_articles": summary_articles, "chunking": {"content_len": 6, "truncate_limit": 4},
    }))
    run = cli._Run(cfg)
    tweet_rows, article_rows, encoder = run.vectors
    tokens = run.tokens
    tweet_docs = [textprep.truncate(tokens[i], 4) for i in run.tweet_ids]
    article_docs = [tokens[i] for i in run.article_ids]
    assert any(len(tokens[i]) > 4 for i in run.tweet_ids)
    assert any(len(doc) > 6 for doc in article_docs)
    model = vectorize.tfidf_fit(tweet_docs + article_docs)
    assert encoder is None
    for got, docs in ((tweet_rows, tweet_docs), (article_rows, article_docs)):
        want = vectorize.tfidf_transform_batch(model, docs)
        assert isinstance(got, CsrRows) and got.n_cols == want.n_cols
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), strict=True)


def test_external_features_take_one_piece_per_article(small_corpus, make_config, tmp_path, monkeypatch):
    """Embeddings carry no token structure: every article is one row, even one cleaning empties."""
    empty = corpus.Document(id="empty-article", kind=corpus.KIND_ARTICLE, text="a b c", created_at=0)
    docs = [*small_corpus["docs"], empty]
    corpus.write_documents(docs, small_corpus["documents"])
    rng = np.random.default_rng(3)
    emb = tmp_path / "embeddings.jsonl"
    emb.write_text("".join(
        json.dumps({"id": d.id, "vector": rng.normal(size=4).tolist()}) + "\n" for d in docs
    ))
    cfg = RunConfig.from_file(make_config({
        "model": "dual", "features": "external", "embeddings": str(emb),
        "chunking": {"content_len": 6, "truncate_limit": 4},
        "train": {"epochs": 1, "joint_dim": 4, "seed": 7},
    }))
    calls = _record_calls(monkeypatch, contrast, "train")
    run = cli._Run(cfg)
    _tweet_rows, article_rows, _encoder = run.vectors
    assert run.tokens["empty-article"] == []
    [(args, _result)] = calls
    _positives, _tweet_x, piece_x, _cfg, _strategy, _tweet_ids, article_ids, counts = args
    assert article_ids == run.article_ids and "empty-article" in article_ids
    assert counts.tolist() == [1] * len(article_ids)
    assert piece_x.shape == (len(article_ids), 4)
    assert len(article_rows) == len(article_ids)


def test_sweep_hp_bad_lda_prior_fails_before_any_point(small_corpus, make_config, tmp_path,
                                                      monkeypatch, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"lda.n_topics": 3}, {"lda.n_topics": 5}, {"lda.beta": -1.0}]))
    fits = _record_calls(monkeypatch, vectorize, "lda_fit")
    cfg_path = make_config({"model": "lda", "lda": {"iters": 2}})
    assert cli.main(["--config", str(cfg_path), "sweep-hp", "--grid", str(grid)]) == 2
    assert "beta must be > 0" in capsys.readouterr().err
    assert fits == []
    assert not (tmp_path / "out" / "sweep_hp.json").exists()


def test_sweep_hp_json_replays_its_grid_points(small_corpus, make_config, tmp_path):
    """sweep_hp.json gives back every grid point exactly, floats of more than
    6 significant digits included, so best_params replays as a config."""
    points = [{"train.lr": 1e-7, "lda.alpha": 0.1234567891}, {"train.lr": 1e-7, "lda.alpha": 0.5}]
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps(points))
    cfg_path = make_config({"model": "lda", "lda": {"n_topics": 2, "iters": 2}})
    assert cli.main(["--config", str(cfg_path), "sweep-hp", "--grid", str(grid)]) == 0
    result = json.loads((tmp_path / "out" / "sweep_hp.json").read_text())
    assert [row["params"] for row in result["rows"]] == points
    assert result["best_params"] in points
    replayed = RunConfig.from_file(cfg_path).with_overrides(result["best_params"])
    assert replayed.train.lr == 1e-7


def test_sweep_hp_point_leaving_the_dual_model_resets_its_inputs(
    small_corpus, make_config, tmp_path, monkeypatch, capsys
):
    cfg_path = make_config({
        "model": "dual", "strategy": "mean_chunks", "train": {"epochs": 1, "joint_dim": 4},
    })
    builds = _record_calls(monkeypatch, cli, "build_vectors")
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps([{"train.epochs": 2}, {"model": "tfidf"}]))
    assert cli.main(["--config", str(cfg_path), "sweep-hp", "--grid", str(grid)]) == 2
    assert "features and strategy" in capsys.readouterr().err
    assert builds == []
    grid.write_text(json.dumps([{"train.epochs": 2}, {"model": "tfidf", "strategy": "truncate"}]))
    assert cli.main(["--config", str(cfg_path), "sweep-hp", "--grid", str(grid)]) == 0
    assert [args[0].model for args, _ in builds] == ["dual", "tfidf"]


def test_smoke_script_runs_without_test_extra(tmp_path):
    """tests/smoke.py, which CI's numpy-only job runs on the installed package,
    passes with scipy, pytest and hypothesis unimportable, run from the repo
    root with the relative PYTHONPATH=src."""
    root = Path(__file__).parents[1]
    code = (
        "import runpy, sys\n"
        "for name in ('scipy', 'pytest', 'hypothesis'): sys.modules[name] = None\n"
        f"sys.argv = ['tests/smoke.py', {str(tmp_path)!r}]\n"
        "runpy.run_path('tests/smoke.py', run_name='__main__')"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(["src", os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "smoke checks passed"


def test_ci_numpy_only_job_runs_smoke_script():
    """The numpy-only job calls tests/smoke.py and holds no heredoc, so its
    checks stay ones that Tier-1 runs too."""
    workflow = (Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml").read_text()
    # The job's lines: blank or indented deeper than the job names.
    job = re.search(r"^  numpy-only:\n((?:    .*\n|\n)*)", workflow, re.M)[1]
    assert "python tests/smoke.py" in job
    assert "<<" not in job


@pytest.mark.parametrize(
    "extra, flags, key",
    [
        pytest.param({"lda": {"iters": 0}}, [], "iters", id="lda.iters=0"),
        pytest.param({"lda": {"n_topics": 0}}, [], "n_topics", id="lda.n_topics=0"),
        pytest.param({"lda": {"n_topics": "3"}}, [], "lda.n_topics", id="lda.n_topics=str"),
        pytest.param({"lda": {"infer_iters": 0}}, [], "infer_iters", id="lda.infer_iters=0"),
        pytest.param({"train": {"epochs": 1.5}}, [], "train.epochs", id="train.epochs=1.5"),
        pytest.param({"train": {"joint_dim": True}}, [], "train.joint_dim", id="train.joint_dim=true"),
        pytest.param({"train": {"batch_size": 2.5}}, [], "train.batch_size", id="train.batch_size=2.5"),
        pytest.param({"train": {"seed": -1}}, [], "seed", id="train.seed=-1"),
        pytest.param({"chunking": {"content_len": 2.5}}, [], "chunking.content_len",
                     id="chunking.content_len=2.5"),
        pytest.param({"seed": 1.5}, [], "seed", id="seed=1.5"),
        pytest.param({"seed": -1}, [], "seed", id="seed=-1"),
        pytest.param({}, ["--seed", "-1"], "seed", id="--seed=-1"),
        pytest.param({"threshold": float("nan")}, [], "threshold", id="threshold=NaN"),
        pytest.param({"threshold": float("inf")}, [], "threshold", id="threshold=Infinity"),
        pytest.param({"max_summary_chars": 0}, [], "max_summary_chars", id="max_summary_chars=0"),
        pytest.param({"lda": {"n_topics": 10**400}}, [], "lda.n_topics",
                     id="lda.n_topics=10**400"),
        pytest.param({"train": {"joint_dim": 10**30}}, [], "train.joint_dim",
                     id="train.joint_dim=10**30"),
        pytest.param({"train": {"lr": float("nan")}}, [], "train.lr", id="train.lr=NaN"),
        pytest.param({"lda": {"n_topics": 2.5}}, [], "lda.n_topics", id="lda.n_topics=2.5"),
        pytest.param({"lda": {"beta": float("inf")}}, [], "lda.beta", id="lda.beta=Infinity"),
        pytest.param({"cleaning": {"min_word_len": True}}, [], "cleaning.min_word_len",
                     id="cleaning.min_word_len=true"),
        pytest.param({"lda": {"bogus": 1}}, [], "['lda.bogus']", id="lda.bogus"),
    ],
)
def test_bad_config_value_exit_2(small_corpus, make_config, extra, flags, key, capsys):
    """A value of the wrong type or out of range is a config error naming its key."""
    cfg_path = make_config({"model": "lda", **extra})
    assert cli.main(["--config", str(cfg_path), *flags, "eval"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err and "Traceback" not in err


# Input kinds read line by line; the others are one JSON document each.
_LINE_INPUTS = ("documents", "pairs", "train_pairs", "annotations", "embeddings", "lemmas",
                "keywords", "matrix")


@pytest.mark.parametrize("kind", [*_LINE_INPUTS, "config", "grid", "report"])
def test_non_utf8_input_exit_2(small_corpus, make_config, tmp_path, kind, capsys):
    """A byte that is not UTF-8 is an input error naming the file, and its line
    for a file read line by line."""
    bad = tmp_path / f"bad-{kind}"
    extra, command, config = {}, ["ingest"], None
    if kind in ("documents", "pairs", "train_pairs"):
        source = small_corpus["documents" if kind == "documents" else "pairs_path"]
        lines = source.read_text().splitlines()
        extra = {kind: str(bad)}
        if kind == "train_pairs":
            extra["model"], command = "dual", ["train"]
    elif kind == "annotations":
        record = {"tweet_id": "t", "article_id": "a", "annotator_id": "x", "verdict": "match"}
        lines, extra = [json.dumps(record)] * 2, {"annotations": str(bad)}
    elif kind == "embeddings":
        lines = [json.dumps({"id": d.id, "vector": [1.0, 0.5]}) for d in small_corpus["docs"]]
        extra = {"model": "dual", "features": "external", "embeddings": str(bad)}
        command = ["train"]
    elif kind == "lemmas":
        lines, extra, command = ["runs\trun", "ran\trun"], {"lemmas": str(bad)}, ["prep"]
    elif kind == "keywords":
        lines, extra = ["aaa", "bbb"], {"keywords": str(bad)}
    elif kind == "matrix":
        assert cli.main(["--config", str(make_config()), "score"]) == 0
        lines = (tmp_path / "out" / "similarity.csv").read_text().splitlines()
        command = ["calibrate", "--matrix", str(bad)]
    elif kind == "config":
        lines, config = make_config().read_text().splitlines(), bad
    elif kind == "grid":
        lines, command = ["[", "{}", "]"], ["sweep-hp", "--grid", str(bad)]
    else:
        lines, command = ["[", '{"n": 1}', "]"], ["report", "--input", str(bad)]
    encoded = [line.encode() for line in lines]
    encoded[1] = b"\xff" + encoded[1]
    bad.write_bytes(b"\n".join(encoded) + b"\n")

    config = config or make_config(extra)
    assert cli.main(["--config", str(config), *command]) == 2
    err = capsys.readouterr().err
    assert str(bad) in err
    if kind in _LINE_INPUTS:
        assert f"{bad}:2: byte 0xff is not UTF-8" in err


_DEEP = "[" * 100_000 + "]" * 100_000
_TWEET = '{"id": "t9", "kind": "tweet", "text": "x", "created_at": 1'
_ANNOTATION = '{"tweet_id": "t", "article_id": "a", "annotator_id": "u", "verdict": "match"'


@pytest.mark.parametrize("kind, line, message", [
    ("documents", '{"id": "a9", "text": "x", "created_at": 1}', "missing required field 'kind'"),
    ("documents", _TWEET + ', "parent_kind": 3}', "parent_kind must be one of"),
    ("documents", _TWEET.replace('"x"', _DEEP) + "}", "maximum recursion depth exceeded"),
    ("documents", '{"id": "art-0000", "kind": "article", "text": "x", "created_at": 1}',
     "duplicate id 'art-0000'"),
    ("pairs", '{"tweet_id": "t", "article_id": "a", "label": 3}', "label must be one of"),
    ("pairs", '{"tweet_id": "t", "article_id": "a", "label": ' + _DEEP + "}", "maximum recursion"),
    ("annotations", _ANNOTATION.replace('"u"', "null") + "}", "annotator_id must be a string"),
    ("annotations", _ANNOTATION + ', "note": ' + _DEEP + "}", "maximum recursion depth"),
    ("annotations", _ANNOTATION + "}", "duplicate id 't/a/u'"),
    ("embeddings", '{"id": ["art-0000"], "vector": [1, 2]}', "id must be a string or an integer"),
    ("embeddings", '{"id": null, "vector": [1, 2]}', "got null"),
    ("embeddings", '{"id": true, "vector": [1, 2]}', "got a boolean"),
    ("embeddings", '{"id": "x", "vector": [1, "2"]}', "got an array holding a string"),
    ("embeddings", '{"id": "x", "vector": [true, false]}', "got an array holding a boolean"),
    ("embeddings", '{"id": "x", "vector": [1e308, 1' + "0" * 400 + "]}",
     "got an array holding a number that is not finite as a float64"),
    ("embeddings", '{"id": "x", "vector": ' + _DEEP + "}", "maximum recursion depth"),
    ("embeddings", '{"id": "art-0000", "vector": [1, 2]}', "duplicate id 'art-0000'"),
    ("embeddings", '{"id": "x", "vector": [1, 2, 3]}', "id 'x' has dim 3, expected 2"),
])
def test_ill_typed_or_deeply_nested_line_exit_2(small_corpus, make_config, tmp_path, kind, line,
                                                message, capsys):
    """An ill-typed field, a value nested past the recursion limit, a repeated
    id or a vector of another width on line 2 of a JSONL input is an input
    error naming the file and line."""
    path = tmp_path / f"{kind}.jsonl"
    extra, command = {}, ["eval"]
    if kind == "documents":
        lines = small_corpus["documents"].read_text().splitlines()
    elif kind == "pairs":
        lines = small_corpus["pairs_path"].read_text().splitlines()
    elif kind == "annotations":
        lines, extra, command = [_ANNOTATION + "}"] * 2, {"annotations": str(path)}, ["ingest"]
    else:
        lines = [json.dumps({"id": d.id, "vector": [1.0, i]})
                 for i, d in enumerate(small_corpus["docs"])]
        extra = {"model": "dual", "features": "external", "embeddings": str(path),
                 "train": {"epochs": 2, "joint_dim": 4, "seed": 7}}
    lines[1] = line
    path.write_text("\n".join(lines) + "\n")
    assert cli.main(["--config", str(make_config(extra)), *command]) == 2
    err = capsys.readouterr().err
    assert f"{path}:2: " in err and message in err and "Traceback" not in err


_MODEL_LOADERS = {
    "tfidf": vectorize.load_tfidf, "lda": vectorize.load_lda, "encoder": contrast.load_encoder,
}


@pytest.mark.parametrize("content", ["missing", "invalid JSON", "non-UTF-8", "wrong kind",
                                     "nested too deep"])
@pytest.mark.parametrize("reader", ["config", "grid", "report", *_MODEL_LOADERS])
def test_json_document_errors_name_the_file(small_corpus, make_config, tmp_path, reader, content,
                                            capsys):
    """Every JSON document input is read by one reader: a file that is missing,
    is not JSON, is not UTF-8, nests past the recursion limit or holds the
    wrong kind of top-level value is a ConfigInvalidError naming it, exit code
    2 through the CLI."""
    path = tmp_path / f"bad-{reader}.json"
    wrong_kind = {"grid": b"{}", "report": b"3"}.get(reader, b"[]")
    data = {"missing": None, "invalid JSON": b'{"a": ', "non-UTF-8": b'{"a": "\xff"}',
            "wrong kind": wrong_kind, "nested too deep": _DEEP.encode()}[content]
    if data is not None:
        path.write_bytes(data)
    if reader in _MODEL_LOADERS:
        with pytest.raises(ConfigInvalidError) as info:
            _MODEL_LOADERS[reader](path)
        assert str(path) in str(info.value)
        return
    config, command = make_config(), ["ingest"]
    if reader == "config":
        config = path
    elif reader == "grid":
        command = ["sweep-hp", "--grid", str(path)]
    else:
        command = ["report", "--input", str(path)]
    assert cli.main(["--config", str(config), *command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(path) in err
