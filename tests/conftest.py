import json
import os
from contextlib import contextmanager

import pytest
from hypothesis import settings

from tweetlink import corpus

# CI runs with HYPOTHESIS_PROFILE=ci: a fixed example sequence, so a failing
# case found there reproduces locally with the same setting.
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def small_corpus(tmp_path):
    """A tiny separable fixture written to disk: paths plus the in-memory objects."""
    docs, pairs = corpus.synth_fixture(
        seed=5, n_topics=2, n_articles=8, tweets_per_article=3, vocab_per_topic=25
    )
    doc_path = tmp_path / "documents.jsonl"
    pair_path = tmp_path / "pairs.jsonl"
    corpus.write_documents(docs, doc_path)
    corpus.write_pairs(pairs, pair_path)
    return {"docs": docs, "pairs": pairs, "documents": doc_path, "pairs_path": pair_path}


@pytest.fixture
def make_config(tmp_path):
    def _make(extra=None, name="config.json"):
        cfg = {
            "documents": str(tmp_path / "documents.jsonl"),
            "pairs": str(tmp_path / "pairs.jsonl"),
            "model": "tfidf",
            "seed": 7,
            "out_dir": str(tmp_path / "out"),
        }
        cfg.update(extra or {})
        path = tmp_path / name
        path.write_text(json.dumps(cfg, indent=2))
        return path

    return _make


@pytest.fixture
def announce(capsys):
    """Context manager printing one visible PASS/FAIL line per acceptance criterion."""

    @contextmanager
    def _criterion(num, name):
        ok = False
        try:
            yield
            ok = True
        finally:
            with capsys.disabled():
                print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}")

    return _criterion
