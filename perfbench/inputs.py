"""Workload definitions and the seeded input generator.

Every workload is a `synth_fixture` corpus (10 topics, 200 words per topic)
written to JSONL files plus one JSON config. The program under test sees only
these files; everything else about a workload (its command line, which
artifacts it writes, how its output is checked) lives in the `Workload`
record returned by `generate`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

N_TOPICS = 10
VOCAB_PER_TOPIC = 200
DEFAULT_CONTENT_LEN = 510  # the package's chunking.content_len default


@dataclass
class Workload:
    name: str
    kind: str  # "eval": report.json + similarity.csv; "sweep": sweep_size.csv
    config: Path
    args: list[str]  # subcommand and its flags, after the global flags
    artifacts: list[str]  # files the command writes, compared byte for byte
    documents: Path
    pairs: Path
    properties: dict = field(default_factory=dict)

    def argv(self, out_dir: Path) -> list[str]:
        return ["--config", str(self.config), "--out-dir", str(out_dir), *self.args]


# BENCHMARK.json says why each workload exists.
NAMES = ("tfidf-dense", "dual-chunks", "lda-cascades")


def _fixture(seed: int, n_articles: int, tweets_per_article: int):
    from tweetlink import corpus

    return corpus.synth_fixture(
        seed=seed,
        n_topics=N_TOPICS,
        n_articles=n_articles,
        tweets_per_article=tweets_per_article,
        vocab_per_topic=VOCAB_PER_TOPIC,
    )


def _properties(docs, pairs, content_len: int) -> dict:
    """Input shape recorded next to the results (computed from the files' content)."""
    tweets = [d for d in docs if d.kind == "tweet"]
    articles = [d for d in docs if d.kind == "article"]
    words = [d.text.split() for d in docs]
    labeled = [p for p in pairs if p.label != "unknown"]
    n_pos = sum(p.label == "match" for p in labeled)
    article_tokens = [len(d.text.split()) for d in articles]
    return {
        "tweets": len(tweets),
        "articles": len(articles),
        "cells": len(tweets) * len(articles),
        "labeled_cells": len(labeled),
        "positive_share": n_pos / len(labeled),
        "vocab_size": len({w for ws in words for w in ws}),
        "mean_tokens_per_doc": sum(map(len, words)) / len(words),
        "chunks_per_article": sum(math.ceil(n / content_len) for n in article_tokens)
        / len(articles),
    }


def generate(name: str, seed: int, in_dir: Path) -> Workload:
    """Write the inputs of workload `name` for `seed` into `in_dir`.

    The same (name, seed) always produces byte-identical files.
    """
    from tweetlink import corpus

    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    in_dir.mkdir(parents=True, exist_ok=True)
    documents, pairs_path = in_dir / "documents.jsonl", in_dir / "pairs.jsonl"
    config = {"documents": str(documents), "pairs": str(pairs_path), "seed": seed}
    content_len = DEFAULT_CONTENT_LEN

    if name == "tfidf-dense":
        docs, pairs = _fixture(seed, n_articles=120, tweets_per_article=5)
        config["model"] = "tfidf"
        kind, args, artifacts = "eval", ["eval"], ["similarity.csv", "report.json"]
    elif name == "dual-chunks":
        docs, all_pairs = _fixture(seed, n_articles=40, tweets_per_article=5)
        # Real annotations label every match but only a sample of no-matches;
        # the rest of the cells stay unknown (absent from the pairs file).
        rng = np.random.default_rng([seed, 1])
        no_match = [i for i, p in enumerate(all_pairs) if p.label == "no_match"]
        keep = set(rng.choice(no_match, size=round(0.1 * len(no_match)), replace=False).tolist())
        pairs = [p for i, p in enumerate(all_pairs) if p.label == "match" or i in keep]
        # Train on the matches of every second tweet so AP is not saturated by
        # scoring the very pairs the encoder was trained on.
        tweet_ids = [d.id for d in docs if d.kind == "tweet"]
        train_tweets = set(tweet_ids[::2])
        train = [p for p in pairs if p.label == "match" and p.tweet_id in train_tweets]
        train_path = in_dir / "train_pairs.jsonl"
        corpus.write_pairs(train, train_path)
        content_len = 16
        config.update(
            model="dual",
            features="tfidf",
            strategy="mean_chunks",
            train_pairs=str(train_path),
            chunking={"content_len": content_len},
            # Batches of 256 give 4 steps per epoch; training then mostly stays
            # collapsed at "everything matches" and AP sits at chance, seed to seed
            # anywhere in 0.52-0.63. Batches of 16 learn: AP 0.93-0.996.
            train={"epochs": 30, "lr": 0.5, "batch_size": 16, "joint_dim": 32, "seed": 7},
        )
        kind, args = "eval", ["eval"]
        artifacts = ["similarity.csv", "report.json", "encoder.json"]
    else:  # lda-cascades
        docs, pairs = _fixture(seed, n_articles=60, tweets_per_article=8)
        # With 10 topics and alpha = 50 / 10, the prior swamps ~10-token
        # documents and AP sits at chance (0.13-0.18); with alpha 0.5 the sampler
        # often merges two of the 10 true topics and AP swings from seed to seed
        # (0.87-0.94). 20 topics at alpha 0.5 give AP 0.91-0.996 at the same cost.
        lda = {"n_topics": 2 * N_TOPICS, "alpha": 0.5, "iters": 30, "infer_iters": 20}
        config.update(model="lda", lda=lda)
        kind, args = "sweep", ["sweep-size", "--sizes", "1,2,4,8"]
        artifacts = ["sweep_size.csv"]

    corpus.write_documents(docs, documents)
    corpus.write_pairs(pairs, pairs_path)
    config_path = in_dir / "config.json"
    config_path.write_text(json.dumps(config, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return Workload(
        name=name,
        kind=kind,
        config=config_path,
        args=args,
        artifacts=artifacts,
        documents=documents,
        pairs=pairs_path,
        properties=_properties(docs, pairs, content_len),
    )
