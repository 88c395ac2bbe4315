"""Time vectorize.lda_fit against the token-by-token lda_fit_reference.

Usage, from the repository root:

    PYTHONPATH=src python tests/lda_timing.py [--repeats N]

Two corpora, both fitted with the lda-cascades workload's settings (20
topics, alpha 0.5, beta 0.01, 30 sweeps, seed 1):

- lda-cascades: the documents `sweep-size` fits on in perfbench's
  lda-cascades workload at seed 1, its 480 tweets (truncated) and 60
  articles after cleaning;
- one-long: 50 ten-token documents and one 2,000-token document, so the long
  one holds 80% of the tokens, drawn from 200 terms with seed 0.

Prints the median wall time of each fit over the repeats, in seconds.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "tests")]

from perfbench import inputs  # noqa: E402
from reference import lda_fit_reference  # noqa: E402
from tweetlink import cli, textprep, vectorize  # noqa: E402
from tweetlink.config import RunConfig  # noqa: E402

SETTINGS = {"n_topics": 20, "alpha": 0.5, "beta": 0.01, "iters": 30, "seed": 1}


def cascades_corpus() -> list[list[str]]:
    with tempfile.TemporaryDirectory() as tmp:
        workload = inputs.generate("lda-cascades", 1, Path(tmp))
        run = cli._Run(RunConfig.from_file(workload.config))
        tokens, trunc = run.tokens, run.cfg.chunking.truncate_limit
        return [textprep.truncate(tokens[i], trunc) for i in run.tweet_ids] + [
            tokens[i] for i in run.article_ids
        ]


def one_long_corpus() -> list[list[str]]:
    rng = np.random.default_rng(0)
    terms = [f"w{i}" for i in range(200)]
    docs = [[terms[i] for i in rng.integers(0, 200, size=10)] for _ in range(50)]
    return docs + [[terms[i] for i in rng.integers(0, 200, size=2000)]]


def median_seconds(fit, docs, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fit(docs, **SETTINGS)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    repeats = parser.parse_args().repeats
    for name, docs in (("lda-cascades", cascades_corpus()), ("one-long", one_long_corpus())):
        lens = [len(doc) for doc in docs]
        fit = median_seconds(vectorize.lda_fit, docs, repeats)
        ref = median_seconds(lda_fit_reference, docs, repeats)
        print(
            f"{name}: {len(docs)} documents, {sum(lens)} tokens, longest {max(lens) / sum(lens):.1%}; "
            f"lda_fit {fit:.3f} s, lda_fit_reference {ref:.3f} s ({fit / ref:.2f}x)"
        )


if __name__ == "__main__":
    main()
