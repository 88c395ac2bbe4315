"""Smoke checks of the package as a user installs it, without the test extra.

    python tests/smoke.py WORKDIR

numpy is the only runtime dependency, so this script needs only the standard
library and tweetlink: no pytest, hypothesis or scipy. It writes a synthetic
corpus into WORKDIR, runs the CLI commands there through `tweetlink.cli.main`,
and exits non-zero at the first check that fails.

- The pairs, about 600K bytes and so 3 of load_pair_table's blocks, are
  written six times. Three share the documents: by write_pairs, whose
  blocks load_pair_table codes with array operations on their bytes;
  compact with CRLF line ends, whose blocks it parses line by line; and by
  write_pairs with one line re-spaced, so that only that line's block, the
  last, is parsed line by line. These three must give the same artifacts.
  Three give every id non-ASCII characters, with the documents renamed to
  match: escaped by json.dumps (parsed line by line), and raw in UTF-8 by
  write_pairs, with LF and with CRLF line ends, whose blocks all take the
  array path. These three must give the same artifacts, and the first
  three's counts and report. Which blocks are parsed line by line is
  checked too.
- LDA fit, eval, sweep-size, sweep-hp and ingest must succeed. The tfidf and
  lda model files that fit writes must load back, and a copy with a
  fractional integer field must be a config error.
- The dual encoder runs under mean_chunks with each nonlinearity, with and
  without momentum, and reruns must write the same encoder.json.
- prep cleans every text in one batch: on articles over several lines and
  tweets with emoji, URLs, mentions and hashtags, each document's tokens
  must be the words textprep.clean gives its text alone, with article
  summaries and with full articles.
- In each JSONL input (documents, pairs, annotations, embeddings), an
  ill-typed line and a line nested past the recursion limit must each make
  the command exit 2, with the file and line in its error.
- In each config section (top level, cleaning, chunking, lda, train), a key
  of the wrong type or out of range, and an unknown key, must make the
  command exit 2, naming `<section>.<key>` in its error.
- A tfidf eval in a fresh interpreter must leave the dual encoder
  (tweetlink.contrast) and tweetlink.cascade registered but not run: the CLI
  loads them on first use.
"""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr
from dataclasses import replace
from pathlib import Path

from tweetlink import cli, corpus, textprep, vectorize
from tweetlink.errors import ConfigInvalidError


# For a fresh interpreter: one CLI call (argv), then the tweetlink modules
# registered but not run. type() reads no attribute, so it runs none; a module
# that ran is a plain module again.
UNRUN_AFTER_CALL = """
import sys, types
from tweetlink import cli
if sys.argv[1:] and cli.main(sys.argv[1:]) != 0:
    sys.exit("the call failed")
print(*[name for name, module in sys.modules.items()
        if name.startswith("tweetlink") and type(module) is not types.ModuleType])
"""


def run(config, *command):
    argv = ["--config", config, *command]
    if cli.main(argv) != 0:
        raise SystemExit(f"tweetlink {' '.join(argv)} failed")


def require_files(*paths):
    missing = [p for p in paths if not Path(p).is_file()]
    if missing:
        raise SystemExit(f"missing artifacts: {missing}")


def require_same(a, b):
    if Path(a).read_bytes() != Path(b).read_bytes():
        raise SystemExit(f"{a} and {b} differ")


def line_parsed_blocks(path):
    """The first line number of each block of the pairs file that
    load_pair_table parses line by line, not with array operations."""
    starts = []
    parse = corpus._parse_pair_lines
    corpus._parse_pair_lines = lambda *args: starts.append(args[2]) or parse(*args)
    try:
        corpus.load_pair_table(path)
    finally:
        corpus._parse_pair_lines = parse
    return starts


def write_json(path, value):
    with open(path, "w") as fh:
        json.dump(value, fh)


# Appended to every id of the non-ASCII corpus: 2-, 3- and 4-byte UTF-8
# characters, so that an id's byte offsets are not its character offsets.
NON_ASCII = "\u00e9\u65b0\U0001F600"


def lda_smoke():
    # 8,192 pairs: about 600K bytes, so load_pair_table reads 3 blocks.
    docs, pairs = corpus.synth_fixture(
        seed=1, n_topics=3, n_articles=64, tweets_per_article=2, vocab_per_topic=30
    )
    corpus.write_documents(docs, "documents.jsonl")
    corpus.write_pairs(pairs, "pairs.jsonl")
    with open("pairs_compact.jsonl", "w", newline="") as fh:
        for p in pairs:
            row = {"tweet_id": p.tweet_id, "article_id": p.article_id, "label": p.label}
            fh.write(json.dumps(row, separators=(",", ":")) + "\r\n")
    with open("pairs.jsonl") as fh:
        lines = fh.readlines()
    lines[-3] = lines[-3].replace('", "', '",  "', 1)
    with open("pairs_respaced.jsonl", "w") as fh:
        fh.writelines(lines)
    # The same corpus with non-ASCII ids, its pairs written escaped by
    # json.dumps, and raw in UTF-8 by write_pairs, then with CRLF line ends.
    corpus.write_documents(
        [replace(d, id=d.id + NON_ASCII, parent_id=d.parent_id and d.parent_id + NON_ASCII)
         for d in docs],
        "documents_non_ascii.jsonl",
    )
    renamed = [corpus.LinkedPair(p.tweet_id + NON_ASCII, p.article_id + NON_ASCII, p.label)
               for p in pairs]
    with open("pairs_escaped.jsonl", "w") as fh:
        for p in renamed:
            row = {"tweet_id": p.tweet_id, "article_id": p.article_id, "label": p.label}
            fh.write(json.dumps(row) + "\n")
    corpus.write_pairs(renamed, "pairs_raw.jsonl")
    raw = Path("pairs_raw.jsonl").read_bytes()
    Path("pairs_raw_crlf.jsonl").write_bytes(raw.replace(b"\n", b"\r\n"))
    for name, documents, pairs_path, out in [
        ("config.json", "documents.jsonl", "pairs.jsonl", "out"),
        ("config_compact.json", "documents.jsonl", "pairs_compact.jsonl", "out_compact"),
        ("config_respaced.json", "documents.jsonl", "pairs_respaced.jsonl", "out_respaced"),
        ("config_escaped.json", "documents_non_ascii.jsonl", "pairs_escaped.jsonl", "out_escaped"),
        ("config_raw.json", "documents_non_ascii.jsonl", "pairs_raw.jsonl", "out_raw"),
        ("config_raw_crlf.json", "documents_non_ascii.jsonl", "pairs_raw_crlf.jsonl",
         "out_raw_crlf"),
    ]:
        write_json(name, {
            "documents": documents, "pairs": pairs_path, "model": "lda",
            "lda": {"n_topics": 3, "iters": 20}, "out_dir": out,
        })

    # Only the re-spaced line's block, the last, is parsed line by line.
    for path, n_blocks in [("pairs.jsonl", 0), ("pairs_raw.jsonl", 0),
                           ("pairs_raw_crlf.jsonl", 0), ("pairs_respaced.jsonl", 1)]:
        starts = line_parsed_blocks(path)
        if len(starts) != n_blocks or 1 in starts:
            raise SystemExit(f"{path}: blocks from lines {starts} were parsed line by line")
    run("config.json", "fit", "--model", "lda")
    run("config.json", "fit", "--model", "tfidf")
    for load, path, key in [
        (vectorize.load_tfidf, "out/model_tfidf.json", "n_docs"),
        (vectorize.load_lda, "out/model_lda.json", "seed"),
    ]:
        load(path)
        with open(path) as fh:
            payload = json.load(fh)
        payload[key] = 3.9
        write_json("edited.json", payload)
        try:
            load("edited.json")
        except ConfigInvalidError as exc:
            print("rejected as expected:", exc)
        else:
            raise SystemExit(f"{path} with {key} 3.9 loaded")
    run("config.json", "eval")
    run("config.json", "sweep-size", "--sizes", "1,2,4")
    write_json("grid.json", [{"lda.n_topics": 2}, {"lda.n_topics": 3}])
    run("config.json", "sweep-hp", "--grid", "grid.json")
    require_files("out/model_lda.json", "out/report.json", "out/sweep_size.csv",
                  "out/sweep_hp.json")
    run("config.json", "ingest")
    for variant in ("compact", "respaced", "escaped", "raw", "raw_crlf"):
        run(f"config_{variant}.json", "ingest")
        run(f"config_{variant}.json", "eval")
    # similarity.csv names the ids, so the ASCII and non-ASCII runs share
    # only their counts and report.
    artifacts = ("ingest.json", "report.json", "similarity.csv")
    for a, b, files in [("out", "out_compact", artifacts), ("out", "out_respaced", artifacts),
                        ("out_escaped", "out_raw", artifacts),
                        ("out_raw", "out_raw_crlf", artifacts),
                        ("out", "out_escaped", artifacts[:2])]:
        for f in files:
            require_same(f"{a}/{f}", f"{b}/{f}")


def dual_smoke():
    # Chunks short enough that articles have several pieces: the affine
    # encoder trains on each article's mean piece row, tanh on the pieces
    # themselves. Each nonlinearity runs without and with momentum (the
    # velocity update), and each config runs twice: the two encoder.json
    # files must match.
    docs, pairs = corpus.synth_fixture(
        seed=1, n_topics=3, n_articles=12, tweets_per_article=4, vocab_per_topic=30
    )
    corpus.write_documents(docs, "documents.jsonl")
    corpus.write_pairs(pairs, "pairs.jsonl")
    for nonlinearity in ("none", "tanh"):
        for momentum in (0.0, 0.9):
            name = f"{nonlinearity}_m{momentum}"
            for rerun in (1, 2):
                out = f"out_{name}_{rerun}"
                write_json(f"config_{name}_{rerun}.json", {
                    "documents": "documents.jsonl", "pairs": "pairs.jsonl",
                    "model": "dual", "features": "tfidf", "strategy": "mean_chunks",
                    "chunking": {"content_len": 8}, "out_dir": out,
                    "train": {"epochs": 5, "batch_size": 8, "joint_dim": 8,
                              "nonlinearity": nonlinearity, "momentum": momentum},
                })
                run(f"config_{name}_{rerun}.json", "eval")
                require_files(f"{out}/report.json", f"{out}/encoder.json")
            require_same(f"out_{name}_1/encoder.json", f"out_{name}_2/encoder.json")


# Appended to the tweets in turn: emoji (with a skin tone and a variation
# selector), URLs, mentions, hashtags, an alias look-alike, a final sigma
# and a Windows line end.
TWEET_TAILS = [
    " \U0001F600 http://t.co/x9 so good", " @who #News\U0001F44D\U0001F3FD www.a.b",
    " :fire: \u2764\ufe0f \u039f\u0394\u039f\u03a3 #a#b", "\r\nsee https://x.y/z?q=1 now",
]


def prep_smoke():
    docs, pairs = corpus.synth_fixture(
        seed=1, n_topics=2, n_articles=6, tweets_per_article=3, vocab_per_topic=20
    )
    edited = []
    for i, d in enumerate(docs):
        if d.kind == corpus.KIND_ARTICLE:
            words = d.text.split()
            lines = [" ".join(words[k : k + 4]) for k in range(0, len(words), 4)]
            text = "\n".join(lines) + "\n\n\u0130stanbul #Later \U0001F680 paragraph\n"
        else:
            text = d.text + TWEET_TAILS[i % len(TWEET_TAILS)]
        edited.append(replace(d, text=text))
    corpus.write_documents(edited, "documents.jsonl")
    corpus.write_pairs(pairs, "pairs.jsonl")
    cleaning = {"emoji_mode": "alias", "strip_hashes": False, "min_word_len": 2}
    cfg = textprep.CleaningConfig(**cleaning)
    for summaries in (True, False):
        out = f"out_{summaries}"
        write_json("config.json", {
            "documents": "documents.jsonl", "pairs": "pairs.jsonl", "model": "tfidf",
            "summary_articles": summaries, "cleaning": cleaning, "out_dir": out,
        })
        run("config.json", "prep")
        with open(f"{out}/prepared.jsonl", encoding="utf-8") as fh:
            got = {row["id"]: row["tokens"] for row in map(json.loads, fh)}
        for d in edited:
            text = corpus.extract_summary(d) if summaries and d.kind == "article" else d.text
            want = textprep.clean(text, cfg).split()
            if got.get(d.id) != want:
                raise SystemExit(f"prep tokens of {d.id} are {got.get(d.id)}, not {want}")
        if len(got) != len(edited):
            raise SystemExit(f"prep wrote {len(got)} documents, not {len(edited)}")


DEEP = "[" * 100_000 + "]" * 100_000


def bad_lines_smoke():
    docs, pairs = corpus.synth_fixture(
        seed=1, n_topics=2, n_articles=6, tweets_per_article=3, vocab_per_topic=20
    )
    corpus.write_documents(docs, "documents.jsonl")
    corpus.write_pairs(pairs, "pairs.jsonl")
    with open("documents.jsonl") as fh:
        doc_lines = fh.read().splitlines()
    with open("pairs.jsonl") as fh:
        pair_lines = fh.read().splitlines()
    annotation = '{"tweet_id": "t", "article_id": "a", "annotator_id": "u", "verdict": "match"'
    vectors = [json.dumps({"id": d.id, "vector": [1.0, i]}) for i, d in enumerate(docs)]
    external = {"model": "dual", "features": "external", "embeddings": "embeddings.jsonl",
                "train": {"epochs": 2, "joint_dim": 4}}
    # Per format: its file's lines, the config keys that read it, the command,
    # and line 2 ill-typed, then nested past the recursion limit.
    for name, lines, extra, command, bad in [
        ("documents", doc_lines, {}, "eval",
         ['{"id": "a9", "kind": "blog", "text": "x", "created_at": 1}',
          '{"id": "a9", "kind": "article", "text": ' + DEEP + ', "created_at": 1}']),
        ("pairs", pair_lines, {}, "eval",
         ['{"tweet_id": "t", "article_id": "a", "label": 3}',
          '{"tweet_id": "t", "article_id": "a", "label": ' + DEEP + "}"]),
        ("annotations", [annotation + "}"] * 2, {"annotations": "annotations.jsonl"}, "ingest",
         [annotation.replace('"u"', "null") + "}", annotation + ', "note": ' + DEEP + "}"]),
        ("embeddings", vectors, external, "eval",
         ['{"id": ["x"], "vector": [1.0, 2.0]}', '{"id": "x", "vector": ' + DEEP + "}"]),
    ]:
        for line in bad:
            path = f"{name}.jsonl"
            with open(path, "w") as fh:
                fh.write("\n".join([lines[0], line, *lines[2:]]) + "\n")
            write_json("config.json", {"documents": "documents.jsonl", "pairs": "pairs.jsonl",
                                       "model": "tfidf", **extra})
            err = io.StringIO()
            with redirect_stderr(err):
                code = cli.main(["--config", "config.json", command])
            if code != 2 or f"{path}:2: " not in err.getvalue():
                raise SystemExit(f"{name} line {line[:60]!r}: exit {code}, {err.getvalue()!r}")
        with open(f"{name}.jsonl", "w") as fh:
            fh.write("\n".join(lines) + "\n")


# Per config section, a bad value of one key, by the name the error gives it.
BAD_CONFIG = [
    ("threshold", {"threshold": float("nan")}),
    ("cleaning.min_word_len", {"cleaning": {"min_word_len": True}}),
    ("chunking.part_len", {"chunking": {"part_len": 0}}),
    ("lda.beta", {"lda": {"beta": float("inf")}}),
    ("lda.bogus", {"lda": {"bogus": 1}}),
    ("train.lr", {"train": {"lr": float("nan")}}),
    ("train.epochs", {"train": {"epochs": 2.5}}),
]


def bad_config_smoke():
    docs, pairs = corpus.synth_fixture(
        seed=1, n_topics=2, n_articles=6, tweets_per_article=3, vocab_per_topic=20
    )
    corpus.write_documents(docs, "documents.jsonl")
    corpus.write_pairs(pairs, "pairs.jsonl")
    for key, extra in BAD_CONFIG:
        write_json("config.json", {"documents": "documents.jsonl", "pairs": "pairs.jsonl",
                                   "model": "lda", **extra})
        err = io.StringIO()
        with redirect_stderr(err):
            code = cli.main(["--config", "config.json", "eval"])
        if code != 2 or key not in err.getvalue():
            raise SystemExit(f"config {extra}: exit {code}, {err.getvalue()!r}")


def lazy_layers_smoke():
    docs, pairs = corpus.synth_fixture(
        seed=1, n_topics=2, n_articles=6, tweets_per_article=3, vocab_per_topic=20
    )
    corpus.write_documents(docs, "documents.jsonl")
    corpus.write_pairs(pairs, "pairs.jsonl")
    write_json("config.json", {"documents": "documents.jsonl", "pairs": "pairs.jsonl",
                               "model": "tfidf"})
    proc = subprocess.run(
        [sys.executable, "-c", UNRUN_AFTER_CALL, "--config", "config.json", "eval"],
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise SystemExit(f"tfidf eval in a fresh interpreter failed:\n{proc.stderr}")
    unrun = set(proc.stdout.split())
    if unrun != {"tweetlink.contrast", "tweetlink.cascade"}:
        raise SystemExit(f"after a tfidf eval, unrun modules are {sorted(unrun)}")


def main(workdir):
    root = Path(workdir).resolve()
    # The checks run in WORKDIR, and lazy_layers_smoke's fresh interpreter
    # with them: resolve a relative PYTHONPATH against where this started.
    if os.environ.get("PYTHONPATH"):
        paths = os.environ["PYTHONPATH"].split(os.pathsep)
        os.environ["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in paths)
    for name, smoke in [("lda", lda_smoke), ("dual", dual_smoke), ("prep", prep_smoke),
                        ("bad_lines", bad_lines_smoke), ("bad_config", bad_config_smoke),
                        ("lazy", lazy_layers_smoke)]:
        (root / name).mkdir(parents=True, exist_ok=True)
        os.chdir(root / name)
        smoke()
    print("smoke checks passed")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: python tests/smoke.py WORKDIR")
    main(sys.argv[1])
