"""Experiment harness: config-driven pipeline, calibration, sweeps, reports.

All commands read one JSON config document (nested sections, overridable by
a few global flags) and write deterministic artifacts into an output
directory: identical config + seed always reproduces identical bytes.

Every command runs one staged pipeline, `_Run`, up to the stage it needs.
Each stage is computed on first use and kept for the rest of the command:

    corpus           documents and pairs, keyword-filtered     ingest, cascades
    tokens           cleaned and lemmatized tokens per doc      prep, fit
    train_positives  match pairs of train_pairs, else of pairs  (model=dual only)
    vectors          tfidf/lda vectors, or dual-encoder outputs train
    similarity       tweets x articles cosine matrix            score, sweep-size
    ground_truth     corpus labels of the similarity's cells    calibrate, eval

sweep-hp loads the corpus once and redoes tokens and vectors per grid point
on an article-disjoint train/val split; grid points may not change the corpus.

Exit codes: 0 success, 1 degenerate evaluation (e.g. no positive labels),
2 config or I/O problems.
"""

from __future__ import annotations

import argparse
import copy
import csv
import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from . import cascade as cascade_mod
from . import contrast, corpus, evalx, linker, textprep, vectorize
from .errors import (
    ConfigInvalidError,
    DegenerateEvaluationError,
    DuplicateIdError,
    EmptyGridError,
    MalformedLineError,
    MissingFieldError,
    TweetLinkError,
    UnknownIdError,
    check_types,
    read_json,
)
from .matrices import (
    CSV_DECIMALS,
    GroundTruthMatrix,
    SimilarityMatrix,
    read_similarity_csv,
    write_matrix_csv,
)

MODELS = ("tfidf", "lda", "dual")
FEATURES = ("tfidf", "lda", "external")
# Config keys that select the corpus: one value per run, never per grid point.
CORPUS_KEYS = frozenset({"documents", "pairs", "keywords", "train_pairs"})


@dataclass(frozen=True)
class LdaParams:
    n_topics: int = 10
    alpha: float | None = None
    beta: float = 0.01
    iters: int = 100
    infer_iters: int = 50

    def __post_init__(self):
        for name in ("n_topics", "iters", "infer_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("alpha", "beta"):
            prior = getattr(self, name)
            if prior is not None and not prior > 0:
                raise ValueError(f"{name} must be > 0, got {prior!r}")


@dataclass(frozen=True)
class RunConfig:
    documents: str
    pairs: str
    model: str = "tfidf"
    features: str = "tfidf"
    strategy: str = "truncate"
    aggregation: str = "mean"
    seed: int = 0
    threshold: float | None = None
    out_dir: str = "out"
    train_pairs: str | None = None
    annotations: str | None = None
    embeddings: str | None = None
    lemmas: str | None = None
    keywords: str | None = None
    summary_articles: bool | None = None  # None: summaries for tfidf, full text otherwise
    max_summary_chars: int = 600
    cleaning: textprep.CleaningConfig = field(default_factory=textprep.CleaningConfig)
    chunking: textprep.ChunkingConfig = field(
        default_factory=lambda: textprep.ChunkingConfig(content_len=510)
    )
    lda: LdaParams = field(default_factory=LdaParams)
    train: contrast.TrainConfig = field(default_factory=contrast.TrainConfig)

    def __post_init__(self):
        if self.model not in MODELS:
            raise ConfigInvalidError(f"model must be one of {MODELS}, got {self.model!r}")
        if self.features not in FEATURES:
            raise ConfigInvalidError(f"features must be one of {FEATURES}, got {self.features!r}")
        if self.strategy not in contrast.STRATEGIES:
            raise ConfigInvalidError(
                f"strategy must be one of {contrast.STRATEGIES}, got {self.strategy!r}"
            )
        if self.aggregation not in cascade_mod.AGGREGATIONS:
            raise ConfigInvalidError(
                f"aggregation must be one of {cascade_mod.AGGREGATIONS}, got {self.aggregation!r}"
            )
        if self.seed < 0:
            raise ConfigInvalidError(f"seed must be >= 0, got {self.seed}")
        if self.max_summary_chars < 1:
            raise ConfigInvalidError(
                f"max_summary_chars must be >= 1, got {self.max_summary_chars}"
            )
        if self.model != "dual" and (self.features, self.strategy) != ("tfidf", "truncate"):
            raise ConfigInvalidError(
                f"features and strategy choose the dual encoder's input; model {self.model!r} "
                f"reads neither, so they must keep their defaults (got features="
                f"{self.features!r}, strategy={self.strategy!r})"
            )
        if self.features == "external":
            if not self.embeddings:
                raise ConfigInvalidError("features=external requires an embeddings path")
            if self.strategy != "truncate":
                raise ConfigInvalidError(
                    "external embeddings carry no token structure; use strategy=truncate"
                )

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        data = copy.deepcopy(raw)
        sections = {
            "cleaning": textprep.CleaningConfig,
            "chunking": textprep.ChunkingConfig,
            "lda": LdaParams,
            "train": contrast.TrainConfig,
        }
        kwargs = {}
        for name, section_cls in sections.items():
            if name not in data:
                continue
            values = data.pop(name)
            if not isinstance(values, dict):
                raise ConfigInvalidError(f"config section {name!r} must be an object")
            check_types(section_cls, values, f"{name}.")
            try:
                kwargs[name] = section_cls(**values)
            except (TypeError, ValueError) as exc:
                raise ConfigInvalidError(f"invalid {name} config: {exc}") from exc
        unknown = set(data) - set(cls.__dataclass_fields__)
        if unknown:
            raise ConfigInvalidError(f"unknown config keys: {sorted(unknown)}")
        if "documents" not in data or "pairs" not in data:
            raise ConfigInvalidError("config must set 'documents' and 'pairs' paths")
        check_types(cls, data)
        try:
            return cls(**data, **kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigInvalidError(f"invalid config: {exc}") from exc

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        return cls.from_dict(read_json(path, "config", dict))

    def to_dict(self) -> dict:
        out = {}
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if hasattr(value, "__dataclass_fields__"):
                out[name] = {k: getattr(value, k) for k in value.__dataclass_fields__}
            else:
                out[name] = value
        return out

    def with_overrides(self, dotted: dict) -> "RunConfig":
        """Apply {'train.lr': 0.5, 'lda.n_topics': 4, ...} onto a copy."""
        data = self.to_dict()
        for key, value in dotted.items():
            target = data
            parts = key.split(".")
            for part in parts[:-1]:
                if part not in target or not isinstance(target[part], dict):
                    raise ConfigInvalidError(f"unknown config section in override {key!r}")
                target = target[part]
            if parts[-1] not in target:
                raise ConfigInvalidError(f"unknown config key in override {key!r}")
            target[parts[-1]] = value
        return RunConfig.from_dict(data)


# --- stages --------------------------------------------------------------------


def _load_corpus(cfg: RunConfig):
    try:
        docs = corpus.load_documents(cfg.documents)
        pairs = corpus.load_pair_table(cfg.pairs)
    except OSError as exc:
        raise ConfigInvalidError(str(exc)) from exc
    if cfg.keywords:
        kws = corpus.load_keywords(cfg.keywords)
        docs = corpus.keyword_filter(docs, kws)
        ids = {d.id for d in docs}
        pairs = pairs.select(ids, ids)
    tweets = [d for d in docs if d.kind == corpus.KIND_TWEET]
    articles = [d for d in docs if d.kind == corpus.KIND_ARTICLE]
    if not tweets or not articles:
        raise ConfigInvalidError("the corpus needs at least one tweet and one article")
    return tweets, articles, pairs


def _prepare_tokens(cfg: RunConfig, tweets, articles) -> dict[str, list[str]]:
    lemmas = textprep.load_lemmas(cfg.lemmas) if cfg.lemmas else {}
    use_summary = cfg.summary_articles
    if use_summary is None:
        use_summary = cfg.model == "tfidf"
    tokens: dict[str, list[str]] = {}
    for doc in tweets:
        tokens[doc.id] = textprep.tokenize_lemmatize(textprep.clean(doc.text, cfg.cleaning), lemmas)
    for doc in articles:
        text = corpus.extract_summary(doc, cfg.max_summary_chars) if use_summary else doc.text
        tokens[doc.id] = textprep.tokenize_lemmatize(textprep.clean(text, cfg.cleaning), lemmas)
    return tokens


def _article_pieces(cfg: RunConfig, tokens: list[str]) -> list[list[str]]:
    """Token pieces of an article: itself, unless the dual encoder reads it by cfg.strategy."""
    if cfg.model != "dual" or not tokens:
        return [tokens]
    if cfg.strategy == "mean_chunks":
        return textprep.chunk(tokens, cfg.chunking)
    if cfg.strategy == "augment":
        header, parts = textprep.augment_split(tokens, cfg.chunking)
        return [header, *parts]
    return [textprep.truncate(tokens, cfg.chunking.truncate_limit)]


def _match_pairs(pairs: corpus.PairTable) -> list[tuple[str, str]]:
    matches = pairs.select(labels={"match"})
    return list(zip(matches.tweet_ids, matches.article_ids))


def build_vectors(
    cfg: RunConfig,
    tokens: dict[str, list[str]],
    fit_tweet_ids,
    fit_article_ids,
    out_tweet_ids,
    out_article_ids,
    train_positives=None,
):
    """(tweet rows, article rows, encoder) for the output ids, fitted on the fit side only.

    Row i of each matrix belongs to the i-th output id of its side; an id
    without tokens raises UnknownIdError. Every model featurizes tweets
    (truncated) and article pieces (_article_pieces) in one call per side
    (_featurizer). model=dual also featurizes the training tweets and fit
    articles, trains the encoder on `train_positives` over those rows and
    outputs projections: the mean of an article's pieces' under mean_chunks,
    else its first piece's. Other models output the rows.
    """
    dual = cfg.model == "dual"
    tweet_ids, article_ids = list(out_tweet_ids), list(out_article_ids)
    if dual:
        if not train_positives:
            raise ConfigInvalidError("model=dual needs match-labeled training pairs")
        # The fit articles come first, so their pieces are the first rows of piece_x.
        tweet_ids = list(dict.fromkeys([*sorted({t for t, _ in train_positives}), *tweet_ids]))
        article_ids = list(dict.fromkeys([*fit_article_ids, *article_ids]))
    for doc_id in (*fit_tweet_ids, *fit_article_ids, *tweet_ids, *article_ids):
        if doc_id not in tokens:
            raise UnknownIdError(doc_id)
    pieces = [_article_pieces(cfg, tokens[i]) for i in article_ids]

    kind = cfg.features if dual else cfg.model
    featurize = _featurizer(cfg, kind, tokens, fit_tweet_ids, fit_article_ids)
    trunc = cfg.chunking.truncate_limit
    tweet_x = featurize([(i, textprep.truncate(tokens[i], trunc)) for i in tweet_ids])
    piece_x = featurize([(i, p) for i, ps in zip(article_ids, pieces) for p in ps])
    if not dual:
        return tweet_x, piece_x, None

    # Training draws its negatives from the fit articles, in this order.
    counts = np.array([len(ps) for ps in pieces])
    n_fit = len(set(fit_article_ids))
    encoder, _trace = contrast.train(
        train_positives, tweet_x, piece_x, cfg.train, cfg.strategy,
        tweet_ids, article_ids[:n_fit], counts[:n_fit],
    )
    if cfg.strategy == "mean_chunks":
        article_vecs = contrast.encode_batch(encoder, "article", piece_x, counts)
    else:  # truncate: the single piece; augment: the header piece
        article_vecs = contrast.encode_batch(encoder, "article", piece_x)[np.cumsum(counts) - counts]
    tweet_vecs = contrast.encode_batch(encoder, "tweet", tweet_x)
    tweet_row = {doc_id: r for r, doc_id in enumerate(tweet_ids)}
    article_row = {doc_id: r for r, doc_id in enumerate(article_ids)}
    return (
        tweet_vecs[[tweet_row[i] for i in out_tweet_ids]],
        article_vecs[[article_row[i] for i in out_article_ids]],
        encoder,
    )


def _fit_with_docs(cfg: RunConfig, kind: str, tokens, tweet_ids, article_ids):
    """(model, [(doc_id, tokens)] it was fitted on): a tfidf or lda model fitted
    on the given tweets (truncated) and articles, and the documents it saw."""
    trunc = cfg.chunking.truncate_limit
    docs = [(i, textprep.truncate(tokens[i], trunc)) for i in tweet_ids]
    docs += [(i, tokens[i]) for i in article_ids]
    token_lists = [toks for _id, toks in docs]
    if kind == "lda":
        model = vectorize.lda_fit(
            token_lists, n_topics=cfg.lda.n_topics, alpha=cfg.lda.alpha, beta=cfg.lda.beta,
            iters=cfg.lda.iters, seed=cfg.seed,
        )
    else:
        model = vectorize.tfidf_fit(token_lists)
    return model, docs


def _featurizer(cfg: RunConfig, kind: str, tokens, fit_tweet_ids, fit_article_ids):
    """Feature space `kind` fitted on the fit side; returns [(doc_id, tokens)] -> row matrix.

    The rows follow the given list: CSR for tfidf, dense for lda and
    external. tfidf transforms the whole list with one batched call. lda
    takes the fit's theta row for a document the fit sampled (same id, same
    tokens) and folds the rest in with one batched call of infer_iters
    sweeps.
    """
    if kind == "external":
        table = vectorize.load_embeddings(cfg.embeddings)
        return lambda docs: np.array(
            [table.lookup(doc_id) for doc_id, _toks in docs], dtype=np.float64
        ).reshape(len(docs), table.dim)
    model, fit_docs = _fit_with_docs(cfg, kind, tokens, fit_tweet_ids, fit_article_ids)
    if kind == "tfidf":
        return lambda docs: vectorize.tfidf_transform_batch(model, [toks for _id, toks in docs])

    fitted = {doc_id: (toks, row) for row, (doc_id, toks) in enumerate(fit_docs)}

    def featurize(docs):
        rows = np.empty((len(docs), model.n_topics))
        held_out = []
        for i, (doc_id, toks) in enumerate(docs):
            fit_toks, row = fitted.get(doc_id, (None, None))
            if fit_toks == toks:
                rows[i] = model.theta[row]
            else:
                held_out.append(i)
        if held_out:
            rows[held_out] = vectorize.lda_infer_batch(
                model, [docs[i][1] for i in held_out], iters=cfg.lda.infer_iters, seed=cfg.seed
            )
        return rows

    return featurize


class _Run:
    """One pipeline run over `cfg`; each stage is computed on first use, then kept.

    A stage can be supplied instead of computed by assigning it, as
    `calibrate --matrix` does with the similarity.
    """

    def __init__(self, cfg: RunConfig):
        self.cfg = cfg

    @cached_property
    def corpus(self):
        """(tweets, articles, pairs), keyword-filtered when cfg.keywords is set."""
        return _load_corpus(self.cfg)

    @cached_property
    def tweet_ids(self) -> list[str]:
        return [d.id for d in self.corpus[0]]

    @cached_property
    def article_ids(self) -> list[str]:
        return [d.id for d in self.corpus[1]]

    @cached_property
    def tokens(self) -> dict[str, list[str]]:
        tweets, articles, _pairs = self.corpus
        return _prepare_tokens(self.cfg, tweets, articles)

    @cached_property
    def train_positives(self) -> list[tuple[str, str]]:
        """The match pairs of cfg.train_pairs when it is set, else of the corpus pairs."""
        if self.cfg.train_pairs:
            return _match_pairs(corpus.load_pair_table(self.cfg.train_pairs))
        return _match_pairs(self.corpus[2])

    @cached_property
    def vectors(self):
        """(tweet rows, article rows, dual encoder or None), fitted on every document."""
        ids = (self.tweet_ids, self.article_ids)
        positives = self.train_positives if self.cfg.model == "dual" else None
        return build_vectors(self.cfg, self.tokens, *ids, *ids, positives)

    @cached_property
    def similarity(self) -> SimilarityMatrix:
        tweet_rows, article_rows, _encoder = self.vectors
        return linker.score_matrix(tweet_rows, article_rows, self.tweet_ids, self.article_ids)

    @cached_property
    def ground_truth(self) -> GroundTruthMatrix:
        """The corpus labels of the similarity's cells."""
        sim = self.similarity
        return corpus.build_ground_truth(self.corpus[2], sim.tweet_ids, sim.article_ids)


def _as_run(run: _Run | RunConfig) -> _Run:
    return run if isinstance(run, _Run) else _Run(run)


# --- pipeline operations ------------------------------------------------------


def run_pipeline(run: _Run | RunConfig) -> tuple[SimilarityMatrix, evalx.MetricsReport]:
    """score -> (calibrate) -> classify -> masked metrics, for a run or a config.

    Writes similarity.csv and report.json (plus encoder.json for the dual
    model) into cfg.out_dir.
    """
    run = _as_run(run)
    cfg, sim, gt = run.cfg, run.similarity, run.ground_truth
    calibrated = cfg.threshold is None
    threshold = linker.calibrate_threshold(sim, gt)[0] if calibrated else cfg.threshold
    report = evalx.evaluate_masked(sim.values, linker.classify(sim, threshold).values, gt)

    out = _out_dir(cfg)
    write_matrix_csv(sim, out / "similarity.csv")
    encoder = run.vectors[2]
    summary = {
        "model": cfg.model,
        "threshold": threshold,
        "calibrated": calibrated,
        "metrics": report.to_dict(),
        "n_tweets": len(sim.tweet_ids),
        "n_articles": len(sim.article_ids),
    }
    if encoder is not None:
        overlap = _train_eval_overlap(run.train_positives, gt)
        contrast.save_encoder(encoder, out / "encoder.json", cfg.train)
        summary["n_train_eval_overlap"] = overlap
        if overlap:
            hint = (
                "they are still labeled cells of pairs; unlabel them there"
                if cfg.train_pairs
                else "set train_pairs"
            )
            print(
                f"warning: {overlap} evaluated match pairs were also trained on; "
                f"{hint} to evaluate on unseen pairs",
                file=sys.stderr,
            )
    _write_json(out / "report.json", summary, exact=True)
    return sim, report


def _train_eval_overlap(train_positives, gt: GroundTruthMatrix) -> int:
    """Distinct training match pairs that are labeled cells of `gt`, i.e. evaluated."""
    row = {t: i for i, t in enumerate(gt.tweet_ids)}
    col = {a: j for j, a in enumerate(gt.article_ids)}
    return sum(
        1 for t, a in set(train_positives)
        if t in row and a in col and gt.values[row[t], col[a]] != 0
    )


def split_by_article(article_ids, match_pairs, seed: int, val_fraction: float = 0.5):
    """Disjoint train/val split: articles split at random, tweets follow a
    randomly chosen home article among their matches. val_fraction must lie
    strictly between 0 and 1."""
    if not 0.0 < val_fraction < 1.0:  # also false for NaN
        raise ConfigInvalidError(
            f"val_fraction must lie strictly between 0 and 1, got {val_fraction!r}"
        )
    rng = np.random.default_rng(seed)
    articles = sorted(article_ids)
    order = rng.permutation(len(articles))
    n_val = max(1, int(round(len(articles) * val_fraction)))
    val_articles = {articles[i] for i in order[:n_val]}
    train_articles = [a for a in articles if a not in val_articles]
    if not train_articles:
        raise ConfigInvalidError("split leaves no training articles")

    matches_by_tweet: dict[str, list[str]] = {}
    for t, a in match_pairs:
        matches_by_tweet.setdefault(t, []).append(a)
    train_tweets, val_tweets = [], []
    for t in sorted(matches_by_tweet):
        home = matches_by_tweet[t][int(rng.integers(0, len(matches_by_tweet[t])))]
        (train_tweets if home in train_articles else val_tweets).append(t)
    return {
        "train_articles": list(train_articles),
        "val_articles": sorted(val_articles),
        "train_tweets": train_tweets,
        "val_tweets": val_tweets,
    }


def sweep_hyperparams(run: _Run | RunConfig, grid, split, budget: int | None = None):
    """Evaluate each grid point on the validation side; return the AP argmax.

    The split must keep articles and tweets disjoint between sides; training
    only ever sees train-side positives, evaluation only val-side cells.
    Each point's tokens are prepared from its derived config, over the
    corpus the run loaded once; a point that overrides one of CORPUS_KEYS
    raises ConfigInvalidError. Ties go to the earliest grid point. With a
    budget (>= 1), a seeded random subset of the grid is visited instead
    (order preserved).
    """
    run = _as_run(run)
    cfg = run.cfg
    grid = list(grid)
    if not grid:
        raise EmptyGridError("hyperparameter grid is empty")
    if budget is not None and budget < 1:
        raise ConfigInvalidError(f"budget must be >= 1, got {budget}")
    for point in grid:
        corpus_keys = sorted(CORPUS_KEYS.intersection(point))
        if corpus_keys:
            raise ConfigInvalidError(
                f"grid point {point!r} overrides {corpus_keys}; the corpus is loaded once per sweep"
            )
    train_a = list(split["train_articles"])
    val_a = list(split["val_articles"])
    train_t = list(split["train_tweets"])
    val_t = list(split["val_tweets"])
    if set(train_a) & set(val_a) or set(train_t) & set(val_t):
        raise ConfigInvalidError("train/val split is not disjoint")
    if not val_t or not val_a:
        raise ConfigInvalidError("validation side is empty")

    if budget is not None and budget < len(grid):
        rng = np.random.default_rng(cfg.seed)
        keep = sorted(rng.choice(len(grid), size=budget, replace=False))
        grid = [grid[i] for i in keep]

    tweets, articles, pairs = run.corpus
    derived_cfgs = [cfg.with_overrides(point) for point in grid]
    train_positives = None
    if any(derived.model == "dual" for derived in derived_cfgs):
        train_t_set, train_a_set = set(train_t), set(train_a)
        train_positives = [
            (t, a) for t, a in run.train_positives if t in train_t_set and a in train_a_set
        ]
    gt = corpus.build_ground_truth(pairs.select(set(val_t), set(val_a)), val_t, val_a)

    rows = []
    best = None
    for point, derived in zip(grid, derived_cfgs):
        tokens = _prepare_tokens(derived, tweets, articles)
        tweet_rows, article_rows, _enc = build_vectors(
            derived, tokens, train_t, train_a, val_t, val_a, train_positives
        )
        sim = linker.score_matrix(tweet_rows, article_rows, val_t, val_a)
        scores, labels = evalx.masked_pairs(sim.values, gt)
        ap = evalx.average_precision(scores, labels)
        rows.append({"params": point, "val_ap": ap})
        if best is None or ap > best[1]:
            best = (point, ap)
    return best[0], best[1], rows


def sweep_size(run: _Run | RunConfig, sizes) -> list[dict]:
    """Masked AP of cascade-level scores as a function of the cut size.

    Cascades are built from the run's tweets and scored against one ground
    truth row per cascade root over the run's articles. Every tweet is scored
    once (the run's similarity); for each n, a cascade's row aggregates the
    rows of its n oldest members with cfg.aggregation. Members are kept in
    (created_at, depth, id) order, so those are the first n.
    """
    sizes = list(sizes)
    if not sizes or any(n < 1 for n in sizes) or sizes != sorted(set(sizes)):
        raise ConfigInvalidError("sizes must be strictly increasing integers >= 1")
    run = _as_run(run)
    tweets, _articles, pairs = run.corpus
    cascades = cascade_mod.build_cascades(tweets)
    sim = run.similarity
    roots = [c.root_id for c in cascades]
    gt = corpus.build_ground_truth(pairs.select(tweet_ids=set(roots)), roots, sim.article_ids)
    row_of = {tweet_id: i for i, tweet_id in enumerate(sim.tweet_ids)}
    member_rows = [[row_of[t] for t in c.member_ids] for c in cascades]

    n_evaluated = int((np.abs(gt.values).sum(axis=1) > 0).sum())
    rows = []
    for n in sizes:
        values = np.clip(
            [cascade_mod.aggregate(sim.values[m[:n]], run.cfg.aggregation) for m in member_rows],
            -1.0, 1.0,
        )
        ap = evalx.average_precision(*evalx.masked_pairs(values, gt))
        rows.append({"n": n, "ap": ap, "n_cascades": n_evaluated})
    return rows


def emit_report(results, fmt: str, path) -> None:
    """Write results as JSON or CSV with stable ordering and 6-decimal floats;
    empty or non-finite results and CSV rows of unlike keys are rejected."""
    if results is None or (hasattr(results, "__len__") and len(results) == 0):
        raise ConfigInvalidError("refusing to emit an empty report")
    try:
        json.dumps(results, allow_nan=False)
    except ValueError:
        raise ConfigInvalidError("refusing to emit a report holding NaN or infinity") from None
    if fmt == "json":
        _write_json(path, results)
    elif fmt == "csv":
        rows = results if isinstance(results, list) else [results]
        if not all(isinstance(r, dict) and r.keys() == rows[0].keys() for r in rows):
            raise ConfigInvalidError("csv reports need a list of flat objects with the same keys")
        for row in rows:
            for value in row.values():
                if value is not None and not isinstance(value, (str, int, float, bool)):
                    raise ConfigInvalidError("csv reports need flat scalar values; use json")
        keys = list(rows[0])
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(keys)
            writer.writerows([_csv_cell(row[k]) for k in keys] for row in rows)
    else:
        raise ConfigInvalidError(f"unknown report format {fmt!r}")


def _csv_cell(value):
    """A float at 6 decimals; csv.writer writes None as an empty cell, str() of the rest."""
    return f"{value:.6f}" if isinstance(value, float) else value


def _round_floats(obj):
    if isinstance(obj, float):
        return round(obj, 6)
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def _write_json(path, obj, exact: bool = False) -> None:
    """Floats go out at 6 decimals, or with `exact` in shortest round-trip form,
    so that a threshold read back makes the same decisions."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj if exact else _round_floats(obj), fh, sort_keys=True, indent=2)
        fh.write("\n")


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- command handlers -----------------------------------------------------------


def _cmd_ingest(run: _Run, args) -> None:
    tweets, articles, pairs = run.corpus
    summary = {
        "n_tweets": len(tweets),
        "n_articles": len(articles),
        "n_pairs": len(pairs),
        "pair_labels": {label: len(pairs.select(labels={label})) for label in corpus.PAIR_LABELS},
    }
    if run.cfg.annotations:
        summary["n_annotations"] = len(corpus.load_annotations(run.cfg.annotations))
    _write_json(_out_dir(run.cfg) / "ingest.json", summary)


def _cmd_prep(run: _Run, args) -> None:
    tweets, articles, _pairs = run.corpus
    tokens = run.tokens
    with open(_out_dir(run.cfg) / "prepared.jsonl", "w", encoding="utf-8") as fh:
        for doc in [*tweets, *articles]:
            fh.write(json.dumps({"id": doc.id, "kind": doc.kind, "tokens": tokens[doc.id]}) + "\n")


def _cmd_fit(run: _Run, args) -> None:
    kind = args.model or run.cfg.model
    if kind not in ("tfidf", "lda"):
        raise ConfigInvalidError("fit supports model tfidf or lda")
    model, _docs = _fit_with_docs(run.cfg, kind, run.tokens, run.tweet_ids, run.article_ids)
    save = vectorize.save_lda if kind == "lda" else vectorize.save_tfidf
    save(model, _out_dir(run.cfg) / f"model_{kind}.json")


def _cmd_train(run: _Run, args) -> None:
    if run.cfg.model != "dual":
        raise ConfigInvalidError("train requires model=dual")
    contrast.save_encoder(run.vectors[2], _out_dir(run.cfg) / "encoder.json", run.cfg.train)


def _cmd_score(run: _Run, args) -> None:
    write_matrix_csv(run.similarity, _out_dir(run.cfg) / "similarity.csv")


def _cmd_calibrate(run: _Run, args) -> None:
    if args.matrix:
        run.similarity = read_similarity_csv(args.matrix)
    threshold, f1 = linker.calibrate_threshold(run.similarity, run.ground_truth)
    result = {"threshold": threshold, "f1": f1}
    if args.matrix:
        # The CSV's rounded cells, not the scores the model computed.
        result["score_decimals"] = CSV_DECIMALS
        result["max_score_error"] = 0.5 * 10.0**-CSV_DECIMALS
    _write_json(_out_dir(run.cfg) / "threshold.json", result, exact=True)


def _cmd_eval(run: _Run, args) -> None:
    run_pipeline(run)


def _cmd_cascades(run: _Run, args) -> None:
    cascades = cascade_mod.build_cascades(run.corpus[0])
    cascade_mod.write_cascades_jsonl(cascades, _out_dir(run.cfg) / "cascades.jsonl")


def _cmd_sweep_size(run: _Run, args) -> None:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ConfigInvalidError(f"--sizes must list integers, got {args.sizes!r}") from None
    emit_report(sweep_size(run, sizes), "csv", _out_dir(run.cfg) / "sweep_size.csv")


def _cmd_sweep_hp(run: _Run, args) -> None:
    grid = read_json(args.grid, "grid", list)
    if not all(isinstance(p, dict) for p in grid):
        raise ConfigInvalidError(f"grid {args.grid} must hold a JSON list of override objects")
    split = split_by_article(
        run.article_ids, _match_pairs(run.corpus[2]), run.cfg.seed, args.val_fraction
    )
    best, best_ap, rows = sweep_hyperparams(run, grid, split, budget=args.budget)
    _write_json(
        _out_dir(run.cfg) / "sweep_hp.json",
        {"best_params": best, "best_val_ap": best_ap, "rows": rows, "split": split},
    )


def _cmd_report(run: _Run | None, args) -> None:
    results = read_json(args.input, "results", (dict, list))
    out_dir = Path(run.cfg.out_dir) if run else Path(args.out_dir or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    emit_report(results, args.format, out_dir / f"report.{args.format}")


# --- entry point -------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tweetlink", description="Link tweets to news articles and evaluate the matches."
    )
    parser.add_argument("--config", help="path to the JSON run configuration")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out-dir", help="override the config output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        cmd = sub.add_parser(name, help=help)
        cmd.set_defaults(handler=handler)
        return cmd

    command("ingest", _cmd_ingest, "validate input files and write corpus counts")
    command("prep", _cmd_prep, "write cleaned+lemmatized tokens per document")
    fit = command("fit", _cmd_fit, "fit and save a tfidf or lda model")
    fit.add_argument("--model", choices=("tfidf", "lda"))
    command("train", _cmd_train, "train and save the dual encoder")
    command("score", _cmd_score, "write the tweets-by-articles similarity CSV")
    cal = command("calibrate", _cmd_calibrate, "pick the F1-maximizing threshold")
    cal.add_argument("--matrix", help="reuse a similarity CSV instead of rescoring")
    command("eval", _cmd_eval, "full pipeline: score, threshold, masked metrics")
    command("cascades", _cmd_cascades, "build reply/quote cascades and export them")
    sweep_n = command("sweep-size", _cmd_sweep_size, "cascade-size sweep of masked AP")
    sweep_n.add_argument("--sizes", required=True, help="comma-separated cut sizes, ascending")
    sweep_h = command("sweep-hp", _cmd_sweep_hp, "grid search maximizing validation AP")
    sweep_h.add_argument("--grid", required=True, help="JSON list of dotted config overrides")
    sweep_h.add_argument("--budget", type=int, help="random-search budget over the grid")
    sweep_h.add_argument("--val-fraction", type=float, default=0.5)
    rep = command("report", _cmd_report, "re-emit a results JSON as json or csv")
    rep.add_argument("--input", required=True)
    rep.add_argument("--format", choices=("json", "csv"), default="json")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        run = None
        if args.command != "report" or args.config:
            if not args.config:
                raise ConfigInvalidError(f"{args.command} requires --config")
            cfg = RunConfig.from_file(args.config)
            overrides = {}
            if args.seed is not None:
                overrides["seed"] = args.seed
                overrides["train.seed"] = args.seed
            if args.out_dir is not None:
                overrides["out_dir"] = args.out_dir
            if overrides:
                cfg = cfg.with_overrides(overrides)
            run = _Run(cfg)
        args.handler(run, args)
        return 0
    except (ConfigInvalidError, OSError, MalformedLineError, MissingFieldError, DuplicateIdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegenerateEvaluationError as exc:
        print(f"degenerate evaluation: {exc}", file=sys.stderr)
        return 1
    except TweetLinkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
