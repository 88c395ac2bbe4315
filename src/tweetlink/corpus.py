"""Data model and ingestion for tweets, articles, linked pairs, and annotations.

Everything enters through JSONL files (one object per line); ids are opaque
strings because real tweet ids overflow 64-bit integers in some exports.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from itertools import compress, repeat

import numpy as np

from .errors import (
    ConflictingLabelError,
    DuplicateIdError,
    EmptyArticleError,
    MalformedLineError,
    MissingFieldError,
    UnknownIdError,
    open_utf8,
)
from .matrices import GroundTruthMatrix

KIND_TWEET = "tweet"
KIND_ARTICLE = "article"
KINDS = (KIND_TWEET, KIND_ARTICLE)

PAIR_LABELS = ("match", "no_match", "unknown")
VERDICTS = ("match", "no_match", "skip")
PARENT_KINDS = ("none", "reply", "quote")

_TOKEN_RE = re.compile(r"#?\w+", re.UNICODE)


@dataclass(frozen=True)
class Document:
    id: str
    kind: str
    text: str
    created_at: int
    summary: str | None = None
    parent_id: str | None = None
    parent_kind: str = "none"

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be nonempty")
        if self.kind not in KINDS:
            raise ValueError(f"unknown document kind {self.kind!r}")
        if self.parent_id is not None and self.kind != KIND_TWEET:
            raise ValueError(f"document {self.id!r}: only tweets may have a parent")
        if (self.parent_kind == "none") != (self.parent_id is None):
            raise ValueError(f"document {self.id!r}: parent_kind must match parent_id presence")
        if self.parent_kind not in PARENT_KINDS:
            raise ValueError(f"unknown parent_kind {self.parent_kind!r}")


@dataclass(frozen=True)
class LinkedPair:
    tweet_id: str
    article_id: str
    label: str

    def __post_init__(self):
        if self.label not in PAIR_LABELS:
            raise ValueError(f"unknown pair label {self.label!r}")


# Each valid label mapped to itself: one lookup validates a label and swaps
# it for the shared constant.
_LABELS = {label: label for label in PAIR_LABELS}
_LABEL_VALUES = {"match": 1, "no_match": -1, "unknown": 0}


@dataclass(frozen=True)
class PairTable:
    """Linked pairs as parallel columns in file order.

    Row i is (tweet_ids[i], article_ids[i], labels[i]). Iterating yields the
    rows as LinkedPair, so a table stands in for a list of pairs.
    """

    tweet_ids: tuple[str, ...]
    article_ids: tuple[str, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        for name in ("tweet_ids", "article_ids", "labels"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        if not len(self.tweet_ids) == len(self.article_ids) == len(self.labels):
            raise ValueError("pair columns must have equal lengths")
        unknown = set(self.labels).difference(PAIR_LABELS)
        if unknown:
            raise ValueError(f"unknown pair labels {sorted(map(repr, unknown))}")

    @classmethod
    def from_pairs(cls, pairs) -> "PairTable":
        pairs = list(pairs)
        return cls(
            [p.tweet_id for p in pairs], [p.article_id for p in pairs], [p.label for p in pairs]
        )

    def __len__(self) -> int:
        return len(self.labels)

    def __iter__(self):
        return map(LinkedPair, self.tweet_ids, self.article_ids, self.labels)

    def select(self, tweet_ids=None, article_ids=None) -> "PairTable":
        """The rows whose tweet id is in `tweet_ids` and article id in
        `article_ids`, in order; None admits every id."""
        keep = [
            (tweet_ids is None or t in tweet_ids) and (article_ids is None or a in article_ids)
            for t, a in zip(self.tweet_ids, self.article_ids)
        ]
        columns = (self.tweet_ids, self.article_ids, self.labels)
        return PairTable(*(compress(col, keep) for col in columns))


@dataclass(frozen=True)
class AnnotationRecord:
    tweet_id: str
    article_id: str
    annotator_id: str
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass(frozen=True)
class KeywordList:
    entries: tuple[str, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("keyword list must be nonempty")
        for entry in self.entries:
            if entry != entry.lower():
                raise ValueError(f"keyword {entry!r} must be lowercase")


# json.loads' own scanner: one C call returns a value and the index after it.
_scan_once = json.JSONDecoder().scan_once
_JSON_WS = " \t\n\r"


def _iter_jsonl(path):
    """(line number, object) for each non-blank line, parsed exactly as json.loads.

    A line holding a value from its first character, then only JSON
    whitespace, costs one scanner call. Any other line goes to json.loads
    itself, so it is accepted, rejected and its error worded alike. A byte
    that is not UTF-8 raises MalformedLineError naming its line (open_utf8).
    """
    with open_utf8(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                obj, end = _scan_once(line, 0)
            except (StopIteration, ValueError):
                end = None
            if end is None or line[end:].strip(_JSON_WS):
                if not line.strip():
                    continue
                try:
                    obj = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise MalformedLineError(str(path), line_no, str(exc)) from exc
            if not isinstance(obj, dict):
                raise MalformedLineError(str(path), line_no, "expected a JSON object")
            yield line_no, obj


def _require(obj: dict, field: str, line_no: int):
    if field not in obj:
        raise MissingFieldError(field, line_no)
    return obj[field]


def load_documents(path, kind: str | None = None) -> list[Document]:
    """Load documents.jsonl, preserving file order.

    When `kind` is given every line must carry that kind; otherwise mixed
    files are accepted.
    """
    docs: list[Document] = []
    seen: set[str] = set()
    for line_no, obj in _iter_jsonl(path):
        doc_id = str(_require(obj, "id", line_no))
        doc_kind = _require(obj, "kind", line_no)
        if kind is not None and doc_kind != kind:
            raise MalformedLineError(str(path), line_no, f"expected kind {kind!r}, got {doc_kind!r}")
        if doc_id in seen:
            raise DuplicateIdError(doc_id)
        seen.add(doc_id)
        parent_id = obj.get("parent_id")
        try:
            docs.append(
                Document(
                    id=doc_id,
                    kind=doc_kind,
                    text=_require(obj, "text", line_no),
                    created_at=int(_require(obj, "created_at", line_no)),
                    summary=obj.get("summary"),
                    parent_id=str(parent_id) if parent_id is not None else None,
                    parent_kind=obj.get("parent_kind", "none"),
                )
            )
        except (ValueError, TypeError) as exc:
            raise MalformedLineError(str(path), line_no, str(exc)) from exc
    return docs


def load_pair_table(path) -> PairTable:
    """Read pairs.jsonl into a PairTable, building no per-pair objects.

    A line missing a field raises MissingFieldError (tweet_id, article_id,
    label checked in that order); a label outside PAIR_LABELS raises
    MalformedLineError with the file and line.
    """
    tweet_ids, article_ids, labels = [], [], []
    for line_no, obj in _iter_jsonl(path):
        try:
            tweet_id, article_id, label = obj["tweet_id"], obj["article_id"], obj["label"]
        except KeyError:
            for name in ("tweet_id", "article_id", "label"):
                _require(obj, name, line_no)
        try:
            labels.append(_LABELS[label])
        except (KeyError, TypeError):  # TypeError: an unhashable label such as [] or {}
            raise MalformedLineError(str(path), line_no, f"unknown pair label {label!r}") from None
        tweet_ids.append(str(tweet_id))
        article_ids.append(str(article_id))
    return PairTable(tweet_ids, article_ids, labels)


def load_pairs(path) -> list[LinkedPair]:
    """Read pairs.jsonl as LinkedPair records; validation as load_pair_table."""
    return list(load_pair_table(path))


def load_annotations(path) -> list[AnnotationRecord]:
    records = []
    seen = set()
    for line_no, obj in _iter_jsonl(path):
        try:
            rec = AnnotationRecord(
                tweet_id=str(_require(obj, "tweet_id", line_no)),
                article_id=str(_require(obj, "article_id", line_no)),
                annotator_id=str(_require(obj, "annotator_id", line_no)),
                verdict=_require(obj, "verdict", line_no),
            )
        except ValueError as exc:
            raise MalformedLineError(str(path), line_no, str(exc)) from exc
        key = (rec.tweet_id, rec.article_id, rec.annotator_id)
        if key in seen:
            raise DuplicateIdError("/".join(key))
        seen.add(key)
        records.append(rec)
    return records


def load_keywords(path) -> KeywordList:
    with open_utf8(path) as fh:
        entries = tuple(line.strip() for line in fh if line.strip())
    return KeywordList(entries)


def write_documents(docs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            obj = {"id": doc.id, "kind": doc.kind, "text": doc.text, "created_at": doc.created_at}
            if doc.summary is not None:
                obj["summary"] = doc.summary
            if doc.parent_id is not None:
                obj["parent_id"] = doc.parent_id
                obj["parent_kind"] = doc.parent_kind
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def write_pairs(pairs, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for pair in pairs:
            fh.write(
                json.dumps(
                    {"tweet_id": pair.tweet_id, "article_id": pair.article_id, "label": pair.label}
                )
                + "\n"
            )


def extract_summary(article: Document, max_chars: int = 600) -> str:
    """First paragraph of an article, standing in for its lead paragraph.

    An explicit summary field wins. Otherwise the text up to the first blank
    line (two consecutive newlines) is returned, truncated to `max_chars`.
    The result is always a prefix of the article text in the fallback case.
    """
    if article.kind != KIND_ARTICLE:
        raise ValueError(f"document {article.id!r} is not an article")
    if article.summary is not None:
        return article.summary
    if not article.text:
        raise EmptyArticleError(article.id)
    # Ignore a blank line before any real content so the summary stays nonempty.
    cut = article.text.find("\n\n")
    while cut != -1 and not article.text[:cut].strip():
        cut = article.text.find("\n\n", cut + 1)
    summary = article.text if cut == -1 else article.text[:cut]
    return summary[:max_chars]


def keyword_filter(docs, keywords: KeywordList) -> list[Document]:
    """Retain documents whose token set intersects the keyword list.

    Tokens come from lowercased text split on whitespace/punctuation;
    hashtags survive as '#word' so hashtag keywords can match exactly.
    """
    wanted = set(keywords.entries)
    kept = []
    for doc in docs:
        tokens = set(_TOKEN_RE.findall(doc.text.lower()))
        if tokens & wanted:
            kept.append(doc)
    return kept


def build_ground_truth(pairs, tweet_ids, article_ids) -> GroundTruthMatrix:
    """Three-valued label matrix: 1 match, -1 no-match, 0 unknown/unannotated.

    `pairs` is a PairTable or an iterable of LinkedPair. Conflicting
    duplicate labels for one cell raise instead of overwriting; silent
    last-wins would hide labeling bugs. The first pair in order that fails
    raises: an unknown id (tweet checked before article) as UnknownIdError, a
    label other than the first one given for its cell as ConflictingLabelError.
    """
    table = pairs if isinstance(pairs, PairTable) else PairTable.from_pairs(pairs)
    t_index = {tid: i for i, tid in enumerate(tweet_ids)}
    a_index = {aid: j for j, aid in enumerate(article_ids)}
    n = len(table)
    rows = np.fromiter(map(t_index.get, table.tweet_ids, repeat(-1)), np.int64, n)
    cols = np.fromiter(map(a_index.get, table.article_ids, repeat(-1)), np.int64, n)
    codes = np.fromiter(map(_LABEL_VALUES.__getitem__, table.labels), np.int8, n)

    unknown = np.flatnonzero((rows < 0) | (cols < 0))
    n_known = int(unknown[0]) if len(unknown) else n
    rows, cols, codes = rows[:n_known], cols[:n_known], codes[:n_known]
    _, first, inverse = np.unique(
        rows * len(article_ids) + cols, return_index=True, return_inverse=True
    )
    conflicts = np.flatnonzero(codes != codes[first][inverse])
    if len(conflicts):
        k = int(conflicts[0])
        raise ConflictingLabelError(table.tweet_ids[k], table.article_ids[k])
    if n_known < n:
        k = n_known
        bad = table.tweet_ids[k] if table.tweet_ids[k] not in t_index else table.article_ids[k]
        raise UnknownIdError(bad)

    values = np.zeros((len(tweet_ids), len(article_ids)), dtype=np.int8)
    values[rows, cols] = codes
    return GroundTruthMatrix(tuple(tweet_ids), tuple(article_ids), values)


def _letters(n: int, width: int) -> str:
    out = []
    for _ in range(width):
        out.append(chr(ord("a") + n % 26))
        n //= 26
    return "".join(reversed(out))


def synth_fixture(
    seed: int,
    n_topics: int,
    n_articles: int,
    tweets_per_article: int,
    vocab_per_topic: int,
) -> tuple[list[Document], list[LinkedPair]]:
    """Deterministic topic-separable corpus standing in for the real datasets.

    Each topic owns a disjoint alphabetic vocabulary (words survive text
    cleaning unchanged). Articles round-robin over topics; each article gets
    `tweets_per_article` tweets drawn from the same topic, chained into a
    reply cascade rooted at the first one. The emitted pairs label every
    same-topic tweet-article combination `match` and every cross-topic one
    `no_match`.
    """
    if min(n_topics, n_articles, tweets_per_article, vocab_per_topic) < 1:
        raise ValueError("all fixture counts must be >= 1")
    rng = np.random.default_rng(seed)
    vocab = [
        [_letters(t, 3) + _letters(w, 3) for w in range(vocab_per_topic)]
        for t in range(n_topics)
    ]

    def sentence(topic: int, n_words: int) -> str:
        idx = rng.integers(0, vocab_per_topic, size=n_words)
        return " ".join(vocab[topic][i] for i in idx)

    docs: list[Document] = []
    article_topic: dict[str, int] = {}
    tweet_topic: dict[str, int] = {}
    clock = 1_000_000
    for a in range(n_articles):
        topic = a % n_topics
        aid = f"art-{a:04d}"
        lead = sentence(topic, int(rng.integers(8, 15)))
        body = sentence(topic, int(rng.integers(20, 31)))
        docs.append(Document(id=aid, kind=KIND_ARTICLE, text=lead + "\n\n" + body, created_at=clock))
        article_topic[aid] = topic
        clock += 100
        group: list[str] = []
        for t in range(tweets_per_article):
            tid = f"twt-{a:04d}-{t:02d}"
            parent = None
            parent_kind = "none"
            if group:
                parent = group[int(rng.integers(0, len(group)))]
                parent_kind = "reply" if rng.random() < 0.8 else "quote"
            docs.append(
                Document(
                    id=tid,
                    kind=KIND_TWEET,
                    text=sentence(topic, int(rng.integers(5, 10))),
                    created_at=clock,
                    parent_id=parent,
                    parent_kind=parent_kind,
                )
            )
            tweet_topic[tid] = topic
            group.append(tid)
            clock += 10

    pairs = [
        LinkedPair(tid, aid, "match" if tweet_topic[tid] == article_topic[aid] else "no_match")
        for tid in tweet_topic
        for aid in article_topic
    ]
    return docs, pairs
