"""Data model and ingestion for tweets, articles, linked pairs, and annotations.

Everything enters through JSONL files (one object per line); ids are opaque
strings because real tweet ids overflow 64-bit integers in some exports.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import (
    ConfigInvalidError,
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


# A row's label is held as its value: 1 match, -1 no_match, 0 unknown. The
# label of value v is _LABEL_BY_VALUE[v] (-1 indexes the last entry). The
# labels' first letters differ, and translate to the values as int8 bytes.
_LABEL_BY_VALUE = ("unknown", "match", "no_match")
_LETTER_VALUES = bytes.maketrans(b"umn", b"\x00\x01\xff")


class PairTable:
    """Linked pairs as coded columns in file order.

    Each distinct tweet id and article id is kept once, in order of first
    appearance (`distinct_tweet_ids`, `distinct_article_ids`; a table made by
    `select` keeps its source's). Row i is the int32 codes `tweet_codes[i]`
    and `article_codes[i]`, which index those tuples, and the int8 value of
    its label, `label_values[i]` (1 match, -1 no_match, 0 unknown).
    `tweet_ids`, `article_ids` and `labels` decode the columns as tuples,
    indexing gives row i as a LinkedPair, and iterating yields every row as
    one, so a table stands in for a list of pairs.
    """

    __slots__ = (
        "distinct_tweet_ids", "distinct_article_ids", "tweet_codes", "article_codes",
        "label_values",
    )

    def __init__(self, tweet_ids, article_ids, labels):
        tweet_ids, article_ids, labels = list(tweet_ids), list(article_ids), list(labels)
        if not len(tweet_ids) == len(article_ids) == len(labels):
            raise ValueError("pair columns must have equal lengths")
        unknown = set(labels).difference(PAIR_LABELS)
        if unknown:
            raise ValueError(f"unknown pair labels {sorted(map(repr, unknown))}")
        columns = _PairColumns()
        columns.append(tweet_ids, article_ids, "".join([label[0] for label in labels]))
        self._assign(*columns.coded())

    @classmethod
    def _of(cls, *coded) -> "PairTable":
        """A table of already coded columns, in _assign's order."""
        table = object.__new__(cls)
        table._assign(*coded)
        return table

    def _assign(self, distinct_tweet_ids, distinct_article_ids, tweet_codes, article_codes,
                label_values) -> None:
        self.distinct_tweet_ids = distinct_tweet_ids
        self.distinct_article_ids = distinct_article_ids
        self.tweet_codes = tweet_codes
        self.article_codes = article_codes
        self.label_values = label_values

    @classmethod
    def from_pairs(cls, pairs) -> "PairTable":
        pairs = list(pairs)
        return cls(
            [p.tweet_id for p in pairs], [p.article_id for p in pairs], [p.label for p in pairs]
        )

    @property
    def tweet_ids(self) -> tuple[str, ...]:
        return _decode(self.distinct_tweet_ids, self.tweet_codes)

    @property
    def article_ids(self) -> tuple[str, ...]:
        return _decode(self.distinct_article_ids, self.article_codes)

    @property
    def labels(self) -> tuple[str, ...]:
        return _decode(_LABEL_BY_VALUE, self.label_values)

    def __len__(self) -> int:
        return len(self.label_values)

    def __getitem__(self, i: int) -> LinkedPair:
        return LinkedPair(
            self.distinct_tweet_ids[self.tweet_codes[i]],
            self.distinct_article_ids[self.article_codes[i]],
            _LABEL_BY_VALUE[self.label_values[i]],
        )

    def __iter__(self):
        return map(LinkedPair, self.tweet_ids, self.article_ids, self.labels)

    def select(self, tweet_ids=None, article_ids=None, labels=None) -> "PairTable":
        """The rows whose tweet id is in `tweet_ids`, article id in
        `article_ids` and label in `labels`, in order; None admits every value.

        Each distinct value is tested once; the rows then index those tests.
        """
        keep = np.ones(len(self), dtype=bool)
        for wanted, values, codes in (
            (tweet_ids, self.distinct_tweet_ids, self.tweet_codes),
            (article_ids, self.distinct_article_ids, self.article_codes),
            (labels, _LABEL_BY_VALUE, self.label_values),
        ):
            if wanted is not None:
                keep &= np.array([v in wanted for v in values], dtype=bool)[codes]
        return PairTable._of(
            self.distinct_tweet_ids, self.distinct_article_ids,
            self.tweet_codes[keep], self.article_codes[keep], self.label_values[keep],
        )


def _decode(values: tuple, codes: np.ndarray) -> tuple:
    return tuple(map(values.__getitem__, codes.tolist()))


class _PairColumns:
    """Pair columns coded as they are appended, a block at a time: each id
    gets the next code on its first appearance, each label its value."""

    def __init__(self):
        self.tweet_index: dict[str, int] = {}
        self.article_index: dict[str, int] = {}
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def append(self, tweet_ids: list, article_ids: list, letters: str) -> None:
        """Append rows given as id lists and their labels' first letters."""
        self.blocks.append((
            _codes(self.tweet_index, tweet_ids),
            _codes(self.article_index, article_ids),
            np.frombuffer(letters.encode("ascii").translate(_LETTER_VALUES), np.int8),
        ))

    def coded(self) -> tuple:
        """The arguments of PairTable._of."""
        empty = (np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0, np.int8))
        columns = (np.concatenate(column) for column in zip(empty, *self.blocks))
        return (tuple(self.tweet_index), tuple(self.article_index), *columns)


def _codes(index: dict, ids: list) -> np.ndarray:
    for key in dict.fromkeys(ids):
        index.setdefault(key, len(index))
    return np.fromiter(map(index.__getitem__, ids), np.int32, len(ids))


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
    """(line number, object) for each non-blank line of the file (_parse_jsonl).
    A byte that is not UTF-8 raises MalformedLineError naming its line (open_utf8).
    """
    with open_utf8(path) as fh:
        yield from _parse_jsonl(path, fh, 1)


def _parse_jsonl(path, lines, start: int):
    """(line number, object) for each non-blank line of `lines`, numbered from
    `start` and parsed exactly as json.loads; errors name `path` and the line.

    A line holding a value from its first character, then only JSON
    whitespace, costs one scanner call. Any other line goes to json.loads
    itself, so it is accepted, rejected and its error worded alike.
    """
    for line_no, line in enumerate(lines, start):
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


# One pairs.jsonl line exactly as write_pairs writes it, capturing the ids
# and the label's first letter. An id holding no double quote, backslash or
# control character is a JSON string as it stands, so json.loads would
# decode it to itself.
_PAIR_LINE = (
    r'^\{"tweet_id": "([^"\\\x00-\x1f]*)", "article_id": "([^"\\\x00-\x1f]*)", '
    r'"label": "([mnu])(?:(?<=m)atch|(?<=n)o_match|(?<=u)nknown)"\}\n'
)
_PAIR_BLOCK_CHARS = 1 << 16


def load_pair_table(path) -> PairTable:
    """Read pairs.jsonl into a PairTable, building no per-pair objects.

    The file is read once, in blocks of about _PAIR_BLOCK_CHARS that end at
    a newline, and each block is coded before the next is read. A block
    whose every line is in write_pairs' form is parsed by one findall; any
    other block line by line (_parse_jsonl), with the same result. A line
    missing a field raises MissingFieldError (tweet_id, article_id, label
    checked in that order); a label outside PAIR_LABELS raises
    MalformedLineError with the file and line.
    """
    pair_line = re.compile(_PAIR_LINE, re.MULTILINE)  # compiled once, then cached by re
    columns = _PairColumns()
    start = 1
    with open_utf8(path) as fh:
        while block := fh.read(_PAIR_BLOCK_CHARS):
            block += fh.readline()
            n_lines = block.count("\n")
            # Matching the first line alone spares a findall over a block in another form.
            rows = pair_line.findall(block) if pair_line.match(block) else ()
            if len(rows) == n_lines and block.endswith("\n"):
                columns.append(
                    [row[0] for row in rows], [row[1] for row in rows],
                    "".join([row[2] for row in rows]),
                )
            else:
                columns.append(*_parse_pair_lines(path, block, start))
            start += n_lines
    return PairTable._of(*columns.coded())


def _parse_pair_lines(path, block: str, start: int) -> tuple[list, list, str]:
    """The tweet ids, article ids and label letters of a block's lines,
    parsed one by one and numbered from `start`."""
    tweet_ids, article_ids, letters = [], [], []
    # The block's lines end at "\n" only, as the file's do when iterated.
    for line_no, obj in _parse_jsonl(path, io.StringIO(block), start):
        try:
            tweet_id, article_id, label = obj["tweet_id"], obj["article_id"], obj["label"]
        except KeyError:
            for name in ("tweet_id", "article_id", "label"):
                _require(obj, name, line_no)
        if label not in PAIR_LABELS:
            raise MalformedLineError(str(path), line_no, f"unknown pair label {label!r}")
        tweet_ids.append(str(tweet_id))
        article_ids.append(str(article_id))
        letters.append(label[0])
    return tweet_ids, article_ids, "".join(letters)


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
    """The stripped non-blank lines of a keywords file (KeywordList), with
    errors that name the file and, for an entry not in lowercase, its line."""
    with open_utf8(path) as fh:
        lines = [line.strip() for line in fh]
    for line_no, entry in enumerate(lines, 1):
        if entry != entry.lower():
            raise MalformedLineError(str(path), line_no, f"keyword {entry!r} is not lowercase")
    if not any(lines):
        raise ConfigInvalidError(f"keywords file {path} holds no keywords")
    return KeywordList(tuple(filter(None, lines)))


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
    # Each distinct id is looked up once (-1: unknown); the codes index the lookups.
    rows = _lookup(t_index, table.distinct_tweet_ids)[table.tweet_codes]
    cols = _lookup(a_index, table.distinct_article_ids)[table.article_codes]
    codes = table.label_values

    unknown = np.flatnonzero((rows < 0) | (cols < 0))
    n = len(table)
    n_known = int(unknown[0]) if len(unknown) else n
    rows, cols, codes = rows[:n_known], cols[:n_known], codes[:n_known]
    _, first, inverse = np.unique(
        rows * len(article_ids) + cols, return_index=True, return_inverse=True
    )
    conflicts = np.flatnonzero(codes != codes[first][inverse])
    if len(conflicts):
        pair = table[int(conflicts[0])]
        raise ConflictingLabelError(pair.tweet_id, pair.article_id)
    if n_known < n:
        pair = table[n_known]
        raise UnknownIdError(pair.tweet_id if pair.tweet_id not in t_index else pair.article_id)

    values = np.zeros((len(tweet_ids), len(article_ids)), dtype=np.int8)
    values[rows, cols] = codes
    return GroundTruthMatrix(tuple(tweet_ids), tuple(article_ids), values)


def _lookup(index: dict, ids) -> np.ndarray:
    return np.fromiter(map(index.get, ids, repeat(-1)), np.int64, len(ids))


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
