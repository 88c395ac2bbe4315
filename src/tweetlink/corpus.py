"""Data model and ingestion for tweets, articles, linked pairs, annotations and embeddings.

Everything enters through JSONL files (one object per line); ids are opaque
strings because real tweet ids overflow 64-bit integers in some exports.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import dataclass
from itertools import count, repeat
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigInvalidError,
    ConflictingLabelError,
    DuplicateIdError,
    EmptyArticleError,
    MalformedLineError,
    MissingEmbeddingError,
    MissingFieldError,
    UnknownIdError,
    check_utf8,
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
    """A tweet or an article; a tweet may reply to or quote a parent tweet."""

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
    """One labeled tweet-article cell: match, no_match or unknown."""

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
        columns.append(*_coded_lists(
            tweet_ids, article_ids, "".join([label[0] for label in labels])
        ))
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
    """Pair columns coded a block at a time: each id gets the next code on
    its first appearance in the file."""

    def __init__(self):
        self.tweet_index: dict[str, int] = {}
        self.article_index: dict[str, int] = {}
        self.blocks: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []

    def append(self, tweet_ids: list, tweet_rows: np.ndarray, article_ids: list,
               article_rows: np.ndarray, label_values: np.ndarray) -> None:
        """Append a block whose row i is tweet_ids[tweet_rows[i]],
        article_ids[article_rows[i]] and label_values[i]. Each id list holds
        the block's distinct ids in order of first appearance."""
        self.blocks.append((
            _codes(self.tweet_index, tweet_ids)[tweet_rows],
            _codes(self.article_index, article_ids)[article_rows],
            label_values,
        ))

    def coded(self) -> tuple:
        """The arguments of PairTable._of."""
        empty = (np.empty(0, np.int32), np.empty(0, np.int32), np.empty(0, np.int8))
        columns = (np.concatenate(column) for column in zip(empty, *self.blocks))
        return (tuple(self.tweet_index), tuple(self.article_index), *columns)


def _codes(index: dict, ids: list) -> np.ndarray:
    """The codes of distinct ids; an id new to `index` gets the next code."""
    return np.fromiter((index.setdefault(key, len(index)) for key in ids), np.int32, len(ids))


def _distinct(ids: list) -> tuple[list, np.ndarray]:
    """The distinct ids in order of first appearance, and each id's index
    among them."""
    index = dict(zip(dict.fromkeys(ids), count()))
    return list(index), np.fromiter(map(index.__getitem__, ids), np.int32, len(ids))


def _coded_lists(tweet_ids, article_ids, letters: str) -> tuple:
    """The arguments of _PairColumns.append for id sequences and their labels'
    first letters."""
    values = np.frombuffer(letters.encode("ascii").translate(_LETTER_VALUES), np.int8)
    return (*_distinct(tweet_ids), *_distinct(article_ids), values)


@dataclass(frozen=True)
class AnnotationRecord:
    """One annotator's verdict on one tweet-article pair."""

    tweet_id: str
    article_id: str
    annotator_id: str
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")


@dataclass(frozen=True)
class KeywordList:
    """Nonempty lowercase keywords for keyword_filter."""

    entries: tuple[str, ...]

    def __post_init__(self):
        if not self.entries:
            raise ValueError("keyword list must be nonempty")
        for entry in self.entries:
            if entry != entry.lower():
                raise ValueError(f"keyword {entry!r} must be lowercase")


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    """Precomputed embeddings by document id, all of width dim."""

    vectors: dict[str, np.ndarray]
    dim: int

    def lookup(self, doc_id: str) -> np.ndarray:
        try:
            return self.vectors[doc_id]
        except KeyError:
            raise MissingEmbeddingError(doc_id) from None


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
    itself, so it is accepted, rejected and its error worded alike. Every
    ValueError of json.loads (bad JSON, a number of over 4,300 digits) or
    RecursionError (a value nested past the recursion limit) is a malformed line.
    """
    for line_no, line in enumerate(lines, start):
        try:
            obj, end = _scan_once(line, 0)
        except (StopIteration, ValueError, RecursionError):
            end = None
        if end is None or line[end:].strip(_JSON_WS):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise MalformedLineError(str(path), line_no, str(exc)) from exc
        if not isinstance(obj, dict):
            raise MalformedLineError(str(path), line_no, "expected a JSON object")
        yield line_no, obj


_REQUIRED = object()  # the default of a field that must be present


class _Field(NamedTuple):
    """A line format's field: the types of the JSON values it takes, their
    wording, its default and, for a field of a fixed set of strings, the set."""

    types: tuple
    want: str
    default: object = _REQUIRED
    fixed: tuple = ()


def _one_of(values: tuple, default=_REQUIRED) -> _Field:
    return _Field((str,), "one of " + ", ".join(map(repr, values)), default, values)


# One table per JSONL line format. Fields are read in table order, which is
# the order of the record's own fields (Document, LinkedPair, AnnotationRecord).
# A field that takes strings and integers is an id, and an integer is read as
# its decimal string. created_at is an integer of any size: timestamps in
# milliseconds pass the int32 bound. load_embeddings checks a vector's values.
_NULL = type(None)
_ID = _Field((str, int), "a string or an integer")
_DOCUMENT_FIELDS = {
    "id": _ID,
    "kind": _one_of(KINDS),
    "text": _Field((str,), "a string"),
    "created_at": _Field((int,), "an integer"),
    "summary": _Field((str, _NULL), "a string or null", None),
    "parent_id": _Field((str, int, _NULL), "a string, an integer or null", None),
    "parent_kind": _one_of(PARENT_KINDS, "none"),
}
_PAIR_FIELDS = {"tweet_id": _ID, "article_id": _ID, "label": _one_of(PAIR_LABELS)}
_ANNOTATION_FIELDS = {"tweet_id": _ID, "article_id": _ID, "annotator_id": _ID,
                      "verdict": _one_of(VERDICTS)}
_EMBEDDING_FIELDS = {"id": _ID, "vector": _Field((list,), "a nonempty array of finite numbers")}
_JSON_KINDS = {
    _NULL: "null", bool: "a boolean", int: "an integer", str: "a string",
    float: "a number with a fraction or exponent", list: "an array", dict: "an object",
}


def _read_fields(path, line_no: int, obj: dict, table: dict) -> list:
    """The values of `table`'s fields in the parsed line `obj`, in table order.
    An absent field takes its default, or raises MissingFieldError if required;
    a value of another JSON type or outside its fixed set, MalformedLineError."""
    values = []
    for name, (types, want, default, fixed) in table.items():
        value = obj.get(name, default)
        if type(value) not in types:
            if value is _REQUIRED:
                raise MissingFieldError(str(path), line_no, name)
            raise _field_error(path, line_no, name, want, _JSON_KINDS[type(value)])
        if fixed and value not in fixed:
            raise _field_error(path, line_no, name, want, repr(value))
        values.append(f"{value:d}" if type(value) is int and str in types else value)
    return values


def _field_error(path, line_no: int, name: str, want: str, got: str) -> MalformedLineError:
    return MalformedLineError(str(path), line_no, f"{name} must be {want}, got {got}")


def load_documents(path) -> list[Document]:
    """Load documents.jsonl (_DOCUMENT_FIELDS), preserving file order. A
    repeated id raises DuplicateIdError; a line breaking a Document rule (only
    tweets have parents, given with their parent_kind) MalformedLineError."""
    docs: list[Document] = []
    seen: set[str] = set()
    for line_no, obj in _iter_jsonl(path):
        values = _read_fields(path, line_no, obj, _DOCUMENT_FIELDS)
        if values[0] in seen:
            raise DuplicateIdError(str(path), line_no, values[0])
        seen.add(values[0])
        try:
            docs.append(Document(*values))
        except ValueError as exc:
            raise MalformedLineError(str(path), line_no, str(exc)) from exc
    return docs


# A pairs.jsonl line as write_pairs writes it, in UTF-8:
#   {"tweet_id": "<id>", "article_id": "<id>", "label": "<label>"}\n
# Its tail after the article id is one of _PAIR_TAILS, one per label, held
# right-aligned in _TAIL_WIDTH bytes (NUL-filled on the left). The byte 8
# before the newline tells them apart: the quote before "match", the "_" of
# "no_match" or the first "n" of "unknown" (_TAIL_KIND; any other byte reads
# as match, whose tail then fails to match).
_PAIR_HEAD = b'{"tweet_id": "'
_PAIR_MID = b'", "article_id": "'
_PAIR_TAILS = [b'", "label": "' + label.encode() + b'"}' for label in PAIR_LABELS]
_TAIL_WIDTH = max(map(len, _PAIR_TAILS))
_TAILS = np.array([list(tail.rjust(_TAIL_WIDTH, b"\0")) for tail in _PAIR_TAILS], np.uint8)
_TAIL_FREE = _TAILS == 0
_TAIL_LENGTHS = np.array([len(tail) for tail in _PAIR_TAILS])
_TAIL_VALUES = np.frombuffer(
    "".join(label[0] for label in PAIR_LABELS).encode().translate(_LETTER_VALUES), np.int8
)
_TAIL_KIND = np.zeros(256, np.intp)
_TAIL_KIND[_TAILS[:, -8]] = range(len(PAIR_LABELS))
# Three literals hold 12 quotes; a line holds no other.
_PAIR_QUOTES = (_PAIR_HEAD + _PAIR_MID + _PAIR_TAILS[0]).count(b'"')
_PAIR_MIN_LINE = len(_PAIR_HEAD + _PAIR_MID + _PAIR_TAILS[0])
# An id of more bytes sends its block to the line parser. This bounds the
# keys' memory, and as padding after a block of lines no shorter than
# _PAIR_MIN_LINE it keeps every window in the buffer.
_PAIR_KEY_BYTES = 256
_PAIR_BLOCK_CHARS = 1 << 18  # bytes a block reads, cut after their last line end


def load_pair_table(path) -> PairTable:
    """Read pairs.jsonl into a PairTable, building no per-pair objects.

    The file is read once as bytes, in blocks of whole lines whose line
    ends are translated to "\n" as text mode's universal newlines would
    (_line_blocks), and each block is coded before the next is read. A
    block that is not all ASCII is checked to be UTF-8 (check_utf8), so
    lines, their numbers and errors are those of the file read as text. A
    block whose every line is in write_pairs' form is coded with array
    operations on its bytes (_code_pair_block); any other block is decoded
    and parsed line by line (_parse_jsonl, _read_fields with _PAIR_FIELDS),
    with the same result.
    """
    columns = _PairColumns()
    start = 1
    with open(path, "rb") as fh:
        for block in _line_blocks(fh):
            if not block.isascii():
                check_utf8(path, block, start)
            coded = _code_pair_block(block)
            n_lines = len(coded[-1]) if coded else block.count(b"\n")
            columns.append(*(coded or _parse_pair_lines(path, block.decode(), start)))
            start += n_lines
    return PairTable._of(*columns.coded())


def _line_blocks(fh):
    """The bytes of `fh` in blocks that end at a line end, each with "\r\n"
    and then a lone "\r" replaced by "\n". A block is the line the read
    before it left unended, then one read of _PAIR_BLOCK_CHARS bytes cut
    after its last line end; a final "\r", which may begin a "\r\n", is
    left for the next block. So no block holds more than one read and one
    line, whatever mix of line ends the file has. A read with no line end
    to cut at joins the next one, and the last read is not cut."""
    held = []  # the next block's bytes, read so far
    while chunk := fh.read(_PAIR_BLOCK_CHARS):
        end = chunk.rfind(b"\n") + 1
        cut = chunk.rfind(b"\r", end, -1) + 1 or end
        if not cut or len(chunk) < _PAIR_BLOCK_CHARS:  # no line end yet, or the last read
            held.append(chunk)
            continue
        held.append(memoryview(chunk)[:cut])  # a view: the join copies the bytes once
        chunk = chunk[cut:]
        block = _newlines(b"".join(held))
        held = [chunk]
        yield block
    if block := b"".join(held):
        yield _newlines(block)


def _newlines(block: bytes) -> bytes:
    """`block` with "\r\n" and then a lone "\r" replaced by "\n"."""
    if b"\r" not in block:
        return block
    return block.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _code_pair_block(block: bytes) -> tuple | None:
    """The arguments of _PairColumns.append for a block of lines in
    write_pairs' form, one row a line, or None for a block in any other form.

    The block, valid UTF-8, must end in a newline and hold no backslash, no
    control character but its newlines, 12 quotes a line and no line shorter
    than _PAIR_MIN_LINE. Each line must then hold _PAIR_HEAD at its start,
    _PAIR_MID at the first quote after that and a tail of _PAIR_TAILS before
    its newline, in that order and apart. These three literals hold the 12
    quotes, so no id holds a quote, and each id is a JSON string that
    decodes to itself. Each id is keyed by a fixed-width window of bytes
    (_keys), np.unique codes the keys, and only the first row of each
    distinct key is decoded. Keys of one id that differ after its closing
    quote are joined again by _PairColumns' dicts.
    """
    if not block.endswith(b"\n") or b"\\" in block:
        return None
    data = block + bytes(_PAIR_KEY_BYTES)
    buf = np.frombuffer(data, np.uint8)
    text = buf[:-_PAIR_KEY_BYTES]
    ends = np.flatnonzero(text < 0x20)
    if ((text[ends] != ord("\n")).any()
            or np.count_nonzero(text == ord('"')) != _PAIR_QUOTES * len(ends)):
        return None
    starts = np.concatenate(([0], ends[:-1] + 1))
    lengths = ends - starts
    if lengths.min() < _PAIR_MIN_LINE:
        return None
    # A tweet id ends at the first quote after its start, within `reach`
    # bytes of it unless its line or the id is too long.
    reach = min(int(lengths.max()) - _PAIR_MIN_LINE, _PAIR_KEY_BYTES) + 1
    tweet_starts = starts + len(_PAIR_HEAD)
    tweet_ends = tweet_starts + (_windows(buf, reach, tweet_starts) == ord('"')).argmax(axis=1)
    article_starts = tweet_ends + len(_PAIR_MID)
    tails = _windows(buf, _TAIL_WIDTH, ends - _TAIL_WIDTH)
    kinds = _TAIL_KIND[tails[:, -8]]
    article_ends = ends - _TAIL_LENGTHS[kinds]
    if not (
        (article_starts <= article_ends).all()
        and _holds(buf, starts, _PAIR_HEAD)
        and _holds(buf, tweet_ends, _PAIR_MID)
        and ((tails == _TAILS[kinds]) | _TAIL_FREE[kinds]).all()
    ):
        return None
    tweet_keys = _keys(buf, tweet_starts, tweet_ends)
    article_keys = _keys(buf, article_starts, article_ends)
    if tweet_keys is None or article_keys is None:
        return None
    return (
        *_distinct_keys(data, tweet_keys, tweet_starts, tweet_ends),
        *_distinct_keys(data, article_keys, article_starts, article_ends),
        _TAIL_VALUES[kinds],
    )


def _windows(buf: np.ndarray, width: int, starts: np.ndarray) -> np.ndarray:
    """The `width` bytes from each start, one row each: rows of a view whose
    row i is buf[i:i + width]."""
    view = np.ndarray((len(buf) - width + 1, width), np.uint8, buf, strides=(1, 1))
    return view[starts]


def _holds(buf: np.ndarray, starts: np.ndarray, literal: bytes) -> bool:
    """Whether `literal` starts at every start."""
    return bool((_windows(buf, len(literal), starts) == np.frombuffer(literal, np.uint8)).all())


def _keys(buf: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """Each id's key: the bytes from its start, as many as the longest id's
    and at least 8 (None if over _PAIR_KEY_BYTES). A shorter id's key holds
    its closing quote, and a quote ends an id, so equal keys hold equal ids.
    An 8-byte key is one word, which np.unique sorts as an integer."""
    width = int((ends - starts).max())
    if width > _PAIR_KEY_BYTES:
        return None
    if width <= 8:
        return _windows(buf, 8, starts).view(np.uint64)[:, 0]
    return _windows(buf, width, starts).view(f"S{width}")[:, 0]


def _distinct_keys(data: bytes, keys: np.ndarray, starts: np.ndarray, ends: np.ndarray):
    """The ids of the distinct keys in order of first appearance, decoded
    from the key's first row, and each row's index among them."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    rows = first[order]
    ids = [data[i:j].decode() for i, j in zip(starts[rows].tolist(), ends[rows].tolist())]
    return ids, rank[inverse]


def _parse_pair_lines(path, block: str, start: int) -> tuple:
    """The arguments of _PairColumns.append for a block's lines, parsed one
    by one and numbered from `start`."""
    # The block's lines end at "\n" only: load_pair_table translated any "\r".
    rows = [_read_fields(path, line_no, obj, _PAIR_FIELDS)
            for line_no, obj in _parse_jsonl(path, io.StringIO(block), start)]
    tweet_ids, article_ids, labels = zip(*rows) if rows else ((), (), ())
    return _coded_lists(tweet_ids, article_ids, "".join(label[0] for label in labels))


def load_pairs(path) -> list[LinkedPair]:
    """Read pairs.jsonl as LinkedPair records; validation as load_pair_table."""
    return list(load_pair_table(path))


def load_annotations(path) -> list[AnnotationRecord]:
    """Read annotations.jsonl (_ANNOTATION_FIELDS); a repeated key raises DuplicateIdError."""
    records = []
    seen = set()
    for line_no, obj in _iter_jsonl(path):
        rec = AnnotationRecord(*_read_fields(path, line_no, obj, _ANNOTATION_FIELDS))
        key = (rec.tweet_id, rec.article_id, rec.annotator_id)
        if key in seen:
            raise DuplicateIdError(str(path), line_no, "/".join(key))
        seen.add(key)
        records.append(rec)
    return records


def load_embeddings(path) -> EmbeddingTable:
    """Read embeddings.jsonl (_EMBEDDING_FIELDS); dim fixed by the first
    row. A repeated id or a vector of another width raises MalformedLineError
    (DuplicateIdError for the id) naming the file and line."""
    vectors: dict[str, np.ndarray] = {}
    dim = None
    for line_no, obj in _iter_jsonl(path):
        doc_id, values = _read_fields(path, line_no, obj, _EMBEDDING_FIELDS)
        vec = _vector(path, line_no, values)
        if doc_id in vectors:
            raise DuplicateIdError(str(path), line_no, doc_id)
        if dim is None:
            dim = len(vec)
        elif len(vec) != dim:
            raise MalformedLineError(
                str(path), line_no, f"id {doc_id!r} has dim {len(vec)}, expected {dim}"
            )
        vectors[doc_id] = vec
    return EmbeddingTable(vectors=vectors, dim=dim or 0)


_NUMBERS = {int, float}


def _vector(path, line_no: int, values: list) -> np.ndarray:
    """An embeddings line's vector as float64. It must be nonempty and hold
    only numbers (not booleans), each finite as a float64: NaN and the
    infinities, whose literals JSON decoding accepts, and integers past
    float64's range are rejected. Anything else raises MalformedLineError
    naming the file and line."""
    if not values:
        got = "an empty array"
    elif not set(map(type, values)) <= _NUMBERS:
        bad = next(v for v in values if type(v) not in _NUMBERS)
        got = f"an array holding {_JSON_KINDS[type(bad)]}"
    else:
        try:
            vec = np.array(values, np.float64)
        except OverflowError:  # an integer past float64's range
            vec = None
        if vec is not None and np.isfinite(vec).all():
            return vec
        got = "an array holding a number that is not finite as a float64"
    raise _field_error(path, line_no, "vector", _EMBEDDING_FIELDS["vector"].want, got)


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


def write_jsonl(objects, path) -> None:
    """Write each object as one JSON line in UTF-8, its non-ASCII characters
    as they are. A line holding a lone surrogate, which UTF-8 cannot hold, is
    written escaped instead, as is every non-ASCII character of that line."""
    with open(path, "wb") as fh:
        for obj in objects:
            try:
                fh.write((json.dumps(obj, ensure_ascii=False) + "\n").encode())
            except UnicodeEncodeError:
                fh.write((json.dumps(obj) + "\n").encode())


def write_documents(docs, path) -> None:
    """Write documents.jsonl: each document's fields in _DOCUMENT_FIELDS
    order, leaving out a field that holds its default."""
    write_jsonl(
        ({name: value for name, field in _DOCUMENT_FIELDS.items()
          if (value := getattr(doc, name)) != field.default} for doc in docs),
        path,
    )


def write_pairs(pairs, path) -> None:
    """Write pairs.jsonl in the form load_pair_table codes with array
    operations: ids in UTF-8, escaped only where JSON requires it."""
    write_jsonl(
        ({"tweet_id": p.tweet_id, "article_id": p.article_id, "label": p.label} for p in pairs),
        path,
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
    cells = rows[:n_known] * len(article_ids) + cols[:n_known]
    codes = codes[:n_known]
    values = np.zeros((len(tweet_ids), len(article_ids)), dtype=np.int8)
    flat = values.reshape(-1)
    flat[cells] = codes
    # A cell given two labels keeps one, so some pair of it reads back another.
    if (flat[cells] != codes).any():
        _, first, inverse = np.unique(cells, return_index=True, return_inverse=True)
        pair = table[int(np.flatnonzero(codes != codes[first][inverse])[0])]
        raise ConflictingLabelError(pair.tweet_id, pair.article_id)
    if n_known < n:
        pair = table[n_known]
        raise UnknownIdError(pair.tweet_id if pair.tweet_id not in t_index else pair.article_id)
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
