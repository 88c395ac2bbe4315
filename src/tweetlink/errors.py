"""Exception hierarchy shared by all tweetlink modules, and the input readers
that turn bad input into one of them: the text-file opener for a byte that
is not UTF-8, the one JSON document reader, the model-file header check and
the field-type check every config value and model-file scalar passes."""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import fields


class TweetLinkError(Exception):
    """Base class for every error raised by this package."""


# --- file ingestion -----------------------------------------------------


class MalformedLineError(TweetLinkError):
    def __init__(self, path: str, line_no: int, reason: str = "invalid JSON"):
        super().__init__(f"{path}:{line_no}: {reason}")
        self.path = path
        self.line_no = line_no


@contextmanager
def open_utf8(path, **kwargs):
    """open(path) for reading UTF-8 text. A byte that is not UTF-8 raises
    MalformedLineError naming its line; only then is the file read again, as
    bytes, to find that line."""
    try:
        with open(path, encoding="utf-8", **kwargs) as fh:
            yield fh
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line_no = data.count(b"\n", 0, exc.start) + 1
            reason = f"byte 0x{data[exc.start]:02x} is not UTF-8"
            raise MalformedLineError(str(path), line_no, reason) from None
        raise  # the file changed between the two reads


class MissingFieldError(TweetLinkError):
    def __init__(self, field: str, line_no: int):
        super().__init__(f"line {line_no}: missing required field {field!r}")
        self.field = field
        self.line_no = line_no


class DuplicateIdError(TweetLinkError):
    def __init__(self, doc_id: str):
        super().__init__(f"duplicate id {doc_id!r}")
        self.doc_id = doc_id


class UnknownIdError(TweetLinkError):
    def __init__(self, doc_id: str):
        super().__init__(f"id {doc_id!r} not present in the corpus")
        self.doc_id = doc_id


class ConflictingLabelError(TweetLinkError):
    def __init__(self, tweet_id: str, article_id: str):
        super().__init__(
            f"pair ({tweet_id!r}, {article_id!r}) labeled twice with different labels"
        )
        self.tweet_id = tweet_id
        self.article_id = article_id


class EmptyArticleError(TweetLinkError):
    def __init__(self, article_id: str):
        super().__init__(f"article {article_id!r} has no text and no summary")
        self.article_id = article_id


# --- shapes and dimensions ----------------------------------------------


class DimMismatchError(TweetLinkError):
    pass


class ShapeMismatchError(TweetLinkError):
    pass


class RaggedRowsError(TweetLinkError):
    pass


class EmptyInputError(TweetLinkError):
    pass


class NonFiniteValueError(TweetLinkError):
    """A score or vector holds NaN or an infinity."""


# --- vectorization ------------------------------------------------------


class EmptyCorpusError(TweetLinkError):
    pass


class DegenerateKError(TweetLinkError):
    pass


class MissingEmbeddingError(TweetLinkError):
    def __init__(self, doc_id: str):
        super().__init__(f"no vector available for id {doc_id!r}")
        self.doc_id = doc_id


# --- contrastive training -----------------------------------------------


class NoNegativesAvailableError(TweetLinkError):
    def __init__(self, tweet_id: str):
        super().__init__(f"tweet {tweet_id!r} is linked to every article; cannot sample negatives")
        self.tweet_id = tweet_id


class NonFiniteLossError(TweetLinkError):
    pass


class EmptyChunkListError(TweetLinkError):
    pass


# --- evaluation ---------------------------------------------------------


class DegenerateEvaluationError(TweetLinkError):
    """Metrics are undefined on this input (maps to CLI exit code 1)."""


class NoPositivesError(DegenerateEvaluationError):
    pass


class NoLabeledCellsError(DegenerateEvaluationError):
    pass


class DegenerateAgreementError(DegenerateEvaluationError):
    pass


class UnequalRaterCountsError(TweetLinkError):
    pass


# --- cascades -----------------------------------------------------------


class CycleDetectedError(TweetLinkError):
    def __init__(self, ids: list[str]):
        super().__init__(f"reply/quote graph contains a cycle through: {', '.join(sorted(ids))}")
        self.ids = list(ids)


# --- CLI ----------------------------------------------------------------


class ConfigInvalidError(TweetLinkError):
    """Bad run configuration or unusable input files (maps to CLI exit code 2)."""


class EmptyGridError(TweetLinkError):
    pass


# --- JSON documents -----------------------------------------------------


def read_json(path, what: str, kind: type | tuple[type, ...]):
    """The JSON document in `path`, whose top-level value must be a `kind`
    (dict, list or a tuple of them). A file that cannot be opened, is not
    UTF-8, is not valid JSON or holds another kind of value raises
    ConfigInvalidError naming `what` and `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigInvalidError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on a non-UTF-8 byte
        raise ConfigInvalidError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, kind):
        names = {dict: "object", list: "list"}
        want = " or ".join(names[k] for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ConfigInvalidError(f"{what} {path} must hold a JSON {want}")
    return doc


@contextmanager
def read_model(path, fmt: str, version: int):
    """Yield the JSON object of a model file whose `format` is `fmt` and whose
    `version` is the integer `version` (read_json). A missing key, or a value
    of the wrong kind or shape, that the caller meets while building the model
    inside the `with` block raises ConfigInvalidError naming `path`."""
    payload = read_json(path, f"{fmt} model file", dict)
    found_fmt, found_version = payload.get("format"), payload.get("version")
    if found_fmt != fmt or type(found_version) is not int or found_version != version:
        raise ConfigInvalidError(
            f"{path}: expected a version-{version} {fmt!r} model file, "
            f"got format {found_fmt!r} version {found_version!r}"
        )
    try:
        yield payload
    except KeyError as exc:
        raise ConfigInvalidError(f"{path}: {fmt} model file lacks key {exc}") from None
    except (TypeError, ValueError, OverflowError, DimMismatchError) as exc:
        raise ConfigInvalidError(f"{path}: malformed {fmt} model file: {exc}") from None


def check_types(cls, values: dict, prefix: str = "") -> None:
    """Reject a value in `values` whose JSON type does not fit the field of
    dataclass `cls` it names, naming its key after `prefix`.

    An int field takes an integer (not a bool), a float field a finite
    number, a bool field true or false and a str field a string; a field
    typed `... | None` also takes null. Keys that are not fields, and fields
    of other types, are left to the caller.
    """
    for f in fields(cls):
        if f.name not in values:
            continue
        value = values[f.name]
        kind, _, optional = f.type.partition(" | ")
        if value is None and optional == "None":
            continue
        if kind == "int":
            ok, want = type(value) is int, "an integer"
        elif kind == "float":
            ok = type(value) is int or (type(value) is float and math.isfinite(value))
            want = "a finite number"
        elif kind == "bool":
            ok, want = type(value) is bool, "true or false"
        elif kind == "str":
            ok, want = type(value) is str, "a string"
        else:
            continue
        if not ok:
            raise ConfigInvalidError(f"{prefix}{f.name} must be {want}, got {value!r}")
