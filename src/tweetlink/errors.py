"""Exception hierarchy shared by all tweetlink modules, and the input readers
that turn bad input into one of them: the text-file opener for a byte that
is not UTF-8, the one JSON document reader, the one model-file writer and
reader (write_model, read_model, read_array) and the field-type check every
config value and model-file scalar passes: its type, then its range or choices."""

from __future__ import annotations

import binascii
import json
import math
import re
from contextlib import contextmanager
from dataclasses import fields

import numpy as np


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


class MissingFieldError(MalformedLineError):
    def __init__(self, path: str, line_no: int, field: str):
        super().__init__(path, line_no, f"missing required field {field!r}")
        self.field = field


class DuplicateIdError(MalformedLineError):
    def __init__(self, path: str, line_no: int, doc_id: str):
        super().__init__(path, line_no, f"duplicate id {doc_id!r}")
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


class ConfigInvalidError(TweetLinkError, ValueError):
    """Bad run configuration or unusable input files (maps to CLI exit code 2)."""


class EmptyGridError(TweetLinkError):
    pass


# --- JSON documents -----------------------------------------------------


def read_json(path, what: str, kind: type | tuple[type, ...]):
    """The JSON document in `path`, whose top-level value must be a `kind`
    (dict, list or a tuple of them). A file that cannot be opened, is not
    UTF-8, is not valid JSON, nests deeper than the recursion limit or holds
    another kind of value raises ConfigInvalidError naming `what` and `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigInvalidError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, or nested too deep
        raise ConfigInvalidError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, kind):
        names = {dict: "object", list: "list"}
        want = " or ".join(names[k] for k in (kind if isinstance(kind, tuple) else (kind,)))
        raise ConfigInvalidError(f"{what} {path} must hold a JSON {want}")
    return doc


_DTYPE = "<f8"


def write_model(path, payload: dict) -> None:
    """Write `payload` to `path` as one key-sorted ASCII JSON line, each numpy
    array in it, at any depth, as {"dtype": "<f8", "shape": [...], "data":
    base64 of its C-order little-endian float64 bytes}. One string per array
    instead of a float repr per value makes the save a few milliseconds and
    halves the file; the arrays load back bit for bit (read_array). A NaN or
    infinite scalar, which JSON cannot hold, raises NonFiniteValueError
    naming `path` before the file is opened; array values are not checked."""
    arrays = []

    def array_object(obj):
        if not isinstance(obj, np.ndarray):
            raise TypeError(f"{type(obj).__name__} is not JSON serializable")
        arrays.append(obj)
        return {"dtype": _DTYPE, "shape": list(obj.shape), "data": len(arrays) - 1}

    # json.dumps takes the C encoder, `default` included; json.dump always runs the
    # pure-Python one. Each array's base64, which needs no escaping, is written in
    # quotes where its index stands, one array at a time, so neither a whole-file
    # copy nor every array's text is held at once.
    try:
        text = json.dumps(payload, sort_keys=True, default=array_object, allow_nan=False)
    except ValueError as exc:  # allow_nan=False met a NaN or infinite scalar
        raise NonFiniteValueError(f"cannot write {path}: {exc}") from None
    text += "\n"
    parts = re.split(r'(?<=\{"data": )(\d+)(?=, "dtype": ")', text)
    with open(path, "wb") as fh:
        for i, part in enumerate(parts):
            if i % 2:
                raw = np.ascontiguousarray(arrays[int(part)], dtype=_DTYPE).tobytes()
                fh.writelines((b'"', binascii.b2a_base64(raw, newline=False), b'"'))
            else:
                fh.write(part.encode("ascii"))  # json.dumps escapes every non-ASCII character


@contextmanager
def read_model(path, fmt: str, version: int, cls):
    """Yield the JSON object of a model file whose `format` is `fmt` and whose
    `version` is the integer `version` (read_json) and whose values fit the
    fields of dataclass `cls` (check_types). A missing key, or a value of the
    wrong kind or shape, met while building the model in the `with` block
    raises ConfigInvalidError naming `path`."""
    payload = read_json(path, f"{fmt} model file", dict)
    found_fmt, found_version = payload.get("format"), payload.get("version")
    if found_fmt != fmt or type(found_version) is not int or found_version != version:
        raise ConfigInvalidError(
            f"{path}: expected a version-{version} {fmt!r} model file, "
            f"got format {found_fmt!r} version {found_version!r}"
        )
    check_types(cls, payload, f"{path}: ")
    try:
        yield payload
    except KeyError as exc:
        raise ConfigInvalidError(f"{path}: {fmt} model file lacks key {exc}") from None
    except (TypeError, ValueError, OverflowError, DimMismatchError) as exc:
        raise ConfigInvalidError(f"{path}: malformed {fmt} model file: {exc}") from None


def read_array(obj) -> np.ndarray:
    """The float64 array of a write_model array object; any other value raises
    ValueError, TypeError or KeyError, for read_model to report. Callers check
    the shape they need."""
    if not isinstance(obj, dict):
        raise ValueError(f"{type(obj).__name__} is not an array object")
    if obj["dtype"] != _DTYPE:
        raise ValueError(f"dtype {obj['dtype']!r} is not {_DTYPE!r}")
    shape = obj["shape"]
    if not (isinstance(shape, list) and all(type(n) is int and n >= 0 for n in shape)):
        raise ValueError(f"shape {shape!r} is not a list of sizes")
    raw = binascii.a2b_base64(obj["data"])  # TypeError unless an ASCII string
    # a2b_base64 skips characters outside the alphabet; only the exact
    # encoding of the decoded bytes is accepted.
    if binascii.b2a_base64(raw, newline=False).decode("ascii") != obj["data"]:
        raise ValueError("data is not canonical base64")
    # Bytes that do not fill the shape raise ValueError in frombuffer or reshape.
    return np.frombuffer(raw, dtype=_DTYPE).astype(np.float64).reshape(shape)


# The largest value of an int field other than a seed: the width of the
# package's int32 codes and keys. numpy cannot size an array or a draw by a
# much larger one (lda.n_topics 10**400, train.joint_dim 10**30).
INT_FIELD_MAX = 2**31 - 1


def check_types(cls, values: dict, prefix: str = "") -> None:
    """Reject a value in `values` that does not fit the field of dataclass
    `cls` it names, naming its key after `prefix` (ConfigInvalidError).

    The field's annotation gives the JSON type: an int field takes an integer
    (not a bool) of at most INT_FIELD_MAX, or of any size if the field is a
    `seed`; a float field a number that is finite as a float (not an integer
    too large for one), a bool field true or false and a str field a string;
    a field typed `... | None` also takes null. A field whose default_factory
    is a class (a config section) takes an instance of it. The field's "rule"
    metadata, if any, then bounds the value: ">= N", "> N", "[lo, hi)", or a
    tuple of the values it may take. Keys that are not fields, and fields of
    other types, are left to the caller.
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
            if ok and f.name != "seed" and value > INT_FIELD_MAX:
                ok, want = False, f"at most {INT_FIELD_MAX}"
        elif kind == "float":
            try:
                ok = type(value) in (int, float) and math.isfinite(value)
            except OverflowError:  # an integer too large for a float
                ok = False
            want = "a finite number"
        elif kind == "bool":
            ok, want = type(value) is bool, "true or false"
        elif kind == "str":
            ok, want = type(value) is str, "a string"
        elif isinstance(f.default_factory, type):
            ok, want = isinstance(value, f.default_factory), "an object"
        else:
            continue
        rule = f.metadata.get("rule")
        if ok and rule is not None:
            ok, want = _meets(value, rule)
        if not ok:
            # An integer past 4,300 digits has no repr; name its size instead.
            big = type(value) is int and value.bit_length() > 64
            shown = f"an integer of {value.bit_length()} bits" if big else repr(value)
            raise ConfigInvalidError(f"{prefix}{f.name} must be {want}, got {shown}")


def _meets(value, rule) -> tuple[bool, str]:
    """Whether `value` meets a check_types rule, and the rule in words."""
    if isinstance(rule, tuple):
        return value in rule, "one of " + ", ".join(map(repr, rule))
    if rule.startswith("["):
        lo, hi = map(float, rule[1:-1].split(","))
        return lo <= value < hi, f"in {rule}"
    op, bound = rule.split()
    return (value >= float(bound) if op == ">=" else value > float(bound)), rule
