"""Exception hierarchy shared by all tweetlink modules, and the text-file
opener that turns a byte that is not UTF-8 into one of them."""

from __future__ import annotations

from contextlib import contextmanager


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
