"""Axis-labeled tweets-by-articles matrices, and sparse feature rows.

Three matrix flavors share one layout: rows are tweets, columns are
articles, both in a caller-fixed order. Values distinguish them:
similarities in [-1, 1], binary decisions in {+1, -1}, and ground-truth
labels in {1, -1, 0} where 0 means unknown (masked out of evaluation).

CsrRows holds document feature rows (one per document, one column per
term) in compressed sparse row form.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import MalformedLineError, NonFiniteValueError, ShapeMismatchError, open_utf8

RANGE_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class CsrRows:
    """Sparse rows: row i holds data[indptr[i]:indptr[i + 1]] in columns indices[...]."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.indptr) - 1, self.n_cols

    def row_of_entries(self) -> np.ndarray:
        """The row of each stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.row_of_entries(), self.indices] = self.data
        return out


def _frozen(values: np.ndarray, dtype) -> np.ndarray:
    out = np.asarray(values, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class SimilarityMatrix:
    tweet_ids: tuple[str, ...]
    article_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = _frozen(self.values, np.float64)
        _check_shape(vals, self.tweet_ids, self.article_ids)
        _check_similarities(vals)
        object.__setattr__(self, "values", vals)

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape


@dataclass(frozen=True, eq=False)
class ClassificationMatrix:
    tweet_ids: tuple[str, ...]
    article_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = _frozen(self.values, np.int8)
        _check_shape(vals, self.tweet_ids, self.article_ids)
        if not np.isin(vals, (-1, 1)).all():
            raise ValueError("classification values must be +1 or -1")
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True, eq=False)
class GroundTruthMatrix:
    tweet_ids: tuple[str, ...]
    article_ids: tuple[str, ...]
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = _frozen(self.values, np.int8)
        _check_shape(vals, self.tweet_ids, self.article_ids)
        if not np.isin(vals, (-1, 0, 1)).all():
            raise ValueError("ground-truth values must be 1, -1 or 0")
        object.__setattr__(self, "values", vals)


def _check_similarities(values: np.ndarray) -> None:
    # NaN fails no range comparison, so finiteness is checked on its own.
    if not np.isfinite(values).all():
        raise NonFiniteValueError("similarity values must be finite")
    if values.size and (values.min() < -1 - RANGE_TOL or values.max() > 1 + RANGE_TOL):
        raise ValueError("similarity values must lie within [-1, 1]")


def _check_shape(values: np.ndarray, tweet_ids, article_ids) -> None:
    if values.ndim != 2 or values.shape != (len(tweet_ids), len(article_ids)):
        raise ShapeMismatchError(
            f"matrix shape {values.shape} does not match "
            f"{len(tweet_ids)} tweets x {len(article_ids)} articles"
        )


# Decimals of the float cells write_matrix_csv writes: a cell read back is
# within half a unit of the last decimal of the value written.
CSV_DECIMALS = 6
_FLOAT_CELL = f"%.{CSV_DECIMALS}f"

# write_matrix_csv builds the float cells of about this many values at a time.
_BLOCK_CELLS = 8192

# An 8-byte cell "u.mmmnnn" for |rint(v * 1e6)| = 1000 h + n, read as a
# little-endian uint64: _HEAD[h] holds "u.mmm" (h = 1000 u + mmm, up to
# 1.000), _TAIL[n] the last three digits. _DIGITS3[n] is "%03d" % (n % 1000)
# in the low three bytes.
_N = np.arange(1001, dtype=np.uint64)
_TEN, _ZERO = np.uint64(10), np.uint64(ord("0"))
_DIGITS3 = (
    (_N // np.uint64(100) % _TEN + _ZERO)
    | (_N // _TEN % _TEN + _ZERO) << np.uint64(8)
    | (_N % _TEN + _ZERO) << np.uint64(16)
)
_HEAD = (_N // np.uint64(1000) + np.uint64(ord("0") | ord(".") << 8)) | _DIGITS3 << np.uint64(16)
_TAIL = _DIGITS3[:1000] << np.uint64(40)
del _N, _TEN, _ZERO, _DIGITS3

# One float cell as written, ",[-]u.mmmnnn": a NUL sign byte is dropped.
_CELL = np.dtype([("comma", "u1"), ("sign", "u1"), ("digits", "<u8")])

# v * 1e6 for |v| <= 1 + RANGE_TOL is within 2**-33 of its exact value, so it
# rounds to the same integer as the exact value unless it lies this close to
# a half unit; such a cell is formatted by _FLOAT_CELL itself.
_HALF_TOL = 1e-9


def _float_lines(block: np.ndarray) -> list[str]:
    """Each row of the float64 `block` as ",<cell>" per value, every cell
    exactly `_FLOAT_CELL % value`.

    Cells of 1 + RANGE_TOL or less in magnitude get their digits from the
    integer rint(v * 1e6), as in Ryu (Adams, PLDI 2018): digits from integers,
    not a float format per value. The others, and cells near a half unit, are
    formatted one by one.
    """
    in_range = np.abs(block) <= 1 + RANGE_TOL  # NaN is not
    scaled = np.where(in_range, block, 0.0) * 1e6
    q = np.rint(scaled)
    redo = ~in_range | (np.abs(scaled - q) >= 0.5 - _HALF_TOL)
    # |q| <= 1e6 is an integer, so both parts are exact.
    magnitude = np.abs(q)
    head = np.floor(magnitude / 1000.0)
    tail = magnitude - head * 1000.0
    rows = np.empty(len(block), [("cells", _CELL, block.shape[1:]), ("end", "u1")])
    cells = rows["cells"]
    cells["comma"] = ord(",")
    cells["sign"] = np.signbit(block) * np.uint8(ord("-"))
    cells["digits"] = _HEAD[head.astype(np.intp)] | _TAIL[tail.astype(np.intp)]
    rows["end"] = ord("\n")
    lines = rows.tobytes().translate(None, b"\0").decode("ascii").split("\n")
    for i in np.flatnonzero(redo.any(axis=1)):
        parts = lines[i].split(",")
        for j in np.flatnonzero(redo[i]):
            parts[j + 1] = _FLOAT_CELL % block[i, j]
        lines[i] = ",".join(parts)
    return lines[:-1]


def write_matrix_csv(matrix, path) -> None:
    """Export with article ids as the header row and tweet ids as the first column.

    Floats are fixed at CSV_DECIMALS decimals so identical runs emit identical
    bytes; _float_lines builds them for about _BLOCK_CELLS values at a time.
    """
    n_cols = len(matrix.article_ids)
    is_float = matrix.values.dtype.kind == "f"
    values = matrix.values.astype(np.float64, copy=False) if is_float else matrix.values
    cells = ",%d" * n_cols
    step = max(1, _BLOCK_CELLS // max(n_cols, 1))
    # csv.writer's dialect: comma-separated, "\r\n"-terminated lines.
    quoted = io.StringIO()
    quote = csv.writer(quoted)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tweet_id", *matrix.article_ids])
        if not n_cols:
            for tid in matrix.tweet_ids:
                writer.writerow([tid])  # csv quotes a lone empty field
            return
        for start in range(0, len(values), step):
            block = values[start : start + step]
            if is_float:
                lines = _float_lines(block)
            else:  # Python ints: formatting numpy scalars one by one is slower.
                lines = [cells % tuple(row) for row in block.tolist()]
            text = []
            for tid, line in zip(matrix.tweet_ids[start : start + step], lines):
                # The id as csv writes it in a row of several fields: "<id>,\r\n".
                quoted.seek(0)
                quoted.truncate()
                quote.writerow([tid, ""])
                text.append(quoted.getvalue()[:-3] + line + "\r\n")
            fh.write("".join(text))


def read_similarity_csv(path) -> SimilarityMatrix:
    """Read a write_matrix_csv export; a bad row, or an id repeated in the
    header or the first column, raises MalformedLineError naming its line."""
    with open_utf8(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedLineError(str(path), 1, "missing header row")
        article_ids = tuple(header[1:])
        repeated = [article_id for article_id, n in Counter(article_ids).items() if n > 1]
        if repeated:
            raise MalformedLineError(str(path), 1, f"repeated article id {repeated[0]!r}")
        rows = {}  # tweet id -> its values, in file order
        for row in reader:
            try:
                vals = np.array([float(v) for v in row[1:]], dtype=np.float64)
                if vals.shape != (len(article_ids),):
                    raise ValueError(f"expected {len(article_ids)} values, got {vals.size}")
                if not row:  # a blank line under a header without article columns
                    raise ValueError("row has no tweet id")
                _check_similarities(vals)
                if row[0] in rows:
                    raise ValueError(f"repeated tweet id {row[0]!r}")
            except (ValueError, NonFiniteValueError) as exc:
                raise MalformedLineError(str(path), reader.line_num, str(exc)) from None
            rows[row[0]] = vals
    return SimilarityMatrix(
        tuple(rows), article_ids, np.array(list(rows.values()), dtype=np.float64)
    )
