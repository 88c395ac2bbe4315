import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tweetlink.errors import MalformedLineError, NonFiniteValueError
from tweetlink.matrices import (
    RANGE_TOL,
    ClassificationMatrix,
    SimilarityMatrix,
    read_similarity_csv,
    write_matrix_csv,
)


def _write_per_numpy_scalar(matrix, path):
    """The exporter formatting numpy scalars one by one, as a byte oracle."""
    is_float = matrix.values.dtype.kind == "f"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["tweet_id", *matrix.article_ids])
        for tid, row in zip(matrix.tweet_ids, matrix.values):
            if is_float:
                writer.writerow([tid, *(f"{v:.6f}" for v in row)])
            else:
                writer.writerow([tid, *(int(v) for v in row)])


class TestSimilarityMatrix:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(NonFiniteValueError):
            SimilarityMatrix(("t",), ("a", "b"), [[0.5, bad]])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            SimilarityMatrix(("t",), ("a",), [[1.5]])


class TestReadSimilarityCsv:
    def test_round_trip(self, tmp_path):
        sim = SimilarityMatrix(("t1", "t2"), ("a1", "a2"), [[0.25, -0.5], [1.0, 0.0]])
        write_matrix_csv(sim, tmp_path / "sim.csv")
        back = read_similarity_csv(tmp_path / "sim.csv")
        assert (back.tweet_ids, back.article_ids) == (sim.tweet_ids, sim.article_ids)
        np.testing.assert_array_equal(back.values, sim.values)

    @pytest.mark.parametrize("cell", ["abc", "1.5", "nan", "inf", "0.1,0.2"])
    def test_bad_cell_names_its_line(self, tmp_path, cell):
        path = tmp_path / "sim.csv"
        path.write_text(f"tweet_id,a1\nt1,0.5\nt2,{cell}\n")
        with pytest.raises(MalformedLineError, match=":3:"):
            read_similarity_csv(path)

    @pytest.mark.parametrize(
        "text, line_no, reason",
        [
            ("tweet_id,a1,a2\nt1,0.5,0.1\nt2,0.2,0.3\nt1,0.9,0.9\n", 4, "repeated tweet id 't1'"),
            ("tweet_id,a1,a2,a1\nt1,0.5,0.1,0.2\n", 1, "repeated article id 'a1'"),
        ],
    )
    def test_repeated_id_names_its_line(self, tmp_path, text, line_no, reason):
        path = tmp_path / "sim.csv"
        path.write_text(text)
        with pytest.raises(MalformedLineError, match=f":{line_no}: {reason}") as info:
            read_similarity_csv(path)
        assert info.value.line_no == line_no

    def test_blank_row_without_article_columns_names_its_line(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_bytes(b"tweet_id\r\n\r\n")
        with pytest.raises(MalformedLineError, match=":2: row has no tweet id") as info:
            read_similarity_csv(path)
        assert info.value.line_no == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("")
        with pytest.raises(MalformedLineError, match=":1:"):
            read_similarity_csv(path)


class TestWriteMatrixCsv:
    @pytest.mark.parametrize(
        "matrix",
        [
            SimilarityMatrix(
                ("t1", "t,2", 't"3'),
                ("a1", "a 2"),
                [[-0.0, 1.0], [-1.0, 5e-7], [-5e-7, 0.1234565]],
            ),
            SimilarityMatrix(("t1", ""), (), np.zeros((2, 0))),
            ClassificationMatrix(("t1", "t2"), ("a1", "a2"), [[1, -1], [-1, 1]]),
            # Ids that csv quotes: comma, quote, line breaks; empty ids.
            SimilarityMatrix(
                ("t,1", 't"2', "t\n3", "t\r4", "", '"'),
                ("a,1", 'a"2', "a\n3", ""),
                [[-0.0, 5e-7, -5e-7, 0.0]] * 6,
            ),
            SimilarityMatrix(("t1", "t,2", ""), ("only",), [[-0.0], [5e-7], [-5e-7]]),
            ClassificationMatrix(("t,1", ""), ("a\n1",), [[1], [-1]]),
        ],
    )
    def test_bytes_match_per_scalar_formatting(self, tmp_path, matrix):
        write_matrix_csv(matrix, tmp_path / "fast.csv")
        _write_per_numpy_scalar(matrix, tmp_path / "slow.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()

    def test_random_values_match(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.uniform(-1, 1, size=(7, 5)).round(int(rng.integers(5, 9)))
        sim = SimilarityMatrix(tuple(f"t{i}" for i in range(7)), tuple("abcde"), values)
        write_matrix_csv(sim, tmp_path / "fast.csv")
        _write_per_numpy_scalar(sim, tmp_path / "slow.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "slow.csv").read_bytes()


# Half units of the sixth decimal, (k + 0.5) / 1e6, and their float neighbours:
# the cells where rounding v * 1e6 could disagree with "%.6f".
_half_units = st.integers(-1_000_000, 999_999).map(lambda k: (k + 0.5) / 1e6)
_cell_values = st.one_of(
    _half_units,
    st.tuples(_half_units, st.sampled_from([-2.0, 2.0])).map(lambda p: float(np.nextafter(*p))),
    st.integers(-128, 128).map(lambda j: j / 128),  # exact binary ties such as 1/128
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 1 + RANGE_TOL, -1 - RANGE_TOL]),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.floats(-1.0, 1.0),
)


@st.composite
def _similarity_matrices(draw):
    """A matrix tiled from drawn cell values, with ids that csv quotes. Widths
    of 4,097 and 8,193 cells put one row in each block of about 8K cells; 70
    rows of 120 span two blocks of several rows."""
    n_rows, n_cols = draw(st.one_of(
        st.tuples(st.integers(0, 4), st.sampled_from([0, 1, 2, 7, 4097, 8193])),
        st.just((70, 120)),
    ))
    pool = draw(st.lists(_cell_values, min_size=1, max_size=40))
    values = np.resize(pool, n_rows * n_cols).reshape(n_rows, n_cols)
    prefix = draw(st.text(alphabet=',"\r\n a', max_size=3))
    tweet_ids = tuple(f"{prefix}{i}" if i else prefix for i in range(n_rows))
    article_ids = tuple(f"{prefix}{i}" for i in range(n_cols))
    return SimilarityMatrix(tweet_ids, article_ids, values)


@settings(max_examples=150, deadline=None)
@given(_similarity_matrices())
def test_written_bytes_match_per_scalar_formatting(matrix):
    with tempfile.TemporaryDirectory() as tmp:
        fast, slow = Path(tmp, "fast.csv"), Path(tmp, "slow.csv")
        write_matrix_csv(matrix, fast)
        _write_per_numpy_scalar(matrix, slow)
        assert fast.read_bytes() == slow.read_bytes()
