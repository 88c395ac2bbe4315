import numpy as np
import pytest

from tweetlink.errors import MalformedLineError, NonFiniteValueError
from tweetlink.matrices import SimilarityMatrix, read_similarity_csv, write_matrix_csv


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

    def test_empty_file(self, tmp_path):
        path = tmp_path / "sim.csv"
        path.write_text("")
        with pytest.raises(MalformedLineError, match=":1:"):
            read_similarity_csv(path)
