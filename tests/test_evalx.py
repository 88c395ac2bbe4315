import numpy as np
import pytest

from reference import (
    ap_reference,
    binary_metrics_reference,
    fleiss_kappa_reference,
    masked_flatten_reference,
)
from tweetlink import evalx
from tweetlink.errors import (
    DegenerateAgreementError,
    EmptyInputError,
    NonFiniteValueError,
    NoPositivesError,
    ShapeMismatchError,
    UnequalRaterCountsError,
)
from tweetlink.matrices import GroundTruthMatrix

# Classic 10-item, 14-rater, 5-category agreement table (Fleiss, 1971).
FLEISS_TABLE = [
    [0, 0, 0, 0, 14],
    [0, 2, 6, 4, 2],
    [0, 0, 3, 5, 6],
    [0, 3, 9, 2, 0],
    [2, 2, 8, 1, 1],
    [7, 7, 0, 0, 0],
    [3, 2, 6, 3, 0],
    [2, 5, 3, 2, 2],
    [6, 5, 2, 1, 0],
    [0, 2, 2, 3, 7],
]


def _gt(values):
    values = np.atleast_2d(np.asarray(values, dtype=np.int8))
    tweets = tuple(f"t{i}" for i in range(values.shape[0]))
    articles = tuple(f"a{j}" for j in range(values.shape[1]))
    return GroundTruthMatrix(tweets, articles, values)


class TestMaskedPairs:
    def test_basic(self):
        vals, labels = evalx.masked_pairs([[0.9, 0.5, 0.2]], _gt([[1, 0, -1]]))
        assert vals.tolist() == [0.9, 0.2]
        assert labels.tolist() == [1, -1]

    def test_all_masked(self):
        vals, labels = evalx.masked_pairs([[0.1, 0.2]], _gt([[0, 0]]))
        assert vals.size == 0 and labels.size == 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            evalx.masked_pairs(np.zeros((2, 2)), _gt(np.zeros((2, 3), dtype=np.int8)))

    def test_row_major_order(self):
        vals, labels = evalx.masked_pairs([[1.0, 2.0], [3.0, 4.0]], _gt([[1, 0], [-1, 1]]))
        assert vals.tolist() == [1.0, 3.0, 4.0]


class TestAveragePrecision:
    def test_worked_example(self):
        ap = evalx.average_precision([0.9, 0.8, 0.7], [1, -1, 1])
        assert ap == pytest.approx(5 / 6, abs=1e-12)

    def test_all_positive(self):
        assert evalx.average_precision([0.3, 0.2], [1, 1]) == 1.0

    def test_perfect_separation(self):
        assert evalx.average_precision([0.9, 0.8, 0.1], [1, 1, -1]) == 1.0

    def test_no_positives(self):
        with pytest.raises(NoPositivesError):
            evalx.average_precision([0.5], [-1])

    def test_empty(self):
        with pytest.raises(EmptyInputError):
            evalx.average_precision([], [])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        # NaN never equals itself, so a tie-group loop over it never ends.
        with pytest.raises(NonFiniteValueError):
            evalx.average_precision([bad, 0.5], [1, -1])

    def test_ties_grouped_order_independent(self):
        scores = [0.5, 0.5, 0.5, 0.2]
        labels = [1, -1, 1, -1]
        base = evalx.average_precision(scores, labels)
        rng = np.random.default_rng(0)
        for _ in range(10):
            perm = rng.permutation(4)
            permuted = evalx.average_precision(
                [scores[i] for i in perm], [labels[i] for i in perm]
            )
            assert permuted == base

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(2, 20))
            scores = rng.uniform(-1, 1, size=n).round(1)
            labels = rng.choice([1, -1], size=n)
            if not (labels == 1).any():
                labels[0] = 1
            base = evalx.average_precision(scores, labels)
            warped = evalx.average_precision(np.exp(3.0 * scores), labels)
            assert warped == pytest.approx(base, abs=1e-12)

    def test_matches_reference(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            n = int(rng.integers(1, 25))
            scores = rng.uniform(-1, 1, size=n).round(1)
            labels = rng.choice([1, -1], size=n)
            if not (labels == 1).any():
                labels[int(rng.integers(0, n))] = 1
            mine = evalx.average_precision(scores, labels)
            assert mine == pytest.approx(ap_reference(scores, labels), abs=1e-12)


class TestBinaryMetrics:
    def test_perfect_precision_row(self):
        # P = 1.000, R = 8/9 = 0.889 -> F1 = 0.941
        labels = np.array([1] * 9 + [-1] * 3)
        preds = np.array([1] * 8 + [-1] + [-1] * 3)
        report = evalx.binary_metrics(preds, labels)
        assert report.precision == pytest.approx(1.000, abs=5e-4)
        assert report.recall == pytest.approx(0.889, abs=5e-4)
        assert report.f1 == pytest.approx(0.941, abs=5e-4)

    def test_exact_fraction_row(self):
        # P = 11803/18500 = 0.638, R = 11803/15950 = 0.740 -> F1 = 0.685.
        tp, fp, fn, tn = 11803, 6697, 4147, 10
        preds = np.concatenate([
            np.ones(tp), np.ones(fp), -np.ones(fn), -np.ones(tn),
        ]).astype(np.int8)
        labels = np.concatenate([
            np.ones(tp), -np.ones(fp), np.ones(fn), -np.ones(tn),
        ]).astype(np.int8)
        report = evalx.binary_metrics(preds, labels)
        assert report.precision == pytest.approx(0.638, abs=5e-4)
        assert report.recall == pytest.approx(0.740, abs=5e-4)
        assert report.f1 == pytest.approx(0.685, abs=5e-4)

    def test_all_negative_predictions_row(self):
        labels = np.array([1, 1, -1, -1, -1])
        preds = -np.ones(5, dtype=np.int8)
        report = evalx.binary_metrics(preds, labels)
        assert (report.precision, report.recall, report.f1) == (0.0, 0.0, 0.0)
        assert report.accuracy == pytest.approx(0.6)

    def test_accuracy_formula(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            n = int(rng.integers(1, 40))
            preds = rng.choice([1, -1], size=n)
            labels = rng.choice([1, -1], size=n)
            report = evalx.binary_metrics(preds, labels)
            ref = binary_metrics_reference(preds, labels)
            assert report.accuracy == ref["accuracy"]
            assert report.precision == ref["precision"]
            assert report.recall == ref["recall"]
            assert report.f1 == ref["f1"]
            assert report.n_evaluated == n

    def test_bad_values(self):
        with pytest.raises(ValueError):
            evalx.binary_metrics([1, 0], [1, -1])
        with pytest.raises(EmptyInputError):
            evalx.binary_metrics([], [])

    def test_report_serialization(self):
        report = evalx.binary_metrics([1, -1], [1, 1])
        data = report.to_dict()
        assert set(data) == {"ap", "accuracy", "precision", "recall", "f1", "n"}
        assert data["ap"] is None


class TestEvaluateMasked:
    def test_mask_consistency(self):
        sim = np.array([[0.9, 0.4], [0.1, 0.8]])
        cls = np.where(sim >= 0.5, 1, -1)
        gt = _gt([[1, 0], [-1, 1]])
        report = evalx.evaluate_masked(sim, cls, gt)
        assert report.n_evaluated == 3
        assert report.average_precision == 1.0
        assert report.accuracy == 1.0

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        sim = rng.uniform(-1, 1, size=(5, 4))
        gt_vals = rng.choice([1, -1, 0], size=(5, 4))
        gt_vals[0, 0] = 1
        cls = np.where(sim >= 0.2, 1, -1)
        base = evalx.evaluate_masked(sim, cls, _gt(gt_vals))
        perm_r = rng.permutation(5)
        perm_c = rng.permutation(4)
        permuted = evalx.evaluate_masked(
            sim[perm_r][:, perm_c], cls[perm_r][:, perm_c], _gt(gt_vals[perm_r][:, perm_c])
        )
        for field in ("average_precision", "accuracy", "precision", "recall", "f1"):
            assert getattr(base, field) == pytest.approx(getattr(permuted, field), abs=1e-12)


class TestFleissKappa:
    def test_perfect_agreement(self):
        table = [[3, 0], [0, 3], [3, 0]]
        assert evalx.fleiss_kappa(table) == 1.0

    def test_classic_table(self):
        kappa = evalx.fleiss_kappa(FLEISS_TABLE)
        assert kappa == pytest.approx(0.210, abs=1e-3)
        assert kappa == pytest.approx(fleiss_kappa_reference(FLEISS_TABLE), abs=1e-12)

    def test_single_category_degenerate(self):
        with pytest.raises(DegenerateAgreementError):
            evalx.fleiss_kappa([[3, 0], [3, 0]])

    def test_unequal_raters(self):
        with pytest.raises(UnequalRaterCountsError):
            evalx.fleiss_kappa([[2, 1], [1, 1]])
        with pytest.raises(UnequalRaterCountsError):
            evalx.fleiss_kappa([[1, 0], [0, 1]])  # single rater

    def test_masked_metrics_against_reference(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            shape = (int(rng.integers(1, 8)), int(rng.integers(1, 8)))
            sim = rng.uniform(-1, 1, size=shape)
            gt_vals = rng.choice([1, -1, 0], size=shape)
            gt_vals.flat[int(rng.integers(0, gt_vals.size))] = 1
            ref_vals, ref_labels = masked_flatten_reference(sim, gt_vals)
            vals, labels = evalx.masked_pairs(sim, _gt(gt_vals))
            assert vals.tolist() == ref_vals
            assert labels.tolist() == ref_labels
