import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from dbsadam.data import LabeledDataset
from dbsadam.evaluation import (
    MetricsReport,
    aggregate_runs,
    cohens_d,
    confusion_matrix,
    metrics_from_confusion,
    paired_t_test,
    split_indices,
    student_t_two_sided_p,
)
from dbsadam.numerics import SeededRng


class TestConfusionMatrix:
    def test_perfect_predictions_are_diagonal(self):
        cm = confusion_matrix([0, 1, 2, 1], [0, 1, 2, 1], 3)
        assert np.array_equal(cm, np.diag([1, 2, 1]))

    def test_collapsed_predictions_fill_one_column(self):
        cm = confusion_matrix([0, 1, 2], [0, 0, 0], 3)
        assert cm[:, 0].tolist() == [1, 1, 1]
        assert cm[:, 1:].sum() == 0

    def test_hand_count(self):
        cm = confusion_matrix([0, 0, 1, 1], [0, 1, 1, 1], 2)
        assert cm.tolist() == [[1, 1], [0, 2]]

    def test_range_violation(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 3], [0, 1], 2)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [0], 2)


def naive_metrics(true, pred, n_classes):
    # per-sample loop oracle
    precision, recall, f1 = [], [], []
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(true, pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(true, pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(true, pred) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        precision.append(prec)
        recall.append(rec)
        f1.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    acc = sum(1 for t, p in zip(true, pred) if t == p) / len(true)
    return acc, precision, recall, f1


class TestMetrics:
    def test_worked_example(self):
        cm = np.array([[1, 1], [0, 2]])
        report = metrics_from_confusion(cm)
        assert report.precision[1] == pytest.approx(2 / 3)
        assert report.recall[1] == 1.0
        assert report.f1[1] == pytest.approx(0.8)
        assert report.accuracy == 0.75

    def test_diagonal_is_perfect(self):
        report = metrics_from_confusion(np.diag([3, 4, 5]))
        assert report.accuracy == 1.0
        assert report.precision == [1.0, 1.0, 1.0]
        assert report.recall == [1.0, 1.0, 1.0]
        assert report.weighted_f1 == 1.0

    def test_absent_class_scores_zero_by_convention(self):
        cm = np.array([[2, 0, 0], [0, 3, 0], [0, 0, 0]])
        report = metrics_from_confusion(cm)
        assert report.precision[2] == 0.0
        assert report.recall[2] == 0.0
        assert report.f1[2] == 0.0

    def test_accuracy_is_trace_over_total(self):
        rng = SeededRng(20)
        for _ in range(20):
            true = rng.integers(0, 4, size=30)
            pred = rng.integers(0, 4, size=30)
            cm = confusion_matrix(true, pred, 4)
            report = metrics_from_confusion(cm)
            assert report.accuracy == np.trace(cm) / cm.sum()

    def test_weighted_f1_between_class_extremes(self):
        rng = SeededRng(21)
        for _ in range(20):
            true = rng.integers(0, 3, size=40)
            pred = rng.integers(0, 3, size=40)
            report = metrics_from_confusion(confusion_matrix(true, pred, 3))
            assert min(report.f1) - 1e-12 <= report.weighted_f1 <= max(report.f1) + 1e-12

    def test_matches_per_sample_loop_oracle(self):
        rng = SeededRng(22)
        for _ in range(100):
            true = rng.integers(0, 3, size=25).tolist()
            pred = rng.integers(0, 3, size=25).tolist()
            report = metrics_from_confusion(confusion_matrix(true, pred, 3))
            acc, precision, recall, f1 = naive_metrics(true, pred, 3)
            assert report.accuracy == pytest.approx(acc)
            assert report.precision == pytest.approx(precision)
            assert report.recall == pytest.approx(recall)
            assert report.f1 == pytest.approx(f1)

    def test_mean_loss_recorded(self):
        report = metrics_from_confusion(np.diag([2, 2]), per_sample_losses=[0.1, 0.2, 0.3, 0.4])
        assert report.mean_loss == pytest.approx(0.25)


class TestStratifiedSplit:
    def make(self, counts):
        labels = np.repeat(np.arange(len(counts)), counts)
        return LabeledDataset(np.arange(labels.size, dtype=float)[:, None], labels,
                              [str(i) for i in range(len(counts))])

    def split(self, data, fraction, rng):
        train_idx, test_idx = split_indices(data.labels, fraction, rng)
        return data.subset(train_idx), data.subset(test_idx)

    def test_proportional_counts(self):
        data = self.make([80, 10, 10])
        _, test = self.split(data, 0.2, SeededRng(1))
        counts = np.bincount(test.labels, minlength=3)
        assert counts.tolist() == [16, 2, 2]

    def test_zero_fraction_gives_empty_test(self):
        data = self.make([5, 5])
        train, test = self.split(data, 0.0, SeededRng(1))
        assert test.n_samples == 0 and train.n_samples == 10

    def test_union_is_permutation_of_input(self):
        data = self.make([12, 7, 9])
        train, test = self.split(data, 0.25, SeededRng(2))
        got = sorted(np.concatenate([train.features[:, 0], test.features[:, 0]]).tolist())
        assert got == sorted(data.features[:, 0].tolist())

    def test_proportions_within_one_sample(self):
        rng = SeededRng(3)
        for trial in range(20):
            counts = [int(rng.integers(4, 50)) for _ in range(3)]
            data = self.make(counts)
            train, test = self.split(data, 0.2, SeededRng(trial))
            for c in range(3):
                expected_test = counts[c] * 0.2
                got = int(np.sum(test.labels == c))
                assert abs(got - expected_test) <= 1.0

    def test_rounding_remainder_goes_to_train(self):
        data = self.make([5, 5])
        # 5 * 0.5 = 2.5 rounds half-down: 2 test, 3 train per class
        train, test = self.split(data, 0.5, SeededRng(4))
        assert np.bincount(test.labels).tolist() == [2, 2]
        assert np.bincount(train.labels).tolist() == [3, 3]

    def test_pure_function_of_seed(self):
        data = self.make([20, 20])
        a_train, a_test = self.split(data, 0.2, SeededRng(7))
        b_train, b_test = self.split(data, 0.2, SeededRng(7))
        assert np.array_equal(a_train.features, b_train.features)
        assert np.array_equal(a_test.features, b_test.features)

    def test_tiny_class_rejected(self):
        data = self.make([10, 1])
        with pytest.raises(ValueError):
            self.split(data, 0.2, SeededRng(1))


class TestStudentTTail:
    @pytest.mark.parametrize("df", list(range(1, 61)) + [99, 999])
    def test_matches_scipy_survival_function(self, df):
        grid = [k / 10 for k in range(81)] + [10.0, 30.0, 1e3, 1e6, math.inf]
        for t in grid:
            ref = 2.0 * float(stats.t.sf(t, df))
            assert student_t_two_sided_p(t, df) == pytest.approx(ref, abs=1e-12)
            assert student_t_two_sided_p(-t, df) == student_t_two_sided_p(t, df)

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 5, 30])
    def test_zero_and_infinite_t(self, df):
        assert student_t_two_sided_p(0.0, df) == 1.0
        assert student_t_two_sided_p(math.inf, df) == 0.0
        assert student_t_two_sided_p(-math.inf, df) == 0.0

    def test_nan_t_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            student_t_two_sided_p(math.nan, 4)

    @pytest.mark.parametrize("df", [0, -3, 2.5, 4.0])
    def test_df_must_be_a_positive_integer(self, df):
        with pytest.raises(ValueError, match="degrees of freedom"):
            student_t_two_sided_p(1.0, df)


class TestPairedTTest:
    def test_identical_inputs(self):
        result = paired_t_test([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert result.t_statistic == 0.0
        assert result.p_value == 1.0
        assert result.cohens_d == 0.0
        assert not result.significant

    def test_one_to_five_differences(self):
        result = paired_t_test([1.0, 2.0, 3.0, 4.0, 5.0], [0.0] * 5)
        assert result.t_statistic == pytest.approx(4.2426406871, abs=1e-6)
        assert result.p_value == pytest.approx(0.0132355996, abs=1e-6)
        assert result.mean_difference == pytest.approx(3.0)
        assert result.significant

    def test_sign_flip_negates_t_preserves_p(self):
        a = [0.9, 0.8, 0.95, 0.7]
        b = [0.5, 0.6, 0.4, 0.65]
        fwd = paired_t_test(a, b)
        rev = paired_t_test(b, a)
        assert fwd.t_statistic == pytest.approx(-rev.t_statistic)
        assert fwd.p_value == pytest.approx(rev.p_value)

    def test_matches_reference_implementation(self):
        rng = SeededRng(30)
        for _ in range(25):
            n = int(rng.integers(3, 12))
            a = rng.normal(size=n)
            b = rng.normal(size=n) * 0.5
            ours = paired_t_test(a, b)
            t_ref, p_ref = stats.ttest_rel(a, b)
            assert ours.t_statistic == pytest.approx(float(t_ref), rel=1e-9)
            assert ours.p_value == pytest.approx(float(p_ref), abs=1e-8)

    # scipy warns that its own variance lost precision when the differences
    # are (nearly) identical; that notice is about the reference, not the
    # code under test, whose RuntimeWarnings still fail the test
    @pytest.mark.filterwarnings("ignore:Precision loss occurred in moment calculation:RuntimeWarning")
    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
                          min_size=2, max_size=30))
    @example(pairs=[(0.5, 0.0), (0.0, 0.5), (1e-310, 0.0)])
    def test_matches_reference_on_any_pairs(self, pairs):
        a, b = (np.array(side) for side in zip(*pairs))
        d = a - b
        # all-equal differences are the degenerate case, tested below
        assume(not np.all(d == d[0]))
        ours = paired_t_test(a, b)
        # t is unchanged by scaling d, so the reference gets d scaled exactly
        # by a power of two into [0.5, 1): otherwise its variance of tiny
        # distinct differences is subnormal and its t +-inf, NaN or rounded.
        # Its precision check divides by |mean|, which overflows for a
        # subnormal mean such as the example's; that is scipy's heuristic,
        # not t, and our own call above still fails on any RuntimeWarning
        k = np.frexp(np.abs(d).max())[1]
        with np.errstate(over="ignore"):
            t_ref, p_ref = stats.ttest_1samp(np.ldexp(d, -k), 0.0)
        assert ours.t_statistic == pytest.approx(float(t_ref), rel=1e-9)
        assert ours.p_value == pytest.approx(float(p_ref), abs=1e-8)

    def test_critical_value_table(self):
        # two-sided p at the alpha = 0.05 critical t values
        assert round(student_t_two_sided_p(2.776, 4), 4) == pytest.approx(0.0500, abs=1e-4)
        assert round(student_t_two_sided_p(2.262, 9), 4) == pytest.approx(0.0500, abs=1e-4)

    def test_degenerate_zero_variance_nonzero_mean(self):
        result = paired_t_test([1.0, 2.0, 3.0], [0.0, 1.0, 2.0])
        assert result.degenerate
        assert result.p_value == 0.0
        assert math.isinf(result.t_statistic)
        assert result.significant

    def test_equal_differences_with_inexact_mean_are_degenerate(self):
        # the three differences are equal, but their mean does not round
        # back to 683.43369827113, so their computed std is 1.4e-13, not 0
        result = paired_t_test([683.43369827113] * 3, [0.0] * 3)
        assert result.degenerate
        assert result.t_statistic == math.inf
        assert result.cohens_d == math.inf

    def test_subnormal_differences_keep_their_variance(self):
        # the squared deviations underflow to 0 unless the differences are
        # rescaled; t of (0, -x) is -1 at any scale
        result = paired_t_test([0.0, 0.0], [0.0, 1e-220])
        assert not result.degenerate
        assert result.t_statistic == pytest.approx(-1.0, rel=1e-12)
        assert result.cohens_d == pytest.approx(-math.sqrt(0.5), rel=1e-12)

    @pytest.mark.parametrize("a", [[1.7e308] * 3, [1.7e308, 1.6e308, 1.5e308]])
    def test_finite_differences_whose_sum_overflows(self, a):
        # the mean is taken from the power-of-two-scaled differences, whose
        # sum cannot overflow, and scaled back exactly
        result = paired_t_test(a, [0.0] * 3)
        assert result.mean_difference == pytest.approx(math.fsum(x / 3 for x in a), rel=1e-15)
        if len(set(a)) == 1:
            assert result.degenerate and result.t_statistic == math.inf
        else:
            assert result.t_statistic == pytest.approx(16 * math.sqrt(3), rel=1e-12)

    def test_too_few_pairs(self):
        with pytest.raises(ValueError):
            paired_t_test([1.0], [2.0])

    def test_nan_pair_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            paired_t_test([math.nan, 1.0, 2.0], [0.0, 0.0, 0.0])

    @pytest.mark.parametrize("a, b", [
        ([math.inf] * 3, [0.0] * 3),                  # all-equal infinite differences
        ([math.inf, 1.0, 2.0], [0.0] * 3),
        ([0.0, 1.0, 2.0], [-math.inf, 0.0, 0.0]),
        ([1e308, 0.0, 1.0], [-1e308, 0.0, 0.0]),      # finite values, overflowing difference
    ])
    def test_infinite_pair_rejected(self, a, b):
        with pytest.raises(ValueError, match="NaN or infinite"):
            paired_t_test(a, b)


class TestCohensD:
    def test_identical(self):
        assert cohens_d([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_one_to_five(self):
        assert cohens_d([1, 2, 3, 4, 5], [0, 0, 0, 0, 0]) == pytest.approx(1.8973665961, abs=1e-9)

    def test_scale_invariance(self):
        a = np.array([0.9, 0.7, 0.85, 0.6])
        b = np.array([0.5, 0.55, 0.4, 0.45])
        for scale in (2.0, 17.0, 1e6):
            assert cohens_d(a * scale, b * scale) == pytest.approx(cohens_d(a, b), abs=1e-12)

    def test_degenerate_sign(self):
        assert cohens_d([1.0, 1.0], [0.0, 0.0]) == math.inf
        assert cohens_d([0.0, 0.0], [1.0, 1.0]) == -math.inf

    def test_mismatched_lengths_rejected(self):
        # no broadcasting of a length-1 side
        with pytest.raises(ValueError, match="differ in shape"):
            cohens_d([1.0, 2.0, 3.0], [1.0])

    @pytest.mark.parametrize("a", [[math.nan, 1.0, 2.0], [math.inf, 1.0, 2.0]])
    def test_non_finite_rejected(self, a):
        with pytest.raises(ValueError, match="NaN or infinite"):
            cohens_d(a, [0.0, 0.0, 0.0])


def report_with(**overrides):
    base = dict(
        accuracy=0.9, precision=[0.9], recall=[0.9], f1=[0.9], support=[10],
        weighted_precision=0.9, weighted_recall=0.9, weighted_f1=0.9,
        macro_precision=0.9, macro_recall=0.9, macro_f1=0.9, mean_loss=0.1,
    )
    base.update(overrides)
    return MetricsReport(**base)


class TestAggregateRuns:
    def test_identical_runs_zero_std(self):
        agg = aggregate_runs([report_with(), report_with()])
        mean, std = agg["accuracy"]
        assert mean == pytest.approx(0.9)
        assert std == 0.0

    def test_two_point_formula(self):
        agg = aggregate_runs([report_with(accuracy=0.95), report_with(accuracy=0.96)])
        mean, std = agg["accuracy"]
        assert mean == pytest.approx(0.955)
        assert std == pytest.approx(0.0070710678, abs=1e-9)

    def test_permutation_invariant(self):
        runs = [report_with(accuracy=a) for a in (0.91, 0.95, 0.88)]
        fwd = aggregate_runs(runs)
        rev = aggregate_runs(runs[::-1])
        assert fwd["accuracy"] == pytest.approx(rev["accuracy"])

    def test_single_run_std_absent(self):
        agg = aggregate_runs([report_with()])
        mean, std = agg["accuracy"]
        assert mean == pytest.approx(0.9)
        assert std is None
