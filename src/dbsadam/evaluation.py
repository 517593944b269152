"""Classification metrics, stratified splitting, and seed-paired statistics.

The paired t-test's two-sided p-value comes from the finite closed-form
series for integer degrees of freedom, so no statistics library is needed at
runtime; the test suite cross-checks it against scipy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng

# Each headline metric used for optimizer comparison and the MetricsReport
# field it reads: the weighted aggregates, matching how multi-class results
# are usually reported.
_HEADLINE_FIELDS = {
    "accuracy": "accuracy",
    "precision": "weighted_precision",
    "recall": "weighted_recall",
    "f1": "weighted_f1",
    "loss": "mean_loss",
}
METRIC_KEYS = tuple(_HEADLINE_FIELDS)
SIGNIFICANCE_LEVEL = 0.05  # paired_t_test's significant: p < SIGNIFICANCE_LEVEL


@dataclass
class MetricsReport:
    """Per-class and aggregate classification metrics for one evaluation."""

    accuracy: float
    precision: list[float]
    recall: list[float]
    f1: list[float]
    support: list[int]
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    mean_loss: float

    def scalar_metrics(self) -> dict[str, float]:
        """The headline scalars, keyed and ordered as METRIC_KEYS."""
        return {key: getattr(self, name) for key, name in _HEADLINE_FIELDS.items()}


@dataclass
class SignificanceResult:
    """Seed-paired comparison of one metric between two configurations."""

    mean_difference: float
    t_statistic: float
    p_value: float
    cohens_d: float
    significant: bool
    degenerate: bool = False


def confusion_matrix(true_labels, predicted_labels, n_classes: int) -> np.ndarray:
    """Count grid (n_classes, n_classes) indexed [true][predicted]."""
    t = np.asarray(true_labels, dtype=np.int64)
    p = np.asarray(predicted_labels, dtype=np.int64)
    if t.shape != p.shape:
        raise ValueError(f"label arrays differ in length: {t.shape} vs {p.shape}")
    if t.size and (t.min() < 0 or t.max() >= n_classes or p.min() < 0 or p.max() >= n_classes):
        raise ValueError(f"labels outside [0, {n_classes})")
    cm = np.zeros((n_classes, n_classes), dtype=np.int64)
    np.add.at(cm, (t, p), 1)
    return cm


def metrics_from_confusion(cm: np.ndarray, per_sample_losses=None) -> MetricsReport:
    """Precision/recall/F1 per class plus weighted and macro aggregates.

    Zero denominators yield 0 (a class never predicted scores precision 0, a
    class with no support scores recall 0). Weighted averages use true-class
    support.
    """
    cm = np.asarray(cm)
    total = cm.sum()
    if total == 0:
        raise ValueError("empty confusion matrix")
    tp = np.diag(cm).astype(np.float64)
    predicted = cm.sum(axis=0).astype(np.float64)
    support = cm.sum(axis=1).astype(np.float64)

    with np.errstate(divide="ignore", invalid="ignore"):
        precision = np.where(predicted > 0, tp / predicted, 0.0)
        recall = np.where(support > 0, tp / support, 0.0)
        pr_sum = precision + recall
        f1 = np.where(pr_sum > 0, 2.0 * precision * recall / np.where(pr_sum > 0, pr_sum, 1.0), 0.0)

    weights = support / total
    mean_loss = float(np.mean(per_sample_losses)) if per_sample_losses is not None else float("nan")
    return MetricsReport(
        accuracy=float(tp.sum() / total),
        precision=[float(x) for x in precision],
        recall=[float(x) for x in recall],
        f1=[float(x) for x in f1],
        support=[int(x) for x in support],
        weighted_precision=float(np.sum(weights * precision)),
        weighted_recall=float(np.sum(weights * recall)),
        weighted_f1=float(np.sum(weights * f1)),
        macro_precision=float(np.mean(precision)),
        macro_recall=float(np.mean(recall)),
        macro_f1=float(np.mean(f1)),
        mean_loss=mean_loss,
    )


def split_indices(
    labels: np.ndarray, test_fraction: float, rng: SeededRng
) -> tuple[np.ndarray, np.ndarray]:
    """Stratified index split; a pure function of (labels, rng stream).

    Per-class test counts are round(count * fraction) with ties going to
    train. Class index order inside each side follows the rng permutation.
    """
    if not (0.0 <= test_fraction < 1.0):
        raise ValueError(f"test_fraction must lie in [0, 1), got {test_fraction}")
    labels = np.asarray(labels, dtype=np.int64)
    train_parts: list[np.ndarray] = []
    test_parts: list[np.ndarray] = []
    for c in np.unique(labels):
        members = np.flatnonzero(labels == c)
        if test_fraction > 0 and members.size < 2:
            raise ValueError(f"class {int(c)} has {members.size} samples, cannot stratify")
        shuffled = members[rng.permutation(members.size)]
        n_test = math.ceil(members.size * test_fraction - 0.5)  # round half-down
        test_parts.append(shuffled[:n_test])
        train_parts.append(shuffled[n_test:])
    return np.concatenate(train_parts), np.concatenate(test_parts)


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t with an integer df >= 1.

    The finite series of Abramowitz & Stegun 26.7.3 (odd df) and 26.7.4
    (even df) in theta = atan2(|t|, sqrt(df)). t = 0 gives exactly 1 and
    t = +-inf gives 0.
    """
    if math.isnan(t):
        raise ValueError("t statistic is NaN; a paired value is NaN or infinite")
    if not isinstance(df, numbers.Integral) or df < 1:
        raise ValueError(f"degrees of freedom must be an integer >= 1, got {df!r}")
    if math.isinf(t):
        return 0.0
    theta = math.atan2(abs(t), math.sqrt(df))
    cos = math.cos(theta)
    odd = df % 2
    term = cos if odd else 1.0
    total = 0.0
    for power in range(odd, df - 1, 2):  # term = coefficient * cos**power
        total += term
        term *= cos * cos * (power + 1) / (power + 2)
    if odd:
        central = (2.0 / math.pi) * (theta + math.sin(theta) * total)
    else:
        central = math.sin(theta) * total
    # at large |t| the difference can round to -2.2e-16; t is not NaN here,
    # so the floor cannot turn a NaN statistic into p = 0
    return max(1.0 - central, 0.0)


def _zero_variance(d: np.ndarray) -> bool:
    """All differences equal. (Not a computed std of 0: equal differences
    with an inexact mean give ~1e-13, distinct subnormal ones 0.)"""
    return bool(np.all(d == d[0]))


def _mean_and_sd(d: np.ndarray) -> tuple[float, float, int]:
    """Mean and sample std of d scaled by 2**-e to put max |d| in [0.5, 1), and e:
    exact, cancels in mean / sd, and keeps sums from overflowing and std from underflowing."""
    e = int(np.frexp(np.abs(d).max())[1])
    d = np.ldexp(d, -e)
    return float(d.mean()), float(d.std(ddof=1)), e


def cohens_d(a, b) -> float:
    """Paired effect size mean(a - b) / sample-std(a - b): the cohens_d of
    paired_t_test(a, b), with its input checks and zero-variance rule."""
    return paired_t_test(a, b).cohens_d


def paired_t_test(a, b) -> SignificanceResult:
    """Two-sided paired t-test between same-length per-seed metric vectors.

    Identical inputs give t = 0, p = 1, d = 0. Zero variance (all
    differences equal) with a nonzero mean difference is reported as
    t = +-inf, p = 0 with the degenerate flag set. A NaN or infinite paired
    value or difference raises ValueError.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"paired samples differ in shape: {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise ValueError(f"need at least 2 pairs, got {n}")
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        d = a - b
    if not np.isfinite(d).all():  # a NaN or inf in a or b, or an overflowing difference
        raise ValueError(f"a paired value or difference is NaN or infinite: {a} vs {b}")
    scaled_mean, sd, e = _mean_and_sd(d)
    mean = math.ldexp(scaled_mean, e)
    if _zero_variance(d):
        if mean == 0.0:
            return SignificanceResult(0.0, 0.0, 1.0, 0.0, False, degenerate=False)
        t = math.copysign(math.inf, mean)  # so is Cohen's d
        return SignificanceResult(mean, t, 0.0, t, True, degenerate=True)
    t = scaled_mean * math.sqrt(n) / sd
    p = student_t_two_sided_p(t, n - 1)
    return SignificanceResult(mean, t, p, scaled_mean / sd, p < SIGNIFICANCE_LEVEL)


def aggregate_runs(reports: list[MetricsReport]) -> dict[str, tuple[float, float | None]]:
    """Mean and sample standard deviation of each headline metric.

    With a single run the std is reported as None.
    """
    if not reports:
        raise ValueError("no runs to aggregate")
    keys = reports[0].scalar_metrics().keys()
    out: dict[str, tuple[float, float | None]] = {}
    for key in keys:
        values = np.array([r.scalar_metrics()[key] for r in reports])
        std = float(values.std(ddof=1)) if values.size >= 2 else None
        out[key] = (float(values.mean()), std)
    return out
