import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbsadam.losses import (
    PROB_FLOOR,
    LossConfig,
    default_class_weights,
    loss_gradient,
    loss_per_sample,
    loss_value,
    one_hot,
    softmax,
)
from dbsadam.numerics import SeededRng, finite_difference_gradient


def random_batch(rng, n=6, c=4):
    logits = rng.normal(size=(n, c)) * 2.0
    labels = one_hot(rng.integers(0, c, size=n), c)
    return logits, labels


def cross_entropy(probs, labels):
    return loss_value(LossConfig(), probs, labels)


def weighted_cross_entropy(probs, labels, weights):
    return loss_value(LossConfig(weight=weights), probs, labels)


def focal_loss(probs, labels, gamma=2.0, alpha=0.25):
    return loss_value(LossConfig(weight=alpha, gamma=gamma), probs, labels)


# The three per-kind formulas (value and gradient) that the focal form
# replaced, kept operation for operation as the reference it must match.
# Each is keyed by the loss name and reads the weight and gamma of the
# LossConfig that name maps to.
def reference_alpha(alpha, labels):
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim == 0:
        return np.full(labels.shape[0], float(alpha))
    return labels @ alpha


def reference_per_sample(kind, config, probs, labels):
    if kind == "cross_entropy":
        return -np.sum(labels * np.log(np.maximum(probs, PROB_FLOOR)), axis=1)
    if kind == "weighted_cross_entropy":
        weights = config.weight
        return -np.sum(weights * labels * np.log(np.maximum(probs, PROB_FLOOR)), axis=1)
    alpha_c = reference_alpha(config.weight, labels)
    p_t = np.sum(probs * labels, axis=1)
    log_p = np.log(np.maximum(p_t, PROB_FLOOR))
    return -alpha_c * (1.0 - p_t) ** config.gamma * log_p


def reference_gradient(kind, config, logits, labels):
    n = logits.shape[0]
    probs = softmax(logits)
    if kind == "cross_entropy":
        return (probs - labels) / n
    if kind == "weighted_cross_entropy":
        w_t = labels @ config.weight
        return w_t[:, None] * (probs - labels) / n
    gamma = config.gamma
    alpha_c = reference_alpha(config.weight, labels)
    p_t = np.sum(probs * labels, axis=1)
    p_t_f = np.maximum(p_t, PROB_FLOOR)
    u = 1.0 - p_t
    log_p = np.log(p_t_f)
    if gamma == 0.0:
        term1 = np.zeros_like(u)
    else:
        u_pow_gm1 = np.where(u > 0.0, np.where(u > 0.0, u, 1.0) ** (gamma - 1.0), 0.0)
        term1 = gamma * u_pow_gm1 * log_p
    dl_dpt = alpha_c * (term1 - (u**gamma) / p_t_f)
    grad = dl_dpt[:, None] * p_t[:, None] * (labels - probs)
    return grad / n


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(3)), np.full(3, 1 / 3))

    def test_shift_invariance(self):
        z = np.array([0.2, 1.7, -3.0])
        assert np.allclose(softmax(z), softmax(z + 123.4), atol=1e-12)

    def test_closed_form(self):
        p = softmax(np.array([0.0, math.log(2.0)]))
        assert np.allclose(p, [1 / 3, 2 / 3], atol=1e-12)

    def test_rows_sum_to_one(self):
        rng = SeededRng(2)
        p = softmax(rng.normal(size=(8, 5)) * 30)
        assert np.allclose(p.sum(axis=1), 1.0, atol=1e-9)
        assert np.all((p >= 0) & (p <= 1))


class TestLossConfig:
    def test_holds_only_weight_and_gamma(self):
        assert [f.name for f in dataclasses.fields(LossConfig)] == ["weight", "gamma"]
        assert (LossConfig().weight, LossConfig().gamma) == (1.0, 0.0)

    def test_assignment_cannot_skip_the_checks(self):
        config = LossConfig(weight=0.25, gamma=2.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.gamma = -1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.weight = 2


class TestWeightedCrossEntropy:
    def test_uniform_weights_reduce_to_plain(self):
        rng = SeededRng(3)
        logits, labels = random_batch(rng)
        probs = softmax(logits)
        assert weighted_cross_entropy(probs, labels, np.ones(4)) == pytest.approx(
            cross_entropy(probs, labels), abs=1e-12
        )

    def test_perfect_prediction_is_zero(self):
        labels = one_hot(np.array([0, 1]), 2)
        assert weighted_cross_entropy(labels, labels, np.ones(2)) == pytest.approx(0.0, abs=1e-9)

    def test_single_sample_value(self):
        probs = np.array([[0.5, 0.5]])
        labels = np.array([[1.0, 0.0]])
        got = weighted_cross_entropy(probs, labels, np.array([2.0, 1.0]))
        assert got == pytest.approx(2.0 * math.log(2.0), abs=1e-12)

    def test_wrong_weight_length_rejected(self):
        probs = np.full((2, 3), 1 / 3)
        labels = one_hot(np.array([0, 1]), 3)
        with pytest.raises(ValueError):
            weighted_cross_entropy(probs, labels, np.ones(2))


class TestDefaultClassWeights:
    def test_balanced_gives_ones(self):
        assert np.allclose(default_class_weights([10, 10, 10]), 1.0)

    def test_two_class_formula(self):
        w = default_class_weights([90, 10])
        assert np.allclose(np.round(w, 4), [0.5556, 5.0])

    def test_published_training_counts(self):
        # four-class training counts whose reported weights were
        # {1.59, 0.62, 0.63, 5.62}
        w = default_class_weights([1968, 5031, 4935, 556])
        assert np.allclose(np.round(w, 2), [1.59, 0.62, 0.63, 5.62])

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            default_class_weights([5, 0, 3])


class TestFocalLoss:
    def test_gamma_zero_alpha_one_is_cross_entropy(self):
        rng = SeededRng(4)
        for _ in range(10):
            logits, labels = random_batch(rng)
            probs = softmax(logits)
            assert focal_loss(probs, labels, gamma=0.0, alpha=1.0) == pytest.approx(
                cross_entropy(probs, labels), abs=1e-12
            )

    def test_perfect_prediction_is_zero(self):
        labels = one_hot(np.array([1]), 3)
        assert focal_loss(labels, labels) == pytest.approx(0.0, abs=1e-9)

    def test_half_confidence_value(self):
        probs = np.array([[0.5, 0.5]])
        labels = np.array([[1.0, 0.0]])
        expected = 0.25 * 0.25 * math.log(2.0)  # alpha * (1-p)^2 * ln 2
        assert focal_loss(probs, labels, gamma=2.0, alpha=0.25) == pytest.approx(expected, rel=1e-9)

    def test_never_exceeds_cross_entropy(self):
        rng = SeededRng(5)
        for _ in range(20):
            logits, labels = random_batch(rng)
            probs = softmax(logits)
            assert focal_loss(probs, labels, gamma=2.0, alpha=0.25) <= cross_entropy(probs, labels) + 1e-12

    def test_negative_gamma_rejected(self):
        with pytest.raises(ValueError):
            focal_loss(np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]]), gamma=-1.0)

    @pytest.mark.parametrize("alpha", [0.0, -0.25, np.array([0.1, 0.0, 0.3]), math.nan])
    def test_non_positive_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="weight must be a strictly positive"):
            LossConfig(weight=alpha, gamma=2.0)

    def test_matrix_weight_rejected(self):
        with pytest.raises(ValueError, match="weight must be a strictly positive"):
            LossConfig(weight=np.ones((2, 2)))


class TestBatchMeanLoss:
    """loss_value is the mean of loss_per_sample over a non-empty batch."""

    def test_singleton(self):
        probs, labels = np.array([[0.5, 0.5]]), np.array([[1.0, 0.0]])
        assert cross_entropy(probs, labels) == pytest.approx(math.log(2.0), abs=1e-15)

    def test_pair(self):
        probs = np.array([[0.5, 0.5], [0.25, 0.75]])
        labels = np.array([[1.0, 0.0], [1.0, 0.0]])
        assert cross_entropy(probs, labels) == pytest.approx(1.5 * math.log(2.0), abs=1e-15)

    def test_mean(self):
        logits, labels = random_batch(SeededRng(7), n=4)
        config = LossConfig(weight=0.25, gamma=2.0)
        per_sample = loss_per_sample(config, softmax(logits), labels)
        assert loss_value(config, softmax(logits), labels) == float(np.mean(per_sample))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((0, 3)), np.zeros((0, 3)))

    @pytest.mark.parametrize("empty", [[], np.zeros((1, 0)), np.zeros((0, 0))])
    def test_no_classes_rejected(self, empty):
        # np.atleast_2d turns a (0,) input into one sample with no classes
        with pytest.raises(ValueError, match="empty batch"):
            loss_value(LossConfig(), empty, empty)


ALL_CONFIGS = [
    LossConfig(),
    LossConfig(weight=np.array([0.5, 2.0, 1.3, 0.9])),
    LossConfig(weight=0.25, gamma=2.0),
    LossConfig(weight=np.array([0.1, 0.4, 0.3, 0.2]), gamma=1.0),
    LossConfig(weight=1.0, gamma=0.0),
]


class TestLossGradient:
    def test_plain_ce_uniform_two_class(self):
        logits = np.array([[0.0, 0.0]])
        labels = np.array([[1.0, 0.0]])
        grad = loss_gradient(LossConfig(), logits, labels)
        assert np.allclose(grad, [[-0.5, 0.5]], atol=1e-12)

    def test_gradient_vanishes_at_minimum(self):
        # confident correct prediction: gradient should be tiny for all kinds
        logits = one_hot(np.array([0, 1, 2, 3]), 4) * 60.0
        labels = one_hot(np.array([0, 1, 2, 3]), 4)
        for config in ALL_CONFIGS:
            grad = loss_gradient(config, logits, labels)
            assert np.linalg.norm(grad) < 1e-8

    def test_matches_finite_differences(self):
        rng = SeededRng(6)
        for config in ALL_CONFIGS:
            logits, labels = random_batch(rng)
            flat = logits.ravel().copy()

            def f(theta):
                z = theta.reshape(logits.shape)
                return loss_value(config, softmax(z), labels)

            numeric = finite_difference_gradient(f, flat, h=1e-5)
            analytic = loss_gradient(config, logits, labels).ravel()
            denom = np.maximum(np.abs(numeric), 1e-8)
            assert np.max(np.abs(analytic - numeric) / denom) < 1e-5


@st.composite
def loss_case(draw):
    """A random batch with the config each loss name maps to: vector class
    weights, and a focal alpha that is a scalar or a per-class vector with
    gamma > 0."""
    n, c = draw(st.integers(1, 40)), draw(st.integers(2, 6))
    rng = SeededRng(draw(st.integers(0, 2**16)))
    scale = draw(st.sampled_from([0.01, 1.0, 5.0, 40.0, 200.0]))
    logits = rng.normal(size=(n, c)) * scale
    labels = one_hot(rng.integers(0, c, size=n), c)
    weights = rng.uniform(0.05, 5.0, size=c)
    alpha = weights[0] if draw(st.booleans()) else weights[::-1].copy()
    gamma = draw(st.floats(0.05, 5.0))
    configs = {
        "cross_entropy": LossConfig(),
        "weighted_cross_entropy": LossConfig(weight=weights),
        "focal": LossConfig(weight=alpha, gamma=gamma),
    }
    return logits, labels, configs


class TestFocalFormMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(case=loss_case())
    def test_bit_equal_to_per_kind_formulas(self, case):
        logits, labels, configs = case
        probs = softmax(logits)
        for kind, config in configs.items():
            assert np.array_equal(
                loss_per_sample(config, probs, labels), reference_per_sample(kind, config, probs, labels)
            ), kind
            assert np.array_equal(
                loss_gradient(config, logits, labels), reference_gradient(kind, config, logits, labels)
            ), kind
