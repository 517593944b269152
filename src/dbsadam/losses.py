"""Softmax head and classification losses with analytic logit gradients.

One loss, the focal form of Lin et al. 2017 (arXiv:1708.02002) over one-hot
labels, -w_t (1 - p_t)^gamma log p_t, where p_t is the predicted probability
of the true class, floored at PROB_FLOOR before the log, and w_t is the
weight of the true class. LossConfig() (w_t = 1, gamma = 0) is
cross-entropy, LossConfig(weight=class_weights) is class-weighted
cross-entropy and LossConfig(weight=alpha, gamma=gamma) is focal loss. The
loss reduces over the batch by the mean, and the analytic gradient is
checked against central differences in the test suite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Probabilities are floored here before every log so a confident wrong
# prediction yields a large but finite loss.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class LossConfig:
    """The two parameters of the focal form.

    weight is a scalar applied to every class or one value per class, and
    must be strictly positive and finite; gamma must be finite and >= 0.
    Frozen, so no assignment can skip these checks.
    """

    weight: float | np.ndarray = 1.0
    gamma: float = 0.0

    def __post_init__(self):
        w = np.asarray(self.weight, dtype=np.float64)
        if w.ndim > 1 or not np.all((w > 0) & np.isfinite(w)):
            raise ValueError(f"weight must be a strictly positive and finite scalar or vector, "
                             f"got {self.weight}")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be >= 0 and finite, got {self.gamma}")
        object.__setattr__(self, "weight", float(w) if w.ndim == 0 else w)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Exp-normalize logits with max subtraction; rows sum to 1.

    Accepts a single vector (C,) or a batch (N, C).
    """
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """Integer labels (N,) -> one-hot matrix (N, C)."""
    labels = np.asarray(labels)
    out = np.zeros((labels.shape[0], n_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def default_class_weights(class_counts: np.ndarray) -> np.ndarray:
    """Inverse-frequency weights w_c = N / (N_c * C)."""
    counts = np.asarray(class_counts, dtype=np.float64)
    if np.any(counts <= 0):
        raise ValueError(f"class weights undefined for zero counts: {counts.tolist()}")
    return counts.sum() / (counts * counts.size)


def _focal_terms(config: LossConfig, scores: np.ndarray, labels: np.ndarray):
    """Batch the probabilities or logits and one-hot labels, check their
    shapes, and resolve each sample's true-class weight w_t."""
    scores = np.atleast_2d(np.asarray(scores, dtype=np.float64))
    labels = np.atleast_2d(np.asarray(labels, dtype=np.float64))
    if scores.shape != labels.shape:
        raise ValueError(f"scores shape {scores.shape} != labels shape {labels.shape}")
    if scores.shape[1] == 0:
        raise ValueError(f"empty batch: scores of shape {scores.shape} have no classes")
    w = config.weight
    if isinstance(w, float):  # __post_init__ stores a scalar weight as a float
        return scores, labels, np.full(labels.shape[0], w)
    if w.shape != (labels.shape[1],):
        raise ValueError(f"weight vector length {w.shape} does not match {labels.shape[1]} classes")
    return scores, labels, labels @ w


def loss_per_sample(config: LossConfig, probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample loss values -w_t (1 - p_t)^gamma log p_t under the
    configured loss; labels must be one-hot."""
    probs, labels, w_t = _focal_terms(config, probs, labels)
    p_t = np.sum(probs * labels, axis=1)
    return -w_t * (1.0 - p_t) ** config.gamma * np.log(np.maximum(p_t, PROB_FLOOR))


def loss_value(config: LossConfig, probs: np.ndarray, labels: np.ndarray) -> float:
    """Batch-mean loss under the configured loss; the batch must be non-empty."""
    per_sample = loss_per_sample(config, probs, labels)
    if per_sample.size == 0:
        raise ValueError("loss_value of an empty batch")
    return float(np.mean(per_sample))


def loss_gradient(config: LossConfig, logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Analytic gradient of the batch-mean loss with respect to the logits.

    At gamma = 0 each row is w_t (softmax(z) - y) / N. For gamma > 0 the
    row is the focal chain rule dl/dp_t * p_t * (y - softmax(z)) / N.
    """
    logits, labels, w_t = _focal_terms(config, logits, labels)
    gamma = config.gamma
    n = logits.shape[0]
    probs = softmax(logits)
    if gamma == 0.0:
        return w_t[:, None] * (probs - labels) / n

    p_t = np.sum(probs * labels, axis=1)
    p_t_f = np.maximum(p_t, PROB_FLOOR)
    u = 1.0 - p_t
    # u^(gamma-1) -> 0 as p_t -> 1 for gamma > 0 (log p_t vanishes faster),
    # so the u == 0 branch takes the correct limit instead of 0^negative.
    u_pow_gm1 = np.where(u > 0.0, np.where(u > 0.0, u, 1.0) ** (gamma - 1.0), 0.0)
    dl_dpt = w_t * (gamma * u_pow_gm1 * np.log(p_t_f) - (u**gamma) / p_t_f)
    grad = dl_dpt[:, None] * p_t[:, None] * (labels - probs)
    return grad / n
