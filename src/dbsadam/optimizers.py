"""Adam-family optimizers plus the batch-difficulty learning-rate scaler.

Parameters and gradients travel as name -> ndarray dicts with matching keys
and shapes. All step functions mutate params and state in place. The
difficulty pipeline turns (gradient norm, batch loss) into a multiplier in
[d_min, d_max] that rescales the global learning rate per batch: batches the
model finds hard get larger steps, easy ones smaller.
"""

from __future__ import annotations

import math
import typing
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .numerics import _set_typed_fields

Params = dict[str, np.ndarray]


@dataclass(frozen=True)
class OptimizerConfig:
    """Shared hyperparameters for the Adam family and the difficulty scaler.

    epsilon sits outside the square root, as in Kingma & Ba's Algorithm 1:
    the denominator is sqrt(v_hat) + eps. Frozen, and checked when built:
    each field is stored as its annotated type, or ValueError names it.
    """

    base_lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    weight_decay: float = 0.01          # adamw only
    adabound_final_lr: float = 0.1      # adabound only
    adabound_gamma: float = 1e-3        # adabound only
    ema_beta: float = 0.95              # dbs_adam only, as are the six below
    alpha_mix: float = 0.5
    clip_k: float = 5.0
    d_min: float = 0.1
    d_max: float = 1.0
    norm_epsilon: float = 1e-8
    warmup_batches: int = 10

    def __post_init__(self):
        _set_typed_fields(self, _FIELD_TYPES)
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError(f"beta1 and beta2 must lie in [0, 1), got {self.beta1}, {self.beta2}")
        # written so that NaN fails every check
        for name in ("base_lr", "epsilon", "adabound_final_lr", "adabound_gamma", "clip_k"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0.0 <= self.weight_decay < math.inf:
            raise ValueError(f"weight_decay must be >= 0 and finite, got {self.weight_decay}")
        if not (0.0 < self.d_min <= self.d_max):
            raise ValueError(f"need 0 < d_min <= d_max, got [{self.d_min}, {self.d_max}]")
        if not (0.0 <= self.alpha_mix <= 1.0):
            raise ValueError(f"alpha_mix must lie in [0, 1], got {self.alpha_mix}")
        if not self.norm_epsilon > 0.0:
            raise ValueError(f"norm_epsilon must be positive, got {self.norm_epsilon}")
        if not (0.0 <= self.ema_beta < 1.0):
            raise ValueError(f"ema_beta must lie in [0, 1), got {self.ema_beta}")
        if self.warmup_batches < 0:
            raise ValueError(f"warmup_batches must be >= 0, got {self.warmup_batches}")


_FIELD_TYPES = typing.get_type_hints(OptimizerConfig)


# Elements per block of the moment pass: 32K float64 = 256 KiB, so the
# block's parameter, gradient, m and v slices and the two scratch buffers
# (1.5 MiB) stay in a 2 MiB L2 cache across the pass's operations.
_BLOCK_ELEMENTS = 32 * 1024


class OptimizerState:
    """Per-parameter moment buffers, the step counter and dbs_adam's
    difficulty statistics.

    v_max is allocated lazily on the first amsgrad step and holds the running
    elementwise maximum of the bias-corrected second moment. scratch holds
    the two block-sized buffers the moment pass computes m_hat and v_hat in;
    its length fixes the pass's block size. mu_g, sigma_g, mu_l, sigma_l and
    batches_seen are zero until observe_batch, the only thing that advances
    them.
    """

    def __init__(self, params: Params):
        self.m: Params = {k: np.zeros_like(v) for k, v in params.items()}
        self.v: Params = {k: np.zeros_like(v) for k, v in params.items()}
        self.v_max: Params | None = None
        self.t: int = 0
        self.scratch = (np.empty(_BLOCK_ELEMENTS), np.empty(_BLOCK_ELEMENTS))
        self.mu_g = self.sigma_g = self.mu_l = self.sigma_l = 0.0
        self.batches_seen = 0


def _check_shapes(params: Params, grads: Params) -> float:
    """Validate grads against params (matching keys and shapes, C-contiguous
    floating-point parameters, finite gradients) and return the squared L2
    norm of the whole gradient, summed tensor by tensor in grads order.

    A NaN or inf entry makes its tensor's squared norm non-finite, so the
    elementwise search for the bad index runs only then; a finite tensor
    whose squared norm overflows passes.
    """
    if params.keys() != grads.keys():
        raise ValueError(
            f"params/grads key mismatch: missing from grads {sorted(params.keys() - grads.keys())}, "
            f"missing from params {sorted(grads.keys() - params.keys())}"
        )
    total = 0.0
    for k, g in grads.items():
        if params[k].shape != g.shape:
            raise ValueError(
                f"shape mismatch for {k!r}: params {params[k].shape}, grads {g.shape}"
            )
        if not params[k].flags.c_contiguous:
            raise ValueError(f"parameter {k!r} must be C-contiguous to be updated in place")
        if params[k].dtype.kind != "f":
            raise ValueError(f"parameter {k!r} must be floating-point, got dtype {params[k].dtype}")
        flat = g.reshape(-1)
        sq = float(np.dot(flat, flat))
        if not math.isfinite(sq) and not np.all(np.isfinite(g)):
            bad = tuple(int(i) for i in np.argwhere(~np.isfinite(g))[0])
            raise ValueError(f"non-finite gradient in {k!r} at index {bad}")
        total += sq
    return total


def _denominator(v_hat: np.ndarray, config: OptimizerConfig) -> np.ndarray:
    """Turn v_hat, in place, into the Adam denominator and return it."""
    np.sqrt(v_hat, out=v_hat)
    v_hat += config.epsilon
    return v_hat


def _moments(
    params: Params, grads: Params, state: OptimizerState, config: OptimizerConfig
) -> Iterator[tuple[str, slice, np.ndarray, np.ndarray, np.ndarray]]:
    """Advance t, then stream the moment EMAs block by block.

    Each tensor is walked flat in blocks of len(state.scratch[0]) elements.
    A block's m and v are updated in place and the pass yields (name,
    block slice of the flattened tensor, parameter block view, m_hat,
    v_hat), with m_hat and v_hat in the state's scratch buffers, which the
    consumer may overwrite. The arithmetic is the textbook
    m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g), m_hat = m/(1-b1^t),
    v_hat = v/(1-b2^t), operation for operation and elementwise, so results
    are bitwise those of the unblocked formulas at any block size.
    """
    state.t += 1
    bc1 = 1.0 - config.beta1**state.t
    bc2 = 1.0 - config.beta2**state.t
    scratch_m, scratch_v = state.scratch
    block = scratch_m.size

    def stream():
        for k, g in grads.items():
            g = g.reshape(-1)
            p, m, v = (a.reshape(-1) for a in (params[k], state.m[k], state.v[k]))
            for lo in range(0, g.size, block):
                sl = slice(lo, lo + block)
                gb, mb, vb = g[sl], m[sl], v[sl]
                m_hat = np.multiply(gb, 1.0 - config.beta1, out=scratch_m[: gb.size])
                mb *= config.beta1
                mb += m_hat
                v_hat = np.multiply(gb, gb, out=scratch_v[: gb.size])
                v_hat *= 1.0 - config.beta2
                vb *= config.beta2
                vb += v_hat
                yield k, sl, p[sl], np.divide(mb, bc1, out=m_hat), np.divide(vb, bc2, out=v_hat)

    return stream()


def _adam_update(
    params: Params, grads: Params, state: OptimizerState, config: OptimizerConfig, lr: float
) -> None:
    """Adam's update at learning rate lr; the caller has checked the inputs."""
    for _, _, p, m_hat, v_hat in _moments(params, grads, state, config):
        m_hat *= lr
        m_hat /= _denominator(v_hat, config)
        p -= m_hat


def adam_step(params: Params, grads: Params, state: OptimizerState, config: OptimizerConfig) -> None:
    """One Adam update: moment EMAs, bias correction, scaled step."""
    _check_shapes(params, grads)
    _adam_update(params, grads, state, config, config.base_lr)


def amsgrad_step(params: Params, grads: Params, state: OptimizerState, config: OptimizerConfig) -> None:
    """Adam with a non-increasing effective rate: the denominator uses the
    running max of the bias-corrected second moment."""
    _check_shapes(params, grads)
    if state.v_max is None:
        state.v_max = {k: np.zeros_like(v) for k, v in params.items()}
    for k, sl, p, m_hat, v_hat in _moments(params, grads, state, config):
        v_max = state.v_max[k].reshape(-1)[sl]
        np.maximum(v_max, v_hat, out=v_max)
        v_hat[...] = v_max
        m_hat *= config.base_lr
        m_hat /= _denominator(v_hat, config)
        p -= m_hat


def adamw_step(params: Params, grads: Params, state: OptimizerState, config: OptimizerConfig) -> None:
    """Adam plus decoupled weight decay: theta -= lr * wd * theta, applied to
    the pre-step parameters outside the moment machinery."""
    _check_shapes(params, grads)
    for _, _, p, m_hat, v_hat in _moments(params, grads, state, config):
        m_hat *= config.base_lr
        m_hat /= _denominator(v_hat, config)
        m_hat += config.base_lr * config.weight_decay * p
        p -= m_hat


def adabound_bounds(t: int, config: OptimizerConfig) -> tuple[float, float]:
    """Per-step learning-rate clip interval; both bounds -> final_lr as t grows."""
    final_lr = config.adabound_final_lr
    gamma = config.adabound_gamma
    lower = final_lr * (1.0 - 1.0 / (gamma * t + 1.0))
    upper = final_lr * (1.0 + 1.0 / (gamma * t))
    return lower, upper


def adabound_step(params: Params, grads: Params, state: OptimizerState, config: OptimizerConfig) -> None:
    """Adam-style step with the per-coordinate rate clipped into a band that
    tightens around adabound_final_lr."""
    _check_shapes(params, grads)
    moments = _moments(params, grads, state, config)
    lower, upper = adabound_bounds(state.t, config)
    for _, _, p, m_hat, v_hat in moments:
        rate = np.divide(config.base_lr, _denominator(v_hat, config), out=v_hat)
        np.clip(rate, lower, upper, out=rate)
        rate *= m_hat
        p -= rate


def difficulty(state: OptimizerState, config: OptimizerConfig, grad_norm: float,
               batch_loss: float) -> float:
    """Score a batch against the current statistics without updating them.

    Each signal, the gradient norm G and the batch loss L, is z-scored
    against its running statistics, clipped to [-clip_k, clip_k] and rescaled
    into [0, 1]; the two are mixed with weight alpha_mix on the gradient side
    and the mix is clipped to [d_min, d_max].
    """
    k = config.clip_k

    def rescale(z: float) -> float:
        return (min(max(z, -k), k) + k) / (2.0 * k)

    g_hat = rescale((grad_norm - state.mu_g) / (state.sigma_g + config.norm_epsilon))
    l_hat = rescale((batch_loss - state.mu_l) / (state.sigma_l + config.norm_epsilon))
    # written as l + a*(g - l) rather than a*g + (1-a)*l so equal inputs
    # produce that exact value for any alpha
    mixed = l_hat + config.alpha_mix * (g_hat - l_hat)
    return float(min(max(mixed, config.d_min), config.d_max))


def observe_batch(state: OptimizerState, config: OptimizerConfig, grad_norm: float,
                  batch_loss: float) -> float:
    """Fold one batch into the difficulty statistics and return its clipped
    difficulty.

    The running "deviation" is an EMA of absolute deviation from the running
    mean. Update order per step: mean EMA first, then deviation EMA against
    the freshly updated mean, then the z-score. Statistics start at the first
    observation (mean = value, deviation = 0). The first warmup_batches
    batches still update statistics but score as the neutral midpoint, since
    z-scores against a near-zero deviation would be meaningless. A non-finite
    signal, or one so far from the running mean (beyond ~1e308) that a
    statistic would overflow, raises ValueError and leaves the state
    unchanged.
    """
    if not (math.isfinite(grad_norm) and grad_norm >= 0):
        raise ValueError(f"gradient norm must be finite and >= 0, got {grad_norm}")
    if not math.isfinite(batch_loss):
        raise ValueError(f"batch loss must be finite, got {batch_loss}")

    one_minus_beta = 1.0 - config.ema_beta
    if state.batches_seen == 0:
        stats = (float(grad_norm), 0.0, float(batch_loss), 0.0)
    else:
        # incremental form mu += (1-beta)(x - mu): exact no-op when x == mu
        mu_g = state.mu_g + one_minus_beta * (grad_norm - state.mu_g)
        sigma_g = state.sigma_g + one_minus_beta * (abs(grad_norm - mu_g) - state.sigma_g)
        mu_l = state.mu_l + one_minus_beta * (batch_loss - state.mu_l)
        sigma_l = state.sigma_l + one_minus_beta * (abs(batch_loss - mu_l) - state.sigma_l)
        stats = (mu_g, sigma_g, mu_l, sigma_l)
    if not all(map(math.isfinite, stats)):
        raise ValueError(
            f"batch signals (gradient norm {grad_norm}, loss {batch_loss}) overflow the "
            f"running statistics (means {state.mu_g}, {state.mu_l})"
        )
    state.mu_g, state.sigma_g, state.mu_l, state.sigma_l = stats
    state.batches_seen += 1

    if state.batches_seen <= config.warmup_batches:
        return float(min(max(0.5, config.d_min), config.d_max))
    return difficulty(state, config, grad_norm, batch_loss)


def dbs_adam_step(
    params: Params, grads: Params, state: OptimizerState, config: OptimizerConfig, batch_loss: float
) -> float:
    """Difficulty-scaled Adam step; returns the learning rate actually used.

    batch_loss must be the mean loss of the same batch that produced grads.
    """
    grad_norm = math.sqrt(_check_shapes(params, grads))
    lr = config.base_lr * observe_batch(state, config, grad_norm, batch_loss)
    _adam_update(params, grads, state, config, lr)
    return lr


# baseline steps sharing the signature (params, grads, state, config)
OPTIMIZER_STEPS = {
    "adam": adam_step,
    "amsgrad": amsgrad_step,
    "adamw": adamw_step,
    "adabound": adabound_step,
}

OPTIMIZER_NAMES = (*OPTIMIZER_STEPS, "dbs_adam")
