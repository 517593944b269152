"""Stacked bidirectional LSTM classifier with hand-derived BPTT gradients.

Architecture: two Bi-LSTM layers -> dropout after each -> the last fused
timestep -> dense ReLU layer -> dropout -> class logits. Each direction of
a Bi-LSTM is a standard LSTM cell with its four gates stacked into an input
weight W_x and a recurrent weight W_h; the two directions are fused by
elementwise addition per timestep. Layer 2 passes on only its last step,
where its backward direction l2b has read one input, so l2b runs that step.

Parameters live in ndarrays owned by SequenceNetwork; params(steps) exposes
the ones trained at sequence length steps as a flat name -> array dict whose
entries the optimizers update in place. network_backward returns a gradient
dict with the same keys and shapes. A direction that runs one step (all
four at one step, and l2b at every length) never reads its W_h (h_0 = 0)
or its forget gate (c_prev = 0): that W_h is left out, and the direction
computes and trains only the i, c, o rows W_x[H:] and b[H:].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng

GATE_NAMES = ("f", "i", "c", "o")


@dataclass
class LstmCellParams:
    """One direction's gate weights in PyTorch's weight_ih/weight_hh layout:
    W_x (4H, F) acts on the input x, W_h (4H, H) on h_prev, and b has shape
    (4H,); the row blocks of all three are the f, i, c, o gates in that
    order."""

    W_x: np.ndarray
    W_h: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.W_h.shape[1]


def _glorot(rng: SeededRng, shape: tuple[int, int]) -> np.ndarray:
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_lstm_params(hidden: int, input_size: int, rng: SeededRng) -> LstmCellParams:
    """Glorot-uniform gate weights, drawn gate by gate over [h_prev, x] with
    the per-gate limit sqrt(6 / (2H + F)) and split into W_h | W_x; forget
    bias starts at 1 so early cell state is carried, other biases at 0."""
    w = np.concatenate([_glorot(rng, (hidden, hidden + input_size)) for _ in GATE_NAMES])
    return LstmCellParams(
        W_x=w[:, hidden:].copy(),
        W_h=w[:, :hidden].copy(),
        b=np.concatenate([np.ones(hidden), np.zeros(3 * hidden)]),
    )


def _gate_blocks(a: np.ndarray, hidden: int) -> tuple[np.ndarray, ...]:
    """Views of the gate blocks along the last axis of a (..., nH): f, i, c,
    o when n = 4, and i, c, o when a one-step direction leaves f out."""
    return tuple(a[..., g * hidden : (g + 1) * hidden] for g in range(a.shape[-1] // hidden))


def _gate_sigmoid(a: np.ndarray) -> np.ndarray:
    """Logistic function in place as 0.5 * tanh(0.5 a) + 0.5: no temporaries,
    and tanh cannot overflow. Within 2.2e-16 of 1 / (1 + e^-a); it rounds to
    exactly 0 for a below about -38."""
    a *= 0.5
    np.tanh(a, out=a)
    a *= 0.5
    a += 0.5
    return a


def _trained_rows(cell: LstmCellParams, one_step: bool) -> slice:
    """Rows of W_x and b that a direction reads: a direction that runs one
    step starts from c_prev = 0, so it never reads its forget gate."""
    return slice(cell.hidden_size if one_step else 0, None)


def _sequence_forward(cell: LstmCellParams, xs: np.ndarray) -> tuple[np.ndarray, dict]:
    """Batched LSTM over xs (B, T, F) from zero initial state.

    f, i, o are sigmoid gates and c_tilde the tanh candidate, all computed on
    x @ W_x.T + h_prev @ W_h.T + b; then c = f*c_prev + i*c_tilde and
    h = o*tanh(c). The input product of every step is hoisted out of the
    recurrence as one (B*T, F) @ W_x.T product (Appleyard, Kocisky & Blunsom
    2016, arXiv:1604.01946); the recurrent product h_prev @ W_h.T is added
    from t = 1 on, since h_0 = 0. At T = 1, c_prev = 0, so the forget gate
    is left out and only the i, c, o rows W_x[H:] and b[H:] are projected.
    Returns hs (B, T, H) and the cache for _sequence_backward: the inputs,
    the activated gates (B, T, 4H), or (B, 1, 3H) at T = 1, and the cell
    states (B, T, H).
    """
    batch, steps, n_in = xs.shape
    hidden = cell.hidden_size
    rows = _trained_rows(cell, steps == 1)
    gates = xs.reshape(batch * steps, n_in) @ cell.W_x[rows].T
    gates += cell.b[rows]
    gates = gates.reshape(batch, steps, -1)  # pre-activations
    hs = np.empty((batch, steps, hidden))
    cs = np.empty((batch, steps, hidden))
    for t in range(steps):
        a = gates[:, t]
        if t:
            a += hs[:, t - 1] @ cell.W_h.T
        *f, i, c_tilde, o = _gate_blocks(a, hidden)  # views into gates
        _gate_sigmoid(a[:, : -2 * hidden])  # f (when present) and i
        _gate_sigmoid(o)
        np.tanh(c_tilde, out=c_tilde)
        c, h = cs[:, t], hs[:, t]
        np.multiply(i, c_tilde, out=c)
        if t:
            c += f[0] * cs[:, t - 1]
        np.tanh(c, out=h)
        h *= o
    return hs, {"xs": xs, "gates": gates, "c": cs, "h": hs}


def _sigmoid_slope(s: np.ndarray, out: np.ndarray) -> np.ndarray:
    """s * (1 - s), the slope of a sigmoid gate s, written into out."""
    np.subtract(1.0, s, out=out)
    out *= s
    return out


def _tanh_slope(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """1 - t^2, the slope of a tanh output t, written into out."""
    np.multiply(t, t, out=out)
    np.subtract(1.0, out, out=out)
    return out


def _sequence_backward(
    cell: LstmCellParams, cache: dict, d_hs: np.ndarray, need_dx: bool = True
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """BPTT through one direction given upstream d_hs (B, T, H).

    The recurrence only carries the pre-activation gradients da (B, T, 4H)
    back through h; dW_x, db and the input gradient are then one product
    each over all steps. dW_h sums da_t^T h_{t-1} over t >= 1, so it is
    exactly zero at T = 1 and is formed only for T > 1. At T = 1 the forget
    gate was never computed, so da has 3H columns and dW_x (3H, F) and
    db (3H,) cover the rows W_x[H:] and b[H:]. Returns the gate-parameter
    gradients and the gradient w.r.t. the inputs (B, T, F), or None for it
    when need_dx is False.
    """
    batch, steps, hidden = d_hs.shape
    xs, gates, cs, hs = cache["xs"], cache["gates"], cache["c"], cache["h"]
    tanh_cs = np.tanh(cs)
    da = np.empty_like(gates)
    dh_next = dc_next = 0.0
    for t in range(steps - 1, -1, -1):
        *f, i, c_tilde, o = _gate_blocks(gates[:, t], hidden)
        *da_f, da_i, da_c, da_o = _gate_blocks(da[:, t], hidden)
        tanh_c = tanh_cs[:, t]

        dh = d_hs[:, t] + dh_next
        # dc = dc_next + dh * o * (1 - tanh(c)^2), with da_c as scratch
        dc = dh * o
        dc *= _tanh_slope(tanh_c, da_c)
        dc += dc_next
        # back through the gate nonlinearities to pre-activations (B, nH)
        _sigmoid_slope(o, da_o)
        da_o *= dh
        da_o *= tanh_c
        _sigmoid_slope(i, da_i)
        da_i *= dc
        da_i *= c_tilde
        _tanh_slope(c_tilde, da_c)
        da_c *= dc
        da_c *= i
        if f:
            _sigmoid_slope(f[0], da_f[0])
            da_f[0] *= dc
            da_f[0] *= cs[:, t - 1] if t else 0.0
        if t:
            dc_next = dc * f[0]
            dh_next = da[:, t] @ cell.W_h

    n_in = xs.shape[2]
    da_flat = da.reshape(batch * steps, -1)
    grads = {"W_x": da_flat.T @ xs.reshape(batch * steps, n_in)}
    if steps > 1:
        grads["W_h"] = da[:, 1:].reshape(-1, 4 * hidden).T @ hs[:, :-1].reshape(-1, hidden)
    grads["b"] = da_flat.sum(axis=0)
    if not need_dx:
        return grads, None
    return grads, (da_flat @ cell.W_x[_trained_rows(cell, steps == 1)]).reshape(batch, steps, n_in)


class SequenceNetwork:
    """Bi-LSTM (hidden1) -> dropout -> Bi-LSTM (hidden2) -> dropout ->
    last timestep -> dense ReLU -> dropout -> logits.

    Dropout is inverted (masks scaled by 1/keep at train time) so eval mode
    is a plain pass-through. Only the final fused timestep of the second
    Bi-LSTM feeds the dense layer, so its backward direction l2b runs just
    the one step over the last input.
    """

    def __init__(
        self,
        input_size: int,
        n_classes: int,
        hidden1: int = 256,
        hidden2: int = 128,
        dense_units: int = 64,
        dropout_rate: float = 0.40,
        rng: SeededRng | None = None,
    ):
        if not (0.0 <= dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
        if rng is None:
            rng = SeededRng(0)
        self.input_size = input_size
        self.n_classes = n_classes
        self.dropout_rate = dropout_rate
        self.l1f = init_lstm_params(hidden1, input_size, rng)
        self.l1b = init_lstm_params(hidden1, input_size, rng)
        self.l2f = init_lstm_params(hidden2, hidden1, rng)
        self.l2b = init_lstm_params(hidden2, hidden1, rng)
        self.dense_w = _glorot(rng, (dense_units, hidden2))
        self.dense_b = np.zeros(dense_units)
        self.head_w = _glorot(rng, (n_classes, dense_units))
        self.head_b = np.zeros(n_classes)

    def params(self, steps: int | None = None) -> dict[str, np.ndarray]:
        """Live views of the tensors trained at sequence length steps, keyed
        by a stable name. A direction that runs one step (all four at
        steps == 1, and l2b at every steps) reads neither its W_h (h_0 = 0)
        nor its forget gate (c_prev = 0): its W_h is left out, and its W_x
        and b are the views W_x[H:] and b[H:] of the i, c, o rows. An
        optimizer stepping these params leaves the unread weights at their
        initial values (AdamW does not decay them). With steps omitted, every
        tensor is returned whole."""
        out: dict[str, np.ndarray] = {}
        for prefix, cell in (("l1f", self.l1f), ("l1b", self.l1b), ("l2f", self.l2f), ("l2b", self.l2b)):
            one_step = steps is not None and (steps == 1 or prefix == "l2b")
            rows = _trained_rows(cell, one_step)
            out[f"{prefix}.W_x"] = cell.W_x[rows]
            if not one_step:
                out[f"{prefix}.W_h"] = cell.W_h
            out[f"{prefix}.b"] = cell.b[rows]
        out["dense.W"] = self.dense_w
        out["dense.b"] = self.dense_b
        out["head.W"] = self.head_w
        out["head.b"] = self.head_b
        return out


def _dropout_mask(rng: SeededRng, shape: tuple[int, ...], rate: float) -> np.ndarray:
    keep = 1.0 - rate
    return (rng.uniform(size=shape) >= rate).astype(np.float64) / keep


def network_forward(
    net: SequenceNetwork,
    xs: np.ndarray,
    mode: str = "eval",
    rng: SeededRng | None = None,
) -> tuple[np.ndarray, dict]:
    """Forward pass over a batch of sequences xs (B, T, F).

    mode "train" applies dropout with masks drawn from rng; "eval" is
    deterministic. Returns (logits (B, C), cache for network_backward).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if xs.ndim != 3 or xs.shape[2] != net.input_size:
        raise ValueError(f"expected input (B, T, {net.input_size}), got {xs.shape}")
    if xs.shape[1] == 0:
        raise ValueError("empty sequence")
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    dropping = mode == "train" and net.dropout_rate > 0.0
    if mode == "train" and rng is None:
        raise ValueError("train mode requires an rng for dropout masks")

    hs1f, cache1f = _sequence_forward(net.l1f, xs)
    hs1b, cache1b = _sequence_forward(net.l1b, xs[:, ::-1].copy())
    fused1 = hs1f + hs1b[:, ::-1]
    mask1 = _dropout_mask(rng, fused1.shape, net.dropout_rate) if dropping else None
    seq1 = fused1 * mask1 if dropping else fused1

    # the dense layer reads only the last fused step, where the backward
    # direction has read seq1[:, -1] alone, so l2b runs that one step
    hs2f, cache2f = _sequence_forward(net.l2f, seq1)
    hs2b, cache2b = _sequence_forward(net.l2b, seq1[:, -1:])
    fused2 = hs2f[:, -1] + hs2b[:, 0]
    # mask2 is drawn over every step although only the last is used: a
    # smaller draw would shift every later mask and batch, so every run
    mask2 = _dropout_mask(rng, hs2f.shape, net.dropout_rate)[:, -1] if dropping else None
    pooled = fused2 * mask2 if dropping else fused2

    pre = pooled @ net.dense_w.T + net.dense_b
    act = np.maximum(pre, 0.0)
    mask3 = _dropout_mask(rng, act.shape, net.dropout_rate) if dropping else None
    act_d = act * mask3 if dropping else act

    logits = act_d @ net.head_w.T + net.head_b
    cache = {
        "xs_shape": xs.shape, "l1f": cache1f, "l1b": cache1b, "l2f": cache2f, "l2b": cache2b,
        "mask1": mask1, "mask2": mask2, "mask3": mask3, "pre": pre, "pooled": pooled, "act_d": act_d,
    }
    return logits, cache


def network_backward(net: SequenceNetwork, cache: dict, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients for the parameters of net.params(T), T the cached
    sequence length, given d(loss)/d(logits).

    The cache must come from a forward call on the same network; batch and
    class dimensions are validated against it.
    """
    d_logits = np.asarray(d_logits, dtype=np.float64)
    batch, steps = cache["xs_shape"][:2]
    if d_logits.shape != (batch, net.n_classes):
        raise ValueError(
            f"logit gradient shape {d_logits.shape} does not match cached batch "
            f"({batch}, {net.n_classes})"
        )

    grads: dict[str, np.ndarray] = {}
    grads["head.W"] = d_logits.T @ cache["act_d"]
    grads["head.b"] = d_logits.sum(axis=0)
    d_act_d = d_logits @ net.head_w

    d_act = d_act_d * cache["mask3"] if cache["mask3"] is not None else d_act_d
    d_pre = d_act * (cache["pre"] > 0.0)

    grads["dense.W"] = d_pre.T @ cache["pooled"]
    grads["dense.b"] = d_pre.sum(axis=0)
    d_pooled = d_pre @ net.dense_w

    # additive fusion sends the upstream gradient to both directions intact
    d_fused2 = d_pooled * cache["mask2"] if cache["mask2"] is not None else d_pooled
    d_hs2f = np.zeros((batch, steps, net.l2f.hidden_size))
    d_hs2f[:, -1] = d_fused2
    g2f, d_seq1 = _sequence_backward(net.l2f, cache["l2f"], d_hs2f)
    g2b, d_last = _sequence_backward(net.l2b, cache["l2b"], d_fused2[:, None])
    d_seq1[:, -1] += d_last[:, 0]

    d_fused1 = d_seq1 * cache["mask1"] if cache["mask1"] is not None else d_seq1
    # the network input needs no gradient, so layer 1 skips its da @ W_x
    g1f, _ = _sequence_backward(net.l1f, cache["l1f"], d_fused1, need_dx=False)
    g1b, _ = _sequence_backward(net.l1b, cache["l1b"], d_fused1[:, ::-1].copy(), need_dx=False)

    for prefix, cell_grads in (("l1f", g1f), ("l1b", g1b), ("l2f", g2f), ("l2b", g2b)):
        for name, arr in cell_grads.items():
            grads[f"{prefix}.{name}"] = arr
    return grads
