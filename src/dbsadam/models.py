"""Stacked bidirectional LSTM classifier with hand-derived BPTT gradients.

Architecture: two Bi-LSTM layers -> dropout after each -> temporal
aggregation -> dense ReLU layer -> dropout -> class logits. Each direction of
a Bi-LSTM is a standard LSTM cell over the concatenation [h_prev, x], its
four gates stacked into one weight matrix; the two directions are fused by
elementwise addition per timestep.

Parameters live in ndarrays owned by SequenceNetwork; params() exposes them
as a flat name -> array dict whose entries the optimizers update in place.
network_backward returns a gradient dict with the same keys and shapes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng, sigmoid

AGGREGATIONS = ("last", "mean")

GATE_NAMES = ("f", "i", "c", "o")


@dataclass
class LstmCellParams:
    """One direction's gate weights, stacked cuDNN-style: W (4H, H + F) acts
    on the concatenation [h_prev, x] and b has shape (4H,); the row blocks
    of both are the f, i, c, o gates in that order."""

    W: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.W.shape[0] // len(GATE_NAMES)

    @property
    def input_size(self) -> int:
        return self.W.shape[1] - self.hidden_size

    def tensors(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}


def _glorot(rng: SeededRng, shape: tuple[int, int]) -> np.ndarray:
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_lstm_params(hidden: int, input_size: int, rng: SeededRng) -> LstmCellParams:
    """Glorot-uniform gate weights, drawn gate by gate with the per-gate
    limit sqrt(6 / (2H + F)); forget bias starts at 1 so early cell state is
    carried, other biases at 0."""
    w = hidden + input_size
    return LstmCellParams(
        W=np.concatenate([_glorot(rng, (hidden, w)) for _ in GATE_NAMES]),
        b=np.concatenate([np.ones(hidden), np.zeros(3 * hidden)]),
    )


def _sequence_forward(cell: LstmCellParams, xs: np.ndarray) -> tuple[np.ndarray, dict]:
    """Batched LSTM over xs (B, T, F) from zero initial state.

    f, i, o are sigmoid gates and c_tilde the tanh candidate, all computed on
    z = [h_prev, x] by one product with the stacked W; then
    c = f*c_prev + i*c_tilde and h = o*tanh(c). Returns hs (B, T, H) and the
    per-timestep cache needed by _sequence_backward.
    """
    batch, steps, _ = xs.shape
    hidden = cell.hidden_size
    h = np.zeros((batch, hidden))
    c = np.zeros((batch, hidden))
    hs = np.zeros((batch, steps, hidden))
    cache = {"z": [], "gates": [], "c": [], "c_prev": []}
    for t in range(steps):
        z = np.concatenate([h, xs[:, t, :]], axis=1)  # (B, H+F)
        gates = z @ cell.W.T + cell.b  # (B, 4H) pre-activations
        f, i, c_tilde, o = np.split(gates, 4, axis=1)  # views into gates
        for g in (f, i, o):
            g[...] = sigmoid(g)
        np.tanh(c_tilde, out=c_tilde)
        cache["c_prev"].append(c)
        c = f * c + i * c_tilde
        h = o * np.tanh(c)
        hs[:, t, :] = h
        for name, val in (("z", z), ("gates", gates), ("c", c)):
            cache[name].append(val)
    return hs, cache


def _sequence_backward(
    cell: LstmCellParams, cache: dict, d_hs: np.ndarray
) -> tuple[dict[str, np.ndarray], np.ndarray]:
    """BPTT through one direction given upstream d_hs (B, T, H).

    Returns gate-parameter gradients and the gradient w.r.t. the inputs
    (B, T, F).
    """
    steps = d_hs.shape[1]
    hidden = cell.hidden_size
    input_size = cell.input_size
    grads = {name: np.zeros_like(arr) for name, arr in cell.tensors().items()}
    dxs = np.zeros((d_hs.shape[0], steps, input_size))
    dh_next = np.zeros((d_hs.shape[0], hidden))
    dc_next = np.zeros_like(dh_next)
    for t in range(steps - 1, -1, -1):
        z = cache["z"][t]
        f, i, c_tilde, o = np.split(cache["gates"][t], 4, axis=1)
        c, c_prev = cache["c"][t], cache["c_prev"][t]
        tanh_c = np.tanh(c)

        dh = d_hs[:, t, :] + dh_next
        do = dh * tanh_c
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        df = dc * c_prev
        di = dc * c_tilde
        dc_tilde = dc * i
        dc_next = dc * f

        # back through the gate nonlinearities to pre-activations (B, 4H)
        da = np.concatenate([
            df * f * (1.0 - f),
            di * i * (1.0 - i),
            dc_tilde * (1.0 - c_tilde * c_tilde),
            do * o * (1.0 - o),
        ], axis=1)

        grads["W"] += da.T @ z
        grads["b"] += da.sum(axis=0)

        dz = da @ cell.W
        dh_next = dz[:, :hidden]
        dxs[:, t, :] = dz[:, hidden:]
    return grads, dxs


def bilstm_layer_forward(
    fwd: LstmCellParams, bwd: LstmCellParams, xs: np.ndarray
) -> np.ndarray:
    """Bidirectional pass with additive fusion: out_t = h_fwd_t + h_bwd_t.

    Accepts one sequence (T, F) or a batch (B, T, F) and returns matching
    leading dimensions.
    """
    xs = np.asarray(xs, dtype=np.float64)
    single = xs.ndim == 2
    if single:
        xs = xs[None, :, :]
    if xs.shape[1] == 0:
        raise ValueError("empty sequence")
    if xs.shape[2] != fwd.input_size:
        raise ValueError(f"input width {xs.shape[2]} does not match cell input {fwd.input_size}")
    fused, _ = _bilstm_forward(fwd, bwd, xs)
    return fused[0] if single else fused


def _bilstm_forward(
    fwd: LstmCellParams, bwd: LstmCellParams, xs: np.ndarray
) -> tuple[np.ndarray, dict]:
    hs_f, cache_f = _sequence_forward(fwd, xs)
    hs_b_rev, cache_b = _sequence_forward(bwd, xs[:, ::-1, :].copy())
    fused = hs_f + hs_b_rev[:, ::-1, :]
    return fused, {"f": cache_f, "b": cache_b}


def _bilstm_backward(
    fwd: LstmCellParams, bwd: LstmCellParams, cache: dict, d_fused: np.ndarray
) -> tuple[dict, dict, np.ndarray]:
    # additive fusion sends the upstream gradient to both directions intact
    grads_f, dx_f = _sequence_backward(fwd, cache["f"], d_fused)
    grads_b, dx_b_rev = _sequence_backward(bwd, cache["b"], d_fused[:, ::-1, :].copy())
    dxs = dx_f + dx_b_rev[:, ::-1, :]
    return grads_f, grads_b, dxs


class SequenceNetwork:
    """Bi-LSTM (hidden1) -> dropout -> Bi-LSTM (hidden2) -> dropout ->
    aggregation -> dense ReLU -> dropout -> logits.

    Dropout is inverted (masks scaled by 1/keep at train time) so eval mode
    is a plain pass-through. Aggregation "last" takes the final fused
    timestep, "mean" averages over time.
    """

    def __init__(
        self,
        input_size: int,
        n_classes: int,
        hidden1: int = 256,
        hidden2: int = 128,
        dense_units: int = 64,
        dropout_rate: float = 0.40,
        aggregation: str = "last",
        rng: SeededRng | None = None,
    ):
        if not (0.0 <= dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must lie in [0, 1), got {dropout_rate}")
        if aggregation not in AGGREGATIONS:
            raise ValueError(f"aggregation {aggregation!r} not in {AGGREGATIONS}")
        if rng is None:
            rng = SeededRng(0)
        self.input_size = input_size
        self.n_classes = n_classes
        self.dropout_rate = dropout_rate
        self.aggregation = aggregation
        self.l1f = init_lstm_params(hidden1, input_size, rng)
        self.l1b = init_lstm_params(hidden1, input_size, rng)
        self.l2f = init_lstm_params(hidden2, hidden1, rng)
        self.l2b = init_lstm_params(hidden2, hidden1, rng)
        self.dense_w = _glorot(rng, (dense_units, hidden2))
        self.dense_b = np.zeros(dense_units)
        self.head_w = _glorot(rng, (n_classes, dense_units))
        self.head_b = np.zeros(n_classes)

    def params(self) -> dict[str, np.ndarray]:
        """Live views of every parameter tensor, keyed by a stable name."""
        out: dict[str, np.ndarray] = {}
        for prefix, cell in (("l1f", self.l1f), ("l1b", self.l1b), ("l2f", self.l2f), ("l2b", self.l2b)):
            for name, arr in cell.tensors().items():
                out[f"{prefix}.{name}"] = arr
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
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    dropping = mode == "train" and net.dropout_rate > 0.0
    if mode == "train" and rng is None:
        raise ValueError("train mode requires an rng for dropout masks")

    fused1, cache1 = _bilstm_forward(net.l1f, net.l1b, xs)
    mask1 = _dropout_mask(rng, fused1.shape, net.dropout_rate) if dropping else None
    seq1 = fused1 * mask1 if dropping else fused1

    fused2, cache2 = _bilstm_forward(net.l2f, net.l2b, seq1)
    mask2 = _dropout_mask(rng, fused2.shape, net.dropout_rate) if dropping else None
    seq2 = fused2 * mask2 if dropping else fused2

    if net.aggregation == "last":
        pooled = seq2[:, -1, :]
    else:
        pooled = seq2.mean(axis=1)

    pre = pooled @ net.dense_w.T + net.dense_b
    act = np.maximum(pre, 0.0)
    mask3 = _dropout_mask(rng, act.shape, net.dropout_rate) if dropping else None
    act_d = act * mask3 if dropping else act

    logits = act_d @ net.head_w.T + net.head_b
    cache = {
        "xs_shape": xs.shape,
        "cache1": cache1,
        "cache2": cache2,
        "mask1": mask1,
        "mask2": mask2,
        "mask3": mask3,
        "pre": pre,
        "pooled": pooled,
        "act_d": act_d,
        "steps": xs.shape[1],
    }
    return logits, cache


def network_backward(net: SequenceNetwork, cache: dict, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients for every parameter given d(loss)/d(logits).

    The cache must come from a forward call on the same network; batch and
    class dimensions are validated against it.
    """
    d_logits = np.asarray(d_logits, dtype=np.float64)
    batch = cache["xs_shape"][0]
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

    steps = cache["steps"]
    hidden2 = net.l2f.hidden_size
    d_seq2 = np.zeros((batch, steps, hidden2))
    if net.aggregation == "last":
        d_seq2[:, -1, :] = d_pooled
    else:
        d_seq2 += d_pooled[:, None, :] / steps

    d_fused2 = d_seq2 * cache["mask2"] if cache["mask2"] is not None else d_seq2
    g2f, g2b, d_seq1 = _bilstm_backward(net.l2f, net.l2b, cache["cache2"], d_fused2)

    d_fused1 = d_seq1 * cache["mask1"] if cache["mask1"] is not None else d_seq1
    g1f, g1b, _ = _bilstm_backward(net.l1f, net.l1b, cache["cache1"], d_fused1)

    for prefix, cell_grads in (("l1f", g1f), ("l1b", g1b), ("l2f", g2f), ("l2b", g2b)):
        for name, arr in cell_grads.items():
            grads[f"{prefix}.{name}"] = arr
    return grads
