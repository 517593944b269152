"""Stacked bidirectional LSTM classifier with hand-derived BPTT gradients.

Architecture: two Bi-LSTM layers -> dropout after each -> the last fused
timestep -> dense ReLU layer -> dropout -> class logits. Each direction of
a Bi-LSTM is a standard LSTM cell with its four gates stacked into an input
weight W_x and a recurrent weight W_h; the two directions are fused by
elementwise addition per timestep. Layer 1's directions run as one stacked
recurrence over the input and its time reverse. Layer 2 passes on only its
last step, where its backward direction l2b has read one input, so l2b runs
that step.

Every parameter is a C-contiguous view of one float64 vector, the arena.
params(steps) names the views trained at sequence length steps, which the
optimizers update in place; network_backward returns the same views of one
new vector, and segments(steps) joins either into its few contiguous runs.
A direction that runs one step (all four at one step, and l2b at every
length) never reads its W_h (h_0 = 0) or its forget gate (c_prev = 0): that
W_h is left out, and the direction computes and trains only the i, c, o
rows W_x[H:] and b[H:].

The recurrences run over step buffers with the gate axis outermost: a
step's gates are (G, ..., B, H), so every per-gate pass reads one
C-contiguous block, for layer 1's stacked directions too; the products
still take batch-major rows, so their BLAS calls and bits are those of a
per-direction, batch-major implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import SeededRng

GATE_NAMES = ("f", "i", "c", "o")


@dataclass
class LstmCellParams:
    """One direction's gate weights in PyTorch's weight_ih/weight_hh layout:
    W_x (4H, F) acts on the input x, W_h (4H, H) on h_prev, and b has shape
    (4H,); the row blocks of all three are the f, i, c, o gates in that
    order. Stacked directions add leading axes: (D, 4H, F), (D, 4H, H) and
    (D, 4H)."""

    W_x: np.ndarray
    W_h: np.ndarray
    b: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.W_h.shape[-1]


def _glorot(rng: SeededRng, shape: tuple[int, int]) -> np.ndarray:
    fan_out, fan_in = shape
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_lstm_params(
    hidden: int, input_size: int, rng: SeededRng, out: LstmCellParams | None = None
) -> LstmCellParams:
    """Glorot-uniform gate weights, drawn gate by gate over [h_prev, x] with
    the per-gate limit sqrt(6 / (2H + F)) and split into W_h | W_x; forget
    bias starts at 1 so early cell state is carried, other biases at 0.
    Written gate by gate into out when given, else into new arrays."""
    out = out or LstmCellParams(np.empty((4 * hidden, input_size)), np.empty((4 * hidden, hidden)),
                                np.empty(4 * hidden))
    for g in range(len(GATE_NAMES)):
        rows = slice(g * hidden, (g + 1) * hidden)
        drawn = _glorot(rng, (hidden, hidden + input_size))
        out.W_h[rows], out.W_x[rows] = drawn[:, :hidden], drawn[:, hidden:]
    out.b[...] = 0.0
    out.b[:hidden] = 1.0
    return out


def _gate_blocks(a: np.ndarray, hidden: int) -> list[np.ndarray]:
    """Views of the gate blocks along the last axis of a (..., nH): f, i, c,
    o when n = 4, and i, c, o when a one-step direction leaves f out. The
    per-direction reference network of the tests reads its gates this way."""
    return [a[..., g : g + hidden] for g in range(0, a.shape[-1], hidden)]


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
    """Rows of W_x and b (axis -2 and -1) that a direction reads: a direction
    that runs one step starts from c_prev = 0, so it never reads its forget
    gate."""
    return slice(cell.hidden_size if one_step else 0, None)


def _step_major(n_lead: int, n_outer: int = 1) -> tuple[int, ...]:
    """Axis order that takes (*lead, B, *outer, K), with n_lead leading and
    n_outer outer axes, to (*outer, *lead, B, K): a batch-major (..., B, T,
    K) to a step buffer (T, ..., B, K), and (..., B, T, G, H) or one step's
    (..., B, G, H) to the gate layout."""
    first = n_lead + 1
    return (*range(first, first + n_outer), *range(first), first + n_outer)


def _batch_major(n_lead: int) -> tuple[int, ...]:
    """Axis order that takes (S, *lead, B, K) to (*lead, B, S, K): a step
    buffer back to batch-major, or one step's gates (G, ..., B, H) to rows
    (..., B, G, H)."""
    return (*range(1, n_lead + 2), 0, n_lead + 2)


def _sequence_forward(cell: LstmCellParams, xs: np.ndarray) -> tuple[np.ndarray, dict]:
    """Batched LSTM over xs (..., B, T, F) from zero initial state, with one
    set of cell weights per leading index.

    f, i, o are sigmoid gates and c_tilde the tanh candidate, all computed on
    x @ W_x.T + h_prev @ W_h.T + b; then c = f*c_prev + i*c_tilde and
    h = o*tanh(c). The input product of every step is hoisted out of the
    recurrence as one (B*T, F) @ W_x.T product (Appleyard, Kocisky & Blunsom
    2016, arXiv:1604.01946); the recurrent product h_prev @ W_h.T is added
    from t = 1 on, since h_0 = 0. At T = 1, c_prev = 0, so the forget gate
    is left out and only the i, c, o rows W_x[H:] and b[H:] are projected.

    The steps run over step buffers: gates (T, G, ..., B, H), with G = 4
    gates f, i, c, o or G = 3 at T = 1, and c, tanh(c) and h (T, ..., B, H).
    The gate axis sits outside the leading axes, so every per-gate pass of a
    step reads one C-contiguous (..., B, H) block, which NumPy walks in one
    run rather than row by row. The products keep batch-major rows: the input
    product is transposed into the gate buffer once, and each recurrent
    product is added through a transposed view. Returns hs (..., B, T, H), a
    view of the h buffer, and the cache for _sequence_backward: the inputs
    and the step buffers "gates" (activated), "c", "tanh_c" and "h".
    """
    *lead, batch, steps, n_in = xs.shape
    n_lead, hidden = len(lead), cell.hidden_size
    rows = _trained_rows(cell, steps == 1)
    projected = xs.reshape(*lead, batch * steps, n_in) @ cell.W_x[..., rows, :].swapaxes(-1, -2)
    projected += cell.b[..., None, rows]
    n_gates = projected.shape[-1] // hidden
    gates = np.empty((steps, n_gates, *lead, batch, hidden))
    gates[...] = projected.reshape(*lead, batch, steps, n_gates, hidden).transpose(
        _step_major(n_lead, 2))  # pre-activations
    hs, cs, tanh_cs = (np.empty((steps, *lead, batch, hidden)) for _ in range(3))
    W_hT, to_gates = cell.W_h.swapaxes(-1, -2), _step_major(n_lead)
    by_gate = (*lead, batch, n_gates, hidden)  # a recurrent product's rows, split per gate
    for t in range(steps):
        a = gates[t]
        if t:
            a += (hs[t - 1] @ W_hT).reshape(by_gate).transpose(to_gates)
        # every gate through the sigmoid in four contiguous passes, then the
        # candidate block replaced by the tanh of its pre-activation
        candidate = np.tanh(a[-2])
        _gate_sigmoid(a)
        a[-2] = candidate
        c = cs[t]
        np.multiply(a[-3], candidate, out=c)
        if t:
            c += a[0] * cs[t - 1]
        np.tanh(c, out=tanh_cs[t])
        np.multiply(a[-1], tanh_cs[t], out=hs[t])
    return hs.transpose(_batch_major(n_lead)), {
        "xs": xs, "gates": gates, "c": cs, "tanh_c": tanh_cs, "h": hs}


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
    cell: LstmCellParams, cache: dict, d_hs: np.ndarray, need_dx: bool = True,
    out: LstmCellParams | None = None,
) -> tuple[dict[str, np.ndarray], np.ndarray | None]:
    """BPTT through one direction, or through stacked ones, given upstream
    d_hs (..., B, T, H); a transposed view of a (T, ..., B, H) buffer gives
    the recurrence contiguous steps.

    The recurrence only carries the pre-activation gradients da back through
    h. Each step's da is formed in one (G, ..., B, H) block laid out like a
    step of the forward's gates, so each per-gate pass runs on contiguous
    memory, and is then copied once into its batch-major rows of a (..., B,
    T, G*H) array. Those rows feed that step's da @ W_h, and dW_x, dW_h, db
    and the input gradient are one product each over all steps, so every
    product takes batch-major rows. dW_h sums da_t^T h_{t-1} over t >= 1, so
    it is exactly zero at T = 1 and is formed only for T > 1. At T = 1 the
    forget gate was never computed, so da has 3H columns and dW_x (3H, F)
    and db (3H,) cover the rows W_x[H:] and b[H:]. The gradients are written
    into the trained rows of out's arrays, shaped like cell's, or of new
    ones. Returns those views and the gradient w.r.t. the inputs (..., B, T,
    F), or None for it when need_dx is False.
    """
    *lead, batch, steps, hidden = d_hs.shape
    n_lead = len(lead)
    gates, cs, tanh_cs = cache["gates"], cache["c"], cache["tanh_c"]
    n_gates = gates.shape[1]
    d_hs = d_hs.transpose(_step_major(n_lead))
    # step t's da is formed in d, laid out like gates[t], then copied into
    # its batch-major rows da_rows[..., t, :, :]
    d = np.empty(gates.shape[1:])
    da_rows = np.empty((*lead, batch, steps, n_gates, hidden))
    to_rows, slope = _batch_major(n_lead), np.empty((*lead, batch, hidden))
    for t in range(steps - 1, -1, -1):
        g, tanh_c = gates[t], tanh_cs[t]
        last = t == steps - 1  # no later step sends gradient back yet

        dh = d_hs[t] if last else d_hs[t] + dh_next
        # dc = dc_next + dh * o * (1 - tanh(c)^2)
        dc = dh * g[-1]
        dc *= _tanh_slope(tanh_c, slope)
        if not last:
            dc += dc_next
        # back through the gate nonlinearities to pre-activations: every
        # gate's sigmoid slope, then c_tilde's tanh slope over its block
        _sigmoid_slope(g, d)
        _tanh_slope(g[-2], d[-2])
        d[-1] *= dh
        d[-1] *= tanh_c
        # f (when present), i and c_tilde take dc; then i takes c_tilde and
        # c_tilde takes i, and f takes c_prev
        d[:-1] *= dc
        d[-3:-1] *= g[-2:-4:-1]
        if n_gates == 4:
            d[0] *= cs[t - 1] if t else 0.0
        step_rows = da_rows[..., t, :, :]
        step_rows[...] = d.transpose(to_rows)
        if t:
            dc_next = dc * g[0]
            dh_next = step_rows.reshape(*lead, batch, -1) @ cell.W_h

    if out is None:
        out = LstmCellParams(*(np.empty_like(a) for a in (cell.W_x, cell.W_h, cell.b)))
    rows = _trained_rows(cell, steps == 1)
    xs = cache["xs"]
    n_in = xs.shape[-1]
    da_flat = da_rows.reshape(*lead, batch * steps, -1)
    grads = {"W_x": np.matmul(da_flat.swapaxes(-1, -2), xs.reshape(*lead, batch * steps, n_in),
                              out=out.W_x[..., rows, :])}
    if steps > 1:
        h_prev = cache["h"][:-1].transpose(_batch_major(n_lead))
        grads["W_h"] = np.matmul(da_rows[..., 1:, :, :].reshape(*lead, -1, 4 * hidden).swapaxes(-1, -2),
                                 h_prev.reshape(*lead, -1, hidden), out=out.W_h)
    grads["b"] = np.add.reduce(da_flat, axis=-2, out=out.b[..., rows])
    if not need_dx:
        return grads, None
    return grads, (da_flat @ cell.W_x[..., rows, :]).reshape(*lead, batch, steps, n_in)


class SequenceNetwork:
    """Bi-LSTM (hidden1) -> dropout -> Bi-LSTM (hidden2) -> dropout ->
    last timestep -> dense ReLU -> dropout -> logits.

    Dropout is inverted (masks scaled by 1/keep at train time) so eval mode
    is a plain pass-through. Only the final fused timestep of the second
    Bi-LSTM feeds the dense layer, so its backward direction l2b runs just
    the one step over the last input.

    Every weight is a view of the vector arena. Layer 1 is the stacked cell
    l1, whose directions l1f and l1b are its views [0] and [1]. The arena
    starts with l2b's b and W_x, whose forget rows are never trained, and
    ends with the W_h of l1, l2f and l2b, which one-step sequences leave
    untrained: so at T >= 2 the trained part is two contiguous runs, and a
    gradient vector, which stops at the last trained coordinate, never holds
    an untrained W_h.
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
        h1, h2 = hidden1, hidden2
        shapes = {  # arena order
            "l2b.b": (4 * h2,), "l2b.W_x": (4 * h2, h1),
            "l1.W_x": (2, 4 * h1, input_size), "l1.b": (2, 4 * h1),
            "l2f.W_x": (4 * h2, h1), "l2f.b": (4 * h2,),
            "dense.W": (dense_units, h2), "dense.b": (dense_units,),
            "head.W": (n_classes, dense_units), "head.b": (n_classes,),
            "l1.W_h": (2, 4 * h1, h1), "l2f.W_h": (4 * h2, h2), "l2b.W_h": (4 * h2, h2),
        }
        self._blocks, stop = {}, 0
        for name, shape in shapes.items():
            start, stop = stop, stop + math.prod(shape)
            self._blocks[name] = (slice(start, stop), shape)
        self._runs: dict[int | None, list[slice]] = {}
        self.arena = np.empty(stop)
        cells, self.dense_w, self.dense_b, self.head_w, self.head_b = self._views(self.arena)
        self.l1, self.l1f, self.l1b, self.l2f, self.l2b = cells
        # drawn in the order l1f, l1b, l2f, l2b, dense, head
        for cell, n_in in ((self.l1f, input_size), (self.l1b, input_size), (self.l2f, h1), (self.l2b, h1)):
            init_lstm_params(cell.hidden_size, n_in, rng, out=cell)
        self.dense_w[...] = _glorot(rng, (dense_units, h2))
        self.dense_b[...] = 0.0
        self.head_w[...] = _glorot(rng, (n_classes, dense_units))
        self.head_b[...] = 0.0

    def _views(self, flat: np.ndarray) -> tuple:
        """The network's tensors as views of flat, the arena or a vector laid
        out like its start: the cells (l1, l1f, l1b, l2f, l2b), then dense.W,
        dense.b, head.W and head.b. A tensor past the end of flat is a
        read-only view of zeros."""
        v = {name: flat[sl].reshape(shape) if sl.stop <= flat.size else np.broadcast_to(0.0, shape)
             for name, (sl, shape) in self._blocks.items()}
        l1 = LstmCellParams(v["l1.W_x"], v["l1.W_h"], v["l1.b"])
        l1f, l1b = (LstmCellParams(l1.W_x[d], l1.W_h[d], l1.b[d]) for d in (0, 1))
        l2f, l2b = (LstmCellParams(v[f"{p}.W_x"], v[f"{p}.W_h"], v[f"{p}.b"]) for p in ("l2f", "l2b"))
        return (l1, l1f, l1b, l2f, l2b), v["dense.W"], v["dense.b"], v["head.W"], v["head.b"]

    @staticmethod
    def _named(views: tuple, steps: int | None) -> dict[str, np.ndarray]:
        """params(steps) over views, a result of _views."""
        (_, *cells), dense_w, dense_b, head_w, head_b = views
        out: dict[str, np.ndarray] = {}
        for prefix, cell in zip(("l1f", "l1b", "l2f", "l2b"), cells):
            one_step = steps is not None and (steps == 1 or prefix == "l2b")
            rows = _trained_rows(cell, one_step)
            out[f"{prefix}.W_x"] = cell.W_x[rows]
            if not one_step:
                out[f"{prefix}.W_h"] = cell.W_h
            out[f"{prefix}.b"] = cell.b[rows]
        out.update({"dense.W": dense_w, "dense.b": dense_b, "head.W": head_w, "head.b": head_b})
        return out

    def params(self, steps: int | None = None) -> dict[str, np.ndarray]:
        """Live views of the tensors trained at sequence length steps, keyed
        by a stable name. A direction that runs one step (all four at
        steps == 1, and l2b at every steps) reads neither its W_h (h_0 = 0)
        nor its forget gate (c_prev = 0): its W_h is left out, and its W_x
        and b are the views W_x[H:] and b[H:] of the i, c, o rows. An
        optimizer stepping these params leaves the unread weights at their
        initial values (AdamW does not decay them). With steps omitted, every
        tensor is returned whole."""
        return self._named(self._views(self.arena), steps)

    def segments(self, steps: int | None = None, grads: dict[str, np.ndarray] | None = None
                 ) -> dict[str, np.ndarray]:
        """The arena, or the vector under grads (a network_backward result at
        sequence length steps), cut to the maximal contiguous runs that
        params(steps) covers, as 1-D views keyed "arena[start:stop]". Two
        runs at steps >= 2; an optimizer stepping them updates the same
        coordinates as one stepping the tensors."""
        runs = self._trained_runs(steps)
        flat = self.arena if grads is None else next(iter(grads.values())).base
        if flat is None or flat.ndim != 1 or flat.size < runs[-1].stop:
            raise ValueError("grads must be views of a network_backward vector of this network")
        return {f"arena[{s.start}:{s.stop}]": flat[s] for s in runs}

    def _trained_runs(self, steps: int | None) -> list[slice]:
        """The maximal runs of arena coordinates that params(steps) covers,
        found from the addresses of its (C-contiguous) views."""
        if steps not in self._runs:
            base, runs = self.arena.__array_interface__["data"][0], []
            for view in sorted(self.params(steps).values(), key=lambda v: v.__array_interface__["data"][0]):
                start = (view.__array_interface__["data"][0] - base) // view.itemsize
                if runs and runs[-1].stop == start:
                    runs[-1] = slice(runs[-1].start, start + view.size)
                else:
                    runs.append(slice(start, start + view.size))
            self._runs[steps] = runs
        return self._runs[steps]


def _dropout_mask(rng: SeededRng, shape: tuple[int, ...], rate: float) -> np.ndarray:
    return np.where(rng.random(shape) >= rate, 1.0 / (1.0 - rate), 0.0)


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

    # layer 1 reads the input and its time reverse as one stacked sequence
    xs1 = np.empty((2, *xs.shape))
    xs1[0] = xs
    xs1[1] = xs[:, ::-1]
    hs1, cache1 = _sequence_forward(net.l1, xs1)
    seq1 = np.add(hs1[0], hs1[1, :, ::-1], order="C")
    mask1 = _dropout_mask(rng, seq1.shape, net.dropout_rate) if dropping else None
    if dropping:
        seq1 *= mask1

    # the dense layer reads only the last fused step, where the backward
    # direction has read seq1[:, -1] alone, so l2b runs that one step
    hs2f, cache2f = _sequence_forward(net.l2f, seq1)
    hs2b, cache2b = _sequence_forward(net.l2b, seq1[:, -1:])
    pooled = hs2f[:, -1] + hs2b[:, 0]
    # mask2 is drawn over every step although only the last is used: a
    # smaller draw would shift every later mask and batch, so every run
    mask2 = _dropout_mask(rng, hs2f.shape, net.dropout_rate)[:, -1] if dropping else None
    if dropping:
        pooled *= mask2

    pre = pooled @ net.dense_w.T + net.dense_b
    act_d = np.maximum(pre, 0.0)
    mask3 = _dropout_mask(rng, act_d.shape, net.dropout_rate) if dropping else None
    if dropping:
        act_d *= mask3

    logits = act_d @ net.head_w.T + net.head_b
    cache = {
        "xs_shape": xs.shape, "l1": cache1, "l2f": cache2f, "l2b": cache2b,
        "mask1": mask1, "mask2": mask2, "mask3": mask3, "pre": pre, "pooled": pooled, "act_d": act_d,
    }
    return logits, cache


def network_backward(net: SequenceNetwork, cache: dict, d_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Exact gradients for the parameters of net.params(T), T the cached
    sequence length, given d(loss)/d(logits).

    The gradients are views of one new vector laid out like net.arena up to
    its last coordinate trained at T, and 0 at the untrained ones before it;
    net.segments(T, grads) cuts it into the runs the optimizer streams.
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

    views = net._views(np.zeros(net._trained_runs(steps)[-1].stop))
    (g1, _, _, g2f, g2b), g_dense_w, g_dense_b, g_head_w, g_head_b = views
    np.matmul(d_logits.T, cache["act_d"], out=g_head_w)
    np.add.reduce(d_logits, axis=0, out=g_head_b)
    d_act = d_logits @ net.head_w

    if cache["mask3"] is not None:
        d_act *= cache["mask3"]
    d_pre = d_act * (cache["pre"] > 0.0)

    np.matmul(d_pre.T, cache["pooled"], out=g_dense_w)
    np.add.reduce(d_pre, axis=0, out=g_dense_b)
    d_fused2 = d_pre @ net.dense_w

    # additive fusion sends the upstream gradient to both directions intact
    if cache["mask2"] is not None:
        d_fused2 *= cache["mask2"]
    # upstream gradients are held time-major, as the recurrences read them
    d_hs2f = np.zeros((steps, batch, net.l2f.hidden_size))
    d_hs2f[-1] = d_fused2
    _, d_seq1 = _sequence_backward(net.l2f, cache["l2f"], d_hs2f.swapaxes(0, 1), out=g2f)
    _, d_last = _sequence_backward(net.l2b, cache["l2b"], d_fused2[:, None], out=g2b)
    d_seq1[:, -1] += d_last[:, 0]

    # layer 1's stacked upstream: the fused gradient and its time reverse;
    # the network input needs no gradient, so layer 1 skips its da @ W_x
    d_fused1 = np.empty((steps, 2, batch, d_seq1.shape[-1])).transpose(_batch_major(1))
    if cache["mask1"] is not None:
        np.multiply(d_seq1, cache["mask1"], out=d_fused1[0])
    else:
        d_fused1[0] = d_seq1
    d_fused1[1] = d_fused1[0, :, ::-1]
    _sequence_backward(net.l1, cache["l1"], d_fused1, need_dx=False, out=g1)
    # keys in backward order, head first: a per-tensor norm sums them so
    grads = net._named(views, steps)
    return {k: grads.pop(k) for k in ("head.W", "head.b", "dense.W", "dense.b")} | grads
