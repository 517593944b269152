"""The network's forward and backward passes one LSTM direction at a time.

This is the per-direction implementation the stacked network replaced: each
layer-1 direction runs its own recurrence over its own copy of the input,
tanh(c) is recomputed in the backward pass, the zero state is added in, and
dropout masks are built by compare, cast and divide. It reads the weights of
a SequenceNetwork through its l1f, l1b, l2f and l2b cells, so the tests can
check the stacked network against it bit for bit.
"""

import numpy as np

from dbsadam.models import _gate_blocks, _gate_sigmoid, _sigmoid_slope, _tanh_slope, _trained_rows


def sequence_forward(cell, xs):
    batch, steps, n_in = xs.shape
    hidden = cell.hidden_size
    rows = _trained_rows(cell, steps == 1)
    gates = xs.reshape(batch * steps, n_in) @ cell.W_x[rows].T
    gates += cell.b[rows]
    gates = gates.reshape(batch, steps, -1)
    hs = np.empty((batch, steps, hidden))
    cs = np.empty((batch, steps, hidden))
    for t in range(steps):
        a = gates[:, t]
        if t:
            a += hs[:, t - 1] @ cell.W_h.T
        *f, i, c_tilde, o = _gate_blocks(a, hidden)
        _gate_sigmoid(a[:, : -2 * hidden])
        _gate_sigmoid(o)
        np.tanh(c_tilde, out=c_tilde)
        c, h = cs[:, t], hs[:, t]
        np.multiply(i, c_tilde, out=c)
        if t:
            c += f[0] * cs[:, t - 1]
        np.tanh(c, out=h)
        h *= o
    return hs, {"xs": xs, "gates": gates, "c": cs, "h": hs}


def sequence_backward(cell, cache, d_hs, need_dx=True):
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
        dc = dh * o
        dc *= _tanh_slope(tanh_c, da_c)
        dc += dc_next
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


def dropout_mask(rng, shape, rate):
    keep = 1.0 - rate
    return (rng.uniform(size=shape) >= rate).astype(np.float64) / keep


def network_forward(net, xs, mode="eval", rng=None):
    xs = np.asarray(xs, dtype=np.float64)
    dropping = mode == "train" and net.dropout_rate > 0.0
    hs1f, cache1f = sequence_forward(net.l1f, xs)
    hs1b, cache1b = sequence_forward(net.l1b, xs[:, ::-1].copy())
    fused1 = hs1f + hs1b[:, ::-1]
    mask1 = dropout_mask(rng, fused1.shape, net.dropout_rate) if dropping else None
    seq1 = fused1 * mask1 if dropping else fused1
    hs2f, cache2f = sequence_forward(net.l2f, seq1)
    hs2b, cache2b = sequence_forward(net.l2b, seq1[:, -1:])
    fused2 = hs2f[:, -1] + hs2b[:, 0]
    mask2 = dropout_mask(rng, hs2f.shape, net.dropout_rate)[:, -1] if dropping else None
    pooled = fused2 * mask2 if dropping else fused2
    pre = pooled @ net.dense_w.T + net.dense_b
    act = np.maximum(pre, 0.0)
    mask3 = dropout_mask(rng, act.shape, net.dropout_rate) if dropping else None
    act_d = act * mask3 if dropping else act
    logits = act_d @ net.head_w.T + net.head_b
    cache = {
        "xs_shape": xs.shape, "l1f": cache1f, "l1b": cache1b, "l2f": cache2f, "l2b": cache2b,
        "mask1": mask1, "mask2": mask2, "mask3": mask3, "pre": pre, "pooled": pooled, "act_d": act_d,
    }
    return logits, cache


def network_backward(net, cache, d_logits):
    batch, steps = cache["xs_shape"][:2]
    grads = {"head.W": d_logits.T @ cache["act_d"], "head.b": d_logits.sum(axis=0)}
    d_act_d = d_logits @ net.head_w
    d_act = d_act_d * cache["mask3"] if cache["mask3"] is not None else d_act_d
    d_pre = d_act * (cache["pre"] > 0.0)
    grads["dense.W"] = d_pre.T @ cache["pooled"]
    grads["dense.b"] = d_pre.sum(axis=0)
    d_pooled = d_pre @ net.dense_w
    d_fused2 = d_pooled * cache["mask2"] if cache["mask2"] is not None else d_pooled
    d_hs2f = np.zeros((batch, steps, net.l2f.hidden_size))
    d_hs2f[:, -1] = d_fused2
    g2f, d_seq1 = sequence_backward(net.l2f, cache["l2f"], d_hs2f)
    g2b, d_last = sequence_backward(net.l2b, cache["l2b"], d_fused2[:, None])
    d_seq1[:, -1] += d_last[:, 0]
    d_fused1 = d_seq1 * cache["mask1"] if cache["mask1"] is not None else d_seq1
    g1f, _ = sequence_backward(net.l1f, cache["l1f"], d_fused1, need_dx=False)
    g1b, _ = sequence_backward(net.l1b, cache["l1b"], d_fused1[:, ::-1].copy(), need_dx=False)
    for prefix, cell_grads in (("l1f", g1f), ("l1b", g1b), ("l2f", g2f), ("l2b", g2b)):
        for name, arr in cell_grads.items():
            grads[f"{prefix}.{name}"] = arr
    return grads
