import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbsadam.losses import LossConfig, loss_gradient, loss_value, one_hot, softmax
from dbsadam.models import (
    LstmCellParams,
    SequenceNetwork,
    _glorot,
    _sequence_backward,
    _sequence_forward,
    init_lstm_params,
    network_backward,
    network_forward,
)
from dbsadam.numerics import SeededRng, finite_difference_gradient
from flat_params import embed_gradients, flatten_arrays, unflatten_arrays


def zero_cell(hidden, inputs):
    return LstmCellParams(np.zeros((4 * hidden, inputs)), np.zeros((4 * hidden, hidden)), np.zeros(4 * hidden))


def random_cell(hidden, inputs, seed):
    return init_lstm_params(hidden, inputs, SeededRng(seed))


def oracle_cell_step(params, h_prev, c_prev, x):
    # literal transcription of the gate equations on row blocks of the
    # weights stacked over [h_prev, x], kept independent of the
    # implementation under test
    hidden = h_prev.shape[0]
    W = np.hstack([params.W_h, params.W_x])
    W_f, W_i, W_c, W_o = (W[g * hidden:(g + 1) * hidden] for g in range(4))
    b_f, b_i, b_c, b_o = (params.b[g * hidden:(g + 1) * hidden] for g in range(4))
    z = np.concatenate([h_prev, x])
    f = 1.0 / (1.0 + np.exp(-(W_f @ z + b_f)))
    i = 1.0 / (1.0 + np.exp(-(W_i @ z + b_i)))
    c_tilde = np.tanh(W_c @ z + b_c)
    o = 1.0 / (1.0 + np.exp(-(W_o @ z + b_o)))
    c = f * c_prev + i * c_tilde
    h = o * np.tanh(c)
    return h, c


def oracle_sequence(params, xs):
    # unrolled oracle from zero state: hidden and cell states per timestep
    hidden = params.b.shape[0] // 4
    h, c = np.zeros(hidden), np.zeros(hidden)
    hs, cs = [], []
    for x in xs:
        h, c = oracle_cell_step(params, h, c, x)
        hs.append(h)
        cs.append(c)
    return np.array(hs), np.array(cs)


def forward_only(cell, xs):
    # the batched path over one sequence (T, F): its hidden states (T, H)
    return _sequence_forward(cell, np.asarray(xs, dtype=np.float64)[None])[0][0]


class TestLstmCell:
    def test_all_zero_parameters(self):
        cell = zero_cell(3, 2)
        _, cache = _sequence_forward(cell, np.zeros((1, 1, 2)))
        # one step from c_prev = 0: the forget gate is not computed
        i, c_tilde, o = np.split(cache["gates"][:, 0], 3, axis=1)
        for g in (i, o):
            assert np.allclose(g, 0.5)
        assert np.allclose(c_tilde, 0.0)
        assert np.allclose(cache["c"][:, 0], 0.0)
        assert np.allclose(forward_only(cell, np.zeros((1, 2))), 0.0)

    def test_zero_weights_nonzero_cell_state(self):
        # zero weights put every sigmoid gate at 0.5, so with candidate
        # bias b_c the cell state follows c_t = 0.5 c_{t-1} + 0.5 tanh(b_c)
        cell = zero_cell(2, 2)
        cell.b[4:6] = [0.8, -1.2]
        out = forward_only(cell, np.zeros((5, 2)))
        c = np.zeros(2)
        for t in range(5):
            c = 0.5 * c + 0.5 * np.tanh(cell.b[4:6])
            assert np.allclose(out[t], 0.5 * np.tanh(c), atol=1e-15)

    def test_matches_straight_line_oracle(self):
        rng = SeededRng(21)
        for seed in range(5):
            cell = random_cell(3, 4, seed)
            for steps in range(1, 6):
                xs = rng.normal(size=(steps, 4))
                h_ref, _ = oracle_sequence(cell, xs)
                assert np.allclose(forward_only(cell, xs), h_ref, atol=1e-12)

    def test_gate_ranges_and_hidden_bound(self):
        cell = random_cell(4, 3, 7)
        # one step caches i, c, o only; more steps cache f, i, c, o
        for steps, n_gates in ((20, 4), (1, 3)):
            xs = SeededRng(22).normal(size=(1, steps, 3)) * 3
            hs, cache = _sequence_forward(cell, xs)
            assert cache["gates"].shape == (1, steps, 4 * n_gates)
            *sigmoid_gates, _, o = np.split(cache["gates"], n_gates, axis=2)
            for g in (*sigmoid_gates, o):
                assert np.all((g > 0) & (g < 1))
            assert np.all(np.abs(hs) < 1)
            assert np.all(np.isfinite(cache["c"]))


def tiny_network(seed, dropout=0.0, **kwargs):
    defaults = dict(input_size=3, n_classes=3, hidden1=3, hidden2=2, dense_units=4)
    defaults.update(kwargs)
    return SequenceNetwork(dropout_rate=dropout, rng=SeededRng(seed), **defaults)


class TestNetworkForward:
    def test_eval_mode_ignores_rng(self):
        net = tiny_network(1, dropout=0.5)
        xs = SeededRng(2).normal(size=(2, 4, 3))
        a, _ = network_forward(net, xs, mode="eval")
        b, _ = network_forward(net, xs, mode="eval", rng=SeededRng(99))
        assert np.array_equal(a, b)

    def test_train_with_zero_rate_equals_eval(self):
        net = tiny_network(1, dropout=0.0)
        xs = SeededRng(2).normal(size=(2, 4, 3))
        train_logits, _ = network_forward(net, xs, mode="train", rng=SeededRng(5))
        eval_logits, _ = network_forward(net, xs, mode="eval")
        assert np.array_equal(train_logits, eval_logits)

    def test_same_seed_same_masks(self):
        net = tiny_network(1, dropout=0.4)
        xs = SeededRng(2).normal(size=(2, 4, 3))
        a, _ = network_forward(net, xs, mode="train", rng=SeededRng(7))
        b, _ = network_forward(net, xs, mode="train", rng=SeededRng(7))
        assert np.array_equal(a, b)

    def test_train_mode_requires_rng(self):
        net = tiny_network(1, dropout=0.4)
        with pytest.raises(ValueError, match="rng"):
            network_forward(net, np.zeros((1, 2, 3)), mode="train")

    def test_width_mismatch_rejected(self):
        net = tiny_network(1)
        with pytest.raises(ValueError):
            network_forward(net, np.zeros((1, 2, 5)))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            network_forward(tiny_network(1), np.zeros((2, 0, 3)))

    @pytest.mark.parametrize("steps", [1, 2, 4])
    def test_eval_logits_match_unrolled_oracle(self, steps):
        # both layers as full bidirectional layers from the unrolled oracle,
        # fused by addition; the last fused step of layer 2 then goes
        # through the dense ReLU and the head
        net = tiny_network(26)
        xs = SeededRng(77).normal(size=(4, steps, 3))

        def bilstm(fwd, bwd, seq):
            return oracle_sequence(fwd, seq)[0] + oracle_sequence(bwd, seq[::-1])[0][::-1]

        last = np.array([bilstm(net.l2f, net.l2b, bilstm(net.l1f, net.l1b, x))[-1] for x in xs])
        act = np.maximum(last @ net.dense_w.T + net.dense_b, 0.0)
        assert np.any(act > 0.0)
        logits, _ = network_forward(net, xs)
        assert np.max(np.abs(logits - (act @ net.head_w.T + net.head_b))) < 1e-12


def clear_relu_kinks(net, xs, mode="eval", mask_seed=0, margin=1e-3):
    # a central difference whose step straddles the dense ReLU's kink at 0
    # averages its two slopes and disagrees with the exact one-sided
    # gradient; shift each dense unit's bias by the smallest multiple of
    # 2 * margin that keeps every pre-activation at least margin from 0, so
    # the check runs where the loss is differentiable
    rng = SeededRng(mask_seed) if mode == "train" else None
    _, cache = network_forward(net, xs, mode=mode, rng=rng)
    for j, column in enumerate(cache["pre"].T):
        candidates = (sign * k * 2.0 * margin for k in range(column.size + 1) for sign in (1.0, -1.0))
        net.dense_b[j] += next(d for d in candidates if np.all(np.abs(column + d) >= margin))


def gradient_check(net, xs, labels, loss_config, mode="eval", mask_seed=0, tol=1e-5):
    clear_relu_kinks(net, xs, mode, mask_seed)
    params = net.params()
    flat, layout = flatten_arrays(params)

    def assign(theta):
        values = unflatten_arrays(theta, layout)
        for k in params:
            params[k][...] = values[k]

    def f(theta):
        assign(theta)
        rng = SeededRng(mask_seed) if mode == "train" else None
        logits, _ = network_forward(net, xs, mode=mode, rng=rng)
        return loss_value(loss_config, softmax(logits), labels)

    base = flat.copy()
    numeric = finite_difference_gradient(f, base, h=1e-5)
    assign(base)
    rng = SeededRng(mask_seed) if mode == "train" else None
    logits, cache = network_forward(net, xs, mode=mode, rng=rng)
    grads = network_backward(net, cache, loss_gradient(loss_config, logits, labels))
    assert grads.keys() == net.params(xs.shape[1]).keys()
    # every tensor is perturbed whole; a coordinate no analytic gradient
    # covers (every W_h at T = 1, l2b's at any T, and the forget rows of a
    # one-step direction, whose gradient covers only W_x[H:] and b[H:]) must
    # have a numeric derivative of exactly 0
    analytic, untrained = embed_gradients(params, grads)
    assert np.all(numeric[untrained] == 0.0)
    # scaled residual: < 1e-5 iff |a - n| < 1e-8 + 1e-5 * max(|a|, |n|); the
    # absolute escape covers coordinates below the h=1e-5 central-difference
    # noise floor (~1e-11) where a pure ratio is meaningless
    denom = np.maximum(np.abs(numeric), np.abs(analytic)) + 1e-3
    return float(np.max(np.abs(analytic - numeric) / denom))


class TestNetworkBackward:
    def test_gradients_match_finite_differences(self):
        labels = one_hot(np.array([0, 2]), 3)
        for seed, config in [
            (1, LossConfig()),
            (2, LossConfig(weight=0.25, gamma=2.0)),
            (3, LossConfig(weight=np.array([0.5, 1.5, 2.0]))),
        ]:
            net = tiny_network(seed)
            xs = SeededRng(seed + 50).normal(size=(2, 4, 3))
            assert gradient_check(net, xs, labels, config) < 1e-5

    def test_gradients_through_dropout_masks(self):
        # fixed mask seed makes the dropped network a deterministic function,
        # so central differences remain valid through the masks
        net = tiny_network(4, dropout=0.4)
        xs = SeededRng(60).normal(size=(2, 3, 3))
        labels = one_hot(np.array([1, 0]), 3)
        err = gradient_check(net, xs, labels, LossConfig(),
                             mode="train", mask_seed=13)
        assert err < 1e-5

    def test_zero_upstream_gives_zero_gradients(self):
        net = tiny_network(6)
        xs = SeededRng(62).normal(size=(2, 4, 3))
        _, cache = network_forward(net, xs)
        grads = network_backward(net, cache, np.zeros((2, 3)))
        assert all(np.all(g == 0) for g in grads.values())

    def test_duplicated_batch_equals_single_sample(self):
        # mean reduction: gradients of [x, x] equal gradients of [x]
        net = tiny_network(7)
        x = SeededRng(63).normal(size=(1, 4, 3))
        xs = np.concatenate([x, x], axis=0)
        config = LossConfig()
        logits1, cache1 = network_forward(net, x)
        g1 = network_backward(net, cache1, loss_gradient(config, logits1, one_hot(np.array([1]), 3)))
        logits2, cache2 = network_forward(net, xs)
        g2 = network_backward(net, cache2, loss_gradient(config, logits2, one_hot(np.array([1, 1]), 3)))
        for k in g1:
            assert np.allclose(g1[k], g2[k], atol=1e-12)

    @pytest.mark.parametrize("steps", [1, 2])
    def test_gradients_match_finite_differences_at_paper_step_counts(self, steps):
        # the paper trains on single-step rows; T = 2 is the desk benchmark
        labels = one_hot(np.array([0, 2, 1]), 3)
        for seed, config in [
            (21, LossConfig()),
            (22, LossConfig(weight=0.25, gamma=2.0)),
        ]:
            net = tiny_network(seed)
            xs = SeededRng(seed + 50).normal(size=(3, steps, 3))
            assert gradient_check(net, xs, labels, config) < 1e-5

    def test_recurrent_weights_do_not_reach_one_step_logits(self):
        # h_0 = 0, so a direction that runs one step never reads its W_h:
        # perturbing every W_h leaves T = 1 logits bit-identical in both
        # modes, and perturbing l2b's, which runs one step at any T, leaves
        # the T = 2 and T = 3 logits so
        net = tiny_network(23, dropout=0.3)
        for steps, prefixes in ((1, ("l1f", "l1b", "l2f", "l2b")), (2, ("l2b",)), (3, ("l2b",))):
            xs = SeededRng(73).normal(size=(4, steps, 3))
            before = [network_forward(net, xs, mode=m, rng=SeededRng(3))[0] for m in ("train", "eval")]
            for prefix in prefixes:
                getattr(net, prefix).W_h[...] += SeededRng(74).normal(size=getattr(net, prefix).W_h.shape)
            after = [network_forward(net, xs, mode=m, rng=SeededRng(3))[0] for m in ("train", "eval")]
            for a, b in zip(before, after):
                assert np.array_equal(a, b), steps

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_gradient_keys_are_the_trained_params(self, steps):
        from dbsadam.optimizers import OptimizerConfig, OptimizerState, adamw_step

        net = tiny_network(24, dropout=0.3)
        xs = SeededRng(75).normal(size=(2, steps, 3))
        logits, cache = network_forward(net, xs, mode="train", rng=SeededRng(4))
        grads = network_backward(net, cache, np.ones_like(logits))
        params = net.params(steps)
        assert grads.keys() == params.keys()
        assert all(grads[k].shape == p.shape for k, p in params.items())
        trained_w_h = {k for k in grads if k.endswith(".W_h")}
        assert trained_w_h == ({"l1f.W_h", "l1b.W_h", "l2f.W_h"} if steps > 1 else set())
        assert len(net.params()) == 16
        # a one-step direction trains its i, c, o rows through views of the
        # full tensors, and never moves its forget rows
        one_step = ("l1f", "l1b", "l2f", "l2b") if steps == 1 else ("l2b",)
        partial = {f"{prefix}.{name}" for prefix in one_step for name in ("W_x", "b")}
        full = net.params()
        for k, p in params.items():
            assert np.shares_memory(p, full[k]) and p.flags.c_contiguous, k
            rows = full[k].shape[0]
            assert p.shape == ((3 * rows // 4, *full[k].shape[1:]) if k in partial else full[k].shape), k
        forget = {k: full[k][: full[k].shape[0] // 4].copy() for k in partial}
        state = OptimizerState(params)
        for seed in range(10):
            logits, cache = network_forward(net, xs, mode="train", rng=SeededRng(seed))
            adamw_step(params, network_backward(net, cache, np.ones_like(logits)), state, OptimizerConfig())
        for k, rows in forget.items():
            assert np.array_equal(full[k][: rows.shape[0]], rows), k
        assert not np.array_equal(net.l2b.W_x, tiny_network(24).l2b.W_x)

    def test_forget_rows_are_never_read_in_one_step_directions(self):
        # c_prev = 0 in a direction that runs one step, so NaN in its forget
        # rows of W_x and b must leave the logits and every gradient
        # bit-equal, in both modes: all four directions at T = 1, and l2b,
        # which runs one step at any T, at T = 2 and T = 3
        labels = one_hot(np.array([0, 2, 1, 1]), 3)
        config = LossConfig(weight=0.25, gamma=2.0)
        for steps, prefixes in ((1, ("l1f", "l1b", "l2f", "l2b")), (2, ("l2b",)), (3, ("l2b",))):
            xs = SeededRng(79).normal(size=(4, steps, 3))
            clean, poisoned = tiny_network(28, dropout=0.3), tiny_network(28, dropout=0.3)
            for prefix in prefixes:
                cell = getattr(poisoned, prefix)
                cell.W_x[: cell.hidden_size] = np.nan
                cell.b[: cell.hidden_size] = np.nan
            for mode in ("train", "eval"):
                results = []
                for net in (clean, poisoned):
                    logits, cache = network_forward(net, xs, mode=mode, rng=SeededRng(5))
                    results.append((logits, network_backward(net, cache, loss_gradient(config, logits, labels))))
                (a, grads_a), (b, grads_b) = results
                assert np.array_equal(a, b), (steps, mode)
                assert grads_a.keys() == grads_b.keys()
                for k in grads_a:
                    assert np.array_equal(grads_a[k], grads_b[k]), (steps, mode, k)

    def test_adamw_leaves_recurrent_weights_at_init_on_one_step_rows(self):
        from dbsadam.optimizers import OptimizerConfig, OptimizerState, adamw_step

        net = tiny_network(25)
        w_h = {k: v.copy() for k, v in net.params().items() if k.endswith(".W_h")}
        params = net.params(1)
        state = OptimizerState(params)
        xs = SeededRng(76).normal(size=(3, 1, 3))
        for _ in range(3):
            logits, cache = network_forward(net, xs)
            adamw_step(params, network_backward(net, cache, np.ones_like(logits)), state, OptimizerConfig())
        for k, v in w_h.items():
            assert np.array_equal(net.params()[k], v), k
        assert not np.array_equal(net.params()["l1f.W_x"], tiny_network(25).l1f.W_x)

    def test_adamw_leaves_l2b_recurrent_weight_at_init_on_two_step_rows(self):
        from dbsadam.optimizers import OptimizerConfig, OptimizerState, adamw_step

        net = tiny_network(27)
        params = net.params(2)
        state = OptimizerState(params)
        xs = SeededRng(78).normal(size=(3, 2, 3))
        for _ in range(3):
            logits, cache = network_forward(net, xs)
            adamw_step(params, network_backward(net, cache, np.ones_like(logits)), state, OptimizerConfig())
        assert np.array_equal(net.l2b.W_h, tiny_network(27).l2b.W_h)
        assert not np.array_equal(net.l2f.W_h, tiny_network(27).l2f.W_h)

    @settings(max_examples=15, deadline=None)
    @given(
        batch=st.integers(1, 3), steps=st.integers(1, 4), inputs=st.integers(1, 3),
        hidden=st.integers(1, 3), seed=st.integers(0, 2**16),
    )
    def test_network_bptt_matches_finite_differences(self, batch, steps, inputs, hidden, seed):
        net = tiny_network(seed, input_size=inputs, hidden1=hidden, hidden2=hidden)
        xs = SeededRng(seed + 1).normal(size=(batch, steps, inputs))
        labels = one_hot(SeededRng(seed + 2).integers(0, 3, size=batch), 3)
        assert gradient_check(net, xs, labels, LossConfig()) < 1e-5

    @settings(max_examples=40, deadline=None)
    @given(
        batch=st.integers(1, 3), steps=st.integers(1, 4), inputs=st.integers(1, 3),
        hidden=st.integers(1, 3), seed=st.integers(0, 2**16),
    )
    def test_sequence_bptt_matches_finite_differences(self, batch, steps, inputs, hidden, seed):
        # one direction, loss = sum(R * hs): checks dW, db and the input
        # gradient, which network_backward does not compute for layer 1
        rng = SeededRng(seed)
        cell = init_lstm_params(hidden, inputs, rng)
        cell.b[:] = rng.normal(size=cell.b.shape)
        xs = rng.normal(size=(batch, steps, inputs))
        upstream = rng.normal(size=(batch, steps, hidden))

        def loss(W_x, W_h, b, x):
            return float(np.sum(upstream * _sequence_forward(LstmCellParams(W_x, W_h, b), x)[0]))

        hs, cache = _sequence_forward(cell, xs)
        grads, dxs = _sequence_backward(cell, cache, upstream)
        skipped, none = _sequence_backward(cell, cache, upstream, need_dx=False)
        assert none is None
        numeric = {
            "W_x": finite_difference_gradient(
                lambda w: loss(w.reshape(cell.W_x.shape), cell.W_h, cell.b, xs), cell.W_x.ravel()),
            "W_h": finite_difference_gradient(
                lambda w: loss(cell.W_x, w.reshape(cell.W_h.shape), cell.b, xs), cell.W_h.ravel()),
            "b": finite_difference_gradient(lambda b: loss(cell.W_x, cell.W_h, b, xs), cell.b),
            "x": finite_difference_gradient(
                lambda x: loss(cell.W_x, cell.W_h, cell.b, x.reshape(xs.shape)), xs.ravel()),
        }
        if steps == 1:
            # no output reads W_h or the forget rows of W_x and b: W_h gets
            # no gradient entry, and dW_x, db cover the rows W_x[H:], b[H:]
            assert "W_h" not in grads and np.all(numeric["W_h"] == 0.0)
            for name, forget in (("W_x", hidden * inputs), ("b", hidden)):
                assert np.all(numeric[name][:forget] == 0.0), name
                numeric[name] = numeric[name][forget:]
        for name, analytic in (*grads.items(), ("x", dxs)):
            assert np.allclose(analytic.ravel(), numeric[name], rtol=1e-6, atol=1e-8), name
        assert skipped.keys() == grads.keys()
        for name in grads:
            assert np.array_equal(skipped[name], grads[name])

    def test_mismatched_cache_rejected(self):
        net = tiny_network(8)
        _, cache = network_forward(net, SeededRng(64).normal(size=(2, 4, 3)))
        with pytest.raises(ValueError, match="cached batch"):
            network_backward(net, cache, np.zeros((5, 3)))


class TestInitialization:
    def test_forget_bias_starts_at_one(self):
        cell = init_lstm_params(4, 3, SeededRng(9))
        assert np.all(cell.b[:4] == 1.0)
        assert np.all(cell.b[4:] == 0.0)

    def test_stacked_rows_are_successive_per_gate_glorot_draws(self):
        # [W_h | W_x] keeps the per-gate draw order (f, i, c, o) and the
        # per-gate limit sqrt(6 / (2H + F)) of four separate matrices
        cell = init_lstm_params(4, 3, SeededRng(9))
        rng = SeededRng(9)
        assert cell.W_x.shape == (16, 3) and cell.W_h.shape == (16, 4) and cell.b.shape == (16,)
        stacked = np.hstack([cell.W_h, cell.W_x])
        for g in range(4):
            assert np.array_equal(stacked[4 * g:4 * (g + 1)], _glorot(rng, (4, 7)))
        assert np.max(np.abs(stacked)) <= np.sqrt(6.0 / (2 * 4 + 3))
        assert cell.W_x.flags.c_contiguous and cell.W_h.flags.c_contiguous

    def test_seeded_init_reproducible(self):
        a = tiny_network(11)
        b = tiny_network(11)
        for k, v in a.params().items():
            assert np.array_equal(v, b.params()[k])

    def test_invalid_dropout_rejected(self):
        with pytest.raises(ValueError):
            tiny_network(1, dropout=1.0)
