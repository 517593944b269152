import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbsadam.numerics import SeededRng
from dbsadam.optimizers import (
    OptimizerConfig,
    OptimizerState,
    adabound_bounds,
    adabound_step,
    adam_step,
    adamw_step,
    amsgrad_step,
    _check_shapes,
    dbs_adam_step,
    difficulty,
    observe_batch,
)

# frozen from a scalar step-by-step evaluation of the update equations
ADAM_FIRST_STEP_THETA1 = 0.99900000099999897


def make(shape_map, seed=0):
    rng = SeededRng(seed)
    return {k: rng.normal(size=shape) for k, shape in shape_map.items()}


class TestAdam:
    def test_zero_gradient_leaves_params_bitwise_unchanged(self):
        params = make({"w": (3, 2), "b": (2,)})
        before = {k: v.copy() for k, v in params.items()}
        state = OptimizerState(params)
        adam_step(params, {k: np.zeros_like(v) for k, v in params.items()}, state, OptimizerConfig())
        for k in params:
            assert np.array_equal(params[k], before[k])
            assert np.all(state.m[k] == 0) and np.all(state.v[k] == 0)

    def test_first_step_matches_scalar_oracle(self):
        params = {"w": np.array([1.0])}
        state = OptimizerState(params)
        adam_step(params, {"w": np.array([0.1])}, state, OptimizerConfig())
        assert state.t == 1
        assert params["w"][0] == pytest.approx(ADAM_FIRST_STEP_THETA1, abs=1e-12)
        # hand expansion of the moment updates
        assert state.m["w"][0] == pytest.approx(0.01, abs=1e-15)
        assert state.v["w"][0] == pytest.approx(1e-5, rel=1e-12)

    def test_first_step_magnitude_across_gradient_scales(self):
        # bias correction makes |step 1| ~ lr regardless of gradient scale;
        # epsilon is set far below the smallest gradient so the denominator
        # stays gradient-dominated (at the 1e-7 default a 1e-6 gradient
        # would dilute the step to ~0.91 lr)
        lr = 0.001
        config = OptimizerConfig(base_lr=lr, epsilon=1e-12)
        for g in [1e-6, 1e-3, 1.0, 1e3, 1e6]:
            # start at 0 so |theta_1| recovers the step without cancellation
            params = {"w": np.array([0.0])}
            state = OptimizerState(params)
            adam_step(params, {"w": np.array([g])}, state, config)
            step = abs(params["w"][0])
            assert lr * (1 - 1e-5) <= step <= lr

    def test_lr_override(self):
        params = {"w": np.array([1.0])}
        state = OptimizerState(params)
        adam_step(params, {"w": np.array([0.1])}, state, OptimizerConfig(base_lr=0.01))
        assert params["w"][0] == pytest.approx(1.0 - 0.01 * (0.1 / (0.1 + 1e-7)), abs=1e-15)

    def test_nonfinite_gradient_rejected_with_index(self):
        params = {"w": np.zeros((2, 2))}
        grads = {"w": np.array([[0.0, 0.0], [np.nan, 0.0]])}
        with pytest.raises(ValueError, match=r"'w' at index \(1, 0\)"):
            adam_step(params, grads, OptimizerState(params), OptimizerConfig())
        # dbs_adam checks once, before the statistics or any moment buffer
        # move; "a" precedes the bad tensor, so a partial update would show there
        params = {"a": np.ones(3), "w": np.zeros((2, 2))}
        state = OptimizerState(params)
        good = {"a": np.full(3, 0.5), "w": np.full((2, 2), 0.5)}
        dbs_adam_step(params, good, state, OptimizerConfig(), 1.0)
        before = (state.batches_seen, state.t,
                  {k: v.copy() for k, v in state.m.items()},
                  {k: v.copy() for k, v in state.v.items()})
        with pytest.raises(ValueError, match=r"'w' at index \(1, 0\)"):
            dbs_adam_step(params, {"a": np.ones(3), **grads}, state, OptimizerConfig(), 1.0)
        assert (state.batches_seen, state.t) == before[:2]
        for k in params:
            assert np.array_equal(state.m[k], before[2][k])
            assert np.array_equal(state.v[k], before[3][k])

    def test_integer_parameter_rejected_before_any_state_changes(self):
        # an in-place float update of an integer array fails in NumPy only
        # after the step counter and the statistics have moved
        params = {"w": np.array([1, 2])}
        grads = {"w": np.array([0.5, 0.5])}
        state = OptimizerState(params)
        for step in (adam_step, amsgrad_step, adamw_step, adabound_step):
            with pytest.raises(ValueError, match="parameter 'w' must be floating-point"):
                step(params, grads, state, OptimizerConfig())
        with pytest.raises(ValueError, match="parameter 'w' must be floating-point"):
            dbs_adam_step(params, grads, state, OptimizerConfig(), 1.0)
        assert state.t == 0 and statistics(state) == (0.0, 0.0, 0.0, 0.0, 0)
        assert np.array_equal(params["w"], [1, 2])

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        with pytest.raises(ValueError, match="shape mismatch"):
            adam_step(params, {"w": np.zeros(4)}, OptimizerState(params), OptimizerConfig())

    def test_key_mismatch_names_each_side(self):
        # e.g. the full net.params() stepped with the gradients of one-step rows
        params = {"l1f.W_x": np.zeros(2), "l1f.W_h": np.zeros(2), "b": np.zeros(1)}
        grads = {"l1f.W_x": np.zeros(2), "extra": np.zeros(1), "b": np.zeros(1)}
        with pytest.raises(ValueError) as info:
            adam_step(params, grads, OptimizerState(params), OptimizerConfig())
        assert str(info.value) == (
            "params/grads key mismatch: missing from grads ['l1f.W_h'], "
            "missing from params ['extra']"
        )


class TestAmsgrad:
    def test_vmax_monotone_over_random_steps(self):
        rng = SeededRng(9)
        params = make({"w": (4,)})
        state = OptimizerState(params)
        config = OptimizerConfig()
        previous = None
        for _ in range(100):
            amsgrad_step(params, {"w": rng.normal(size=4)}, state, config)
            if previous is not None:
                assert np.all(state.v_max["w"] >= previous - 0.0)
            previous = state.v_max["w"].copy()

    def test_equals_adam_when_vhat_nondecreasing(self):
        # monotonically growing |g| keeps v_hat non-decreasing, so the max is
        # always the current value and the two trajectories coincide
        config = OptimizerConfig()
        p_adam = {"w": np.array([1.0])}
        p_ams = {"w": np.array([1.0])}
        s_adam, s_ams = OptimizerState(p_adam), OptimizerState(p_ams)
        prev_vhat = 0.0
        for t in range(1, 30):
            g = {"w": np.array([0.01 * t])}
            adam_step(p_adam, dict(g), s_adam, config)
            amsgrad_step(p_ams, dict(g), s_ams, config)
            vhat = s_ams.v["w"][0] / (1 - config.beta2**t)
            assert vhat >= prev_vhat
            prev_vhat = vhat
            assert p_ams["w"][0] == pytest.approx(p_adam["w"][0], abs=1e-12)

    def test_zero_gradients_freeze_params(self):
        params = {"w": np.array([2.0, -3.0])}
        state = OptimizerState(params)
        for _ in range(5):
            amsgrad_step(params, {"w": np.zeros(2)}, state, OptimizerConfig())
        assert np.array_equal(params["w"], [2.0, -3.0])


class TestAdamw:
    def test_zero_decay_matches_adam(self):
        rng = SeededRng(10)
        config = OptimizerConfig(weight_decay=0.0)
        p1 = {"w": np.array([1.0, -2.0])}
        p2 = {"w": np.array([1.0, -2.0])}
        s1, s2 = OptimizerState(p1), OptimizerState(p2)
        for _ in range(20):
            g = {"w": rng.normal(size=2)}
            adam_step(p1, dict(g), s1, config)
            adamw_step(p2, dict(g), s2, config)
            assert np.allclose(p1["w"], p2["w"], atol=1e-12)

    def test_zero_gradients_shrink_by_decay_factor(self):
        config = OptimizerConfig(base_lr=0.01, weight_decay=0.1)
        params = {"w": np.array([1.0])}
        state = OptimizerState(params)
        factor = 1.0 - 0.01 * 0.1
        expected = 1.0
        for _ in range(3):
            adamw_step(params, {"w": np.zeros(1)}, state, config)
            expected *= factor
            assert params["w"][0] == pytest.approx(expected, rel=1e-12)

    def test_zero_params_no_decay_contribution(self):
        params = {"w": np.zeros(3)}
        state = OptimizerState(params)
        adamw_step(params, {"w": np.zeros(3)}, state, OptimizerConfig(weight_decay=0.5))
        assert np.array_equal(params["w"], np.zeros(3))


class TestAdabound:
    def test_effective_rate_stays_in_bounds(self):
        rng = SeededRng(12)
        config = OptimizerConfig()
        params = {"w": rng.normal(size=5)}
        state = OptimizerState(params)
        for _ in range(50):
            g = {"w": rng.normal(size=5) * 10.0 ** float(rng.integers(-3, 3))}
            before = params["w"].copy()
            adabound_step(params, g, state, config)
            lower, upper = adabound_bounds(state.t, config)
            assert lower < upper
            m_hat = state.m["w"] / (1 - config.beta1**state.t)
            step = before - params["w"]
            nonzero = np.abs(m_hat) > 1e-12
            rates = np.abs(step[nonzero]) / np.abs(m_hat[nonzero])
            assert np.all(rates >= lower - 1e-15)
            assert np.all(rates <= upper + 1e-15)

    def test_bounds_converge_to_final_lr(self):
        config = OptimizerConfig(adabound_final_lr=0.1, adabound_gamma=1e-3)
        lower, upper = adabound_bounds(10**6, config)
        assert abs(lower - 0.1) / 0.1 < 0.002
        assert abs(upper - 0.1) / 0.1 < 0.002

    def test_zero_gradients_freeze_params(self):
        params = {"w": np.array([0.5])}
        state = OptimizerState(params)
        for _ in range(5):
            adabound_step(params, {"w": np.zeros(1)}, state, OptimizerConfig())
        assert np.array_equal(params["w"], [0.5])


STATISTICS = ("mu_g", "sigma_g", "mu_l", "sigma_l", "batches_seen")


def statistics(state: OptimizerState) -> tuple:
    return tuple(getattr(state, name) for name in STATISTICS)


def warmed(**settings) -> tuple[OptimizerState, OptimizerConfig]:
    config = OptimizerConfig(**settings)
    state = OptimizerState({})
    rng = SeededRng(31)
    for _ in range(config.warmup_batches + 5):
        observe_batch(state, config, float(abs(rng.normal(loc=2.0))), float(abs(rng.normal(loc=1.0))))
    return state, config


class TestDifficultyTracker:
    """observe_batch and difficulty: the statistics live on OptimizerState,
    the settings on OptimizerConfig."""

    def test_inputs_at_the_mean_give_exact_midpoint(self):
        for alpha in (0.0, 0.123, 0.3, 0.5, 0.7, 1.0):
            state, config = warmed(alpha_mix=alpha)
            d = observe_batch(state, config, state.mu_g, state.mu_l)
            assert d == 0.5

    def test_saturation_high_on_both_signals(self):
        state, config = warmed()
        d = observe_batch(state, config, state.mu_g + 1e9, state.mu_l + 1e9)
        assert d == config.d_max

    def test_saturation_low_with_gradient_only_mix(self):
        state, config = warmed(alpha_mix=1.0)
        # a gradient norm far below its mean clips the z-score at -K
        d = difficulty(state, config, 0.0, state.mu_l)
        assert d == config.d_min

    def test_warmup_returns_neutral_while_accumulating(self):
        config = OptimizerConfig(warmup_batches=4)
        state = OptimizerState({})
        neutral = float(np.clip(0.5, config.d_min, config.d_max))
        for i in range(4):
            d = observe_batch(state, config, 1.0 + i, 2.0 + i)
            assert d == neutral
        assert state.mu_g != 0.0
        d = observe_batch(state, config, 50.0, 50.0)
        assert d != neutral or d == config.d_max

    def test_negative_grad_norm_rejected(self):
        with pytest.raises(ValueError):
            observe_batch(OptimizerState({}), OptimizerConfig(), -1.0, 0.0)

    def test_nonfinite_loss_rejected(self):
        with pytest.raises(ValueError):
            observe_batch(OptimizerState({}), OptimizerConfig(), 1.0, float("nan"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_grad_norm_rejected_before_any_update(self, bad):
        state, config = warmed()
        before = statistics(state)
        with pytest.raises(ValueError, match="gradient norm must be finite"):
            observe_batch(state, config, bad, 1.0)
        assert statistics(state) == before

    def test_overflowing_statistics_rejected_before_any_update(self):
        state, config = OptimizerState({}), OptimizerConfig()
        observe_batch(state, config, 1.0, 1.7e308)
        before = statistics(state)
        with pytest.raises(ValueError, match="overflow"):
            observe_batch(state, config, 1.0, -1.7e308)
        assert statistics(state) == before

    @settings(max_examples=50, deadline=None)
    @given(
        ema_beta=st.floats(0.0, 1.0, exclude_max=True),
        alpha_mix=st.floats(0.0, 1.0),
        clip_k=st.floats(0.0, 1e300, exclude_min=True),
        norm_epsilon=st.floats(0.0, 1e300, exclude_min=True),
        bounds=st.lists(st.floats(0.0, 1e300, exclude_min=True), min_size=2, max_size=2).map(sorted),
        warmup=st.integers(0, 5),
        stream=st.lists(
            st.tuples(st.floats(0.0, allow_infinity=False), st.floats(allow_nan=False, allow_infinity=False)),
            min_size=1, max_size=40,
        ),
    )
    def test_difficulty_always_within_bounds(
        self, ema_beta, alpha_mix, clip_k, norm_epsilon, bounds, warmup, stream
    ):
        # any finite stream: every difficulty lies in [d_min, d_max]; a batch
        # is rejected only when its distance from a mean overflows, i.e. near
        # the float maximum, and the rejection changes nothing
        config = OptimizerConfig(ema_beta=ema_beta, alpha_mix=alpha_mix, clip_k=clip_k,
                                 norm_epsilon=norm_epsilon, d_min=bounds[0], d_max=bounds[1],
                                 warmup_batches=warmup)
        state = OptimizerState({})
        for grad_norm, loss in stream:
            before = statistics(state)
            try:
                d = observe_batch(state, config, grad_norm, loss)
            except ValueError:
                assert statistics(state) == before
                assert max(abs(grad_norm), abs(loss), abs(state.mu_g), abs(state.mu_l)) > 8e307
                continue
            assert bounds[0] <= d <= bounds[1]

    def test_output_always_clipped_and_sigmas_nonnegative(self):
        state, config = OptimizerState({}), OptimizerConfig(d_min=0.2, d_max=0.8)
        rng = SeededRng(13)
        for _ in range(2000):
            g = float(abs(rng.normal()) * 10.0 ** float(rng.integers(-3, 4)))
            loss = float(rng.normal() * 10.0 ** float(rng.integers(-3, 4)))
            d = observe_batch(state, config, g, loss)
            assert 0.2 <= d <= 0.8
            assert state.sigma_g >= 0 and state.sigma_l >= 0

    def test_monotone_response_with_frozen_statistics(self):
        state, config = warmed()
        rng = SeededRng(14)
        for _ in range(300):
            g = float(abs(rng.normal(loc=2.0)))
            loss = float(rng.normal(loc=1.0))
            step = float(abs(rng.normal()))
            assert difficulty(state, config, g + step, loss) >= difficulty(state, config, g, loss)
            assert difficulty(state, config, g, loss + step) >= difficulty(state, config, g, loss)

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            OptimizerConfig(d_min=0.0)
        with pytest.raises(ValueError):
            OptimizerConfig(d_min=0.9, d_max=0.5)

    @pytest.mark.parametrize("field", [
        {"clip_k": np.inf}, {"clip_k": np.nan}, {"norm_epsilon": 0.0}, {"norm_epsilon": np.nan},
    ])
    def test_invalid_scales_rejected(self, field):
        # clip_k = inf rescales to inf / inf and norm_epsilon = 0 divides 0 by 0
        with pytest.raises(ValueError):
            OptimizerConfig(**field)

    @pytest.mark.parametrize("name", STATISTICS)
    def test_running_statistics_are_not_constructor_options(self, name):
        with pytest.raises(TypeError):
            OptimizerConfig(**{name: 1.0})

    def test_statistics_start_at_zero_on_the_state(self):
        state = OptimizerState({"w": np.zeros(2)})
        assert statistics(state) == (0.0, 0.0, 0.0, 0.0, 0)

    @pytest.mark.parametrize("settings, message", [
        ({"d_min": 0.0}, r"need 0 < d_min <= d_max, got \[0.0, 1.0\]"),
        ({"alpha_mix": 1.5}, r"alpha_mix must lie in \[0, 1\], got 1.5"),
        ({"clip_k": -1.0}, "clip_k must be positive and finite, got -1.0"),
        ({"norm_epsilon": 0.0}, "norm_epsilon must be positive, got 0.0"),
        ({"ema_beta": 1.0}, r"ema_beta must lie in \[0, 1\), got 1.0"),
        ({"warmup_batches": -1}, "warmup_batches must be >= 0, got -1"),
    ])
    def test_each_moved_setting_is_checked_by_optimizer_config(self, settings, message):
        with pytest.raises(ValueError, match=message):
            OptimizerConfig(**settings)

    def test_settings_cannot_be_assigned(self):
        config = OptimizerConfig(d_max=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.d_min = 2.0
        assert config.d_min == 0.1


class TestGradientSignal:
    def test_global_l2_is_concatenated_norm(self):
        # the first observation seeds the running mean with the signal itself
        params = {"a": np.zeros(1), "b": np.zeros(1)}
        grads = {"a": np.array([3.0]), "b": np.array([4.0])}
        state = OptimizerState(params)
        dbs_adam_step(params, grads, state, OptimizerConfig(), 1.0)
        assert state.mu_g == 5.0


def quadratic_gradients(params, target, curvature):
    return {k: curvature[k] * (params[k] - target[k]) for k in params}


class TestZeroGradientInvariant:
    def test_all_five_optimizers_freeze_params_bitwise(self):
        # zero gradients and zero weight decay must leave every parameter
        # bitwise unchanged under each optimizer
        from dbsadam.optimizers import OPTIMIZER_STEPS

        start = SeededRng(77).normal(size=(3, 2))
        zero = {"w": np.zeros((3, 2))}
        config = OptimizerConfig(weight_decay=0.0)
        for name, step in OPTIMIZER_STEPS.items():
            params = {"w": start.copy()}
            state = OptimizerState(params)
            for _ in range(3):
                step(params, dict(zero), state, config)
            assert np.array_equal(params["w"], start), name
        params = {"w": start.copy()}
        state = OptimizerState(params)
        for _ in range(3):
            dbs_adam_step(params, dict(zero), state, config, 0.0)
        assert np.array_equal(params["w"], start), "dbs_adam"


class TestDbsAdam:
    def test_pinned_difficulty_reduces_to_adam(self):
        rng = SeededRng(15)
        target = {"w": rng.normal(size=6)}
        curvature = {"w": np.abs(rng.normal(size=6)) + 0.5}
        start = rng.normal(size=6)
        for c in (0.1, 0.5, 1.0):
            p_dbs = {"w": start.copy()}
            p_adam = {"w": start.copy()}
            s_dbs, s_adam = OptimizerState(p_dbs), OptimizerState(p_adam)
            config = OptimizerConfig(base_lr=0.001, d_min=c, d_max=c)  # clip pins D to c
            scaled = OptimizerConfig(base_lr=0.001 * c)
            for _ in range(50):
                g_dbs = quadratic_gradients(p_dbs, target, curvature)
                loss = float(sum(np.sum(v**2) for v in g_dbs.values()))
                lr = dbs_adam_step(p_dbs, g_dbs, s_dbs, config, loss)
                assert lr == pytest.approx(0.001 * c, abs=1e-18)
                g_adam = quadratic_gradients(p_adam, target, curvature)
                adam_step(p_adam, g_adam, s_adam, scaled)
                assert np.allclose(p_dbs["w"], p_adam["w"], atol=1e-12)

    def test_warmup_uses_neutral_rate(self):
        params = {"w": np.array([1.0])}
        state = OptimizerState(params)
        config = OptimizerConfig(d_min=0.1, d_max=1.0)
        lr = dbs_adam_step(params, {"w": np.array([0.5])}, state, config, 1.0)
        assert lr == pytest.approx(0.001 * 0.5)

    def test_rate_never_leaves_band(self):
        rng = SeededRng(16)
        params = {"w": rng.normal(size=4)}
        state = OptimizerState(params)
        config = OptimizerConfig(base_lr=0.01, d_min=0.2, d_max=0.9)
        for _ in range(500):
            g = {"w": rng.normal(size=4) * 10.0 ** float(rng.integers(-2, 3))}
            loss = float(abs(rng.normal()))
            lr = dbs_adam_step(params, g, state, config, loss)
            assert 0.01 * 0.2 <= lr <= 0.01 * 0.9


def textbook_step(name, params, grads, ref, config, lr):
    # whole-tensor update equations, one tensor at a time; ref holds the
    # reference m, v, v_max and t
    ref["t"] += 1
    t = ref["t"]
    lower, upper = adabound_bounds(t, config)
    for k, g in grads.items():
        m = ref["m"][k] = config.beta1 * ref["m"][k] + (1.0 - config.beta1) * g
        v = ref["v"][k] = config.beta2 * ref["v"][k] + (1.0 - config.beta2) * (g * g)
        m_hat = m / (1.0 - config.beta1**t)
        v_hat = v / (1.0 - config.beta2**t)
        if name == "amsgrad":
            v_hat = ref["v_max"][k] = np.maximum(ref["v_max"][k], v_hat)
        denom = np.sqrt(v_hat) + config.epsilon
        if name == "adabound":
            params[k] = params[k] - np.clip(lr / denom, lower, upper) * m_hat
        elif name == "adamw":
            params[k] = params[k] - (lr * m_hat / denom + lr * config.weight_decay * params[k])
        else:
            params[k] = params[k] - lr * m_hat / denom


SHAPES = {"w": (3, 4), "u": (13,), "k": (2, 3, 5), "s": (1,)}


class TestBlockedMomentPass:
    @pytest.mark.parametrize("block", [1, 7, 11, None])
    def test_all_five_steps_bit_equal_textbook(self, monkeypatch, block):
        # block 7 and 11 split the 12-, 13- and 30-element tensors unevenly;
        # None keeps the module's block, larger than every tensor here
        from dbsadam import optimizers

        if block is not None:
            monkeypatch.setattr(optimizers, "_BLOCK_ELEMENTS", block)
        config = OptimizerConfig(base_lr=0.01, warmup_batches=2)
        for name in ("adam", "amsgrad", "adamw", "adabound", "dbs_adam"):
            rng = SeededRng(31)
            params = make(SHAPES, seed=32)
            ref_params = {k: v.copy() for k, v in params.items()}
            state = OptimizerState(params)
            assert state.scratch[0].size == (block or optimizers._BLOCK_ELEMENTS)
            ref = {"t": 0, "m": {k: np.zeros(s) for k, s in SHAPES.items()},
                   "v": {k: np.zeros(s) for k, s in SHAPES.items()},
                   "v_max": {k: np.zeros(s) for k, s in SHAPES.items()}}
            for step in range(8):
                # per-element scales from 1e-3 to 1e3 make v_hat fall for some
                # elements, so amsgrad's v_max holds old maxima in every block
                grads = {k: rng.normal(size=s) * 10.0 ** rng.uniform(-3, 3, size=s)
                         for k, s in SHAPES.items()}
                if name == "dbs_adam":
                    lr = dbs_adam_step(params, grads, state, config, 1.0 + step)
                else:
                    optimizers.OPTIMIZER_STEPS[name](params, grads, state, config)
                    lr = config.base_lr
                textbook_step(name, ref_params, grads, ref, config, lr)
            assert state.t == ref["t"]
            for k in SHAPES:
                assert np.array_equal(params[k], ref_params[k]), (name, k)
                assert np.array_equal(state.m[k], ref["m"][k]), (name, k)
                assert np.array_equal(state.v[k], ref["v"][k]), (name, k)
                if name == "amsgrad":
                    assert np.array_equal(state.v_max[k], ref["v_max"][k]), (name, k)

    def test_non_contiguous_parameter_rejected(self):
        params = {"w": np.zeros((4, 3)).T}
        with pytest.raises(ValueError, match="C-contiguous"):
            adam_step(params, {"w": np.ones((3, 4))}, OptimizerState(params), OptimizerConfig())


class TestFoldedFiniteCheck:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_last_block_entry_reported_and_state_untouched(self, monkeypatch, bad):
        from dbsadam import optimizers

        monkeypatch.setattr(optimizers, "_BLOCK_ELEMENTS", 4)
        params = {"a": np.ones(3), "w": np.zeros((3, 5))}  # w: blocks 4+4+4+3
        state = OptimizerState(params)
        good = {"a": np.full(3, 0.5), "w": np.full((3, 5), 0.5)}
        dbs_adam_step(params, good, state, OptimizerConfig(), 1.0)
        before = (state.batches_seen, state.t,
                  {k: v.copy() for k, v in state.m.items()},
                  {k: v.copy() for k, v in state.v.items()},
                  {k: v.copy() for k, v in params.items()})
        grads = {"a": np.ones(3), "w": np.full((3, 5), 0.25)}
        grads["w"][2, 4] = bad
        for step in (adam_step, amsgrad_step, adamw_step, adabound_step):
            with pytest.raises(ValueError, match=r"'w' at index \(2, 4\)"):
                step(params, grads, state, OptimizerConfig())
        with pytest.raises(ValueError, match=r"'w' at index \(2, 4\)"):
            dbs_adam_step(params, grads, state, OptimizerConfig(), 1.0)
        assert (state.batches_seen, state.t) == before[:2]
        assert state.v_max is None or all(np.all(v == 0) for v in state.v_max.values())
        for k in params:
            assert np.array_equal(state.m[k], before[2][k])
            assert np.array_equal(state.v[k], before[3][k])
            assert np.array_equal(params[k], before[4][k])

    def test_overflowing_squared_norm_of_finite_gradient_passes(self):
        # 1e200 squared overflows to inf, but every entry is finite
        params = {"w": np.ones(4), "b": np.zeros(2)}
        grads = {"w": np.full(4, 1e200), "b": np.array([-1e200, 1.0])}
        with np.errstate(over="ignore"):
            adam_step(params, grads, OptimizerState(params), OptimizerConfig())
            assert _check_shapes(params, grads) == np.inf
        assert np.all(np.isfinite(params["w"])) and np.all(np.isfinite(params["b"]))
