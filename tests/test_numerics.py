import numpy as np
import pytest

from dbsadam.models import _gate_sigmoid
from dbsadam.numerics import SeededRng, finite_difference_gradient
from flat_params import flatten_arrays, unflatten_arrays


def sigmoid(x):
    # the LSTM's in-place gate activation on a copy of x
    return _gate_sigmoid(np.array(x, dtype=np.float64))


def sign_split_sigmoid(x):
    # exact reference: x >= 0 gives 1 / (1 + e^-x), x < 0 gives
    # e^x / (1 + e^x), so exp never overflows and tiny values keep their
    # relative precision
    t = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + t), t / (1.0 + t))


class TestActivations:
    def test_sigmoid_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_symmetry(self):
        for x in [0.3, 2.0, 17.5, 300.0]:
            assert sigmoid(x) + sigmoid(-x) == pytest.approx(1.0, abs=1e-15)

    def test_stable_at_large_inputs(self):
        xs = np.array([-700.0, -50.0, 50.0, 700.0])
        s = sigmoid(xs)
        assert np.all(np.isfinite(s)) and np.all((s >= 0) & (s <= 1))
        # 0.5 * tanh(0.5 x) + 0.5 is within one machine epsilon (2.2e-16)
        # of the sign-split form everywhere; below about x = -37.98,
        # tanh(0.5 x) rounds to -1 and the result to exactly 0, where the
        # reference is still positive (3.1e-17 at x = -38)
        grid = np.concatenate([np.linspace(-60.0, 60.0, 200_001), xs])
        assert np.max(np.abs(sigmoid(grid) - sign_split_sigmoid(grid))) <= np.finfo(np.float64).eps
        assert sigmoid(-38.0) == 0.0 < sign_split_sigmoid(-38.0)


class TestFiniteDifference:
    def test_quadratic(self):
        grad = finite_difference_gradient(lambda t: float(t @ t), np.array([1.0, 2.0]))
        assert np.allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_constant(self):
        grad = finite_difference_gradient(lambda t: 3.5, np.array([0.1, -0.2, 4.0]))
        assert np.allclose(grad, 0.0, atol=1e-10)

    def test_sigmoid_slope_at_zero(self):
        grad = finite_difference_gradient(lambda t: sigmoid(t)[0], np.array([0.0]))
        assert grad[0] == pytest.approx(0.25, abs=1e-9)

    def test_nonfinite_reports_coordinate(self):
        def f(t):
            return float("nan") if t[1] > 0.5 else 0.0

        with pytest.raises(ValueError, match="coordinate 1"):
            finite_difference_gradient(f, np.array([0.0, 0.5]))

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            finite_difference_gradient(lambda t: 0.0, np.zeros(2), h=0.0)


class TestSeededRng:
    def test_same_seed_identical_stream(self):
        a = SeededRng(42).uniform(size=10_000)
        b = SeededRng(42).uniform(size=10_000)
        assert np.array_equal(a, b)

    def test_different_seeds_diverge_early(self):
        a = SeededRng(42).uniform(size=100)
        b = SeededRng(43).uniform(size=100)
        assert np.any(a != b)

    def test_child_streams_reproducible_and_distinct(self):
        r1 = SeededRng(5).child(3).uniform(size=50)
        r2 = SeededRng(5).child(3).uniform(size=50)
        other = SeededRng(5).child(4).uniform(size=50)
        assert np.array_equal(r1, r2)
        assert np.any(r1 != other)

    def test_default_harness_seeds_give_distinct_streams(self):
        streams = [SeededRng(s).uniform(size=16) for s in (42, 123, 456, 789, 1024)]
        for i in range(len(streams)):
            for j in range(i + 1, len(streams)):
                assert np.any(streams[i] != streams[j])


class TestFlatten:
    def test_round_trip(self):
        rng = SeededRng(1)
        arrays = {"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4)}
        flat, layout = flatten_arrays(arrays)
        back = unflatten_arrays(flat, layout)
        for k in arrays:
            assert np.array_equal(arrays[k], back[k])

    def test_size_mismatch_rejected(self):
        flat, layout = flatten_arrays({"a": np.zeros(3)})
        with pytest.raises(ValueError):
            unflatten_arrays(np.zeros(5), layout)
