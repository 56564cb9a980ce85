"""Kernel-level checks: frozen-value oracles for the elementwise functions
and the attention softmax, and the central-difference gradient oracle that
the rest of the suite leans on.
"""

import numpy as np
import pytest

from dien.errors import DomainError, NumericError, ShapeError
from dien.numerics import (
    finite_diff_grad,
    log_sigmoid,
    max_rel_error,
    sigmoid,
)
from dien.recurrent import AttentionParams, GruParams, attention_forward, gru_forward


class TestSigmoid:
    def test_zero(self):
        np.testing.assert_array_equal(sigmoid(np.zeros(2)), [0.5, 0.5])

    def test_deep_negative_saturates_cleanly(self):
        v = sigmoid(np.array([-1000.0]))
        assert np.isfinite(v[0])
        assert 0.0 <= v[0] <= 1e-300

    def test_frozen_value(self):
        np.testing.assert_allclose(sigmoid(np.array([1.0])), [0.7310585786], atol=1e-10)

    def test_open_range_where_representable(self):
        # float64 rounds sigmoid to exactly 0/1 outside roughly [-745, 36]
        rng = np.random.default_rng(3)
        x = rng.uniform(-700, 36, size=5000)
        s = sigmoid(x)
        assert np.all(s > 0.0)
        assert np.all(s < 1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-50, 50, size=1000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_out_holds_the_same_values(self):
        # the recurrences write their gates in place: same operations, same bits
        rng = np.random.default_rng(5)
        x = rng.uniform(-800, 800, size=(40, 8))
        fresh = sigmoid(x)
        out = np.empty_like(x)
        assert sigmoid(x, out=out) is out
        np.testing.assert_array_equal(out, fresh)
        assert sigmoid(x, out=x) is x
        np.testing.assert_array_equal(x, fresh)


class TestLogSigmoid:
    def test_matches_log_of_sigmoid(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-30, 30, size=1000)
        np.testing.assert_allclose(log_sigmoid(x), np.log(sigmoid(x)), atol=1e-12)

    def test_stable_deep_negative(self):
        # log(sigmoid(-1000)) would underflow through 0; the fused form is linear
        v = log_sigmoid(np.array([-1000.0]))
        np.testing.assert_allclose(v, [-1000.0], atol=1e-12)

    def test_nonpositive(self):
        x = np.linspace(-20, 40, 500)
        assert np.all(log_sigmoid(x) <= 0.0)


class TestTanh:
    """The candidate activation, read through one engine step: with every
    parameter zero but a unit input-to-candidate weight, the first state
    from h0 = 0 is u * tanh(x) with u = 1/2 exactly, one row per value."""

    @staticmethod
    def tanh_act(x):
        z, one = np.zeros((1, 1)), np.ones((1, 1))
        p = GruParams(z, z, np.zeros(1), z, z, np.zeros(1), one, z, np.zeros(1))
        states, _ = gru_forward(p, np.reshape(x, (-1, 1, 1)), np.ones(np.size(x)))
        return 2.0 * states[:, 0, 0]

    def test_origin(self):
        np.testing.assert_array_equal(self.tanh_act(np.zeros(1)), [0.0])

    def test_odd(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-10, 10, size=200)
        np.testing.assert_array_equal(self.tanh_act(-x), -self.tanh_act(x))

    def test_frozen_value(self):
        np.testing.assert_allclose(self.tanh_act(np.array([1.0])), [0.7615941560], atol=1e-10)

    def test_open_range_where_representable(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(-18, 18, size=5000)
        t = self.tanh_act(x)
        assert np.all(t > -1.0)
        assert np.all(t < 1.0)


class TestSoftmax:
    """The library's one softmax is the attention layer's masked one.  With a
    one-wide state, a unit target and a unit weight, the bilinear logit
    h_t . (W e) is the state itself, so one row of states is one row of
    logits."""

    @staticmethod
    def softmax(logits):
        logits = np.asarray(logits, dtype=np.float64)
        scores, _ = attention_forward(logits[None, :, None], np.ones((1, 1)),
                                      AttentionParams(np.eye(1)), [logits.size])
        return scores[0]

    def test_equal_logits(self):
        np.testing.assert_allclose(self.softmax(np.zeros(3)), np.full(3, 1.0 / 3.0), atol=1e-15)

    def test_overflow_safe(self):
        s = self.softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(s))
        np.testing.assert_allclose(s, [1.0, 0.0], atol=1e-12)

    def test_frozen_value(self):
        np.testing.assert_allclose(
            self.softmax(np.array([1.0, 2.0, 3.0])),
            [0.09003057, 0.24472847, 0.66524096],
            atol=1e-8,
        )

    def test_partition_of_unity(self):
        # spread kept under ~700 so no shifted exponential underflows to 0.0
        rng = np.random.default_rng(9)
        for _ in range(50):
            s = self.softmax(rng.uniform(-350.0, 350.0, size=rng.integers(1, 20)))
            assert abs(s.sum() - 1.0) <= 1e-12
            assert np.all(s > 0.0)

    def test_shift_invariance(self):
        rng = np.random.default_rng(10)
        logits = rng.standard_normal(7)
        np.testing.assert_allclose(self.softmax(logits), self.softmax(logits + 123.456),
                                   atol=1e-12)


class TestFiniteDiff:
    def test_constant_function(self):
        g = finite_diff_grad(lambda: 3.0, np.ones(4))
        np.testing.assert_array_equal(g, np.zeros(4))

    def test_linear_is_exact(self):
        w = np.array([2.0, -1.0, 0.5])
        p = np.array([1.0, 1.0, 1.0])
        g = finite_diff_grad(lambda: float(w @ p), p)
        np.testing.assert_allclose(g, w, atol=1e-9)

    def test_squared_norm(self):
        p = np.array([1.0, 2.0])
        g = finite_diff_grad(lambda: float(p @ p), p, epsilon=1e-5)
        np.testing.assert_allclose(g, [2.0, 4.0], atol=1e-8)

    def test_quadratic_form(self):
        """Gradient of p'Ap is (A + A')p; central differences should hit it
        well inside the advertised 1e-6 relative band at eps=1e-5."""
        rng = np.random.default_rng(11)
        a = rng.standard_normal((5, 5))
        p = rng.standard_normal(5)
        g = finite_diff_grad(lambda: float(p @ a @ p), p, epsilon=1e-5)
        assert max_rel_error(g, (a + a.T) @ p) < 1e-6

    def test_matrix_shaped_and_restored(self):
        m = np.array([[1.0, -2.0, 0.5], [3.0, 0.25, -1.0]])
        before = m.copy()
        g = finite_diff_grad(lambda: float((m * m).sum()), m)
        assert g.shape == m.shape
        np.testing.assert_allclose(g, 2.0 * before, atol=1e-8)
        np.testing.assert_array_equal(m, before)

    def test_restored_when_f_raises(self):
        p = np.array([1.0, 2.0])

        def f():
            raise RuntimeError("probe failed")

        with pytest.raises(RuntimeError):
            finite_diff_grad(f, p)
        np.testing.assert_array_equal(p, [1.0, 2.0])

    def test_bad_epsilon(self):
        for epsilon in (0.0, -1e-5, np.inf, np.nan):
            with pytest.raises(DomainError, match="finite and positive"):
                finite_diff_grad(lambda: 0.0, np.ones(2), epsilon=epsilon)

    def test_needs_a_float64_array(self):
        with pytest.raises(ShapeError):
            finite_diff_grad(lambda: 0.0, [1.0, 2.0])

    def test_nonfinite_names_coordinate(self):
        p = np.array([1.0, 1.0])

        def f():
            return float("nan") if p[1] != 1.0 else 0.0

        with pytest.raises(NumericError, match="coordinate 1"):
            finite_diff_grad(f, p)
        np.testing.assert_array_equal(p, [1.0, 1.0])


class TestMaxRelError:
    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            max_rel_error(np.ones(2), np.ones(3))

    def test_absolute_floor(self):
        # a 1e-7 discrepancy against an exact zero passes a 1e-4 check
        # because the denominator never drops below the floor
        assert max_rel_error(np.array([1e-7]), np.array([0.0])) < 1e-4

    def test_relative_regime(self):
        assert max_rel_error(np.array([1.01]), np.array([1.0])) == pytest.approx(
            0.01 / 1.01, rel=1e-12
        )
