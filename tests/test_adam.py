"""Adam update rules and convergence on a quadratic."""

import numpy as np
import pytest

from cfdistill.nn.adam import AdamState, adam_step


class TestAdamStep:
    def test_zero_gradient_leaves_params_unchanged(self):
        params = {"w": np.array([1.0, -2.0, 3.0])}
        state = AdamState(params, 0.001)
        before = params["w"].copy()
        for _ in range(5):
            adam_step(state, params, {"w": np.zeros(3)})
        np.testing.assert_array_equal(params["w"], before)

    def test_first_step_bounded_by_learning_rate(self):
        rng = np.random.default_rng(0)
        params = {"w": rng.normal(size=20)}
        before = params["w"].copy()
        state = AdamState(params, 0.01)
        adam_step(state, params, {"w": rng.normal(size=20) * 100.0})
        delta = np.abs(params["w"] - before)
        assert np.all(delta <= 0.01 * (1 + 1e-6))

    def test_shape_mismatch_rejected(self):
        params = {"w": np.zeros(3)}
        state = AdamState(params, 0.001)
        with pytest.raises(ValueError, match="shape"):
            adam_step(state, params, {"w": np.zeros(4)})

    def test_unknown_key_rejected(self):
        params = {"w": np.zeros(3)}
        state = AdamState(params, 0.001)
        with pytest.raises(KeyError):
            adam_step(state, params, {"v": np.zeros(3)})

    def test_quadratic_convergence(self):
        # minimize ||w - w*||^2 from a random start
        rng = np.random.default_rng(1)
        target = rng.normal(size=10)
        params = {"w": target + rng.uniform(-0.5, 0.5, size=10)}
        state = AdamState(params, 0.02)
        for _ in range(200):
            grad = 2.0 * (params["w"] - target)
            adam_step(state, params, {"w": grad})
        assert np.linalg.norm(params["w"] - target) < 1e-2

    def test_deterministic_trajectory(self):
        def run():
            rng = np.random.default_rng(2)
            params = {"w": rng.normal(size=6)}
            state = AdamState(params, 0.001)
            for _ in range(50):
                adam_step(state, params, {"w": np.sin(params["w"])})
            return params["w"]

        np.testing.assert_array_equal(run(), run())
