"""Adam update rules and convergence on a quadratic."""

import numpy as np
import pytest

import reference_adam as ref
from cfdistill.nn.adam import AdamState, adam_step
from cfdistill.nn.layers import FullyConnected
from cfdistill.nn.network import build_network, cf_estimator_desk


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


def _parameter_sets(dtype):
    """(name, params, gradient dtype of each key) as the trainers build them:
    the estimator's, a task network's (a float64 loss gradient reaches the
    head's parameters) and fix's head alone."""
    specs, shape = cf_estimator_desk(8)
    estimator = build_network(specs, shape, seed=4, dtype=dtype).named_params()
    head = FullyConnected(40, 4, np.random.default_rng(5), dtype=dtype).params
    task = {**estimator, **{f"{len(specs)}.{k}": v for k, v in head.items()}}
    head_keys = {f"{len(specs)}.w", f"{len(specs)}.b"}
    return [
        ("estimator", estimator, {k: dtype for k in estimator}),
        ("task", task, {k: np.float64 if k in head_keys else dtype for k in task}),
        ("fix", head, {k: np.float64 for k in head}),
    ]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_flat_moments_same_bits_as_per_array_reference(dtype):
    """120 steps of the flat update give the same parameters, bit for bit,
    as the per-array ``reference_adam``, on every parameter set a trainer
    optimizes, with gradients of varied scale, exact zeros and ties."""
    for name, params, grad_dtypes in _parameter_sets(np.dtype(dtype)):
        mine = {k: v.copy() for k, v in params.items()}
        theirs = {k: v.copy() for k, v in params.items()}
        state = AdamState(mine, 0.003)
        ref_state = ref.AdamState(theirs, 0.003)
        rng = np.random.default_rng(6)
        for t in range(120):
            grads = {}
            for k, v in params.items():
                g = rng.normal(size=v.shape) * 10.0 ** rng.integers(-6, 3)
                g[rng.random(v.shape) < 0.1] = 0.0
                g[rng.random(v.shape) < 0.1] = 0.25
                grads[k] = g.astype(grad_dtypes[k])
            adam_step(state, mine, grads)
            ref.adam_step(ref_state, theirs, grads)
            for k in params:
                assert mine[k].dtype == theirs[k].dtype
                assert mine[k].tobytes() == theirs[k].tobytes(), f"{name} {k} step {t}"


def test_missing_gradient_rejected_before_any_update():
    params = {"w": np.zeros(3), "b": np.zeros(2)}
    state = AdamState(params, 0.001)
    adam_step(state, params, {"w": np.ones(3), "b": np.ones(2)})
    before = (state.m.copy(), state.v.copy(), {k: v.copy() for k, v in params.items()})
    with pytest.raises(KeyError, match="no gradient for parameter 'b'"):
        adam_step(state, params, {"w": np.ones(3)})
    assert state.step_count == 1
    np.testing.assert_array_equal(state.m, before[0])
    np.testing.assert_array_equal(state.v, before[1])
    for k in params:
        np.testing.assert_array_equal(params[k], before[2][k])


def test_mixed_parameter_dtypes_rejected():
    params = {"w": np.zeros(3, dtype=np.float32), "b": np.zeros(2)}
    with pytest.raises(ValueError, match="share one dtype"):
        AdamState(params, 0.001)
