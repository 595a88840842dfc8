"""Layer forward oracles and finite-difference gradient checks."""

import numpy as np
import pytest

from cfdistill.nn.layers import (
    BN_EPS,
    BN_MOMENTUM,
    BatchNorm,
    Conv2d,
    FullyConnected,
    GlobalAvgPool,
    MaxPool,
    ReLU,
    SEBlock,
)

from gradcheck import check_layer_gradients, numeric_grad

N_GRAD_SEEDS = 10


def conv_loop_oracle(x, w, b):
    """Direct six-nested-loop 'same' cross-correlation."""
    n, h, width, cin = x.shape
    cout = w.shape[3]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.zeros((n, h, width, cout))
    for s in range(n):
        for i in range(h):
            for j in range(width):
                for o in range(cout):
                    acc = 0.0
                    for ki in range(3):
                        for kj in range(3):
                            for c in range(cin):
                                acc += xp[s, i + ki, j + kj, c] * w[ki, kj, c, o]
                    out[s, i, j, o] = acc + b[o]
    return out


def se_oracle(x, p):
    """Explicit squeeze-excite: means, two FC layers, sigmoid gate."""
    s = x.mean(axis=(1, 2))
    z1 = s @ p["w1"] + p["b1"]
    a1 = np.maximum(z1, 0.0)
    z2 = a1 @ p["w2"] + p["b2"]
    gate = 1.0 / (1.0 + np.exp(-z2))
    return x * gate[:, None, None, :]


class TestConv2d:
    def test_identity_kernel_preserves_input(self):
        rng = np.random.default_rng(0)
        layer = Conv2d(1, 1, rng)
        layer.params["w"][...] = 0.0
        layer.params["w"][1, 1, 0, 0] = 1.0
        layer.params["b"][...] = 0.0
        x = rng.normal(size=(2, 6, 7, 1))
        y, _ = layer.forward(x)
        np.testing.assert_array_equal(y, x)

    def test_ones_kernel_sums_window(self):
        layer = Conv2d(1, 1, np.random.default_rng(1))
        layer.params["w"][...] = 1.0
        layer.params["b"][...] = 0.0
        c = 2.5
        x = np.full((1, 5, 5, 1), c)
        y, _ = layer.forward(x)
        np.testing.assert_allclose(y[0, 1:-1, 1:-1, 0], 9.0 * c)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        layer = Conv2d(2, 2, rng)
        x = rng.normal(size=(1, 5, 5, 2))
        y, _ = layer.forward(x)
        want = conv_loop_oracle(x, layer.params["w"], layer.params["b"])
        np.testing.assert_allclose(y, want, atol=1e-10)

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        layer = Conv2d(2, 3, rng)
        x = rng.normal(size=(2, 4, 5, 2))
        check_layer_gradients(layer, x, rng)

    def test_shape_mismatch_rejected(self):
        layer = Conv2d(2, 3, np.random.default_rng(0))
        with pytest.raises(ValueError):
            layer.forward(np.zeros((1, 4, 4, 5)))


class TestBatchNorm:
    def test_train_mode_normalizes(self):
        rng = np.random.default_rng(3)
        layer = BatchNorm(3)
        x = rng.normal(loc=5.0, scale=2.0, size=(8, 4, 4, 3))
        y, _ = layer.forward(x, train=True)
        np.testing.assert_allclose(y.mean(axis=(0, 1, 2)), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.var(axis=(0, 1, 2)), 1.0, atol=1e-4)

    def test_eval_mode_with_unit_stats_is_identity(self):
        layer = BatchNorm(2)
        layer.running_var[...] = 1.0 - BN_EPS  # so that var + eps is 1
        x = np.random.default_rng(4).normal(size=(3, 2, 2, 2))
        y, _ = layer.forward(x, train=False)
        np.testing.assert_allclose(y, x, atol=1e-9)

    def test_running_stats_updated_in_train_only(self):
        rng = np.random.default_rng(5)
        layer = BatchNorm(2)
        x = rng.normal(loc=3.0, size=(16, 2))
        layer.forward(x, train=True)
        np.testing.assert_allclose(layer.running_mean, (1 - BN_MOMENTUM) * x.mean(axis=0))
        before = layer.running_mean.copy()
        layer.forward(x, train=False)
        np.testing.assert_array_equal(layer.running_mean, before)

    def test_batch_of_one_rejected_in_train(self):
        layer = BatchNorm(2)
        with pytest.raises(ValueError, match="batch"):
            layer.forward(np.zeros((1, 4, 4, 2)), train=True)

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradients_train_mode(self, seed):
        rng = np.random.default_rng(seed)
        layer = BatchNorm(3)
        layer.params["gamma"][...] = rng.uniform(0.5, 1.5, size=3)
        layer.params["beta"][...] = rng.normal(size=3)
        x = rng.normal(size=(4, 3, 2, 3))
        check_layer_gradients(layer, x, rng)


class TestReLU:
    def test_forward_and_mask(self):
        x = np.array([[-1.0, 0.0, 2.0]])
        layer = ReLU()
        y, cache = layer.forward(x, train=True)
        np.testing.assert_array_equal(y, [[0.0, 0.0, 2.0]])
        dx, _ = layer.backward(np.ones_like(x), cache)
        np.testing.assert_array_equal(dx, [[0.0, 0.0, 1.0]])

    @pytest.mark.parametrize("seed", range(3))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 3, 2)) + 0.1  # keep away from the kink
        check_layer_gradients(ReLU(), x, rng)


class TestMaxPool:
    def test_table_schedule_shape(self):
        layer = MaxPool((4, 5))
        x = np.zeros((1, 96, 1280, 2))
        y, _ = layer.forward(x)
        assert y.shape == (1, 24, 256, 2)

    def test_constant_input_constant_output(self):
        layer = MaxPool((2, 2))
        y, _ = layer.forward(np.full((1, 4, 6, 3), 7.0))
        np.testing.assert_array_equal(y, np.full((1, 2, 3, 3), 7.0))

    def test_indivisible_dims_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            MaxPool((3, 3)).forward(np.zeros((1, 4, 6, 1)))

    def test_tie_routes_to_first_in_row_major_order(self):
        layer = MaxPool((2, 2))
        x = np.zeros((1, 2, 2, 1))  # all tied
        _, cache = layer.forward(x, train=True)
        dx, _ = layer.backward(np.ones((1, 1, 1, 1)), cache)
        np.testing.assert_array_equal(dx[0, :, :, 0], [[1.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradients_at_non_tied_points(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.permutation(np.arange(48, dtype=float)).reshape(1, 4, 6, 2) * 0.37
        check_layer_gradients(MaxPool((2, 3)), x, rng)

    def test_zero_gradient_to_non_selected_inputs(self):
        rng = np.random.default_rng(6)
        layer = MaxPool((2, 2))
        x = rng.permutation(np.arange(16, dtype=float)).reshape(1, 4, 4, 1)
        y, cache = layer.forward(x, train=True)
        dx, _ = layer.backward(np.ones_like(y), cache)
        assert np.count_nonzero(dx) == 4  # one winner per window


class TestSEBlock:
    def _unit_gate_layer(self, rng, channels=4, ratio=2):
        layer = SEBlock(channels, ratio, rng)
        layer.params["w1"][...] = 0.0
        layer.params["b1"][...] = 0.0
        layer.params["w2"][...] = 0.0
        return layer

    def test_unit_gate_is_identity(self):
        rng = np.random.default_rng(7)
        layer = self._unit_gate_layer(rng)
        layer.params["b2"][...] = 30.0  # sigmoid(30) ~ 1
        x = rng.normal(size=(2, 3, 3, 4))
        y, _ = layer.forward(x)
        np.testing.assert_allclose(y, x, rtol=0, atol=1e-10)

    def test_zero_gate_zeroes_output(self):
        rng = np.random.default_rng(8)
        layer = self._unit_gate_layer(rng)
        layer.params["b2"][...] = -30.0
        x = rng.normal(size=(2, 3, 3, 4))
        y, _ = layer.forward(x)
        np.testing.assert_allclose(y, 0.0, atol=1e-10)

    def test_matches_explicit_oracle(self):
        rng = np.random.default_rng(9)
        layer = SEBlock(8, 4, rng)
        x = rng.normal(size=(2, 3, 4, 8))
        y, _ = layer.forward(x)
        np.testing.assert_allclose(y, se_oracle(x, layer.params), rtol=1e-12)

    def test_indivisible_channels_rejected(self):
        with pytest.raises(ValueError, match="divisible"):
            SEBlock(6, 4, np.random.default_rng(0))

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        layer = SEBlock(4, 2, rng)
        x = rng.normal(size=(2, 3, 3, 4))
        check_layer_gradients(layer, x, rng)


class TestGlobalAvgPool:
    def test_forward_is_spatial_mean(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=(2, 4, 5, 3))
        y, _ = GlobalAvgPool().forward(x)
        np.testing.assert_allclose(y, x.mean(axis=(1, 2)))

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(2, 3, 4, 2))
        check_layer_gradients(GlobalAvgPool(), x, rng)


class TestFullyConnected:
    def test_constant_output_head_has_zero_input_gradient(self):
        rng = np.random.default_rng(12)
        layer = FullyConnected(5, 3, rng)
        layer.params["w"][...] = 0.0
        x = rng.normal(size=(4, 5))
        y, cache = layer.forward(x, train=True)
        np.testing.assert_array_equal(y, np.broadcast_to(layer.params["b"], y.shape))
        dx, _ = layer.backward(np.ones_like(y), cache)
        np.testing.assert_array_equal(dx, 0.0)

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        layer = FullyConnected(6, 4, rng)
        x = rng.normal(size=(3, 6))
        check_layer_gradients(layer, x, rng)


class TestBackwardLinearity:
    def test_doubling_upstream_doubles_gradients(self):
        rng = np.random.default_rng(13)
        layer = Conv2d(2, 2, rng)
        x = rng.normal(size=(1, 4, 4, 2))
        _, cache = layer.forward(x, train=True)
        g = rng.normal(size=(1, 4, 4, 2))
        dx1, grads1 = layer.backward(g, cache)
        dx2, grads2 = layer.backward(2.0 * g, cache)
        np.testing.assert_allclose(dx2, 2.0 * dx1, rtol=1e-12)
        for name in grads1:
            np.testing.assert_allclose(grads2[name], 2.0 * grads1[name], rtol=1e-12)


EVAL_LAYERS = {
    "conv2d": (lambda rng: Conv2d(2, 3, rng), (2, 4, 4, 2)),
    "batch_norm": (lambda rng: BatchNorm(2), (2, 4, 4, 2)),
    "relu": (lambda rng: ReLU(), (2, 4, 4, 2)),
    "max_pool": (lambda rng: MaxPool((2, 2)), (2, 4, 4, 2)),
    "se_block": (lambda rng: SEBlock(4, 2, rng), (2, 4, 4, 4)),
    "global_avg_pool": (lambda rng: GlobalAvgPool(), (2, 4, 4, 2)),
    "fully_connected": (lambda rng: FullyConnected(5, 3, rng), (2, 5)),
}


@pytest.mark.parametrize("kind", sorted(EVAL_LAYERS))
def test_eval_forward_keeps_no_cache(kind):
    """An eval forward returns None as its cache and the train forward's output."""
    make, shape = EVAL_LAYERS[kind]
    rng = np.random.default_rng(16)
    layer = make(rng)
    x = rng.normal(size=shape)
    y, cache = layer.forward(x)
    assert cache is None
    if kind != "batch_norm":  # batch norm's train forward uses batch statistics
        np.testing.assert_array_equal(y, layer.forward(x, train=True)[0])
