"""Loss values and gradients, including the distillation sum."""

import numpy as np
import pytest

from cfdistill.nn.losses import (
    cosine_proximity_loss,
    mse_loss,
    softmax_cross_entropy,
)
from cfdistill.transfer import distillation_loss

from gradcheck import check_loss_gradient

N_GRAD_SEEDS = 10


def softmax_probabilities(logits):
    """Softmax of one logit vector (stabilized)."""
    z = np.asarray(logits, dtype=np.float64)
    probs = np.exp(z - z.max())
    return probs / probs.sum()


class TestMseLoss:
    def test_perfect_prediction_is_zero(self):
        v = np.array([1.0, -2.0, 3.0])
        value, grad = mse_loss(v, v)
        assert value == 0.0
        np.testing.assert_array_equal(grad, 0.0)

    def test_hand_value(self):
        value, _ = mse_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
        assert value == pytest.approx(0.5)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(np.ones(3), np.ones(4))

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradient(self, seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(size=8)
        pred = rng.normal(size=8)
        check_loss_gradient(lambda p: mse_loss(p, target), pred, rtol=1e-8, atol=1e-10)


class TestCosineProximityLoss:
    def test_collinear_gives_minus_one(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=6)
        value, _ = cosine_proximity_loss(2.5 * t, t)
        assert value == pytest.approx(-1.0, abs=1e-9)

    def test_orthogonal_gives_zero(self):
        value, _ = cosine_proximity_loss(np.array([1.0, 0.0]), np.array([0.0, 3.0]))
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_zero_target_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            cosine_proximity_loss(np.ones(3), np.zeros(3))

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradient_on_40d_vectors(self, seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(size=40)
        pred = rng.normal(size=40)
        check_loss_gradient(lambda p: cosine_proximity_loss(p, target), pred)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits_give_log_k(self):
        for k in (2, 5, 11):
            value, _ = softmax_cross_entropy(np.zeros(k), 0)
            assert value == pytest.approx(np.log(k))

    def test_huge_true_logit_drives_loss_to_zero(self):
        logits = np.zeros(4)
        logits[2] = 50.0
        value, _ = softmax_cross_entropy(logits, 2)
        assert value < 1e-15

    def test_out_of_range_class_rejected(self):
        with pytest.raises(ValueError, match="range"):
            softmax_cross_entropy(np.zeros(3), 3)

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(size=5)
        _, grad = softmax_cross_entropy(logits, 2)
        want = softmax_probabilities(logits)
        want[2] -= 1.0
        np.testing.assert_allclose(grad, want, rtol=1e-12)

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradient(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=6)
        cls = int(rng.integers(6))
        check_loss_gradient(lambda p: softmax_cross_entropy(p, cls), logits)

    def test_batched_mean(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(size=(4, 3))
        classes = np.array([0, 2, 1, 1])
        value, grad = softmax_cross_entropy(logits, classes)
        singles = [softmax_cross_entropy(z, c)[0] for z, c in zip(logits, classes)]
        assert value == pytest.approx(np.mean(singles))
        assert grad.shape == logits.shape


class TestDistillationLoss:
    def test_perfect_match_is_minus_one(self):
        rng = np.random.default_rng(3)
        v = rng.normal(size=40)
        value, _ = distillation_loss(v, v)
        assert value == pytest.approx(-1.0, abs=1e-9)

    def test_orthogonal_equal_norm_value(self):
        # orthogonal 40-d pair with equal norm n: mse = 2 n^2 / 40, cosine = 0
        n = 3.0
        pred = np.zeros(40)
        target = np.zeros(40)
        pred[0] = n
        target[1] = n
        value, _ = distillation_loss(pred, target)
        assert value == pytest.approx(2.0 * n * n / 40.0, abs=1e-9)

    def test_zero_estimator_output_rejected(self):
        with pytest.raises(ValueError):
            distillation_loss(np.ones(40), np.zeros(40))

    @pytest.mark.parametrize("seed", range(N_GRAD_SEEDS))
    def test_gradient(self, seed):
        rng = np.random.default_rng(seed)
        target = rng.normal(size=40)
        pred = rng.normal(size=40)
        check_loss_gradient(lambda p: distillation_loss(p, target), pred)
