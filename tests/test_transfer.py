"""Estimator training and the contracts of the four transfer regimes."""

import inspect

import numpy as np
import pytest

from cfdistill import transfer
from cfdistill.nn.network import LayerSpec, build_network, double_conv
from cfdistill.transfer import (
    RegimeConfig,
    TaskData,
    TaskSpec,
    TrainConfig,
    distillation_loss,
    predict_network,
    train_cf_estimator,
    train_task,
)

TINY_SPECS = (
    double_conv(2, se_ratio=2)
    + [LayerSpec("max_pool", pool=(2, 2))]
    + [LayerSpec("global_avg_pool"), LayerSpec("fully_connected", width=6)]
)
TINY_SHAPE = (4, 4, 1)


def tiny_dataset(rng, n=24, out_dim=6):
    """Per-sample level signal the GAP pipeline can actually extract."""
    levels = rng.uniform(-1.0, 1.0, size=n)
    features = levels[:, None, None, None] + 0.3 * rng.normal(size=(n, *TINY_SHAPE))
    direction = rng.normal(size=out_dim)
    targets = np.outer(levels, direction) + 0.05 * rng.normal(size=(n, out_dim))
    return features, targets


def tiny_task_data(rng, n=24, n_classes=2):
    features = rng.normal(size=(n, *TINY_SHAPE))
    labels = np.arange(n) % n_classes
    # plant a weak class signal in the mean level
    features[labels == 1] += 0.5
    idx = rng.permutation(n)
    return TaskData(
        features=features,
        targets=labels,
        train_idx=idx[: n - 8],
        val_idx=idx[n - 8 : n - 4],
        test_idx=idx[n - 4 :],
    )


def make_estimator(seed=0):
    model = build_network(TINY_SPECS, TINY_SHAPE, seed=seed)
    # settle the BN buffers so eval-mode outputs are non-degenerate
    rng = np.random.default_rng(seed + 1)
    model.forward(rng.normal(size=(8, *TINY_SHAPE)), train=True)
    return model


class TestTrainCfEstimator:
    def test_constant_target_sanity(self):
        rng = np.random.default_rng(0)
        features, _ = tiny_dataset(rng)
        target = np.zeros(6)
        target[0] = 1.0
        targets = np.tile(target, (features.shape[0], 1))
        config = TrainConfig(epochs=15, batch_size=8, learning_rate=0.01, seed=1)
        model, info = train_cf_estimator(
            features, targets, TINY_SPECS, TINY_SHAPE, config,
            train_idx=np.arange(18), val_idx=np.arange(18, 24),
        )
        first = info["curve"][0]["train_loss"]
        best = min(row["val_loss"] for row in info["curve"])
        assert best < 0.99 * first
        out = predict_network(model, features[18:])
        assert np.mean((out - target) ** 2) < np.mean(target**2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_validation_loss_decreases_from_epoch_zero(self, seed):
        rng = np.random.default_rng(seed)
        features, targets = tiny_dataset(rng)
        config = TrainConfig(epochs=12, batch_size=8, learning_rate=0.005, seed=seed)
        _, info = train_cf_estimator(
            features, targets, TINY_SPECS, TINY_SHAPE, config,
            train_idx=np.arange(18), val_idx=np.arange(18, 24),
        )
        assert min(r["val_loss"] for r in info["curve"]) < info["curve"][0]["val_loss"]

    def test_returns_snapshot_with_least_validation_loss(self):
        rng = np.random.default_rng(3)
        features, targets = tiny_dataset(rng)
        config = TrainConfig(epochs=10, batch_size=8, learning_rate=0.01, seed=3)
        snapshots = {}

        def on_epoch(epoch, model, row):
            snapshots[epoch] = model.get_state()

        model, info = train_cf_estimator(
            features, targets, TINY_SPECS, TINY_SHAPE, config,
            train_idx=np.arange(18), val_idx=np.arange(18, 24),
            on_epoch=on_epoch,
        )
        best_epoch = int(np.argmin([r["val_loss"] for r in info["curve"]]))
        assert info["best_epoch"] == best_epoch
        for key, value in model.get_state().items():
            np.testing.assert_array_equal(value, snapshots[best_epoch][key], err_msg=key)

    def test_overlapping_splits_rejected(self):
        rng = np.random.default_rng(4)
        features, targets = tiny_dataset(rng)
        with pytest.raises(ValueError, match="overlap"):
            train_cf_estimator(
                features, targets, TINY_SPECS, TINY_SHAPE, TrainConfig(epochs=1),
                train_idx=np.arange(10), val_idx=np.arange(5, 15),
            )

    def test_empty_split_rejected(self):
        rng = np.random.default_rng(5)
        features, targets = tiny_dataset(rng)
        with pytest.raises(ValueError, match="nonempty"):
            train_cf_estimator(
                features, targets, TINY_SPECS, TINY_SHAPE, TrainConfig(epochs=1),
                train_idx=np.arange(10), val_idx=np.array([], dtype=int),
            )

    def test_target_width_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        features, _ = tiny_dataset(rng)
        bad_targets = rng.normal(size=(features.shape[0], 5))
        with pytest.raises(ValueError, match="match the model output"):
            train_cf_estimator(
                features, bad_targets, TINY_SPECS, TINY_SHAPE, TrainConfig(epochs=1),
                train_idx=np.arange(18), val_idx=np.arange(18, 24),
            )


class TestRegimeContracts:
    def test_kd_with_zero_weight_is_bitwise_base(self):
        rng = np.random.default_rng(7)
        data = tiny_task_data(rng)
        task = TaskSpec(kind="classification", n_classes=2)
        estimator = make_estimator()
        common = dict(epochs=3, batch_size=8, learning_rate=0.005, seed=11)
        base_model, base_result = train_task(
            task, data, TINY_SPECS, TINY_SHAPE, 2,
            RegimeConfig(regime="base", **common),
        )
        kd_model, kd_result = train_task(
            task, data, TINY_SPECS, TINY_SHAPE, 2,
            RegimeConfig(regime="kd", kd_weight=0.0, **common),
            cf_estimator=estimator,
        )
        for key, value in base_model.network.get_state().items():
            np.testing.assert_array_equal(kd_model.network.get_state()[key], value, err_msg=key)
        for key in base_model.head.params:
            np.testing.assert_array_equal(
                kd_model.head.params[key], base_model.head.params[key]
            )
        assert kd_result.metric_value == base_result.metric_value

    def test_fix_freezes_backbone_bitwise(self):
        rng = np.random.default_rng(8)
        data = tiny_task_data(rng)
        task = TaskSpec(kind="classification", n_classes=2)
        estimator = make_estimator(seed=2)
        frozen_before = estimator.get_state()
        model, result = train_task(
            task, data, TINY_SPECS, TINY_SHAPE, 2,
            RegimeConfig(regime="fix", epochs=4, batch_size=8, seed=5),
            cf_estimator=estimator,
        )
        for key, value in frozen_before.items():
            np.testing.assert_array_equal(model.network.get_state()[key], value, err_msg=key)
        assert result.epochs_run == 4

    def test_init_starts_from_estimator_then_diverges(self):
        rng = np.random.default_rng(9)
        data = tiny_task_data(rng)
        task = TaskSpec(kind="classification", n_classes=2)
        estimator = make_estimator(seed=3)
        model0, _ = train_task(
            task, data, TINY_SPECS, TINY_SHAPE, 2,
            RegimeConfig(regime="init", epochs=0, batch_size=8, seed=6),
            cf_estimator=estimator,
        )
        for key, value in estimator.get_state().items():
            np.testing.assert_array_equal(model0.network.get_state()[key], value, err_msg=key)
        model_k, _ = train_task(
            task, data, TINY_SPECS, TINY_SHAPE, 2,
            RegimeConfig(regime="init", epochs=3, batch_size=8, seed=6),
            cf_estimator=estimator,
        )
        diffs = [
            np.max(np.abs(model_k.network.get_state()[k] - v))
            for k, v in estimator.named_params().items()
        ]
        assert max(diffs) > 0.0

    def test_kd_leaves_estimator_untouched(self):
        rng = np.random.default_rng(10)
        data = tiny_task_data(rng)
        task = TaskSpec(kind="classification", n_classes=2)
        estimator = make_estimator(seed=4)
        before = estimator.get_state()
        train_task(
            task, data, TINY_SPECS, TINY_SHAPE, 2,
            RegimeConfig(regime="kd", kd_weight=1.0, epochs=3, batch_size=8, seed=7),
            cf_estimator=estimator,
        )
        for key, value in before.items():
            np.testing.assert_array_equal(estimator.get_state()[key], value, err_msg=key)

    def test_transfer_regimes_require_estimator(self):
        rng = np.random.default_rng(11)
        data = tiny_task_data(rng)
        task = TaskSpec(kind="classification", n_classes=2)
        for regime in ("fix", "init", "kd"):
            with pytest.raises(ValueError, match="requires"):
                train_task(
                    task, data, TINY_SPECS, TINY_SHAPE, 2,
                    RegimeConfig(regime=regime, epochs=1),
                )

    def test_backbone_schedule_mismatch_rejected(self):
        rng = np.random.default_rng(12)
        data = tiny_task_data(rng)
        task = TaskSpec(kind="classification", n_classes=2)
        other = build_network(
            double_conv(2, se_ratio=2) + [LayerSpec("global_avg_pool"), LayerSpec("fully_connected", width=6)],
            TINY_SHAPE,
            seed=0,
        )
        with pytest.raises(ValueError, match="schedule mismatch"):
            train_task(
                task, data, TINY_SPECS, TINY_SHAPE, 2,
                RegimeConfig(regime="init", epochs=1),
                cf_estimator=other,
            )

    def test_training_is_deterministic_given_seed(self):
        rng = np.random.default_rng(13)
        data = tiny_task_data(rng)
        task = TaskSpec(kind="classification", n_classes=2)
        estimator = make_estimator(seed=5)

        def run():
            model, _ = train_task(
                task, data, TINY_SPECS, TINY_SHAPE, 2,
                RegimeConfig(regime="kd", epochs=3, batch_size=8, seed=21),
                cf_estimator=estimator,
            )
            return model.network.get_state()

        a, b = run(), run()
        for key, value in a.items():
            np.testing.assert_array_equal(b[key], value, err_msg=key)


class TestEarlyStopping:
    @pytest.mark.parametrize("regime", ["base", "fix", "init", "kd"])
    def test_stops_after_patience_and_restores_best_epoch(self, monkeypatch, regime):
        rng = np.random.default_rng(15)
        data = tiny_task_data(rng)
        task = TaskSpec(kind="classification", n_classes=2)
        snapshots = {}
        real_fit = transfer._fit

        def recording_fit(*args, **kwargs):
            bound = inspect.signature(real_fit).bind(*args, **kwargs)
            get_state = bound.arguments["get_state"]
            bound.arguments["on_epoch"] = lambda epoch, row: snapshots.update({epoch: get_state()})
            return real_fit(*bound.args, **bound.kwargs)

        monkeypatch.setattr(transfer, "_fit", recording_fit)
        epochs, patience = 30, 2
        model, result = train_task(
            task, data, TINY_SPECS, TINY_SHAPE, 2,
            RegimeConfig(regime=regime, epochs=epochs, batch_size=8, learning_rate=0.05,
                         seed=3, patience=patience),
            cf_estimator=None if regime == "base" else make_estimator(seed=6),
        )
        best_epoch = int(np.argmin([row["val_loss"] for row in result.curve]))
        assert result.epochs_run < epochs
        assert result.epochs_run == best_epoch + patience + 1
        net_state, head_params = snapshots[best_epoch]
        for key, value in model.network.get_state().items():
            np.testing.assert_array_equal(value, net_state[key], err_msg=key)
        for key, value in model.head.params.items():
            np.testing.assert_array_equal(value, head_params[key], err_msg=key)


class TestRegressionTask:
    def test_regression_path_produces_r_squared(self):
        rng = np.random.default_rng(14)
        n = 24
        features = rng.normal(size=(n, *TINY_SHAPE))
        targets = features.mean(axis=(1, 2, 3)) * 2.0
        idx = rng.permutation(n)
        data = TaskData(
            features=features,
            targets=targets,
            train_idx=idx[:16],
            val_idx=idx[16:20],
            test_idx=idx[20:],
        )
        task = TaskSpec(kind="regression", target_dim=1, metric="r_squared")
        _, result = train_task(
            task, data, TINY_SPECS, TINY_SHAPE, 2,
            RegimeConfig(regime="base", epochs=4, batch_size=8, seed=1),
        )
        assert result.metric_name == "r_squared"
        assert 0.0 <= result.metric_value <= 1.0


class TestTaskDataValidation:
    def test_overlapping_splits_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            TaskData(
                features=np.zeros((4, 2, 2, 1)),
                targets=np.zeros(4, dtype=int),
                train_idx=[0, 1],
                val_idx=[1],
                test_idx=[3],
            )

    def test_empty_split_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            TaskData(
                features=np.zeros((4, 2, 2, 1)),
                targets=np.zeros(4, dtype=int),
                train_idx=[0, 1],
                val_idx=[],
                test_idx=[3],
            )


class TestConfigValidation:
    def test_unknown_regime_rejected(self):
        with pytest.raises(ValueError, match="regime"):
            RegimeConfig(regime="bogus")

    def test_negative_kd_weight_rejected(self):
        with pytest.raises(ValueError, match="kd_weight"):
            RegimeConfig(regime="kd", kd_weight=-0.5)

    def test_task_spec_validation(self):
        with pytest.raises(ValueError):
            TaskSpec(kind="classification", n_classes=1)
        with pytest.raises(ValueError):
            TaskSpec(kind="classification", n_classes=3, metric="r_squared")
        with pytest.raises(ValueError):
            TaskSpec(kind="unknown")

    def test_task_spec_metric_defaults_by_kind(self):
        assert TaskSpec(kind="classification", n_classes=3).metric == "accuracy"
        assert TaskSpec(kind="regression").metric == "r_squared"
