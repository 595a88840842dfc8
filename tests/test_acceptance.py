"""Acceptance criteria, one test per criterion, one PASS line each.

Criteria 1-5 and 8 are fast; 6 and 7 run full desk-scale pipelines and
dominate the suite's runtime (the directional replication trains every
regime over 5 seeds).  Those two are marked ``slow``, so
``pytest -m "not slow"`` runs everything else.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from cfdistill.als import (
    AlsConfig,
    CfEmbedding,
    als_fit,
    als_solve_side,
    weighted_loss,
)
from cfdistill.cli import main
from cfdistill.evaluation import paired_improvement_test
from cfdistill.experiment import read_results_csv, summarize_results
from cfdistill.features import FeatureConfig, Waveform, melspectrogram, stft_power
from cfdistill.nn.layers import (
    BatchNorm,
    Conv2d,
    FullyConnected,
    GlobalAvgPool,
    MaxPool,
    SEBlock,
)
from cfdistill.nn.losses import cosine_proximity_loss, mse_loss, softmax_cross_entropy
from cfdistill.nn.network import build_preset
from cfdistill.transfer import RegimeConfig, TaskSpec, distillation_loss, train_task

from gradcheck import numeric_grad
from test_als import dense_solve_oracle, random_matrix
from test_features import dft_power_oracle, windowed_frame
from test_network import milestone_shapes
from test_transfer import TINY_SHAPE, TINY_SPECS, make_estimator, tiny_task_data

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def rel_err(analytic, numeric, floor):
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), floor)
    return float(np.max(np.abs(analytic - numeric) / denom))


def test_criterion_1_als_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    for instance in range(30):
        n_u = int(rng.integers(5, 51))
        n_i = int(rng.integers(5, 51))
        matrix = random_matrix(rng, n_u, n_i, density=float(rng.uniform(0.1, 0.4)))
        config = AlsConfig(
            n_factors=4,
            reg_lambda=float(rng.uniform(0.05, 0.5)),
            alpha=float(rng.uniform(5.0, 40.0)),
            n_iterations=3,
            seed=instance,
        )
        init = als_fit(matrix, AlsConfig(**{**vars(config), "n_iterations": 0}))
        losses = [weighted_loss(matrix, init, config)]

        def on_sweep(sweep, users, items):
            emb = CfEmbedding(items, users, matrix.item_ids, matrix.user_ids)
            losses.append(weighted_loss(matrix, emb, config))

        als_fit(matrix, config, on_sweep=on_sweep)
        for prev, cur in zip(losses, losses[1:]):
            assert cur <= prev * (1.0 + 1e-9), f"loss increased on instance {instance}"

        fixed_items = rng.normal(size=(n_i, 4))
        fixed_users = rng.normal(size=(n_u, 4))
        for side, fixed in (("user", fixed_items), ("item", fixed_users)):
            got = als_solve_side(fixed, matrix, config, side)
            want = dense_solve_oracle(fixed, matrix, config, side)
            assert np.max(np.abs(got - want)) < 1e-10, f"oracle mismatch ({side})"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"criterion 1 took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: ALS monotone sweeps + dense-oracle solves ({elapsed:.1f}s)")


def test_criterion_2_gradient_suite():
    start = time.perf_counter()

    def check_layer(make_layer, make_input, train=True):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            layer = make_layer(rng)
            x = make_input(rng)
            y0, _ = layer.forward(x, train=train)
            w = rng.normal(size=y0.shape)

            def loss():
                y, _ = layer.forward(x, train=train)
                return float(np.sum(w * y))

            _, cache = layer.forward(x, train=train)
            dx, grads = layer.backward(w, cache)
            assert rel_err(dx, numeric_grad(loss, x), 1e-3) < 1e-4
            for name, param in layer.params.items():
                assert rel_err(grads[name], numeric_grad(loss, param), 1e-3) < 1e-4

    check_layer(lambda r: Conv2d(2, 3, r), lambda r: r.normal(size=(2, 4, 5, 2)))
    check_layer(lambda r: BatchNorm(3), lambda r: r.normal(size=(4, 3, 2, 3)))
    check_layer(
        lambda r: MaxPool((2, 3)),
        lambda r: r.permutation(np.arange(48, dtype=float)).reshape(1, 4, 6, 2) * 0.31,
    )
    check_layer(lambda r: SEBlock(4, 2, r), lambda r: r.normal(size=(2, 3, 3, 4)))
    check_layer(lambda r: GlobalAvgPool(), lambda r: r.normal(size=(2, 3, 4, 2)))
    check_layer(lambda r: FullyConnected(6, 4, r), lambda r: r.normal(size=(3, 6)))

    losses = {
        "mse": lambda p, t: mse_loss(p, t),
        "cosine": lambda p, t: cosine_proximity_loss(p, t),
        "cross_entropy": lambda p, t: softmax_cross_entropy(p, 3),
        "distillation": lambda p, t: distillation_loss(p, t),
    }
    for name, fn in losses.items():
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            pred = rng.normal(size=12)
            target = rng.normal(size=12)
            _, grad = fn(pred, target)
            numeric = numeric_grad(lambda: fn(pred, target)[0], pred, h=1e-6)
            assert rel_err(grad, numeric, 1e-2) < 1e-6, f"{name} gradient (seed {seed})"

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"criterion 2 took {elapsed:.1f}s"
    print(f"\nPASS criterion 2: finite-difference suite, 10 seeds per op ({elapsed:.1f}s)")


def test_criterion_3_architecture_fidelity():
    start = time.perf_counter()
    model, _, _ = build_preset("cf_estimator_table1", 8, seed=0)
    x = np.random.default_rng(0).normal(size=(1, 96, 1280, 1))
    trace = milestone_shapes(model, x)
    assert trace == [(24, 256, 8), (8, 64, 8), (4, 16, 8), (2, 4, 8), (8,), (40,)]
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"criterion 3 took {elapsed:.1f}s"
    print(f"\nPASS criterion 3: full-scale shape trace on (96, 1280, 1) ({elapsed:.1f}s)")


def test_criterion_4_feature_fidelity():
    rng = np.random.default_rng(1)
    config = FeatureConfig()
    samples = rng.normal(size=480000)
    wave = Waveform(samples, 16000)
    power = stft_power(wave, config)
    assert power.shape == (257, 1280)
    mel = melspectrogram(wave, config)
    assert mel.grid.shape == (96, 1280)
    t = 640
    oracle = dft_power_oracle(windowed_frame(samples, config, t))
    err = np.abs(power[:, t] - oracle) / np.maximum(np.abs(oracle), 1e-12)
    assert err[oracle > 1e-12].max() < 1e-8
    print("\nPASS criterion 4: 96x1280 grid from 480000 samples; frame matches DFT oracle")


def test_criterion_5_regime_contracts():
    rng = np.random.default_rng(7)
    data = tiny_task_data(rng)
    task = TaskSpec(kind="classification", n_classes=2)
    estimator = make_estimator()
    common = dict(epochs=3, batch_size=8, learning_rate=0.005, seed=11)

    base_model, _ = train_task(
        task, data, TINY_SPECS, TINY_SHAPE, 2, RegimeConfig(regime="base", **common)
    )
    kd0_model, _ = train_task(
        task, data, TINY_SPECS, TINY_SHAPE, 2,
        RegimeConfig(regime="kd", kd_weight=0.0, **common),
        cf_estimator=estimator,
    )
    for key, value in base_model.network.get_state().items():
        np.testing.assert_array_equal(kd0_model.network.get_state()[key], value, err_msg=key)
    for key in base_model.head.params:
        np.testing.assert_array_equal(kd0_model.head.params[key], base_model.head.params[key])

    frozen = estimator.get_state()
    fix_model, _ = train_task(
        task, data, TINY_SPECS, TINY_SHAPE, 2,
        RegimeConfig(regime="fix", epochs=4, batch_size=8, seed=5),
        cf_estimator=estimator,
    )
    for key, value in frozen.items():
        np.testing.assert_array_equal(fix_model.network.get_state()[key], value, err_msg=key)

    init_model, _ = train_task(
        task, data, TINY_SPECS, TINY_SHAPE, 2,
        RegimeConfig(regime="init", epochs=0, batch_size=8, seed=5),
        cf_estimator=estimator,
    )
    for key, value in estimator.get_state().items():
        np.testing.assert_array_equal(init_model.network.get_state()[key], value, err_msg=key)

    print("\nPASS criterion 5: kd(0)==base bitwise; fix frozen; init starts at estimator")


@pytest.mark.slow
def test_criterion_6_desk_scale_directional_replication(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "default_run"
    code = main(["run", str(CONFIGS / "default.json"), "--out", str(out), "--deterministic"])
    assert code == 0
    rows = read_results_csv(out / "results.csv")
    assert len(rows) == 20  # 5 seeds x 4 regimes
    summary = summarize_results(rows)
    kd = [r["metric"] for r in rows if r["regime"] == "kd"]
    base = [r["metric"] for r in rows if r["regime"] == "base"]
    assert len(kd) == 5 and len(base) == 5
    mean_diff, t_stat, p_val = paired_improvement_test(kd, base)
    assert mean_diff > 0.0, f"kd - base = {mean_diff:.4f} not positive"
    elapsed = time.perf_counter() - start
    assert elapsed < 1800.0, f"criterion 6 took {elapsed:.0f}s"
    print(
        f"\nPASS criterion 6: mean(kd)-mean(base) = {mean_diff:+.4f} over 5 seeds "
        f"(kd {np.mean(kd):.3f} vs base {np.mean(base):.3f}; paired t={t_stat:.3f}, "
        f"p={p_val:.3f}; means {summary['means']}; {elapsed:.0f}s)"
    )


@pytest.mark.slow
def test_criterion_7_fix_at_chance_on_control_world(tmp_path):
    start = time.perf_counter()
    out = tmp_path / "control_run"
    code = main(["run", str(CONFIGS / "control_world.json"), "--out", str(out), "--deterministic"])
    assert code == 0
    rows = read_results_csv(out / "results.csv")
    fix_rows = [r for r in rows if r["regime"] == "fix"]
    assert len(fix_rows) == 5
    # equal per-seed test sizes, so the pooled accuracy is the mean
    n_per_seed = 25
    n_total = n_per_seed * len(fix_rows)
    pooled = float(np.mean([r["metric"] for r in fix_rows]))
    p0 = 0.25
    band = 3.0 * np.sqrt(p0 * (1.0 - p0) / n_total)
    assert abs(pooled - p0) <= band, (
        f"fix accuracy {pooled:.4f} outside {p0} +/- {band:.4f} binomial null"
    )
    elapsed = time.perf_counter() - start
    print(
        f"\nPASS criterion 7: control-world fix accuracy {pooled:.4f} within "
        f"3-sigma band {p0} +/- {band:.4f} ({elapsed:.0f}s)"
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        code = main(["run", str(CONFIGS / "tiny.json"), "--out", str(out), "--deterministic"])
        assert code == 0
    bytes_a = (out_a / "results.csv").read_bytes()
    bytes_b = (out_b / "results.csv").read_bytes()
    assert bytes_a == bytes_b
    print("\nPASS criterion 8: identical manifests produce byte-identical results.csv")
