"""Architecture presets, shape traces, checkpoints, end-to-end gradients."""

import json
import re

import numpy as np
import pytest

from cfdistill.nn.layers import BatchNorm
from cfdistill.nn.network import (
    EVAL_BLOCK,
    LayerSpec,
    build_network,
    cf_estimator_table1,
    double_conv,
    load_checkpoint,
    save_checkpoint,
)
from cfdistill.transfer import predict_network

from conftest import build_preset
from gradcheck import numeric_grad


def traced_shapes(model, x):
    """Per-layer output shapes (without the batch axis) of a real forward."""
    shapes = []
    for layer in model.layers:
        x, _ = layer.forward(x, train=False)
        shapes.append(x.shape[1:])
    return shapes


def rewrite_checkpoint(path, edit):
    """Apply ``edit(arch, arrays)`` to a checkpoint's contents and save them back."""
    with np.load(path) as data:
        arch = json.loads(bytes(data["arch"]).decode())
        arrays = {k: data[k] for k in data.files if k != "arch"}
    edit(arch, arrays)
    np.savez(path, arch=np.frombuffer(json.dumps(arch).encode(), dtype=np.uint8), **arrays)


# Damage to a checkpoint's 'arch' record: the edit, and the error it gives.
ARCH_DAMAGE = {
    "layer_not_a_record": (lambda arch: arch["layers"].__setitem__(0, 1),
                           "malformed checkpoint 'arch' record: 'int' object is not iterable"),
    "no_input_shape": (lambda arch: arch.pop("input_shape"),
                       "checkpoint 'arch' record has no 'input_shape'"),
    "unknown_dtype": (lambda arch: arch.__setitem__("dtype", "banana"),
                      "checkpoint dtype must be 'float32' or 'float64', got 'banana'"),
    "no_dtype": (lambda arch: arch.pop("dtype"), "checkpoint 'arch' record has no 'dtype'"),
}


def milestone_shapes(model, x):
    """Shapes after each max-pool, the GAP, and the final FC."""
    shapes = traced_shapes(model, x)
    out = []
    for spec, shape in zip(model.specs, shapes):
        if spec.kind in ("max_pool", "global_avg_pool", "fully_connected"):
            out.append(shape)
    return out


class TestShapeTrace:
    @pytest.mark.parametrize("f", [8, 32])
    def test_full_scale_trace(self, f):
        model, _, _ = build_preset("cf_estimator_table1", f, seed=0)
        x = np.zeros((1, 96, 1280, 1))
        assert milestone_shapes(model, x) == [
            (24, 256, f),
            (8, 64, f),
            (4, 16, f),
            (2, 4, f),
            (f,),
            (40,),
        ]

    def test_four_block_variant_matches_table_layout(self):
        specs, input_shape = cf_estimator_table1(8, include_fifth_block=False)
        n_se = sum(1 for s in specs if s.kind == "se_block")
        assert n_se == 4
        model = build_network(specs, input_shape)
        assert model.shapes[-1] == model.output_shape == (40,)

    def test_fifth_block_present_by_default(self):
        specs, _ = cf_estimator_table1(8)
        assert sum(1 for s in specs if s.kind == "se_block") == 5

    def test_desk_preset_trace(self):
        model, _, _ = build_preset("cf_estimator_desk", 8, seed=0)
        x = np.zeros((2, 96, 80, 1))
        assert milestone_shapes(model, x) == [
            (24, 16, 8),
            (8, 4, 8),
            (4, 1, 8),
            (8,),
            (40,),
        ]

    def test_infer_shapes_matches_real_forward(self):
        model, specs, input_shape = build_preset("cf_estimator_desk", 8, seed=1)
        x = np.zeros((1,) + input_shape)
        assert traced_shapes(model, x) == model.shapes

    @pytest.mark.parametrize(
        "specs, input_shape, match",
        [
            ([LayerSpec("max_pool", pool=(3, 2))], (4, 4, 1), "does not divide"),
            ([LayerSpec("conv2d", out_channels=2)], (6,), "needs \\(H, W, C\\) input"),
            ([LayerSpec("se_block", ratio=2)], (6,), "needs \\(H, W, C\\) input"),
            ([LayerSpec("global_avg_pool")], (6,), "needs \\(H, W, C\\) input"),
            ([LayerSpec("fully_connected", width=3)], (2, 2, 1), "needs flat input"),
            ([LayerSpec("se_block", ratio=4)], (2, 2, 6), "does not divide 6 channels"),
        ],
        ids=["pool", "conv_flat", "se_flat", "gap_flat", "fc_map", "se_ratio"],
    )
    def test_schedule_that_does_not_fit_is_rejected(self, specs, input_shape, match):
        with pytest.raises(ValueError, match=match):
            build_network(specs, input_shape)


class TestLayerSpec:
    def test_missing_field_rejected(self):
        with pytest.raises(ValueError, match="conv2d layer needs 'out_channels'"):
            LayerSpec("conv2d")

    def test_other_kinds_field_rejected(self):
        with pytest.raises(ValueError, match="relu layer takes no 'width'"):
            LayerSpec("relu", width=3)
        with pytest.raises(ValueError, match="max_pool layer takes no 'ratio'"):
            LayerSpec("max_pool", pool=(2, 2), ratio=2)

    def test_pool_becomes_tuple(self):
        spec = LayerSpec("max_pool", pool=[2, 4])
        assert spec.pool == (2, 4)
        assert spec == LayerSpec("max_pool", pool=(2, 4))

    def test_dict_round_trip(self):
        specs, _ = cf_estimator_table1(8)
        assert [LayerSpec.from_dict(s.to_dict()) for s in specs] == specs


class TestDoubleConv:
    def test_spatial_dims_preserved(self):
        specs = double_conv(8)
        model = build_network(specs, (96, 1280, 1), seed=0)
        y, _ = model.forward(np.zeros((1, 96, 1280, 1)))
        assert y.shape == (1, 96, 1280, 8)

    def test_constructed_identity_is_relu_composition(self):
        # BN as identity (eval mode, unit running stats, tiny eps), delta
        # kernels, and an SE gate forced to one reduce the block to
        # relu(relu(x)).
        specs = double_conv(2, se_ratio=2)
        model = build_network(specs, (5, 6, 2), seed=0)
        for layer in model.layers:
            if isinstance(layer, BatchNorm):
                layer.eps = 1e-15
            name = type(layer).__name__
            if name == "Conv2d":
                layer.params["w"][...] = 0.0
                for c in range(2):
                    layer.params["w"][1, 1, c, c] = 1.0
                layer.params["b"][...] = 0.0
            if name == "SEBlock":
                layer.params["w1"][...] = 0.0
                layer.params["b1"][...] = 0.0
                layer.params["w2"][...] = 0.0
                layer.params["b2"][...] = 40.0
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 5, 6, 2))
        y, _ = model.forward(x, train=False)
        np.testing.assert_allclose(y, np.maximum(x, 0.0), atol=1e-7)

    def test_block_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        specs = double_conv(2, se_ratio=2)
        model = build_network(specs, (4, 4, 2), seed=4)
        x = rng.normal(size=(2, 4, 4, 2))
        y0, _ = model.forward(x, train=True)
        w = rng.normal(size=y0.shape)

        def loss():
            y, _ = model.forward(x, train=True)
            return float(np.sum(w * y))

        out, caches = model.forward(x, train=True)
        _, grads = model.backward(caches, w)
        named = model.named_grads(grads)
        for key, param in model.named_params().items():
            np.testing.assert_allclose(
                named[key], numeric_grad(loss, param), rtol=1e-4, atol=1e-8,
                err_msg=key,
            )


class TestForwardBackward:
    def test_zero_params_give_zero_output(self):
        model, _, _ = build_preset("cf_estimator_desk", 8, seed=0)
        for p in model.named_params().values():
            p[...] = 0.0
        y, _ = model.forward(np.zeros((2, 96, 80, 1)), train=True)
        np.testing.assert_array_equal(y, 0.0)

    def test_end_to_end_gradients_tiny_config(self):
        rng = np.random.default_rng(5)
        specs = (
            double_conv(2, se_ratio=2)
            + [LayerSpec("max_pool", pool=(2, 2))]
            + [LayerSpec("global_avg_pool"), LayerSpec("fully_connected", width=3)]
        )
        model = build_network(specs, (4, 4, 1), seed=6)
        x = rng.normal(size=(2, 4, 4, 1))
        w = rng.normal(size=(2, 3))

        def loss():
            y, _ = model.forward(x, train=True)
            return float(np.sum(w * y))

        _, caches = model.forward(x, train=True)
        dx, grads = model.backward(caches, w)
        named = model.named_grads(grads)
        for key, param in model.named_params().items():
            np.testing.assert_allclose(
                named[key], numeric_grad(loss, param), rtol=1e-3, atol=1e-7,
                err_msg=key,
            )
        np.testing.assert_allclose(dx, numeric_grad(loss, x), rtol=1e-3, atol=1e-7)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_blocked_eval_forward_matches_one_pass(self, dtype):
        """Eval mode runs the stack EVAL_BLOCK samples at a time, keeping
        no caches, and predict_network in batches of its own; their rows
        must equal one pass of the layers over the batch bit for bit, also
        when the last block or batch is short or holds a single sample."""
        model, _, _ = build_preset("cf_estimator_desk", 8, seed=3, dtype=dtype)
        rng = np.random.default_rng(4)
        for layer in model.layers:
            if isinstance(layer, BatchNorm):
                layer.running_mean = rng.normal(size=layer.channels).astype(dtype)
                layer.running_var = rng.uniform(0.5, 2.0, size=layer.channels).astype(dtype)
        x = rng.normal(size=(3 * EVAL_BLOCK + 1, 96, 80, 1))
        for n in range(1, len(x) + 1):
            blocked, caches = model.forward(x[:n], train=False, keep_cache=False)
            assert caches is None
            assert model.forward(x[:n], train=False, keep_cache=True)[1] is None
            whole = model._eval_block(x[:n].astype(dtype))
            np.testing.assert_array_equal(blocked, whole, err_msg=f"batch of {n}")
            for batch_size in (4, 8):
                np.testing.assert_array_equal(
                    predict_network(model, x[:n], batch_size=batch_size), whole,
                    err_msg=f"predict_network on {n} in batches of {batch_size}",
                )

    def test_stale_cache_rejected(self):
        model, _, _ = build_preset("cf_estimator_desk", 8, seed=0)
        with pytest.raises(ValueError, match="cache"):
            model.backward([None, None], np.zeros((1, 40)))

    def test_input_shape_validated(self):
        model, _, _ = build_preset("cf_estimator_desk", 8, seed=0)
        with pytest.raises(ValueError, match="input shape"):
            model.forward(np.zeros((1, 96, 84, 1)))


class TestCheckpoints:
    def test_round_trip_preserves_state(self, tmp_path):
        model, _, _ = build_preset("cf_estimator_desk", 8, seed=7)
        # make the BN buffers non-trivial before saving
        model.forward(np.random.default_rng(8).normal(size=(4, 96, 80, 1)), train=True)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for key, value in model.get_state().items():
            np.testing.assert_array_equal(loaded.get_state()[key], value, err_msg=key)
        x = np.random.default_rng(9).normal(size=(2, 96, 80, 1))
        np.testing.assert_array_equal(
            model.forward(x)[0], loaded.forward(x)[0]
        )

    def test_architecture_mismatch_fails_loudly(self, tmp_path):
        model, _, _ = build_preset("cf_estimator_desk", 8, seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        other_specs, other_shape = cf_estimator_table1(8)
        with pytest.raises(ValueError, match="architecture"):
            load_checkpoint(path, expect_specs=other_specs)
        with pytest.raises(ValueError, match="input shape"):
            load_checkpoint(path, expect_input_shape=other_shape)

    # desk layers: 0 batch_norm, 1 relu, 2 conv2d (8 channels), ...
    @pytest.mark.parametrize(
        "key, value, match",
        [
            ("2.w", None, "missing state key '2.w'"),
            ("1.running_mean", np.zeros(1), "unexpected state key '1.running_mean'"),
            ("99.w", np.zeros(1), "unexpected state key '99.w'"),
            ("2.b", np.zeros(3), "state '2.b' has shape \\(3,\\), not \\(8,\\)"),
        ],
        ids=["missing", "buffer_on_relu", "no_such_layer", "shape"],
    )
    def test_state_that_does_not_match_model_rejected(self, tmp_path, key, value, match):
        def edit(state, prefix=""):
            if value is None:
                del state[prefix + key]
            else:
                state[prefix + key] = value

        model, _, _ = build_preset("cf_estimator_desk", 8, seed=0)
        before = model.get_state()
        state = {k: v + 1 for k, v in before.items()}
        edit(state)
        with pytest.raises(ValueError, match=match):
            model.set_state(state)
        for k, v in model.get_state().items():
            np.testing.assert_array_equal(v, before[k], err_msg=k)  # nothing written

        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        rewrite_checkpoint(path, lambda arch, arrays: edit(arrays, "state/"))
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "record, match",
        [
            ({"kind": "conv2d"}, "conv2d layer needs 'out_channels'"),
            ({"kind": "relu", "width": 3}, "relu layer takes no 'width'"),
            ({"kind": "relu", "widht": 3}, "unknown layer record key 'widht'"),
            ({"kind": "se_block", "ratio": 0}, "se_block layer 'ratio' must be a positive int"),
            ({"kind": "fully_connected", "width": 2.5}, "'width' must be a positive int"),
            ({"kind": "conv2d", "out_channels": True}, "'out_channels' must be a positive int"),
            ({"kind": "max_pool", "pool": [2]}, "'pool' must be two positive ints"),
            ({"kind": "max_pool", "pool": [2, -1]}, "'pool' must be two positive ints"),
            ([], "at least one layer"),
        ],
        ids=[
            "missing_field", "extra_field", "unknown_key", "zero_ratio", "float_width",
            "bool_channels", "short_pool", "negative_pool", "empty_schedule",
        ],
    )
    def test_malformed_layer_record_rejected(self, tmp_path, record, match):
        """A bad layer record (or, given a list, a bad whole schedule) fails to load."""
        model, _, _ = build_preset("cf_estimator_desk", 8, seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)

        def edit(arch, arrays):
            if isinstance(record, list):
                arch["layers"] = record
            else:
                arch["layers"][1] = record

        rewrite_checkpoint(path, edit)
        with pytest.raises(ValueError, match=match):
            load_checkpoint(path)

    @pytest.mark.parametrize("damage, match", [
        ("truncated", "not a readable checkpoint: File is not a zip file"),
        ("not_a_zip", "not a readable checkpoint"),
        ("no_arch", "checkpoint has no 'arch' record"),
        ("bad_json", "not a readable checkpoint: Expecting property name"),
        *((damage, match) for damage, (_, match) in sorted(ARCH_DAMAGE.items())),
    ])
    def test_damaged_file_rejected_naming_it(self, tmp_path, damage, match):
        model, _, _ = build_preset("cf_estimator_desk", 8, seed=0)
        path = tmp_path / "model.npz"
        save_checkpoint(model, path)
        if damage == "truncated":
            path.write_bytes(path.read_bytes()[:-100])
        elif damage == "not_a_zip":
            path.write_bytes(b"\x00" * 64)
        elif damage in ARCH_DAMAGE:
            rewrite_checkpoint(path, lambda arch, arrays: ARCH_DAMAGE[damage][0](arch))
        else:
            with np.load(path) as data:
                arrays = {k: data[k] for k in data.files if k != "arch"}
            if damage == "bad_json":
                arrays["arch"] = np.frombuffer(b"{not json", dtype=np.uint8)
            np.savez(path, **arrays)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {match}"):
            load_checkpoint(path)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError, match="preset"):
            build_preset("no_such_preset", 8)
