"""Layer schedules, network assembly, presets, and checkpoints.

A network is an ordered list of :class:`LayerSpec` entries plus the
per-sample input shape.  ``cf_estimator_table1`` is the full-scale song
embedding estimator (30 s of 16 kHz audio); ``cf_estimator_desk`` is the
reduced schedule for short synthetic clips.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .layers import (
    BatchNorm,
    Conv2d,
    FullyConnected,
    GlobalAvgPool,
    Layer,
    MaxPool,
    ReLU,
    SEBlock,
)

LAYER_KINDS = (
    "conv2d",
    "batch_norm",
    "relu",
    "max_pool",
    "se_block",
    "global_avg_pool",
    "fully_connected",
)

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    out_channels: Optional[int] = None  # conv2d
    pool: Optional[tuple] = None  # max_pool (ph, pw)
    ratio: Optional[int] = None  # se_block
    width: Optional[int] = None  # fully_connected

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")

    def to_dict(self):
        d = {"kind": self.kind}
        for name in ("out_channels", "ratio", "width"):
            if getattr(self, name) is not None:
                d[name] = getattr(self, name)
        if self.pool is not None:
            d["pool"] = list(self.pool)
        return d

    @staticmethod
    def from_dict(d):
        pool = tuple(d["pool"]) if "pool" in d else None
        return LayerSpec(
            kind=d["kind"],
            out_channels=d.get("out_channels"),
            pool=pool,
            ratio=d.get("ratio"),
            width=d.get("width"),
        )


def infer_shapes(specs, input_shape):
    """Per-sample output shape after each layer; raises on mismatch."""
    shape = tuple(input_shape)
    shapes = []
    for spec in specs:
        if spec.kind == "conv2d":
            if len(shape) != 3:
                raise ValueError(f"conv2d needs (H, W, C) input, got {shape}")
            shape = (shape[0], shape[1], spec.out_channels)
        elif spec.kind == "max_pool":
            h, w, c = shape
            ph, pw = spec.pool
            if h % ph or w % pw:
                raise ValueError(f"pool {spec.pool} does not divide ({h}, {w})")
            shape = (h // ph, w // pw, c)
        elif spec.kind == "se_block":
            if len(shape) != 3 or shape[2] % spec.ratio:
                raise ValueError(
                    f"se_block ratio {spec.ratio} incompatible with shape {shape}"
                )
        elif spec.kind == "global_avg_pool":
            if len(shape) != 3:
                raise ValueError(f"global_avg_pool needs (H, W, C) input, got {shape}")
            shape = (shape[2],)
        elif spec.kind == "fully_connected":
            if len(shape) != 1:
                raise ValueError(f"fully_connected needs flat input, got {shape}")
            shape = (spec.width,)
        # batch_norm and relu preserve shape
        shapes.append(shape)
    return shapes


# Samples per block of an eval-mode forward without caches.  In eval mode
# every layer acts on each sample alone, so blocks give the same rows as
# one pass over the batch; at 4 desk samples a 96x80x8 float32 activation
# is under 1 MB and stays in a core's L2 cache from one layer to the next,
# where a batch of 64 streams 16 MB arrays through memory.  A multiple of
# 4, and a last block of one sample joins the block before it: BLAS groups
# rows in fours and sends a single row down its vector path, and either a
# block boundary inside a group or a one-row product changes the rounding
# of the SE block's small products.
EVAL_BLOCK = 4


class NetworkModel:
    """Ordered layer stack with parameters; built by :func:`build_network`."""

    def __init__(self, specs, input_shape, layers, dtype=np.float64):
        self.specs = list(specs)
        self.input_shape = tuple(input_shape)
        self.layers: list[Layer] = layers
        self.dtype = np.dtype(dtype)
        self.output_shape = infer_shapes(self.specs, self.input_shape)[-1]

    def forward(self, x, train=False, keep_cache=True):
        """Run the stack; returns (output, caches or None).

        ``x`` is a batch: shape (N,) + input_shape.  An eval-mode forward
        without caches runs the stack on ``EVAL_BLOCK`` samples at a time.
        """
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"input shape {x.shape[1:]} does not match model {self.input_shape}"
            )
        caches = [] if keep_cache else None
        if train or keep_cache:
            for layer in self.layers:
                x, cache = layer.forward(x, train=train)
                if keep_cache:
                    caches.append(cache)
        else:
            bounds = list(range(0, len(x), EVAL_BLOCK)) + [len(x)]
            if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
                del bounds[-2]
            x = np.concatenate([self._eval_block(x[a:b]) for a, b in zip(bounds, bounds[1:])])
        if not np.all(np.isfinite(x)):
            raise FloatingPointError("non-finite activations in forward pass")
        return x, caches

    def _eval_block(self, x):
        for layer in self.layers:
            x, _ = layer.forward(x, train=False)
        return x

    def backward(self, caches, dout):
        """Reverse-mode gradients; returns (input gradient, per-layer grads)."""
        if caches is None or len(caches) != len(self.layers):
            raise ValueError("cache does not match this model's layers")
        dout = np.asarray(dout, dtype=self.dtype)
        grads: list[dict] = [None] * len(self.layers)
        for i in range(len(self.layers) - 1, -1, -1):
            dout, g = self.layers[i].backward(dout, caches[i])
            grads[i] = g
        return dout, grads

    def named_params(self):
        """Flat view of all parameters, keyed '<layer index>.<name>'."""
        out = {}
        for i, layer in enumerate(self.layers):
            for name, p in layer.params.items():
                out[f"{i}.{name}"] = p
        return out

    def named_grads(self, grads):
        out = {}
        for i, g in enumerate(grads):
            for name, arr in g.items():
                out[f"{i}.{name}"] = arr
        return out

    def get_state(self):
        """Copies of all parameters and batch-norm running buffers."""
        state = {k: v.copy() for k, v in self.named_params().items()}
        for i, layer in enumerate(self.layers):
            if isinstance(layer, BatchNorm):
                state[f"{i}.running_mean"] = layer.running_mean.copy()
                state[f"{i}.running_var"] = layer.running_var.copy()
        return state

    def set_state(self, state):
        params = self.named_params()
        for key, value in state.items():
            idx, name = key.split(".", 1)
            layer = self.layers[int(idx)]
            if name == "running_mean":
                layer.running_mean = value.copy()
            elif name == "running_var":
                layer.running_var = value.copy()
            else:
                if params[key].shape != value.shape:
                    raise ValueError(f"state shape mismatch at {key}")
                params[key][...] = value

    def copy(self):
        clone = build_network(self.specs, self.input_shape, seed=0, dtype=self.dtype)
        clone.set_state(self.get_state())
        return clone


def build_network(specs, input_shape, seed=0, dtype=np.float64):
    """Instantiate layers for a schedule; parameters drawn from ``seed``."""
    shapes = [tuple(input_shape)] + infer_shapes(specs, input_shape)
    rng = np.random.default_rng(seed)
    layers: list[Layer] = []
    for spec, shape_in in zip(specs, shapes[:-1]):
        if spec.kind == "conv2d":
            layers.append(Conv2d(shape_in[2], spec.out_channels, rng, dtype=dtype))
        elif spec.kind == "batch_norm":
            layers.append(BatchNorm(shape_in[-1], dtype=dtype))
        elif spec.kind == "relu":
            layers.append(ReLU())
        elif spec.kind == "max_pool":
            layers.append(MaxPool(spec.pool))
        elif spec.kind == "se_block":
            layers.append(SEBlock(shape_in[2], spec.ratio, rng, dtype=dtype))
        elif spec.kind == "global_avg_pool":
            layers.append(GlobalAvgPool())
        elif spec.kind == "fully_connected":
            layers.append(FullyConnected(shape_in[0], spec.width, rng, dtype=dtype))
    return NetworkModel(specs, input_shape, layers, dtype=dtype)


def double_conv(out_channels, se_ratio=8):
    """BN -> ReLU -> Conv, twice, then a squeeze-and-excitation gate."""
    return [
        LayerSpec("batch_norm"),
        LayerSpec("relu"),
        LayerSpec("conv2d", out_channels=out_channels),
        LayerSpec("batch_norm"),
        LayerSpec("relu"),
        LayerSpec("conv2d", out_channels=out_channels),
        LayerSpec("se_block", ratio=se_ratio),
    ]


def cf_estimator_table1(n_channels, include_fifth_block=True, se_ratio=8):
    """Full-scale estimator schedule: (96, 1280, 1) in, 40-d out.

    Four pooled double-conv blocks sized (4,5), (3,4), (2,4), (2,4), an
    optional fifth unpooled block, global average pooling, and a linear
    40-wide output.
    """
    specs = []
    for pool in [(4, 5), (3, 4), (2, 4), (2, 4)]:
        specs += double_conv(n_channels, se_ratio)
        specs.append(LayerSpec("max_pool", pool=pool))
    if include_fifth_block:
        specs += double_conv(n_channels, se_ratio)
    specs.append(LayerSpec("global_avg_pool"))
    specs.append(LayerSpec("fully_connected", width=40))
    return specs, (96, 1280, 1)


def cf_estimator_desk(n_channels, se_ratio=8):
    """Reduced estimator schedule for (96, 80, 1) grids (short clips)."""
    specs = []
    for pool in [(4, 5), (3, 4), (2, 4)]:
        specs += double_conv(n_channels, se_ratio)
        specs.append(LayerSpec("max_pool", pool=pool))
    specs += double_conv(n_channels, se_ratio)
    specs.append(LayerSpec("global_avg_pool"))
    specs.append(LayerSpec("fully_connected", width=40))
    return specs, (96, 80, 1)


PRESETS = {
    "cf_estimator_table1": cf_estimator_table1,
    "cf_estimator_desk": cf_estimator_desk,
}


def build_preset(name, n_channels, seed=0, dtype=np.float64, **kwargs):
    """Build a preset network; returns (model, specs, input_shape)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; have {sorted(PRESETS)}")
    specs, input_shape = PRESETS[name](n_channels, **kwargs)
    return build_network(specs, input_shape, seed=seed, dtype=dtype), specs, input_shape


def arch_dict(specs, input_shape, dtype=np.float64):
    return {
        "input_shape": list(input_shape),
        "layers": [s.to_dict() for s in specs],
        "dtype": np.dtype(dtype).name,
    }


def save_checkpoint(model: NetworkModel, path, extra=None):
    """Write architecture plus all parameters/buffers to one .npz file."""
    arch = arch_dict(model.specs, model.input_shape, model.dtype)
    arch["checkpoint_version"] = CHECKPOINT_VERSION
    if extra:
        arch["extra"] = extra
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {f"state/{k}": v for k, v in model.get_state().items()}
    np.savez(path, arch=np.frombuffer(json.dumps(arch, sort_keys=True).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path, expect_specs=None, expect_input_shape=None):
    """Rebuild a model from a checkpoint.

    If the expected schedule or input shape is given and the file holds a
    different architecture, loading fails with a descriptive error.
    """
    with np.load(path) as data:
        arch = json.loads(bytes(data["arch"]).decode())
        if arch.get("checkpoint_version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version")
        specs = [LayerSpec.from_dict(d) for d in arch["layers"]]
        input_shape = tuple(arch["input_shape"])
        if expect_specs is not None and list(expect_specs) != specs:
            raise ValueError(
                f"{path}: checkpoint architecture does not match the expected schedule"
            )
        if expect_input_shape is not None and tuple(expect_input_shape) != input_shape:
            raise ValueError(
                f"{path}: checkpoint input shape {input_shape} != expected "
                f"{tuple(expect_input_shape)}"
            )
        model = build_network(specs, input_shape, seed=0, dtype=arch.get("dtype", "float64"))
        model.set_state({k[len("state/") :]: data[k] for k in data.files if k.startswith("state/")})
    return model
