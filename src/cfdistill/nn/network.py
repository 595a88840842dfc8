"""Layer schedules, network assembly, presets, and checkpoints.

A network is an ordered list of :class:`LayerSpec` entries plus the
per-sample input shape.  ``cf_estimator_table1`` is the full-scale song
embedding estimator (30 s of 16 kHz audio); ``cf_estimator_desk`` is the
reduced schedule for short synthetic clips.
"""

from __future__ import annotations

import io
import json
import numbers
import struct
import zipfile
from dataclasses import dataclass, fields
from typing import Optional

import numpy as np

from ..fileio import atomic_write
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

# The one LayerSpec field each layer kind takes (None: it takes none).
LAYER_FIELDS = {
    "conv2d": "out_channels",
    "batch_norm": None,
    "relu": None,
    "max_pool": "pool",
    "se_block": "ratio",
    "global_avg_pool": None,
    "fully_connected": "width",
}

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class LayerSpec:
    kind: str
    out_channels: Optional[int] = None  # conv2d
    pool: Optional[tuple] = None  # max_pool (ph, pw)
    ratio: Optional[int] = None  # se_block
    width: Optional[int] = None  # fully_connected

    def __post_init__(self):
        if self.kind not in LAYER_FIELDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        field = LAYER_FIELDS[self.kind]
        for name in ("out_channels", "pool", "ratio", "width"):
            if (getattr(self, name) is None) == (name == field):
                need = "needs" if name == field else "takes no"
                raise ValueError(f"{self.kind} layer {need} {name!r}")
        value = getattr(self, field) if field else None
        if field == "pool":
            if not (isinstance(value, (tuple, list)) and len(value) == 2
                    and all(map(_positive_int, value))):
                raise ValueError(f"max_pool layer 'pool' must be two positive ints, got {value!r}")
            object.__setattr__(self, "pool", tuple(value))
        elif field and not _positive_int(value):
            raise ValueError(f"{self.kind} layer {field!r} must be a positive int, got {value!r}")

    def to_dict(self):
        return {k: list(v) if k == "pool" else v for k, v in vars(self).items() if v is not None}

    @staticmethod
    def from_dict(d):
        unknown = sorted(set(d) - {f.name for f in fields(LayerSpec)})
        if unknown:
            raise ValueError(f"unknown layer record key {unknown[0]!r}")
        return LayerSpec(**{"kind": None, **d})  # no kind: rejected as an unknown kind


def _positive_int(value):
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value > 0


def _layer(spec, shape, rng, dtype):
    """The layer for ``spec`` on per-sample input ``shape``, its weights drawn
    from ``rng``, and its output shape.

    Raises ValueError if the layer cannot take that input.
    """
    if spec.kind in ("conv2d", "max_pool", "se_block", "global_avg_pool") and len(shape) != 3:
        raise ValueError(f"{spec.kind} needs (H, W, C) input, got {shape}")
    if spec.kind == "conv2d":
        out_shape = (*shape[:2], spec.out_channels)
        return Conv2d(shape[2], spec.out_channels, rng, dtype=dtype), out_shape
    if spec.kind == "batch_norm":
        return BatchNorm(shape[-1], dtype=dtype), shape
    if spec.kind == "relu":
        return ReLU(), shape
    if spec.kind == "max_pool":
        (h, w, c), (ph, pw) = shape, spec.pool
        if h % ph or w % pw:
            raise ValueError(f"pool {spec.pool} does not divide ({h}, {w})")
        return MaxPool(spec.pool), (h // ph, w // pw, c)
    if spec.kind == "se_block":
        if shape[2] % spec.ratio:
            raise ValueError(f"se_block ratio {spec.ratio} does not divide {shape[2]} channels")
        return SEBlock(shape[2], spec.ratio, rng, dtype=dtype), shape
    if spec.kind == "global_avg_pool":
        return GlobalAvgPool(), shape[2:]
    if len(shape) != 1:
        raise ValueError(f"fully_connected needs flat input, got {shape}")
    return FullyConnected(shape[0], spec.width, rng, dtype=dtype), (spec.width,)


def _keyed(dicts):
    """One flat dict keyed '<layer index>.<name>' from per-layer dicts."""
    return {f"{i}.{name}": a for i, d in enumerate(dicts) for name, a in d.items()}


# Samples per block of an eval-mode forward without caches.  In eval mode
# every layer acts on each sample alone, so blocks give the same rows as
# one pass over the batch; at 4 desk samples a 96x80x8 float32 activation
# is under 1 MB and stays in a core's L2 cache from one layer to the next,
# where a batch of 64 streams 16 MB arrays through memory.  A multiple of
# 4, and cut by :func:`batch_bounds`: BLAS groups rows in fours and sends a
# single row down its vector path, and either a block boundary inside a group
# or a one-row product changes the rounding of the SE block's small products.
EVAL_BLOCK = 4


def batch_bounds(n, size):
    """(start, stop) pairs that cut ``n`` samples into runs of ``size``; a last
    run of one sample joins the run before it (see ``EVAL_BLOCK``)."""
    bounds = list(range(0, n, size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return list(zip(bounds, bounds[1:]))


class NetworkModel:
    """Ordered layer stack with parameters; built by :func:`build_network`."""

    def __init__(self, specs, input_shape, layers, shapes, dtype=np.float64):
        self.specs = list(specs)
        self.input_shape = tuple(input_shape)
        self.layers: list[Layer] = layers
        self.shapes = shapes  # per-sample output shape of each layer
        self.output_shape = shapes[-1]
        self.dtype = np.dtype(dtype)

    def forward(self, x, train=False, keep_cache=True):
        """Run the stack; returns (output, per-layer caches or None).

        ``x`` is a batch: shape (N,) + input_shape.  A train-mode forward
        returns its caches unless ``keep_cache`` is false.  An eval-mode
        forward keeps none and runs the stack on ``EVAL_BLOCK`` samples at
        a time.
        """
        x = np.asarray(x, dtype=self.dtype)
        if x.shape[1:] != self.input_shape:
            raise ValueError(
                f"input shape {x.shape[1:]} does not match model {self.input_shape}"
            )
        caches = [] if train and keep_cache else None
        if train:
            for layer in self.layers:
                x, cache = layer.forward(x, train=True)
                if caches is not None:
                    caches.append(cache)
        else:
            blocks = batch_bounds(len(x), EVAL_BLOCK)
            x = np.concatenate([self._eval_block(x[a:b]) for a, b in blocks])
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
        return _keyed(layer.params for layer in self.layers)

    def named_grads(self, grads):
        return _keyed(grads)

    def _state_arrays(self):
        """The model's own parameter arrays, then its buffers, keyed as in named_params."""
        return {**self.named_params(), **_keyed(layer.buffers() for layer in self.layers)}

    def get_state(self):
        """Copies of all parameters and buffers (batch-norm running statistics)."""
        return {k: v.copy() for k, v in self._state_arrays().items()}

    def set_state(self, state):
        """Overwrite parameters and buffers in place from a :meth:`get_state` dict.

        ``state`` must hold exactly this model's keys and shapes; otherwise
        nothing is written and ValueError names the first offending key.
        """
        arrays = self._state_arrays()
        odd = sorted(set(arrays) ^ set(state))
        if odd:
            why = "missing" if odd[0] in arrays else "unexpected"
            raise ValueError(f"{why} state key {odd[0]!r}")
        for key, value in state.items():
            if np.shape(value) != arrays[key].shape:
                raise ValueError(
                    f"state {key!r} has shape {np.shape(value)}, not {arrays[key].shape}"
                )
        for key, value in state.items():
            arrays[key][...] = value


def build_network(specs, input_shape, seed=0, dtype=np.float64):
    """Instantiate layers for a schedule; parameters drawn from ``seed``.

    Raises ValueError for an empty schedule or a layer that cannot take its input.
    """
    if not specs:
        raise ValueError("a network needs at least one layer")
    rng = np.random.default_rng(seed)
    shape, layers, shapes = tuple(input_shape), [], []
    for spec in specs:
        layer, shape = _layer(spec, shape, rng, dtype)
        layers.append(layer)
        shapes.append(shape)
    return NetworkModel(specs, input_shape, layers, shapes, dtype=dtype)


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


def save_checkpoint(model: NetworkModel, path, extra=None):
    """Write architecture plus all parameters/buffers to one .npz file, atomically."""
    arch = {
        "input_shape": list(model.input_shape),
        "layers": [s.to_dict() for s in model.specs],
        "dtype": model.dtype.name,
        "checkpoint_version": CHECKPOINT_VERSION,
    }
    if extra:
        arch["extra"] = extra
    arrays = {f"state/{k}": v for k, v in model.get_state().items()}
    with atomic_write(path) as fh:
        np.savez(fh, arch=np.frombuffer(json.dumps(arch, sort_keys=True).encode(), dtype=np.uint8), **arrays)


def _check_archive(archive: zipfile.ZipFile, blob):
    """Raise ValueError unless the archive's end record ends ``blob`` with no
    comment, and each member's local header repeats its central directory
    entry, as ``save_checkpoint`` writes them.  (``zipfile`` reads only the
    central directory, and the end record wherever it finds it.)"""
    end = len(blob) - zipfile.sizeEndCentDir
    if blob[end:end + 4] != zipfile.stringEndArchive or blob[-2:] != b"\0\0":
        raise ValueError("bytes after the zip archive's end record")
    for info in archive.infolist():
        offset = info.header_offset
        header = struct.unpack_from(zipfile.structFileHeader, blob, offset)
        y, mo, d, h, mi, sec = info.date_time
        sizes = (info.compress_size, info.file_size)
        if header[8:10] == (0xFFFFFFFF, 0xFFFFFFFF):  # sizes in a zip64 extra record
            extra = offset + zipfile.sizeFileHeader + header[10]
            if struct.unpack_from("<2H2Q", blob, extra) == (1, 16, info.file_size,
                                                            info.compress_size):
                sizes = header[8:10]
        want = (info.extract_version, info.reserved, info.flag_bits, info.compress_type,
                h << 11 | mi << 5 | sec // 2, (y - 1980) << 9 | mo << 5 | d, info.CRC, *sizes)
        if header[1:10] != want:
            raise ValueError(f"local header of {info.filename!r} does not match the directory")


def load_checkpoint(path, expect_specs=None, expect_input_shape=None):
    """Rebuild a model from a checkpoint.

    If the expected schedule or input shape is given and the file holds a
    different architecture, loading fails with a descriptive error.  A
    file that cannot be read as a checkpoint, or whose architecture record
    or state is malformed, raises a ValueError naming ``path``.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        with np.load(io.BytesIO(blob)) as data:
            _check_archive(data.zip, blob)
            arch = json.loads(bytes(data["arch"]).decode())
            state = {k[len("state/") :]: data[k] for k in data.files if k.startswith("state/")}
    except KeyError:
        raise ValueError(f"{path}: checkpoint has no 'arch' record") from None
    # Not a zip, cut short, a damaged zip record or bad JSON; zipfile raises
    # NotImplementedError and RuntimeError for flags it does not support, and
    # OSError and struct.error come from offsets outside the file.
    except (zipfile.BadZipFile, ValueError, EOFError, NotImplementedError, RuntimeError,
            OSError, struct.error) as exc:
        raise ValueError(f"{path}: not a readable checkpoint: {exc}") from None
    if not isinstance(arch, dict) or arch.get("checkpoint_version") != CHECKPOINT_VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version")
    try:
        specs = [LayerSpec.from_dict(d) for d in arch["layers"]]
        input_shape = tuple(arch["input_shape"])
        if expect_specs is not None and list(expect_specs) != specs:
            raise ValueError("checkpoint architecture does not match the expected schedule")
        if expect_input_shape is not None and tuple(expect_input_shape) != input_shape:
            raise ValueError(
                f"checkpoint input shape {input_shape} != expected {tuple(expect_input_shape)}"
            )
        dtype = arch["dtype"]
        if dtype not in ("float32", "float64"):
            raise ValueError(f"checkpoint dtype must be 'float32' or 'float64', got {dtype!r}")
        model = build_network(specs, input_shape, seed=0, dtype=dtype)
        model.set_state(state)
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint 'arch' record has no {exc}") from None
    except TypeError as exc:
        raise ValueError(f"{path}: malformed checkpoint 'arch' record: {exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return model
