"""Bit guard: a whole float32 desk train step and eval forward against the
frozen layers of ``reference_layers``.

The reference network is the desk estimator (``cf_estimator_desk`` with 8
channels) with each layer replaced by its frozen copy, run one layer at a
time, and its Adam is ``reference_adam``.  The library's ``NetworkModel``,
with its fast kernels, must give the same bits: the
output, the input gradient, every parameter gradient, the batch norms'
running buffers, the parameters after one Adam step, and the eval forward
of 8 and of 4 samples.  A kernel change that moves one bit anywhere in the
network fails here.
"""

import numpy as np

import reference_adam
import reference_layers as ref
from cfdistill.nn.adam import AdamState, adam_step
from cfdistill.nn.layers import (
    BatchNorm,
    Conv2d,
    FullyConnected,
    GlobalAvgPool,
    MaxPool,
    ReLU,
    SEBlock,
)
from cfdistill.nn.network import EVAL_BLOCK, batch_bounds, build_network, cf_estimator_desk
from cfdistill.transfer import distillation_loss

DTYPE = np.float32


def _frozen(layer):
    """The reference twin of a library layer, with copies of its state."""
    rng = np.random.default_rng(0)
    if isinstance(layer, Conv2d):
        twin = ref.FlatConv2d(layer.in_channels, layer.out_channels, rng, DTYPE)
    elif isinstance(layer, BatchNorm):
        twin = ref.FlatBatchNorm(layer.channels, dtype=DTYPE)
        twin.running_mean = layer.running_mean.copy()
        twin.running_var = layer.running_var.copy()
    elif isinstance(layer, ReLU):
        twin = ref.ReLU()
    elif isinstance(layer, MaxPool):
        twin = ref.MaxPool((layer.ph, layer.pw))
    elif isinstance(layer, SEBlock):
        twin = ref.SEBlock(layer.channels, layer.ratio, rng, DTYPE)
    elif isinstance(layer, GlobalAvgPool):
        twin = ref.GlobalAvgPool()
    else:
        assert isinstance(layer, FullyConnected)
        twin = ref.FullyConnected(*layer.params["w"].shape, rng, DTYPE)
    twin.params = {k: v.copy() for k, v in layer.params.items()}
    return twin


def _same(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), f"{what}: bits differ"


def _desk_model():
    """The desk estimator with batch-norm parameters and running buffers
    away from their initial values, so eval mode does real arithmetic."""
    specs, shape = cf_estimator_desk(8)
    model = build_network(specs, shape, seed=7, dtype=DTYPE)
    rng = np.random.default_rng(8)
    for layer in model.layers:
        if isinstance(layer, BatchNorm):
            c = layer.channels
            layer.params["gamma"][...] = rng.uniform(0.5, 1.5, size=c)
            layer.params["beta"][...] = rng.normal(scale=0.1, size=c)
            layer.running_mean[...] = rng.normal(scale=0.1, size=c)
            layer.running_var[...] = rng.uniform(0.5, 2.0, size=c)
    return model, shape


def test_desk_train_step_and_eval_forward_same_bits_as_frozen_layers():
    model, shape = _desk_model()
    frozen = [_frozen(layer) for layer in model.layers]
    rng = np.random.default_rng(9)
    x = rng.normal(size=(8, *shape)).astype(DTYPE)
    targets = rng.normal(size=(8, 40))

    y, caches = model.forward(x, train=True)
    want, ref_caches = x, []
    for layer in frozen:
        want, cache = layer.forward(want, train=True)
        ref_caches.append(cache)
    _same(y, want, "train output")

    dout = distillation_loss(y, targets)[1]
    dx, grads = model.backward(caches, dout)
    ref_dx, ref_grads = np.asarray(dout, dtype=DTYPE), []
    for layer, cache in zip(reversed(frozen), reversed(ref_caches)):
        ref_dx, g = layer.backward(ref_dx, cache)
        ref_grads.insert(0, g)
    _same(dx, ref_dx, "dx")
    for i, (g, ref_g) in enumerate(zip(grads, ref_grads)):
        assert sorted(g) == sorted(ref_g), i
        for name in g:
            _same(g[name], ref_g[name], f"layer {i} d{name}")
    for i, (layer, twin) in enumerate(zip(model.layers, frozen)):
        if isinstance(layer, BatchNorm):
            _same(layer.running_mean, twin.running_mean, f"layer {i} running mean")
            _same(layer.running_var, twin.running_var, f"layer {i} running var")

    params = model.named_params()
    ref_params = {f"{i}.{k}": v for i, t in enumerate(frozen) for k, v in t.params.items()}
    adam_step(AdamState(params, 0.003), params, model.named_grads(grads))
    reference_adam.adam_step(reference_adam.AdamState(ref_params, 0.003), ref_params,
                             {f"{i}.{k}": v for i, g in enumerate(ref_grads) for k, v in g.items()})
    for key in params:
        _same(params[key], ref_params[key], f"{key} after one Adam step")

    for n in (8, 4):
        got = model.forward(x[:n], train=False)[0]
        blocks = []
        for a, b in batch_bounds(n, EVAL_BLOCK):
            out = x[a:b]
            for layer in frozen:
                out = layer.forward(out, train=False)[0]
            blocks.append(out)
        _same(got, np.concatenate(blocks), f"eval output of {n} samples")
