"""Fast layers against the reference layers, and float32 against float64.

``reference_layers`` holds the im2col ``Conv2d`` and the axis-reducing
``BatchNorm`` that the flat-offset conv and the 2-D batch norm replaced,
compared within a tolerance, and the ``FlatBatchNorm``, ``ReLU`` and
``MaxPool`` that built caches in eval mode too, compared bit for bit.
The shapes are every conv and batch-norm shape of the desk estimator
(``cf_estimator_desk`` with 8 channels on 96x80 grids) at the training
batch of 8, plus the 96x80 shapes at the catalog batch of 64.
"""

import numpy as np
import pytest

import reference_layers as ref
from cfdistill.nn.layers import (
    BatchNorm,
    Conv2d,
    FullyConnected,
    GlobalAvgPool,
    MaxPool,
    ReLU,
    SEBlock,
)
from cfdistill.nn.network import build_preset

# (N, H, W, C_in, C_out)
DESK_CONV_SHAPES = [
    (8, 96, 80, 1, 8),
    (8, 96, 80, 8, 8),
    (8, 24, 16, 8, 8),
    (8, 8, 4, 8, 8),
    (8, 4, 1, 8, 8),
]
CATALOG_CONV_SHAPES = [(64, 96, 80, 1, 8), (64, 96, 80, 8, 8)]
# (N, H, W, C): the batch-norm inputs of the desk estimator
DESK_BN_SHAPES = [(8, 96, 80, 1)] + [(n, h, w, o) for n, h, w, _, o in DESK_CONV_SHAPES]

F64_TOL = 1e-10
F32_TOL = 1e-4


def _assert_scaled(got, want, tol, scale, what):
    err = float(np.max(np.abs(np.asarray(got, np.float64) - want)))
    assert err <= tol * scale, f"{what}: max error {err:.3e} > {tol:g} * {scale:.3e}"


def _compare_step(fast, slow, x, dout, train, tol):
    """Forward and backward of two layers with equal parameters must agree.

    Outputs are compared against the largest reference output; ``dx`` and
    every parameter gradient against the largest reference gradient of
    the layer, so a gradient that is about 0 is held to the layer's scale.
    """
    y_fast, cache_fast = fast.forward(x, train=train)
    y_slow, cache_slow = slow.forward(x, train=train)
    assert y_fast.shape == y_slow.shape and y_fast.dtype == y_slow.dtype
    _assert_scaled(y_fast, y_slow, tol, np.max(np.abs(y_slow)), "output")
    dx_fast, g_fast = fast.backward(dout, cache_fast)
    dx_slow, g_slow = slow.backward(dout, cache_slow)
    assert dx_fast.shape == x.shape and dx_fast.dtype == dx_slow.dtype
    assert sorted(g_fast) == sorted(g_slow)
    scale = max(np.max(np.abs(g)) for g in [dx_slow, *g_slow.values()])
    _assert_scaled(dx_fast, dx_slow, tol, scale, "dx")
    for name in g_slow:
        assert g_fast[name].dtype == g_slow[name].dtype
        _assert_scaled(g_fast[name], g_slow[name], tol, scale, f"d{name}")


def _conv_cases():
    cases = [(s, d) for s in DESK_CONV_SHAPES for d in ("float64", "float32")]
    # the reference's 9x patch matrix at batch 64 is large; float32 only
    return cases + [(s, "float32") for s in CATALOG_CONV_SHAPES]


@pytest.mark.parametrize("shape,dtype", _conv_cases())
def test_conv2d_matches_im2col_reference(shape, dtype):
    n, h, w, c, o = shape
    rng = np.random.default_rng(sum(shape))
    fast = Conv2d(c, o, np.random.default_rng(1), dtype=dtype)
    slow = ref.Conv2d(c, o, np.random.default_rng(1), dtype=dtype)
    bias = rng.normal(size=o).astype(dtype)
    fast.params["b"][...] = bias
    slow.params["b"][...] = bias
    x = rng.normal(size=(n, h, w, c)).astype(dtype)
    dout = rng.normal(size=(n, h, w, o)).astype(dtype)
    tol = F64_TOL if dtype == "float64" else F32_TOL
    _compare_step(fast, slow, x, dout, True, tol)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("shape", DESK_BN_SHAPES + [(64, 96, 80, 8), (8, 40)])
def test_batch_norm_matches_reference(shape, dtype, train):
    c = shape[-1]
    rng = np.random.default_rng(sum(shape))
    fast, slow = BatchNorm(c, dtype=dtype), ref.BatchNorm(c, dtype=dtype)
    gamma = rng.uniform(0.5, 1.5, size=c).astype(dtype)
    beta = rng.normal(size=c).astype(dtype)
    mean = rng.normal(size=c).astype(dtype)
    var = rng.uniform(0.5, 2.0, size=c).astype(dtype)
    for layer in (fast, slow):
        layer.params["gamma"][...] = gamma
        layer.params["beta"][...] = beta
        layer.running_mean, layer.running_var = mean.copy(), var.copy()
    x = (3.0 * rng.normal(size=shape) + 1.5).astype(dtype)
    dout = rng.normal(size=shape).astype(dtype)
    tol = F64_TOL if dtype == "float64" else F32_TOL
    _compare_step(fast, slow, x, dout, train, tol)
    for got, want in ((fast.running_mean, slow.running_mean), (fast.running_var, slow.running_var)):
        assert got.dtype == want.dtype
        _assert_scaled(got, want, tol, np.max(np.abs(want)), "running buffer")


def test_desk_network_step_matches_reference_layers():
    """A whole float64 desk train step with the reference conv and batch norm.

    Here the conv biases feed a batch norm, so their true gradient is about
    0 and only the layer-scaled comparison is meaningful.  (In float32 the
    rounding of some thirty layers compounds; the layer tests cover it.)
    """
    dtype = "float64"
    fast, _, _ = build_preset("cf_estimator_desk", 8, seed=3, dtype=dtype)
    slow, _, _ = build_preset("cf_estimator_desk", 8, seed=3, dtype=dtype)
    for i, layer in enumerate(fast.layers):
        if isinstance(layer, Conv2d):
            twin = ref.Conv2d(layer.in_channels, layer.out_channels, np.random.default_rng(0), dtype)
        elif isinstance(layer, BatchNorm):
            twin = ref.BatchNorm(layer.channels, dtype=dtype)
        else:
            continue
        twin.params = {k: v.copy() for k, v in layer.params.items()}
        slow.layers[i] = twin
    rng = np.random.default_rng(5)
    x = rng.normal(size=(8, 96, 80, 1))
    y_fast, caches_fast = fast.forward(x, train=True)
    y_slow, caches_slow = slow.forward(x, train=True)
    tol = F64_TOL
    _assert_scaled(y_fast, y_slow, tol, np.max(np.abs(y_slow)), "network output")
    dout = rng.normal(size=y_fast.shape)
    dx_fast, g_fast = fast.backward(caches_fast, dout)
    dx_slow, g_slow = slow.backward(caches_slow, dout)
    _assert_scaled(dx_fast, dx_slow, tol, np.max(np.abs(dx_slow)), "network dx")
    for i, (gf, gs) in enumerate(zip(g_fast, g_slow)):
        if not gs:
            continue
        scale = max(np.max(np.abs(g)) for g in gs.values())
        for name in gs:
            _assert_scaled(gf[name], gs[name], tol, scale, f"layer {i} d{name}")
    for i, (lf, ls) in enumerate(zip(fast.layers, slow.layers)):
        if isinstance(lf, BatchNorm):
            _assert_scaled(lf.running_var, ls.running_var, tol, np.max(ls.running_var), f"layer {i}")


def _assert_same_bits(got, want, what):
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), f"{what}: bits differ"


def _same_step(fast, slow, x, dout, train):
    """Forward and backward of two layers give the same bits."""
    y_fast, cache_fast = fast.forward(x, train=train)
    y_slow, cache_slow = slow.forward(x, train=train)
    _assert_same_bits(y_fast, y_slow, "output")
    dx_fast, g_fast = fast.backward(dout, cache_fast)
    dx_slow, g_slow = slow.backward(dout, cache_slow)
    _assert_same_bits(dx_fast, dx_slow, "dx")
    assert sorted(g_fast) == sorted(g_slow)
    for name in g_slow:
        _assert_same_bits(g_fast[name], g_slow[name], f"d{name}")


def _tied(rng, shape, dtype):
    """Values on a coarse grid, so windows hold ties: a ReLU's +0.0 zeros,
    equal positives, and -0.0 beside +0.0."""
    x = np.maximum(rng.integers(-4, 4, size=shape) / 2, 0.0)
    x[rng.random(shape) < 0.05] = -0.0
    x[rng.random(shape) < 0.2] = -1.0
    return x.astype(dtype)


BIT_DTYPES = ["float64", "float32"]
POOL_SHAPES = [((8, 96, 80, 8), (4, 5)), ((8, 24, 16, 8), (3, 4)), ((8, 8, 4, 8), (2, 4)),
               ((4, 4, 6, 3), (2, 3))]


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("dtype", BIT_DTYPES)
@pytest.mark.parametrize("shape,pool", POOL_SHAPES)
def test_max_pool_same_bits_as_argmax_reference(shape, pool, dtype, train):
    rng = np.random.default_rng(sum(shape))
    dout_shape = (shape[0], shape[1] // pool[0], shape[2] // pool[1], shape[3])
    dout = rng.normal(size=dout_shape).astype(dtype)
    for x in (_tied(rng, shape, dtype), rng.normal(size=shape).astype(dtype)):
        _same_step(MaxPool(pool), ref.MaxPool(pool), x, dout, train)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("dtype", BIT_DTYPES)
def test_relu_same_bits_as_mask_reference(dtype, train):
    rng = np.random.default_rng(7)
    shape = (8, 96, 80, 8)
    x = rng.normal(size=shape).astype(dtype)
    x[rng.random(shape) < 0.05] = 0.0
    x[rng.random(shape) < 0.05] = -0.0
    dout = rng.normal(size=shape).astype(dtype)
    _same_step(ReLU(), ref.ReLU(), x, dout, train)
    y = ReLU().forward(x, train=train)[0]
    _same_step(MaxPool((4, 5)), ref.MaxPool((4, 5)), y, dout[:, ::4, ::5], train)


@pytest.mark.parametrize("train", [True, False])
@pytest.mark.parametrize("dtype", BIT_DTYPES)
@pytest.mark.parametrize("shape", DESK_BN_SHAPES + [(8, 40)])
def test_batch_norm_same_bits_as_flat_reference(shape, dtype, train):
    c = shape[-1]
    rng = np.random.default_rng(sum(shape))
    fast, slow = BatchNorm(c, dtype=dtype), ref.FlatBatchNorm(c, dtype=dtype)
    gamma = rng.uniform(0.5, 1.5, size=c).astype(dtype)
    beta = rng.normal(size=c).astype(dtype)
    mean = rng.normal(size=c).astype(dtype)
    var = rng.uniform(0.5, 2.0, size=c).astype(dtype)
    for layer in (fast, slow):
        layer.params["gamma"][...] = gamma
        layer.params["beta"][...] = beta
        layer.running_mean, layer.running_var = mean.copy(), var.copy()
    x = (3.0 * rng.normal(size=shape) + 1.5).astype(dtype)
    dout = rng.normal(size=shape).astype(dtype)
    _same_step(fast, slow, x, dout, train)
    _assert_same_bits(fast.running_mean, slow.running_mean, "running mean")
    _assert_same_bits(fast.running_var, slow.running_var, "running var")


def _layer_cases():
    """(kind, make(rng, dtype), input shape, train) at desk shapes."""
    cases = []
    for n, h, w, c, o in DESK_CONV_SHAPES:
        cases.append(("conv2d", lambda r, d, c=c, o=o: Conv2d(c, o, r, dtype=d), (n, h, w, c), True))
    for shape in DESK_BN_SHAPES:
        for train in (True, False):
            cases.append(("batch_norm", lambda r, d, c=shape[-1]: BatchNorm(c, dtype=d), shape, train))
    cases.append(("relu", lambda r, d: ReLU(), (8, 96, 80, 8), True))
    for shape, pool in [((8, 96, 80, 8), (4, 5)), ((8, 24, 16, 8), (3, 4)), ((8, 8, 4, 8), (2, 4))]:
        cases.append(("max_pool", lambda r, d, p=pool: MaxPool(p), shape, True))
    for shape in [(8, 96, 80, 8), (8, 24, 16, 8), (8, 4, 1, 8)]:
        cases.append(("se_block", lambda r, d: SEBlock(8, 8, r, dtype=d), shape, True))
    cases.append(("global_avg_pool", lambda r, d: GlobalAvgPool(), (8, 4, 1, 8), True))
    cases.append(("fully_connected", lambda r, d: FullyConnected(8, 40, r, dtype=d), (8, 8), True))
    return cases


LAYER_CASES = _layer_cases()


@pytest.mark.parametrize(
    "kind,make,shape,train",
    LAYER_CASES,
    ids=[f"{k}-{'x'.join(map(str, s))}-{'train' if t else 'eval'}" for k, _, s, t in LAYER_CASES],
)
def test_float32_agrees_with_float64(kind, make, shape, train):
    """The float32 layer tracks the float64 one on float32-exact inputs.

    Inputs, upstream gradients and parameters are float32 values in both
    runs, so only the arithmetic precision differs; inputs are distinct,
    so max-pool and ReLU make the same choices in both.
    """
    rng = np.random.default_rng(len(shape) * 1000 + sum(shape))
    size = int(np.prod(shape))
    x32 = ((rng.permutation(size) - size / 2) / (size / 4)).reshape(shape).astype(np.float32)
    low = make(np.random.default_rng(2), np.float32)
    high = make(np.random.default_rng(2), np.float64)
    for name, p in low.params.items():
        high.params[name][...] = p
    if kind == "batch_norm":
        mean = rng.normal(size=shape[-1]).astype(np.float32)
        var = rng.uniform(0.5, 2.0, size=shape[-1]).astype(np.float32)
        low.running_mean, low.running_var = mean.copy(), var.copy()
        high.running_mean, high.running_var = mean.astype(np.float64), var.astype(np.float64)
    y64, c64 = high.forward(x32.astype(np.float64), train=train)
    y32, c32 = low.forward(x32, train=train)
    d_out = rng.normal(size=y64.shape).astype(np.float32)
    dx64, g64 = high.backward(d_out.astype(np.float64), c64)
    dx32, g32 = low.backward(d_out, c32)
    assert y32.dtype == np.float32 and dx32.dtype == np.float32
    assert all(g.dtype == np.float32 for g in g32.values())
    _assert_scaled(y32, y64, F32_TOL, np.max(np.abs(y64)), f"{kind} output")
    scale = max(np.max(np.abs(g)) for g in [dx64, *g64.values()])
    _assert_scaled(dx32, dx64, F32_TOL, scale, f"{kind} dx")
    for name in g64:
        _assert_scaled(g32[name], g64[name], F32_TOL, scale, f"{kind} d{name}")
