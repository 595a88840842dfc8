"""Network layers with explicit forward/backward passes.

Data layout is channels-last: feature maps are (N, H, W, C) and vector
activations are (N, D).  Every layer returns (output, cache) from
``forward`` and (input gradient, parameter gradients) from ``backward``;
the cache of a train-mode forward is whatever the backward pass needs and
nothing more.  An eval-mode forward returns ``None`` as its cache: nothing
back-propagates through one, so ``backward`` takes train caches only.

Per-channel elementwise ops (batch norm's subtract, scale and shift, the
SE gate, the conv bias) run on wide rows (``_wide``): a contiguous
(..., C) map viewed as rows of k*C values, k = gcd(rows, 256), with the
(C,) or (N, C) operand tiled k times.  At C = 8 numpy's inner loop then
runs up to 2048 values long instead of 8.  The conv's tap sum runs in
blocks of 4096 grid rows, so each block's partial sum stays in cache over
its nine products (Goto and van de Geijn, ACM TOMS 2008).  The SE
block's spatial mean and gate gradient are ``einsum`` sums over an
(N, H*W, C) view: the same bits as ``mean`` and ``sum`` over axes (1, 2),
about three times faster.  The train-mode max-pool finds each window's
maximum as eval does, then its first offset by one ``equal`` and an
``argmax``.  None of this changes an operand or the order of a sum, so
every output is the same bits as before; the tests compare against the
earlier layers kept in ``tests/reference_layers.py``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import expit as sigmoid

WIDE_ROWS = 256  # k in _wide divides this; 256*C values is a long inner loop
TAP_BLOCK = 4096  # grid rows per block of _tap_sum
MIN_TAP_ROWS = 4  # a shorter last block is merged into the one before it


class Layer:
    """Base layer: dicts of named parameters and buffers plus forward/backward."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, dout, cache):
        raise NotImplementedError

    def buffers(self):
        """Named state arrays saved with the parameters but not trained."""
        return {}


def _he_normal(rng, shape, fan_in, dtype):
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


def _wide(a, *vectors):
    """``a``, a (..., C) array, as rows of k*C values, and each (C,) or
    (N, C) vector tiled k times along its last axis to broadcast against
    them.  For (N, C) vectors the rows are per sample and the view is
    (N, rows/k, k*C).  k = gcd(rows, ``WIDE_ROWS``), so it always divides.

    A per-channel elementwise op on a (rows, C) array runs numpy's inner
    loop only C values long; on the wide view it runs k*C long, with the
    same operation on the same operands for every value, so the bits are
    the same.  A non-contiguous ``a`` is copied, so write only into views
    of arrays made here.
    """
    lead = vectors[0].shape[:-1]
    rows = math.prod(a.shape[len(lead) : -1])
    k = math.gcd(rows, WIDE_ROWS)
    view = a.reshape(*lead, rows // k, k * a.shape[-1])
    return (view, *(np.tile(v, k)[..., None, :] for v in vectors))


def _channel_sum(a):
    """Per-channel sum of a (rows, C) array.

    ``einsum`` walks the rows once; numpy's axis-0 ``sum`` of a narrow
    array takes about three times as long.
    """
    return np.einsum("ij->j", a)


def _tap_offsets(w):
    """Row offset of each 3x3 tap, row-major, on a flattened (H+2, W+2) grid."""
    return [ki * (w + 2) + kj for ki in range(3) for kj in range(3)]


def _pad_flat(x):
    """(N, H, W, C) zero-padded to (N, H+2, W+2, C) and flattened to rows.

    2*(W+2)+2 zero rows follow, so that each tap's slice is as long as the
    padded grid itself.
    """
    n, h, w, c = x.shape
    grid = n * (h + 2) * (w + 2)
    flat = np.zeros((grid + 2 * (w + 2) + 2, c), dtype=x.dtype)
    flat[:grid].reshape(n, h + 2, w + 2, c)[:, 1 : h + 1, 1 : w + 1, :] = x
    return flat


def _tap_sum(flat, taps, offsets):
    """``sum_t flat[o_t : o_t + grid] @ taps[t]``: one output row per grid row.

    The grid rows are summed in blocks of ``TAP_BLOCK`` (the last block at
    least ``MIN_TAP_ROWS``), so a block's partial sum stays in cache over
    its nine products.  A one-column product is a BLAS gemv, whose rounding
    depends on its length, so it is not blocked.
    """
    grid, width = len(flat) - offsets[-1], taps.shape[-1]
    out = np.empty((grid, width), dtype=np.result_type(flat, taps))
    starts = list(range(0, grid, TAP_BLOCK if width > 1 else max(grid, 1)))
    if len(starts) > 1 and grid - starts[-1] < MIN_TAP_ROWS:
        starts.pop()
    for r0, r1 in zip(starts, starts[1:] + [grid]):
        block = out[r0:r1]
        np.matmul(flat[r0:r1], taps[0], out=block)
        for t in range(1, 9):
            block += flat[offsets[t] + r0 : offsets[t] + r1] @ taps[t]
    return out


def _crop(rows, n, h, w):
    """The (N, H, W, C) top-left corner of rows laid out on the padded grid."""
    return rows.reshape(n, h + 2, w + 2, -1)[:, :h, :w, :]


def _crop_add(rows, b, n, h, w):
    """``_crop(rows, n, h, w) + b`` as one add of (N, H, W*O) wide rows, ``b``
    tiled W times, into a contiguous output."""
    o = len(b)
    out = np.empty((n, h, w * o), dtype=np.result_type(rows, b))
    np.add(rows.reshape(n, h + 2, (w + 2) * o)[:, :h, : w * o], np.tile(b, w), out=out)
    return out.reshape(n, h, w, o)


class Conv2d(Layer):
    """3x3 cross-correlation with zero 'same' padding, stride 1.

    The input is zero-padded to (N, H+2, W+2, C) and flattened to rows of
    C channels.  On that grid tap (ki, kj) is the contiguous row slice that
    starts at ki*(W+2)+kj, so the forward pass is nine (rows, C) @ (C, O)
    products summed on the padded grid (``_tap_sum``, in row blocks) and
    cropped to H x W, the bias added in the same pass.  Rows that run past
    a map's right edge or into the next sample land only in the cropped
    border.  With one input channel the nine slices are stacked into a
    (9, rows) matrix instead and multiplied once.  The train cache is the
    flattened padded input, or that (9, rows) matrix.
    """

    def __init__(self, in_channels, out_channels, rng, dtype=np.float64):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.params = {
            "w": _he_normal(rng, (3, 3, in_channels, out_channels), 9 * in_channels, dtype),
            "b": np.zeros(out_channels, dtype=dtype),
        }

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ValueError(
                f"conv2d expects (N, H, W, {self.in_channels}), got {x.shape}"
            )
        n, h, w, c = x.shape
        offsets = _tap_offsets(w)
        xp = _pad_flat(x)
        wk = self.params["w"].reshape(9, c, self.out_channels)
        if c == 1:
            grid = len(xp) - offsets[-1]
            xp = np.stack([xp[o : o + grid, 0] for o in offsets])
            out = xp.T @ wk[:, 0, :]
        else:
            out = _tap_sum(xp, wk, offsets)
        return _crop_add(out, self.params["b"], n, h, w), (x.shape, xp) if train else None

    def backward(self, dout, cache):
        (n, h, w, c), xp = cache
        offsets = _tap_offsets(w)
        dpad = _pad_flat(dout)
        # Output (i, j) sits at padded row (i+1, j+1): the centre tap's offset.
        grid = len(dpad) - offsets[-1]
        dflat = dpad[offsets[4] : offsets[4] + grid]
        if c == 1:
            dw = xp @ dflat
        else:
            dw = np.stack([xp[o : o + grid].T @ dflat for o in offsets])
        # dx is the same correlation of the padded dout with the kernel
        # flipped in space and transposed in channels.
        flipped = self.params["w"][::-1, ::-1].transpose(0, 1, 3, 2).reshape(9, -1, c)
        dx = _crop(_tap_sum(dpad, flipped, offsets), n, h, w)
        grads = {"w": dw.reshape(self.params["w"].shape), "b": _channel_sum(dflat)}
        return dx, grads


class BatchNorm(Layer):
    """Per-channel normalization over batch and spatial axes.

    Train mode normalizes with batch statistics (biased variance) and
    updates the running buffers; eval mode normalizes with the running
    buffers.  Works on (N, H, W, C) and (N, C) inputs alike, as one
    (rows, C) view.  A train cache holds the normalized input and 1/std.
    """

    def __init__(self, channels, momentum=0.9, eps=1e-5, dtype=np.float64):
        super().__init__()
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        self.params = {
            "gamma": np.ones(channels, dtype=dtype),
            "beta": np.zeros(channels, dtype=dtype),
        }
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)

    def buffers(self):
        return {"running_mean": self.running_mean, "running_var": self.running_var}

    def forward(self, x, train=False):
        if x.shape[-1] != self.channels:
            raise ValueError(f"batch_norm expects {self.channels} channels, got {x.shape}")
        x2 = x.reshape(-1, self.channels)
        if train:
            if x.shape[0] < 2:
                raise ValueError("train-mode batch norm needs a batch of >= 2")
            mean = _channel_sum(x2) / len(x2)
        else:
            mean, var = self.running_mean, self.running_var
        xw, mw = _wide(x2, mean)
        xhat = xw - mw
        if train:
            x2hat = xhat.reshape(x2.shape)
            var = np.einsum("ij,ij->j", x2hat, x2hat) / len(x2)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        inv = 1.0 / np.sqrt(var + self.eps)
        _, iw, gw, bw = _wide(x2, inv, self.params["gamma"], self.params["beta"])
        xhat *= iw
        # Eval caches nothing, so it scales x-hat in place into the output.
        out = xhat * gw if train else np.multiply(xhat, gw, out=xhat)
        out += bw
        return out.reshape(x.shape), (xhat.reshape(x2.shape), inv) if train else None

    def backward(self, dout, cache):
        xhat, inv = cache
        d2 = dout.reshape(xhat.shape)
        dgamma = np.einsum("ij,ij->j", d2, xhat)
        dbeta = _channel_sum(d2)
        # dx = gamma * inv * (d - dbeta/m - xhat * dgamma/m)
        m = len(d2)
        xw, gw, bw, sw = _wide(xhat, -dgamma / m, dbeta / m, self.params["gamma"] * inv)
        dx = xw * gw
        dx += d2.reshape(dx.shape)
        dx -= bw
        dx *= sw
        return dx.reshape(dout.shape), {"gamma": dgamma, "beta": dbeta}


class ReLU(Layer):
    """The train cache is the mask ``x > 0``."""

    def forward(self, x, train=False):
        return np.maximum(x, 0.0), x > 0 if train else None

    def backward(self, dout, cache):
        return dout * cache, {}


class MaxPool(Layer):
    """Non-overlapping window maximum; spatial dims must divide evenly.

    The gradient routes to each window's maximum, first occurrence in
    row-major window order on ties; a window that holds a NaN outputs NaN
    and routes to its first NaN, as ``np.argmax`` does.  The forward pass
    walks the window offsets as strided views of the (N, Ho, ph, Wo, pw, C)
    reshape of the input.  A train forward then compares the windows,
    window-major, with their maxima and takes the first match.  The train
    cache holds the input shape and each maximum's window index,
    (N, Ho, Wo, C).
    """

    def __init__(self, pool):
        super().__init__()
        self.ph, self.pw = pool

    def forward(self, x, train=False):
        n, h, w, c = x.shape
        if h % self.ph or w % self.pw:
            raise ValueError(
                f"spatial dims ({h}, {w}) not divisible by pool ({self.ph}, {self.pw})"
            )
        ho, wo = h // self.ph, w // self.pw
        v = x.reshape(n, ho, self.ph, wo, self.pw, c)
        out = v[:, :, 0, :, 0, :].copy()
        for k in range(1, self.ph * self.pw):
            # np.maximum returns its second operand on ties, so the earlier
            # value (and the sign of a zero) stays; NaN propagates.
            np.maximum(v[:, :, k // self.pw, :, k % self.pw, :], out, out=out)
        if not train:
            return out, None
        hit = np.empty((n, ho, wo, self.ph * self.pw, c), dtype=bool)
        windows = v.transpose(0, 1, 3, 2, 4, 5)  # (N, Ho, Wo, ph, pw, C)
        np.equal(windows, out[:, :, :, None, None, :], out=hit.reshape(windows.shape))
        if np.isnan(out).any():  # NaN equals nothing; route to the first NaN
            hit |= np.isnan(windows).reshape(hit.shape)
        return out, (x.shape, hit.argmax(axis=3))

    def backward(self, dout, cache):
        (n, h, w, c), arg = cache
        ho, wo = h // self.ph, w // self.pw
        dwin = np.zeros((n, ho, wo, self.ph * self.pw, c), dtype=dout.dtype)
        np.put_along_axis(dwin, arg[:, :, :, None, :], dout[:, :, :, None, :], axis=3)
        dx = (
            dwin.reshape(n, ho, wo, self.ph, self.pw, c)
            .transpose(0, 1, 3, 2, 4, 5)
            .reshape(n, h, w, c)
        )
        return dx, {}


class SEBlock(Layer):
    """Squeeze-and-excitation channel gate.

    Squeeze is the per-channel spatial mean; excitation is a bottleneck
    FC -> ReLU -> FC -> sigmoid whose hidden width is channels / ratio.
    """

    def __init__(self, channels, ratio, rng, dtype=np.float64):
        super().__init__()
        if channels % ratio:
            raise ValueError(f"channels {channels} not divisible by SE ratio {ratio}")
        hidden = channels // ratio
        self.channels = channels
        self.ratio = ratio
        self.params = {
            "w1": _he_normal(rng, (channels, hidden), channels, dtype),
            "b1": np.zeros(hidden, dtype=dtype),
            "w2": _he_normal(rng, (hidden, channels), hidden, dtype),
            "b2": np.zeros(channels, dtype=dtype),
        }

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[3] != self.channels:
            raise ValueError(f"se_block expects (N, H, W, {self.channels}), got {x.shape}")
        n, h, w, c = x.shape
        s = np.einsum("nrc->nc", x.reshape(n, h * w, c)) / (h * w)
        z1 = s @ self.params["w1"] + self.params["b1"]
        a1 = np.maximum(z1, 0.0)
        gate = sigmoid(a1 @ self.params["w2"] + self.params["b2"])
        out = np.multiply(*_wide(x, gate))
        return out.reshape(x.shape), (x, s, z1, a1, gate) if train else None

    def backward(self, dout, cache):
        x, s, z1, a1, gate = cache
        n, h, w, c = x.shape
        dx = np.multiply(*_wide(dout, gate)).reshape(dout.shape)
        dgate = np.einsum("nrc,nrc->nc", dout.reshape(n, h * w, c), x.reshape(n, h * w, c))
        dz2 = dgate * gate * (1.0 - gate)
        dw2 = a1.T @ dz2
        db2 = dz2.sum(axis=0)
        dz1 = (dz2 @ self.params["w2"].T) * (z1 > 0)
        dw1 = s.T @ dz1
        db1 = dz1.sum(axis=0)
        ds = dz1 @ self.params["w1"].T
        dxw, dsw = _wide(dx, ds / (h * w))
        dxw += dsw
        return dx, {"w1": dw1, "b1": db1, "w2": dw2, "b2": db2}


class GlobalAvgPool(Layer):
    def forward(self, x, train=False):
        return x.mean(axis=(1, 2)), x.shape if train else None

    def backward(self, dout, cache):
        n, h, w, c = cache
        dx = np.broadcast_to(dout[:, None, None, :] / (h * w), (n, h, w, c)).copy()
        return dx, {}


class FullyConnected(Layer):
    def __init__(self, in_dim, out_dim, rng, dtype=np.float64):
        super().__init__()
        self.in_dim = in_dim
        self.params = {
            "w": _he_normal(rng, (in_dim, out_dim), in_dim, dtype),
            "b": np.zeros(out_dim, dtype=dtype),
        }

    def forward(self, x, train=False):
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"fully_connected expects (N, {self.in_dim}), got {x.shape}")
        return x @ self.params["w"] + self.params["b"], x if train else None

    def backward(self, dout, cache):
        x = cache
        return (
            dout @ self.params["w"].T,
            {"w": x.T @ dout, "b": dout.sum(axis=0)},
        )
