"""Slow reference layers kept as oracles for the fast ones in ``cfdistill.nn``.

``Conv2d`` builds the full im2col patch matrix, (N*H*W, 9*C), and does one
GEMM; ``BatchNorm`` reduces over the leading axes with ``mean``/``var``.
Both were the library's layers before the flat-offset conv and the 2-D
batch norm replaced them; the tests compare the two at desk shapes.

``FlatBatchNorm``, ``ReLU`` and ``MaxPool`` are the library's layers as
they were before eval forwards stopped building caches: the batch norm
builds x-hat and then the output in both modes, the ReLU builds its mask
in both modes, and the max-pool copies its windows into a six-axis
transpose and takes ``argmax``/``take_along_axis``.  The tests require the
library's layers to give the same bits, forward and backward.

``FlatConv2d`` and ``SEBlock`` are the library's layers as they were
before their per-channel ops ran on wide rows and the tap sum ran in row
blocks: the conv sums each tap's product over the whole padded grid, then
crops and adds the bias by broadcasting, and the SE gate multiplies by
broadcasting over (N, 1, 1, C).  The tests require the same bits here too.
This ``SEBlock`` also reduces with ``mean`` and ``sum`` over the spatial
axes, where the library's uses ``einsum``.

``GlobalAvgPool`` and ``FullyConnected`` are frozen copies of the
library's.  With ``FlatConv2d``, ``FlatBatchNorm``, ``ReLU``, ``MaxPool``
and ``SEBlock`` they make the bit guard's reference network: a whole desk
train step and eval forward, one layer at a time, that the library's
``NetworkModel`` must match bit for bit.
"""

from __future__ import annotations

import numpy as np

from scipy.special import expit as sigmoid

from cfdistill.nn.layers import Layer, _channel_sum, _he_normal, _pad_flat, _tap_offsets


class Conv2d(Layer):
    """3x3 cross-correlation with zero 'same' padding, stride 1."""

    def __init__(self, in_channels, out_channels, rng, dtype=np.float64):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.params = {
            "w": _he_normal(rng, (3, 3, in_channels, out_channels), 9 * in_channels, dtype),
            "b": np.zeros(out_channels, dtype=dtype),
        }

    def _patches(self, x):
        n, h, w, c = x.shape
        xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
        cols = np.empty((n, h, w, 3, 3, c), dtype=x.dtype)
        for ki in range(3):
            for kj in range(3):
                cols[:, :, :, ki, kj, :] = xp[:, ki : ki + h, kj : kj + w, :]
        return cols.reshape(n * h * w, 9 * c)

    def forward(self, x, train=False):
        if x.ndim != 4 or x.shape[3] != self.in_channels:
            raise ValueError(
                f"conv2d expects (N, H, W, {self.in_channels}), got {x.shape}"
            )
        n, h, w, _ = x.shape
        wm = self.params["w"].reshape(9 * self.in_channels, self.out_channels)
        patches = self._patches(x)
        out = patches @ wm + self.params["b"]
        return out.reshape(n, h, w, self.out_channels), (x.shape, patches)

    def backward(self, dout, cache):
        (n, h, w, _), patches = cache
        dflat = dout.reshape(n * h * w, self.out_channels)
        dw = (patches.T @ dflat).reshape(self.params["w"].shape)
        db = dflat.sum(axis=0)
        wk = self.params["w"]
        dxp = np.zeros((n, h + 2, w + 2, self.in_channels), dtype=dout.dtype)
        for ki in range(3):
            for kj in range(3):
                dxp[:, ki : ki + h, kj : kj + w, :] += dout @ wk[ki, kj].T
        return dxp[:, 1 : h + 1, 1 : w + 1, :], {"w": dw, "b": db}


class BatchNorm(Layer):
    """Per-channel normalization over batch and spatial axes.

    Train mode normalizes with batch statistics (biased variance) and
    updates the running buffers; eval mode normalizes with the running
    buffers.  Works on (N, H, W, C) and (N, C) inputs alike.
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

    def forward(self, x, train=False):
        if x.shape[-1] != self.channels:
            raise ValueError(f"batch_norm expects {self.channels} channels, got {x.shape}")
        axes = tuple(range(x.ndim - 1))
        if train:
            if x.shape[0] < 2:
                raise ValueError("train-mode batch norm needs a batch of >= 2")
            mean = x.mean(axis=axes)
            var = x.var(axis=axes)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            mean, var = self.running_mean, self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat = (x - mean) * inv
        out = self.params["gamma"] * xhat + self.params["beta"]
        return out, (xhat, inv, train)

    def backward(self, dout, cache):
        xhat, inv, was_train = cache
        axes = tuple(range(dout.ndim - 1))
        dgamma = np.sum(dout * xhat, axis=axes)
        dbeta = np.sum(dout, axis=axes)
        dxhat = dout * self.params["gamma"]
        if was_train:
            m = float(np.prod([dout.shape[a] for a in axes]))
            dx = (inv / m) * (
                m * dxhat
                - np.sum(dxhat, axis=axes)
                - xhat * np.sum(dxhat * xhat, axis=axes)
            )
        else:
            dx = dxhat * inv
        return dx, {"gamma": dgamma, "beta": dbeta}


class FlatBatchNorm(Layer):
    """Per-channel normalization over batch and spatial axes.

    Train mode normalizes with batch statistics (biased variance) and
    updates the running buffers; eval mode normalizes with the running
    buffers.  Works on (N, H, W, C) and (N, C) inputs alike, as one
    (rows, C) view; the cache holds the normalized input and 1/std.
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
            xhat = x2 - mean
            var = np.einsum("ij,ij->j", xhat, xhat) / len(x2)
            self.running_mean = self.momentum * self.running_mean + (1 - self.momentum) * mean
            self.running_var = self.momentum * self.running_var + (1 - self.momentum) * var
        else:
            xhat = x2 - self.running_mean
            var = self.running_var
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv
        out = xhat * self.params["gamma"]
        out += self.params["beta"]
        return out.reshape(x.shape), (xhat, inv, train)

    def backward(self, dout, cache):
        xhat, inv, was_train = cache
        d2 = dout.reshape(xhat.shape)
        dgamma = np.einsum("ij,ij->j", d2, xhat)
        dbeta = _channel_sum(d2)
        scale = self.params["gamma"] * inv
        if was_train:
            # dx = gamma * inv * (d - dbeta/m - xhat * dgamma/m)
            m = len(d2)
            dx = xhat * (-dgamma / m)
            dx += d2
            dx -= dbeta / m
            dx *= scale
        else:
            dx = d2 * scale
        return dx.reshape(dout.shape), {"gamma": dgamma, "beta": dbeta}


class ReLU(Layer):
    def forward(self, x, train=False):
        return np.maximum(x, 0.0), x > 0

    def backward(self, dout, cache):
        return dout * cache, {}


class MaxPool(Layer):
    """Non-overlapping window maximum; spatial dims must divide evenly.

    The gradient routes to each window's maximum, first occurrence in
    row-major window order on ties.
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
        windows = (
            x.reshape(n, ho, self.ph, wo, self.pw, c)
            .transpose(0, 1, 3, 2, 4, 5)
            .reshape(n, ho, wo, self.ph * self.pw, c)
        )
        arg = np.argmax(windows, axis=3)
        out = np.take_along_axis(windows, arg[:, :, :, None, :], axis=3)[:, :, :, 0, :]
        return out, (x.shape, arg)

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


def _tap_sum(flat, taps, offsets):
    """``sum_t flat[o_t : o_t + grid] @ taps[t]``: one output row per grid row."""
    grid = len(flat) - offsets[-1]
    out = flat[:grid] @ taps[0]
    for t in range(1, 9):
        out += flat[offsets[t] : offsets[t] + grid] @ taps[t]
    return out


def _crop(rows, n, h, w):
    """The (N, H, W, C) top-left corner of rows laid out on the padded grid."""
    return rows.reshape(n, h + 2, w + 2, -1)[:, :h, :w, :]


class FlatConv2d(Layer):
    """3x3 cross-correlation with zero 'same' padding, stride 1, as nine
    (rows, C) @ (C, O) products over the flattened padded grid."""

    def __init__(self, in_channels, out_channels, rng, dtype=np.float64):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.params = {
            "w": _he_normal(rng, (3, 3, in_channels, out_channels), 9 * in_channels, dtype),
            "b": np.zeros(out_channels, dtype=dtype),
        }

    def forward(self, x, train=False):
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
        return _crop(out, n, h, w) + self.params["b"], (x.shape, xp)

    def backward(self, dout, cache):
        (n, h, w, c), xp = cache
        offsets = _tap_offsets(w)
        dpad = _pad_flat(dout)
        grid = len(dpad) - offsets[-1]
        dflat = dpad[offsets[4] : offsets[4] + grid]
        if c == 1:
            dw = xp @ dflat
        else:
            dw = np.stack([xp[o : o + grid].T @ dflat for o in offsets])
        flipped = self.params["w"][::-1, ::-1].transpose(0, 1, 3, 2).reshape(9, -1, c)
        dx = _crop(_tap_sum(dpad, flipped, offsets), n, h, w)
        grads = {"w": dw.reshape(self.params["w"].shape), "b": _channel_sum(dflat)}
        return dx, grads


class SEBlock(Layer):
    """Squeeze-and-excitation channel gate, broadcast over (N, 1, 1, C)."""

    def __init__(self, channels, ratio, rng, dtype=np.float64):
        super().__init__()
        hidden = channels // ratio
        self.params = {
            "w1": _he_normal(rng, (channels, hidden), channels, dtype),
            "b1": np.zeros(hidden, dtype=dtype),
            "w2": _he_normal(rng, (hidden, channels), hidden, dtype),
            "b2": np.zeros(channels, dtype=dtype),
        }

    def forward(self, x, train=False):
        s = x.mean(axis=(1, 2))
        z1 = s @ self.params["w1"] + self.params["b1"]
        a1 = np.maximum(z1, 0.0)
        gate = sigmoid(a1 @ self.params["w2"] + self.params["b2"])
        return x * gate[:, None, None, :], (x, s, z1, a1, gate)

    def backward(self, dout, cache):
        x, s, z1, a1, gate = cache
        _, h, w, _ = x.shape
        dx = dout * gate[:, None, None, :]
        dgate = np.sum(dout * x, axis=(1, 2))
        dz2 = dgate * gate * (1.0 - gate)
        dw2 = a1.T @ dz2
        db2 = dz2.sum(axis=0)
        dz1 = (dz2 @ self.params["w2"].T) * (z1 > 0)
        dw1 = s.T @ dz1
        db1 = dz1.sum(axis=0)
        ds = dz1 @ self.params["w1"].T
        dx += ds[:, None, None, :] / (h * w)
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
        self.out_dim = out_dim
        self.params = {
            "w": _he_normal(rng, (in_dim, out_dim), in_dim, dtype),
            "b": np.zeros(out_dim, dtype=dtype),
        }

    def forward(self, x, train=False):
        return x @ self.params["w"] + self.params["b"], x if train else None

    def backward(self, dout, cache):
        x = cache
        return dout @ self.params["w"].T, {"w": x.T @ dout, "b": dout.sum(axis=0)}
