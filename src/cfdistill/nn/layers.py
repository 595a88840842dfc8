"""Network layers with explicit forward/backward passes.

Data layout is channels-last: feature maps are (N, H, W, C) and vector
activations are (N, D).  Every layer returns (output, cache) from
``forward`` and (input gradient, parameter gradients) from ``backward``;
the cache is whatever the backward pass needs and nothing more.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit as sigmoid


class Layer:
    """Base layer: a dict of named parameters plus forward/backward."""

    def __init__(self):
        self.params: dict[str, np.ndarray] = {}

    def forward(self, x, train=False):
        raise NotImplementedError

    def backward(self, dout, cache):
        raise NotImplementedError


def _he_normal(rng, shape, fan_in, dtype):
    return (rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)).astype(dtype)


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
        s = x.mean(axis=(1, 2))
        z1 = s @ self.params["w1"] + self.params["b1"]
        a1 = np.maximum(z1, 0.0)
        gate = sigmoid(a1 @ self.params["w2"] + self.params["b2"])
        out = x * gate[:, None, None, :]
        return out, (x, s, z1, a1, gate)

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
        return x.mean(axis=(1, 2)), x.shape

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
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"fully_connected expects (N, {self.in_dim}), got {x.shape}")
        return x @ self.params["w"] + self.params["b"], x

    def backward(self, dout, cache):
        x = cache
        return (
            dout @ self.params["w"].T,
            {"w": x.T @ dout, "b": dout.sum(axis=0)},
        )
