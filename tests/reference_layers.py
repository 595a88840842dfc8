"""Slow reference layers kept as oracles for the fast ones in ``cfdistill.nn``.

``Conv2d`` builds the full im2col patch matrix, (N*H*W, 9*C), and does one
GEMM; ``BatchNorm`` reduces over the leading axes with ``mean``/``var``.
Both were the library's layers before the flat-offset conv and the 2-D
batch norm replaced them; the tests compare the two at desk shapes.
"""

from __future__ import annotations

import numpy as np

from cfdistill.nn.layers import Layer, _he_normal


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
