"""Network layers with explicit forward/backward passes.

Data layout is channels-last: feature maps are (N, H, W, C) and vector
activations are (N, D).  Every layer returns (output, cache) from
``forward`` and (input gradient, parameter gradients) from ``backward``;
the cache is whatever the backward pass needs and nothing more.  An
eval-mode cache of ``BatchNorm``, ``ReLU`` and ``MaxPool`` holds only the
input it was given: eval forwards mostly run without caches, so they
build none, and a backward pass after one rebuilds what it needs from
the input, with the same operations as the train-mode forward.
"""

from __future__ import annotations

import numpy as np
from scipy.special import expit as sigmoid


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
    """``sum_t flat[o_t : o_t + grid] @ taps[t]``: one output row per grid row."""
    grid = len(flat) - offsets[-1]
    out = flat[:grid] @ taps[0]
    for t in range(1, 9):
        out += flat[offsets[t] : offsets[t] + grid] @ taps[t]
    return out


def _crop(rows, n, h, w):
    """The (N, H, W, C) top-left corner of rows laid out on the padded grid."""
    return rows.reshape(n, h + 2, w + 2, -1)[:, :h, :w, :]


class Conv2d(Layer):
    """3x3 cross-correlation with zero 'same' padding, stride 1.

    The input is zero-padded to (N, H+2, W+2, C) and flattened to rows of
    C channels.  On that grid tap (ki, kj) is the contiguous row slice that
    starts at ki*(W+2)+kj, so the forward pass is nine (rows, C) @ (C, O)
    products summed on the padded grid and cropped to H x W.  Rows that
    run past a map's right edge or into the next sample land only in the
    cropped border.  With one input channel the nine slices are stacked
    into a (9, rows) matrix instead and multiplied once.  The train cache
    is the flattened padded input, or that (9, rows) matrix.
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
        return _crop(out, n, h, w) + self.params["b"], (x.shape, xp)

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
    (rows, C) view.  A train cache holds the normalized input and 1/std;
    an eval cache holds the (rows, C) input, 1/std and the mean.
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
            mean, var = self.running_mean, self.running_var
            xhat = x2 - mean
        inv = 1.0 / np.sqrt(var + self.eps)
        xhat *= inv
        # An eval cache keeps no x-hat, so eval scales it in place into the output.
        gamma = self.params["gamma"]
        out = xhat * gamma if train else np.multiply(xhat, gamma, out=xhat)
        out += self.params["beta"]
        return out.reshape(x.shape), (xhat, inv, None) if train else (x2, inv, mean)

    def backward(self, dout, cache):
        xhat, inv, eval_mean = cache
        was_train = eval_mean is None
        if not was_train:  # an eval cache holds the input: rebuild x-hat
            xhat = xhat - eval_mean
            xhat *= inv
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
    """The cache is the mask ``x > 0`` in train mode and the input in eval."""

    def forward(self, x, train=False):
        return np.maximum(x, 0.0), x > 0 if train else x

    def backward(self, dout, cache):
        mask = cache if cache.dtype == bool else cache > 0
        return dout * mask, {}


class MaxPool(Layer):
    """Non-overlapping window maximum; spatial dims must divide evenly.

    The gradient routes to each window's maximum, first occurrence in
    row-major window order on ties.  The forward pass walks the window
    offsets as strided views of the (N, Ho, ph, Wo, pw, C) reshape of the
    input.  The train cache holds that index, (N, Ho, Wo, C); the eval
    cache is the input.
    """

    def __init__(self, pool):
        super().__init__()
        self.ph, self.pw = pool

    def _window_max(self, x, index):
        """Window maxima, (N, Ho, Wo, C), and with ``index`` the row-major
        window index of each one's first occurrence (else None)."""
        n, h, w, c = x.shape
        if h % self.ph or w % self.pw:
            raise ValueError(
                f"spatial dims ({h}, {w}) not divisible by pool ({self.ph}, {self.pw})"
            )
        v = x.reshape(n, h // self.ph, self.ph, w // self.pw, self.pw, c)
        out = v[:, :, 0, :, 0, :].copy()
        arg = np.zeros(out.shape, dtype=np.intp) if index else None
        later = np.empty(out.shape, dtype=bool) if index else None
        for k in range(1, self.ph * self.pw):
            view = v[:, :, k // self.pw, :, k % self.pw, :]
            if index:
                np.greater(view, out, out=later)
                np.copyto(arg, k, where=later)
            # np.maximum returns its second operand on ties, so the earlier
            # value (and the sign of a zero) stays; NaN propagates.
            np.maximum(view, out, out=out)
        return out, arg

    def forward(self, x, train=False):
        out, arg = self._window_max(x, index=train)
        return out, (x.shape, arg) if train else x

    def backward(self, dout, cache):
        if isinstance(cache, np.ndarray):  # an eval cache holds the input
            cache = (cache.shape, self._window_max(cache, index=True)[1])
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
