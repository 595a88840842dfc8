"""Adam optimizer with bias-corrected moment estimates."""

from __future__ import annotations

import itertools

import numpy as np

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


class AdamState:
    """First/second moments, one flat buffer each in the parameters' dtype,
    and a step counter; each key's moments are the slice ``spans[key]``.

    The parameters must share one dtype: a float32 parameter's moments in a
    float64 buffer would not give the bits of a per-array update.
    """

    def __init__(self, params: dict, learning_rate: float):
        dtypes = {p.dtype for p in params.values()}
        if len(dtypes) != 1:
            raise ValueError(f"parameters must share one dtype, got {sorted(map(str, dtypes))}")
        self.learning_rate = learning_rate
        ends = list(itertools.accumulate(p.size for p in params.values()))
        self.spans = dict(zip(params, zip([0, *ends], ends)))
        self.m = np.zeros(ends[-1], dtype=dtypes.pop())
        self.v = np.zeros_like(self.m)
        self.step_count = 0


def adam_step(state: AdamState, params: dict, grads: dict) -> None:
    """One in-place Adam update of ``params`` from ``grads``, one gradient
    per parameter.

    The moments update on the flat buffers a run of keys at a time whose
    gradients share a dtype (a task head's float64 gradient is scaled in
    float64, as it is alone), then every parameter steps from one flat
    update.  Each value gets the operations of a per-array update, so the
    bits are the same.
    """
    for key in state.spans:
        if key not in grads:
            raise KeyError(f"no gradient for parameter {key!r}")
    for key, g in grads.items():
        if key not in state.spans:
            raise KeyError(f"gradient for unknown parameter {key!r}")
        if g.shape != params[key].shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {key!r} {params[key].shape}"
            )
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for _, run in itertools.groupby(state.spans, key=lambda key: grads[key].dtype):
        run = list(run)
        start, stop = state.spans[run[0]][0], state.spans[run[-1]][1]
        g = np.concatenate([grads[key].ravel() for key in run])
        m, v = state.m[start:stop], state.v[start:stop]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
    step = state.learning_rate * (state.m / bc1) / (np.sqrt(state.v / bc2) + EPSILON)
    for key, (a, b) in state.spans.items():
        params[key] -= step[a:b].reshape(params[key].shape)
