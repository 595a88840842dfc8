"""The per-array Adam update, kept as the oracle for ``cfdistill.nn.adam``.

``AdamState`` keeps one moment array per parameter and ``adam_step``
updates each parameter on its own, as the library did before its moments
became two flat buffers.  The tests require the flat update to give the
same bits.
"""

from __future__ import annotations

import numpy as np

from cfdistill.nn.adam import BETA1, BETA2, EPSILON


class AdamState:
    """First/second moment tensors and a step counter, keyed like params."""

    def __init__(self, params: dict, learning_rate: float):
        self.learning_rate = learning_rate
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.step_count = 0


def adam_step(state: AdamState, params: dict, grads: dict) -> None:
    """One in-place Adam update of ``params`` from ``grads``."""
    state.step_count += 1
    t = state.step_count
    bc1 = 1.0 - BETA1**t
    bc2 = 1.0 - BETA2**t
    for key, g in grads.items():
        if key not in state.m:
            raise KeyError(f"gradient for unknown parameter {key!r}")
        p = params[key]
        if g.shape != p.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {key!r} {p.shape}"
            )
        m = state.m[key]
        v = state.v[key]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * g * g
        p -= state.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + EPSILON)
