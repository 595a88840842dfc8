"""Scalar losses with analytic gradients.

Every loss accepts a single vector or a batch (first axis) and returns
``(value, gradient)`` where the gradient matches the prediction's shape.
Batch values are means over the batch, so gradients carry the 1/N.
"""

from __future__ import annotations

import numpy as np

COSINE_EPS = 1e-12


def _as_batch(a):
    a = np.asarray(a, dtype=np.float64)
    if a.ndim == 1:
        return a[None, :], True
    if a.ndim == 2:
        return a, False
    raise ValueError(f"expected a vector or batch of vectors, got shape {a.shape}")


def mse_loss(pred, target):
    """Mean squared difference over all elements."""
    p, squeeze = _as_batch(pred)
    t, _ = _as_batch(target)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: pred {p.shape} vs target {t.shape}")
    diff = p - t
    value = float(np.mean(diff**2))
    grad = 2.0 * diff / diff.size
    return value, (grad[0] if squeeze else grad)


def cosine_proximity_loss(pred, target, eps=COSINE_EPS):
    """Negative cosine similarity, epsilon-stabilized.

    Uses norms max(||v||, eps); the gradient is exact for that stabilized
    expression.  A zero target vector has no direction and is rejected.
    """
    p, squeeze = _as_batch(pred)
    t, _ = _as_batch(target)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: pred {p.shape} vs target {t.shape}")
    t_norm = np.linalg.norm(t, axis=1)
    if np.any(t_norm == 0.0):
        raise ValueError("cosine proximity target has zero norm")
    t_norm = np.maximum(t_norm, eps)
    p_norm = np.maximum(np.linalg.norm(p, axis=1), eps)
    dot = np.sum(p * t, axis=1)
    cos = dot / (p_norm * t_norm)
    value = float(np.mean(-cos))
    n = p.shape[0]
    grad = (-t / (p_norm * t_norm)[:, None] + (cos / p_norm**2)[:, None] * p) / n
    return value, (grad[0] if squeeze else grad)


def softmax_cross_entropy(logits, classes):
    """Cross-entropy of integer class labels under softmax logits.

    Stabilized log-sum-exp form; the gradient is (softmax - one_hot) / N.
    """
    z, squeeze = _as_batch(logits)
    cls = np.atleast_1d(np.asarray(classes, dtype=np.int64))
    if cls.shape != (z.shape[0],):
        raise ValueError(f"expected {z.shape[0]} class labels, got shape {cls.shape}")
    k = z.shape[1]
    if np.any(cls < 0) or np.any(cls >= k):
        raise ValueError(f"class labels out of range [0, {k})")
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax[:, 0] + np.log(np.sum(np.exp(z - zmax), axis=1))
    value = float(np.mean(lse - z[np.arange(z.shape[0]), cls]))
    probs = np.exp(z - zmax)
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(z.shape[0]), cls] -= 1.0
    grad = probs / z.shape[0]
    return value, (grad[0] if squeeze else grad)
