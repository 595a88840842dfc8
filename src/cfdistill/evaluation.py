"""Metrics, cross-validation splits, and the paired comparison test."""

from __future__ import annotations

import numpy as np
from scipy.special import stdtr


def accuracy(predictions, truth) -> float:
    """Fraction of exact matches between two label sequences."""
    p = np.asarray(predictions)
    t = np.asarray(truth)
    if p.shape != t.shape:
        raise ValueError(f"length mismatch: {p.shape} vs {t.shape}")
    if p.size == 0:
        raise ValueError("accuracy of an empty prediction set is undefined")
    return float(np.mean(p == t))


def r_squared(predictions, truth) -> float:
    """Squared Pearson correlation between predictions and truth.

    Invariant under affine maps of the predictions with nonzero slope;
    a constant prediction vector is defined as 0 (no correlation).
    """
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(truth, dtype=np.float64)
    if p.shape != t.shape or p.ndim != 1:
        raise ValueError(f"need equal-length vectors, got {p.shape} vs {t.shape}")
    if p.size < 2:
        raise ValueError("r_squared needs at least 2 points")
    t_c = t - t.mean()
    t_var = float(t_c @ t_c)
    if t_var == 0.0:
        raise ValueError("truth has zero variance")
    p_c = p - p.mean()
    p_var = float(p_c @ p_c)
    if p_var == 0.0:
        return 0.0
    r = float(p_c @ t_c) / np.sqrt(p_var * t_var)
    return float(r * r)


def stratified_kfold(labels, k=10, seed=0):
    """k disjoint (train, test) index partitions preserving class balance.

    Within each class the indices are shuffled by the seeded generator and
    dealt round-robin, so per-fold class counts differ from the ideal by
    at most one sample.  Every class must have at least k members.
    """
    labels = np.asarray(labels)
    if k < 2:
        raise ValueError("k must be >= 2")
    rng = np.random.default_rng(seed)
    fold_of = np.empty(labels.size, dtype=np.int64)
    for cls in np.unique(labels):
        members = np.flatnonzero(labels == cls)
        if members.size < k:
            raise ValueError(
                f"class {cls!r} has {members.size} members, fewer than k={k}"
            )
        members = rng.permutation(members)
        fold_of[members] = np.arange(members.size) % k
    folds = []
    everything = np.arange(labels.size)
    for f in range(k):
        test = everything[fold_of == f]
        train = everything[fold_of != f]
        folds.append((train, test))
    return folds


def stratified_split(labels, fractions, seed=0):
    """Split indices into len(fractions)+1 stratified groups.

    ``fractions`` are the tail groups' shares (e.g. (0.15, 0.25) makes a
    60/15/25 train/val/test split); the remainder is the first group.
    """
    labels = np.asarray(labels)
    if sum(fractions) >= 1.0:
        raise ValueError("split fractions must sum to < 1")
    rng = np.random.default_rng(seed)
    groups = [[] for _ in range(len(fractions) + 1)]
    for cls in np.unique(labels):
        members = rng.permutation(np.flatnonzero(labels == cls))
        n = members.size
        bounds = np.cumsum([round(n * f) for f in fractions])
        tail_parts = np.split(members[: bounds[-1]], bounds[:-1])
        groups[0].extend(members[bounds[-1] :])
        for g, part in enumerate(tail_parts, start=1):
            groups[g].extend(part)
    return [np.sort(np.asarray(g, dtype=np.int64)) for g in groups]


def paired_improvement_test(results_a, results_b):
    """Two-sided paired Student t-test of matched metric lists.

    Returns (mean difference a-b, t statistic, p value).  Differences with
    zero variance make t undefined and raise.
    """
    a = np.asarray(results_a, dtype=np.float64)
    b = np.asarray(results_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"need equal-length paired lists, got {a.shape} vs {b.shape}")
    n = a.size
    if n < 2:
        raise ValueError("paired test needs at least 2 pairs")
    d = a - b
    mean = float(d.mean())
    sd = float(d.std(ddof=1))
    if sd == 0.0:
        raise ValueError("differences have zero variance; t statistic undefined")
    t = mean / (sd / np.sqrt(n))
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return mean, float(t), p
