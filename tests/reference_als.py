"""Slow references kept as oracles for the fast ingest path in ``cfdistill.als``.

``build_interaction_matrix`` walks ``(user_id, item_id, count)`` records one
at a time with two id dicts; ``als_solve_side`` solves each row through scipy's
``cho_factor``/``cho_solve`` wrappers, with ``alpha * r`` formed per row and
the ridge added as ``reg * eye``.  Both were the library's code before the
columnar builder and the direct ``potrf``/``potrs`` calls replaced them; the
tests require the two to agree bit for bit.

``first_appearance`` is the renumbering the columnar builder used before it
coded ids through a rank table (``np.unique`` with ``return_inverse``); the
tests require the same codes, of the same dtype, and the same ids.

``weighted_loss`` is the objective the solver minimizes, computed densely
over every (user, item) entry; the tests check that each sweep lowers it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_factor, cho_solve

from cfdistill.als import AlsConfig, CfEmbedding, UserItemMatrix


def build_interaction_matrix(logs: Sequence[tuple]) -> UserItemMatrix:
    """Aggregate ``(user_id, item_id, count)`` records into a sparse count matrix.

    Duplicate (user, item) pairs sum their counts; users and items are
    indexed in order of first appearance so the result is deterministic
    for a given log sequence.
    """
    logs = list(logs)
    if not logs:
        raise ValueError("cannot build an interaction matrix from an empty log")
    user_ids: list = []
    item_ids: list = []
    user_index: dict = {}
    item_index: dict = {}
    rows, cols, vals = [], [], []
    for user_id, item_id, count in logs:
        if count < 1:
            raise ValueError(f"log count must be >= 1, got {count}")
        u = user_index.setdefault(user_id, len(user_ids))
        if u == len(user_ids):
            user_ids.append(user_id)
        i = item_index.setdefault(item_id, len(item_ids))
        if i == len(item_ids):
            item_ids.append(item_id)
        rows.append(u)
        cols.append(i)
        vals.append(count)
    counts = sp.coo_matrix(
        (np.asarray(vals, dtype=np.float64), (rows, cols)),
        shape=(len(user_ids), len(item_ids)),
    ).tocsr()
    return UserItemMatrix(counts, user_ids, item_ids)


def first_appearance(codes, ids):
    """``codes`` renumbered 0, 1, ... in order of first appearance, and the ids
    of the renumbered codes in that order (ids no entry uses are dropped)."""
    used, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return rank[inverse], [ids[c] for c in used[order].tolist()]


def _row_reg(config: AlsConfig, nnz_row: int) -> float:
    return config.reg_lambda * (nnz_row if config.scale_reg_by_count else 1.0)


def als_solve_side(fixed, matrix: UserItemMatrix, config: AlsConfig, side: str):
    """Exact ridge solve of one side given the other side's factors.

    For each row u the solution is
    ``x_u = (Y^T C_u Y + lam I)^-1 Y^T C_u p(u)`` with binary preferences
    ``p`` and diagonal confidences ``C_u``.  Assembly uses
    ``Y^T C_u Y = Y^T Y + Y^T (C_u - I) Y`` so the per-row cost scales
    with the row's non-zeros, not with the full item count.  Rows with no
    interactions get the zero vector (the ridge minimizer).
    """
    if side not in ("user", "item"):
        raise ValueError(f"side must be 'user' or 'item', got {side!r}")
    fixed = np.asarray(fixed, dtype=np.float64)
    k = config.n_factors
    if fixed.ndim != 2 or fixed.shape[1] != k:
        raise ValueError(
            f"fixed factors must have {k} columns, got shape {fixed.shape}"
        )
    counts = matrix.counts if side == "user" else matrix.counts.T.tocsr()
    if fixed.shape[0] != counts.shape[1]:
        raise ValueError(
            f"fixed side has {fixed.shape[0]} rows, matrix expects {counts.shape[1]}"
        )
    yty = fixed.T @ fixed
    out = np.zeros((counts.shape[0], k), dtype=np.float64)
    eye = np.eye(k)
    for u in range(counts.shape[0]):
        lo, hi = counts.indptr[u], counts.indptr[u + 1]
        if lo == hi:
            continue
        cols = counts.indices[lo:hi]
        r = counts.data[lo:hi]
        m = fixed[cols]
        a = yty + (m.T * (config.alpha * r)) @ m + _row_reg(config, hi - lo) * eye
        b = m.T @ (1.0 + config.alpha * r)
        try:
            factor = cho_factor(a, lower=True)
        except np.linalg.LinAlgError as exc:  # unreachable for reg_lambda > 0
            raise ValueError(f"normal matrix for row {u} is not SPD: {exc}") from exc
        out[u] = cho_solve(factor, b)
    return out


def weighted_loss(matrix: UserItemMatrix, emb: CfEmbedding, config: AlsConfig):
    """Exact confidence-weighted objective, including all zero entries.

    Computed densely, which is fine at the scales this artifact targets;
    at production scale the usual sparse identity over the nonzeros would
    be required instead.  The ridge term follows the config: per-row
    count-scaled when ``scale_reg_by_count`` is set, plain otherwise, so
    the value is the precise objective the solver minimizes.
    """
    if emb.user_vectors is None:
        raise ValueError("weighted_loss needs both factor tables")
    x, y = emb.user_vectors, emb.item_vectors
    if x.shape[0] != matrix.n_users or y.shape[0] != matrix.n_items:
        raise ValueError(
            f"embedding shapes {x.shape}/{y.shape} do not match matrix "
            f"{matrix.n_users}x{matrix.n_items}"
        )
    if x.shape[1] != y.shape[1]:
        raise ValueError("factor widths differ between sides")
    r = matrix.counts.toarray().astype(np.float64)
    conf = 1.0 + config.alpha * r
    pref = (r > 0).astype(np.float64)
    pred = x @ y.T
    data_term = float(np.sum(conf * (pref - pred) ** 2))
    nnz_u = np.diff(matrix.counts.indptr)
    nnz_i = np.diff(matrix.counts_by_item.indptr)
    if config.scale_reg_by_count:
        reg = config.reg_lambda * (
            float(nnz_u @ np.sum(x * x, axis=1)) + float(nnz_i @ np.sum(y * y, axis=1))
        )
    else:
        reg = config.reg_lambda * (float(np.sum(x * x)) + float(np.sum(y * y)))
    return data_term + reg
