"""Implicit-feedback matrix factorization of listening logs.

``build_interaction_matrix`` is the one reader of a log file: it codes ids
as lines are read and returns the user-by-item count matrix.  Play counts
become confidence weights (c = 1 + alpha * r) over binary preferences, and
user/item factor tables are fit by alternating exact ridge solves.  Item
vectors are the transferable song representation the rest of the pipeline
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from . import pool
from .fileio import load_float_table, save_float_table, text_lines


@dataclass
class AlsConfig:
    n_factors: int = 40
    reg_lambda: float = 0.1
    alpha: float = 40.0
    n_iterations: int = 15
    seed: int = 0
    # Scale the ridge term per row by its interaction count; the objective
    # that each sweep lowers depends on it.
    scale_reg_by_count: bool = True

    def __post_init__(self):
        if self.n_factors < 1:
            raise ValueError("n_factors must be >= 1")
        if self.reg_lambda <= 0:
            raise ValueError("reg_lambda must be > 0")
        if self.alpha <= 0:
            raise ValueError("alpha must be > 0")
        if self.n_iterations < 0:
            raise ValueError("n_iterations must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


class UserItemMatrix:
    """Sparse user-by-item play counts with the user and item id lists."""

    def __init__(self, counts: sp.csr_matrix, user_ids, item_ids):
        counts = counts.tocsr()
        counts.sum_duplicates()
        if counts.shape != (len(user_ids), len(item_ids)):
            raise ValueError("count matrix shape does not match id lists")
        if counts.nnz == 0:
            raise ValueError("interaction matrix has no entries")
        if counts.data.min() < 1:
            raise ValueError("stored counts must be >= 1")
        self.counts = counts
        self.user_ids = list(user_ids)
        self.item_ids = list(item_ids)
        # Each side's CSR arrays in shared memory for the ALS workers, made
        # on the side's first solve and freed with the matrix.
        self.shared_rows: dict = {}

    @property
    def n_users(self) -> int:
        return self.counts.shape[0]

    @property
    def n_items(self) -> int:
        return self.counts.shape[1]

    @property
    def nnz(self) -> int:
        return self.counts.nnz

    @cached_property
    def counts_by_item(self) -> sp.csr_matrix:
        """The item-by-user transpose of ``counts``, built on first use."""
        return self.counts.T.tocsr()


def build_interaction_matrix(path) -> UserItemMatrix:
    """Read a log file of tab-separated ``user_id<TAB>item_id[<TAB>count]``
    lines (count defaults to 1, blank lines are skipped) into a sparse count
    matrix.  User and item ids are coded in order of first appearance as
    each line is read, and duplicate (user, item) pairs sum their counts, so
    the matrix is deterministic for a given file.  A bad line raises
    ``ValueError`` naming ``path:lineno``, as does a line that is not UTF-8;
    a line cut short can still parse, so a truncated file is not detected."""
    user_index: dict = {}
    item_index: dict = {}
    users, items, counts = [], [], []
    for lineno, line in text_lines(path):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) == 2:
            count = 1
        elif len(parts) == 3:
            try:
                count = int(parts[2])
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: count {parts[2]!r} is not an integer"
                ) from None
        else:
            raise ValueError(
                f"{path}:{lineno}: expected 2 or 3 tab-separated fields, "
                f"got {len(parts)}"
            )
        if count < 1:
            raise ValueError(f"{path}:{lineno}: count must be >= 1")
        users.append(user_index.setdefault(parts[0], len(user_index)))
        items.append(item_index.setdefault(parts[1], len(item_index)))
        counts.append(count)
    if not counts:
        raise ValueError(f"{path}: log file contains no interactions")
    # Each list is freed once its array is made, so at most one is copied at a time.
    counts = np.array(counts, dtype=np.float64)
    users = np.array(users, dtype=np.int64)
    items = np.array(items, dtype=np.int64)
    shape = (len(user_index), len(item_index))
    matrix = sp.coo_matrix((counts, (users, items)), shape=shape).tocsr()
    return UserItemMatrix(matrix, list(user_index), list(item_index))


@dataclass
class CfEmbedding:
    """User and item factor tables from one ALS fit."""

    item_vectors: np.ndarray
    user_vectors: Optional[np.ndarray]
    item_ids: list
    item_index: dict = field(default_factory=dict)

    def __post_init__(self):
        self.item_vectors = np.asarray(self.item_vectors, dtype=np.float64)
        if self.item_vectors.ndim != 2:
            raise ValueError("item_vectors must be 2-D")
        if not np.all(np.isfinite(self.item_vectors)):
            raise ValueError("item_vectors contain non-finite entries")
        if len(self.item_ids) != self.item_vectors.shape[0]:
            raise ValueError("item id count does not match item_vectors rows")
        if self.user_vectors is not None:
            self.user_vectors = np.asarray(self.user_vectors, dtype=np.float64)
            if not np.all(np.isfinite(self.user_vectors)):
                raise ValueError("user_vectors contain non-finite entries")
            if self.user_vectors.shape[1] != self.item_vectors.shape[1]:
                raise ValueError("user and item factor widths differ")
        if not self.item_index:
            self.item_index = {m: i for i, m in enumerate(self.item_ids)}

    @property
    def n_factors(self) -> int:
        return self.item_vectors.shape[1]


def item_vector(emb: CfEmbedding, item_id) -> np.ndarray:
    """Stored factor row for ``item_id``; raises KeyError for unknown ids."""
    try:
        idx = emb.item_index[item_id]
    except KeyError:
        raise KeyError(f"unknown item id {item_id!r}") from None
    return emb.item_vectors[idx]


def _row_reg(config: AlsConfig, nnz_row: int) -> float:
    return config.reg_lambda * (nnz_row if config.scale_reg_by_count else 1.0)


def _row_blocks(indptr, n_blocks):
    """Up to ``n_blocks`` contiguous (first, stop) row ranges of about equal
    non-zeros, in row order, covering every row."""
    cuts = np.searchsorted(indptr, indptr[-1] * np.arange(1, n_blocks) / n_blocks)
    bounds = np.unique(np.concatenate(([0], cuts, [len(indptr) - 1]))).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _solve_rows(fixed, csr, solved, indptr, config: AlsConfig, first_row: int):
    """The ridge solves of one block of rows.  ``fixed``, ``csr`` and
    ``solved`` are :class:`pool.SharedArrays` handles: the fixed factors,
    the side's CSR ``indices`` and ``data``, and the side's factor table,
    whose rows of this block are written here.  ``indptr`` is the block's
    slice of the CSR ``indptr`` and ``first_row`` the block's first row."""
    (fixed,) = pool.load_shared(fixed)
    indices, data = pool.load_shared(csr, slice(indptr[0], indptr[-1]))
    indptr = indptr - indptr[0]
    k = config.n_factors
    potrf, potrs = get_lapack_funcs(("potrf", "potrs"), (fixed,))
    weight = config.alpha * data  # the diagonal of C_u - I
    target = 1.0 + weight  # C_u p(u) on the row's non-zeros
    yty = fixed.T @ fixed
    out = np.zeros((len(indptr) - 1, k), dtype=np.float64)
    for u in range(len(indptr) - 1):
        lo, hi = indptr[u], indptr[u + 1]
        if lo == hi:
            continue
        m = fixed[indices[lo:hi]]
        a = yty + (m.T * weight[lo:hi]) @ m
        a.flat[:: k + 1] += _row_reg(config, hi - lo)
        factor, info = potrf(a, lower=1, clean=0)
        if info > 0:  # unreachable for reg_lambda > 0
            raise ValueError(
                f"normal matrix for row {first_row + u} is not SPD: "
                f"{info}-th leading minor of the array is not positive definite"
            )
        out[u], _ = potrs(factor, m.T @ target[lo:hi], lower=1)
    pool.store_shared(solved, slice(first_row, first_row + len(out)), out)


def als_solve_side(fixed, matrix: UserItemMatrix, config: AlsConfig, side: str):
    """Exact ridge solve of one side given the other side's factors.

    For each row u the solution is
    ``x_u = (Y^T C_u Y + lam I)^-1 Y^T C_u p(u)`` with binary preferences
    ``p`` and diagonal confidences ``C_u``.  Assembly uses
    ``Y^T C_u Y = Y^T Y + Y^T (C_u - I) Y`` so the per-row cost scales
    with the row's non-zeros, not with the full item count.  Rows with no
    interactions get the zero vector (the ridge minimizer).  Each row is
    factored and solved by LAPACK ``potrf``/``potrs``, the routines behind
    scipy's ``cho_factor(lower=True)``/``cho_solve``, called directly.

    The rows are cut into contiguous blocks of about equal non-zeros, one
    per worker of :mod:`cfdistill.pool`, and always solved there, with one
    BLAS thread.  So the result depends neither on this process's BLAS
    threads nor on the worker count.  The side's CSR arrays are copied to
    shared memory on its first solve and kept in ``matrix.shared_rows``
    until the matrix is freed.
    """
    if side not in ("user", "item"):
        raise ValueError(f"side must be 'user' or 'item', got {side!r}")
    fixed = np.asarray(fixed, dtype=np.float64)
    k = config.n_factors
    if fixed.ndim != 2 or fixed.shape[1] != k:
        raise ValueError(
            f"fixed factors must have {k} columns, got shape {fixed.shape}"
        )
    counts = matrix.counts if side == "user" else matrix.counts_by_item
    if fixed.shape[0] != counts.shape[1]:
        raise ValueError(
            f"fixed side has {fixed.shape[0]} rows, matrix expects {counts.shape[1]}"
        )
    if not np.all(np.isfinite(fixed)):
        raise ValueError("fixed factors contain non-finite entries")
    if side not in matrix.shared_rows:
        matrix.shared_rows[side] = pool.SharedArrays(counts.indices, counts.data)
    csr = matrix.shared_rows[side].handle
    indptr = counts.indptr
    solved = pool.SharedArrays(np.zeros((counts.shape[0], k), dtype=np.float64))
    with pool.SharedArrays(fixed) as shared, solved:
        pool.starmap(_solve_rows, [
            (shared.handle, csr, solved.handle, indptr[first : stop + 1], config, first)
            for first, stop in _row_blocks(indptr, pool.worker_count())
        ])
        return pool.load_shared(solved.handle)[0]


def als_fit(
    matrix: UserItemMatrix,
    config: AlsConfig,
    on_sweep: Optional[Callable[[int, np.ndarray, np.ndarray], None]] = None,
) -> CfEmbedding:
    """Alternate user- and item-side solves for ``n_iterations`` sweeps.

    Factors start uniform in [-0.01, 0.01] from the seeded generator, so a
    zero-iteration fit returns the initialization.  ``on_sweep`` (if given)
    observes (sweep_index, user_vectors, item_vectors) after each full
    sweep.  Row solves within a side are independent, and
    :func:`als_solve_side` spreads them over the worker pool; the factors
    are the same bits whatever the worker or BLAS thread count.
    """
    rng = np.random.default_rng(config.seed)
    users = rng.uniform(-0.01, 0.01, size=(matrix.n_users, config.n_factors))
    items = rng.uniform(-0.01, 0.01, size=(matrix.n_items, config.n_factors))
    for sweep in range(config.n_iterations):
        users = als_solve_side(items, matrix, config, "user")
        items = als_solve_side(users, matrix, config, "item")
        if on_sweep is not None:
            on_sweep(sweep, users, items)
    return CfEmbedding(
        item_vectors=items,
        user_vectors=users,
        item_ids=matrix.item_ids,
    )


def save_embedding(emb: CfEmbedding, path, meta=None):
    """Persist the item table (the transferable knowledge) as a float table."""
    info = {"kind": "cf_item_embedding", "n_factors": emb.n_factors}
    info.update(meta or {})
    save_float_table(path, emb.item_ids, emb.item_vectors, meta=info)


def load_embedding(path) -> CfEmbedding:
    """Load an item embedding table saved by :func:`save_embedding`."""
    ids, matrix, _meta = load_float_table(path)
    return CfEmbedding(item_vectors=matrix, user_vectors=None, item_ids=ids)
