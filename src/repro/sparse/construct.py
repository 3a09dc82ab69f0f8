"""Constructors for :class:`~repro.sparse.matrix.SparseMatrix`."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..utils.rng import as_rng
from .matrix import INDEX_DTYPE, VALUE_DTYPE, SparseMatrix, sorted_unique


def zeros(nrows: int, ncols: int) -> SparseMatrix:
    """All-zero matrix."""
    return SparseMatrix.empty(nrows, ncols)


def eye(n: int, value: float = 1.0) -> SparseMatrix:
    """``n x n`` identity scaled by ``value``."""
    idx = np.arange(n, dtype=INDEX_DTYPE)
    return SparseMatrix(
        n,
        n,
        np.arange(n + 1, dtype=INDEX_DTYPE),
        idx,
        np.full(n, value, dtype=VALUE_DTYPE),
        validate=False,
    )


def diag(values) -> SparseMatrix:
    """Square diagonal matrix from a 1-D array of values.

    Explicit zeros on the diagonal are dropped (canonical form).
    """
    values = np.asarray(values, dtype=VALUE_DTYPE)
    n = values.shape[0]
    keep = np.flatnonzero(values != 0.0)
    return SparseMatrix.from_coo(n, n, keep, keep, values[keep])


def from_dense(dense) -> SparseMatrix:
    """Sparse matrix from a dense 2-D array (zeros dropped)."""
    dense = np.asarray(dense, dtype=VALUE_DTYPE)
    if dense.ndim != 2:
        raise ShapeError(f"expected 2-D array, got shape {dense.shape}")
    rows, cols = np.nonzero(dense)
    return SparseMatrix.from_coo(
        dense.shape[0], dense.shape[1], rows, cols, dense[rows, cols]
    )


def from_edges(
    nrows: int,
    ncols: int,
    edges,
    *,
    values=None,
    symmetric: bool = False,
) -> SparseMatrix:
    """Matrix from an (m, 2) edge array; duplicate edges sum.

    With ``symmetric=True`` each edge (u, v) also inserts (v, u) — the usual
    adjacency-matrix construction for undirected graphs; requires a square
    shape and skips mirroring self-loops so the diagonal is not doubled.
    """
    edges = np.asarray(edges, dtype=INDEX_DTYPE)
    if edges.size == 0:
        edges = edges.reshape(0, 2)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ShapeError(f"edges must have shape (m, 2), got {edges.shape}")
    rows, cols = edges[:, 0], edges[:, 1]
    if values is None:
        vals = np.ones(rows.shape[0], dtype=VALUE_DTYPE)
    else:
        vals = np.asarray(values, dtype=VALUE_DTYPE)
    if symmetric:
        if nrows != ncols:
            raise ShapeError("symmetric construction requires a square shape")
        off = rows != cols
        rows = np.concatenate([rows, cols[off]])
        cols_new = np.concatenate([cols, edges[:, 0][off]])
        vals = np.concatenate([vals, vals[off]])
        cols = cols_new
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)


def random_sparse(
    nrows: int,
    ncols: int,
    density: float | None = None,
    *,
    nnz: int | None = None,
    seed=None,
    values: str = "uniform",
) -> SparseMatrix:
    """Uniform random sparse matrix (Erdős–Rényi sparsity pattern).

    Exactly one of ``density`` / ``nnz`` selects how many *distinct*
    coordinates to draw.  ``values`` is ``"uniform"`` (U(0,1]), ``"ones"``
    or ``"normal"``.
    """
    if (density is None) == (nnz is None):
        raise ValueError("specify exactly one of density / nnz")
    total = nrows * ncols
    if nnz is None:
        if not 0.0 <= density <= 1.0:
            raise ValueError(f"density must be in [0, 1], got {density}")
        nnz = int(round(density * total))
    if nnz > total:
        raise ValueError(f"requested nnz={nnz} > nrows*ncols={total}")
    rng = as_rng(seed)
    if total == 0 or nnz == 0:
        return SparseMatrix.empty(nrows, ncols)
    # Draw distinct flat coordinates. For low fill, rejection sampling on
    # draws is cheaper than permuting the full index space.
    if nnz > total // 2:
        flat = rng.permutation(total)[:nnz]
    else:
        flat = sorted_unique(rng.integers(0, total, size=int(nnz * 1.3) + 16))
        while flat.shape[0] < nnz:
            extra = rng.integers(0, total, size=nnz)
            flat = sorted_unique(np.concatenate([flat, extra]))
        flat = rng.permutation(flat)[:nnz]
    rows, cols = np.divmod(flat, ncols)
    vals = _draw_values(rng, nnz, values)
    return SparseMatrix.from_coo(nrows, ncols, rows, cols, vals)


def _draw_values(rng: np.random.Generator, n: int, kind: str) -> np.ndarray:
    if kind == "uniform":
        # open interval at 0 so no explicit zeros sneak in
        return (1.0 - rng.random(n)).astype(VALUE_DTYPE)
    if kind == "ones":
        return np.ones(n, dtype=VALUE_DTYPE)
    if kind == "normal":
        vals = rng.standard_normal(n).astype(VALUE_DTYPE)
        vals[vals == 0.0] = 1.0
        return vals
    raise ValueError(f"unknown value kind {kind!r}")
