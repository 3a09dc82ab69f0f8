"""Symbolic SpGEMM: structure-only analysis of ``A @ B``.

The distributed symbolic step (paper Alg. 3) needs, per process, the
number of nonzeros its local multiply *would* produce — without computing
values.  These kernels provide:

* :func:`symbolic_flops` — number of partial products (``flops``),
  an O(nnz(B)) vectorised count;
* :func:`symbolic_nnz` — ``nnz(A @ B)`` after merging, via a values-free
  ESC pass;
* :func:`symbolic_per_column` — per-output-column ``(nnz, flops)``, the
  basis of compression-factor statistics and the hybrid kernel's policy.
"""

from __future__ import annotations

import numpy as np

from ...errors import ShapeError
from ..matrix import INDEX_DTYPE, SparseMatrix, sorted_unique


def _check(a: SparseMatrix, b: SparseMatrix) -> None:
    if a.ncols != b.nrows:
        raise ShapeError(
            f"cannot multiply {a.nrows}x{a.ncols} by {b.nrows}x{b.ncols}"
        )


def symbolic_flops(a: SparseMatrix, b: SparseMatrix) -> int:
    """Number of scalar multiplications in ``A @ B``."""
    _check(a, b)
    if b.nnz == 0:
        return 0
    return int(np.diff(a.indptr)[b.rowidx].sum())


def _expanded_keys(a: SparseMatrix, b: SparseMatrix) -> np.ndarray:
    """(col, row) keys of all partial products, unmerged."""
    k = b.rowidx
    lens = np.diff(a.indptr)[k]
    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    seg_starts = np.cumsum(lens) - lens
    offsets = np.arange(total, dtype=INDEX_DTYPE) - np.repeat(seg_starts, lens)
    gather = np.repeat(a.indptr[k], lens) + offsets
    rows = a.rowidx[gather]
    cols = np.repeat(b.col_indices(), lens)
    return cols * np.int64(max(a.nrows, 1)) + rows


def symbolic_nnz(a: SparseMatrix, b: SparseMatrix) -> int:
    """``nnz(A @ B)`` (structural: no numeric cancellation assumed)."""
    _check(a, b)
    if a.nnz == 0 or b.nnz == 0:
        return 0
    keys = _expanded_keys(a, b)
    if keys.shape[0] == 0:
        return 0
    return int(sorted_unique(keys).shape[0])


def symbolic_per_column(
    a: SparseMatrix, b: SparseMatrix
) -> tuple[np.ndarray, np.ndarray]:
    """Per-output-column ``(nnz_j, flops_j)`` arrays of length ``b.ncols``."""
    _check(a, b)
    flops_per_col = np.zeros(b.ncols, dtype=INDEX_DTYPE)
    nnz_per_col = np.zeros(b.ncols, dtype=INDEX_DTYPE)
    if a.nnz == 0 or b.nnz == 0:
        return nnz_per_col, flops_per_col
    per_entry = np.diff(a.indptr)[b.rowidx]
    np.add.at(flops_per_col, b.col_indices(), per_entry)
    keys = _expanded_keys(a, b)
    if keys.shape[0]:
        uniq = sorted_unique(keys)
        out_cols = uniq // np.int64(max(a.nrows, 1))
        nnz_per_col += np.bincount(
            out_cols, minlength=b.ncols
        ).astype(INDEX_DTYPE)
    return nnz_per_col, flops_per_col


def symbolic_pattern(a: SparseMatrix, b: SparseMatrix) -> SparseMatrix:
    """The structural pattern of ``A @ B`` as a sparse matrix of ones.

    This is the symbolic pass as a *mask producer*: masked SpGEMM with
    this pattern keeps every structural nonzero, so it reproduces the
    unmasked product — and any sparser mask is a subset of it.
    """
    _check(a, b)
    keys = _expanded_keys(a, b)
    if keys.shape[0] == 0:
        return SparseMatrix.empty(a.nrows, b.ncols)
    uniq = sorted_unique(keys)
    n = np.int64(max(a.nrows, 1))
    cols = uniq // n
    rows = uniq - cols * n
    return SparseMatrix.from_coo(
        a.nrows, b.ncols, rows, cols, np.ones(uniq.shape[0]),
        sum_duplicates=False,
    )


def compression_factor(a: SparseMatrix, b: SparseMatrix) -> float:
    """cf = flops / nnz(C) (paper Sec. II-A); >= 1 whenever C is nonempty."""
    nnz_c = symbolic_nnz(a, b)
    if nnz_c == 0:
        return 1.0
    return symbolic_flops(a, b) / nnz_c
