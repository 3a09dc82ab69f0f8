"""Structural matrix sketches — the plan cache's identity of an operand.

A plan (:class:`~repro.plan.ExecPlan`) depends on an operand only
through its *structure*: dimensions and the nonzero pattern that the
symbolic statistics (``nnz``, ``flops``, compression factor) are computed
from.  Values never enter ``auto_config``, so two matrices with the same
pattern and different values must hash to the same sketch — that is what
makes repeat traffic (iterated squaring with decaying values, GNN epochs
over a fixed graph) hit the cache.

The fingerprint is a CRC over the full ``indptr`` (cheap: ``ncols + 1``
words, and any sparsity change moves at least one column pointer) plus a
strided sample of ``rowidx`` capped at :data:`SAMPLE_CAP` entries, so
sketching stays O(ncols) on huge operands while still separating
patterns that happen to share all column counts.  Dense panels (SpMM
feature matrices) contribute geometry only — the plan for a dense
operand is a pure function of its shape.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from ..sparse.matrix import SparseMatrix

#: upper bound on sampled ``rowidx`` entries per sketch
SAMPLE_CAP = 4096


@dataclass(frozen=True)
class MatrixSketch:
    """Hashable structural identity of one multiply operand."""

    kind: str  # "sparse" | "dense"
    nrows: int
    ncols: int
    nnz: int
    fingerprint: int

    def __str__(self) -> str:  # compact form for logs / job reprs
        return (
            f"{self.kind}:{self.nrows}x{self.ncols}"
            f"/nnz={self.nnz}/{self.fingerprint:08x}"
        )


def _crc(*arrays) -> int:
    crc = 0
    for arr in arrays:
        crc = zlib.crc32(np.ascontiguousarray(arr).tobytes(), crc)
    return crc & 0xFFFFFFFF


def sketch_of(operand) -> MatrixSketch:
    """Sketch a sparse matrix or dense panel.

    Sparse: CRC of ``indptr`` + a ≤ :data:`SAMPLE_CAP` strided sample of
    ``rowidx``.  Dense (any object with ``.shape`` and no ``indptr``):
    geometry only.
    """
    if isinstance(operand, SparseMatrix) or hasattr(operand, "indptr"):
        nnz = int(operand.nnz)
        rowidx = operand.rowidx
        step = max(1, len(rowidx) // SAMPLE_CAP)
        return MatrixSketch(
            kind="sparse",
            nrows=int(operand.nrows),
            ncols=int(operand.ncols),
            nnz=nnz,
            fingerprint=_crc(operand.indptr, rowidx[::step]),
        )
    arr = np.asanyarray(operand)
    if arr.ndim != 2:
        raise TypeError(
            f"cannot sketch operand of type {type(operand).__name__} "
            f"with ndim={arr.ndim}; expected a SparseMatrix or 2-D panel"
        )
    nrows, ncols = (int(d) for d in arr.shape)
    return MatrixSketch(
        kind="dense",
        nrows=nrows,
        ncols=ncols,
        nnz=nrows * ncols,
        fingerprint=_crc(np.asarray(arr.shape, dtype=np.int64)),
    )
