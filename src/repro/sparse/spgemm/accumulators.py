"""Per-column accumulators for Gustavson-style SpGEMM.

An accumulator receives (row, value) contributions for one output column
and yields the merged column.  The three classic choices the paper
discusses (Sec. II-C) are implemented:

* :class:`HashAccumulator` — hash-table accumulation; works with unsorted
  input, emits entries in **insertion order** (the "sort-free" property the
  paper exploits).  Backed by the CPython dict, which is an open-addressing
  hash table with insertion-order iteration — exactly the semantics of the
  paper's hash kernel.
* :class:`SpAccumulator` — Gilbert/Moler/Schreiber dense sparse accumulator
  (SPA): dense value array + generation-stamped occupancy map, O(1)
  scatter, output gathered in sorted row order.
* heap accumulation lives in :mod:`repro.sparse.spgemm.heap` since it is a
  merge of already-sorted streams rather than a scatter target.
"""

from __future__ import annotations

import numpy as np

from ..matrix import INDEX_DTYPE, VALUE_DTYPE, sorted_unique
from ..semiring import PLUS_TIMES, Semiring


class HashAccumulator:
    """Hash-table accumulator with insertion-order output.

    >>> acc = HashAccumulator()
    >>> acc.scatter(np.array([5, 2, 5]), np.array([1.0, 2.0, 3.0]))
    >>> acc.gather()
    (array([5, 2]), array([4., 2.]))
    """

    __slots__ = ("_table", "_add")

    def __init__(self, semiring: Semiring = PLUS_TIMES) -> None:
        self._table: dict[int, float] = {}
        self._add = semiring.add

    def scatter(self, rows: np.ndarray, vals: np.ndarray) -> None:
        """Accumulate a batch of (row, value) contributions."""
        table = self._table
        add = self._add
        for r, v in zip(rows.tolist(), vals.tolist()):
            prev = table.get(r)
            table[r] = v if prev is None else float(add(prev, v))

    def gather(self) -> tuple[np.ndarray, np.ndarray]:
        """Emit (rows, values) in insertion order and reset."""
        table = self._table
        rows = np.fromiter(table.keys(), dtype=INDEX_DTYPE, count=len(table))
        vals = np.fromiter(table.values(), dtype=VALUE_DTYPE, count=len(table))
        table.clear()
        return rows, vals

    def __len__(self) -> int:
        return len(self._table)


class SpAccumulator:
    """Dense sparse accumulator (SPA) reused across columns.

    The dense arrays are allocated once for the whole multiplication; a
    generation counter marks which slots belong to the current column, so
    per-column reset is O(nnz of column), not O(nrows).
    """

    __slots__ = ("_values", "_stamp", "_generation", "_occupied", "_add")

    def __init__(self, nrows: int, semiring: Semiring = PLUS_TIMES) -> None:
        self._values = np.zeros(nrows, dtype=VALUE_DTYPE)
        self._stamp = np.full(nrows, -1, dtype=INDEX_DTYPE)
        self._generation = 0
        self._occupied: list[int] = []
        self._add = semiring.add

    def scatter(self, rows: np.ndarray, vals: np.ndarray) -> None:
        """Accumulate contributions into the dense array.

        For the plus_times semiring the scatter is fully vectorised with
        ``np.add.at``; other semirings fall back to a scalar loop because
        ``ufunc.at`` with arbitrary ufuncs over repeated indices is the
        same operation.
        """
        gen = self._generation
        stamp = self._stamp
        values = self._values
        fresh = stamp[rows] != gen
        if fresh.any():
            new_rows = sorted_unique(rows[fresh])
            stamp[new_rows] = gen
            values[new_rows] = 0.0 if self._add is np.add else np.nan
            self._occupied.extend(new_rows.tolist())
        if self._add is np.add:
            np.add.at(values, rows, vals)
        else:
            add = self._add
            for r, v in zip(rows.tolist(), vals.tolist()):
                cur = values[r]
                values[r] = v if np.isnan(cur) else float(add(cur, v))

    def gather(self) -> tuple[np.ndarray, np.ndarray]:
        """Emit (rows, values) sorted by row and advance the generation."""
        rows = np.array(sorted(self._occupied), dtype=INDEX_DTYPE)
        vals = self._values[rows].copy()
        self._occupied.clear()
        self._generation += 1
        return rows, vals

    def __len__(self) -> int:
        return len(self._occupied)
