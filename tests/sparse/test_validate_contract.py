"""The validation contract of :class:`SparseMatrix` and its unique helper.

``_validate`` takes an O(nnz) path when the sorted flag is set and falls
back to a sort only when that check fails.  These properties pin that it
rejects exactly what the original whole-key uniqueness check rejected,
with the same message: a duplicate coordinate wins over an unsorted
column when a matrix has both.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FormatError
from repro.sparse import SparseMatrix
from repro.sparse.matrix import sorted_unique


def reference_fault(nrows, indptr, rowidx, sorted_flag):
    """The original duplicate/sortedness check: a whole-key ``np.unique``
    first, then the per-column order check.  Returns the message or None."""
    nnz = rowidx.shape[0]
    if not nnz:
        return None
    cols = np.repeat(np.arange(indptr.shape[0] - 1), np.diff(indptr))
    key = cols * max(nrows, 1) + rowidx
    if np.unique(key).shape[0] != nnz:
        return "duplicate (row, col) coordinate"
    if sorted_flag:
        same_col = cols[1:] == cols[:-1]
        if np.any(same_col & (np.diff(rowidx) <= 0)):
            return "sorted_within_columns set but a column is unsorted"
    return None


def fault_of(nrows, ncols, indptr, rowidx, sorted_flag):
    try:
        SparseMatrix(
            nrows, ncols, indptr, rowidx, np.ones(rowidx.shape[0]),
            sorted_within_columns=sorted_flag,
        )
    except FormatError as exc:
        return str(exc)
    return None


@st.composite
def faulty_csc(draw):
    """A valid sorted CSC pattern, then a few injected faults: a duplicate
    (one row copied onto another in its column) or a swapped pair."""
    nrows = draw(st.integers(1, 12))
    ncols = draw(st.integers(1, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    mask = rng.random((nrows, ncols)) < draw(st.floats(0.0, 1.0))
    rowidx = np.nonzero(mask.T)[1].astype(np.int64)
    indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=0)))).astype(np.int64)
    faults = draw(st.lists(st.sampled_from(["duplicate", "swap"]), max_size=3))
    injected = []
    for fault in faults:
        cols = np.flatnonzero(np.diff(indptr) >= 2)
        if not cols.shape[0]:
            break
        j = int(cols[draw(st.integers(0, cols.shape[0] - 1))])
        lo, hi = int(indptr[j]), int(indptr[j + 1])
        p = draw(st.integers(lo, hi - 1))
        q = draw(st.integers(lo, hi - 1).filter(lambda x, p=p: x != p))
        if fault == "duplicate":
            rowidx[q] = rowidx[p]
        else:
            rowidx[p], rowidx[q] = rowidx[q], rowidx[p]
        injected.append(fault)
    return nrows, ncols, indptr, rowidx, injected


class TestValidateMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(faulty_csc(), st.booleans())
    def test_same_verdict_and_message(self, case, sorted_flag):
        nrows, ncols, indptr, rowidx, _ = case
        assert fault_of(nrows, ncols, indptr, rowidx, sorted_flag) == (
            reference_fault(nrows, indptr, rowidx, sorted_flag)
        )

    @settings(max_examples=200, deadline=None)
    @given(faulty_csc(), st.booleans())
    def test_injected_duplicate_always_reported_as_duplicate(self, case, sorted_flag):
        nrows, ncols, indptr, rowidx, injected = case
        key = np.repeat(np.arange(ncols), np.diff(indptr)) * nrows + rowidx
        if sorted_unique(key).shape[0] == key.shape[0]:
            return  # a later swap or duplicate undid the earlier one
        assert "duplicate" in fault_of(nrows, ncols, indptr, rowidx, sorted_flag)

    @pytest.mark.parametrize("sorted_flag", [True, False])
    def test_duplicate_and_unsorted_column_reports_duplicate(self, sorted_flag):
        # column 0 holds a duplicate, column 1 is unsorted
        indptr = np.array([0, 2, 4])
        rowidx = np.array([1, 1, 3, 0])
        with pytest.raises(FormatError, match="duplicate"):
            SparseMatrix(4, 2, indptr, rowidx, np.ones(4),
                         sorted_within_columns=sorted_flag)

    def test_non_adjacent_duplicate_in_unsorted_column(self):
        indptr = np.array([0, 3])
        rowidx = np.array([2, 0, 2])
        with pytest.raises(FormatError, match="duplicate"):
            SparseMatrix(3, 1, indptr, rowidx, np.ones(3),
                         sorted_within_columns=False)

    def test_drop_across_column_boundary_is_sorted(self):
        # rows fall from 3 to 0 between columns, rise inside each column;
        # empty leading, middle and trailing columns sit on the boundary
        indptr = np.array([0, 0, 2, 2, 4, 4])
        rowidx = np.array([1, 3, 0, 2])
        m = SparseMatrix(4, 5, indptr, rowidx, np.ones(4))
        assert m.nnz == 4


class TestSortedUnique:
    @pytest.mark.parametrize(
        "keys",
        [
            np.empty(0, dtype=np.int64),
            np.array([7], dtype=np.int64),
            np.full(9, -3, dtype=np.int64),
            np.array([5, 1, 5, 1, 0], dtype=np.int64),
        ],
        ids=["empty", "singleton", "all-equal", "small"],
    )
    def test_edge_cases(self, keys):
        got = sorted_unique(keys)
        want = np.unique(keys)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), max_size=200))
    def test_matches_numpy_unique(self, values):
        keys = np.array(values, dtype=np.int64)
        got = sorted_unique(keys)
        assert got.dtype == np.int64
        assert np.array_equal(got, np.unique(keys))

    def test_does_not_modify_input(self):
        keys = np.array([3, 1, 2, 1], dtype=np.int64)
        sorted_unique(keys)
        assert keys.tolist() == [3, 1, 2, 1]


class TestSortIndices:
    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 15), st.integers(1, 10), st.integers(0, 2**32 - 1))
    def test_matches_per_column_sort(self, nrows, ncols, seed):
        rng = np.random.default_rng(seed)
        mask = rng.random((nrows, ncols)) < 0.4
        indptr = np.concatenate(([0], np.cumsum(mask.sum(axis=0))))
        rowidx = np.nonzero(mask.T)[1]
        for j in range(ncols):
            rng.shuffle(rowidx[indptr[j]:indptr[j + 1]])
        values = rng.random(rowidx.shape[0])
        m = SparseMatrix(nrows, ncols, indptr, rowidx, values,
                         sorted_within_columns=False)
        s = m.sort_indices()
        assert s.sorted_within_columns
        assert np.array_equal(s.indptr, m.indptr)
        for j in range(ncols):
            lo, hi = indptr[j], indptr[j + 1]
            order = np.argsort(rowidx[lo:hi], kind="stable")
            assert np.array_equal(s.rowidx[lo:hi], rowidx[lo:hi][order])
            assert np.array_equal(s.values[lo:hi], values[lo:hi][order])
        SparseMatrix(nrows, ncols, s.indptr, s.rowidx, s.values)
