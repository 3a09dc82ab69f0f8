"""``gather_tiles`` places tiles in O(nnz) without a global sort.

Every case compares the result bit for bit (``indptr``, ``rowidx``,
``values``) against a reference assembly that concatenates the pieces'
COO triples and builds the matrix with ``SparseMatrix.from_coo`` — the
sort-based path the placement replaced.
"""

import numpy as np
import pytest

from repro.errors import DistributionError
from repro.grid import ProcGrid3D
from repro.grid.distribution import (
    a_tile_range,
    batch_local_columns,
    extract_a_tile,
    gather_tiles,
)
from repro.sparse import SparseMatrix, random_sparse
from repro.sparse.ops import split_bounds, submatrix


def reference_gather(nrows, ncols, pieces):
    rows, cols, vals = [], [], []
    for r0, c0, tile in pieces:
        rows.append(tile.rowidx + r0)
        cols.append(tile.col_indices() + c0)
        vals.append(tile.values)
    return SparseMatrix.from_coo(
        nrows, ncols, np.concatenate(rows), np.concatenate(cols),
        np.concatenate(vals), sum_duplicates=False,
    )


def assert_bit_identical(got, want):
    assert got.shape == want.shape
    assert got.sorted_within_columns
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.rowidx, want.rowidx)
    assert np.array_equal(got.values, want.values)
    assert got.values.tobytes() == want.values.tobytes()


def grid_pieces(a, pr, pc):
    rb, cb = split_bounds(a.nrows, pr), split_bounds(a.ncols, pc)
    return [
        (int(rb[i]), int(cb[j]),
         submatrix(a, int(rb[i]), int(rb[i + 1]), int(cb[j]), int(cb[j + 1])))
        for i in range(pr) for j in range(pc)
    ]


def column_selection(a, cols):
    """A full-height matrix holding only ``cols`` of ``a`` (others empty)."""
    keep = np.zeros(a.ncols, dtype=bool)
    keep[cols] = True
    entry_keep = np.repeat(keep, np.diff(a.indptr))
    counts = np.where(keep, np.diff(a.indptr), 0)
    return SparseMatrix(
        a.nrows, a.ncols, np.concatenate(([0], np.cumsum(counts))),
        a.rowidx[entry_keep], a.values[entry_keep],
    )


def shuffle_columns(tile, rng):
    """Same entries, rows permuted inside every column, flag cleared."""
    order = np.arange(tile.nnz)
    for j in range(tile.ncols):
        rng.shuffle(order[tile.indptr[j]:tile.indptr[j + 1]])
    return SparseMatrix(
        tile.nrows, tile.ncols, tile.indptr, tile.rowidx[order],
        tile.values[order], sorted_within_columns=False,
    )


@pytest.fixture(scope="module")
def a():
    return random_sparse(53, 47, nnz=600, seed=12, values="normal")


class TestPlacementMatchesReference:
    @pytest.mark.parametrize("pr,pc", [(1, 1), (2, 3), (4, 4), (7, 2)])
    def test_grid_tiles(self, a, pr, pc):
        pieces = grid_pieces(a, pr, pc)
        got = gather_tiles(a.nrows, a.ncols, pieces)
        assert_bit_identical(got, reference_gather(a.nrows, a.ncols, pieces))
        assert_bit_identical(got, a)

    @pytest.mark.parametrize("nbatches,layers", [(2, 1), (3, 2), (4, 4)])
    def test_full_height_batches_interleave(self, a, nbatches, layers):
        pieces = [
            (0, 0, column_selection(
                a, batch_local_columns(a.ncols, nbatches, layers, batch)))
            for batch in range(nbatches)
        ]
        got = gather_tiles(a.nrows, a.ncols, pieces)
        assert_bit_identical(got, reference_gather(a.nrows, a.ncols, pieces))
        assert_bit_identical(got, a)

    def test_unsorted_tiles(self, a):
        rng = np.random.default_rng(3)
        pieces = [
            (r0, c0, shuffle_columns(t, rng)) for r0, c0, t in grid_pieces(a, 3, 3)
        ]
        assert not all(t.sorted_within_columns for _, _, t in pieces)
        got = gather_tiles(a.nrows, a.ncols, pieces)
        assert_bit_identical(got, reference_gather(a.nrows, a.ncols, pieces))

    @pytest.mark.parametrize("seed", range(5))
    def test_shuffled_piece_order(self, a, seed):
        pieces = grid_pieces(a, 4, 3)
        rng = np.random.default_rng(seed)
        shuffled = [pieces[i] for i in rng.permutation(len(pieces))]
        got = gather_tiles(a.nrows, a.ncols, shuffled)
        assert_bit_identical(got, reference_gather(a.nrows, a.ncols, pieces))

    def test_overlapping_row_ranges_disjoint_coordinates(self, a):
        # two full-height pieces split by row parity: every column's rows
        # interleave across the pieces, so placement falls back to the sort
        even = a.rowidx % 2 == 0
        cols = a.col_indices()

        def part(mask):
            return SparseMatrix.from_coo(
                a.nrows, a.ncols, a.rowidx[mask], cols[mask], a.values[mask]
            )

        pieces = [(0, 0, part(even)), (0, 0, part(~even))]
        got = gather_tiles(a.nrows, a.ncols, pieces)
        assert_bit_identical(got, reference_gather(a.nrows, a.ncols, pieces))
        assert_bit_identical(got, a)

    def test_offset_tiles_with_overhanging_empty_columns(self):
        # a tile whose declared width runs past the output but whose
        # entries stay inside is accepted, as the COO assembly accepts it
        t = SparseMatrix.from_coo(2, 3, [0, 1], [0, 1], [1.0, 2.0])
        pieces = [(1, 2, t)]
        got = gather_tiles(4, 4, pieces)
        assert_bit_identical(got, reference_gather(4, 4, pieces))

    def test_empty_pieces_skipped(self, a):
        pieces = grid_pieces(a, 2, 2) + [(0, 0, SparseMatrix.empty(5, 5))]
        assert_bit_identical(gather_tiles(a.nrows, a.ncols, pieces), a)

    def test_grid_gather_of_a_3d_distribution(self):
        # the A tiles at (i, j, k) and their offsets tile the whole matrix
        grid = ProcGrid3D(8, 2)
        a = random_sparse(30, 30, nnz=150, seed=2)
        pieces = []
        for rank in range(grid.nprocs):
            i, j, k = grid.coords(rank)
            r0, _, c0, _ = a_tile_range(grid, 30, 30, i, j, k)
            pieces.append((r0, c0, extract_a_tile(a, grid, rank)))
        assert_bit_identical(gather_tiles(30, 30, pieces), a)


class TestPlacementStillRejects:
    def test_duplicate_pieces(self, a):
        pieces = grid_pieces(a, 2, 2)
        with pytest.raises(DistributionError, match="duplicate"):
            gather_tiles(a.nrows, a.ncols, pieces + pieces[:1])

    def test_partial_overlap_at_offset(self):
        t = SparseMatrix.from_coo(3, 3, [0, 1, 2], [0, 1, 2], [1.0, 2.0, 3.0])
        with pytest.raises(DistributionError, match="duplicate"):
            gather_tiles(6, 6, [(0, 0, t), (1, 1, t)])

    def test_rows_out_of_range(self):
        t = SparseMatrix.from_coo(3, 2, [2], [0], [1.0])
        with pytest.raises(DistributionError, match="row index out of range"):
            gather_tiles(4, 4, [(2, 0, t)])

    def test_columns_out_of_range(self):
        t = SparseMatrix.from_coo(2, 3, [0], [2], [1.0])
        with pytest.raises(DistributionError, match="column index out of range"):
            gather_tiles(4, 4, [(0, 2, t)])

    def test_negative_offset(self):
        t = SparseMatrix.from_coo(2, 2, [0], [0], [1.0])
        with pytest.raises(DistributionError):
            gather_tiles(4, 4, [(-1, 0, t)])

    def test_unsorted_tile_with_duplicate(self):
        bad = SparseMatrix(
            3, 1, [0, 2], [1, 1], [1.0, 2.0],
            sorted_within_columns=False, validate=False,
        )
        with pytest.raises(DistributionError, match="duplicate"):
            gather_tiles(3, 1, [(0, 0, bad)])
