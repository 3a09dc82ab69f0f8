"""Tests for permutation and matrix statistics."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.data import rmat, erdos_renyi
from repro.grid import ProcGrid3D
from repro.sparse import multiply, random_sparse
from repro.sparse.ops import permute, random_symmetric_permutation
from repro.sparse.stats import (
    DegreeStats,
    degree_stats,
    nnz_histogram,
    tile_imbalance,
)


class TestPermute:
    def test_row_permutation(self, square_matrix):
        perm = np.random.default_rng(1).permutation(64)
        p = permute(square_matrix, row_perm=perm)
        assert np.allclose(
            p.to_dense()[perm, :], square_matrix.to_dense()
        )

    def test_col_permutation(self, square_matrix):
        perm = np.random.default_rng(2).permutation(64)
        p = permute(square_matrix, col_perm=perm)
        assert np.allclose(
            p.to_dense()[:, perm], square_matrix.to_dense()
        )

    def test_identity_permutation(self, square_matrix):
        ident = np.arange(64)
        assert permute(square_matrix, ident, ident).allclose(square_matrix)

    def test_none_is_noop(self, square_matrix):
        assert permute(square_matrix).allclose(square_matrix)

    def test_invalid_permutation(self, square_matrix):
        with pytest.raises(ShapeError):
            permute(square_matrix, row_perm=np.zeros(64, dtype=int))
        with pytest.raises(ShapeError):
            permute(square_matrix, col_perm=np.arange(10))

    def test_symmetric_permutation_preserves_structure(self):
        a = rmat(7, seed=3)
        p, perm = random_symmetric_permutation(a, seed=4)
        assert p.nnz == a.nnz
        # symmetric permutation of a symmetric matrix stays symmetric
        assert p.allclose(p.T)
        # products commute with relabelling: P(A)^2 == P(A^2)
        a2 = multiply(a, a)
        p2 = multiply(p, p)
        assert p2.allclose(permute(a2, perm, perm))

    def test_symmetric_permutation_requires_square(self):
        with pytest.raises(ShapeError):
            random_symmetric_permutation(random_sparse(3, 4, nnz=2, seed=0))

    def test_deterministic(self):
        a = rmat(6, seed=5)
        p1, _ = random_symmetric_permutation(a, seed=6)
        p2, _ = random_symmetric_permutation(a, seed=6)
        assert p1.allclose(p2)


class TestStats:
    def test_degree_stats_column(self):
        from repro.sparse import from_dense

        m = from_dense(np.array([[1, 1, 0], [1, 0, 0], [1, 0, 0]], float))
        s = degree_stats(m, axis="column")
        assert s.maximum == 3
        assert s.mean == pytest.approx(4 / 3)
        assert s.skew_ratio == pytest.approx(3 / (4 / 3))

    def test_degree_stats_row(self):
        from repro.sparse import from_dense

        m = from_dense(np.array([[1, 1, 1], [0, 0, 0], [1, 0, 0]], float))
        s = degree_stats(m, axis="row")
        assert s.maximum == 3

    def test_degree_stats_invalid_axis(self, square_matrix):
        with pytest.raises(ValueError):
            degree_stats(square_matrix, axis="diag")

    def test_empty_matrix(self):
        from repro.sparse import SparseMatrix

        s = degree_stats(SparseMatrix.empty(4, 4))
        assert s == DegreeStats(0.0, 0.0, 0, 1.0)

    def test_rmat_skews_more_than_er(self):
        skewed = rmat(9, edge_factor=8, seed=7)
        uniform = erdos_renyi(512, avg_degree=16, seed=8)
        assert degree_stats(skewed).skew_ratio > degree_stats(uniform).skew_ratio

    def test_tile_imbalance_uniform_dense(self):
        from repro.sparse import from_dense

        grid = ProcGrid3D(4, 1)
        full = from_dense(np.ones((8, 8)))
        assert tile_imbalance(full, grid) == pytest.approx(1.0)

    def test_tile_imbalance_diagonal(self):
        # a diagonal matrix concentrates all nnz on the diagonal tiles:
        # on a 2x2 grid that is max 32 vs mean 16 -> imbalance 2
        from repro.sparse import eye

        grid = ProcGrid3D(4, 1)
        assert tile_imbalance(eye(64), grid) == pytest.approx(2.0)

    def test_tile_imbalance_empty(self):
        from repro.sparse import SparseMatrix

        assert tile_imbalance(SparseMatrix.empty(8, 8), ProcGrid3D(4)) == 1.0

    def test_tile_imbalance_b_operand(self):
        a = rmat(7, seed=9)
        grid = ProcGrid3D(8, 2)
        assert tile_imbalance(a, grid, operand="B") >= 1.0

    def test_nnz_histogram(self, square_matrix):
        counts, edges = nnz_histogram(square_matrix, bins=5)
        assert counts.sum() == 64
        assert len(edges) == 6
