"""Tests for the Eq. (2) batch-requirement sweep and PageRank/spmv."""

import numpy as np
import pytest

from repro.model.sweeps import batch_requirement_sweep

STATS = dict(nnz_a=10**9, nnz_b=10**9, nnz_c=10**10, flops=10**12)


class TestBatchRequirementSweep:
    def test_monotone_in_budget(self):
        budgets = [10**12, 10**13, 10**14]
        rows = batch_requirement_sweep(
            nprocs=1024, layers=16, memory_budgets=budgets, **STATS
        )
        feasible = [r for r in rows if r["feasible"]]
        bs = [r["batches"] for r in feasible]
        assert bs == sorted(bs, reverse=True)

    def test_infeasible_flagged(self):
        rows = batch_requirement_sweep(
            nprocs=4, layers=1, memory_budgets=[10**3], **STATS
        )
        assert rows[0]["feasible"] is False
        assert rows[0]["batches"] is None


class TestSpmv:
    def test_matches_dense(self):
        from repro.sparse import random_sparse
        from repro.sparse.ops import spmv

        a = random_sparse(20, 15, nnz=80, seed=341)
        x = np.arange(15, dtype=float)
        assert np.allclose(spmv(a, x), a.to_dense() @ x)

    def test_shape_error(self):
        from repro.errors import ShapeError
        from repro.sparse import eye
        from repro.sparse.ops import spmv

        with pytest.raises(ShapeError):
            spmv(eye(3), np.ones(4))

    def test_empty_matrix(self):
        from repro.sparse import SparseMatrix
        from repro.sparse.ops import spmv

        assert np.allclose(spmv(SparseMatrix.empty(4, 3), np.ones(3)), 0.0)


class TestPagerank:
    def test_matches_networkx(self):
        import networkx as nx

        from repro.apps import pagerank
        from repro.data import rmat

        g = rmat(7, edge_factor=5, seed=331, symmetric=False)
        pr = pagerank(g)
        gx = nx.DiGraph()
        gx.add_nodes_from(range(g.nrows))
        rows, cols, _ = g.to_coo()
        gx.add_edges_from((int(c), int(r)) for r, c in zip(rows, cols))
        oracle = nx.pagerank(gx, alpha=0.85, tol=1e-12, max_iter=500)
        assert np.allclose(pr, [oracle[i] for i in range(g.nrows)], atol=1e-6)

    def test_sums_to_one(self):
        from repro.apps import pagerank
        from repro.data import erdos_renyi

        pr = pagerank(erdos_renyi(50, avg_degree=6, seed=342))
        assert pr.sum() == pytest.approx(1.0)
        assert np.all(pr > 0)

    def test_uniform_on_cycle(self):
        from repro.apps import pagerank
        from repro.sparse import from_edges

        # a directed cycle is regular: all scores equal
        n = 20
        ring = from_edges(n, n, [[(i + 1) % n, i] for i in range(n)])
        pr = pagerank(ring)
        assert np.allclose(pr, 1.0 / n, atol=1e-6)

    def test_dangling_nodes_handled(self):
        from repro.apps import pagerank
        from repro.sparse import from_edges

        # 0 -> 1 -> 2, vertex 2 dangling (our convention: entry (dst, src))
        g = from_edges(3, 3, [[1, 0], [2, 1]])
        pr = pagerank(g)
        assert pr.sum() == pytest.approx(1.0)
        assert pr[2] > pr[0]  # sink accumulates rank

    def test_validation(self):
        from repro.apps import pagerank
        from repro.sparse import SparseMatrix, random_sparse

        with pytest.raises(ValueError):
            pagerank(random_sparse(3, 4, nnz=2, seed=0))
        with pytest.raises(ValueError):
            pagerank(SparseMatrix.empty(3, 3), damping=1.5)
        assert pagerank(SparseMatrix.empty(0, 0)).shape == (0,)
