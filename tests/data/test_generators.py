"""Tests for synthetic workload generators and the dataset registry."""

import numpy as np
import pytest

from repro.data import (
    dataset_names,
    erdos_renyi,
    kmer_matrix,
    load_dataset,
    planted_partition,
    protein_similarity,
    rmat,
)
from repro.sparse import transpose
from repro.sparse.spgemm.symbolic import compression_factor


def _is_symmetric(m):
    return transpose(m).allclose(m)


class TestErdosRenyi:
    def test_symmetric(self):
        assert _is_symmetric(erdos_renyi(50, avg_degree=6, seed=1))

    def test_asymmetric_option(self):
        m = erdos_renyi(50, avg_degree=6, seed=1, symmetric=False)
        assert m.nnz == 300

    def test_determinism(self):
        assert erdos_renyi(30, seed=2).allclose(erdos_renyi(30, seed=2))


class TestRmat:
    def test_shape(self):
        m = rmat(7, edge_factor=4, seed=1)
        assert m.shape == (128, 128)

    def test_symmetric(self):
        assert _is_symmetric(rmat(6, seed=2))

    def test_degree_skew(self):
        """R-MAT with Graph500 parameters must have a heavy degree tail."""
        m = rmat(10, edge_factor=8, seed=3)
        deg = m.col_nnz()
        assert deg.max() > 8 * np.median(deg[deg > 0])

    def test_uniform_parameters_no_skew(self):
        m = rmat(9, edge_factor=8, a=0.25, b=0.25, c=0.25, seed=4)
        deg = m.col_nnz()
        assert deg.max() <= 6 * max(1, np.median(deg[deg > 0]))

    def test_pattern_values_are_ones(self):
        m = rmat(6, seed=5)
        assert np.all(m.values == 1.0)

    def test_invalid_probabilities(self):
        with pytest.raises(ValueError):
            rmat(4, a=0.5, b=0.5, c=0.2)

    def test_determinism(self):
        assert rmat(6, seed=6).allclose(rmat(6, seed=6))


class TestProteinSimilarity:
    def test_symmetric_with_unit_diagonal(self):
        m = protein_similarity(120, seed=1)
        assert _is_symmetric(m)
        d = m.to_dense()
        assert np.allclose(np.diag(d), 1.0)

    def test_values_in_range(self):
        m = protein_similarity(100, seed=2)
        assert m.values.min() > 0
        assert m.values.max() <= 1.0

    def test_high_compression_factor(self):
        """Community structure must make squaring flop-heavy (cf >> 1);
        cf grows with size, so check both a small and a mid-size instance."""
        small = protein_similarity(200, seed=3)
        assert compression_factor(small, small) > 1.5
        mid = protein_similarity(600, intra_density=0.45, seed=3)
        assert compression_factor(mid, mid) > 3.0

    def test_determinism(self):
        assert protein_similarity(80, seed=4).allclose(
            protein_similarity(80, seed=4)
        )


class TestPlantedPartition:
    def test_labels_cover_clusters(self):
        _, labels = planted_partition(60, 5, seed=1)
        assert set(labels.tolist()) == set(range(5))

    def test_intra_density_dominates(self):
        adj, labels = planted_partition(60, 3, p_in=0.8, p_out=0.01, seed=2)
        rows, cols, _ = adj.to_coo()
        off = rows != cols
        same = labels[rows[off]] == labels[cols[off]]
        assert same.mean() > 0.8

    def test_symmetric(self):
        adj, _ = planted_partition(40, 4, seed=3)
        assert _is_symmetric(adj)


class TestKmerMatrix:
    def test_shape_and_binary(self):
        m = kmer_matrix(50, 400, kmers_per_seq=8, seed=1)
        assert m.shape == (50, 400)
        assert np.all(m.values == 1.0)

    def test_zipf_popularity_skew(self):
        m = kmer_matrix(400, 1000, kmers_per_seq=20, zipf_exponent=1.5, seed=2)
        popularity = np.sort(m.col_nnz())[::-1]
        # top 1% of k-mers carry far more than 1% of occurrences
        top = popularity[:10].sum()
        assert top > 0.05 * m.nnz

    def test_determinism(self):
        assert kmer_matrix(30, 100, seed=3).allclose(kmer_matrix(30, 100, seed=3))


class TestDatasetRegistry:
    def test_names_match_table5(self):
        assert dataset_names() == [
            "eukarya", "rice_kmers", "metaclust20m", "isolates_small",
            "friendster", "isolates", "metaclust50",
        ]

    def test_load_unknown(self):
        with pytest.raises(KeyError):
            load_dataset("nope")

    @pytest.mark.parametrize("name", ["eukarya", "friendster", "rice_kmers"])
    def test_operands_compatible(self, name):
        spec = load_dataset(name)
        a, b = spec.operands(seed=0)
        assert a.ncols == b.nrows

    def test_aat_datasets_use_transpose(self):
        spec = load_dataset("rice_kmers")
        a, b = spec.operands(seed=0)
        assert spec.operation == "AAT"
        assert b.allclose(transpose(a))

    def test_paper_stats_fields(self):
        spec = load_dataset("isolates")
        assert spec.paper.cf > 100          # 301T / 984B
        assert spec.paper.expansion > 10    # 984B / 68B

    def test_achieved_stats_shape_preserved(self):
        """The scaled stand-ins must preserve the regime: expansion > 1 and
        cf > 1 for the squaring datasets."""
        for name in ("eukarya", "isolates_small", "friendster"):
            stats = load_dataset(name).achieved_stats(seed=0)
            assert stats["expansion"] > 1.0, name
            assert stats["cf"] > 1.5, name

    def test_rice_kmers_low_expansion(self):
        """Rice-kmers: nnz(AAT) ~ nnz(A) in the paper (no batching needed)."""
        stats = load_dataset("rice_kmers").achieved_stats(seed=0)
        assert stats["expansion"] < 8.0

    def test_metaclust20m_high_expansion(self):
        """Metaclust20m: AAT expands >100x in the paper; the stand-in must
        expand strongly too."""
        stats = load_dataset("metaclust20m").achieved_stats(seed=0)
        assert stats["expansion"] > 20.0


class TestSmallWorld:
    def test_symmetric(self):
        from repro.data.generators import small_world

        g = small_world(60, k=6, rewire=0.1, seed=251)
        assert _is_symmetric(g)

    def test_no_rewire_is_ring_lattice(self):
        from repro.data.generators import small_world

        g = small_world(20, k=4, rewire=0.0, seed=252)
        # every vertex has exactly k neighbours in the pure lattice
        assert np.all(g.col_nnz() == 4)

    def test_high_clustering_vs_random(self):
        import networkx as nx

        from repro.data.generators import small_world

        g = small_world(100, k=8, rewire=0.05, seed=253)
        gx = nx.Graph()
        rows, cols, _ = g.to_coo()
        gx.add_nodes_from(range(100))
        gx.add_edges_from((int(r), int(c)) for r, c in zip(rows, cols) if r < c)
        assert nx.average_clustering(gx) > 0.3  # lattice-like clustering

    def test_invalid_k(self):
        from repro.data.generators import small_world

        with pytest.raises(ValueError):
            small_world(10, k=3)
        with pytest.raises(ValueError):
            small_world(10, k=12)

    def test_determinism(self):
        from repro.data.generators import small_world

        assert small_world(30, seed=254).allclose(small_world(30, seed=254))


class TestBanded:
    def test_structure(self):
        from repro.data.generators import banded

        m = banded(8, bandwidth=1)
        d = m.to_dense()
        assert np.all(np.diag(d) == 1.0)
        assert d[0, 2] == 0.0 and d[0, 1] == 1.0

    def test_nnz_count(self):
        from repro.data.generators import banded

        m = banded(10, bandwidth=2)
        assert m.nnz == 10 + 2 * 9 + 2 * 8

    def test_perfectly_balanced_degrees(self):
        from repro.data.generators import banded
        from repro.sparse.stats import degree_stats

        m = banded(50, bandwidth=3)
        assert degree_stats(m).skew_ratio < 1.2

    def test_squaring_on_distributed_grid(self):
        """Stencil matrices through the full distributed pipeline."""
        from repro.data.generators import banded
        from repro.sparse import multiply
        from repro.summa import batched_summa3d

        m = banded(36, bandwidth=2)
        r = batched_summa3d(m, m, nprocs=4, layers=1, batches=2)
        assert r.matrix.allclose(multiply(m, m))
