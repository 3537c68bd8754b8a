"""Tests for repro.generators — graph generators and the proxy corpus."""

import numpy as np
import pytest

from repro.generators import (
    GRAPH500_PARAMS,
    bter,
    chung_lu,
    corpus_names,
    corpus_spec,
    grid2d,
    load_corpus_matrix,
    powerlaw_degree_sequence,
    preferential_attachment,
    rmat,
    rmat_edges,
    webgraph,
)
from repro.graphs import (
    degrees,
    graph_stats,
    is_structurally_symmetric,
    nonzeros_per_row,
)


class TestRmat:
    def test_deterministic(self):
        assert (rmat(8, 4, seed=5) != rmat(8, 4, seed=5)).nnz == 0

    def test_seed_changes_graph(self):
        assert (rmat(8, 4, seed=5) != rmat(8, 4, seed=6)).nnz > 0

    def test_shape_and_symmetry(self):
        A = rmat(9, 8, seed=1)
        assert A.shape == (512, 512)
        assert is_structurally_symmetric(A)
        assert A.diagonal().sum() == 0

    def test_edge_count_close_to_nominal(self):
        A = rmat(12, 8, seed=1)
        nominal = 2 * 8 * 4096
        assert 0.5 * nominal < A.nnz <= nominal

    def test_hubs_at_low_ids(self):
        A = rmat(11, 8, seed=2)
        d = nonzeros_per_row(A)
        n = A.shape[0]
        assert d[: n // 8].mean() > 3 * d[n // 2 :].mean()

    def test_graph500_params_sum_to_one(self):
        assert abs(sum(GRAPH500_PARAMS) - 1.0) < 1e-12

    def test_bad_params_raise(self):
        with pytest.raises(ValueError, match="sum to 1"):
            rmat_edges(4, 2, params=(0.5, 0.5, 0.5, 0.5))
        with pytest.raises(ValueError, match="scale"):
            rmat_edges(0, 2)

    def test_noise_variant_runs(self):
        A = rmat(8, 4, seed=1, noise=0.1)
        assert A.nnz > 0


class TestPowerlawSequence:
    def test_mean_and_cap(self):
        w = powerlaw_degree_sequence(5000, gamma=2.2, mean_degree=20, max_degree=500, seed=1)
        assert abs(w.mean() - 20) / 20 < 0.35  # capping pulls the mean a bit
        assert w.max() <= 500
        assert (np.diff(w) <= 0).all()  # descending: hubs first

    def test_validation(self):
        with pytest.raises(ValueError, match="> 1"):
            powerlaw_degree_sequence(10, gamma=1.0, mean_degree=2)
        with pytest.raises(ValueError, match="positive"):
            powerlaw_degree_sequence(0, gamma=2.0, mean_degree=2)

    def test_capped_by_n(self):
        w = powerlaw_degree_sequence(50, gamma=1.5, mean_degree=10, seed=2)
        assert w.max() <= 49


class TestChungLu:
    def test_realized_degrees_track_weights(self):
        w = powerlaw_degree_sequence(3000, gamma=2.5, mean_degree=14, max_degree=200, seed=1)
        A = chung_lu(w, seed=2)
        d = degrees(A)
        # hubs (first decile by weight) should have much higher realised degree
        assert d[:300].mean() > 2.5 * d[1500:].mean()

    def test_zero_weights_give_empty(self):
        A = chung_lu(np.zeros(10))
        assert A.nnz == 0 and A.shape == (10, 10)

    def test_negative_weights_raise(self):
        with pytest.raises(ValueError, match="non-negative"):
            chung_lu(np.array([1.0, -2.0]))

    def test_deterministic(self):
        w = np.full(200, 6.0)
        assert (chung_lu(w, seed=3) != chung_lu(w, seed=3)).nnz == 0


class TestPreferentialAttachment:
    def test_structure(self):
        A = preferential_attachment(400, m=3, seed=1)
        assert A.shape == (400, 400)
        assert is_structurally_symmetric(A)
        # every non-seed vertex connects to >= m earlier vertices
        assert nonzeros_per_row(A).min() >= 3

    def test_edge_count(self):
        A = preferential_attachment(500, m=4, seed=2)
        expected = 2 * (10 + (500 - 5) * 4)  # seed clique C(5,2)=10 + m per vertex
        assert A.nnz == expected

    def test_validation(self):
        with pytest.raises(ValueError, match="m must be"):
            preferential_attachment(10, m=0)
        with pytest.raises(ValueError, match="n > m"):
            preferential_attachment(3, m=5)

    def test_heavy_tail(self):
        A = preferential_attachment(3000, m=4, seed=3)
        assert graph_stats(A).skew > 5


def _clustering_estimate(A, rng, samples=300):
    """Monte-Carlo mean local clustering coefficient."""
    deg = nonzeros_per_row(A)
    eligible = np.flatnonzero(deg >= 2)
    cs = []
    for v in rng.choice(eligible, size=min(samples, len(eligible)), replace=False):
        nbrs = A.indices[A.indptr[v]: A.indptr[v + 1]]
        sub = A[np.ix_(nbrs, nbrs)]
        k = len(nbrs)
        cs.append(sub.nnz / (k * (k - 1)))
    return float(np.mean(cs))


class TestBter:
    def test_shape_and_symmetry(self):
        A = bter(2000, gamma=1.9, mean_degree=10, max_degree=300, seed=1)
        assert A.shape == (2000, 2000)
        assert is_structurally_symmetric(A)

    def test_more_clustered_than_chunglu(self, rng):
        A = bter(3000, gamma=2.0, mean_degree=14, max_degree=400, seed=2)
        w = powerlaw_degree_sequence(3000, gamma=2.0, mean_degree=14, max_degree=400, seed=2)
        B = chung_lu(w, seed=3)
        assert _clustering_estimate(A, rng) > 2 * _clustering_estimate(B, rng)

    def test_deterministic(self):
        assert (bter(800, seed=9) != bter(800, seed=9)).nnz == 0


class TestWebgraph:
    def test_locality(self):
        """Most edges stay within a small id window (host locality)."""
        A = webgraph(4000, mean_degree=12, intra_fraction=0.85, seed=1).tocoo()
        near = np.abs(A.row - A.col) < 600  # max host size for default params
        assert near.mean() > 0.5
        # and a random graph of the same size has almost no such locality
        B = rmat(12, 3, seed=1).tocoo()
        assert near.mean() > 2 * (np.abs(B.row - B.col) < 600).mean()

    def test_hubs_exist(self):
        A = webgraph(4000, mean_degree=10, hub_fraction=0.002, hub_degree=800, seed=2)
        assert nonzeros_per_row(A).max() > 400

    def test_validation(self):
        with pytest.raises(ValueError, match="intra_fraction"):
            webgraph(100, intra_fraction=1.5)

    def test_deterministic(self):
        assert (webgraph(1000, seed=4) != webgraph(1000, seed=4)).nnz == 0


class TestMeshes:
    def test_grid2d_structure(self):
        A = grid2d(5, 7)
        assert A.shape == (35, 35)
        assert A.nnz == 2 * (4 * 7 + 5 * 6)
        d = nonzeros_per_row(A)
        assert d.max() == 4 and d.min() == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            grid2d(0, 3)


class TestCorpus:
    def test_ten_matrices_in_paper_order(self):
        names = corpus_names()
        assert len(names) == 10
        assert names[0] == "hollywood-2009"
        assert names[-1] == "rmat_26"

    def test_specs_record_paper_stats(self):
        spec = corpus_spec("uk-2005")
        # the paper used HP for uk-2005 only because ParMETIS could not
        # handle 39.5M rows; the tractable proxy uses GP (see corpus.py)
        assert spec.partitioner == "gp"
        assert spec.paper_nnz == 1_600_000_000
        assert corpus_spec("rmat_24").partitioner == "hp"

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="valid"):
            corpus_spec("not-a-matrix")

    @pytest.mark.parametrize("name", ["cit-Patents", "rmat_22", "bter"])
    def test_proxies_are_scale_free_and_symmetric(self, name):
        A = load_corpus_matrix(name)
        assert is_structurally_symmetric(A)
        assert A.diagonal().sum() == 0
        assert graph_stats(A).skew > 5  # heavy tail

    def test_cache_returns_same_object(self):
        assert load_corpus_matrix("rmat_22") is load_corpus_matrix("rmat_22")
