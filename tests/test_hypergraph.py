"""Tests for the hypergraph model and its partitioner."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graphs import from_edges
from repro.graphs.csr import as_csr
from repro.partitioning import Hypergraph, PartGraph, hypergraph_recursive_bisection
from repro.partitioning.bisect import multilevel_bisect
from repro.partitioning.coarsen import coarsen_to, handshake_matching
from repro.partitioning.hcoarsen import (
    _hcontract_reference,
    hcoarsen_level,
    hcontract,
    similarity_graph,
)
from repro.partitioning.hrefine import fm_refine_hypergraph
from repro.partitioning.refine import balance_allowance

from tests.oracles import reference_kernels


@pytest.fixture
def tiny_hg(tiny_matrix) -> Hypergraph:
    return Hypergraph.from_matrix_column_net(tiny_matrix)


class TestColumnNetModel:
    def test_net_contains_column_pattern_plus_self(self, tiny_matrix):
        hg = Hypergraph.from_matrix_column_net(tiny_matrix)
        assert hg.nnets == hg.n == tiny_matrix.shape[0]
        A = tiny_matrix.tocsc()
        for j in range(hg.nnets):
            col_rows = set(A.indices[A.indptr[j]: A.indptr[j + 1]].tolist())
            assert set(hg.pins(j).tolist()) == col_rows | {j}

    def test_rectangular_raises(self):
        with pytest.raises(ValueError, match="square"):
            Hypergraph.from_matrix_column_net(from_edges([0], [1], (2, 3)))

    def test_transpose_consistency(self, tiny_hg):
        for v in range(tiny_hg.n):
            for e in tiny_hg.nets_of(v):
                assert v in tiny_hg.pins(e)


class TestCutMetrics:
    def test_connectivity_brute_force(self, tiny_hg, rng):
        part = rng.integers(0, 3, tiny_hg.n)
        lam = tiny_hg.connectivity(part, 3)
        for e in range(tiny_hg.nnets):
            assert lam[e] == len(set(part[tiny_hg.pins(e)].tolist()))

    def test_connectivity_minus_one_is_expand_volume(self, tiny_hg):
        """For a single part, the cut is zero."""
        assert tiny_hg.cut_connectivity_minus_one(np.zeros(tiny_hg.n, dtype=int), 1) == 0.0

    def test_cut_nets_counts_spanning_nets(self, tiny_hg, rng):
        part = rng.integers(0, 2, tiny_hg.n)
        lam = tiny_hg.connectivity(part, 2)
        assert tiny_hg.cut_nets(part, 2) == (lam > 1).sum()

    def test_part_weights(self, tiny_hg):
        part = np.array([0, 0, 1, 1, 1, 0])
        pw = tiny_hg.part_weights(part, 2)
        assert np.isclose(pw.sum(), tiny_hg.total_weight()[0])


class TestInduced:
    def test_small_nets_dropped(self, tiny_hg):
        sub = tiny_hg.induced(np.array([0, 1]))
        assert sub.n == 2
        assert (np.diff(sub.H.indptr) >= 2).all()


class TestCoarsening:
    def test_similarity_excludes_huge_nets(self, small_rmat):
        hg = Hypergraph.from_matrix_column_net(small_rmat)
        sim = similarity_graph(hg, max_net_size=10)
        # similarity fill must stay well below the quadratic hub blowup
        assert sim.xadj[-1] < 40 * hg.n

    def test_contract_preserves_weight(self, tiny_hg):
        match = np.array([1, 0, 3, 2, 4, 5])
        hgc, cmap = hcontract(tiny_hg, match)
        assert np.isclose(hgc.total_weight()[0], tiny_hg.total_weight()[0])
        assert hgc.n == 4
        assert cmap[0] == cmap[1]


def _similarity_graph_diags(hg: Hypergraph, max_net_size: int = 50) -> PartGraph:
    """The seed similarity graph: scaled incidence via ``diags(scale) @ Hs``."""
    sizes = hg.net_sizes()
    keep = (sizes >= 2) & (sizes <= max_net_size)
    Hs = hg.H[keep]
    w = 1.0 / np.maximum(sizes[keep] - 1, 1)
    scale = np.sqrt(w * hg.netwgt[keep])
    Hw = sp.diags(scale) @ Hs
    S = as_csr(Hw.T @ Hw)
    S.setdiag(0.0)
    S.eliminate_zeros()
    return PartGraph.from_scipy(S, hg.vwgt)


class TestHcoarsenKernels:
    """Vector and reference hypergraph stages must be bit-identical."""

    @pytest.mark.parametrize("max_net_size", [50, 4])
    def test_similarity_graph_bit_identical(self, small_rmat, max_net_size):
        """At 4 most vertices sit in no kept net and have no diagonal entry
        in the product, the case ``setdiag`` had to insert for."""
        hg = Hypergraph.from_matrix_column_net(small_rmat)
        ref = _similarity_graph_diags(hg, max_net_size)
        vec = similarity_graph(hg, max_net_size)
        assert 0 < len(vec.adjncy)
        assert np.array_equal(ref.xadj, vec.xadj)
        assert np.array_equal(ref.adjncy, vec.adjncy)
        assert np.array_equal(ref.adjwgt, vec.adjwgt)

    def test_hcontract_bit_identical(self, small_rmat):
        hg = Hypergraph.from_matrix_column_net(small_rmat)
        sim = similarity_graph(hg)
        match = handshake_matching(sim, np.random.default_rng(0))
        ref, ref_c = _hcontract_reference(hg, match)
        vec, vec_c = hcontract(hg, match)
        assert np.array_equal(ref_c, vec_c)
        assert np.array_equal(ref.H.indptr, vec.H.indptr)
        assert np.array_equal(ref.H.indices, vec.H.indices)
        assert np.array_equal(ref.H.data, vec.H.data)
        assert np.array_equal(ref.vwgt, vec.vwgt)
        assert np.array_equal(ref.netwgt, vec.netwgt)

    def test_hypergraph_coarsen_stack_bit_identical(self, small_powerlaw):
        hg = Hypergraph.from_matrix_column_net(small_powerlaw)
        vec = coarsen_to(hg, 20, np.random.default_rng(0), level=hcoarsen_level)
        with reference_kernels():
            ref = coarsen_to(hg, 20, np.random.default_rng(0), level=hcoarsen_level)
        assert len(ref) == len(vec) > 1
        for (hr, cr), (hv, cv) in zip(ref, vec):
            assert np.array_equal(hr.H.indptr, hv.H.indptr)
            assert np.array_equal(hr.H.indices, hv.H.indices)
            assert np.array_equal(hr.vwgt, hv.vwgt)
            assert (cr is None and cv is None) or np.array_equal(cr, cv)

    def test_coarse_vwgt_bincount_matches_add_at(self, small_rmat):
        """The coarse vertex weights hcontract builds with the bincount
        histogram are bit-identical to an np.add.at accumulation over the
        coarse map (both sum in vertex order)."""
        hg = Hypergraph.from_matrix_column_net(small_rmat)
        sim = similarity_graph(hg)
        match = handshake_matching(sim, np.random.default_rng(1))
        hc, cmap = hcontract(hg, match)
        expect = np.zeros((hc.n, hg.ncon))
        np.add.at(expect, cmap, hg.vwgt)
        assert np.array_equal(hc.vwgt, expect)

    @pytest.mark.parametrize("vw", ["nnz", ("unit", "nnz")])
    def test_part_weights_bincount_matches_add_at(self, small_rmat, vw):
        """Same vertex-order argument for the per-part histogram that FM
        seeding, candidate scoring and the metrics all read."""
        hg = Hypergraph.from_matrix_column_net(small_rmat, vw)
        part = np.random.default_rng(4).integers(0, 5, hg.n)
        expect = np.zeros((6, hg.ncon))  # part 5 stays empty
        np.add.at(expect, part, hg.vwgt)
        assert np.array_equal(hg.part_weights(part, 6), expect)

    def test_empty_similarity_graph_stalls_coarsening(self):
        """All-singleton nets leave no usable similarity edges: the
        similarity graph is empty and coarsening stops at level 0."""
        hg = Hypergraph.from_matrix_column_net(sp.identity(8, format="csr"))
        assert similarity_graph(hg).xadj[-1] == 0
        assert len(coarsen_to(hg, 2, np.random.default_rng(0), level=hcoarsen_level)) == 1
        with reference_kernels():
            assert len(coarsen_to(hg, 2, np.random.default_rng(0), level=hcoarsen_level)) == 1


class TestHypergraphFM:
    def test_improves_random_bisection(self, small_powerlaw):
        hg = Hypergraph.from_matrix_column_net(small_powerlaw)
        rng = np.random.default_rng(0)
        part = rng.integers(0, 2, hg.n)
        before = hg.cut_connectivity_minus_one(part, 2)
        refined = fm_refine_hypergraph(hg, part, passes=3)
        assert hg.cut_connectivity_minus_one(refined, 2) < before

    def test_allowance_shape(self, tiny_hg):
        allow = balance_allowance(tiny_hg, (0.5, 0.5), 1.05)
        assert allow.shape == (2, tiny_hg.ncon)


class TestHypergraphKway:
    def test_bisection_beats_random_on_grid(self, small_grid):
        hg = Hypergraph.from_matrix_column_net(small_grid)
        part = multilevel_bisect(hg, seed=0)
        rnd = np.random.default_rng(0).integers(0, 2, hg.n)
        assert hg.cut_connectivity_minus_one(part, 2) < 0.3 * hg.cut_connectivity_minus_one(rnd, 2)

    def test_bisection_rejects_fractions_not_summing_to_one(self, small_grid):
        hg = Hypergraph.from_matrix_column_net(small_grid)
        with pytest.raises(ValueError, match="sum to 1"):
            multilevel_bisect(hg, (0.5, 0.6))

    @pytest.mark.parametrize("k", [2, 4])
    def test_kway_valid(self, small_powerlaw, k):
        hg = Hypergraph.from_matrix_column_net(small_powerlaw)
        part = hypergraph_recursive_bisection(hg, k, seed=0)
        assert part.min() >= 0 and part.max() <= k - 1
        assert len(np.unique(part)) == k

    def test_kway_deterministic(self, small_powerlaw):
        hg = Hypergraph.from_matrix_column_net(small_powerlaw)
        p1 = hypergraph_recursive_bisection(hg, 4, seed=7)
        p2 = hypergraph_recursive_bisection(hg, 4, seed=7)
        assert np.array_equal(p1, p2)

    def test_invalid_nparts(self, small_powerlaw):
        hg = Hypergraph.from_matrix_column_net(small_powerlaw)
        with pytest.raises(ValueError, match="nparts"):
            hypergraph_recursive_bisection(hg, 0)
