"""Tests for repro.partitioning.coarsen — matching and contraction."""

import numpy as np
import pytest

from repro.generators import grid2d, rmat
from repro.graphs import from_edges
from repro.partitioning import PartGraph, partition_matrix
from repro.partitioning.coarsen import (
    _contract_reference,
    _handshake_matching_reference,
    _two_hop_matching,
    coarsen_level,
    coarsen_to,
    contract,
    handshake_matching,
)

from tests.oracles import reference_kernels


def _star(nleaves: int) -> PartGraph:
    """Hub 0 with nleaves leaves — the scale-free worst case for matching."""
    r = np.zeros(nleaves, dtype=np.int64)
    c = np.arange(1, nleaves + 1, dtype=np.int64)
    A = from_edges(r, c, (nleaves + 1, nleaves + 1), symmetrize=True)
    return PartGraph.from_matrix(A, "unit")


def _check_matching(g: PartGraph, match: np.ndarray) -> None:
    """A matching must be an involution with distinct pairs."""
    assert len(match) == g.n
    for v in range(g.n):
        assert match[match[v]] == v  # involution


class TestHandshakeMatching:
    def test_involution_on_grid(self, rng):
        g = PartGraph.from_matrix(grid2d(10, 10), "unit")
        match = handshake_matching(g, rng)
        _check_matching(g, match)
        matched = (match != np.arange(g.n)).sum()
        assert matched >= 0.6 * g.n  # grids match well

    def test_star_graph_two_hop(self, rng):
        """Direct matching can pair at most hub+1 leaf; two-hop pairs the rest."""
        g = _star(64)
        match = handshake_matching(g, rng)
        _check_matching(g, match)
        matched = (match != np.arange(g.n)).sum()
        assert matched >= 0.9 * g.n  # two-hop pairs leaves with each other

    def test_weight_cap_respected(self, rng):
        g = PartGraph.from_matrix(grid2d(6, 6), "unit")
        cap = np.array([1.5])  # combined weight 2 > 1.5: nothing may match
        match = handshake_matching(g, rng, max_vertex_weight=cap)
        assert (match == np.arange(g.n)).all()

    def test_deterministic_given_rng_seed(self):
        g = PartGraph.from_matrix(rmat(8, 4, seed=1), "unit")
        m1 = handshake_matching(g, np.random.default_rng(5))
        m2 = handshake_matching(g, np.random.default_rng(5))
        assert np.array_equal(m1, m2)


class TestTwoHopMatching:
    def _run(self, g, max_vertex_weight=None):
        """Drive _two_hop_matching with every vertex still unmatched."""
        match = np.arange(g.n, dtype=np.int64)
        unmatched = np.ones(g.n, dtype=bool)
        jitter = np.zeros(len(g.adjncy))
        _two_hop_matching(g, match, unmatched, jitter, max_vertex_weight)
        _check_matching(g, match)
        return match, unmatched

    def test_isolated_vertices_pair_on_sentinel_anchor(self):
        """Edgeless vertices share anchor -1 and are merged with each other."""
        import scipy.sparse as sp

        A = sp.block_diag(
            [grid2d(2, 2), sp.csr_matrix((4, 4))], format="csr"
        )  # vertices 4..7 are isolated
        g = PartGraph.from_matrix(A, "unit")
        match, unmatched = self._run(g)
        isolated = np.arange(4, 8)
        # all isolated vertices got paired, and only with each other
        assert not unmatched[isolated].any()
        assert (match[isolated] != isolated).all()
        assert set(match[isolated]) <= set(isolated)

    def test_odd_anchor_group_leaves_one_unmatched(self):
        """A 3-leaf hub group pairs floor(3/2) couples; one leaf stays."""
        g = _star(3)
        match = np.arange(g.n, dtype=np.int64)
        unmatched = np.ones(g.n, dtype=bool)
        unmatched[0] = False  # hub already matched elsewhere
        match_before = match.copy()
        jitter = np.zeros(len(g.adjncy))
        _two_hop_matching(g, match, unmatched, jitter, None)
        _check_matching(g, match)
        leaves = np.arange(1, 4)
        assert unmatched[leaves].sum() == 1  # odd one out
        assert (match != match_before).sum() == 2  # exactly one new pair
        assert not unmatched[0]  # hub flag untouched

    def test_max_vertex_weight_rejects_heavy_pairs(self):
        g = _star(4)  # leaves have unit weight -> combined weight 2
        _, unmatched_capped = self._run(g, max_vertex_weight=np.array([1.5]))
        assert unmatched_capped.all()  # cap below any pair: nothing matches
        _, unmatched_free = self._run(g, max_vertex_weight=np.array([2.5]))
        assert not unmatched_free.all()  # with room, leaf pairs form

    def test_fewer_than_two_unmatched_is_noop(self):
        g = _star(2)
        match = np.arange(g.n, dtype=np.int64)
        unmatched = np.zeros(g.n, dtype=bool)
        unmatched[1] = True  # a single leftover vertex
        _two_hop_matching(g, match, unmatched, np.zeros(len(g.adjncy)), None)
        assert (match == np.arange(g.n)).all()
        assert unmatched[1]


class TestContract:
    def test_preserves_total_vertex_weight(self, rng, small_rmat):
        g = PartGraph.from_matrix(small_rmat, "nnz")
        match = handshake_matching(g, rng)
        gc, cmap = contract(g, match)
        assert np.allclose(gc.total_weight(), g.total_weight())
        assert cmap.max() == gc.n - 1

    def test_preserves_cut_under_projection(self, rng, small_grid):
        """Any coarse partition's cut equals the projected fine cut."""
        g = PartGraph.from_matrix(small_grid, "unit")
        gc, cmap = coarsen_level(g, rng)
        coarse_part = np.random.default_rng(1).integers(0, 2, gc.n)
        fine_part = coarse_part[cmap]
        assert np.isclose(gc.edgecut(coarse_part), g.edgecut(fine_part))

    def test_matched_pair_merges(self):
        g = _star(3)
        match = np.array([0, 2, 1, 3])  # leaves 1,2 matched
        gc, cmap = contract(g, match)
        assert gc.n == 3
        assert cmap[1] == cmap[2]
        # merged leaf pair connects to hub with weight 2
        hub_c = cmap[0]
        pair_c = cmap[1]
        W = gc.adjacency_matrix()
        assert W[hub_c, pair_c] == 2.0

    def test_vertex_weights_match_add_at(self, rng, small_rmat):
        """The bincount aggregation is bit-identical to np.add.at."""
        g = PartGraph.from_matrix(small_rmat, ("unit", "nnz"))
        match = handshake_matching(g, rng)
        gc, cmap = contract(g, match)
        expect = np.zeros((gc.n, g.ncon))
        np.add.at(expect, cmap, g.vwgt)
        assert np.array_equal(gc.vwgt, expect)


class TestCoarsenTo:
    def test_reaches_target_or_stalls(self, rng, small_rmat):
        g = PartGraph.from_matrix(small_rmat, "nnz")
        levels = coarsen_to(g, 100, rng)
        sizes = [lv[0].n for lv in levels]
        assert sizes[0] == g.n
        assert all(a > b for a, b in zip(sizes, sizes[1:]))  # strictly shrinking
        assert sizes[-1] <= max(100, int(sizes[-2] * 0.95)) or len(sizes) == 1

    def test_weight_conserved_through_stack(self, rng, small_powerlaw):
        g = PartGraph.from_matrix(small_powerlaw, "nnz")
        levels = coarsen_to(g, 50, rng)
        for gc, _ in levels:
            assert np.allclose(gc.total_weight(), g.total_weight())

    def test_scale_free_shrinks_geometrically(self, rng, small_rmat):
        """The two-hop rule must keep shrink rates healthy on power laws."""
        g = PartGraph.from_matrix(small_rmat, "nnz")
        levels = coarsen_to(g, 100, rng)
        assert levels[-1][0].n < 0.25 * g.n


def _graphs_equal(a: PartGraph, b: PartGraph) -> bool:
    return (
        np.array_equal(a.xadj, b.xadj)
        and np.array_equal(a.adjncy, b.adjncy)
        and np.array_equal(a.adjwgt, b.adjwgt)
        and np.array_equal(a.vwgt, b.vwgt)
    )


class TestCoarsenKernels:
    """The vector kernels must replay the reference oracles bit for bit."""

    def _cases(self):
        """(graph, cap) pairs covering every kernel branch: unmasked keys
        with round-one argmax reuse, a binding weight cap (masked keys +
        compacted two-hop argmax), and the star-graph stall."""
        grid = PartGraph.from_matrix(grid2d(12, 12), "unit")
        power = PartGraph.from_matrix(rmat(9, 6, seed=3), "nnz")
        yield grid, None
        yield grid, grid.total_weight() * 0.25
        yield power, power.total_weight() * 0.25
        yield power, np.array([3.0])  # binds: exercises the cap-mask path
        yield _star(40), None

    def test_matching_bit_identical(self):
        for g, cap in self._cases():
            vec = handshake_matching(
                g, np.random.default_rng(7), max_vertex_weight=cap
            )
            ref = _handshake_matching_reference(
                g, np.random.default_rng(7), max_vertex_weight=cap
            )
            assert np.array_equal(ref, vec)

    def test_contract_bit_identical(self):
        for g, cap in self._cases():
            match = handshake_matching(
                g, np.random.default_rng(1), max_vertex_weight=cap
            )
            assert g.exactly_summable_weights()  # contract runs the vector form
            ref_g, ref_c = _contract_reference(g, match)
            vec_g, vec_c = contract(g, match)
            assert np.array_equal(ref_c, vec_c)
            assert _graphs_equal(ref_g, vec_g)

    def test_coarsen_to_stack_bit_identical(self, small_rmat):
        g = PartGraph.from_matrix(small_rmat, "nnz")
        vec = coarsen_to(g, 50, np.random.default_rng(0))
        with reference_kernels():
            ref = coarsen_to(g, 50, np.random.default_rng(0))
        assert len(ref) == len(vec) > 1
        for (gr, cr), (gv, cv) in zip(ref, vec):
            assert _graphs_equal(gr, gv)
            assert (cr is None and cv is None) or np.array_equal(cr, cv)

    @pytest.mark.parametrize(
        "method,make",
        [
            pytest.param("gp", None, id="gp"),
            pytest.param("gp-mc", None, id="gp-mc"),
            pytest.param("hp", None, id="hp"),
            pytest.param("gp", lambda: rmat(11, 6, seed=2), id="gp-rmat11"),
        ],
    )
    def test_kway_partition_bit_identical(self, small_rmat, method, make):
        """Every stage on its oracle at once — matching, contraction and
        FM — reproduces the production k-way partition."""
        A = small_rmat if make is None else make()
        vec = partition_matrix(A, 4, method=method, seed=0).part
        with reference_kernels():
            ref = partition_matrix(A, 4, method=method, seed=0).part
        assert np.array_equal(ref, vec)

    @pytest.mark.parametrize("name,method", [("hollywood-2009", "gp"), ("rmat_22", "hp")])
    def test_kway_partition_bit_identical_on_corpus(self, name, method):
        """The same identity at corpus scale: hollywood-2009's graph is past
        ``refine._MIRROR_SLOTS``, so graph FM takes its large-graph path on
        a real input, and rmat_22 runs the hypergraph path."""
        from repro.generators.corpus import load_corpus_matrix

        A = load_corpus_matrix(name)
        vec = partition_matrix(A, 8, method=method, seed=0).part
        with reference_kernels():
            ref = partition_matrix(A, 8, method=method, seed=0).part
        assert np.array_equal(ref, vec)

    def test_contract_falls_back_on_inexact_weights(self, rng):
        """Fractional edge weights void the exact-sum guarantee; ``contract``
        must route to the triple-product form, not diverge."""
        W = grid2d(6, 6).astype(np.float64)
        W.data[:] = 0.1  # 0.1 is not exactly representable
        g = PartGraph.from_scipy(W)
        assert not g.exactly_summable_weights()
        match = handshake_matching(g, np.random.default_rng(2))
        ref_g, ref_c = _contract_reference(g, match)
        got_g, got_c = contract(g, match)
        assert np.array_equal(ref_c, got_c)
        assert _graphs_equal(ref_g, got_g)


class TestCoarseningStalls:
    """Early-stop paths: a stalled matching must terminate the level loop."""

    def test_min_shrink_early_stop(self):
        """A cap below any pair's combined weight blocks all matching, so
        the first level does not shrink and coarsen_to returns only the
        input graph."""
        g = PartGraph.from_matrix(grid2d(8, 8), "unit")
        levels = coarsen_to(
            g, 4, np.random.default_rng(0), max_weight_fraction=0.02
        )  # cap = 64 * 0.02 = 1.28 < 2
        assert len(levels) == 1
        assert levels[0][0] is g and levels[0][1] is None

    def test_hub_matching_blocked_on_star(self):
        """With nnz weights a star hub exceeds the cap against any leaf;
        two-hop pairing must still collapse the leaves — identically in
        both kernels."""
        nleaves = 33
        r = np.zeros(nleaves, dtype=np.int64)
        c = np.arange(1, nleaves + 1, dtype=np.int64)
        A = from_edges(r, c, (nleaves + 1, nleaves + 1), symmetrize=True)
        g = PartGraph.from_matrix(A, "nnz")  # hub weight 33, leaves 1
        cap = np.array([4.0])
        match = handshake_matching(g, np.random.default_rng(0), max_vertex_weight=cap)
        ref = _handshake_matching_reference(
            g, np.random.default_rng(0), max_vertex_weight=cap
        )
        assert np.array_equal(ref, match)
        _check_matching(g, match)
        assert match[0] == 0  # hub stays single: every pairing busts the cap
        leaves = np.arange(1, nleaves + 1)
        paired = (match[leaves] != leaves).sum()
        assert paired >= nleaves - 1  # odd leaf count: at most one left over
