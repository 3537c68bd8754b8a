"""Tests for the vectorised refinement kernels and the phase profiler.

The vector FM kernel, the incremental-gain hypergraph FM pass, the batched
hypergraph gain computation and the vectorised BFS region growers all
claim *bit identity* with the scalar reference implementations they
replaced — these tests hold them to it on scale-free, mesh, degenerate
(star, edgeless, disconnected) and generated inputs.
"""

from collections import deque
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.generators import bter, grid2d, rmat
from repro.graphs import from_edges
from repro.partitioning import PartGraph, hrefine, partition_matrix
from repro.partitioning._util import gather_slices
from repro.partitioning.hrefine import (
    _compute_gain,
    _compute_gain_many,
    fm_refine_hypergraph,
)
from repro.partitioning.hypergraph import Hypergraph
from repro.partitioning.bisect import _edge_neighbours, _pin_neighbours
from repro.partitioning.initial import greedy_growing
from repro.partitioning import refine
from repro.partitioning.refine import balance_allowance, fm_refine

from tests.oracles import reference_kernels


def fm_refine_reference(*args, **kwargs) -> np.ndarray:
    """``fm_refine`` with every pass run by ``_fm_pass_reference``."""
    with reference_kernels():
        return fm_refine(*args, **kwargs)


def _star(nleaves: int, vw="nnz") -> PartGraph:
    r = np.zeros(nleaves, dtype=np.int64)
    c = np.arange(1, nleaves + 1, dtype=np.int64)
    A = from_edges(r, c, (nleaves + 1, nleaves + 1), symmetrize=True)
    return PartGraph.from_matrix(A, vw)


class TestKernelIdentity:
    """vector and reference FM kernels replay the same move sequence."""

    @pytest.mark.parametrize("vw", ["nnz", ("unit", "nnz")])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_rmat_bit_identical(self, small_rmat, vw, seed):
        g = PartGraph.from_matrix(small_rmat, vertex_weights=vw)
        part0 = (np.random.default_rng(seed).random(g.n) < 0.5).astype(np.int64)
        a = fm_refine(g, part0)
        b = fm_refine_reference(g, part0)
        assert np.array_equal(a, b)

    def test_grid_uneven_targets(self, small_grid):
        g = PartGraph.from_matrix(small_grid, "unit")
        part0 = (np.arange(g.n) % 2).astype(np.int64)
        a = fm_refine(g, part0, (0.4, 0.6), 1.02)
        b = fm_refine_reference(g, part0, (0.4, 0.6), 1.02)
        assert np.array_equal(a, b)

    def test_star_hub_path(self):
        """A 200-leaf hub exercises the fancy-indexed hub update tier."""
        g = _star(200)
        part0 = (np.arange(g.n) % 2).astype(np.int64)
        a = fm_refine(g, part0)
        b = fm_refine_reference(g, part0)
        assert np.array_equal(a, b)

    def test_kernel_parameter_is_gone(self):
        with pytest.raises(TypeError):
            fm_refine(_star(4), np.zeros(5, dtype=np.int64), kernel="vector")
        with pytest.raises(TypeError):
            fm_refine(_star(4), np.zeros(5, dtype=np.int64), rng=np.random.default_rng(0))

    def test_four_constraints_run_the_reference_pass(self):
        """Above three constraints ``_fm_pass`` routes to the per-vertex
        pass; the result is balanced and no worse than the input cut."""
        g = PartGraph.from_matrix(grid2d(12, 12), ("unit", "nnz", "unit", "nnz"))
        assert g.ncon == 4
        part0 = (np.arange(g.n) % 2).astype(np.int64)
        with mock.patch.object(
            refine, "_fm_pass_reference", wraps=refine._fm_pass_reference
        ) as spy:
            refined = fm_refine(g, part0)
        assert spy.called
        allow = balance_allowance(g, (0.5, 0.5), 1.05)
        assert (g.part_weights(refined, 2) <= allow + 1e-9).all()
        assert g.edgecut(refined) <= g.edgecut(part0)

    def test_mirror_threshold_paths_identical(self, small_rmat, monkeypatch):
        """Above _MIRROR_SLOTS the vector passes skip the full Python-list
        adjacency mirrors and slice-convert per move; both paths must make
        identical moves."""
        g = PartGraph.from_matrix(small_rmat, "nnz")
        part0 = (np.random.default_rng(3).random(g.n) < 0.5).astype(np.int64)
        with_mirrors = fm_refine(g, part0)
        monkeypatch.setattr(refine, "_MIRROR_SLOTS", 1)  # force the big-graph path
        g2 = PartGraph.from_matrix(small_rmat, "nnz")  # fresh memoized state
        without_mirrors = fm_refine(g2, part0)
        assert np.array_equal(with_mirrors, without_mirrors)


@st.composite
def _small_graphs(draw):
    """(graph, bisection) pairs with one to three balance constraints.

    Drawn edges may repeat (their weights add up) or be self loops (they
    are dropped); half the graphs add a hub joined to every other vertex,
    and the last vertex may end up isolated. Vertex and edge weights are
    small integers, or the same scaled by 0.37 so the edge cut is not
    exactly summable and every pass recomputes it. Bisections include the
    all-on-one-side and the one-vertex-out (unbalanced) starts.
    """
    n = draw(st.integers(2, 24))
    ncon = draw(st.integers(1, 3))
    scale = draw(st.sampled_from([1.0, 0.37]))
    vid = st.integers(0, n - 1)
    edges = [(u, v) for u, v in draw(st.lists(st.tuples(vid, vid), max_size=3 * n)) if u != v]
    if draw(st.booleans()):
        edges += [(0, u) for u in range(1, n)]
    w = draw(st.lists(st.integers(1, 4), min_size=len(edges), max_size=len(edges)))
    r = np.array([e[0] for e in edges], dtype=np.int64)
    c = np.array([e[1] for e in edges], dtype=np.int64)
    W = sp.csr_matrix((scale * np.asarray(w, float), (r, c)), shape=(n, n))
    vwgt = draw(st.lists(st.integers(1, 5), min_size=n * ncon, max_size=n * ncon))
    g = PartGraph.from_scipy(W + W.T, scale * np.asarray(vwgt, float).reshape(n, ncon))
    part = draw(
        st.one_of(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.sampled_from([[0] * n, [1] * n, [1] + [0] * (n - 1)]),
        )
    )
    return g, np.asarray(part, dtype=np.int64)


class TestGeneratedGraphFM:
    """The vector pass replays ``_fm_pass_reference`` on generated graphs,
    for every constraint count it serves and both neighbour-update tiers."""

    @settings(max_examples=200, deadline=None)
    @given(
        _small_graphs(),
        st.sampled_from([(0.5, 0.5), (0.3, 0.7), (0.8, 0.2)]),
        st.sampled_from([1.0, 1.03, 1.1, 1.5]),
        st.integers(1, 16),
        st.sampled_from([1, 3, 64]),
        st.sampled_from([1, 200_000]),
    )
    def test_generated_refinements_bit_identical(
        self, case, fracs, ub, hill_limit, hub_degree, mirror_slots
    ):
        g, part = case
        args = (g, part, fracs, ub)
        with mock.patch.object(refine, "_HUB_DEGREE", hub_degree), \
                mock.patch.object(refine, "_MIRROR_SLOTS", mirror_slots), \
                mock.patch.object(refine, "_fm_pass_vec", wraps=refine._fm_pass_vec) as spy:
            a = fm_refine(*args, hill_limit=hill_limit)
        assert spy.called == (g.n > 1)
        b = fm_refine_reference(*args, hill_limit=hill_limit)
        assert np.array_equal(a, b)


class TestFMRollback:
    """Hill climbing must roll every speculative move back when no prefix
    improves the (balance, cut) key."""

    @pytest.mark.parametrize("refiner", [fm_refine, fm_refine_reference])
    def test_optimal_cycle_bisection_unchanged(self, refiner):
        # even cycle split into two arcs: the 2-edge cut is optimal and
        # balanced, so the pass climbs hills and rolls everything back
        n = 40
        i = np.arange(n)
        A = from_edges(i, (i + 1) % n, (n, n), symmetrize=True)
        g = PartGraph.from_matrix(A, "unit")
        part0 = (i >= n // 2).astype(np.int64)
        refined = refiner(g, part0, passes=3, hill_limit=16)
        assert np.array_equal(refined, part0)

    @pytest.mark.parametrize("refiner", [fm_refine, fm_refine_reference])
    def test_rollback_restores_partial_prefix(self, refiner):
        # interleaved grid columns: many improving moves exist, the pass
        # keeps climbing past the optimum and must rewind to the best
        # prefix — the result may never be worse than the input on the
        # (balanced, cut) order
        g = PartGraph.from_matrix(grid2d(12, 12), "unit")
        part0 = (np.arange(g.n) % 2).astype(np.int64)
        allow = balance_allowance(g, (0.5, 0.5), 1.05)
        refined = refiner(g, part0, passes=1, hill_limit=64)
        sw = np.zeros((2, g.ncon))
        np.add.at(sw, refined, g.vwgt)
        assert (sw <= allow + 1e-9).all()
        assert g.edgecut(refined) < g.edgecut(part0)


class TestBalanceAllowanceShared:
    def test_one_rule_for_graphs_and_hypergraphs(self, small_rmat):
        """balance_allowance is duck-typed over both structures."""
        hg = Hypergraph.from_matrix_column_net(small_rmat, "nnz")
        g = PartGraph.from_matrix(small_rmat, "nnz")
        a = balance_allowance(hg, (0.4, 0.6), 1.03)
        assert a.shape == (2, 1)
        # same rule on both structures: widened by the heaviest vertex
        assert np.array_equal(
            balance_allowance(g, (0.5, 0.5), 1.05),
            np.maximum(
                1.05 * 0.5 * g.total_weight(),
                0.5 * g.total_weight() + g.vwgt.max(axis=0),
            )[None, :].repeat(2, axis=0),
        )


class TestGatherSlices:
    def test_matches_concatenate(self, small_rmat):
        g = PartGraph.from_matrix(small_rmat, "nnz")
        rows = np.array([5, 0, 17, 5, 3], dtype=np.int64)  # dup + unordered
        expect = np.concatenate(
            [g.adjncy[g.xadj[r] : g.xadj[r + 1]] for r in rows]
        )
        assert np.array_equal(gather_slices(g.xadj, g.adjncy, rows), expect)

    def test_empty_rows(self):
        indptr = np.array([0, 0, 2, 2], dtype=np.int64)
        indices = np.array([7, 9], dtype=np.int64)
        out = gather_slices(indptr, indices, np.array([0, 2], dtype=np.int64))
        assert len(out) == 0
        out = gather_slices(indptr, indices, np.array([0, 1, 2], dtype=np.int64))
        assert np.array_equal(out, [7, 9])


def _deque_graph_growing(g, target_frac, rng):
    """The former scalar implementation, kept as the test oracle."""
    n = g.n
    part = np.ones(n, dtype=np.int64)
    target = g.total_weight()[0] * target_frac
    grown = 0.0
    visited = np.zeros(n, dtype=bool)
    order = rng.permutation(n)
    oi = 0
    queue: deque[int] = deque()
    while grown < target and oi <= n:
        if not queue:
            while oi < n and visited[order[oi]]:
                oi += 1
            if oi >= n:
                break
            queue.append(int(order[oi]))
            visited[order[oi]] = True
        v = queue.popleft()
        part[v] = 0
        grown += g.vwgt[v, 0]
        for u in g.neighbors(v):
            if not visited[u]:
                visited[u] = True
                queue.append(int(u))
    return part


def _deque_net_growing(hg, target_frac, rng):
    """The former scalar net-BFS, kept as the test oracle."""
    n = hg.n
    part = np.ones(n, dtype=np.int64)
    target = hg.total_weight()[0] * target_frac
    grown = 0.0
    visited = np.zeros(n, dtype=bool)
    order = rng.permutation(n)
    oi = 0
    queue: deque[int] = deque()
    while grown < target:
        if not queue:
            while oi < n and visited[order[oi]]:
                oi += 1
            if oi >= n:
                break
            queue.append(int(order[oi]))
            visited[order[oi]] = True
        v = queue.popleft()
        part[v] = 0
        grown += hg.vwgt[v, 0]
        for e in hg.nets_of(v).tolist():
            for u in hg.pins(e).tolist():
                if not visited[u]:
                    visited[u] = True
                    queue.append(u)
    return part


class TestVectorisedGrowing:
    @pytest.mark.parametrize("tf", [0.0, 0.3, 0.5, 1.0])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_graph_growing_matches_deque(self, small_rmat, tf, seed):
        g = PartGraph.from_matrix(small_rmat, "nnz")
        a = _deque_graph_growing(g, tf, np.random.default_rng(seed))
        b = greedy_growing(g, tf, np.random.default_rng(seed), _edge_neighbours)
        assert np.array_equal(a, b)

    def test_graph_growing_disconnected(self):
        A = sp.block_diag([rmat(7, 4, seed=2), grid2d(8, 8)], format="csr")
        g = PartGraph.from_matrix(A, "nnz")
        for seed in range(4):
            a = _deque_graph_growing(g, 0.5, np.random.default_rng(seed))
            b = greedy_growing(g, 0.5, np.random.default_rng(seed), _edge_neighbours)
            assert np.array_equal(a, b)

    def test_graph_growing_edgeless(self):
        g = PartGraph.from_matrix(sp.csr_matrix((30, 30)), "unit")
        a = _deque_graph_growing(g, 0.5, np.random.default_rng(1))
        b = greedy_growing(g, 0.5, np.random.default_rng(1), _edge_neighbours)
        assert np.array_equal(a, b)
        assert (b == 0).sum() == 15

    @pytest.mark.parametrize("tf", [0.2, 0.5, 0.8])
    def test_net_growing_matches_deque(self, small_rmat, tf):
        hg = Hypergraph.from_matrix_column_net(small_rmat, "nnz")
        for seed in range(3):
            a = _deque_net_growing(hg, tf, np.random.default_rng(seed))
            b = greedy_growing(hg, tf, np.random.default_rng(seed), _pin_neighbours)
            assert np.array_equal(a, b)


class TestHypergraphGainBatch:
    def test_compute_gain_many_matches_scalar(self, small_rmat):
        hg = Hypergraph.from_matrix_column_net(small_rmat, "nnz")
        part = (np.random.default_rng(2).random(hg.n) < 0.5).astype(np.int64)
        counts = hg.net_part_counts(part, 2).toarray().astype(np.int64)
        vs = np.random.default_rng(3).choice(hg.n, size=64, replace=False)
        batch = _compute_gain_many(hg, part, counts, vs)
        for v, gb in zip(vs.tolist(), batch):
            assert gb == _compute_gain(hg, part, counts, v)

    def test_compute_gain_many_empty(self, small_rmat):
        hg = Hypergraph.from_matrix_column_net(small_rmat, "nnz")
        part = np.zeros(hg.n, dtype=np.int64)
        counts = hg.net_part_counts(part, 2).toarray().astype(np.int64)
        assert _compute_gain_many(hg, part, counts, np.array([], dtype=np.int64)) == []

    def test_refiner_improves_cut(self, small_rmat):
        hg = Hypergraph.from_matrix_column_net(small_rmat, "nnz")
        part0 = (np.random.default_rng(0).random(hg.n) < 0.5).astype(np.int64)
        refined = fm_refine_hypergraph(hg, part0)
        assert hg.cut_connectivity_minus_one(refined, 2) < hg.cut_connectivity_minus_one(part0, 2)


def fm_refine_hypergraph_reference(*args, **kwargs) -> np.ndarray:
    """``fm_refine_hypergraph`` with every pass run by ``_pass_reference``."""
    with reference_kernels():
        return fm_refine_hypergraph(*args, **kwargs)


@st.composite
def _small_hypergraphs(draw):
    """(hypergraph, bisection) pairs built around the shapes FM trips on.

    Beside the drawn nets every hypergraph carries a hub net over all
    connected vertices, a duplicate of its first net and a 2-pin net; drawn
    nets may be empty or single-pin, and the last vertex is in no net at all. Bisections include the all-on-one-side
    and the one-vertex-out (unbalanced) starts. Net weights are small
    integers, so the incremental pass is the one that runs.
    """
    n = draw(st.integers(3, 12))
    pin = st.integers(0, n - 2)
    nets = draw(st.lists(st.lists(pin, max_size=6), min_size=1, max_size=8))
    nets += [list(range(n - 1)), nets[0], [draw(pin), draw(pin)]]
    rows = np.repeat(np.arange(len(nets)), [len(e) for e in nets])
    cols = np.concatenate([np.asarray(e, dtype=np.int64) for e in nets])
    H = sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(len(nets), n))
    vwgt = np.asarray(draw(st.lists(st.integers(1, 4), min_size=n, max_size=n)), float)
    netwgt = np.asarray(
        draw(st.lists(st.integers(1, 5), min_size=len(nets), max_size=len(nets))), float
    )
    part = draw(
        st.one_of(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.sampled_from([[0] * n, [1] * n, [1] + [0] * (n - 1)]),
        )
    )
    return Hypergraph(H, vwgt[:, None], netwgt), np.asarray(part, dtype=np.int64)


class TestIncrementalHypergraphFM:
    """The array-resident pass replays ``_pass_reference`` move for move."""

    @settings(max_examples=150, deadline=None)
    @given(_small_hypergraphs(), st.randoms(use_true_random=False))
    def test_state_matches_recomputation_after_every_move(self, case, random):
        """After each applied move: ``counts`` equals ``net_part_counts``,
        ``gain[u]`` equals ``_compute_gain`` for every unlocked u, and the
        woken pins are the reference's net-order, pin-order scan."""
        hg, part = case
        P = hrefine._pins(hg)
        counts, gain = hrefine._seed(P, hg.netwgt, part, hg.n)
        unlocked = list(range(hg.n))
        random.shuffle(unlocked)
        while True:
            assert np.array_equal(counts.T, hg.net_part_counts(part, 2).toarray())
            for u in unlocked:
                assert gain[u] == _compute_gain(hg, part, counts.T, u)
            if not unlocked:
                break
            v = unlocked.pop()
            s = int(part[v])
            woken = hrefine._apply_move(P, hg.netwgt, part, counts, gain, v)
            assert part[v] == 1 - s
            expect = [
                hg.pins(e)
                for e in hg.nets_of(v)
                if counts[1 - s, e] == 1 or counts[s, e] <= 1
            ]
            assert np.array_equal(woken, np.concatenate(expect or [woken[:0]]))

    @settings(max_examples=150, deadline=None)
    @given(_small_hypergraphs(), st.sampled_from([1.0, 1.05, 1.5]), st.integers(1, 8))
    def test_generated_refinements_bit_identical(self, case, ub, hill_limit):
        hg, part = case
        args = (hg, part, (0.5, 0.5), ub)
        a = fm_refine_hypergraph(*args, hill_limit=hill_limit)
        b = fm_refine_hypergraph_reference(*args, hill_limit=hill_limit)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("start", ["random", "one-sided", "lopsided"])
    @pytest.mark.parametrize("fracs", [(0.5, 0.5), (0.3, 0.7)])
    def test_refinement_bit_identical(self, small_rmat, small_powerlaw, start, fracs):
        for A in (small_rmat, small_powerlaw):
            hg = Hypergraph.from_matrix_column_net(A, "nnz")
            part0 = {
                "random": np.random.default_rng(5).integers(0, 2, hg.n),
                "one-sided": np.zeros(hg.n, dtype=np.int64),
                "lopsided": (np.arange(hg.n) < hg.n // 10).astype(np.int64),
            }[start]
            a = fm_refine_hypergraph(hg, part0, fracs)
            b = fm_refine_hypergraph_reference(hg, part0, fracs)
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("nparts", [4, 16])
    @pytest.mark.parametrize(
        "make", [lambda: rmat(10, 8, seed=1), lambda: bter(1500, seed=4)], ids=["rmat", "bter"]
    )
    def test_hp_partition_bit_identical(self, make, nparts):
        """Whole pipeline: every pass of every bisection, both ways."""
        A = make()
        with mock.patch.object(
            hrefine, "_pass_incremental", wraps=hrefine._pass_incremental
        ) as spy:
            a = partition_matrix(A, nparts, method="hp", seed=0).part
        assert spy.called
        with reference_kernels():
            b = partition_matrix(A, nparts, method="hp", seed=0).part
        assert np.array_equal(a, b)

    def test_fractional_net_weights_take_the_reference_pass(self, small_rmat):
        """Sums of non-integer weights depend on their order, so the pass is
        picked from the input: the reference runs, and its result is a
        balanced bisection with a cut no worse than the start."""
        hg = Hypergraph.from_matrix_column_net(small_rmat, "nnz")
        hg = Hypergraph(hg.H, hg.vwgt, np.random.default_rng(0).uniform(0.5, 1.5, hg.nnets))
        part0 = np.random.default_rng(1).integers(0, 2, hg.n)
        with mock.patch.object(hrefine, "_pass_incremental") as incremental, \
                mock.patch.object(
                    hrefine, "_pass_reference", wraps=hrefine._pass_reference
                ) as reference:
            refined = fm_refine_hypergraph(hg, part0)
        assert reference.called and not incremental.called
        assert set(np.unique(refined)) <= {0, 1}
        allow = balance_allowance(hg, (0.5, 0.5), 1.05)
        assert (hg.part_weights(refined, 2) <= allow + 1e-9).all()
        assert hg.cut_connectivity_minus_one(refined, 2) <= hg.cut_connectivity_minus_one(part0, 2)

    def test_two_constraints_take_the_reference_pass(self, small_rmat):
        hg = Hypergraph.from_matrix_column_net(small_rmat, ("unit", "nnz"))
        part0 = np.random.default_rng(1).integers(0, 2, hg.n)
        with mock.patch.object(hrefine, "_pass_incremental") as incremental:
            refined = fm_refine_hypergraph(hg, part0)
        assert not incremental.called
        assert hg.cut_connectivity_minus_one(refined, 2) < hg.cut_connectivity_minus_one(part0, 2)


class TestPhaseProfiler:
    def test_disabled_returns_null(self):
        assert perf.active_profiler() is None
        cm = perf.phase("anything")
        with cm:
            pass  # no-op context manager, no profiler active

    def test_nested_aggregation(self):
        with perf.profile() as prof:
            with perf.phase("outer"):
                for _ in range(3):
                    with perf.phase("inner"):
                        pass
            with perf.phase("outer"):
                pass
        assert prof.stats[("outer",)].calls == 2
        assert prof.stats[("outer", "inner")].calls == 3
        d = prof.as_dict()
        assert d["outer"]["calls"] == 2
        assert d["outer/inner"]["calls"] == 3
        assert prof.total_seconds() == pytest.approx(
            prof.stats[("outer",)].seconds
        )

    def test_report_orders_parent_first(self):
        with perf.profile() as prof:
            with perf.phase("a"):
                with perf.phase("b"):
                    pass
        lines = prof.report().splitlines()
        ia = next(i for i, line in enumerate(lines) if line.startswith("a"))
        ib = next(i for i, line in enumerate(lines) if line.strip().startswith("b"))
        assert ia < ib

    def test_profile_blocks_nest_independently(self):
        with perf.profile() as outer:
            with perf.phase("seen-by-outer"):
                pass
            with perf.profile() as inner:
                with perf.phase("seen-by-inner"):
                    pass
            with perf.phase("also-outer"):
                pass
        assert ("seen-by-inner",) in inner.stats
        assert ("seen-by-inner",) not in outer.stats
        assert ("seen-by-outer",) in outer.stats
        assert ("also-outer",) in outer.stats
        assert perf.active_profiler() is None

    def test_partition_records_pipeline_phases(self, small_rmat):
        from repro.partitioning import partition_matrix

        with perf.profile() as prof:
            partition_matrix(small_rmat, 4, method="gp", seed=0)
        keys = set(prof.as_dict())
        assert {"build-graph", "bisect", "bisect/coarsen",
                "bisect/initial", "bisect/refine"} <= keys

    def test_profiling_does_not_change_results(self, small_rmat):
        from repro.partitioning import partition_matrix

        plain = partition_matrix(small_rmat, 4, method="gp", seed=0).part
        with perf.profile():
            profiled = partition_matrix(small_rmat, 4, method="gp", seed=0).part
        assert np.array_equal(plain, profiled)
