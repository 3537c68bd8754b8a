"""Tests for FM refinement and initial bisection generators."""

import numpy as np
import pytest

from repro.generators import grid2d
from repro.graphs import from_edges
from repro.partitioning import PartGraph
from repro.partitioning.bisect import _edge_neighbours
from repro.partitioning.initial import greedy_growing, random_bisection, spectral_bisection
from repro.partitioning.refine import balance_allowance, fm_refine, is_balanced


def _grid_graph(nx=12, ny=12) -> PartGraph:
    return PartGraph.from_matrix(grid2d(nx, ny), "unit")


def _side_weights(g, part):
    sw = np.zeros((2, g.ncon))
    np.add.at(sw, part, g.vwgt)
    return sw


class TestBalanceAllowance:
    def test_widened_by_hub_vertex(self):
        A = from_edges([0] * 5, [1, 2, 3, 4, 5], (6, 6), symmetrize=True)
        g = PartGraph.from_matrix(A, "nnz")  # hub row weight 5
        allow = balance_allowance(g, (0.5, 0.5), ub=1.05)
        # hub weight (5) exceeds 5% slack of half the total: granularity wins
        assert allow[0, 0] >= 0.5 * g.total_weight()[0] + 5.0

    def test_is_balanced(self):
        allow = np.array([[5.0], [5.0]])
        assert is_balanced(np.array([[5.0], [4.0]]), allow)
        assert not is_balanced(np.array([[5.1], [4.0]]), allow)


class TestFMRefine:
    def test_improves_a_bad_grid_bisection(self):
        g = _grid_graph()
        # interleaved columns: terrible cut, perfect balance
        part = (np.arange(g.n) % 2).astype(np.int64)
        bad_cut = g.edgecut(part)
        refined = fm_refine(g, part, passes=5, hill_limit=200)
        assert g.edgecut(refined) < 0.5 * bad_cut
        allow = balance_allowance(g, (0.5, 0.5), 1.05)
        assert is_balanced(_side_weights(g, refined), allow)

    def test_does_not_worsen_an_optimal_bisection(self):
        g = _grid_graph()
        part = (np.arange(g.n) >= g.n // 2).astype(np.int64)  # straight cut
        refined = fm_refine(g, part)
        assert g.edgecut(refined) <= g.edgecut(part)

    def test_repairs_imbalance(self):
        g = _grid_graph(10, 10)
        part = np.zeros(g.n, dtype=np.int64)
        part[:5] = 1  # 95/5 split: way out of tolerance
        refined = fm_refine(g, part, ub=1.10, passes=6, hill_limit=400)
        imb = g.imbalance(refined, 2)[0]
        assert imb < g.imbalance(part, 2)[0]
        assert imb < 1.4

    def test_multiconstraint_balances_both(self, small_rmat):
        g = PartGraph.from_matrix(small_rmat, ("unit", "nnz"))
        rng = np.random.default_rng(3)
        part = rng.integers(0, 2, g.n)
        refined = fm_refine(g, part, ub=1.10, passes=4)
        imb = g.imbalance(refined, 2)
        assert imb[0] < 1.3  # rows
        # nnz balance is granularity-limited by hubs but must stay sane
        assert imb[1] < 2.0

    def test_single_vertex_noop(self):
        A = from_edges([], [], (1, 1))
        g = PartGraph.from_matrix(A, "unit")
        assert fm_refine(g, np.array([0])).tolist() == [0]


class TestInitialBisectionGenerators:
    @pytest.mark.parametrize("frac", [0.5, 0.25])
    def test_greedy_growing_hits_target(self, frac):
        g = _grid_graph()
        rng = np.random.default_rng(0)
        part = greedy_growing(g, frac, rng, _edge_neighbours)
        assert set(np.unique(part)) <= {0, 1}
        w0 = g.vwgt[part == 0, 0].sum()
        assert abs(w0 / g.total_weight()[0] - frac) < 0.10

    def test_greedy_growing_is_connected_region_on_grid(self):
        g = _grid_graph(8, 8)
        part = greedy_growing(g, 0.5, np.random.default_rng(1), _edge_neighbours)
        # BFS growth on a grid yields a cut far below worst case
        assert g.edgecut(part) < 30

    def test_spectral_on_two_cliques(self):
        # two 5-cliques joined by one edge: spectral must find the bridge
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(i + 5, j + 5) for i, j in edges[:10]]
        edges += [(0, 5)]
        r, c = zip(*edges)
        A = from_edges(np.array(r), np.array(c), (10, 10), symmetrize=True)
        g = PartGraph.from_matrix(A, "unit")
        part = spectral_bisection(g, 0.5)
        assert part is not None
        assert g.edgecut(part) == 1.0

    def test_spectral_declines_large_graphs(self):
        g = PartGraph.from_matrix(grid2d(30, 30), "unit")
        assert spectral_bisection(g, 0.5) is None  # n=900 > dense threshold

    def test_random_bisection_weights(self):
        g = _grid_graph()
        part = random_bisection(g, 0.5, np.random.default_rng(2))
        w0 = g.vwgt[part == 0, 0].sum()
        assert abs(w0 / g.total_weight()[0] - 0.5) < 0.1
