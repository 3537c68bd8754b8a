"""Tests for multilevel bisection, recursive bisection and balance repair."""

import numpy as np
import pytest

from repro.partitioning import PartGraph, derive_nested_partition, multilevel_bisect
from repro.partitioning._util import check_part_vector, walk_rb
from repro.partitioning.kway import _split, kway_balance_refine


def _graph_kway(g, nparts, ub=1.05, seed=0):
    """The graph k-way pipeline ``partition_matrix("gp")`` runs after its
    graph build, on any :class:`PartGraph`: the RB walk over graph
    bisections, then the k-way balance repair."""
    part = walk_rb(_split, g, nparts, ub, seed)
    part = kway_balance_refine(g, part, nparts, ub=ub)
    return check_part_vector(part, g.n, nparts)


class TestMultilevelBisect:
    def test_grid_bisection_quality(self, small_grid):
        g = PartGraph.from_matrix(small_grid, "unit")
        part = multilevel_bisect(g, seed=0)
        # optimal straight cut of a 24x24 grid is 24 edges
        assert g.edgecut(part) <= 2 * 24
        assert g.imbalance(part, 2)[0] < 1.1

    def test_uneven_targets(self, small_grid):
        g = PartGraph.from_matrix(small_grid, "unit")
        part = multilevel_bisect(g, target_fracs=(0.25, 0.75), seed=0)
        w0 = g.vwgt[part == 0, 0].sum() / g.total_weight()[0]
        assert abs(w0 - 0.25) < 0.08

    def test_bad_targets_raise(self, small_grid):
        g = PartGraph.from_matrix(small_grid, "unit")
        with pytest.raises(ValueError, match="sum to 1"):
            multilevel_bisect(g, target_fracs=(0.5, 0.6))

    def test_trivial_graphs(self):
        import scipy.sparse as sp

        g = PartGraph.from_scipy(sp.csr_matrix((1, 1)))
        assert multilevel_bisect(g).tolist() == [0]


class TestRecursiveBisection:
    @pytest.mark.parametrize("k", [2, 4, 8])
    def test_valid_partition(self, small_grid, k):
        g = PartGraph.from_matrix(small_grid, "unit")
        part = _graph_kway(g, k, seed=0)
        assert part.min() >= 0 and part.max() == k - 1
        assert len(np.unique(part)) == k

    def test_grid_16_parts_beats_random_hugely(self, small_grid):
        g = PartGraph.from_matrix(small_grid, "unit")
        part = _graph_kway(g, 16, seed=0)
        rnd = np.random.default_rng(0).integers(0, 16, g.n)
        assert g.edgecut(part) < 0.3 * g.edgecut(rnd)

    def test_scale_free_balance(self, small_rmat):
        g = PartGraph.from_matrix(small_rmat, "nnz")
        part = _graph_kway(g, 8, ub=1.10, seed=0)
        # hub granularity can exceed ub, but must stay near it
        vmax = g.vwgt[:, 0].max()
        avg = g.total_weight()[0] / 8
        assert g.imbalance(part, 8)[0] <= max(1.25, (avg + vmax) / avg + 0.05)

    def test_nonpower_of_two(self, small_grid):
        g = PartGraph.from_matrix(small_grid, "unit")
        part = _graph_kway(g, 6, seed=0)
        assert len(np.unique(part)) == 6
        assert g.imbalance(part, 6)[0] < 1.35

    def test_nparts_one(self, small_grid):
        g = PartGraph.from_matrix(small_grid, "unit")
        assert (_graph_kway(g, 1) == 0).all()

    def test_invalid_nparts(self, small_grid):
        g = PartGraph.from_matrix(small_grid, "unit")
        with pytest.raises(ValueError, match="nparts"):
            _graph_kway(g, 0)

    def test_deterministic(self, small_grid):
        g = PartGraph.from_matrix(small_grid, "unit")
        p1 = _graph_kway(g, 8, seed=42)
        p2 = _graph_kway(g, 8, seed=42)
        assert np.array_equal(p1, p2)


class TestNestedDerivation:
    def test_nesting_property(self, small_rmat):
        """part_4 derived from part_16 groups exactly 4 consecutive ids."""
        g = PartGraph.from_matrix(small_rmat, "nnz")
        p16 = _graph_kway(g, 16, seed=1)
        p4 = derive_nested_partition(p16, 16, 4)
        assert p4.max() == 3
        # every fine part maps wholly into one coarse part
        for fine_id in range(16):
            members = p4[p16 == fine_id]
            assert len(np.unique(members)) == 1
            assert members[0] == fine_id // 4

    def test_identity(self):
        p = np.array([0, 1, 2, 3])
        assert np.array_equal(derive_nested_partition(p, 4, 4), p)

    def test_validation(self):
        p = np.zeros(4, dtype=np.int64)
        with pytest.raises(ValueError, match="powers of two"):
            derive_nested_partition(p, 6, 2)
        with pytest.raises(ValueError, match="divide"):
            derive_nested_partition(p, 4, 8)


class TestBalanceRepair:
    def test_repairs_overweight_part(self, small_grid):
        g = PartGraph.from_matrix(small_grid, "unit")
        part = np.zeros(g.n, dtype=np.int64)
        part[: g.n // 8] = 1
        part[g.n // 8: g.n // 4] = 2
        part[g.n // 4: g.n // 4 + 10] = 3  # part 0 hugely overweight
        repaired = kway_balance_refine(g, part, 4, ub=1.10)
        assert g.imbalance(repaired, 4)[0] < g.imbalance(part, 4)[0]
        assert g.imbalance(repaired, 4)[0] < 1.2

    def test_noop_when_balanced(self, small_grid):
        g = PartGraph.from_matrix(small_grid, "unit")
        part = _graph_kway(g, 4, seed=0)
        repaired = kway_balance_refine(g, part, 4, ub=1.10)
        assert g.edgecut(repaired) <= g.edgecut(part) * 1.2
