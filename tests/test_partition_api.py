"""Tests for the partitioning front door (partition_matrix)."""

from pathlib import Path

import numpy as np
import pytest

from repro.layouts import make_layout
from repro.partitioning import PartGraph, partition_matrix
from repro.partitioning.api import PARTITION_METHODS


class TestPartitionMatrix:
    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_all_methods_produce_valid_partitions(self, small_powerlaw, method):
        res = partition_matrix(small_powerlaw, 4, method=method, seed=0)
        assert res.part.min() >= 0 and res.part.max() == 3
        assert res.method == method
        assert res.edgecut >= 0
        assert all(x >= 1.0 for x in res.imbalance)

    def test_gp_mc_has_two_constraints(self, small_rmat):
        res = partition_matrix(small_rmat, 4, method="gp-mc", seed=0)
        assert len(res.imbalance) == 2
        assert res.imbalance[0] < 1.35  # rows balanced

    def test_gp_balances_nonzeros_not_rows(self, small_rmat):
        res = partition_matrix(small_rmat, 8, method="gp", seed=0)
        g = PartGraph.from_matrix(small_rmat, "nnz")
        assert np.isclose(g.imbalance(res.part, 8)[0], res.imbalance[0])

    # bad arguments raise at every job count, never partition as another kind

    def test_hp_mc_mirrors_paper_limitation(self, small_rmat):
        for jobs in (None, 2):
            with pytest.raises(ValueError, match="not available with"):
                partition_matrix(small_rmat, 4, method="hp-mc", jobs=jobs)

    def test_unknown_method(self, small_rmat):
        for jobs in (None, 2):
            with pytest.raises(ValueError, match="unknown method"):
                partition_matrix(small_rmat, 4, method="magic", jobs=jobs)

    def test_invalid_nparts(self, small_rmat):
        for jobs in (None, 2):
            with pytest.raises(ValueError, match="nparts"):
                partition_matrix(small_rmat, 0, jobs=jobs)

    def test_unknown_keywords_fail_at_the_call_site(self, small_rmat):
        """A misspelled keyword is a TypeError raised by the call itself —
        not swallowed by a layout that never partitions, and not raised
        from deep inside the bisection after the graph was built."""
        calls = [
            lambda: make_layout("2d-block", small_rmat, 4, orientaton="best"),
            lambda: make_layout("1d-random", small_rmat, 4, orientaton="best"),
            lambda: make_layout("2d-gp", small_rmat, 4, orientaton="best"),
            lambda: partition_matrix(small_rmat, 1, sed=3),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="unexpected keyword") as err:
                call()
            # the innermost frame is the lambda making the call
            assert err.traceback[-1].path == Path(__file__)

    def test_deterministic(self, small_powerlaw):
        r1 = partition_matrix(small_powerlaw, 8, method="gp", seed=3)
        r2 = partition_matrix(small_powerlaw, 8, method="gp", seed=3)
        assert np.array_equal(r1.part, r2.part)

    def test_gp_beats_random_cut_on_structured_graph(self, small_grid):
        res = partition_matrix(small_grid, 8, method="gp", seed=0)
        g = PartGraph.from_matrix(small_grid, "nnz")
        rnd = np.random.default_rng(0).integers(0, 8, g.n)
        assert res.edgecut < 0.3 * g.edgecut(rnd)
