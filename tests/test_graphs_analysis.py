"""Tests for repro.graphs.analysis — scale-free diagnostics."""

import numpy as np

from repro.graphs import (
    GraphStats,
    graph_stats,
    powerlaw_exponent_mle,
)
from repro.generators import grid2d


class TestGraphStats:
    def test_table1_columns(self, small_rmat):
        s = graph_stats(small_rmat, name="rmat10")
        assert s.name == "rmat10"
        assert s.n_rows == small_rmat.shape[0]
        assert s.n_nonzeros == small_rmat.nnz
        nnz_rows = np.diff(small_rmat.indptr)
        assert s.max_nnz_per_row == nnz_rows.max()
        assert np.isclose(s.mean_nnz_per_row, nnz_rows.mean())
        assert s.row() == ("rmat10", s.n_rows, s.n_nonzeros, s.max_nnz_per_row)

    def test_skew_discriminates_mesh_from_scalefree(self, small_rmat, small_grid):
        assert graph_stats(small_rmat).skew > 10
        assert graph_stats(small_grid).skew < 2

    def test_frozen(self):
        s = graph_stats(grid2d(3, 3))
        assert isinstance(s, GraphStats)
        try:
            s.n_rows = 5
            raised = False
        except AttributeError:
            raised = True
        assert raised


class TestPowerlawMLE:
    def test_recovers_exponent_of_pareto_sample(self, rng):
        # discrete power law built the way the CSN estimator assumes:
        # continuous Pareto with xmin = dmin - 0.5, rounded to integers
        gamma = 2.5
        u = rng.random(200_000)
        d = np.round(1.5 * (1.0 - u) ** (-1.0 / (gamma - 1.0))).astype(int)
        est = powerlaw_exponent_mle(d, dmin=2)
        assert abs(est - gamma) < 0.1

    def test_too_few_samples_gives_nan(self):
        assert np.isnan(powerlaw_exponent_mle(np.array([1, 1, 1])))

    def test_scalefree_graph_has_low_gamma(self, small_rmat, small_grid):
        g_rmat = powerlaw_exponent_mle(np.diff(small_rmat.indptr))
        assert 1.0 < g_rmat < 3.0
        # grids have all-equal degrees: MLE degenerates high, not low
        g_grid = powerlaw_exponent_mle(np.diff(grid2d(50, 50).indptr))
        assert g_grid > g_rmat
