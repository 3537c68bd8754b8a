"""Tests for the distributed solvers: Lanczos, Krylov-Schur, PageRank."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as sla

from repro.graphs import normalized_laplacian
from repro.layouts import make_layout
from repro.runtime import CAB, DistSparseMatrix
from repro.solvers import (
    DistOperator,
    eigsh_dist,
    normalized_laplacian_operator,
    pagerank,
)
from repro.solvers.krylov_schur import expand_krylov


def _operator(A, method="2d-random", p=4, seed=0):
    lay = make_layout(method, A, p, seed=seed)
    return DistOperator(DistSparseMatrix(A, lay, CAB))


def _factorization(op, v0, m, seed=0):
    """m Lanczos steps from *v0*: ``(V, H, columns reached)``."""
    V = np.zeros((op.n, m + 1))
    H = np.zeros((m + 1, m + 1))
    V[:, 0] = v0 / np.linalg.norm(v0)
    reached = expand_krylov(op, V, H, 0, m, np.random.default_rng(seed))
    return V, H, reached


class TestLanczosFactorization:
    def test_arnoldi_relation(self, small_powerlaw):
        op = _operator(small_powerlaw)
        rng = np.random.default_rng(0)
        m = 15
        V, H, reached = _factorization(op, rng.standard_normal(op.n), m, seed=1)
        assert reached == m
        # A V_m = V_{m+1} H[: m+1, : m]
        AV = small_powerlaw @ V[:, :m]
        assert np.abs(AV - V @ H[:, :m]).max() < 1e-8

    def test_orthonormal_basis(self, small_powerlaw):
        op = _operator(small_powerlaw)
        V, _, _ = _factorization(op, np.ones(op.n), 12, seed=1)
        G = V.T @ V
        assert np.abs(G - np.eye(G.shape[0])).max() < 1e-10

    def test_projection_symmetric(self, small_grid):
        op = _operator(small_grid)
        _, H, _ = _factorization(op, np.ones(op.n), 10)
        Hm = H[:10, :10]
        assert np.abs(Hm - Hm.T).max() < 1e-8

    def test_breakdown_restarts_then_exhausts(self):
        """An invariant start vector breaks down at once: the basis goes on
        with a fresh orthogonal direction, decoupled in H, until the space
        is exhausted and expansion stops early."""
        A = sp.diags(np.arange(1.0, 5.0)).tocsr()
        op = _operator(A, method="1d-block", p=2)
        v0 = np.zeros(4)
        v0[0] = 1.0  # an eigenvector
        V, H, reached = _factorization(op, v0, 5)
        assert H[1, 0] == 0.0 and abs(H[0, 1]) < 1e-14
        assert reached == 4  # n columns span everything; the 5th cannot exist
        G = V[:, :4].T @ V[:, :4]
        assert np.abs(G - np.eye(4)).max() < 1e-10

    def test_validation(self, small_grid):
        """The factorization's inputs are validated where they enter, in
        eigsh_dist: a basis too small for k and a zero start vector."""
        op = _operator(small_grid)
        with pytest.raises(ValueError, match="m"):
            eigsh_dist(op, k=4, m=5)
        with pytest.raises(ValueError, match="nonzero"):
            eigsh_dist(op, k=2, v0=np.zeros(op.n))


class TestKrylovSchur:
    @pytest.mark.parametrize("which", ["LA", "SA", "LM"])
    def test_matches_scipy(self, small_powerlaw, which):
        Lhat = normalized_laplacian(small_powerlaw)
        op = _operator(Lhat, p=4)
        res = eigsh_dist(op, k=6, tol=1e-8, which=which, seed=3)
        assert res.converged
        scipy_which = {"LA": "LA", "SA": "SA", "LM": "LM"}[which]
        ref = sla.eigsh(Lhat, k=6, which=scipy_which, return_eigenvectors=False)
        order = np.argsort(ref)[::-1] if which in ("LA", "LM") else np.argsort(ref)
        if which == "LM":
            order = np.argsort(np.abs(ref))[::-1]
        assert np.abs(np.sort(res.eigenvalues) - np.sort(ref[order])).max() < 1e-6

    def test_eigenvectors_residual(self, small_powerlaw):
        Lhat = normalized_laplacian(small_powerlaw)
        op = _operator(Lhat)
        res = eigsh_dist(op, k=4, tol=1e-8, seed=1)
        for i in range(4):
            v = res.eigenvectors[:, i]
            r = Lhat @ v - res.eigenvalues[i] * v
            assert np.linalg.norm(r) < 1e-6

    def test_paper_configuration_runs(self, small_rmat):
        """k=10, tol=1e-3, largest of L_hat — the exact paper setting."""
        op = normalized_laplacian_operator(small_rmat, make_layout("2d-gp", small_rmat, 4, seed=0))
        res = eigsh_dist(op, k=10, tol=1e-3, which="LA", seed=5)
        assert res.converged
        assert len(res.eigenvalues) == 10
        assert op.ledger.spmv_total() > 0
        assert op.ledger.get("vector-ops") > 0

    def test_ledger_accumulates_per_matvec(self, small_grid):
        op = _operator(small_grid)
        res = eigsh_dist(op, k=2, tol=1e-6, seed=0)
        per_spmv = op.dist.modeled_spmv_seconds(1)
        assert np.isclose(op.ledger.spmv_total(), res.matvecs * per_spmv)

    def test_validation(self, small_grid):
        op = _operator(small_grid)
        with pytest.raises(ValueError, match="k must"):
            eigsh_dist(op, k=0)
        with pytest.raises(ValueError, match="which"):
            eigsh_dist(op, k=2, which="XX")

    def test_nonconvergence_flagged(self, small_powerlaw):
        Lhat = normalized_laplacian(small_powerlaw)
        op = _operator(Lhat)
        res = eigsh_dist(op, k=4, tol=1e-14, max_restarts=1, seed=0)
        assert not res.converged


class TestPower:
    def test_pagerank_is_stationary_and_stochastic(self, small_rmat):
        lay = make_layout("1d-random", small_rmat, 4, seed=1)
        res = pagerank(small_rmat, lay, damping=0.85, tol=1e-12)
        assert res.converged
        assert np.isclose(res.scores.sum(), 1.0)
        assert (res.scores > 0).all()
        # stationarity: one more iteration moves nothing
        from repro.solvers.power import google_link_matrix

        M, dangling = google_link_matrix(small_rmat)
        y = 0.85 * (M @ res.scores)
        y += (0.85 * res.scores[dangling].sum() + 0.15) / small_rmat.shape[0]
        assert np.abs(y - res.scores).max() < 1e-10

    def test_pagerank_matches_networkx(self, small_powerlaw):
        nx = pytest.importorskip("networkx")
        lay = make_layout("1d-block", small_powerlaw, 2)
        res = pagerank(small_powerlaw, lay, damping=0.85, tol=1e-12)
        G = nx.from_scipy_sparse_array(small_powerlaw)
        ref = nx.pagerank(G, alpha=0.85, tol=1e-12, max_iter=500)
        ref_vec = np.array([ref[i] for i in range(small_powerlaw.shape[0])])
        assert np.abs(res.scores - ref_vec).max() < 1e-6

    def test_pagerank_validation(self, small_rmat):
        lay = make_layout("1d-block", small_rmat, 2)
        with pytest.raises(ValueError, match="damping"):
            pagerank(small_rmat, lay, damping=1.5)
