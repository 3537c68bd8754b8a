"""Tests for record-and-replay solver costing.

The parity assertions here are what lets the benches replace 32 redundant
distributed eigensolves per matrix with one recorded run: a live space
charges each operation through :meth:`VectorWork.seconds`, and replay
prices the recorded sum of the same work through the same function.
"""

from dataclasses import replace

import numpy as np

from repro.graphs import normalized_laplacian
from repro.layouts import make_layout
from repro.runtime import CAB, CostLedger, DistSparseMatrix, DistVectorSpace, Map, VectorWork
from repro.solvers import (
    DistOperator,
    eigsh_dist,
    modeled_solve_seconds,
    solve_profile,
)


class TestOnePriceList:
    def test_work_prices_every_live_charge(self, rng):
        """Every op's "vector-ops" charges sum to what its recorded work
        prices at, so replaying the work reproduces the live ledger."""
        n, p = 200, 4
        vmap = Map(rng.integers(0, p, n), p)
        ledger = CostLedger()
        space = DistVectorSpace(vmap, CAB, ledger)
        x, y = rng.standard_normal(n), rng.standard_normal(n)
        B, X = rng.standard_normal((n, 7)), rng.standard_normal((n, 3))
        space.dot(x, y)
        space.norm(x)
        space.axpy(0.5, x, y)
        space.scale(2.0, x)
        space.multi_dot(B, x)
        space.multi_dot(B, X)
        space.multi_axpy(B, np.zeros(7), x)
        space.multi_axpy(B, np.zeros((7, 3)), X)
        space.qr(X)
        space.gemm(B, rng.standard_normal((7, 4)))
        space.charge(VectorWork(2.0 * 3))  # LOBPCG's residual norms
        space.charge(VectorWork(scalar_reductions=1))  # PageRank's sums
        max_local = int(vmap.counts().max())
        priced = space.work.seconds(max_local, p, CAB)
        assert np.isclose(priced, ledger.get("vector-ops"), rtol=1e-12, atol=0.0)
        assert space.work.gemm_flop_factor > 0 and space.work.vector_reduction_words > 0

        work_before = replace(space.work)
        t = space.charge_checkpoint(5)
        assert ledger.breakdown() == {"vector-ops": ledger.get("vector-ops"), "checkpoint": t}
        assert space.work == work_before


class TestSolveProfile:
    def test_profile_fields(self, small_powerlaw):
        Lhat = normalized_laplacian(small_powerlaw)
        prof = solve_profile(Lhat, k=4, tol=1e-4, seed=0)
        assert prof.converged
        assert prof.matvecs > 0
        assert prof.work.stream_factor > 0
        assert prof.work.scalar_reductions > 0
        assert len(prof.eigenvalues) == 4

    def test_deterministic(self, small_powerlaw):
        Lhat = normalized_laplacian(small_powerlaw)
        p1 = solve_profile(Lhat, k=3, tol=1e-4, seed=7)
        p2 = solve_profile(Lhat, k=3, tol=1e-4, seed=7)
        assert p1.matvecs == p2.matvecs
        assert p1.work == p2.work


class TestEndToEndParity:
    def test_replay_close_to_live_distributed_solve(self, small_powerlaw):
        """Full pipeline: modeled time from replay tracks a real distributed
        run on the same matrix/layout (trajectories may differ microscopically
        through float summation order, hence the loose tolerance)."""
        Lhat = normalized_laplacian(small_powerlaw)
        lay = make_layout("2d-random", small_powerlaw, 4, seed=0)
        dist = DistSparseMatrix(Lhat, lay, CAB)

        op = DistOperator(DistSparseMatrix(Lhat, lay, CAB))
        live = eigsh_dist(op, k=4, tol=1e-4, seed=11)
        live_total = op.ledger.total()
        # the live solve's own work prices to exactly what it charged
        max_local = int(dist.vector_map.counts().max())
        assert np.isclose(op.space.work.seconds(max_local, 4, CAB),
                          op.ledger.get("vector-ops"), rtol=1e-12, atol=0.0)

        prof = solve_profile(Lhat, k=4, tol=1e-4, seed=11)
        total, spmv = modeled_solve_seconds(prof, dist, CAB)
        assert live.converged and prof.converged
        assert abs(prof.matvecs - live.matvecs) <= 0.1 * live.matvecs
        assert abs(total - live_total) <= 0.1 * live_total
        assert 0 < spmv < total

    def test_spmv_fraction_consistent(self, small_powerlaw):
        Lhat = normalized_laplacian(small_powerlaw)
        lay = make_layout("1d-block", small_powerlaw, 4)
        dist = DistSparseMatrix(Lhat, lay, CAB)
        prof = solve_profile(Lhat, k=4, tol=1e-4, seed=2)
        total, spmv = modeled_solve_seconds(prof, dist, CAB)
        assert np.isclose(spmv, prof.matvecs * dist.modeled_spmv_seconds(1))
