"""Tests for the precompiled SpMV execution engine.

The engine's contract is stronger than numerical closeness: its compiled
two-operator execution must be **bit-identical** to the per-message
reference path (same values moved, same per-slot summation order), and
``spmm`` must be bit-identical column-by-column to repeated ``spmv``.
Modeled costs must be untouched — the engine reorganises execution, not
the communication schedule the cost model prices.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.generators import rmat
from repro.layouts import make_layout
from repro.runtime import CostLedger, DistSparseMatrix, Map, SpmvEngine

LAYOUTS = ["1d-block", "1d-random", "2d-block", "2d-random", "1d-gp", "2d-gp"]
#: process counts including non-powers-of-two and a non-square grid count
PROCS = [1, 2, 6, 7, 12]


class TestEngineEqualsReference:
    @pytest.mark.parametrize("method", LAYOUTS)
    @pytest.mark.parametrize("p", PROCS)
    def test_bit_identical_spmv(self, small_powerlaw, method, p):
        A = small_powerlaw
        dist = DistSparseMatrix(A, make_layout(method, A, p, seed=2))
        x = np.random.default_rng(p).standard_normal(A.shape[0])
        assert np.array_equal(dist._spmv_reference(x), dist.spmv(x))

    def test_bit_identical_on_mesh(self, small_grid):
        dist = DistSparseMatrix(small_grid, make_layout("2d-gp", small_grid, 9, seed=0))
        x = np.random.default_rng(1).standard_normal(small_grid.shape[0])
        assert np.array_equal(dist._spmv_reference(x), dist.spmv(x))

    def test_matches_scipy(self, small_rmat):
        dist = DistSparseMatrix(small_rmat, make_layout("2d-random", small_rmat, 8, seed=1))
        x = np.random.default_rng(2).standard_normal(small_rmat.shape[0])
        assert np.abs(dist.spmv(x) - small_rmat @ x).max() < 1e-10

    @given(
        scale=st.integers(4, 7),
        p=st.sampled_from([2, 3, 5, 6, 9]),
        method=st.sampled_from(["1d-random", "2d-random", "2d-block"]),
        seed=st.integers(0, 30),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_bit_identical(self, scale, p, method, seed):
        A = rmat(scale, 4, seed=seed)
        dist = DistSparseMatrix(A, make_layout(method, A, p, seed=seed))
        x = np.random.default_rng(seed).standard_normal(A.shape[0])
        assert np.array_equal(dist._spmv_reference(x), dist.spmv(x))

    def test_engine_is_cached(self, tiny_matrix):
        dist = DistSparseMatrix(tiny_matrix, make_layout("1d-block", tiny_matrix, 2))
        assert dist.engine is dist.engine
        assert isinstance(dist.engine, SpmvEngine)


class TestSpmm:
    @pytest.mark.parametrize("method", LAYOUTS)
    @pytest.mark.parametrize("p", [1, 6, 7])
    def test_equals_stacked_spmv(self, small_powerlaw, method, p):
        A = small_powerlaw
        dist = DistSparseMatrix(A, make_layout(method, A, p, seed=3))
        X = np.random.default_rng(p).standard_normal((A.shape[0], 4))
        Y = dist.spmm(X)
        stacked = np.column_stack([dist.spmv(X[:, j]) for j in range(4)])
        assert np.abs(Y - stacked).max() < 1e-12
        assert np.array_equal(Y, stacked)  # in fact exact

    def test_matches_scipy(self, small_rmat):
        dist = DistSparseMatrix(small_rmat, make_layout("2d-gp", small_rmat, 8, seed=0))
        X = np.random.default_rng(5).standard_normal((small_rmat.shape[0], 8))
        assert np.abs(dist.spmm(X) - small_rmat @ X).max() < 1e-10

    def test_single_column(self, small_rmat):
        dist = DistSparseMatrix(small_rmat, make_layout("1d-random", small_rmat, 5, seed=1))
        x = np.random.default_rng(6).standard_normal(small_rmat.shape[0])
        assert np.array_equal(dist.spmm(x[:, None])[:, 0], dist.spmv(x))

    def test_bad_shapes_raise(self, tiny_matrix):
        dist = DistSparseMatrix(tiny_matrix, make_layout("1d-block", tiny_matrix, 2))
        with pytest.raises(ValueError, match="block shape"):
            dist.spmm(np.zeros(6))
        with pytest.raises(ValueError, match="block shape"):
            dist.spmm(np.zeros((5, 2)))
        with pytest.raises(ValueError, match="vector shape"):
            dist.spmv(np.zeros((6, 2)))


class TestCostCharging:
    def test_spmm_charges_k_spmvs(self, small_rmat):
        dist = DistSparseMatrix(small_rmat, make_layout("2d-block", small_rmat, 4))
        l_blk, l_one = CostLedger(), CostLedger()
        dist.spmm(np.ones((small_rmat.shape[0], 7)), l_blk)
        dist.spmv(np.ones(small_rmat.shape[0]), l_one)
        for phase, t in l_one.breakdown().items():
            assert np.isclose(l_blk.get(phase), 7 * t)


class TestMapValidateFlag:
    def test_default_validates(self):
        m = Map(np.array([1, 0, 1, 1, 0]), 2)
        with pytest.raises(ValueError, match="not owned"):
            m.local_ids(np.array([0]), 0)

    def test_validate_false_skips_check(self):
        m = Map(np.array([1, 0, 1, 1, 0]), 2)
        # garbage in, positions out — but no raise: callers passing
        # validate=False have verified their plan at build time
        m.local_ids(np.array([0]), 0, validate=False)
        # and correct queries still give correct answers
        assert m.local_ids(np.array([0, 3]), 1, validate=False).tolist() == [0, 2]


class TestPlanVerification:
    def test_corrupted_plan_rejected(self, tiny_matrix):
        dist = DistSparseMatrix(tiny_matrix, make_layout("1d-random", tiny_matrix, 3, seed=2))
        assert dist.import_plan.nmessages > 0
        # claim a message comes from a rank that does not own its indices
        dist.import_plan.src = (dist.import_plan.src + 1) % 3
        with pytest.raises(ValueError, match="does not own"):
            dist._verify_plans()


class TestPlanStatCaching:
    def test_cached_and_consistent(self, small_rmat):
        dist = DistSparseMatrix(small_rmat, make_layout("2d-random", small_rmat, 6, seed=0))
        plan = dist.import_plan
        assert plan.sent_counts() is plan.sent_counts()
        assert plan.recv_volume() is plan.recv_volume()
        assert plan.sent_counts().sum() == plan.nmessages
        assert plan.recv_counts().sum() == plan.nmessages
        assert plan.sent_volume().sum() == plan.total_volume
        assert plan.recv_volume().sum() == plan.total_volume
