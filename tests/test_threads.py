"""Tests for the thread-parallel engine apply (:mod:`repro.runtime.threads`).

Three contracts:

* the row-split primitive is **bottleneck-optimal, covering, disjoint,
  and deterministic** over every degenerate shape (empty rows, one giant
  hub row, fewer nnz than threads, one thread) — hypothesis hammers it;
* the threaded apply is **bit-identical** to the serial fused multiply a
  budget of 1 runs (``np.array_equal``, not a tolerance) for
  spmv/spmm/partials/ABFT at any thread count, including through a
  ``to_arrays`` round-trip;
* the accounting is honest: plans and all three ABFT operators are in
  ``nbytes``/``abft_bytes``, and process-pool workers pin their thread
  budget to 1 so process- and thread-parallelism never nest.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.layouts import make_layout
from repro.runtime import DistSparseMatrix, SpmvEngine
from repro.runtime import threads as thr
from repro.runtime.threads import (
    ApplyPlan,
    balanced_row_splits,
    bind_blocks,
    block_nnz,
)


def _indptr(degrees) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)


def _optimal_bottleneck(indptr: np.ndarray, nblocks: int) -> int:
    """Brute-force minimal bottleneck over contiguous partitions (DP)."""
    nrows = len(indptr) - 1
    best = {0: 0}  # rows consumed -> bottleneck so far
    for _ in range(nblocks):
        nxt = {}
        for row, bot in best.items():
            for end in range(row + 1, nrows + 1):
                w = int(indptr[end] - indptr[row])
                cand = max(bot, w)
                if nxt.get(end, np.inf) > cand:
                    nxt[end] = cand
        for row, bot in best.items():  # fewer blocks is allowed
            if nxt.get(row, np.inf) > bot:
                nxt[row] = bot
        best = nxt
    return int(best[nrows])


# ---------------------------------------------------------------------------
# the row-split primitive
# ---------------------------------------------------------------------------


class TestBalancedRowSplits:
    def test_trivial_single_block(self):
        s = balanced_row_splits(_indptr([3, 1, 4]), 1)
        assert np.array_equal(s, [0, 3])

    def test_empty_matrix(self):
        assert np.array_equal(balanced_row_splits(np.array([0]), 4), [0, 0])

    def test_all_empty_rows(self):
        s = balanced_row_splits(_indptr([0, 0, 0, 0]), 3)
        assert s[0] == 0 and s[-1] == 4
        assert np.all(np.diff(s) >= 0)

    def test_hub_row_becomes_the_bottleneck(self):
        # one row carries almost everything: optimal bottleneck = hub nnz
        indptr = _indptr([1, 1, 500, 1, 1])
        s = balanced_row_splits(indptr, 4)
        assert int(block_nnz(indptr, s).max()) == 500

    def test_fewer_nnz_than_blocks(self):
        indptr = _indptr([1, 0, 1])
        s = balanced_row_splits(indptr, 8)
        assert s[0] == 0 and s[-1] == 3
        assert int(block_nnz(indptr, s).max()) == 1

    def test_uniform_rows_split_evenly(self):
        indptr = _indptr([10] * 16)
        s = balanced_row_splits(indptr, 4)
        assert np.array_equal(block_nnz(indptr, s), [40, 40, 40, 40])

    @given(
        degrees=st.lists(st.integers(0, 12), min_size=0, max_size=24),
        hub=st.one_of(st.none(), st.integers(30, 300)),
        nblocks=st.sampled_from([1, 2, 3, 4, 7, 8, 16]),
        hub_pos=st.integers(0, 100),
    )
    @settings(max_examples=120, deadline=None)
    def test_cover_disjoint_balance_invariants(self, degrees, hub, nblocks, hub_pos):
        if hub is not None and degrees:
            degrees = list(degrees)
            degrees[hub_pos % len(degrees)] = hub
        indptr = _indptr(degrees)
        nrows = len(degrees)
        s = balanced_row_splits(indptr, nblocks)
        # cover + disjoint: contiguous, monotone, ends pinned
        assert int(s[0]) == 0 and int(s[-1]) == max(nrows, 0)
        assert np.all(np.diff(s) >= 0)
        assert len(s) - 1 <= max(nblocks, 1)
        if nrows == 0:
            return
        # balance: exactly the brute-force optimal bottleneck
        got = int(block_nnz(indptr, s).max())
        assert got == _optimal_bottleneck(indptr, nblocks)

    @given(
        degrees=st.lists(st.integers(0, 9), min_size=1, max_size=20),
        nblocks=st.sampled_from([2, 3, 5, 8]),
    )
    @settings(max_examples=60, deadline=None)
    def test_deterministic(self, degrees, nblocks):
        indptr = _indptr(degrees)
        a = balanced_row_splits(indptr, nblocks)
        b = balanced_row_splits(indptr.copy(), nblocks)
        assert np.array_equal(a, b)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            balanced_row_splits(_indptr([1, 2]), 0)
        with pytest.raises(ValueError):
            balanced_row_splits(np.zeros((2, 2)), 2)


# ---------------------------------------------------------------------------
# budget resolution
# ---------------------------------------------------------------------------


class TestThreadResolution:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_THREADS", raising=False)
        thr.set_default_threads(None)
        assert thr.resolve_threads(None) == 1

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "6")
        thr.set_default_threads(None)
        assert thr.resolve_threads(None) == 6

    def test_env_zero_means_all_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "0")
        thr.set_default_threads(None)
        assert thr.resolve_threads(None) == max(os.cpu_count() or 1, 1)

    def test_garbage_env_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "lots")
        thr.set_default_threads(None)
        assert thr.resolve_threads(None) == 1

    def test_override_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_THREADS", "2")
        thr.set_default_threads(5)
        try:
            assert thr.resolve_threads(None) == 5
        finally:
            thr.set_default_threads(None)

    def test_explicit_beats_everything(self):
        assert thr.resolve_threads(3) == 3
        assert thr.resolve_threads(0) == max(os.cpu_count() or 1, 1)


# ---------------------------------------------------------------------------
# threaded kernel bit-identity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def engine(request):
    A = request.getfixturevalue("small_powerlaw")
    dist = DistSparseMatrix(A, make_layout("2d-gp", A, 12, seed=2))
    return dist.engine


class TestThreadedBitIdentity:
    @pytest.mark.parametrize("t", [1, 2, 4, 8])
    def test_spmv_spmm_partials_abft(self, engine, t):
        rng = np.random.default_rng(t)
        x = rng.standard_normal(engine.n)
        X = rng.standard_normal((engine.n, 5))
        engine.set_threads(1)  # the serial oracle: one fused multiply per operator
        y0 = engine.spmv(x)
        Y0 = engine.spmm(X)
        yp0, p0 = engine.spmv_with_partials(x)
        c0 = engine.abft_check(x, p0, yp0)
        engine.set_threads(t)
        assert engine.threads == t
        assert np.array_equal(engine.spmv(x), y0)
        assert np.array_equal(engine.spmm(X), Y0)
        yp, p = engine.spmv_with_partials(x)
        assert np.array_equal(yp, yp0)
        assert np.array_equal(p, p0)
        assert np.array_equal(engine.fold(p), yp0)
        c = engine.abft_check(x, p, yp)
        assert not c.detected
        assert np.array_equal(c.rank_discrepancy, c0.rank_discrepancy)
        assert np.array_equal(c.rank_threshold, c0.rank_threshold)

    def test_threaded_abft_still_detects_corruption(self, engine):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(engine.n)
        engine.set_threads(4)
        _, p = engine.spmv_with_partials(x)
        p = p.copy()
        p[len(p) // 2] += 10.0 * (1.0 + abs(p[len(p) // 2]))
        assert engine.abft_check(x, p).detected

    def test_budget_of_one_runs_the_fused_path(self, engine):
        engine.set_threads(8)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(engine.n)
        engine.spmv(x)
        before = thr.pool_stats()["dispatches"]
        assert before > 0
        engine.set_threads(1)
        engine.spmv(x)
        assert thr.pool_stats()["dispatches"] == before

    def test_block_views_share_parent_buffers(self, engine):
        plan = engine._plans[engine.threads]
        for _, _, block in plan.local_blocks:
            if block.nnz:
                assert block.data.base is not None  # view, not a copy


# ---------------------------------------------------------------------------
# plan persistence and determinism across save/load
# ---------------------------------------------------------------------------


class TestPlanPersistence:
    def test_roundtrip_preserves_splits_exactly(self, engine):
        engine.set_threads(4)
        arrays = engine.to_arrays()
        assert arrays["dims"].shape == (7,)
        assert int(arrays["dims"][6]) == 4
        clone = SpmvEngine.from_arrays(arrays)
        src = engine._plans[4]
        dst = clone._plans[4]
        assert np.array_equal(src.local_splits, dst.local_splits)
        assert np.array_equal(src.fold_splits, dst.fold_splits)

    def test_loaded_engine_bit_identical_at_any_budget(self, engine):
        engine.set_threads(8)
        clone = SpmvEngine.from_arrays(engine.to_arrays())
        rng = np.random.default_rng(11)
        x = rng.standard_normal(engine.n)
        engine.set_threads(1)
        y0 = engine.spmv(x)
        for t in (1, 2, 8):
            clone.set_threads(t)
            assert np.array_equal(clone.spmv(x), y0)

    def test_legacy_six_dim_arrays_still_load(self, engine):
        arrays = dict(engine.to_arrays())
        arrays["dims"] = arrays["dims"][:6]
        del arrays["plan_local_splits"], arrays["plan_fold_splits"]
        clone = SpmvEngine.from_arrays(arrays)
        rng = np.random.default_rng(12)
        x = rng.standard_normal(engine.n)
        assert np.array_equal(clone.spmv(x), engine.spmv(x))

    def test_torn_splits_rejected(self, engine):
        arrays = dict(engine.to_arrays())
        arrays["plan_local_splits"] = np.array([0, 1], dtype=np.int64)  # wrong end
        with pytest.raises(ValueError):
            SpmvEngine.from_arrays(arrays)

    def test_replan_matches_persisted_plan(self, engine):
        # planning is deterministic: a load at a different budget that
        # re-plans lands on the same splits the builder would persist
        t = 4
        engine.set_threads(t)
        fresh = ApplyPlan.build(engine._local, engine._fold, t)
        assert np.array_equal(fresh.local_splits, engine._plans[t].local_splits)
        assert np.array_equal(fresh.fold_splits, engine._plans[t].fold_splits)


# ---------------------------------------------------------------------------
# byte accounting
# ---------------------------------------------------------------------------


class TestByteAccounting:
    def test_nbytes_includes_plans(self, small_rmat):
        dist = DistSparseMatrix(small_rmat, make_layout("2d-block", small_rmat, 8))
        eng = dist.engine
        base = eng.nbytes
        plan_bytes = sum(p.nbytes for p in eng._plans.values())
        assert plan_bytes > 0
        raw = eng._slot_rank.nbytes + sum(
            op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
            for op in (eng._local, eng._fold)
        )
        assert base == raw + plan_bytes
        # a second cached budget grows the accounted footprint
        eng.set_threads(8)
        assert eng.nbytes > base

    def test_abft_bytes_counts_all_three_operators_and_blocks(self, small_rmat):
        dist = DistSparseMatrix(small_rmat, make_layout("2d-block", small_rmat, 8))
        eng = dist.engine
        eng.set_threads(4)
        assert eng.abft_bytes == 0
        before = eng.nbytes
        x = np.random.default_rng(0).standard_normal(eng.n)
        _, p = eng.spmv_with_partials(x)
        eng.abft_check(x, p)
        S, E, Eabs = eng._abft
        op_bytes = sum(
            op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
            for op in (S, E, Eabs)
        )
        assert eng.abft_bytes >= op_bytes  # + the checksum-row plan
        assert eng.nbytes == before + eng.abft_bytes

    def test_plan_nbytes_counts_only_new_allocations(self, small_rmat):
        dist = DistSparseMatrix(small_rmat, make_layout("1d-block", small_rmat, 4))
        eng = dist.engine
        plan = ApplyPlan.build(eng._local, eng._fold, 4)
        expected = plan.local_splits.nbytes + plan.fold_splits.nbytes
        for _, _, b in (*plan.local_blocks, *plan.fold_blocks):
            expected += b.indptr.nbytes
        assert plan.nbytes == expected


# ---------------------------------------------------------------------------
# oversubscription guard
# ---------------------------------------------------------------------------


def _report_worker_env(_item):
    import repro.runtime.threads as worker_thr

    return (
        os.environ.get("OMP_NUM_THREADS"),
        os.environ.get("OPENBLAS_NUM_THREADS"),
        os.environ.get("REPRO_THREADS"),
        worker_thr.default_threads(),
    )


class TestOversubscriptionGuard:
    def test_parallel_map_workers_pin_threads_to_one(self):
        from repro.parallel import parallel_map

        for omp, blas, rt, budget in parallel_map(
            _report_worker_env, [0, 1], jobs=2
        ):
            assert omp == "1" and blas == "1" and rt == "1"
            assert budget == 1

    def test_resilient_pool_workers_pin_threads_to_one(self):
        from repro.parallel import ResilientPool

        pool = ResilientPool(max_workers=1, mp_context="spawn")
        try:
            report = pool.run(_report_worker_env, timeout=120.0)
        finally:
            pool.shutdown()
        assert report[:3] == ("1", "1", "1") and report[3] == 1
