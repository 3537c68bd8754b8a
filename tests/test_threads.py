"""Tests for the thread-parallel engine apply (:mod:`repro.runtime.threads`).

Three contracts:

* the row-split primitive is **bottleneck-optimal, covering, disjoint,
  and deterministic** over every degenerate shape (empty rows, one giant
  hub row, fewer nnz than threads, one thread) — hypothesis hammers it;
* the threaded apply is **bit-identical** to the serial fused multiply a
  budget of 1 runs (``np.array_equal``, not a tolerance) for
  spmv/spmm/partials/fold at any thread count, including on an
  engine loaded from the artifact store; a budget of 1 plans nothing and
  never touches the pool, and ``set_threads`` takes only integers >= 1;
* the accounting is honest: a serial engine's ``nbytes`` is its two
  operators, a budget above 1 adds exactly its plan, and process-pool
  workers pin BLAS/OpenMP to one thread.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.layouts import make_layout
from repro.runtime import DistSparseMatrix
from repro.runtime import threads as thr
from repro.runtime.store import EngineKey, EngineStore, matrix_hash
from repro.runtime.threads import ApplyPlan, balanced_row_splits, block_nnz


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
# threaded kernel bit-identity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def engine(request):
    A = request.getfixturevalue("small_powerlaw")
    dist = DistSparseMatrix(A, make_layout("2d-gp", A, 12, seed=2))
    return dist.engine


class TestThreadedBitIdentity:
    @pytest.mark.parametrize("t", [1, 2, 4, 8])
    def test_spmv_spmm_partials(self, engine, t):
        rng = np.random.default_rng(t)
        x = rng.standard_normal(engine.n)
        X = rng.standard_normal((engine.n, 5))
        engine.set_threads(1)  # the serial oracle: one fused multiply per operator
        y0 = engine.spmv(x)
        Y0 = engine.spmm(X)
        yp0, p0 = engine.spmv_with_partials(x)
        engine.set_threads(t)
        assert engine.threads == t
        assert np.array_equal(engine.spmv(x), y0)
        assert np.array_equal(engine.spmm(X), Y0)
        yp, p = engine.spmv_with_partials(x)
        assert np.array_equal(yp, yp0)
        assert np.array_equal(p, p0)
        assert np.array_equal(engine.fold(p), yp0)

    def test_budget_of_one_runs_the_fused_path(self, engine, monkeypatch):
        def no_pool(*_):
            raise AssertionError("run_blocks called")

        monkeypatch.setattr(thr, "run_blocks", no_pool)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(engine.n)
        X = rng.standard_normal((engine.n, 3))
        engine.set_threads(8)
        with pytest.raises(AssertionError, match="run_blocks"):
            engine.spmv(x)  # the patch is live at budgets above 1
        engine.set_threads(1)
        assert engine._plan is None
        engine.spmv(x)
        engine.spmm(X)
        _, p = engine.spmv_with_partials(x)
        engine.fold(p)

    def test_fresh_engines_are_serial(self, small_rmat):
        dist = DistSparseMatrix(small_rmat, make_layout("2d-block", small_rmat, 8))
        assert dist.engine.threads == 1
        assert dist.engine._plan is None

    @pytest.mark.parametrize("bad", [0, -3, 2.7, None, "2", True])
    def test_set_threads_rejects_non_integers(self, engine, bad):
        engine.set_threads(2)
        with pytest.raises(ValueError):
            engine.set_threads(bad)
        assert engine.threads == 2  # a rejected budget changes nothing
        assert engine.set_threads(np.int64(1)) == 1

    def test_block_views_share_parent_buffers(self, engine):
        engine.set_threads(4)
        for _, _, block in engine._plan.local_blocks:
            if block.nnz:
                assert block.data.base is not None  # view, not a copy

    def test_store_loaded_engine_bit_identical(
        self, engine, small_powerlaw, tmp_path
    ):
        key = EngineKey(matrix_hash(small_powerlaw), "2d-gp", 12, 2)
        store = EngineStore(tmp_path)
        store.save(key, engine)
        loaded = store.load(key)
        assert loaded is not None and loaded.mmapped
        rng = np.random.default_rng(11)
        x = rng.standard_normal(engine.n)
        X = rng.standard_normal((engine.n, 4))
        engine.set_threads(1)
        y0, Y0 = engine.spmv(x), engine.spmm(X)
        assert loaded.engine.threads == 1
        for t in (1, 2):
            loaded.engine.set_threads(t)
            assert np.array_equal(loaded.engine.spmv(x), y0)
            assert np.array_equal(loaded.engine.spmm(X), Y0)


# ---------------------------------------------------------------------------
# byte accounting
# ---------------------------------------------------------------------------


def _op_bytes(*ops) -> int:
    return sum(op.data.nbytes + op.indices.nbytes + op.indptr.nbytes for op in ops)


class TestByteAccounting:
    @pytest.fixture
    def built_and_loaded(self, small_rmat, tmp_path):
        dist = DistSparseMatrix(small_rmat, make_layout("2d-block", small_rmat, 8))
        key = EngineKey(matrix_hash(small_rmat), "2d-block", 8, 0)
        store = EngineStore(tmp_path)
        store.save(key, dist.engine)
        loaded = store.load(key)
        assert loaded is not None and loaded.mmapped
        return dist.engine, loaded.engine

    def test_serial_nbytes_is_the_two_operators(self, built_and_loaded):
        for eng in built_and_loaded:
            assert eng.nbytes == _op_bytes(eng._local, eng._fold)

    def test_set_threads_adds_exactly_the_plan(self, built_and_loaded):
        for eng in built_and_loaded:
            base = eng.nbytes
            eng.set_threads(2)
            assert eng._plan.nbytes > 0
            assert eng.nbytes == base + eng._plan.nbytes
            eng.set_threads(1)
            assert eng.nbytes == base

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


#: thread-count getters an OpenBLAS build may export (reference name,
#: then the prefixed / 64-bit-integer builds numpy and scipy wheels ship)
_OPENBLAS_GETTERS = (
    "openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "scipy_openblas_get_num_threads64_",
)


def _openblas_thread_counts(_item) -> dict[str, int]:
    """Thread count of every OpenBLAS mapped into this worker, by file."""
    import ctypes

    import scipy.linalg  # noqa: F401  (maps scipy's own OpenBLAS too)

    with open("/proc/self/maps") as maps:
        fields = [line.split(maxsplit=5) for line in maps]
    paths = {f[5].strip() for f in fields if len(f) == 6}
    counts = {}
    for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
        lib = ctypes.CDLL(path)
        for name in _OPENBLAS_GETTERS:
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                counts[os.path.basename(path)] = getter()
                break
    return counts


def _assert_pinned(counts: dict[str, int]) -> None:
    if not counts:
        pytest.skip("no OpenBLAS loaded in the worker")
    assert counts == dict.fromkeys(counts, 1)


@pytest.mark.skipif(
    not os.path.exists("/proc/self/maps"), reason="needs /proc/self/maps"
)
class TestOversubscriptionGuard:
    """Pool workers run every loaded OpenBLAS on one thread, not just
    with the environment pinned: numpy has loaded its OpenBLAS before a
    worker's initializer runs, under every start method."""

    def test_parallel_map_workers_pin_threads_to_one(self):
        from repro.parallel import parallel_map

        for counts in parallel_map(_openblas_thread_counts, [0, 1], jobs=2):
            _assert_pinned(counts)

    def test_resilient_pool_workers_pin_threads_to_one(self):
        from repro.parallel import ResilientPool

        pool = ResilientPool(max_workers=1)
        try:
            counts = pool.run(_openblas_thread_counts, timeout=120.0)
        finally:
            pool.shutdown()
        _assert_pinned(counts)
