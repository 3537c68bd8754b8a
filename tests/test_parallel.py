"""Parallel execution layer: bit-identity, cache safety, subtree seeds.

The contract under test is absolute: at any job count, every public
entry point produces output bit-identical to its inline run. There is one
RB tree walker and one partition recipe; an executor only changes where
their tasks run and in which order they land — if any of these tests
fails, scheduling has leaked into results.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from concurrent.futures import Future, ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

from repro.bench.harness import atomic_save_npy, cached_rpart, default_cache_dir, spmv_grid
from repro.parallel import parallel_map, resolve_jobs
from repro.partitioning import PARTITION_METHODS, _util, kway, partition_matrix
from repro.partitioning._util import child_seeds, walk_rb
from repro.partitioning.partgraph import PartGraph
from repro.regress import GridSpec, check_goldens, generate_goldens


# ---------------------------------------------------------------------------
# helpers / plumbing
# ---------------------------------------------------------------------------


def test_resolve_jobs():
    assert resolve_jobs(None) == 1
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(0) == max(os.cpu_count() or 1, 1)


def test_parallel_map_order_and_serial_fallback():
    items = list(range(7))
    assert parallel_map(str, items, jobs=None) == [str(i) for i in items]
    assert parallel_map(str, items, jobs=3) == [str(i) for i in items]
    assert parallel_map(str, [], jobs=3) == []


def test_parallel_map_accepts_external_executor():
    with ProcessPoolExecutor(max_workers=2) as pool:
        assert parallel_map(abs, [-3, -1, -2], executor=pool) == [3, 1, 2]


# ---------------------------------------------------------------------------
# subtree seeds
# ---------------------------------------------------------------------------


def test_child_seeds_is_heap_walk():
    assert child_seeds(0) == (1, 2)
    assert child_seeds(5) == (11, 12)


def test_child_seeds_rejects_seedsequence():
    with pytest.raises(TypeError):
        child_seeds(np.random.SeedSequence(3))


# ---------------------------------------------------------------------------
# completion order cannot leak (no processes: a fake executor picks the order)
# ---------------------------------------------------------------------------


class _HeldFuture(Future):
    """A submitted task that runs only when someone lands it."""

    def __init__(self, fn, args):
        super().__init__()
        self._task = (fn, args)

    def land(self):
        fn, args = self._task
        self.set_result(fn(*args))

    def result(self, timeout=None):
        if not self.done():
            self.land()
        return super().result(timeout)


class HeldExecutor:
    """Executor double: holds every submitted task; :meth:`wait` (patched in
    for the walker's ``concurrent.futures.wait``) lands exactly one of the
    pending tasks, the one ``pick(n_pending)`` indexes."""

    def __init__(self, pick):
        self.pick = pick

    def submit(self, fn, *args):
        return _HeldFuture(fn, args)

    def wait(self, fs, return_when=None):
        fut = fs[self.pick(len(fs))]
        fut.land()
        return {fut}, set(fs) - {fut}


def _newest_first(n):
    return n - 1


def _held(monkeypatch, pick) -> HeldExecutor:
    fake = HeldExecutor(pick)
    monkeypatch.setattr(_util, "wait", fake.wait)
    return fake


def test_held_executor_really_reorders_the_walk(small_rmat, monkeypatch):
    g = PartGraph.from_matrix(small_rmat, vertex_weights="nnz")

    def recorded(landed):
        def node(sub, *args):
            landed.append(sub.n)
            return kway._split(sub, *args)
        return node

    inline, reordered = [], []
    ref = walk_rb(recorded(inline), g, 8, 1.10, 3)
    got = walk_rb(recorded(reordered), g, 8, 1.10, 3, _held(monkeypatch, _newest_first))
    # depth-first lands r, r0, r00, r01, r1, r10, r11; newest-first lands
    # r, r1, r11, r10, r0, r01, r00
    assert reordered == [inline[i] for i in (0, 4, 6, 5, 1, 3, 2)] != inline
    assert np.array_equal(ref, got)


@pytest.mark.parametrize("order", ["reversed", "shuffled"])
@pytest.mark.parametrize("k", [1, 4, 6, 8])  # 6 = uneven split
@pytest.mark.parametrize("method", PARTITION_METHODS)
def test_completion_order_cannot_leak(small_rmat, monkeypatch, method, k, order):
    rng = np.random.default_rng(k)
    pick = _newest_first if order == "reversed" else (lambda n: int(rng.integers(n)))
    ref = partition_matrix(small_rmat, k, method=method, seed=2)
    got = partition_matrix(
        small_rmat, k, method=method, seed=2, executor=_held(monkeypatch, pick)
    )
    assert np.array_equal(ref.part, got.part)
    assert (ref.edgecut, ref.imbalance) == (got.edgecut, got.imbalance)


# ---------------------------------------------------------------------------
# process-pool bit-identity
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def pool2():
    with ProcessPoolExecutor(max_workers=2) as pool:
        yield pool


@pytest.mark.parametrize(
    "fixture,method,k,seed",
    [("small_rmat", "gp", 8, 3), ("small_grid", "gp-mc", 6, 1), ("small_powerlaw", "hp", 4, 5)],
)
def test_partition_matrix_jobs_bit_identical(request, fixture, method, k, seed):
    A = request.getfixturevalue(fixture)
    ser = partition_matrix(A, k, method=method, seed=seed)
    par = partition_matrix(A, k, method=method, seed=seed, jobs=2)
    assert np.array_equal(ser.part, par.part)
    assert (ser.edgecut, ser.imbalance) == (par.edgecut, par.imbalance)


@pytest.mark.parametrize("method", PARTITION_METHODS)
def test_partition_matrix_shared_executor(small_rmat, pool2, method):
    ser = partition_matrix(small_rmat, 4, method=method, seed=2)
    par = partition_matrix(small_rmat, 4, method=method, seed=2, executor=pool2)
    assert np.array_equal(ser.part, par.part), method


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "kind,nparts,match",
    [("nope", 4, "unknown method"), ("hp-mc", 4, "multiconstraint"), ("gp", 0, "nparts")],
)
def test_parallel_sweep_raises_what_partition_matrix_raises(small_rmat, jobs, kind, nparts, match):
    """A bad request must fail the call at every job count, never be
    partitioned as something else: the pooled path raises what the inline
    path raises."""
    with pytest.raises(ValueError, match=match):
        partition_matrix(small_rmat, nparts, method=kind, jobs=jobs)


def _star(n: int) -> sp.csr_matrix:
    A = sp.coo_matrix((np.ones(n - 1), (np.zeros(n - 1, dtype=int), np.arange(1, n))),
                      shape=(n, n))
    return sp.csr_matrix(A + A.T)


@pytest.mark.parametrize(
    "A,k",
    [(_star(5), 8), (_star(40), 4), (sp.csr_matrix((12, 12)), 4)],
    ids=["nparts>n", "star", "no-edges"],
)
@pytest.mark.parametrize("method", PARTITION_METHODS)
def test_degenerate_inputs_inline_and_pooled(pool2, monkeypatch, A, k, method):
    ref = partition_matrix(A, k, method=method, seed=1).part
    assert ref.shape == (A.shape[0],) and ref.min() >= 0 and ref.max() < k
    pooled = partition_matrix(A, k, method=method, seed=1, executor=pool2).part
    assert np.array_equal(ref, pooled)
    held = _held(monkeypatch, _newest_first)
    assert np.array_equal(ref, partition_matrix(A, k, method=method, seed=1, executor=held).part)


@pytest.mark.parametrize(
    "name,method",
    [("hollywood-2009", "gp"), ("rmat_22", "hp")],
)
def test_parallel_rb_bit_identical_on_corpus(name, method):
    """Corpus-scale spot check: one matrix per partitioner path, at a
    modest k so the whole test stays in tens of seconds."""
    from repro.generators.corpus import load_corpus_matrix

    A = load_corpus_matrix(name)
    ser = partition_matrix(A, 8, method=method, seed=0)
    par = partition_matrix(A, 8, method=method, seed=0, jobs=2)
    assert np.array_equal(ser.part, par.part)


# ---------------------------------------------------------------------------
# concurrency-safe partition cache
# ---------------------------------------------------------------------------


def _racing_writer(A_data, A_indices, A_indptr, n, cache_dir: str) -> None:
    import scipy.sparse as sp

    A = sp.csr_matrix((A_data, A_indices, A_indptr), shape=(n, n))
    cached_rpart(A, "gp", 4, seed=0, cache_dir=Path(cache_dir))


def test_cache_race_two_processes(small_rmat, tmp_path):
    """Two uncoordinated writers of the same key leave one valid entry."""
    A = small_rmat
    args = (A.data, A.indices, A.indptr, A.shape[0], str(tmp_path))
    ctx = multiprocessing.get_context("spawn")
    procs = [ctx.Process(target=_racing_writer, args=args) for _ in range(2)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=240)
        assert p.exitcode == 0
    entries = list(tmp_path.glob("*_gp_k4_s0.npy"))
    assert len(entries) == 1
    assert not list(tmp_path.glob("*.tmp-*")), "tmp files must never survive"
    part = np.load(entries[0])
    assert np.array_equal(part, partition_matrix(A, 4, method="gp", seed=0).part)


def test_cached_rpart_torn_file_is_a_miss(small_rmat, tmp_path):
    ref = cached_rpart(small_rmat, "gp", 4, cache_dir=tmp_path)
    entry = next(tmp_path.glob("*_gp_k4_s0.npy"))
    entry.write_bytes(b"\x93NUMPY torn mid-write")
    again = cached_rpart(small_rmat, "gp", 4, cache_dir=tmp_path)
    assert np.array_equal(ref, again)


def test_cached_rpart_stale_length_is_a_miss(small_rmat, tmp_path):
    ref = cached_rpart(small_rmat, "gp", 4, cache_dir=tmp_path)
    entry = next(tmp_path.glob("*_gp_k4_s0.npy"))
    atomic_save_npy(entry, np.zeros(3, dtype=np.int64))
    again = cached_rpart(small_rmat, "gp", 4, cache_dir=tmp_path)
    assert np.array_equal(ref, again)


def test_atomic_save_creates_missing_dirs(tmp_path):
    path = tmp_path / "deep" / "er" / "x.npy"
    atomic_save_npy(path, np.arange(5))
    assert np.array_equal(np.load(path), np.arange(5))


def test_atomic_save_two_threads_one_entry(tmp_path, monkeypatch):
    """Two threads of one process writing one entry at once both land it.

    The server builds engines on worker threads, and the 1D and 2D
    layouts of one matrix share its rpart file; the barrier holds both
    writers inside ``np.save`` so both tmp files exist before either
    rename.
    """
    path = tmp_path / "x.npy"
    barrier = threading.Barrier(2, timeout=30)
    real_save = np.save

    def save_then_wait(f, arr):
        real_save(f, arr)
        barrier.wait()

    monkeypatch.setattr(np, "save", save_then_wait)
    errors = []

    def write(value):
        try:
            atomic_save_npy(path, np.full(4, value))
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=write, args=(v,)) for v in (1, 2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert np.load(path).tolist() in ([1] * 4, [2] * 4)
    assert not list(tmp_path.glob("*.tmp-*")), "tmp files must never survive"


def test_cached_rpart_jobs_hits_same_cache_entry(small_rmat, tmp_path):
    ser = cached_rpart(small_rmat, "gp", 4, cache_dir=tmp_path)
    (next(tmp_path.glob("*_gp_k4_s0.npy"))).unlink()
    par = cached_rpart(small_rmat, "gp", 4, cache_dir=tmp_path, jobs=2)
    assert np.array_equal(ser, par)


def test_default_cache_dir_honors_env(tmp_path, monkeypatch):
    target = tmp_path / "scratch" / "cache"
    monkeypatch.setenv("REPRO_CACHE_DIR", str(target))
    assert default_cache_dir() == target
    assert target.is_dir()


# ---------------------------------------------------------------------------
# sweep fan-out bit-identity
# ---------------------------------------------------------------------------


def test_spmv_grid_jobs_identical(small_rmat, small_grid, tmp_path):
    mats = {"r": small_rmat, "g": small_grid}
    kw = dict(methods=["1d-block", "2d-gp"], procs=(4, 8))
    ser = spmv_grid(mats, cache_dir=tmp_path / "s", **kw)
    par = spmv_grid(mats, cache_dir=tmp_path / "p", jobs=2, **kw)
    assert ser == par


def test_regress_jobs_identical(small_rmat, small_powerlaw, tmp_path):
    mats = {"r": small_rmat, "p": small_powerlaw}
    spec = GridSpec(matrices=("r", "p"), procs=(4,), methods=("1d-gp", "2d-gp"))
    gdir = tmp_path / "golden"
    generate_goldens(spec, gdir, cache_dir=tmp_path / "c1", matrices=mats, jobs=2)
    gdir2 = tmp_path / "golden2"
    generate_goldens(spec, gdir2, cache_dir=tmp_path / "c2", matrices=mats)
    for name in mats:
        assert (gdir / f"{name}.json").read_bytes() == (gdir2 / f"{name}.json").read_bytes()
    mism, ncells = check_goldens(
        spec, gdir, cache_dir=tmp_path / "c3", matrices=mats, jobs=2
    )
    assert mism == [] and ncells == 4
