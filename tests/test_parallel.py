"""Parallel execution layer: bit-identity, cache safety, seed schemes.

The contract under test is absolute: at any job count, every public
entry point produces output bit-identical to its serial reference.
Parallelism is an execution detail — if any of these tests fails, the
process-pool layer has leaked scheduling into results.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.bench.harness import atomic_save_npy, cached_rpart, default_cache_dir, spmv_grid
from repro.parallel import (
    parallel_hypergraph_recursive_bisection,
    parallel_map,
    parallel_partition_sweep,
    parallel_recursive_bisection,
    resolve_jobs,
    schedule_makespan,
)
from repro.partitioning import partition_matrix
from repro.partitioning._util import child_seeds
from repro.partitioning.hkway import hypergraph_recursive_bisection
from repro.partitioning.hypergraph import Hypergraph
from repro.partitioning.kway import recursive_bisection
from repro.partitioning.partgraph import PartGraph
from repro.regress import GridSpec, check_goldens, generate_goldens
from repro.runtime import FaultPlan
from repro.runtime.faults import fault_campaign


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
# parallel RB bit-identity
# ---------------------------------------------------------------------------


def test_parallel_rb_bit_identical_gp(small_rmat):
    g = PartGraph.from_matrix(small_rmat, vertex_weights="nnz")
    ser = recursive_bisection(g, 8, ub=1.10, seed=3)
    par = parallel_recursive_bisection(g, 8, ub=1.10, seed=3, jobs=3)
    assert np.array_equal(ser, par)


def test_parallel_rb_bit_identical_gp_mc(small_grid):
    g = PartGraph.from_matrix(small_grid, vertex_weights=("unit", "nnz"))
    ser = recursive_bisection(g, 6, ub=1.10, seed=1)
    par = parallel_recursive_bisection(g, 6, ub=1.10, seed=1, jobs=2)
    assert np.array_equal(ser, par)


def test_parallel_rb_bit_identical_hp(small_powerlaw):
    hg = Hypergraph.from_matrix_column_net(small_powerlaw, vertex_weights="nnz")
    ser = hypergraph_recursive_bisection(hg, 4, ub=1.10, seed=5)
    par = parallel_hypergraph_recursive_bisection(hg, 4, ub=1.10, seed=5, jobs=2)
    assert np.array_equal(ser, par)


def test_parallel_rb_serial_fallback_is_reference(small_rmat):
    # jobs=None/1 must not even spin up a pool — identical by construction
    g = PartGraph.from_matrix(small_rmat, vertex_weights="nnz")
    assert np.array_equal(
        parallel_recursive_bisection(g, 8, seed=2, jobs=None),
        recursive_bisection(g, 8, seed=2),
    )


def test_parallel_rb_shared_executor(small_rmat):
    g = PartGraph.from_matrix(small_rmat, vertex_weights="nnz")
    ser = recursive_bisection(g, 4, seed=0)
    with ProcessPoolExecutor(max_workers=2) as pool:
        par = parallel_recursive_bisection(g, 4, seed=0, executor=pool)
    assert np.array_equal(ser, par)


def test_partition_matrix_jobs_bit_identical(small_rmat):
    for method in ("gp", "hp", "gp-mc"):
        ser = partition_matrix(small_rmat, 4, method=method, seed=2)
        par = partition_matrix(small_rmat, 4, method=method, seed=2, jobs=2)
        assert np.array_equal(ser.part, par.part), method


@pytest.mark.parametrize(
    "name,method",
    [("hollywood-2009", "gp"), ("rmat_22", "hp")],
)
def test_parallel_rb_bit_identical_on_corpus(name, method):
    """Corpus-scale spot check of the identity the bench proves in full.

    One matrix per partitioner path, at a modest k so the whole test stays
    in tens of seconds; ``benchmarks/bench_partition_parallel.py`` asserts
    the same bit-identity for all ten corpus matrices at p=64.
    """
    from repro.generators.corpus import load_corpus_matrix

    A = load_corpus_matrix(name)
    ser = partition_matrix(A, 8, method=method, seed=0)
    par = partition_matrix(A, 8, method=method, seed=0, jobs=2)
    assert np.array_equal(ser.part, par.part)


def test_parallel_sweep_matches_partition_matrix(small_rmat, small_grid):
    specs = [("r_gp", small_rmat, "gp", 8), ("g_hp", small_grid, "hp", 4)]
    trace: list = []
    out = parallel_partition_sweep(specs, jobs=2, seed=1, trace=trace)
    for name, A, kind, k in specs:
        ref = partition_matrix(A, k, method=kind, seed=1).part
        assert np.array_equal(out[name], ref), name
    # trace covers build + tree + refine for both matrices, DAG is replayable
    ids = {t["id"] for t in trace}
    assert {"r_gp:build", "r_gp:r", "r_gp:refine", "g_hp:build", "g_hp:refine"} <= ids
    assert schedule_makespan(trace, 2) <= schedule_makespan(trace, 1)


def test_parallel_sweep_serial_path(small_rmat):
    out = parallel_partition_sweep([("m", small_rmat, "gp", 4)], jobs=1, seed=0)
    ref = partition_matrix(small_rmat, 4, method="gp", seed=0).part
    assert np.array_equal(out["m"], ref)


# ---------------------------------------------------------------------------
# schedule replay
# ---------------------------------------------------------------------------


def test_schedule_makespan_chain_and_fanout():
    chain = [
        {"id": "a", "deps": [], "cpu": 1.0},
        {"id": "b", "deps": ["a"], "cpu": 1.0},
        {"id": "c", "deps": ["b"], "cpu": 1.0},
    ]
    assert schedule_makespan(chain, 4) == pytest.approx(3.0)
    fan = [{"id": f"t{i}", "deps": [], "cpu": 1.0} for i in range(4)]
    assert schedule_makespan(fan, 1) == pytest.approx(4.0)
    assert schedule_makespan(fan, 4) == pytest.approx(1.0)
    assert schedule_makespan(fan, 2) == pytest.approx(2.0)


def test_schedule_makespan_rejects_bad_traces():
    with pytest.raises(ValueError, match="workers"):
        schedule_makespan([], 0)
    with pytest.raises(ValueError, match="duplicate"):
        schedule_makespan([{"id": "a", "deps": [], "cpu": 1}] * 2, 1)
    with pytest.raises(ValueError, match="unknown dependencies"):
        schedule_makespan([{"id": "a", "deps": ["ghost"], "cpu": 1}], 1)
    cyc = [
        {"id": "a", "deps": ["b"], "cpu": 1},
        {"id": "b", "deps": ["a"], "cpu": 1},
    ]
    with pytest.raises(ValueError, match="cycle"):
        schedule_makespan(cyc, 1)
    assert schedule_makespan([], 1) == 0.0


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


def test_fault_campaign_jobs_identical(small_rmat, tmp_path):
    from repro.bench.harness import layout_for

    layouts = [
        layout_for(small_rmat, m, 8, cache_dir=tmp_path)
        for m in ("1d-block", "2d-block", "2d-gp")
    ]
    plan = FaultPlan.from_rates(8, 40, seed=1, failstop_rate=0.05, corruption_rate=0.02)
    assert fault_campaign(small_rmat, layouts, plan) == fault_campaign(
        small_rmat, layouts, plan, jobs=2
    )
