"""Experiment harness: (matrix x layout x process-count) sweeps.

Reproduces the paper's experimental procedure:

* partitioning is a cached pre-processing step ("graph/hypergraph
  partitioning was done as a pre-processing step... partitions might be
  reused for several analyses") — rpart vectors are cached on disk keyed
  by matrix content hash, partitioner code, method, part count and seed;
* for GP/HP methods the same rpart feeds both the 1D and 2D layout of a
  cell ("We used the same row-based graph or hypergraph partition rpart
  for 1D-GP/HP and for 2D-GP/HP");
* recursive-bisection partitions nest across power-of-two part counts, so
  a scaling study partitions once at the largest p and derives the rest;
* process counts are scaled from the paper's 64..16384 to 4..1024
  (matching the ~1/250 matrix-size scaling of the proxy corpus).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..generators.corpus import corpus_spec, load_corpus_matrix
from ..graphs.csr import as_csr
from ..layouts import make_layout
from ..layouts.base import Layout
from ..partitioning import PARTITION_METHODS, partition_matrix
from ..partitioning.api import _repair
from ..partitioning.kway import derive_nested_partition
from ..runtime import CAB, CommStats, DistSparseMatrix, MachineModel, comm_stats
from ..runtime.store import (
    EngineKey,
    _atomic_write,
    code_fingerprint,
    default_cache_dir,
    evict_other_generations,
    matrix_hash,
)

__all__ = [
    "PAPER_TO_PROXY_PROCS",
    "PROXY_PROCS",
    "SpmvRecord",
    "default_cache_dir",
    "atomic_save_npy",
    "rpart_cache_path",
    "load_cached_rpart",
    "cached_rpart",
    "layout_for",
    "engine_store_key",
    "run_spmv_cell",
    "spmv_grid",
    "gp_or_hp",
]

#: Paper process counts -> proxy process counts (scaled with matrix size).
PAPER_TO_PROXY_PROCS = {64: 4, 256: 16, 1024: 64, 4096: 256, 16384: 1024}

#: The standard strong-scaling sweep (paper: 64, 256, 1024, 4096).
PROXY_PROCS = (4, 16, 64, 256)


def atomic_save_npy(path: Path, arr: np.ndarray) -> None:
    """Write an .npy file atomically (tmp file + ``os.replace``).

    Concurrent writers of the same key — processes or threads — each
    write a distinct tmp file and race only on the atomic rename, so
    readers can never observe a torn file. ``np.save`` gets an open
    handle because it appends ``.npy`` to bare path names.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    _atomic_write(path, lambda f: np.save(f, arr))


def rpart_cache_path(
    mhash: str, kind: str, nparts: int, seed: int, cache_dir: Path | None = None
) -> Path:
    """Where the rpart of (matrix content hash, kind, nparts, seed) is cached.

    Entries are keyed by partitioner kind ("gp"), not layout method
    ("2d-gp"): the 1D and 2D layouts of a cell share one partition. The
    name also carries a fingerprint of the partitioner's source
    (``partitioning/`` and the ``graphs/`` it imports), so code that
    partitions differently never reads an older code's partitions.
    """
    cache_dir = cache_dir if cache_dir is not None else default_cache_dir()
    fp = code_fingerprint("partitioning", "graphs")
    return cache_dir / f"{mhash}_{fp}_{kind}_k{nparts}_s{seed}.npy"


def load_cached_rpart(path: Path, n: int) -> np.ndarray | None:
    """Double-checked cache read: a missing/unreadable/stale file is a miss."""
    try:
        part = np.load(path)
    except (OSError, ValueError, EOFError):
        return None
    if part.ndim != 1 or len(part) != n:
        return None
    return part.astype(np.int64)


def cached_rpart(
    A,
    kind: str,
    nparts: int,
    seed: int = 0,
    cache_dir: Path | None = None,
    nested_from: int | None = None,
    jobs: int | None = None,
    executor=None,
) -> np.ndarray:
    """Partition with on-disk caching; optionally derive from a finer one.

    ``nested_from`` (a power-of-two multiple of *nparts*) makes this call
    partition at that finer count — hitting its cache entry — and coarsen
    by the RB nesting property, which is how the scaling benches amortise
    one partitioner run over a whole sweep.

    The cache is safe under concurrent writers: entries land via atomic
    rename and reads treat torn or stale files as misses. ``jobs``/
    ``executor`` parallelise a cache-miss partitioner run
    (:mod:`repro.parallel`) without changing the cached bits.
    """
    if nested_from is not None and nested_from != nparts:
        fine = cached_rpart(
            A, kind, nested_from, seed=seed, cache_dir=cache_dir,
            jobs=jobs, executor=executor,
        )
        part = derive_nested_partition(fine, nested_from, nparts)
        # the RB tree balanced each level to its own tolerance; grouping
        # leaves compounds those errors (and hub granularity at the fine
        # level disappears at the coarse one), so repair at the target k,
        # the way partition_matrix itself repairs this kind at its default ub
        return _repair(A, kind, part, nparts, 1.10)[0]
    path = rpart_cache_path(matrix_hash(A), kind, nparts, seed, cache_dir)
    part = load_cached_rpart(path, A.shape[0])
    if part is not None:
        return part
    part = partition_matrix(
        A, nparts, method=kind, seed=seed, jobs=jobs, executor=executor
    ).part
    atomic_save_npy(path, part)
    evict_other_generations(path)
    return part


def gp_or_hp(matrix_name: str, dim: str) -> str:
    """The paper's per-matrix GP-vs-HP choice, as a layout method name.

    ``dim`` is "1d" or "2d". E.g. uk-2005 used hypergraph partitioning,
    com-orkut used graph partitioning (Table 2's "(GP)"/"(HP)" labels).
    """
    kind = corpus_spec(matrix_name).partitioner
    return f"{dim}-{kind}"


def layout_for(
    A,
    method: str,
    nprocs: int,
    seed: int = 0,
    cache_dir: Path | None = None,
    nested_from: int | None = None,
    orientation: str = "fixed",
) -> Layout:
    """Build a layout, routing partitioner-based rpart through the cache."""
    method = method.lower()
    _, _, kind = method.partition("-")
    rpart = None
    if kind in PARTITION_METHODS:
        rpart = cached_rpart(
            A, kind, nprocs, seed=seed, cache_dir=cache_dir, nested_from=nested_from
        )
    return make_layout(method, A, nprocs, seed=seed, rpart=rpart, orientation=orientation)


@dataclass(frozen=True)
class SpmvRecord:
    """One cell of the paper's Table 2 grid."""

    matrix: str
    method: str  # display name, e.g. "2D-GP"
    nprocs: int
    #: modeled seconds for 100 SpMV operations (the paper's reported unit)
    time100: float
    stats: CommStats
    #: max |y_dist - y_scipy| from the validation multiply (nan if skipped)
    validation_error: float


def engine_store_key(A, method: str, nprocs: int, seed: int = 0) -> EngineKey:
    """The :class:`EngineKey` a cell's compiled engine stores under."""
    return EngineKey(matrix_hash(A), method.lower(), nprocs, seed)


def run_spmv_cell(
    A,
    matrix_name: str,
    method: str,
    nprocs: int,
    machine: MachineModel = CAB,
    seed: int = 0,
    cache_dir: Path | None = None,
    nested_from: int | None = None,
    validate: bool | None = None,
    orientation: str = "fixed",
) -> SpmvRecord:
    """Evaluate one (matrix, layout, p) cell.

    ``validate=None`` auto-enables the real four-phase multiply check for
    p <= 64 (the data movement is identical in structure at higher p; the
    check is skipped there only to keep sweep time down).
    """
    layout = layout_for(
        A, method, nprocs, seed=seed, cache_dir=cache_dir,
        nested_from=nested_from, orientation=orientation,
    )
    dist = DistSparseMatrix(A, layout, machine)
    stats = comm_stats(dist)
    if validate is None:
        validate = nprocs <= 64
    err = float("nan")
    if validate:
        rng = np.random.default_rng(12345)
        x = rng.standard_normal(A.shape[0])
        err = float(np.abs(dist.spmv(x) - A @ x).max())
    return SpmvRecord(
        matrix=matrix_name,
        method=layout.name,
        nprocs=nprocs,
        time100=dist.modeled_spmv_seconds(100),
        stats=stats,
        validation_error=err,
    )


def _spmv_cell_task(args: tuple) -> SpmvRecord:
    """One (matrix, method, p) cell — the ``repro spmv`` CLI fan-out unit.

    Concurrent methods may race to create the same cached rpart on a cold
    cache; the atomic writer makes that a benign duplicated computation,
    never a torn read.
    """
    A, name, method, p, seed, cache_dir = args
    return run_spmv_cell(A, name, method, p, seed=seed, cache_dir=cache_dir)


def _matrix_grid_task(args: tuple) -> list[SpmvRecord]:
    """One matrix's full (p x method) grid column — the spmv_grid fan-out
    unit. Module-level so it pickles into pool workers; each worker reuses
    the shared partition cache (one deep rpart per method serves every p
    via nesting), so concurrent columns do not repeat partitioner work.
    """
    name, A, methods, procs, machine, seed, cache_dir = args
    A = as_csr(A)
    records: list[SpmvRecord] = []
    pmax = max(procs)
    for p in procs:
        for method in methods:
            nested_from = pmax if p != pmax else None
            records.append(
                run_spmv_cell(
                    A, name, method, p, machine=machine, seed=seed,
                    cache_dir=cache_dir, nested_from=nested_from,
                )
            )
    return records


def spmv_grid(
    matrices: dict[str, object] | list[str],
    methods: list[str],
    procs: tuple[int, ...] = PROXY_PROCS,
    machine: MachineModel = CAB,
    seed: int = 0,
    cache_dir: Path | None = None,
    jobs: int | None = None,
) -> list[SpmvRecord]:
    """Run the full sweep; matrices may be corpus names or name->matrix.

    Every process count below ``max(procs)`` derives its partition from
    the ``max(procs)`` one by recursive-bisection nesting.

    ``jobs`` fans matrices across a process pool (cells within a matrix
    share cached partitions, so the matrix is the natural grain). Record
    order and contents are identical to the serial sweep.
    """
    if isinstance(matrices, list):
        matrices = {name: load_corpus_matrix(name) for name in matrices}
    if jobs is not None and cache_dir is None:
        # workers must agree on one cache directory even if the pool was
        # forked before the caller exported $REPRO_CACHE_DIR
        cache_dir = default_cache_dir()
    tasks = [
        (name, as_csr(A), methods, procs, machine, seed, cache_dir)
        for name, A in matrices.items()
    ]
    from ..parallel import parallel_map

    per_matrix = parallel_map(_matrix_grid_task, tasks, jobs=jobs)
    return [rec for column in per_matrix for rec in column]
