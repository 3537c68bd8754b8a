"""Eigensolver experiment harness (paper section 5.3, Tables 4-5, Fig 9).

Runs the Krylov-Schur solve once per (matrix, start vector) through the
record-and-replay costing (see :mod:`repro.solvers.replay` — the Krylov
trajectory is layout-independent, so re-running numerics per layout would
be redundant), then prices the recorded op tally under every layout and
process count, averaging over several random starts exactly as the paper
averages ten solves.
"""

from __future__ import annotations

import zipfile
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from ..generators.corpus import load_corpus_matrix
from ..graphs.csr import as_csr
from ..graphs.ops import normalized_laplacian
from ..runtime import CAB, CommStats, DistSparseMatrix, MachineModel, comm_stats
from ..runtime.store import (
    _atomic_write,
    code_fingerprint,
    default_cache_dir,
    evict_other_generations,
    matrix_hash,
)
from ..solvers.replay import SolveProfile, modeled_solve_seconds, solve_profile
from .harness import PROXY_PROCS, layout_for

__all__ = ["EigenRecord", "eigen_grid", "profiles_for"]


@dataclass(frozen=True)
class EigenRecord:
    """One cell of the paper's Table 4 / Table 5 grids."""

    matrix: str
    method: str
    nprocs: int
    #: modeled seconds of the full eigensolve (avg over starts)
    solve_time: float
    #: modeled seconds spent in SpMV within the solve (avg over starts)
    spmv_time: float
    matvecs: float
    stats: CommStats
    converged: bool


def _profile_path(matrix_name: str, k: int, tol: float, seed: int) -> Path:
    """Where one solve profile is cached: like an rpart, named by the
    matrix content hash and a fingerprint of the code that computed it
    (the solvers and the Laplacian they run on)."""
    h = matrix_hash(load_corpus_matrix(matrix_name))
    fp = code_fingerprint("solvers", "graphs")
    return default_cache_dir() / f"{h}_{fp}_profile_k{k}_t{tol:g}_s{seed}.npz"


def _read_profile(path: Path) -> SolveProfile | None:
    """A cached profile; a missing, torn or foreign file is a miss."""
    try:
        with np.load(path) as z:
            return SolveProfile(
                matvecs=int(z["matvecs"]),
                stream_factor=float(z["stream_factor"]),
                gemm_flop_factor=float(z["gemm_flop_factor"]),
                scalar_reductions=int(z["scalar_reductions"]),
                vector_reductions=int(z["vector_reductions"]),
                vector_reduction_words=int(z["vector_reduction_words"]),
                converged=bool(z["converged"]),
                eigenvalues=z["eigenvalues"],
            )
    except (OSError, ValueError, KeyError, EOFError, zipfile.BadZipFile):
        return None


def _one_profile(matrix_name: str, k: int, tol: float, seed: int) -> SolveProfile:
    """Solve profile with on-disk caching (eigensolves are the expensive
    pre-processing of the eigen benches, like partitions are for SpMV)."""
    path = _profile_path(matrix_name, k, tol, seed)
    prof = _read_profile(path)
    if prof is not None:
        return prof
    A = load_corpus_matrix(matrix_name)
    prof = solve_profile(normalized_laplacian(A), k=k, tol=tol, seed=seed)
    _atomic_write(path, lambda f: np.savez(f, **asdict(prof)))
    evict_other_generations(path)
    return prof


@lru_cache(maxsize=64)
def _cached_profiles(matrix_name: str, k: int, tol: float, nstarts: int) -> tuple:
    return tuple(_one_profile(matrix_name, k, tol, 1000 + s) for s in range(nstarts))


def profiles_for(
    matrix_name: str, k: int = 10, tol: float = 1e-3, nstarts: int = 3
) -> tuple[SolveProfile, ...]:
    """Recorded solve profiles (one per random start) for a corpus matrix."""
    return _cached_profiles(matrix_name, k, tol, nstarts)


def eigen_grid(
    matrix_names: list[str],
    methods: list[str],
    procs: tuple[int, ...] = PROXY_PROCS,
    k: int = 10,
    tol: float = 1e-3,
    nstarts: int = 3,
    machine: MachineModel = CAB,
    seed: int = 0,
    cache_dir: Path | None = None,
) -> list[EigenRecord]:
    """Table-4 style sweep: eigensolve time per (matrix, layout, p).

    Partitions below ``max(procs)`` nest from the ``max(procs)`` one, as in
    :func:`~repro.bench.harness.spmv_grid`.
    """
    records: list[EigenRecord] = []
    pmax = max(procs)
    for name in matrix_names:
        A = as_csr(load_corpus_matrix(name))
        Lhat = normalized_laplacian(A)
        profiles = profiles_for(name, k=k, tol=tol, nstarts=nstarts)
        for p in procs:
            for method in methods:
                nested_from = pmax if p != pmax else None
                # layout/partition computed on the adjacency structure,
                # applied to the Laplacian (same off-diagonal pattern)
                layout = layout_for(
                    A, method, p, seed=seed, cache_dir=cache_dir, nested_from=nested_from
                )
                dist = DistSparseMatrix(Lhat, layout, machine)
                totals, spmvs = zip(
                    *(modeled_solve_seconds(pr, dist, machine) for pr in profiles)
                )
                records.append(
                    EigenRecord(
                        matrix=name,
                        method=layout.name,
                        nprocs=p,
                        solve_time=float(np.mean(totals)),
                        spmv_time=float(np.mean(spmvs)),
                        matvecs=float(np.mean([pr.matvecs for pr in profiles])),
                        stats=comm_stats(dist),
                        converged=all(pr.converged for pr in profiles),
                    )
                )
    return records
