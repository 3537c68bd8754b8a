"""Distributed iterative solvers.

:func:`eigsh_dist` (Krylov-Schur, i.e. thick-restart Lanczos) is the
stand-in for Trilinos Anasazi's Block Krylov-Schur at the paper's
configuration (block size 1, 10 largest eigenpairs of the normalized
Laplacian, tol 1e-3); :func:`lobpcg_dist` is the other Anasazi solver
the paper names. :func:`pagerank` covers the
paper's other motivating workload, and :func:`solve_profile` /
:func:`modeled_solve_seconds` price one recorded solve under every layout.
"""

from .operators import DistOperator, normalized_laplacian_operator
from .krylov_schur import eigsh_dist, KrylovSchurResult, Checkpoint, CheckpointConfig
from .lobpcg import lobpcg_dist, LobpcgResult
from .power import pagerank, PageRankResult
from .replay import (
    SolveProfile,
    RecordingSpace,
    RecordingOperator,
    solve_profile,
    modeled_solve_seconds,
)

__all__ = [
    "SolveProfile",
    "RecordingSpace",
    "RecordingOperator",
    "solve_profile",
    "modeled_solve_seconds",
    "DistOperator",
    "normalized_laplacian_operator",
    "eigsh_dist",
    "KrylovSchurResult",
    "Checkpoint",
    "CheckpointConfig",
    "lobpcg_dist",
    "LobpcgResult",
    "pagerank",
    "PageRankResult",
]
