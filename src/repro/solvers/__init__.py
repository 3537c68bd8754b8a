"""Distributed iterative solvers.

:func:`eigsh_dist` (Krylov-Schur, i.e. thick-restart Lanczos) is the
stand-in for Trilinos Anasazi's Block Krylov-Schur at the paper's
configuration (block size 1, 10 largest eigenpairs of the normalized
Laplacian, tol 1e-3); :func:`lobpcg_dist` is the other Anasazi solver
the paper names. :func:`pagerank` covers the
paper's other motivating workload. Every solver charges its dense vector
work through a :class:`~repro.runtime.distvector.DistVectorSpace`, whose
:meth:`~repro.runtime.distvector.VectorWork.seconds` is the one price
list: :func:`solve_profile` records a solve's work once on one rank and
:func:`modeled_solve_seconds` prices it under every layout.
"""

from .operators import DistOperator, normalized_laplacian_operator
from .krylov_schur import eigsh_dist, KrylovSchurResult, Checkpoint, CheckpointConfig
from .lobpcg import lobpcg_dist, LobpcgResult
from .power import pagerank, PageRankResult
from .replay import (
    SolveProfile,
    RecordingOperator,
    solve_profile,
    modeled_solve_seconds,
)

__all__ = [
    "SolveProfile",
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
