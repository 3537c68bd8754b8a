"""Record-and-replay solver costing.

The Krylov trajectory of an eigensolve — which matvecs, dots, axpys and
restarts happen — depends only on the matrix, the start vector and the
tolerance, **not** on the data layout: every layout computes bit-equivalent
(up to summation order) results. Re-running the full distributed solve for
each of the paper's 8 layouts x 4 process counts would therefore redo
identical numerics 32 times only to charge different costs.

Instead, :func:`solve_profile` runs the real solver ONCE per matrix on a
one-rank :class:`DistVectorSpace`, whose ``work`` sums the layout-free
:class:`VectorWork` of every dense operation, and
:func:`modeled_solve_seconds` prices that sum for any distribution through
the same :meth:`VectorWork.seconds` a live space charges each operation
with, plus :meth:`DistSparseMatrix.modeled_spmv_seconds` per matvec. This
is memoization, not approximation: the two agree up to float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import as_csr
from ..runtime.distmatrix import DistSparseMatrix
from ..runtime.distvector import DistVectorSpace, VectorWork
from ..runtime.machine import MachineModel
from ..runtime.maps import Map
from .krylov_schur import eigsh_dist

__all__ = ["SolveProfile", "RecordingOperator", "solve_profile", "modeled_solve_seconds"]


@dataclass
class SolveProfile:
    """Layout-independent operation tally of one eigensolve.

    ``matvecs``: number of operator applications;
    ``work``: the summed dense vector work of the solve.
    """

    matvecs: int
    work: VectorWork
    converged: bool
    eigenvalues: np.ndarray


class RecordingOperator:
    """Operator applying a scipy matrix directly on a one-rank space."""

    def __init__(self, M):
        self.M = as_csr(M)
        self.space = DistVectorSpace(Map(np.zeros(self.M.shape[0], dtype=np.int64), 1))
        self.matvec_count = 0

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def matvec(self, x: np.ndarray) -> np.ndarray:
        self.matvec_count += 1
        return self.M @ x


def solve_profile(M, k: int = 10, tol: float = 1e-3, seed: int = 0) -> SolveProfile:
    """Run the eigensolver once on matrix *M*, returning its op tally."""
    op = RecordingOperator(M)
    res = eigsh_dist(op, k=k, tol=tol, seed=seed)
    return SolveProfile(op.matvec_count, op.space.work, res.converged, res.eigenvalues)


def modeled_solve_seconds(
    profile: SolveProfile, dist: DistSparseMatrix, machine: MachineModel | None = None
) -> tuple[float, float]:
    """Price a recorded solve under a concrete distribution.

    Returns ``(total_seconds, spmv_seconds)`` — the two columns of the
    paper's Table 5 ("SpMV Time" vs "Total Solve Time"): vector work
    scales with the busiest rank's owned-entry count (vector imbalance),
    SpMV with the distribution's plans and nonzero balance.
    """
    machine = machine if machine is not None else dist.machine
    spmv = profile.matvecs * dist.modeled_spmv_seconds(1)
    max_local = int(dist.vector_map.counts().max())
    return spmv + profile.work.seconds(max_local, dist.nprocs, machine), spmv
