"""PageRank on the distributed runtime.

PageRank is the paper's motivating example of linear-algebra graph
analysis ("in its simplest form the power method applied to a matrix
derived from the weblink adjacency matrix"). The iteration is::

    x <- damping * M x + (damping * dangling_mass + 1 - damping) / n * 1

with ``M = A^T D_out^{-1}`` the column-stochastic link matrix. Every
matvec runs through the four-phase distributed SpMV, so all layout
effects measured for SpMV transfer directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..graphs.csr import as_csr, nonzeros_per_row
from ..layouts.base import Layout
from ..runtime.distmatrix import DistSparseMatrix
from ..runtime.distvector import DistVectorSpace, VectorWork
from ..runtime.machine import CAB, MachineModel
from ..runtime.trace import CostLedger

__all__ = ["pagerank", "PageRankResult"]


@dataclass
class PageRankResult:
    """PageRank vector plus convergence/accounting info."""

    scores: np.ndarray
    iterations: int
    residual: float
    converged: bool
    ledger: CostLedger


def google_link_matrix(A) -> tuple[sp.csr_matrix, np.ndarray]:
    """Column-stochastic link matrix ``M = A^T D_out^{-1}`` and the
    dangling-node indicator (rows of A with no out-links)."""
    A = as_csr(A)
    outdeg = nonzeros_per_row(A).astype(np.float64)
    dangling = outdeg == 0
    inv = np.where(dangling, 0.0, 1.0 / np.maximum(outdeg, 1.0))
    M = as_csr(A.T @ sp.diags(inv))
    return M, dangling


def pagerank(
    A,
    layout: Layout,
    damping: float = 0.85,
    tol: float = 1e-8,
    max_iter: int = 200,
    machine: MachineModel = CAB,
) -> PageRankResult:
    """PageRank of the graph of *A* under a given data layout.

    The layout must be built for the same matrix dimension; typically it
    comes from :func:`repro.layouts.make_layout` on A itself (the link
    matrix has A's transposed pattern, which for the paper's symmetrised
    graphs is the same pattern).
    """
    if not 0.0 < damping < 1.0:
        raise ValueError(f"damping must be in (0,1), got {damping}")
    M, dangling = google_link_matrix(A)
    ledger = CostLedger()
    dist = DistSparseMatrix(M, layout, machine)
    space = DistVectorSpace(dist.vector_map, machine, ledger)
    n = M.shape[0]
    x = np.full(n, 1.0 / n)
    resid = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        y = dist.spmv(x, ledger)
        dangling_mass = float(x[dangling].sum())
        space.charge(VectorWork(scalar_reductions=1))
        y = space.scale(damping, y)
        shift = (damping * dangling_mass + (1.0 - damping)) / n
        y = space.axpy(1.0, np.full(n, shift), y)
        resid = float(np.abs(y - x).sum())
        space.charge(VectorWork(scalar_reductions=1))
        x = y
        if resid < tol:
            return PageRankResult(x, it, resid, True, ledger)
    return PageRankResult(x, it, resid, False, ledger)
