"""Distributed linear operators for the iterative solvers.

The eigensolver experiments run on the normalized Laplacian
``L_hat = I - D^{-1/2} A D^{-1/2}`` (paper section 5.3). Layouts are
computed from the adjacency structure (that is what the partitioners see)
and then applied to L_hat — whose off-diagonal pattern is A's and whose
diagonal entries land on the vector owner's rank, adding no communication.
"""

from __future__ import annotations

import numpy as np

from ..graphs.ops import normalized_laplacian
from ..layouts.base import Layout
from ..runtime.distmatrix import DistSparseMatrix
from ..runtime.distvector import DistVectorSpace
from ..runtime.machine import CAB, MachineModel
from ..runtime.trace import CostLedger

__all__ = ["DistOperator", "normalized_laplacian_operator"]


class DistOperator:
    """A distributed symmetric operator: matvec + vector space + ledger."""

    def __init__(self, dist: DistSparseMatrix, ledger: CostLedger | None = None):
        self.dist = dist
        self.ledger = ledger if ledger is not None else CostLedger()
        self.space = DistVectorSpace(dist.vector_map, dist.machine, self.ledger)
        self.matvec_count = 0

    @property
    def n(self) -> int:
        """Operator dimension."""
        return self.dist.n

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Apply the operator via the four-phase distributed SpMV."""
        self.matvec_count += 1
        return self.dist.spmv(x, self.ledger)

    def matvec_block(self, X: np.ndarray) -> np.ndarray:
        """Apply the operator to an (n, k) block in one compiled pass.

        Counts (and charges) k matvecs — the block path amortizes index
        traffic, not modeled communication. Column j is bit-identical to
        ``matvec(X[:, j])``.
        """
        self.matvec_count += X.shape[1]
        return self.dist.spmm(X, self.ledger)


def normalized_laplacian_operator(
    A,
    layout: Layout,
    machine: MachineModel = CAB,
    ledger: CostLedger | None = None,
) -> DistOperator:
    """Distribute ``L_hat(A)`` with *layout* and wrap it as an operator."""
    Lhat = normalized_laplacian(A)
    dist = DistSparseMatrix(Lhat, layout, machine)
    return DistOperator(dist, ledger)
