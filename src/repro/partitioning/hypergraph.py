"""Hypergraph structure (column-net model) and cut metrics.

Hypergraph partitioning models SpMV communication volume *exactly* (the
paper, section 2.2): in the column-net model each matrix column j becomes a
net containing the rows that need x_j — plus j itself, since with aligned
vector distributions the owner of x_j is the owner of row j. A net spanning
lambda parts forces lambda - 1 sent copies of x_j, so the
connectivity-minus-one metric *is* the expand-phase volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..graphs.csr import as_csr, nonzeros_per_row
from ._util import weights_by_part

__all__ = ["Hypergraph"]


@dataclass
class Hypergraph:
    """Binary incidence hypergraph with weighted vertices and nets.

    Attributes
    ----------
    H:
        ``(nnets, n)`` binary CSR incidence matrix; row e lists the pins of
        net e.
    vwgt:
        Vertex weights, shape ``(n, ncon)``.
    netwgt:
        Net weights, shape ``(nnets,)``.
    """

    H: sp.csr_matrix
    vwgt: np.ndarray
    netwgt: np.ndarray

    def __post_init__(self) -> None:
        self.H = as_csr(self.H)
        self.H.data[:] = 1.0
        self.vwgt = np.atleast_2d(np.asarray(self.vwgt, dtype=np.float64))
        if self.vwgt.shape[0] != self.n and self.vwgt.shape[1] == self.n:
            self.vwgt = self.vwgt.T.copy()
        self.netwgt = np.asarray(self.netwgt, dtype=np.float64)
        if self.vwgt.shape[0] != self.n:
            raise ValueError(f"vwgt rows {self.vwgt.shape[0]} != n {self.n}")
        if len(self.netwgt) != self.nnets:
            raise ValueError(f"netwgt length {len(self.netwgt)} != nnets {self.nnets}")
        self._HT: sp.csr_matrix | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_matrix_column_net(
        cls, A, vertex_weights: str | tuple[str, ...] = "nnz"
    ) -> "Hypergraph":
        """Column-net hypergraph of square matrix *A*.

        Net j = { i : a_ij != 0 } ∪ { j }. Vertex weights as in
        :meth:`PartGraph.from_matrix` ("unit" and/or "nnz").
        """
        A = as_csr(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"column-net model needs a square matrix, got {A.shape}")
        n = A.shape[0]
        # incidence: net (row of H) = matrix column -> H = A^T pattern + I
        H = as_csr((A.T + sp.identity(n, format="csr")))
        H.data[:] = 1.0
        names = (vertex_weights,) if isinstance(vertex_weights, str) else tuple(vertex_weights)
        cols = []
        for name in names:
            if name == "unit":
                cols.append(np.ones(n))
            elif name == "nnz":
                cols.append(np.maximum(nonzeros_per_row(A), 1).astype(np.float64))
            else:
                raise ValueError(f"unknown vertex weight {name!r}")
        return cls(H, np.column_stack(cols), np.ones(H.shape[0]))

    # -- properties ----------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return self.H.shape[1]

    @property
    def nnets(self) -> int:
        """Number of nets."""
        return self.H.shape[0]

    @property
    def ncon(self) -> int:
        """Number of balance constraints."""
        return self.vwgt.shape[1]

    def transpose_incidence(self) -> sp.csr_matrix:
        """``(n, nnets)`` CSR: nets incident to each vertex (cached)."""
        if self._HT is None:
            self._HT = as_csr(self.H.T)
        return self._HT

    def net_sizes(self) -> np.ndarray:
        """Pin count per net."""
        return np.diff(self.H.indptr).astype(np.int64)

    def pins(self, e: int) -> np.ndarray:
        """Pins of net *e* (view)."""
        return self.H.indices[self.H.indptr[e] : self.H.indptr[e + 1]]

    def nets_of(self, v: int) -> np.ndarray:
        """Nets incident to vertex *v* (view into the cached transpose)."""
        HT = self.transpose_incidence()
        return HT.indices[HT.indptr[v] : HT.indptr[v + 1]]

    def total_weight(self) -> np.ndarray:
        """Total vertex weight per constraint."""
        return self.vwgt.sum(axis=0)

    # -- metrics -------------------------------------------------------------

    def net_part_counts(self, part: np.ndarray, nparts: int) -> sp.csr_matrix:
        """``(nnets, nparts)`` sparse pin counts of each net in each part."""
        part = np.asarray(part, dtype=np.int64)
        P = sp.csr_matrix(
            (np.ones(self.n), (np.arange(self.n), part)), shape=(self.n, nparts)
        )
        return as_csr(self.H @ P)

    def connectivity(self, part: np.ndarray, nparts: int) -> np.ndarray:
        """lambda_e: number of parts each net touches."""
        M = self.net_part_counts(part, nparts)
        return np.diff(M.indptr).astype(np.int64)

    def cut_connectivity_minus_one(self, part: np.ndarray, nparts: int) -> float:
        """Sum of ``w_e * (lambda_e - 1)`` — the SpMV expand volume."""
        lam = self.connectivity(part, nparts)
        return float((self.netwgt * np.maximum(lam - 1, 0)).sum())

    def cut_nets(self, part: np.ndarray, nparts: int) -> int:
        """Number of nets spanning more than one part (hyperedge cut)."""
        return int((self.connectivity(part, nparts) > 1).sum())

    def part_weights(self, part: np.ndarray, nparts: int) -> np.ndarray:
        """Per-part vertex weights, shape ``(nparts, ncon)``."""
        return weights_by_part(np.asarray(part, dtype=np.int64), self.vwgt, nparts)

    def induced(self, vertices: np.ndarray) -> "Hypergraph":
        """Sub-hypergraph on *vertices*: nets restricted, <2-pin nets dropped.

        This is the standard recursive-bisection restriction (PaToH): a net
        already cut at an outer level keeps only its local pins, and nets
        that can no longer be cut locally are removed.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        Hs = as_csr(self.H[:, vertices])
        keep = np.diff(Hs.indptr) >= 2
        return Hypergraph(as_csr(Hs[keep]), self.vwgt[vertices], self.netwgt[keep])
