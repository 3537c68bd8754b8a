"""Weighted graph structure used by the multilevel partitioner.

``PartGraph`` is a METIS-style CSR adjacency with float edge weights and a
2-D vertex-weight array supporting multiple balance constraints (the paper
uses one constraint — nonzeros — for SpMV layouts, and two constraints —
rows and nonzeros — for the eigensolver's 1D/2D-GP-MC variants).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from ..graphs.csr import as_csr, drop_diagonal, nonzeros_per_row
from ..graphs.ops import symmetrize
from ._util import exactly_summable, weights_by_part

__all__ = ["PartGraph"]


@dataclass
class PartGraph:
    """CSR adjacency with vertex/edge weights.

    Attributes
    ----------
    xadj, adjncy:
        CSR adjacency arrays (int64). Neighbours of vertex *v* are
        ``adjncy[xadj[v]:xadj[v+1]]``. No self loops; every undirected edge
        is stored twice.
    adjwgt:
        Edge weights aligned with ``adjncy`` (float64, symmetric).
    vwgt:
        Vertex weights, shape ``(n, ncon)`` float64. Constraint 0 is the
        primary balance objective.
    """

    xadj: np.ndarray
    adjncy: np.ndarray
    adjwgt: np.ndarray
    vwgt: np.ndarray

    def __post_init__(self) -> None:
        self.xadj = np.asarray(self.xadj, dtype=np.int64)
        self.adjncy = np.asarray(self.adjncy, dtype=np.int64)
        self.adjwgt = np.asarray(self.adjwgt, dtype=np.float64)
        self.vwgt = np.atleast_2d(np.asarray(self.vwgt, dtype=np.float64))
        if self.vwgt.shape[0] != self.n and self.vwgt.shape[1] == self.n:
            self.vwgt = self.vwgt.T.copy()
        if len(self.adjncy) != self.xadj[-1] or len(self.adjwgt) != len(self.adjncy):
            raise ValueError("inconsistent CSR arrays")
        if self.vwgt.shape[0] != self.n:
            raise ValueError(f"vwgt rows {self.vwgt.shape[0]} != n {self.n}")
        # PartGraph is immutable after construction, so derived views are
        # memoized: the FM refiner asks for the adjacency matrix, the edge
        # sources and the weighted degrees once per *pass*, and rebuilding
        # them (csr validation, an O(nnz) repeat, a matvec) dominated the
        # per-pass setup on fine levels.
        self._adj: sp.csr_matrix | None = None
        self._edge_src: np.ndarray | None = None
        self._degw: np.ndarray | None = None
        self._adj_lists: tuple[list, list, list] | None = None
        self._vwgt_lists: tuple[list, ...] | None = None
        self._intw: bool | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_matrix(cls, A, vertex_weights: str | tuple[str, ...] = "nnz") -> "PartGraph":
        """Build the partitioning graph of sparse matrix *A*.

        The graph is the symmetrised pattern of *A* without the diagonal
        (self loops carry no communication). Vertex-weight constraints are
        named: ``"unit"`` (1 per row — balances rows / vector entries) or
        ``"nnz"`` (nonzeros in the row of *A* — balances SpMV work, the
        paper's default). Pass a tuple for multiconstraint partitioning,
        e.g. ``("unit", "nnz")`` for the paper's GP-MC variants.
        """
        A = as_csr(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"partitioning needs a square matrix, got {A.shape}")
        S = drop_diagonal(symmetrize(A))
        names = (vertex_weights,) if isinstance(vertex_weights, str) else tuple(vertex_weights)
        cols = []
        for name in names:
            if name == "unit":
                cols.append(np.ones(A.shape[0]))
            elif name == "nnz":
                # weight by nnz of the *original* matrix row: that is the
                # SpMV work assigned to the owner of this row in 1D
                cols.append(np.maximum(nonzeros_per_row(A), 1).astype(np.float64))
            else:
                raise ValueError(f"unknown vertex weight {name!r} (use 'unit' or 'nnz')")
        vwgt = np.column_stack(cols)
        return cls(S.indptr, S.indices, S.data.copy(), vwgt)

    @classmethod
    def from_scipy(cls, W, vwgt: np.ndarray | None = None) -> "PartGraph":
        """Wrap a symmetric weighted scipy matrix (weights = data)."""
        W = as_csr(W)
        if vwgt is None:
            vwgt = np.ones((W.shape[0], 1))
        return cls(W.indptr, W.indices, W.data.copy(), vwgt)

    # -- basic properties ----------------------------------------------------

    @property
    def n(self) -> int:
        """Number of vertices."""
        return len(self.xadj) - 1

    @property
    def ncon(self) -> int:
        """Number of balance constraints."""
        return self.vwgt.shape[1]

    @property
    def nedges(self) -> int:
        """Number of undirected edges (each stored twice in ``adjncy``)."""
        return len(self.adjncy) // 2

    def neighbors(self, v: int) -> np.ndarray:
        """Neighbour ids of vertex *v* (view into ``adjncy``)."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        """Weights of *v*'s incident edges (view into ``adjwgt``)."""
        return self.adjwgt[self.xadj[v] : self.xadj[v + 1]]

    def total_weight(self) -> np.ndarray:
        """Total vertex weight per constraint, shape ``(ncon,)``."""
        return self.vwgt.sum(axis=0)

    def adjacency_matrix(self) -> sp.csr_matrix:
        """The weighted adjacency as a scipy CSR matrix (memoized).

        Callers must treat the returned matrix as read-only — it is shared
        across every consumer of this graph (refinement, contraction,
        induced subgraphs, balance repair).
        """
        if self._adj is None:
            self._adj = sp.csr_matrix(
                (self.adjwgt, self.adjncy, self.xadj), shape=(self.n, self.n)
            )
        return self._adj

    def seed_derived(
        self,
        adjacency: sp.csr_matrix | None = None,
        edge_sources: np.ndarray | None = None,
        exactly_summable: bool | None = None,
    ) -> None:
        """Pre-populate memoized derived state from construction by-products.

        The sort-based contraction kernel produces the coarse adjacency
        matrix and the per-slot source array as intermediates; seeding them
        here lets the next coarsening level and the uncoarsening refinement
        skip their first-touch rebuilds. Seeded values must be exactly what
        the lazy builders would compute (same canonical CSR, same values) —
        callers own that contract.
        """
        if adjacency is not None:
            self._adj = adjacency
        if edge_sources is not None:
            self._edge_src = np.asarray(edge_sources, dtype=np.int64)
        if exactly_summable is not None:
            self._intw = bool(exactly_summable)

    def edge_sources(self) -> np.ndarray:
        """Source vertex of every CSR slot, aligned with ``adjncy`` (memoized)."""
        if self._edge_src is None:
            self._edge_src = np.repeat(
                np.arange(self.n, dtype=np.int64), np.diff(self.xadj)
            )
        return self._edge_src

    def weighted_degrees(self) -> np.ndarray:
        """Total incident edge weight per vertex (memoized)."""
        if self._degw is None:
            self._degw = self.adjacency_matrix() @ np.ones(self.n)
        return self._degw

    def adjacency_lists(self) -> tuple[list, list, list]:
        """``(xadj, adjncy, adjwgt)`` as plain Python lists (memoized).

        The FM refiner's scalar inner loop indexes these — Python list
        reads are several times cheaper than numpy 0-d indexing, and the
        one-time conversion amortises over every pass on this graph.
        Callers must treat the lists as read-only.
        """
        if self._adj_lists is None:
            self._adj_lists = (
                self.xadj.tolist(),
                self.adjncy.tolist(),
                self.adjwgt.tolist(),
            )
        return self._adj_lists

    def vwgt_lists(self) -> tuple[list, ...]:
        """Vertex-weight columns as flat Python lists (memoized, read-only)."""
        if self._vwgt_lists is None:
            self._vwgt_lists = tuple(
                self.vwgt[:, c].tolist() for c in range(self.ncon)
            )
        return self._vwgt_lists

    def exactly_summable_weights(self) -> bool:
        """True when every edge-weight sum is exact in float64 (memoized).

        Holds for integer weights whose total stays below 2**53 — the case
        for every graph this package builds (pattern weights are 1.0/2.0
        and contraction only adds them), and the condition under which an
        incrementally tracked edge cut is bit-identical to a fresh
        recomputation.
        """
        if self._intw is None:
            self._intw = exactly_summable(self.adjwgt)
        return self._intw

    # -- partition metrics -------------------------------------------------

    def edgecut(self, part: np.ndarray) -> float:
        """Total weight of edges whose endpoints lie in different parts."""
        part = np.asarray(part)
        cut = part[self.edge_sources()] != part[self.adjncy]
        return float(self.adjwgt[cut].sum() / 2.0)

    def part_weights(self, part: np.ndarray, nparts: int) -> np.ndarray:
        """Per-part vertex weight, shape ``(nparts, ncon)``."""
        return weights_by_part(np.asarray(part, dtype=np.int64), self.vwgt, nparts)

    def imbalance(self, part: np.ndarray, nparts: int) -> np.ndarray:
        """Max part weight / average part weight, per constraint."""
        pw = self.part_weights(part, nparts)
        avg = np.maximum(pw.mean(axis=0), 1e-300)
        return pw.max(axis=0) / avg

    def induced_subgraph(self, vertices: np.ndarray) -> "PartGraph":
        """Subgraph induced by *vertices* (local ids follow input order)."""
        vertices = np.asarray(vertices, dtype=np.int64)
        W = self.adjacency_matrix()
        Wsub = W[vertices][:, vertices]
        return PartGraph.from_scipy(Wsub, self.vwgt[vertices])
