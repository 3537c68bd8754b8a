"""Mondriaan-style 2D matrix partitioning (Vastenhouw & Bisseling [33]).

The comparison method the paper's conclusions single out as future work.
Mondriaan recursively bisects the *nonzero set*: at every step it
partitions either the rows or the columns of the current submatrix with a
hypergraph bisection (column-net for a row split, row-net for a column
split), keeps whichever direction cuts less, and recurses. The result is
a non-Cartesian 2D distribution with excellent communication volume but —
the paper's point — no O(sqrt p) bound on messages per process.

After the nonzeros are placed, vector entries are assigned greedily: each
x_k/y_k goes to the least-loaded rank among those already owning nonzeros
in row/column k, which keeps both vector balance and locality (a
simplified version of Mondriaan's vector distribution phase).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..graphs.csr import as_csr
from ..partitioning.bisect import multilevel_bisect
from ..partitioning.hypergraph import Hypergraph
from .explicit import ExplicitLayout

__all__ = ["mondriaan_layout"]


def _bisect_block(
    A_block: sp.csr_matrix, frac0: float, ub: float, seed: int
) -> tuple[np.ndarray, str]:
    """Split a submatrix's nonzeros two ways; keep the cheaper direction.

    Returns (side per *local* nonzero in CSR data order, direction).
    """
    A_block = as_csr(A_block)
    nr, nc = A_block.shape
    best: tuple[float, np.ndarray, str] | None = None

    for direction in ("rows", "cols"):
        inc = A_block.T if direction == "rows" else A_block  # nets x vertices
        inc = as_csr(inc)
        nvtx = inc.shape[1]
        if nvtx < 2:
            continue
        vwgt = np.maximum(
            np.asarray(abs(inc).sum(axis=0)).ravel(), 1.0
        )  # nnz per vertex (row or column) within the block
        keep = np.diff(inc.indptr) >= 2
        hg = Hypergraph(as_csr(inc[keep]), vwgt, np.ones(int(keep.sum())))
        part = multilevel_bisect(hg, (frac0, 1.0 - frac0), ub=ub, seed=seed)
        if len(np.unique(part)) < 2:
            continue
        cut = hg.cut_connectivity_minus_one(part, 2)
        if best is None or cut < best[0]:
            best = (cut, part, direction)

    coo = A_block.tocoo()
    if best is None:
        # degenerate block: split nonzeros evenly in storage order
        side = (np.arange(A_block.nnz) >= A_block.nnz * frac0).astype(np.int64)
        return side, "storage"
    _, part, direction = best
    key = coo.row if direction == "rows" else coo.col
    return part[key], direction


def mondriaan_layout(
    A, nprocs: int, ub: float = 1.10, seed: int = 0, name: str = "Mondriaan"
) -> ExplicitLayout:
    """Partition matrix *A*'s nonzeros Mondriaan-style over *nprocs* ranks."""
    A = as_csr(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"square matrices only, got {A.shape}")
    if nprocs < 1:
        raise ValueError(f"nprocs must be >= 1, got {nprocs}")
    coo = A.tocoo()
    ranks = np.zeros(A.nnz, dtype=np.int64)
    _assign_driver(coo.row, coo.col, ranks, nprocs, ub, seed)

    vector_part = _vector_assignment(A, coo, ranks, nprocs)
    return ExplicitLayout(name, A, ranks, vector_part, nprocs)


def _assign_driver(rows, cols, ranks, nprocs, ub, seed):
    """Top-level recursion with index bookkeeping (ranks updated in place)."""
    idx = np.arange(len(rows), dtype=np.int64)
    _rec(rows, cols, idx, ranks, 0, nprocs, ub, seed)


def _rec(rows, cols, idx, ranks, lo, k, ub, seed):
    if k == 1 or len(idx) == 0:
        ranks[idx] = lo
        return
    urows, ri = np.unique(rows[idx], return_inverse=True)
    ucols, ci = np.unique(cols[idx], return_inverse=True)
    block = sp.csr_matrix((np.ones(len(idx)), (ri, ci)), shape=(len(urows), len(ucols)))
    k0 = k // 2
    side_per_stored, _ = _bisect_block(block, k0 / k, ub, seed)
    order = np.lexsort((ci, ri))
    side = np.empty(len(idx), dtype=np.int64)
    side[order] = side_per_stored
    _rec(rows, cols, idx[side == 0], ranks, lo, k0, ub, seed * 2 + 1)
    _rec(rows, cols, idx[side == 1], ranks, lo + k0, k - k0, ub, seed * 2 + 2)


def _vector_assignment(A, coo, ranks, nprocs) -> np.ndarray:
    """Greedy balanced vector placement among per-index candidate owners."""
    n = A.shape[0]
    # candidate ranks touching each index, via two sparse group-bys
    cand: list[set] = [set() for _ in range(n)]
    for i, r in zip(coo.row.tolist(), ranks.tolist()):
        cand[i].add(r)
    for j, r in zip(coo.col.tolist(), ranks.tolist()):
        cand[j].add(r)
    load = np.zeros(nprocs, dtype=np.int64)
    out = np.empty(n, dtype=np.int64)
    # most-constrained first, then greedy least-loaded candidate
    order = sorted(range(n), key=lambda i: len(cand[i]) or nprocs)
    for i in order:
        options = list(cand[i]) if cand[i] else list(range(nprocs))
        best = min(options, key=lambda r: load[r])
        out[i] = best
        load[best] += 1
    return out
