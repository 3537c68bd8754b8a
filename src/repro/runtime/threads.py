"""nnz-balanced thread-parallel apply for the compiled SpMV engine.

Every ``spmv``/``spmm`` in the engine is two scipy CSR multiplies, and
scipy's CSR kernels release the GIL for the duration of the C loop — so
a plain :class:`~concurrent.futures.ThreadPoolExecutor` over
*row-disjoint* slices of each operator runs genuinely in parallel on a
multicore host, with zero data movement (every block shares the parent
operator's ``data``/``indices`` buffers and the same input vector).

The split is Ahrens-style contiguous partitioning (PAPERS.md):
:func:`balanced_row_splits` finds, by binary search over the bottleneck
value with a greedy max-fill feasibility check, contiguous row blocks
whose **maximum per-block nnz is minimal** over all contiguous
partitions into at most that many blocks. nnz is the right weight
because CSR multiply time is dominated by stored-entry traversal; the
bottleneck (not the sum) is what bounds wall-clock when each block runs
on its own thread.

Bit-identity, not tolerance
---------------------------
A CSR multiply computes each output row independently: one sequential
accumulation over that row's stored entries. Slicing rows neither
reorders any row's entries nor shares any output element between
blocks, so writing block results into disjoint slices of one output
array reproduces the fused multiply **bit-for-bit** — tested and gated
with ``np.array_equal``, never a tolerance. The serial fused multiply
is the oracle, and it is what every engine runs: the budget is 1
unless :meth:`~repro.runtime.engine.SpmvEngine.set_threads` raises it,
and nothing in the package does (DESIGN.md §15 records what two threads
measured).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import scipy.sparse as sp

__all__ = [
    "ApplyPlan",
    "balanced_row_splits",
    "bind_blocks",
    "block_nnz",
    "run_blocks",
]

# -- the row-split primitive ----------------------------------------------


def _greedy_cuts(indptr: np.ndarray, nblocks: int, bound: int) -> list[int] | None:
    """Max-fill cuts covering all rows with per-block nnz <= *bound*.

    Greedy is exact for feasibility: if any contiguous partition into at
    most *nblocks* blocks respects *bound*, extending every block as far
    as *bound* allows does too. Returns None when infeasible.
    """
    nrows = len(indptr) - 1
    cuts = [0]
    row = 0
    for _ in range(nblocks):
        if row >= nrows:
            break
        nxt = int(np.searchsorted(indptr, indptr[row] + bound, side="right")) - 1
        if nxt <= row:
            return None  # a single row exceeds the bound
        row = min(nxt, nrows)
        cuts.append(row)
    return cuts if row >= nrows else None


def balanced_row_splits(indptr, nblocks: int) -> np.ndarray:
    """Bottleneck-optimal contiguous row splits over a CSR ``indptr``.

    Returns an int64 array ``s`` with ``s[0] == 0``, ``s[-1] == nrows``,
    strictly increasing in between: block i is rows ``s[i]:s[i+1]``.
    Among all partitions of the rows into at most *nblocks* contiguous
    blocks, the returned one minimizes the maximum per-block nnz
    (Ahrens' bottleneck objective), found by binary search over the
    bottleneck value with a greedy feasibility check — O(nblocks ·
    log(nrows) · log(nnz)), negligible next to operator compile time.

    Degenerate shapes are fine: empty rows ride along with their
    predecessor block, a single hub row larger than ``nnz/nblocks``
    becomes its own bottleneck block, fewer rows (or less nnz) than
    blocks simply yields fewer blocks, and ``nblocks=1`` returns the
    trivial split. The function is deterministic — a pure function of
    ``indptr`` and *nblocks*.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    if indptr.ndim != 1 or len(indptr) < 1:
        raise ValueError("indptr must be a 1-d prefix array")
    nrows = len(indptr) - 1
    nblocks = int(nblocks)
    if nblocks < 1:
        raise ValueError(f"nblocks must be >= 1, got {nblocks}")
    if nrows <= 0:
        return np.array([0, 0], dtype=np.int64)
    if nblocks == 1:
        return np.array([0, nrows], dtype=np.int64)
    total = int(indptr[-1]) - int(indptr[0])
    max_row = int(np.max(np.diff(indptr)))
    lo = max((total + nblocks - 1) // nblocks, max_row)
    hi = max(total, lo)
    while lo < hi:
        mid = (lo + hi) // 2
        if _greedy_cuts(indptr, nblocks, mid) is None:
            lo = mid + 1
        else:
            hi = mid
    cuts = _greedy_cuts(indptr, nblocks, lo)
    assert cuts is not None  # lo is feasible by construction
    return np.asarray(cuts, dtype=np.int64)


def block_nnz(indptr, splits) -> np.ndarray:
    """Per-block stored-entry counts for *splits* over *indptr*."""
    indptr = np.asarray(indptr, dtype=np.int64)
    splits = np.asarray(splits, dtype=np.int64)
    return indptr[splits[1:]] - indptr[splits[:-1]]


def _csr_row_block(M: sp.csr_matrix, r0: int, r1: int) -> sp.csr_matrix:
    """Rows ``r0:r1`` of *M* as a CSR sharing its data/indices buffers.

    Only the (small) per-block indptr is materialized; the entry arrays
    are slices of the parent's — read-only/mmapped parents included,
    since the multiply kernels never mutate operator storage.
    """
    p0 = int(M.indptr[r0])
    block = sp.csr_matrix((r1 - r0, M.shape[1]))
    block.data = M.data[p0 : int(M.indptr[r1])]
    block.indices = M.indices[p0 : int(M.indptr[r1])]
    block.indptr = M.indptr[r0 : r1 + 1] - p0
    return block


def bind_blocks(
    M: sp.csr_matrix, splits: np.ndarray
) -> list[tuple[int, int, sp.csr_matrix]]:
    """``(r0, r1, rows r0:r1 of M)`` per split block, zero-copy."""
    return [
        (int(r0), int(r1), _csr_row_block(M, int(r0), int(r1)))
        for r0, r1 in zip(splits[:-1], splits[1:])
    ]


class ApplyPlan:
    """nnz-balanced row blocking of one engine's two compiled operators.

    Built by ``SpmvEngine.set_threads`` for a budget above 1 (never per
    multiply, never persisted). The bound block operators are zero-copy
    row views; :attr:`nbytes` reports only what the plan actually
    allocates (the split arrays and each block's small indptr) so
    residency byte budgets stay honest.
    """

    __slots__ = (
        "threads",
        "local_splits",
        "fold_splits",
        "local_blocks",
        "fold_blocks",
    )

    def __init__(self, threads, local_splits, fold_splits, local_blocks, fold_blocks):
        self.threads = int(threads)
        self.local_splits = local_splits
        self.fold_splits = fold_splits
        self.local_blocks = local_blocks
        self.fold_blocks = fold_blocks

    @classmethod
    def build(
        cls, local: sp.csr_matrix, fold: sp.csr_matrix, threads: int
    ) -> "ApplyPlan":
        """Plan *threads* bottleneck-balanced blocks per operator."""
        t = max(int(threads), 1)
        ls = balanced_row_splits(local.indptr, t)
        fs = balanced_row_splits(fold.indptr, t)
        return cls(t, ls, fs, bind_blocks(local, ls), bind_blocks(fold, fs))

    @property
    def nbytes(self) -> int:
        """Bytes the plan allocates beyond the parent operators."""
        total = self.local_splits.nbytes + self.fold_splits.nbytes
        for blocks in (self.local_blocks, self.fold_blocks):
            for _, _, block in blocks:
                total += block.indptr.nbytes
        return int(total)

    def stats(self) -> dict:
        """Balance summary (the e2e bench's ``plan_balance`` view)."""

        def side(splits, blocks):
            nnz = [int(b.nnz) for _, _, b in blocks]
            bottleneck = max(nnz) if nnz else 0
            balance = 1.0
            if bottleneck:
                balance = round(sum(nnz) / (self.threads * bottleneck), 4)
            return {
                "blocks": len(blocks),
                "total_nnz": sum(nnz),
                "bottleneck_nnz": bottleneck,
                "balance": balance,
            }

        return {
            "threads": self.threads,
            "local": side(self.local_splits, self.local_blocks),
            "fold": side(self.fold_splits, self.fold_blocks),
        }


# -- the shared pool -------------------------------------------------------


class _Pool:
    """Process-wide grow-only thread pool for block multiplies.

    One pool serves every engine in the process (pool threads are cheap
    but not free; resident engines would otherwise each hold their
    own). It is sized to ``threads - 1`` workers because the caller's
    thread always executes the final block inline — at budget T the
    multiply occupies exactly T OS threads with one fewer handoff.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._executor: ThreadPoolExecutor | None = None
        self._workers = 0

    def _ensure(self, workers: int) -> ThreadPoolExecutor:
        with self._lock:
            if self._executor is None or self._workers < workers:
                old = self._executor
                self._executor = ThreadPoolExecutor(
                    max_workers=workers, thread_name_prefix="repro-apply"
                )
                self._workers = workers
                if old is not None:
                    # in-flight work still completes; new submits go to
                    # the grown pool
                    old.shutdown(wait=False)
            return self._executor

    def run(self, tasks) -> None:
        ex = self._ensure(max(len(tasks) - 1, 1))
        futures = [ex.submit(t) for t in tasks[:-1]]
        tasks[-1]()
        for f in futures:
            f.result()


_POOL = _Pool()


def run_blocks(blocks, X: np.ndarray, out: np.ndarray) -> None:
    """``out[r0:r1] = M @ X`` for every bound block, in parallel.

    scipy's CSR multiply releases the GIL, the blocks are row-disjoint,
    and each writes only its own slice of *out* — no synchronization
    beyond joining the futures, and bit-identical to the fused multiply.
    """

    def task(r0: int, r1: int, M: sp.csr_matrix):
        def _run() -> None:
            out[r0:r1] = M @ X

        return _run

    _POOL.run([task(r0, r1, M) for r0, r1, M in blocks])
