"""Precompiled SpMV execution engine.

Every experiment in the paper is *repeated* four-phase SpMV — "time for
100 SpMV" tables, eigensolvers calling the operator hundreds of times —
and the communication structure is iteration-invariant. The reference
executor (the private ``DistSparseMatrix._spmv_reference`` oracle) walks
every import/fold message in Python on every call, re-translating global
ids with ``searchsorted`` each time. This module compiles all of that
index arithmetic once, at build time, into two sparse operators:

``local``
    The per-rank CSR blocks stacked block-diagonally, with each block's
    compressed column ids relabeled to the global ids its rank's ghost
    buffer would hold (the import plan guarantees every compressed column
    is either owned or delivered by exactly one message). One C-level
    multiply then performs the **expand** gather and every rank's
    **local compute** simultaneously, producing the concatenation of all
    per-rank partial-sum buffers.

``fold``
    A 0/1 matrix with one column per partial-sum slot and one row per
    global index, built from the owned-row copies and the fold plan's
    messages. One multiply performs **fold + sum**, accumulating each
    row's contributions *in the reference executor's order* (the owner's
    own partial first, then messages in plan order — the matrix stores
    its row entries in exactly that sequence, deliberately unsorted).

Results are **bit-identical** to the reference path, not merely close:
the relabeling changes where values are read from, never the values nor
the order in which CSR row-dot products accumulate them, and the fold
rows replay the reference's ``np.add.at`` sequences (multiplying by the
stored 1.0 is exact). ``tests/test_engine.py`` asserts equality with
``np.array_equal``. Modeled cost and communication metrics are untouched:
they are computed from the :class:`~repro.runtime.plan.CommPlan`
schedules, which the engine compiles but does not alter.

:meth:`SpmvEngine.spmm` pushes an (n, k) block of right-hand sides
through the same two operators in one shot — k SpMVs for two CSR-times-
dense calls — which is how the block Krylov-Schur solver amortizes index
traffic over its block width. Column j equals ``spmv(X[:, j])`` exactly.

Thread budget (:mod:`repro.runtime.threads`)
--------------------------------------------
Every engine is serial: each multiply is one fused CSR call. Only
:meth:`SpmvEngine.set_threads` raises the budget; a budget above 1
plans an :class:`~repro.runtime.threads.ApplyPlan` (nnz-balanced
contiguous row blocks over each operator) and runs the blocks on the
shared GIL-releasing pool. Row-disjoint blocks write disjoint output
slices in the same stored-entry order as the fused multiply, so the
threaded apply is **bit-identical** to the serial one
(``tests/test_threads.py``). Nothing in the package raises the budget
(DESIGN.md §15).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..perf import phase
from . import threads as _threads
from .threads import ApplyPlan

__all__ = ["SpmvEngine"]


def _adopt_csr(data, indices, indptr, shape) -> sp.csr_matrix:
    """Build a CSR around existing (possibly read-only, mmapped) arrays.

    The tuple constructor would copy and validate; attribute assignment
    adopts the buffers as-is, which is what makes store loads zero-copy.
    Shape/pointer consistency is the artifact loader's job
    (:meth:`SpmvEngine.from_arrays` + the store's structural checks).
    """
    data = np.asarray(data)
    indices = np.asarray(indices)
    indptr = np.asarray(indptr)
    if len(indptr) != shape[0] + 1:
        raise ValueError(f"indptr length {len(indptr)} != rows {shape[0]} + 1")
    if len(indptr) and int(indptr[-1]) != len(data):
        raise ValueError(f"indptr[-1] {int(indptr[-1])} != nnz {len(data)}")
    if len(data) != len(indices):
        raise ValueError("data/indices length mismatch")
    M = sp.csr_matrix(shape)
    M.data = data
    M.indices = indices
    M.indptr = indptr
    return M


class SpmvEngine:
    """Compiled executor for one :class:`DistSparseMatrix`'s SpMV.

    Construction flattens the matrix's import/fold plans into the two
    operators described in the module docstring; :meth:`spmv` /
    :meth:`spmm` then run the four phases as two sparse multiplies with
    no per-message Python work.
    """

    def __init__(self, dist) -> None:
        vm = dist.vector_map
        p = dist.nprocs
        n = dist.n
        self.n = n

        # --- expand + local compute ---------------------------------------
        # Stack the rank blocks block-diagonally, then relabel compressed
        # columns to global ids. Within one rank the relabeling is
        # monotonic (its column map is sorted), so rows keep their stored
        # entry order and every row-dot accumulates exactly as the
        # per-block matvec over that rank's ghost buffer does.
        blocks = sp.block_diag(dist.local_blocks, format="csr")
        col_concat = np.concatenate(dist.col_maps)
        self._local = sp.csr_matrix(
            (blocks.data, col_concat[blocks.indices], blocks.indptr),
            shape=(blocks.shape[0], n),
        )

        # --- fold + sum ---------------------------------------------------
        # Source slots into the concatenated partial sums, target global
        # rows, listed in the reference accumulation order: every rank's
        # own rows (rank-major, rows ascending), then the fold messages in
        # plan order. Positions are found with one searchsorted in the
        # (rank, row) keyspace; a stable sort by target groups each row's
        # contributions without reordering them.
        rlens = np.fromiter(
            (len(r) for r in dist.row_maps), dtype=np.int64, count=p
        )
        row_concat = np.concatenate(dist.row_maps)
        rank_of_slot = np.repeat(np.arange(p, dtype=np.int64), rlens)
        n64 = np.int64(max(n, 1))
        slot_key = rank_of_slot * n64 + row_concat  # sorted ascending

        own = np.flatnonzero(vm.owner[row_concat] == rank_of_slot)
        fp = dist.fold_plan
        msg_slot = np.searchsorted(
            slot_key, np.repeat(fp.src, fp.message_sizes()) * n64 + fp.indices
        )
        src = np.concatenate([own, msg_slot])
        tgt = np.concatenate([row_concat[own], fp.indices])
        order = np.argsort(tgt, kind="stable")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(tgt, minlength=n), out=indptr[1:])
        self._fold = sp.csr_matrix(
            (np.ones(len(src)), src[order], indptr),
            shape=(n, len(row_concat)),
        )

        self._nprocs = p
        self._threads = 1
        self._plan: ApplyPlan | None = None

    # -- thread budget -----------------------------------------------------

    @property
    def threads(self) -> int:
        """Current apply-thread budget (1 = serial fused multiply)."""
        return self._threads

    def set_threads(self, threads: int) -> int:
        """Set the apply-thread budget: an integer >= 1 (1 = serial).

        A budget above 1 plans its row blocks once, here, never per
        multiply; a budget of 1 drops the plan. Returns the budget.
        """
        if (
            isinstance(threads, bool)
            or not isinstance(threads, (int, np.integer))
            or threads < 1
        ):
            raise ValueError(f"threads must be an integer >= 1, got {threads!r}")
        threads = int(threads)
        if threads != self._threads:
            self._plan = (
                ApplyPlan.build(self._local, self._fold, threads)
                if threads > 1
                else None
            )
            self._threads = threads
        return threads

    def plan_stats(self) -> dict:
        """Balance summary of the apply plan (one block each at budget 1)."""
        plan = self._plan or ApplyPlan.build(self._local, self._fold, 1)
        return plan.stats()

    def _apply(self, op: sp.csr_matrix, X: np.ndarray) -> np.ndarray:
        """``op @ X``, fanned across the plan's row blocks at a budget > 1."""
        plan = self._plan
        if plan is None:
            return op @ X
        blocks = plan.local_blocks if op is self._local else plan.fold_blocks
        if len(blocks) <= 1:
            return op @ X
        out = np.empty(
            (op.shape[0],) + X.shape[1:],
            dtype=np.result_type(op.dtype, X.dtype),
        )
        _threads.run_blocks(blocks, X, out)
        return out

    # -- (de)serialization -------------------------------------------------

    def to_arrays(self) -> dict[str, np.ndarray]:
        """The engine's full compiled state as flat arrays.

        Everything :meth:`spmv`/:meth:`spmm` touch — the two CSR
        operators and the shapes — round-trips through
        :meth:`from_arrays` *bit-identically by contract*: the
        reconstructed engine's results equal this one's to the last bit
        (the artifact store verifies that at save time, and
        ``BENCH_coldstart.json`` gates it corpus-wide). The thread budget
        is runtime state, not compiled state: a loaded engine starts
        serial.
        """
        return {
            "dims": np.array(
                [self.n, self._nprocs, *self._local.shape, *self._fold.shape],
                dtype=np.int64,
            ),
            "local_data": self._local.data,
            "local_indices": self._local.indices,
            "local_indptr": self._local.indptr,
            "fold_data": self._fold.data,
            "fold_indices": self._fold.indices,
            "fold_indptr": self._fold.indptr,
        }

    @classmethod
    def from_arrays(cls, arrays: dict) -> "SpmvEngine":
        """Reassemble an engine from :meth:`to_arrays` output.

        The arrays are adopted *without copying* — mmap-backed
        (read-only) inputs are fine because the multiply kernels never
        mutate operator storage — so loading an artifact costs only
        header parsing, not data movement.
        """
        dims = np.asarray(arrays["dims"], dtype=np.int64)
        if dims.shape != (6,):
            raise ValueError(f"bad dims member shape {dims.shape}")
        n, p = int(dims[0]), int(dims[1])
        eng = cls.__new__(cls)
        eng.n = n
        eng._nprocs = p
        eng._local = _adopt_csr(
            arrays["local_data"],
            arrays["local_indices"],
            arrays["local_indptr"],
            (int(dims[2]), int(dims[3])),
        )
        eng._fold = _adopt_csr(
            arrays["fold_data"],
            arrays["fold_indices"],
            arrays["fold_indptr"],
            (int(dims[4]), int(dims[5])),
        )
        if eng._fold.shape[0] != n or eng._local.shape[1] != n:
            raise ValueError("operator shapes inconsistent with n")
        eng._threads = 1
        eng._plan = None
        return eng

    @property
    def nbytes(self) -> int:
        """Resident bytes of the compiled operators.

        The residency layer (:mod:`repro.serve.residency`) budgets its LRU
        by this number: the two CSR operators are a serial engine's whole
        footprint. A budget above 1 adds its apply plan (split arrays plus
        each bound block's small indptr — the entry arrays are zero-copy
        views counted once with their parent), and Python object overhead
        is ignored as noise.
        """
        total = 0
        for op in (self._local, self._fold):
            total += op.data.nbytes + op.indices.nbytes + op.indptr.nbytes
        if self._plan is not None:
            total += self._plan.nbytes
        return int(total)

    def spmv_with_partials(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(y, partials)``: the result plus the pre-fold partial sums.

        ``partials`` is the concatenation of every rank's partial-sum
        buffer (the expand + local-compute output); ``y = fold @
        partials``. Splitting the two stages lets a caller time expand +
        local compute apart from fold + sum.
        """
        with phase("engine.local"):
            partials = self._apply(self._local, x)
        return self.fold(partials), partials

    def fold(self, partials: np.ndarray) -> np.ndarray:
        """Fold + sum a partial-sum buffer from :meth:`spmv_with_partials`."""
        with phase("engine.fold"):
            return self._apply(self._fold, partials)

    def spmv(self, x: np.ndarray) -> np.ndarray:
        """``A @ x`` through the compiled four phases.

        *x* must be a float64 vector of length n (the caller validates).
        """
        return self.spmv_with_partials(x)[0]

    def spmm(self, X: np.ndarray) -> np.ndarray:
        """``A @ X`` for an (n, k) block — k SpMVs through one compiled pass.

        Column j of the result is bit-identical to ``spmv(X[:, j])``: CSR
        times a dense block performs each row-column accumulation in the
        same stored-entry order as the matvec. Threading splits rows,
        never columns, so the identity survives the threaded kernel.
        """
        return self.spmv_with_partials(X)[0]
