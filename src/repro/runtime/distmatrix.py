"""Distributed sparse matrix: per-rank local blocks + communication plans.

Mirrors Epetra's design (paper section 4): each rank holds the nonzeros a
layout assigns to it as a local CSR over *compressed* row/column index
sets; the row map / column map are exactly the global ids appearing in the
rank's nonzeros, the domain/range map is the vector distribution; and the
Importer (expand) / Exporter (fold) are derived from those maps alone —
"from these four maps Epetra can determine exactly what communication is
needed in SpMV".

The :meth:`DistSparseMatrix.spmv` method executes the paper's four phases
with genuine per-rank data movement (ghost values really are gathered from
the owner's buffer, partial sums really are shipped to the row owner), so
its result is bit-identical to ``A @ x`` only up to float addition order —
tests assert agreement to tight tolerance.

Cold path
---------
Construction assembles every rank's local block from one ``lexsort``
over all nonzeros plus a ``bincount``-cumsum row pointer, and
:meth:`~DistSparseMatrix.scatter_vector` /
:meth:`~DistSparseMatrix.gather_vector` split/merge vectors through the
:class:`~repro.runtime.maps.Map`'s grouped-index arrays. The seed's
per-rank COO->CSR loop stays as :func:`_assemble_blocks_reference`, the
oracle ``tests/test_distmatrix.py`` and ``benchmarks/bench_coldstart.py``
compare against block by block.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..graphs.csr import as_csr
from ..layouts.base import Layout
from .collectives import phase_time
from .engine import SpmvEngine
from .machine import CAB, MachineModel
from .maps import Map
from .plan import CommPlan
from .trace import CostLedger

__all__ = ["DistSparseMatrix"]


def _rank_local_coo(A: sp.csr_matrix, layout: Layout) -> tuple:
    """Nonzeros grouped by owning rank, with per-rank compressed ids.

    Returns ``(ranks_s, vals, lr, lc, starts, urow, rseg, ucol, cseg)``:
    per nonzero (stable-sorted by rank) its rank, value and local row /
    column id; ``starts`` the per-rank nonzero offsets; ``urow``/``ucol``
    every rank's sorted global row/column ids concatenated, segmented by
    ``rseg``/``cseg``.
    """
    n, nprocs = A.shape[0], layout.nprocs
    coo = A.tocoo()
    ranks = np.asarray(layout.nonzero_owner(coo.row, coo.col), dtype=np.int64)
    order = np.argsort(ranks, kind="stable")
    rows = coo.row[order].astype(np.int64)
    cols = coo.col[order].astype(np.int64)
    vals = coo.data[order]
    ranks_s = ranks[order]
    counts = np.bincount(ranks, minlength=nprocs)
    starts = np.concatenate([[0], np.cumsum(counts)])

    # Per-rank compressed index sets in one sort-based pass over all
    # nonzeros (no per-rank np.unique/searchsorted): unique (rank, id)
    # keys give every rank's sorted map, and each nonzero's local id is
    # its key's offset within the rank's segment.
    def per_rank_unique(ids: np.ndarray):
        key = ranks_s * np.int64(n) + ids
        uniq = np.unique(key)
        urank = uniq // n
        uid = uniq - urank * n
        seg = np.searchsorted(urank, np.arange(nprocs + 1))
        local = np.searchsorted(uniq, key) - seg[ranks_s]
        return uid, seg, local

    urow, rseg, lr = per_rank_unique(rows)
    ucol, cseg, lc = per_rank_unique(cols)
    return ranks_s, vals, lr, lc, starts, urow, rseg, ucol, cseg


def _assemble_blocks_reference(vals, lr, lc, starts, urow, rseg, ucol, cseg):
    """Seed assembly (oracle): one COO->CSR conversion per rank.

    Takes :func:`_rank_local_coo`'s intermediates; returns
    ``(row_maps, col_maps, local_blocks)``.
    """
    row_maps: list[np.ndarray] = []
    col_maps: list[np.ndarray] = []
    local_blocks: list[sp.csr_matrix] = []
    for r in range(len(starts) - 1):
        sl = slice(starts[r], starts[r + 1])
        rmap = urow[rseg[r] : rseg[r + 1]]
        cmap = ucol[cseg[r] : cseg[r + 1]]
        block = sp.csr_matrix(
            (vals[sl], (lr[sl], lc[sl])), shape=(len(rmap), len(cmap))
        )
        row_maps.append(rmap)
        col_maps.append(cmap)
        local_blocks.append(block)
    return row_maps, col_maps, local_blocks


class DistSparseMatrix:
    """A sparse matrix distributed over ``layout.nprocs`` simulated ranks."""

    def __init__(self, A, layout: Layout, machine: MachineModel = CAB):
        A = as_csr(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"square matrices only, got {A.shape}")
        if A.shape[0] != layout.n:
            raise ValueError(f"matrix dim {A.shape[0]} != layout dim {layout.n}")
        self.A_global = A
        self.layout = layout
        self.machine = machine
        self.nprocs = layout.nprocs
        self.n = A.shape[0]
        self.vector_map = Map(layout.vector_part, layout.nprocs)

        ranks_s, vals, lr, lc, starts, urow, rseg, ucol, cseg = _rank_local_coo(A, layout)
        self.local_nnz = np.diff(starts).astype(np.int64)
        # One (rank, row, col) lexsort over all nonzeros replaces per-rank
        # COO->CSR conversions: within a rank that order *is* the
        # canonical CSR entry order scipy's COO->CSR produces (row sort is
        # stable, sum_duplicates sorts columns within rows; layouts assign
        # each nonzero to one rank, so there are no duplicates to sum and
        # the data vectors match bit-for-bit).
        self.row_maps = np.split(urow, rseg[1:-1])  # global rows on rank
        self.col_maps = np.split(ucol, cseg[1:-1])  # global cols on rank
        order2 = np.lexsort((lc, lr, ranks_s))
        data2 = vals[order2]
        lc2 = lc[order2]
        # concatenated row pointers over all ranks' compressed rows
        # (bincount is order-free, so it runs on the pre-sort arrays)
        row_counts = np.bincount(
            rseg[ranks_s] + lr, minlength=int(rseg[-1])
        )
        indptr_all = np.concatenate(
            [[0], np.cumsum(row_counts)]
        ).astype(np.int64)
        self.local_blocks: list[sp.csr_matrix] = []
        for r in range(self.nprocs):
            r0, r1 = int(rseg[r]), int(rseg[r + 1])
            block = sp.csr_matrix((r1 - r0, int(cseg[r + 1] - cseg[r])))
            i0, i1 = int(starts[r]), int(starts[r + 1])
            block.data = data2[i0:i1]
            block.indices = lc2[i0:i1]
            block.indptr = indptr_all[r0 : r1 + 1] - indptr_all[r0]
            self.local_blocks.append(block)

        # Importer: deliver x-entries listed in each rank's column map
        self.import_plan = CommPlan.build(self.col_maps, self.vector_map)
        # Exporter: ship partial y-sums for non-owned rows to the row owner.
        # Structurally this is the import pattern on the row maps with the
        # message direction reversed (owner <- producer).
        fold_forward = CommPlan.build(self.row_maps, self.vector_map)
        self.fold_plan = CommPlan(
            nprocs=fold_forward.nprocs,
            src=fold_forward.dst,
            dst=fold_forward.src,
            ptr=fold_forward.ptr,
            indices=fold_forward.indices,
        )
        self._verify_plans()
        self._engine: SpmvEngine | None = None

    def _verify_plans(self) -> None:
        """Check plan/ownership consistency once, at build time.

        Every import payload must come from the owner of its indices and
        every fold payload must go *to* the owner of its rows. With this
        established the hot paths skip per-message ownership validation
        (``Map.local_ids(..., validate=False)``).
        """
        vm = self.vector_map
        ip, fp = self.import_plan, self.fold_plan
        if not np.array_equal(
            vm.owner[ip.indices], np.repeat(ip.src, ip.message_sizes())
        ):
            raise ValueError("import plan sends indices their source does not own")
        if not np.array_equal(
            vm.owner[fp.indices], np.repeat(fp.dst, fp.message_sizes())
        ):
            raise ValueError("fold plan ships rows their destination does not own")

    @property
    def engine(self) -> SpmvEngine:
        """The compiled executor (built lazily on first apply)."""
        if self._engine is None:
            self._engine = SpmvEngine(self)
        return self._engine

    # -- data movement helpers ---------------------------------------------

    def scatter_vector(self, x: np.ndarray) -> list[np.ndarray]:
        """Split a global vector into per-rank owned segments.

        One fancy gather in the map's grouped order, then a split — the
        segments are the same values in the same (ascending global id)
        order as per-rank ``x[indices_of(r)]`` gathers, bit for bit.
        """
        if x.shape != (self.n,):
            raise ValueError(f"vector shape {x.shape} != ({self.n},)")
        vm = self.vector_map
        return np.split(x[vm.grouped_indices()], vm.starts()[1:-1])

    def gather_vector(self, parts: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-rank owned segments into a global vector.

        Concatenates once and scatters through the grouped-index array;
        each global slot is written exactly once (ownership partitions
        the index space), so the result is bit-identical to per-rank
        ``out[indices_of(r)] = parts[r]`` assignments.
        """
        out = np.empty(self.n)
        vm = self.vector_map
        out[vm.grouped_indices()] = np.concatenate(parts) if parts else []
        return out

    # -- the four-phase SpMV ---------------------------------------------------

    def spmv(self, x: np.ndarray, ledger: CostLedger | None = None) -> np.ndarray:
        """y = A x with explicit expand / local-compute / fold / sum phases.

        Charges modeled per-phase time to *ledger* when given. The data
        movement is real: every ghost value crosses a message buffer, every
        remote partial sum is shipped and accumulated at the owner.

        The compiled :class:`~repro.runtime.engine.SpmvEngine` executes
        the phases (index plans flattened once, buffers reused). It is
        bit-identical to :meth:`_spmv_reference`, the original
        per-message loops — same values moved, same per-slot summation
        order — which ``tests/test_engine.py`` asserts exactly.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n,):
            raise ValueError(f"vector shape {x.shape} != ({self.n},)")
        y = self.engine.spmv(x)
        if ledger is not None:
            self.charge_spmv(ledger)
        return y

    def _spmv_reference(self, x: np.ndarray) -> np.ndarray:
        """The per-message four-phase executor (the engine's ground truth).

        A private oracle: tests call it directly on a float64 vector of
        length ``n``.
        """
        vm = self.vector_map
        x_owned = self.scatter_vector(x)

        # --- phase 1: expand ---
        x_local: list[np.ndarray] = []
        for r in range(self.nprocs):
            cmap = self.col_maps[r]
            buf = np.zeros(len(cmap))
            own = vm.owner[cmap] == r
            if own.any():
                buf[own] = x_owned[r][vm.local_ids(cmap[own], r, validate=False)]
            x_local.append(buf)
        for m in range(self.import_plan.nmessages):
            s = int(self.import_plan.src[m])
            d = int(self.import_plan.dst[m])
            idx = self.import_plan.message_indices(m)
            payload = x_owned[s][vm.local_ids(idx, s, validate=False)]  # "send"
            x_local[d][np.searchsorted(self.col_maps[d], idx)] = payload  # "recv"

        # --- phase 2: local compute ---
        y_partial = [self.local_blocks[r] @ x_local[r] for r in range(self.nprocs)]

        # --- phases 3+4: fold and sum ---
        y_owned = [np.zeros(c) for c in vm.counts()]
        for r in range(self.nprocs):
            rmap = self.row_maps[r]
            own = vm.owner[rmap] == r
            if own.any():
                np.add.at(
                    y_owned[r],
                    vm.local_ids(rmap[own], r, validate=False),
                    y_partial[r][own],
                )
        for m in range(self.fold_plan.nmessages):
            s = int(self.fold_plan.src[m])
            d = int(self.fold_plan.dst[m])
            idx = self.fold_plan.message_indices(m)
            payload = y_partial[s][np.searchsorted(self.row_maps[s], idx)]
            np.add.at(y_owned[d], vm.local_ids(idx, d, validate=False), payload)

        return self.gather_vector(y_owned)

    def spmm(self, X: np.ndarray, ledger: CostLedger | None = None) -> np.ndarray:
        """Y = A X for an (n, k) block — k SpMVs through one compiled pass.

        Column j is bit-identical to ``spmv(X[:, j])``; the modeled cost
        charged to *ledger* is exactly k single-vector SpMVs (the cost
        model prices the scheduled messages, which are the same — block
        execution changes constants the model deliberately ignores).
        """
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[0] != self.n:
            raise ValueError(f"block shape {X.shape} != ({self.n}, k)")
        Y = self.engine.spmm(X)
        if ledger is not None and X.shape[1]:
            self.charge_spmv(ledger, count=X.shape[1])
        return Y

    # -- cost model ------------------------------------------------------------

    def charge_spmv(self, ledger: CostLedger, count: int = 1,
                    algorithm: str = "direct") -> None:
        """Charge the modeled cost of *count* SpMVs to *ledger*.

        The communication structure is iteration-invariant, so cost scales
        linearly — this is how benches model "time for 100 SpMV" from one
        executed multiply. ``algorithm`` selects the communication model
        for the expand/fold phases ("direct", "tree" or "hypercube"; see
        :mod:`repro.runtime.collectives` and the paper's reference [18]).
        Every phase is a max over ranks: the busiest rank's messages,
        flops and received fold words set its time.
        """
        mach = self.machine
        ledger.add("expand", count * phase_time(self.import_plan, mach, algorithm))
        flops = 2.0 * self.local_nnz.max() if self.nprocs else 0.0
        ledger.add("local-compute", count * mach.compute_time(flops))
        ledger.add("fold", count * phase_time(self.fold_plan, mach, algorithm))
        recv = self.fold_plan.recv_volume().astype(np.float64)
        sum_cost = mach.gamma_mem * (recv.max() if len(recv) else 0.0)
        ledger.add("sum", count * float(sum_cost))

    def modeled_spmv_seconds(self, count: int = 1, algorithm: str = "direct") -> float:
        """Modeled seconds for *count* SpMV operations."""
        ledger = CostLedger()
        self.charge_spmv(ledger, count, algorithm=algorithm)
        return ledger.spmv_total()

    # -- memory model ----------------------------------------------------------

    def memory_per_rank(self) -> np.ndarray:
        """Bytes each rank needs for its share of the problem.

        Counts the local CSR block (8-byte values + 4-byte column indices +
        4-byte row pointers over the compressed index sets), the owned
        vector entries (x and y, 8 bytes each), and the ghost/receive
        buffers implied by the communication plans. This is the quantity
        behind the paper's out-of-memory warning for imbalanced block
        layouts — a 130x nonzero imbalance is a 130x memory spike.
        """
        nnz = self.local_nnz.astype(np.int64)
        local_rows = np.array([len(r) for r in self.row_maps], dtype=np.int64)
        local_cols = np.array([len(c) for c in self.col_maps], dtype=np.int64)
        owned = self.vector_map.counts().astype(np.int64)
        ghosts = self.import_plan.recv_volume().astype(np.int64)
        fold_buf = self.fold_plan.recv_volume().astype(np.int64)
        matrix_bytes = 12 * nnz + 4 * (local_rows + 1)
        vector_bytes = 8 * (2 * owned + local_cols + ghosts + fold_buf)
        return matrix_bytes + vector_bytes

    def memory_imbalance(self) -> float:
        """Max/avg per-rank memory footprint (1.0 = even)."""
        mem = self.memory_per_rank()
        avg = max(mem.mean(), 1e-300)
        return float(mem.max() / avg)
