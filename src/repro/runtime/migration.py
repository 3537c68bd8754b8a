"""Data redistribution (migration) cost between layouts.

The paper (section 3.1): "We also expect the data redistribution
(migration) time to be similar to 1D partitioning." Migration is what a
production system pays once to move from the ingest distribution
(typically 1D-Block, the order data arrives in) to the compute
distribution; this module computes that cost exactly — which nonzeros and
vector entries change ranks — and prices it with the machine model, so the
claim can be checked (``tests/test_migration.py`` asserts it) and
users can amortise partitioning against SpMV savings (the paper's
section 5.1 trade-off).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import as_csr
from .machine import CAB, MachineModel

__all__ = ["MigrationStats", "migration_stats"]

#: doubles-equivalent on the wire per moved nonzero: value + row + column
#: index (Epetra ships (i, j, a_ij) triples during redistribution)
_NNZ_WORDS = 3
#: per moved vector entry: value + global index
_VEC_WORDS = 2


@dataclass(frozen=True)
class MigrationStats:
    """Cost of moving a matrix + vector from one layout to another."""

    moved_nonzeros: int
    moved_vector_entries: int
    total_words: int
    #: busiest rank's (sent + received) words
    max_rank_words: int
    #: messages in the busiest rank's schedule
    max_rank_messages: int
    modeled_seconds: float


def _price_pair_words(
    pair_words: dict[tuple[int, int], int],
    nprocs: int,
    machine: MachineModel,
) -> tuple[float, int, int, int]:
    """Price a per-(source, destination) word schedule with alpha-beta.

    Each (s, d) pair is one message of ``pair_words[(s, d)]`` doubles; a
    rank's cost is the sum over its sends and receives of alpha + beta *
    payload, and the modeled wall-clock is the busiest rank's cost — the
    same postal accounting :meth:`CommPlan.phase_time` applies to SpMV
    phases. Returns ``(modeled_seconds, max_rank_words,
    max_rank_messages, total_words)``.
    """
    sent_w = np.zeros(nprocs, dtype=np.int64)
    recv_w = np.zeros(nprocs, dtype=np.int64)
    sent_m = np.zeros(nprocs, dtype=np.int64)
    recv_m = np.zeros(nprocs, dtype=np.int64)
    for (s, d), w in pair_words.items():
        sent_w[s] += w
        sent_m[s] += 1
        recv_w[d] += w
        recv_m[d] += 1
    per_rank_t = machine.alpha * (sent_m + recv_m) + machine.beta * (sent_w + recv_w)
    total_words = int(sum(pair_words.values()))
    rank_words = sent_w + recv_w
    rank_msgs = np.maximum(sent_m, recv_m)
    return (
        float(per_rank_t.max()) if nprocs else 0.0,
        int(rank_words.max()) if nprocs else 0,
        int(rank_msgs.max()) if nprocs else 0,
        total_words,
    )


def migration_stats(
    A,
    layout_from,
    layout_to,
    machine: MachineModel = CAB,
) -> MigrationStats:
    """Exact migration plan statistics from *layout_from* to *layout_to*.

    Both layouts must cover the same matrix. Every nonzero whose owner
    changes ships an (i, j, value) triple; every vector entry whose owner
    changes ships an (index, value) pair. Message counts are per distinct
    (source, destination) pair, the all-to-allv a real redistribution
    performs.
    """
    A = as_csr(A)
    coo = A.tocoo()
    src_nnz = np.asarray(layout_from.nonzero_owner(coo.row, coo.col), dtype=np.int64)
    dst_nnz = np.asarray(layout_to.nonzero_owner(coo.row, coo.col), dtype=np.int64)
    nprocs = max(layout_from.nprocs, layout_to.nprocs)

    moved = src_nnz != dst_nnz
    src_v = np.asarray(layout_from.vector_part, dtype=np.int64)
    dst_v = np.asarray(layout_to.vector_part, dtype=np.int64)
    moved_v = src_v != dst_v

    # per-(src, dst) word counts over both payload kinds
    pair_words: dict[tuple[int, int], int] = {}
    if moved.any():
        keys = src_nnz[moved] * nprocs + dst_nnz[moved]
        uniq, counts = np.unique(keys, return_counts=True)
        for key, c in zip(uniq.tolist(), counts.tolist()):
            pair = (key // nprocs, key % nprocs)
            pair_words[pair] = pair_words.get(pair, 0) + _NNZ_WORDS * c
    if moved_v.any():
        keys = src_v[moved_v] * nprocs + dst_v[moved_v]
        uniq, counts = np.unique(keys, return_counts=True)
        for key, c in zip(uniq.tolist(), counts.tolist()):
            pair = (key // nprocs, key % nprocs)
            pair_words[pair] = pair_words.get(pair, 0) + _VEC_WORDS * c

    seconds, max_words, max_msgs, total_words = _price_pair_words(
        pair_words, nprocs, machine
    )
    return MigrationStats(
        moved_nonzeros=int(moved.sum()),
        moved_vector_entries=int(moved_v.sum()),
        total_words=total_words,
        max_rank_words=max_words,
        max_rank_messages=max_msgs,
        modeled_seconds=seconds,
    )
