"""Communication plans (Epetra Import/Export equivalents).

A :class:`CommPlan` is the complete, explicit message schedule of one SpMV
communication phase: every (source, destination, index-list) triple. The
expand plan moves x-entries from their owners to consumers; the fold plan
moves partial y-sums from producers to row owners. All of the paper's
reported communication metrics — max messages per process, total
communication volume — fall directly out of this structure, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .maps import Map

__all__ = ["CommPlan"]


@dataclass
class CommPlan:
    """Explicit point-to-point message schedule.

    Message *m* carries the values of global indices
    ``indices[ptr[m]:ptr[m+1]]`` from rank ``src[m]`` to rank ``dst[m]``.
    ``src[m] != dst[m]`` always — local data movement is not a message.
    """

    nprocs: int
    src: np.ndarray
    dst: np.ndarray
    ptr: np.ndarray
    indices: np.ndarray
    _by_src: list[np.ndarray] | None = field(default=None, repr=False)
    _by_dst: list[np.ndarray] | None = field(default=None, repr=False)
    _sent_counts: np.ndarray | None = field(default=None, repr=False)
    _recv_counts: np.ndarray | None = field(default=None, repr=False)
    _sent_volume: np.ndarray | None = field(default=None, repr=False)
    _recv_volume: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def build(cls, needed: list[np.ndarray], owner_map: Map) -> "CommPlan":
        """Build the plan that delivers ``needed[r]`` to each rank r.

        ``needed[r]`` lists the global indices rank r must receive;
        indices r already owns are skipped (no self-messages). Each
        message's indices are sorted ascending, which makes the payload
        layout deterministic on both sides.

        One sort-based pass over all (destination, index) pairs — no
        per-rank Python loop, so building a plan for 1024 ranks costs the
        same O(total log total) as for 4.
        """
        nprocs = owner_map.nprocs
        if len(needed) != nprocs:
            raise ValueError(f"needed has {len(needed)} entries, expected {nprocs}")
        empty = cls(
            nprocs=nprocs,
            src=np.empty(0, dtype=np.int64),
            dst=np.empty(0, dtype=np.int64),
            ptr=np.zeros(1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
        )
        lens = np.fromiter((len(a) for a in needed), dtype=np.int64, count=nprocs)
        if lens.sum() == 0:
            return empty
        dst_all = np.repeat(np.arange(nprocs, dtype=np.int64), lens)
        idx_all = np.concatenate([np.asarray(a, dtype=np.int64) for a in needed])
        # dedupe (dst, idx) pairs; ukey is sorted by dst then idx
        n = np.int64(owner_map.n)
        ukey = np.unique(dst_all * n + idx_all)
        dsts = ukey // n
        idxs = ukey - dsts * n
        owners = owner_map.owner[idxs]
        remote = owners != dsts
        dsts, idxs, owners = dsts[remote], idxs[remote], owners[remote]
        if len(idxs) == 0:
            return empty
        # message order: destination-major, then source; indices ascending
        order = np.lexsort((idxs, owners, dsts))
        dsts, idxs, owners = dsts[order], idxs[order], owners[order]
        cut = np.flatnonzero((np.diff(dsts) != 0) | (np.diff(owners) != 0)) + 1
        ptr = np.concatenate([[0], cut, [len(idxs)]]).astype(np.int64)
        return cls(
            nprocs=nprocs,
            src=owners[ptr[:-1]],
            dst=dsts[ptr[:-1]],
            ptr=ptr,
            indices=idxs,
        )

    # -- structure accessors -------------------------------------------------

    @property
    def nmessages(self) -> int:
        """Total number of point-to-point messages."""
        return len(self.src)

    def message_indices(self, m: int) -> np.ndarray:
        """Global indices carried by message *m* (view)."""
        return self.indices[self.ptr[m] : self.ptr[m + 1]]

    def message_sizes(self) -> np.ndarray:
        """Payload length (doubles) per message."""
        return np.diff(self.ptr)

    def messages_from(self, rank: int) -> np.ndarray:
        """Message ids sent by *rank* (cached grouping)."""
        if self._by_src is None:
            self._by_src = self._group(self.src)
        return self._by_src[rank]

    def messages_to(self, rank: int) -> np.ndarray:
        """Message ids received by *rank* (cached grouping)."""
        if self._by_dst is None:
            self._by_dst = self._group(self.dst)
        return self._by_dst[rank]

    def _group(self, key: np.ndarray) -> list[np.ndarray]:
        out = [np.empty(0, dtype=np.int64)] * self.nprocs
        if len(key) == 0:
            return out
        order = np.argsort(key, kind="stable")
        sorted_key = key[order]
        cut = np.flatnonzero(np.diff(sorted_key)) + 1
        for block in np.split(order, cut):
            out[int(key[block[0]])] = block
        return out

    # -- per-rank statistics ---------------------------------------------------

    def sent_counts(self) -> np.ndarray:
        """Messages sent per rank (cached; treat as read-only)."""
        if self._sent_counts is None:
            self._sent_counts = np.bincount(self.src, minlength=self.nprocs)
        return self._sent_counts

    def recv_counts(self) -> np.ndarray:
        """Messages received per rank (cached; treat as read-only)."""
        if self._recv_counts is None:
            self._recv_counts = np.bincount(self.dst, minlength=self.nprocs)
        return self._recv_counts

    def sent_volume(self) -> np.ndarray:
        """Doubles sent per rank (cached; treat as read-only)."""
        if self._sent_volume is None:
            out = np.zeros(self.nprocs, dtype=np.int64)
            np.add.at(out, self.src, self.message_sizes())
            self._sent_volume = out
        return self._sent_volume

    def recv_volume(self) -> np.ndarray:
        """Doubles received per rank (cached; treat as read-only)."""
        if self._recv_volume is None:
            out = np.zeros(self.nprocs, dtype=np.int64)
            np.add.at(out, self.dst, self.message_sizes())
            self._recv_volume = out
        return self._recv_volume

    @property
    def total_volume(self) -> int:
        """Total doubles moved (the paper's "total CV" for this phase)."""
        return int(self.ptr[-1])

    def invariants(self) -> dict[str, int]:
        """The plan's exact, machine-independent invariants, as plain ints.

        These are the quantities the regression harness snapshots as golden
        values (see :mod:`repro.regress`): any refactor of plan construction
        or of the partitioners that changes the communication structure
        changes at least one of them. All are bit-exact — no floats.
        """
        sent, recv = self.sent_counts(), self.recv_counts()
        svol, rvol = self.sent_volume(), self.recv_volume()
        return {
            "messages": self.nmessages,
            "volume": self.total_volume,
            "max_sent_messages": int(sent.max()) if len(sent) else 0,
            "max_recv_messages": int(recv.max()) if len(recv) else 0,
            "max_sent_volume": int(svol.max()) if len(svol) else 0,
            "max_recv_volume": int(rvol.max()) if len(rvol) else 0,
        }

    def phase_time(self, machine) -> float:
        """Modeled wall-clock of this phase: max over ranks of send+recv.

        Each rank's cost is the sum over its messages of alpha + beta *
        payload, posted sends and receives both charged (no overlap — the
        conservative postal model).
        """
        sizes = self.message_sizes()
        per_rank = np.zeros(self.nprocs)
        cost = machine.alpha + machine.beta * sizes
        np.add.at(per_rank, self.src, cost)
        np.add.at(per_rank, self.dst, cost)
        return float(per_rank.max()) if self.nprocs else 0.0
