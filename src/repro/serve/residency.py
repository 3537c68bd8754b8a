"""Engine residency: hot matrices stay compiled behind a two-tier lookup.

The expensive artefacts of serving a matvec are, in cost order: the
partition (seconds — amortized by the on-disk partition cache), the
:class:`~repro.runtime.distmatrix.DistSparseMatrix` build and its
compiled :class:`~repro.runtime.engine.SpmvEngine` (tens of
milliseconds), and the multiply itself (sub-millisecond). A server that
rebuilt any of the first two per request would be paying the one-shot
CLI tax this package exists to remove, so lookups go through two tiers:

1. **memory** — the LRU of live engines below (a ``mem_hit``);
2. **disk** — the compiled-artifact store
   (:class:`repro.runtime.store.EngineStore`): a cold key whose engine
   a previous process persisted is reconstructed from a zero-copy mmap
   in ~a millisecond (a ``disk_hit``), skipping partition → maps →
   plan → compile entirely;
3. only then does the server **build** (and persist for the next
   process — a ``built``).

Keys are ``(matrix content hash, method, procs, seed)`` — the same
content-hash scheme as the partition cache
(:func:`repro.bench.harness.cached_rpart` uses
``{hash}_{code}_{kind}_k{nparts}_s{seed}``), so a resident engine, its
disk artifact, and its cached rpart all name the same partition. Both
file names carry a fingerprint of the code that made them, so a disk
hit is always an engine the running code would have compiled. Tier
outcomes are counted (``tier_counts``) and reported through serve
``health``/``stats`` so load and chaos harnesses can assert cold-path
behavior instead of inferring it from latency.

Eviction is least-recently-used, bounded by engine count and optionally
by resident bytes (:attr:`SpmvEngine.nbytes
<repro.runtime.engine.SpmvEngine.nbytes>`). Eviction only forgets — the
partition and the engine artifact survive on disk, so re-admission
costs an mmap load, not a re-partition. The budget is checked at
admission; a served engine is serial, so it does not grow after it is
admitted.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..runtime.store import EngineKey

if TYPE_CHECKING:  # import cycle guard: runtime imports stay lazy
    from ..runtime.engine import SpmvEngine
    from ..runtime.store import EngineStore

__all__ = ["EngineKey", "ResidentEngine", "EngineResidency"]


@dataclass
class ResidentEngine:
    """One hot entry: the compiled engine, its batcher and its provenance.

    Built and store-loaded entries have the same shape: the server keeps
    only the engine it multiplies with, never the distribution it was
    compiled from.
    """

    key: EngineKey
    matrix: str  # display name the first admitting request used
    engine: "SpmvEngine"
    batcher: object | None = None  # MicroBatcher, attached by the server
    hits: int = 0
    cold_partition_seconds: float = 0.0
    compile_seconds: float = 0.0
    meta: dict = field(default_factory=dict)

    @property
    def n(self) -> int:
        return self.engine.n

    @property
    def nbytes(self) -> int:
        return self.engine.nbytes

    def as_dict(self) -> dict:
        """JSON view for the ``stats`` op."""
        return {
            "key": str(self.key),
            "matrix": self.matrix,
            "n": self.n,
            "procs": self.key.procs,
            "method": self.key.method,
            "seed": self.key.seed,
            "nbytes": self.nbytes,
            "hits": self.hits,
            "engine_source": self.meta.get("engine_source", "built"),
            "cold_partition_seconds": round(self.cold_partition_seconds, 6),
            "compile_seconds": round(self.compile_seconds, 6),
        }


class EngineResidency:
    """LRU of :class:`ResidentEngine` bounded by count and bytes.

    Not thread-safe by design: the server touches it only from the event
    loop thread, which is the synchronization discipline of the whole
    serve layer (compute may block the loop for a flush, admission may
    not interleave). The one exception is :meth:`load_from_store`, which
    is pure store I/O plus counter bumps and is explicitly safe to run
    off-loop (the server calls it via ``asyncio.to_thread``); admission
    of its result still happens on the loop.
    """

    def __init__(
        self,
        max_engines: int = 8,
        max_bytes: int | None = None,
        store: "EngineStore | None" = None,
    ):
        if max_engines < 1:
            raise ValueError(f"max_engines must be >= 1, got {max_engines}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.max_engines = max_engines
        self.max_bytes = max_bytes
        self.store = store
        self._entries: OrderedDict[EngineKey, ResidentEngine] = OrderedDict()
        self.evictions = 0
        #: lookup outcomes by tier: memory LRU / disk store / fresh build
        self.tier_counts = {"mem_hit": 0, "disk_hit": 0, "built": 0}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: EngineKey) -> bool:
        return key in self._entries

    def get(self, key: EngineKey) -> ResidentEngine | None:
        """Look up *key* in memory, refreshing its recency on a hit."""
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
            entry.hits += 1
            self.tier_counts["mem_hit"] += 1
        return entry

    def load_from_store(self, key: EngineKey, matrix: str) -> ResidentEngine | None:
        """Tier 2: reconstruct *key* from the disk store (None on miss).

        Blocking (file I/O) — safe off the event loop. The returned
        entry is *not* admitted; the caller attaches a batcher and calls
        :meth:`admit` from the loop thread.
        """
        if self.store is None:
            return None
        loaded = self.store.load(key)
        if loaded is None:
            return None
        self.tier_counts["disk_hit"] += 1
        return ResidentEngine(
            key=key,
            matrix=matrix,
            engine=loaded.engine,
            meta={
                "engine_source": "disk",
                "mmapped": loaded.mmapped,
                "artifact": loaded.path.name,
            },
        )

    def note_built(self) -> None:
        """Count a tier-3 outcome (both store tiers missed; fresh build)."""
        self.tier_counts["built"] += 1

    def admit(self, entry: ResidentEngine) -> list[ResidentEngine]:
        """Insert *entry*; return whatever was evicted to make room.

        The newest entry is never evicted, even when it alone exceeds
        ``max_bytes`` — a request for an oversized matrix should succeed
        (and evict everything else) rather than thrash.
        """
        self._entries[entry.key] = entry
        self._entries.move_to_end(entry.key)
        evicted: list[ResidentEngine] = []
        while len(self._entries) > self.max_engines:
            evicted.append(self._entries.popitem(last=False)[1])
        if self.max_bytes is not None:
            while len(self._entries) > 1 and self.resident_bytes() > self.max_bytes:
                evicted.append(self._entries.popitem(last=False)[1])
        self.evictions += len(evicted)
        return evicted

    def evict(self, key: EngineKey) -> ResidentEngine | None:
        """Forcibly drop *key* (explicit eviction; counts in the stats)."""
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.evictions += 1
        return entry

    def resident_bytes(self) -> int:
        """Total engine bytes currently resident."""
        return sum(e.nbytes for e in self._entries.values())

    def entries(self) -> list[ResidentEngine]:
        """Entries in LRU order (oldest first) — for the ``stats`` op."""
        return list(self._entries.values())

    def stats(self) -> dict:
        """Aggregate residency stats (tier outcomes + budget accounting)."""
        return {
            "tiers": dict(self.tier_counts),
            "evictions": self.evictions,
            "resident": len(self._entries),
            "resident_bytes": self.resident_bytes(),
            "store": self.store.stats_dict() if self.store is not None else None,
        }
