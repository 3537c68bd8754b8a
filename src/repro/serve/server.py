"""The asyncio matvec server: residency + batching + resilient cold path.

One event-loop thread owns all mutable state (residency, batchers,
counters); the only things that leave it are blocking builds (matrix
loads, partitioning, engine compiles — pushed to worker threads or the
partition process pool) and the compute of a batch flush (deliberately
inline, see :mod:`~repro.serve.batching`). Request lifecycle:

**warm matvec** (the common case the whole design optimizes)
    decode -> residency hit -> micro-batch -> one ``spmm`` column ->
    respond. Per-request span timings (``queue``/``batch``/``compute``)
    ride back in the response metadata.

**cold matvec / partition**
    The engine key is ``(matrix hash, method, procs, seed)`` — identical
    to the partition-cache key, and both caches name their files with a
    fingerprint of the code that made them, so a cold engine walks the
    storage tiers in cost order: first the **compiled-engine artifact store**
    (:class:`repro.runtime.store.EngineStore` — a zero-copy mmap load
    that skips partition → maps → plan → compile entirely), then the
    on-disk rpart cache. A true miss of both is sharded to a
    :class:`~repro.parallel.ResilientPool` worker with a per-request
    timeout and bounded retry; concurrent requests for the same key
    coalesce onto one build (single-flight), and the freshly compiled
    engine is persisted back to the store so the *next* process cold
    start is an mmap load. If the pool exhausts its budget the server
    **degrades gracefully**: the partition runs on the reference
    in-process path instead, the request still completes, and the
    response says so. ``--preload`` at boot and the ``partition`` op at
    run time prefetch an engine through the same path ahead of traffic.

**fault injection** (only honored when the server was started with
``allow_fault_injection``; a request's ``fault`` object takes two keys)
    ``kill_worker`` kills the partition worker outright (``os._exit`` in
    the child, a real death): the pool rebuilds and retries, the
    response reports ``worker_deaths`` and a ``worker-death`` event is
    logged. ``slow_ms`` stalls the request that long before it joins its
    micro-batch, like a straggling engine, and logs a ``slow-engine``
    event. Both are real events the server observes; neither is priced
    in modeled seconds.

**resilience semantics** (what the chaos harness exercises)
    Connections are *pipelined*: each framed request dispatches as its
    own task, so several can be in flight per connection — which is what
    makes duplicate in-flight ids detectable (rejected per connection)
    and lets a retried request overlap its predecessor. Requests carrying
    an ``idem`` key deduplicate through a bounded idempotency table: a
    retry of an in-flight matvec awaits the original's future (never
    double-batched), a retry of a completed one is answered from the
    stored result (never recomputed). Work admission is bounded — per
    engine by :data:`MAX_QUEUE` pending micro-batch requests, globally by
    :data:`MAX_INFLIGHT` requests in flight — and refusals are explicit
    load-shedding responses (``shed: true`` with a ``retry_after_s``
    hint), never silent queueing. Shutdown is a *graceful drain*:
    in-flight requests (including cold engine builds) complete, new work
    is refused with ``draining: true``, and the listener stops only once
    the in-flight count hits zero (or :data:`DRAIN_GRACE_S` expires). The
    health endpoint reports the resulting state machine: ``ok`` /
    ``degraded`` (a recent shed) / ``draining``.
"""

from __future__ import annotations

import asyncio
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from threading import Event as ThreadEvent
from threading import Thread

import numpy as np

from ..layouts import LAYOUT_NAMES
from ..parallel import PoolTaskFailed, ResilientPool
from ..perf import SpanRecorder
from ..runtime.store import EngineStore, default_cache_dir, default_store_dir
from .batching import MicroBatcher, QueueFull
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    decode_vector,
    encode_message,
    encode_vector,
    read_message,
)
from .residency import EngineKey, EngineResidency, ResidentEngine

__all__ = ["ServeConfig", "MatvecServer", "ServerHandle", "start_in_thread"]


#: layout a request gets when it names no ``method``
DEFAULT_METHOD = "2d-gp"
#: simulated process count a request gets when it names no ``procs``
DEFAULT_PROCS = 16
#: per-engine pending-request bound before load shedding
MAX_QUEUE = 128
#: global in-flight work bound (matvec + partition) before shedding
MAX_INFLIGHT = 512
#: seconds a graceful drain waits for in-flight work before forcing stop
DRAIN_GRACE_S = 30.0
#: completed idempotency-table entries kept for retry dedup (LRU)
IDEM_CAPACITY = 4096
#: requests after the last shed during which health reports "degraded"
DEGRADED_WINDOW = 100
#: the keys a request's ``fault`` object may carry
FAULT_KEYS = ("kill_worker", "slow_ms")
#: a ``shutdown`` request's ``mode``: absent or ``drain`` drains, ``now`` stops
SHUTDOWN_MODES = (None, "drain", "now")

_FRAME_KEYS = frozenset({"op", "id", "crc"})
_TARGET_KEYS = _FRAME_KEYS | {"matrix", "method", "procs", "seed", "fault"}
#: the top-level keys each op accepts; any other key is refused by name,
#: so a misspelled field is an error rather than a silent default
OP_KEYS = {
    "health": _FRAME_KEYS,
    "stats": _FRAME_KEYS,
    "shutdown": _FRAME_KEYS | {"mode"},
    "matvec": _TARGET_KEYS | {"idem", "bin", "x", "x_b64"},
    "partition": _TARGET_KEYS,
}


def _is_int(x) -> bool:
    """An int that is not a bool (``True`` is an ``int`` to isinstance)."""
    return isinstance(x, int) and not isinstance(x, bool)


def _partition_task(A, kind, nparts, seed, cache_dir, inject_kill, attempt):
    """Pool-worker unit: one cold partition, written through the cache.

    ``attempt`` is supplied by :meth:`ResilientPool.run`; fault injection
    kills the worker process outright on attempt 0 — a real death, not an
    exception, so the parent sees exactly what an OOM kill looks like.
    """
    if inject_kill and attempt == 0:
        os._exit(3)
    from ..bench.harness import cached_rpart

    return cached_rpart(A, kind, nparts, seed=seed, cache_dir=Path(cache_dir))


@dataclass(frozen=True)
class ServeConfig:
    """Everything a server instance needs to know, in one picklable bag."""

    socket_path: str
    max_batch: int = 16
    batch_deadline_ms: float = 2.0
    max_engines: int = 8
    max_resident_bytes: int | None = None
    default_seed: int = 0
    partition_timeout_s: float = 300.0
    partition_retries: int = 2
    pool_workers: int = 1
    cache_dir: str | None = None  # None = $REPRO_CACHE_DIR / default
    #: compiled-engine artifact store directory (None = default, which
    #: honors $REPRO_ENGINE_STORE_DIR and nests under the cache dir)
    engine_store_dir: str | None = None
    #: disable the disk tier entirely (memory LRU -> build, PR 7 behavior)
    use_engine_store: bool = True
    allow_fault_injection: bool = False
    preload: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.batch_deadline_ms < 0:
            raise ValueError("batch_deadline_ms must be >= 0")
        if self.partition_retries < 0:
            raise ValueError("partition_retries must be >= 0")


@dataclass
class _BuildOutcome:
    """What one engine build wants the admitting request(s) to know."""

    entry: ResidentEngine
    meta: dict = field(default_factory=dict)


@dataclass
class _IdemEntry:
    """One idempotency-table slot: in-flight future or completed answer.

    While the original request computes, ``future`` is pending and every
    retry awaits it (one computation, many answers). Once resolved, the
    answer (``y`` plus the base response fields) is stored and the future
    dropped; later retries are answered from storage, re-encoded in their
    own wire encoding.
    """

    future: asyncio.Future | None = None
    y: np.ndarray | None = None
    base: dict | None = None


class MatvecServer:
    """Long-lived partition-as-a-service daemon (see module docstring)."""

    def __init__(self, config: ServeConfig):
        self.config = config
        self.store = self._make_store()
        self.residency = EngineResidency(
            max_engines=config.max_engines,
            max_bytes=config.max_resident_bytes,
            store=self.store,
        )
        self.pool = ResilientPool(
            max_workers=config.pool_workers,
            max_retries=config.partition_retries,
        )
        self.counters = {
            "requests": 0,
            "matvec": 0,
            "partition": 0,
            "health": 0,
            "stats": 0,
            "errors": 0,
            "degraded": 0,
            "shed": 0,
            "deduped": 0,
            "duplicate_ids": 0,
        }
        self.fault_events: list[dict] = []
        self._matrices: dict[str, tuple[str, object, str]] = {}
        self._building: dict[EngineKey, asyncio.Task] = {}
        self._idem: OrderedDict[str, _IdemEntry] = OrderedDict()
        self._inflight_work = 0
        self._draining = False
        self._last_shed_request: int | None = None
        self._started_at = time.time()
        self._stop: asyncio.Event | None = None

    # -- lifecycle ---------------------------------------------------------

    async def serve(self, on_started=None) -> None:
        """Listen until a graceful drain completes (or :meth:`request_stop`)."""
        self._stop = asyncio.Event()
        sock_path = self.config.socket_path
        Path(sock_path).parent.mkdir(parents=True, exist_ok=True)
        if os.path.exists(sock_path):
            os.unlink(sock_path)
        listener = await asyncio.start_unix_server(
            self._handle_connection, path=sock_path, limit=MAX_LINE_BYTES
        )
        try:
            for ref in self.config.preload:
                name, A, mhash = await self._load_matrix(ref)
                await self._ensure_engine(
                    name,
                    A,
                    mhash,
                    DEFAULT_METHOD,
                    DEFAULT_PROCS,
                    self.config.default_seed,
                )
            if on_started is not None:
                on_started(self)
            await self._stop.wait()
        finally:
            for entry in self.residency.entries():
                if entry.batcher is not None:
                    entry.batcher.drain()
            listener.close()
            await listener.wait_closed()
            if os.path.exists(sock_path):
                os.unlink(sock_path)
            self.pool.shutdown()

    def request_stop(self) -> None:
        """Stop immediately, abandoning in-flight work (loop thread only)."""
        if self._stop is not None:
            self._stop.set()

    def begin_drain(self) -> None:
        """Start a graceful drain (loop thread only; idempotent).

        New matvec/partition work is refused with ``draining: true`` from
        this point on; pending micro-batches flush now; the listener stops
        once the last in-flight request completes (a :data:`DRAIN_GRACE_S`
        timer forces the stop if something wedges).
        """
        if self._draining:
            return
        self._draining = True
        for entry in self.residency.entries():
            if entry.batcher is not None:
                entry.batcher.drain()
        if self._stop is not None:
            if self._inflight_work == 0:
                self._stop.set()
            else:
                asyncio.get_running_loop().call_later(DRAIN_GRACE_S, self._stop.set)

    @property
    def state(self) -> str:
        """Health state: ``ok``, ``degraded`` (recent shed) or ``draining``."""
        if self._draining:
            return "draining"
        if (
            self._last_shed_request is not None
            and self.counters["requests"] - self._last_shed_request
            <= DEGRADED_WINDOW
        ):
            return "degraded"
        if self._inflight_work >= MAX_INFLIGHT:
            return "degraded"
        return "ok"

    def _retry_after_s(self) -> float:
        """Backpressure hint for shed/draining responses (seconds)."""
        pending = max(
            (e.batcher.pending for e in self.residency.entries() if e.batcher),
            default=0,
        )
        deadline_s = self.config.batch_deadline_ms / 1e3
        return round(max(deadline_s, 1e-3) * (1 + pending / self.config.max_batch), 6)

    def _work_started(self) -> None:
        self._inflight_work += 1

    def _work_finished(self) -> None:
        self._inflight_work -= 1
        if self._draining and self._inflight_work == 0 and self._stop is not None:
            self._stop.set()

    # -- matrix + engine admission ----------------------------------------

    def _cache_dir(self) -> Path:
        if self.config.cache_dir is not None:
            p = Path(self.config.cache_dir)
            p.mkdir(parents=True, exist_ok=True)
            return p
        return default_cache_dir()

    def _make_store(self):
        """The engine artifact store per config (None = disk tier off)."""
        if not self.config.use_engine_store:
            return None
        # an explicit cache dir is a hermeticity request (tests, chaos
        # demos): the default engine store nests inside it too
        root = self.config.engine_store_dir or default_store_dir(self.config.cache_dir)
        return EngineStore(root)

    async def _load_matrix(self, ref: str) -> tuple[str, object, str]:
        """Resolve *ref* (corpus name or file path) to ``(name, A, hash)``."""
        cached = self._matrices.get(ref)
        if cached is not None:
            return cached

        def load():
            from ..graphs.csr import as_csr
            from ..io import load_matrix
            from ..runtime.store import matrix_hash

            try:
                name, A = load_matrix(ref)
            except FileNotFoundError:
                raise ProtocolError(
                    f"matrix {ref!r} is neither a corpus name nor a file"
                ) from None
            A = as_csr(A)
            if A.shape[0] != A.shape[1]:
                raise ProtocolError(f"square matrices only, got {A.shape}")
            return name, A, matrix_hash(A)

        out = await asyncio.to_thread(load)
        self._matrices[ref] = out
        return out

    async def _ensure_engine(
        self,
        name: str,
        A,
        mhash: str,
        method: str,
        procs: int,
        seed: int,
        fault_kill: bool = False,
    ) -> _BuildOutcome:
        """Residency hit, or single-flight build of the missing engine."""
        key = EngineKey(mhash, method, procs, seed)
        entry = self.residency.get(key)
        if entry is not None:
            return _BuildOutcome(entry, {"cold": False, "engine_source": "memory"})
        task = self._building.get(key)
        if task is None:
            task = asyncio.ensure_future(
                self._build_engine(key, name, A, method, procs, seed, fault_kill)
            )
            self._building[key] = task
            task.add_done_callback(lambda _t, k=key: self._building.pop(k, None))
        return await task

    def _pool_partition(self, A, kind, procs, seed, fault_kill) -> np.ndarray:
        """Blocking: one cold partition through the resilient pool."""
        return self.pool.run(
            _partition_task,
            A,
            kind,
            procs,
            seed,
            str(self._cache_dir()),
            fault_kill,
            timeout=self.config.partition_timeout_s,
        )

    async def _build_engine(
        self, key: EngineKey, name: str, A, method: str, procs: int, seed: int,
        fault_kill: bool,
    ) -> _BuildOutcome:
        meta: dict = {"cold": True, "degraded": False}
        # tier 2: the compiled-artifact store — a zero-copy mmap load
        # that skips partition -> maps -> plan -> compile entirely
        if self.store is not None:
            t_load = time.perf_counter()
            entry = await asyncio.to_thread(
                self.residency.load_from_store, key, name
            )
            if entry is not None:
                self._admit(entry)
                meta["engine_source"] = "disk"
                meta["mmapped"] = entry.meta.get("mmapped", False)
                meta["load_seconds"] = round(time.perf_counter() - t_load, 6)
                return _BuildOutcome(entry, meta)
        kind = method.partition("-")[2]
        rpart = None
        deaths_before = self.pool.deaths
        t0 = time.perf_counter()
        partition_seconds = 0.0
        from ..bench.harness import cached_rpart, load_cached_rpart, rpart_cache_path
        from ..partitioning import PARTITION_METHODS

        if kind in PARTITION_METHODS:
            cache_path = rpart_cache_path(
                key.matrix_hash, kind, procs, seed, self._cache_dir()
            )
            rpart = await asyncio.to_thread(load_cached_rpart, cache_path, A.shape[0])
            if rpart is not None:
                meta["partition_source"] = "cache"
            else:
                try:
                    rpart = await asyncio.to_thread(
                        self._pool_partition, A, kind, procs, seed, fault_kill
                    )
                    meta["partition_source"] = "pool"
                except PoolTaskFailed as exc:
                    # graceful degradation: the reference in-process path
                    # always completes, and the response says what happened
                    meta["degraded"] = True
                    meta["degraded_causes"] = exc.causes
                    self.counters["degraded"] += 1
                    rpart = await asyncio.to_thread(
                        cached_rpart, A, kind, procs, seed=seed,
                        cache_dir=self._cache_dir(),
                    )
                    meta["partition_source"] = "inline-reference"
            partition_seconds = time.perf_counter() - t0

        def build():
            from ..layouts import make_layout
            from ..runtime import CAB, DistSparseMatrix

            layout = make_layout(method, A, procs, seed=seed, rpart=rpart)
            return DistSparseMatrix(A, layout, CAB).engine  # compile off the loop

        t1 = time.perf_counter()
        engine = await asyncio.to_thread(build)
        entry = ResidentEngine(
            key=key,
            matrix=name,
            engine=engine,
            cold_partition_seconds=partition_seconds,
            compile_seconds=time.perf_counter() - t1,
        )
        deaths = self.pool.deaths - deaths_before
        if deaths:
            self.fault_events.append({
                "kind": "worker-death",
                "matrix": name,
                "key": str(key),
                "deaths": deaths,
            })
            meta["worker_deaths"] = deaths
        self._admit(entry)
        self.residency.note_built()
        meta["engine_source"] = "built"
        meta["partition_seconds"] = round(partition_seconds, 6)
        meta["compile_seconds"] = round(entry.compile_seconds, 6)
        if self.store is not None:
            # persist for the next process's cold start; best-effort (a
            # failed save must never fail the request that built it)
            try:
                await asyncio.to_thread(
                    self.store.save, key, entry.engine, {"matrix": name}
                )
                meta["stored"] = True
            except Exception as exc:
                meta["store_error"] = f"{type(exc).__name__}: {exc}"
        return _BuildOutcome(entry, meta)

    def _admit(self, entry: ResidentEngine) -> None:
        """Give *entry* its micro-batcher and make it resident.

        Evicted entries' batchers are drained, so nothing queued on an
        evicted engine is left waiting.
        """
        entry.batcher = MicroBatcher(
            entry.engine,
            max_batch=self.config.max_batch,
            deadline_s=self.config.batch_deadline_ms / 1e3,
            max_pending=MAX_QUEUE,
        )
        for evicted in self.residency.admit(entry):
            if evicted.batcher is not None:
                evicted.batcher.drain()

    # -- request dispatch --------------------------------------------------

    async def _dispatch(self, msg: dict, payload: bytes | None) -> bytes:
        """Route one decoded request; return the full wire response.

        An unknown op, or a key its op does not accept (:data:`OP_KEYS`),
        is refused with an error naming it.
        """
        self.counters["requests"] += 1
        rid = msg.get("id")
        op = msg.get("op")
        try:
            accepted = OP_KEYS.get(op) if isinstance(op, str) else None
            if accepted is None:
                raise ProtocolError(f"unknown op {op!r}")
            unknown = sorted(set(msg) - accepted)
            if unknown:
                raise ProtocolError(
                    f"unknown key(s) {unknown} for op {op!r}; "
                    f"accepted: {', '.join(sorted(accepted))}"
                )
            if op == "health":
                return encode_message(self._health(rid))
            if op == "stats":
                return encode_message(self._stats(rid))
            if op == "shutdown":
                mode = msg.get("mode")
                if mode not in SHUTDOWN_MODES:
                    raise ProtocolError(
                        f"unknown shutdown mode {mode!r}; known: drain, now"
                    )
                if mode == "now":
                    self.request_stop()
                else:
                    self.begin_drain()
                return encode_message(
                    {"id": rid, "ok": True, "op": "shutdown", "state": self.state}
                )
            if op == "matvec":
                return await self._handle_matvec(rid, msg, payload)
            return await self._handle_partition(rid, msg)
        except QueueFull as exc:
            return self._shed_response(rid, str(exc))
        except ProtocolError as exc:
            self.counters["errors"] += 1
            return encode_message({"id": rid, "ok": False, "error": str(exc)})
        except Exception as exc:  # keep the server alive on handler bugs
            self.counters["errors"] += 1
            return encode_message(
                {"id": rid, "ok": False, "error": f"{type(exc).__name__}: {exc}"}
            )

    def _shed_response(self, rid, reason: str) -> bytes:
        """Explicit load-shedding refusal with a backpressure hint."""
        self.counters["shed"] += 1
        self._last_shed_request = self.counters["requests"]
        return encode_message({
            "id": rid,
            "ok": False,
            "error": f"overloaded: {reason}",
            "shed": True,
            "retry_after_s": self._retry_after_s(),
        })

    def _refuse_new_work(self, rid) -> bytes | None:
        """Admission for matvec and partition work.

        Returns the refusal while a graceful drain is in progress or the
        in-flight bound is reached, or ``None`` when the request is
        admitted.
        """
        if self._draining:
            return encode_message({
                "id": rid,
                "ok": False,
                "error": "server is draining: no new work accepted",
                "draining": True,
                "retry_after_s": self._retry_after_s(),
            })
        if self._inflight_work >= MAX_INFLIGHT:
            return self._shed_response(
                rid,
                f"{self._inflight_work} request(s) in flight (bound {MAX_INFLIGHT})",
            )
        return None

    def _health(self, rid) -> dict:
        self.counters["health"] += 1
        return {
            "id": rid,
            "ok": True,
            "op": "health",
            "state": self.state,
            "resident": len(self.residency),
            "resident_bytes": self.residency.resident_bytes(),
            "tiers": dict(self.residency.tier_counts),
            "inflight": self._inflight_work,
            "uptime_seconds": round(time.time() - self._started_at, 3),
            "requests": self.counters["requests"],
        }

    def _stats(self, rid) -> dict:
        self.counters["stats"] += 1
        entries = []
        for e in self.residency.entries():
            d = e.as_dict()
            if e.batcher is not None:
                d["batch"] = {
                    "matvecs": e.batcher.matvecs,
                    "flushes": dict(e.batcher.flushes),
                    "batch_sizes": {str(k): v for k, v in e.batcher.batch_sizes.items()},
                }
            entries.append(d)
        return {
            "id": rid,
            "ok": True,
            "op": "stats",
            "state": self.state,
            "counters": dict(self.counters),
            "resident": entries,
            "evictions": self.residency.evictions,
            "residency": self.residency.stats(),
            "inflight": self._inflight_work,
            "idem_entries": len(self._idem),
            "pool": {"deaths": self.pool.deaths, "retries": self.pool.retries},
            "fault_events": list(self.fault_events),
        }

    def _request_target(self, msg: dict) -> tuple[str, str, int, int]:
        """A request's ``(matrix, method, procs, seed)``, defaulted and validated.

        Runs before any matrix load or partition, so a request naming no
        real layout costs nothing.
        """
        matrix = msg.get("matrix")
        if not isinstance(matrix, str) or not matrix:
            raise ProtocolError("request needs a 'matrix' (corpus name or path)")
        method = msg.get("method", DEFAULT_METHOD)
        procs = msg.get("procs", DEFAULT_PROCS)
        seed = msg.get("seed", self.config.default_seed)
        if not isinstance(method, str) or method.lower() not in LAYOUT_NAMES:
            raise ProtocolError(
                f"unknown method {method!r}; known: {', '.join(LAYOUT_NAMES)}"
            )
        if not _is_int(procs) or procs < 1:
            raise ProtocolError(f"procs must be a positive int, got {procs!r}")
        if not _is_int(seed) or seed < 0:
            raise ProtocolError(f"seed must be a non-negative int, got {seed!r}")
        return matrix, method.lower(), procs, seed

    def _fault_spec(self, msg: dict) -> dict:
        """Validate and normalize a request's ``fault`` injection field."""
        fault = msg.get("fault")
        if not fault:
            return {"kill_worker": False, "slow_ms": 0.0}
        if not self.config.allow_fault_injection:
            raise ProtocolError(
                "fault injection not enabled (start the server with "
                "allow_fault_injection)"
            )
        if not isinstance(fault, dict):
            raise ProtocolError(f"fault must be an object, got {type(fault).__name__}")
        unknown = sorted(set(fault) - set(FAULT_KEYS))
        if unknown:
            raise ProtocolError(
                f"unknown fault key(s) {unknown}; known: {', '.join(FAULT_KEYS)}"
            )
        slow_ms = float(fault.get("slow_ms") or 0.0)
        if slow_ms < 0:
            raise ProtocolError(f"fault.slow_ms must be >= 0, got {slow_ms}")
        return {"kill_worker": bool(fault.get("kill_worker")), "slow_ms": slow_ms}

    async def _inject_slow_engine(self, entry: ResidentEngine, slow_ms: float) -> dict:
        """Stall one request for *slow_ms*, like a straggling engine."""
        await asyncio.sleep(slow_ms / 1e3)
        self.fault_events.append({
            "kind": "slow-engine",
            "matrix": entry.matrix,
            "key": str(entry.key),
            "slow_ms": slow_ms,
        })
        return {"slow_ms": slow_ms}

    async def _answer_from_idem(
        self, rid, msg: dict, payload: bytes | None, idem: str, hit: _IdemEntry
    ) -> bytes:
        """Answer a retried matvec from the idempotency table.

        In-flight original: await its future (one computation, N answers).
        Completed original: re-encode the stored answer in *this* retry's
        wire encoding. Either way the engine never sees the retry.
        """
        self.counters["deduped"] += 1
        _, encoding = decode_vector(msg, payload)
        if hit.y is None and hit.future is not None:
            hit = await hit.future  # resolves to the completed entry
        if idem in self._idem:
            self._idem.move_to_end(idem)
        resp = dict(hit.base or {})
        resp["id"] = rid
        resp["deduped"] = True
        return encode_vector(resp, hit.y, encoding)

    def _trim_idem(self) -> None:
        """Evict oldest *completed* idempotency entries beyond capacity."""
        while len(self._idem) > IDEM_CAPACITY:
            stale = next(
                (k for k, e in self._idem.items() if e.y is not None), None
            )
            if stale is None:  # everything pending; bounded by MAX_INFLIGHT
                break
            del self._idem[stale]

    async def _handle_matvec(self, rid, msg: dict, payload: bytes | None) -> bytes:
        t_arrival = time.perf_counter()
        self.counters["matvec"] += 1
        idem = msg.get("idem")
        if idem is not None:
            if not isinstance(idem, str) or not idem:
                raise ProtocolError("idem key must be a non-empty string")
            hit = self._idem.get(idem)
            if hit is not None:
                # dedup outranks drain/shed: a retry of accepted work must
                # still be answerable, or acked work could be lost
                return await self._answer_from_idem(rid, msg, payload, idem, hit)
        refusal = self._refuse_new_work(rid)
        if refusal is not None:
            return refusal
        fut: asyncio.Future | None = None
        if idem is not None:
            fut = asyncio.get_running_loop().create_future()
            self._idem[idem] = _IdemEntry(future=fut)
        self._work_started()
        try:
            matrix, method, procs, seed = self._request_target(msg)
            fault = self._fault_spec(msg)
            name, A, mhash = await self._load_matrix(matrix)
            x, encoding = decode_vector(msg, payload, n=A.shape[0])
            if x is None:
                raise ProtocolError("matvec needs a vector (bin frame, x_b64 or x)")
            outcome = await self._ensure_engine(
                name, A, mhash, method, procs, seed, fault["kill_worker"]
            )
            entry = outcome.entry
            slow_meta = None
            if fault["slow_ms"]:
                slow_meta = await self._inject_slow_engine(entry, fault["slow_ms"])
            recorder = SpanRecorder()
            recorder.mark_since("queue", t_arrival)
            y, batch_size = await entry.batcher.submit(x, recorder)
        except BaseException as exc:
            if idem is not None:
                self._idem.pop(idem, None)
                if fut is not None and not fut.done():
                    fut.set_exception(
                        exc if isinstance(exc, Exception) else RuntimeError(repr(exc))
                    )
                    fut.exception()  # no retry may be waiting; mark retrieved
            raise
        finally:
            self._work_finished()
        base = {
            "ok": True,
            "op": "matvec",
            "n": entry.n,
            "engine_key": str(entry.key),
            "batch_size": batch_size,
        }
        base.update({k: v for k, v in outcome.meta.items() if k != "cold"})
        base["cold"] = outcome.meta.get("cold", False)
        if slow_meta is not None:
            base["slow_engine"] = slow_meta
        if idem is not None:
            done = _IdemEntry(y=y, base=dict(base))
            self._idem[idem] = done
            self._idem.move_to_end(idem)
            self._trim_idem()
            if fut is not None and not fut.done():
                fut.set_result(done)
        resp = dict(base)
        resp["id"] = rid
        resp["spans_ms"] = recorder.as_millis()
        return encode_vector(resp, y, encoding)

    async def _handle_partition(self, rid, msg: dict) -> bytes:
        self.counters["partition"] += 1
        refusal = self._refuse_new_work(rid)
        if refusal is not None:
            return refusal
        self._work_started()
        try:
            matrix, method, procs, seed = self._request_target(msg)
            fault = self._fault_spec(msg)
            name, A, mhash = await self._load_matrix(matrix)
            outcome = await self._ensure_engine(
                name, A, mhash, method, procs, seed, fault["kill_worker"]
            )
        finally:
            self._work_finished()
        resp = {
            "id": rid,
            "ok": True,
            "op": "partition",
            "matrix": name,
            "engine_key": str(outcome.entry.key),
            "n": outcome.entry.n,
            "resident": True,
        }
        resp.update(outcome.meta)
        return encode_message(resp)

    # -- transport ---------------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        """One unix-socket connection: framed JSON lines until EOF.

        The connection is *pipelined*: each framed request dispatches as
        its own task, so a client may have several requests in flight on
        one socket (responses carry the request's ``id``; arrival order is
        not guaranteed under pipelining). Duplicate in-flight ids on the
        same connection are rejected immediately — an ambiguous response
        stream is worse than a refused request. Each response is a single
        ``write`` behind a lock, so frames never interleave.
        """
        inflight_ids: set = set()
        tasks: set[asyncio.Task] = set()
        write_lock = asyncio.Lock()

        async def send(data: bytes) -> None:
            async with write_lock:
                if writer.transport.is_closing():
                    return
                writer.write(data)
                try:
                    await writer.drain()
                except (ConnectionResetError, BrokenPipeError):
                    pass  # client went away; nothing to answer

        async def respond(msg: dict, payload: bytes | None, rid) -> None:
            try:
                await send(await self._dispatch(msg, payload))
            finally:
                if rid is not None:
                    inflight_ids.discard(rid)

        try:
            while True:
                try:
                    framed = await read_message(reader)
                except (ProtocolError, asyncio.IncompleteReadError) as exc:
                    self.counters["errors"] += 1
                    await send(encode_message({"ok": False, "error": str(exc)}))
                    break
                if framed is None:
                    break
                msg, payload = framed
                rid = msg.get("id")
                if rid is not None:
                    if rid in inflight_ids:
                        self.counters["duplicate_ids"] += 1
                        await send(encode_message({
                            "id": rid,
                            "ok": False,
                            "error": (
                                f"duplicate in-flight id {rid!r} on this "
                                "connection (use unique ids; retries should "
                                "carry an 'idem' key, not reuse a live id)"
                            ),
                        }))
                        continue
                    inflight_ids.add(rid)
                task = asyncio.ensure_future(respond(msg, payload, rid))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; nothing to answer
        except asyncio.CancelledError:
            pass  # loop shutdown cancels in-flight readers; close quietly
        finally:
            try:
                if tasks:
                    await asyncio.gather(*tasks, return_exceptions=True)
            except asyncio.CancelledError:
                pass
            writer.close()


# ---------------------------------------------------------------------------
# embedding helpers: run the server from a plain (sync) caller
# ---------------------------------------------------------------------------


class ServerHandle:
    """A server running on its own event-loop thread (tests, bench, CLI).

    Exposes the socket path and a thread-safe :meth:`stop`. The
    server object itself must only be touched from its loop thread;
    callers talk to it over the socket like any other client.
    """

    def __init__(self, server: MatvecServer, thread: Thread, loop):
        self.server = server
        self._thread = thread
        self._loop = loop

    @property
    def socket_path(self) -> str:
        return self.server.config.socket_path

    def stop(self, timeout: float = 30.0, *, drain: bool = True) -> None:
        """Shut down and join the loop thread (idempotent).

        With ``drain`` (the default) this asks for a graceful drain —
        in-flight work completes, new work is refused — and escalates to
        an immediate stop if the drain has not finished within *timeout*.
        A thread still alive after both attempts is a hung shutdown and
        **raises** with a diagnostic (it must never pass as a clean exit).
        """
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(
                    self.server.begin_drain if drain else self.server.request_stop
                )
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)
        if self._thread.is_alive() and drain:
            # graceful drain wedged; escalate to an immediate stop
            try:
                self._loop.call_soon_threadsafe(self.server.request_stop)
            except RuntimeError:
                pass
            self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError(
                f"server thread {self._thread.name!r} did not stop within "
                f"{timeout}s (state={self.server.state}, "
                f"inflight={self.server._inflight_work}) — hung shutdown"
            )


def start_in_thread(
    config: ServeConfig, timeout: float = 60.0, server: MatvecServer | None = None
) -> ServerHandle:
    """Boot a :class:`MatvecServer` on a daemon thread; wait until it listens.

    Raises if the server fails to come up (the thread's exception is
    re-raised in the caller) — a bench or test never hangs on a server
    that died during startup. A prebuilt *server* instance (e.g. a test
    subclass) may be supplied; *config* is ignored in that case.
    """
    if server is None:
        server = MatvecServer(config)
    ready = ThreadEvent()
    box: dict = {}

    def on_started(srv: MatvecServer) -> None:
        box["loop"] = asyncio.get_running_loop()
        ready.set()

    def run() -> None:
        try:
            asyncio.run(server.serve(on_started=on_started))
        except BaseException as exc:  # surface startup failures to the caller
            box["error"] = exc
        finally:
            ready.set()

    thread = Thread(target=run, name="repro-serve", daemon=True)
    thread.start()
    if not ready.wait(timeout):
        raise RuntimeError("server did not start listening in time")
    if "error" in box:
        raise RuntimeError(f"server failed to start: {box['error']}")
    return ServerHandle(server, thread, box["loop"])
