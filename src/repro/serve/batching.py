"""Micro-batching: coalesce concurrent matvecs into one ``spmm`` call.

The engine's block apply runs k right-hand sides through the two
compiled operators in one pass, for well under k times the cost of one
(the e2e benchmark times ``runtime.engine.spmm16_s`` next to
``runtime.engine.spmv_s``), and it guarantees column j of ``spmm(X)``
is **bit-identical** to ``spmv(X[:, j])`` — the CSR-times-dense kernel
accumulates each row-column dot in the same stored-entry order as the
matvec. That exactness is what makes batching
an execution detail the client cannot observe (the contract
``tests/test_serve.py`` and the load generator's divergence gate hold us
to), and the per-vector amortization is what the throughput gate in
``BENCH_serve.json`` measures.

A batch flushes on whichever trigger fires first:

* **size** — ``max_batch`` requests are waiting (the k the engine was
  benchmarked at; beyond it the per-vector win flattens while latency
  keeps growing);
* **deadline** — ``deadline_s`` elapsed since the batch opened, so a
  lone request never waits for company that is not coming.

Flushes run inline on the event loop. That is deliberate: it keeps the
arrival -> batch -> compute -> respond ordering deterministic. Each
flush is one serial fused ``spmm``; the server does not fan multiplies
out over threads.
"""

from __future__ import annotations

import asyncio
import time

import numpy as np

from ..perf import SpanRecorder

__all__ = ["MicroBatcher", "QueueFull"]


class QueueFull(RuntimeError):
    """A bounded micro-batch queue refused one more request.

    Raised by :meth:`MicroBatcher.submit` when ``max_pending`` requests
    are already waiting — the admission-control signal the server turns
    into an explicit load-shedding response (``shed: true`` with a
    ``retry_after_s`` hint) instead of letting queue latency grow without
    bound.
    """

    def __init__(self, pending: int, max_pending: int):
        super().__init__(
            f"engine queue full: {pending} request(s) pending "
            f"(bound {max_pending})"
        )
        self.pending = pending
        self.max_pending = max_pending


class MicroBatcher:
    """Per-engine request coalescer (one per resident engine).

    Lives entirely on the event loop thread: ``submit`` appends to the
    open batch and every flush resolves the waiting futures in arrival
    order. ``max_pending`` (optional) bounds the number of queued
    requests; beyond it :meth:`submit` raises :class:`QueueFull`
    *synchronously*, so an overloaded engine sheds load at admission
    instead of queueing unboundedly.
    """

    def __init__(
        self,
        engine,
        max_batch: int = 16,
        deadline_s: float = 0.002,
        max_pending: int | None = None,
    ):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if deadline_s < 0:
            raise ValueError(f"deadline_s must be >= 0, got {deadline_s}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.engine = engine
        self.max_batch = max_batch
        self.deadline_s = deadline_s
        self.max_pending = max_pending
        self._pending: list[tuple[np.ndarray, asyncio.Future, SpanRecorder, float]] = []
        self._timer: asyncio.TimerHandle | None = None
        #: flush counters by trigger, and a batch-size histogram
        self.flushes = {"size": 0, "deadline": 0, "drain": 0}
        self.batch_sizes: dict[int, int] = {}
        self.matvecs = 0
        #: submissions refused by the max_pending bound
        self.shed = 0

    async def submit(
        self, x: np.ndarray, recorder: SpanRecorder
    ) -> tuple[np.ndarray, int]:
        """Queue one matvec; await ``(y, batch_size)`` from the next flush.

        Raises :class:`QueueFull` (before queueing anything) when the
        pending bound is hit.
        """
        if self.max_pending is not None and len(self._pending) >= self.max_pending:
            self.shed += 1
            raise QueueFull(len(self._pending), self.max_pending)
        loop = asyncio.get_running_loop()
        fut: asyncio.Future = loop.create_future()
        self._pending.append((x, fut, recorder, time.perf_counter()))
        if len(self._pending) >= self.max_batch:
            self._flush("size")
        elif len(self._pending) == 1:
            self._timer = loop.call_later(self.deadline_s, self._flush, "deadline")
        return await fut

    def drain(self) -> None:
        """Flush whatever is pending now (graceful-shutdown path)."""
        if self._pending:
            self._flush("drain")

    @property
    def pending(self) -> int:
        return len(self._pending)

    def _flush(self, cause: str) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        batch, self._pending = self._pending, []
        if not batch:
            return
        k = len(batch)
        self.flushes[cause] += 1
        self.batch_sizes[k] = self.batch_sizes.get(k, 0) + 1
        self.matvecs += k
        t0 = time.perf_counter()
        try:
            if k == 1:
                Y = self.engine.spmv(batch[0][0])[:, None]
            else:
                X = np.stack([x for x, _, _, _ in batch], axis=1)
                Y = self.engine.spmm(X)
        except Exception as exc:  # pragma: no cover - engine failures are bugs
            for _, fut, _, _ in batch:
                if not fut.done():
                    fut.set_exception(exc)
            return
        done = time.perf_counter()
        for j, (_, fut, rec, t_enq) in enumerate(batch):
            rec.add("batch", t0 - t_enq)
            rec.add("compute", done - t0)
            if not fut.done():  # client may have gone away mid-batch
                fut.set_result((np.ascontiguousarray(Y[:, j]), k))
