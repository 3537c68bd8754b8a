"""Lightweight nested phase profiler for the partitioning pipeline.

The multilevel partitioner is the dominant end-to-end cost of every sweep
in this repo (SpMV itself was made ~29x faster by the execution engine),
so knowing *where* a partition call spends its time — coarsening, initial
partitions, per-level refinement, projection — is the first step of any
kernel optimisation. This module provides exactly that, with the same
discipline as the rest of the runtime:

* **near-zero overhead when disabled** — :func:`phase` returns a shared
  no-op context manager after a single global read, so instrumented code
  pays one dict-free branch per phase boundary (phases wrap whole levels,
  never inner loops);
* **nested aggregation** — timers are keyed by the full phase *stack*
  (``partition / bisect / coarsen``), so a phase appearing under several
  parents is reported separately under each;
* **deterministic output** — :meth:`PhaseProfiler.report` orders rows by
  first entry, not by time, so two runs of the same pipeline produce the
  same table shape.

Enable collection with :func:`profile`::

    from repro import perf

    with perf.profile() as prof:
        partition_matrix(A, 64)
    print(prof.report())

The CLI surfaces this as ``repro partition --profile``, and the e2e
benchmark reports the partitioner phases as its ``partitioning.*_s``
per-layer metrics.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass

__all__ = [
    "PhaseProfiler",
    "PhaseStat",
    "SpanRecorder",
    "phase",
    "profile",
    "active_profiler",
]


@dataclass
class PhaseStat:
    """Accumulated wall time and entry count of one phase path."""

    seconds: float = 0.0
    calls: int = 0


class _NullPhase:
    """Reusable no-op context manager returned while profiling is off."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc) -> bool:
        return False


_NULL = _NullPhase()
_ACTIVE: "PhaseProfiler | None" = None


class PhaseProfiler:
    """Aggregates nested phase timings keyed by the phase stack."""

    def __init__(self) -> None:
        #: insertion-ordered mapping ``(outer, ..., inner) -> PhaseStat``
        self.stats: dict[tuple[str, ...], PhaseStat] = {}
        self._stack: list[str] = []

    @contextmanager
    def _frame(self, name: str):
        self._stack.append(name)
        path = tuple(self._stack)
        # register on *entry* so insertion order puts parents before their
        # children in the report (phases finish child-first)
        st = self.stats.get(path)
        if st is None:
            st = self.stats[path] = PhaseStat()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._stack.pop()
            st.seconds += dt
            st.calls += 1

    # -- reporting ---------------------------------------------------------

    def total_seconds(self) -> float:
        """Wall seconds of the outermost phases (depth-1 rows)."""
        return sum(st.seconds for path, st in self.stats.items() if len(path) == 1)

    def seconds(self, path: str) -> float:
        """Total seconds accumulated under slash-path *path* (0.0 if absent).

        *path* matches :meth:`as_dict` keys by suffix-free equality or, when
        it names an interior phase (``"bisect/coarsen"``), sums every stack
        whose joined form ends with it — which is what gate checks need:
        ``bisect/coarsen`` appears once per recursive-bisection node.
        """
        want = tuple(path.split("/"))
        total = 0.0
        for p, st in self.stats.items():
            if p == want or (len(p) >= len(want) and p[-len(want):] == want):
                total += st.seconds
        return total

    def as_dict(self) -> dict[str, dict[str, float | int]]:
        """JSON-friendly view: ``"a/b/c" -> {seconds, calls}``."""
        return {
            "/".join(path): {"seconds": st.seconds, "calls": st.calls}
            for path, st in self.stats.items()
        }

    def report(self) -> str:
        """Indented table of every phase path, in first-entry order."""
        if not self.stats:
            return "(no phases recorded)"
        total = self.total_seconds() or 1e-300
        rows = []
        for path, st in self.stats.items():
            label = "  " * (len(path) - 1) + path[-1]
            rows.append(
                (label, f"{st.seconds:12.4f}", f"{st.calls:8d}",
                 f"{100.0 * st.seconds / total:6.1f}%")
            )
        width = max(len(r[0]) for r in rows)
        head = f"{'phase':<{width}} {'seconds':>12} {'calls':>8} {'share':>7}"
        lines = [head, "-" * len(head)]
        lines += [f"{r[0]:<{width}} {r[1]} {r[2]} {r[3]}" for r in rows]
        return "\n".join(lines)


class SpanRecorder:
    """Wall-clock spans of one request's pipeline, exported per request.

    The serve layer (:mod:`repro.serve`) attaches one recorder to every
    request and times its three stations — ``queue`` (arrival to batch
    admission), ``batch`` (waiting for the micro-batch to fill or its
    deadline to fire) and ``compute`` (the shared ``spmm`` flush) — then
    ships the spans back in the response metadata, so a client can see
    where its latency went without server-side log digging. Unlike
    :class:`PhaseProfiler` (one global collector, nested phases), a
    recorder is a per-request value object: many requests record
    concurrently without sharing state.
    """

    __slots__ = ("spans",)

    def __init__(self) -> None:
        #: insertion-ordered mapping ``name -> accumulated seconds``
        self.spans: dict[str, float] = {}

    def add(self, name: str, seconds: float) -> None:
        """Accumulate *seconds* under *name* (repeat names sum)."""
        self.spans[name] = self.spans.get(name, 0.0) + float(seconds)

    def mark_since(self, name: str, t0: float) -> float:
        """Record the span from perf-counter time *t0* to now; return now."""
        now = time.perf_counter()
        self.add(name, now - t0)
        return now

    @contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`mark_since`."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def as_millis(self, ndigits: int = 4) -> dict[str, float]:
        """JSON-friendly view in milliseconds (response-metadata unit)."""
        return {k: round(v * 1e3, ndigits) for k, v in self.spans.items()}


def active_profiler() -> PhaseProfiler | None:
    """The profiler currently collecting, or None when disabled."""
    return _ACTIVE


def phase(name: str):
    """Context manager timing *name* under the active profiler.

    When no profiler is active this returns a shared no-op instance — the
    disabled cost is one global read plus an empty ``with`` block, which is
    why instrumentation can stay permanently in the partitioner.
    """
    prof = _ACTIVE
    if prof is None:
        return _NULL
    return prof._frame(name)


@contextmanager
def profile():
    """Enable phase collection for the duration of the block.

    Yields the :class:`PhaseProfiler`; nesting :func:`profile` blocks
    restores the previous collector on exit (each block sees only its own
    phases).
    """
    global _ACTIVE
    prev = _ACTIVE
    prof = PhaseProfiler()
    _ACTIVE = prof
    try:
        yield prof
    finally:
        _ACTIVE = prev
