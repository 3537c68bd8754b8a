"""In-memory span recorder for the traced benchmark run.

The benchmark times the program strictly from outside: a span wraps each
call into a public function of one layer (``partitioning``, ``layouts``,
``runtime.*``, ``solvers``, ``serve``). Spans live in a list until the
run ends and are written once, so recording costs two clock reads and a
dict per layer boundary. With tracing off :meth:`Tracer.span` hands back
one shared no-op context manager, which is what the end-to-end run uses.

(The module is not called ``trace.py`` because ``run.py`` executes with
this directory first on ``sys.path`` and would shadow the stdlib module.)
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path

_NULL = nullcontext()


class Tracer:
    """Records ``(name, start, end, parent, workload, repeat)`` spans."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    def span(self, name: str, repeat: int | None = None):
        """Context manager timing *name* under the innermost open span."""
        if not self.enabled:
            return _NULL
        return self._record(name, repeat)

    @contextmanager
    def _record(self, name: str, repeat: int | None):
        sid = len(self.spans)
        rec = {
            "id": sid,
            "name": name,
            "start": time.perf_counter() - self._t0,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "workload": self.workload,
            "repeat": repeat,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def attach_phases(self, parent: dict, prefix: str, profiler) -> None:
        """Hang a ``repro.perf`` phase table under the closed span *parent*.

        The profiler aggregates by phase stack (seconds + calls), not by
        interval, so each row becomes one synthetic child span that starts
        with its parent and lasts the row's accumulated seconds.
        """
        by_path = {(): parent}
        for path, stat in profiler.stats.items():
            up = by_path[path[:-1]]
            rec = {
                "id": len(self.spans),
                "name": prefix + "/".join(path),
                "start": up["start"],
                "end": up["start"] + stat.seconds,
                "parent": up["id"],
                "workload": self.workload,
                "repeat": parent["repeat"],
                "calls": stat.calls,
                "aggregate": True,
            }
            self.spans.append(rec)
            by_path[path] = rec

    # -- reading -----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        """Seconds of every closed span called *name*, in record order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "workload": self.workload,
            "spans": self.spans,
            "self_seconds": self_times(self.spans),
        }
        path.write_text(json.dumps(payload, indent=1))


def self_times(spans: list[dict]) -> dict[str, float]:
    """Per span name: summed duration minus the part its children cover."""
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += (s["end"] - s["start"]) - covered[s["id"]]
    return dict(out)
