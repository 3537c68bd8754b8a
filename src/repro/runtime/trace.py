"""Cost ledger: per-phase modeled-time accounting and fault-event trace.

Solvers and the SpMV engine charge modeled seconds to named phases
("expand", "local-compute", "fold", "sum", "vector-ops", "reduce", ...).
The ledger is what the benches read to reproduce the paper's timing
tables, including derived quantities like "fraction of solve time spent in
SpMV" (paper section 1 and Table 5).

The fault-tolerant runtime (:mod:`repro.runtime.faults`) extends the
accounting in two ways: three resilience phases (``detect``,
``checkpoint``, ``recover`` — see :data:`FAULT_PHASES`) and a chronological
:class:`FaultEvent` trace recorded alongside the seconds, so a campaign
report can say not only *how much* resilience cost but *which* injected
fault each charge answers.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

__all__ = ["CostLedger", "FaultEvent", "SPMV_PHASES", "FAULT_PHASES"]

#: The paper's four SpMV phases (section 2.1).
SPMV_PHASES = ("expand", "local-compute", "fold", "sum")

#: Resilience phases charged by the fault-tolerant runtime: ABFT/timeout
#: detection, periodic state snapshots, and post-failure reconstruction.
FAULT_PHASES = ("detect", "checkpoint", "recover")


@dataclass(frozen=True)
class FaultEvent:
    """One fault observed (or injected) during a simulated run.

    ``kind`` is ``"fail-stop"``, ``"corruption"`` or ``"straggler"``;
    ``phase`` says where it struck ("expand", "compute", "fold", or "-"
    for rank-level events); ``detected`` records the detector's verdict
    (stragglers are absorbed into phase times, never "detected");
    ``seconds`` is the modeled detection + recovery cost this event
    charged to the ledger.
    """

    iteration: int
    kind: str
    rank: int
    phase: str = "-"
    detected: bool = False
    seconds: float = 0.0
    note: str = ""

    def row(self) -> tuple:
        """(iter, kind, rank, phase, detected, seconds) — CLI table row."""
        return (self.iteration, self.kind, self.rank, self.phase,
                "yes" if self.detected else "no", f"{self.seconds:.3e}", self.note)


class CostLedger:
    """Accumulates modeled seconds by phase name, plus a fault-event trace."""

    def __init__(self) -> None:
        self._t: dict[str, float] = defaultdict(float)
        self.events: list[FaultEvent] = []

    def add(self, phase: str, seconds: float) -> None:
        """Charge *seconds* to *phase* (must be finite and non-negative)."""
        if not math.isfinite(seconds):
            raise ValueError(f"non-finite time charged to {phase!r}: {seconds!r}")
        if seconds < 0:
            raise ValueError(f"negative time charged to {phase!r}: {seconds}")
        self._t[phase] += seconds

    def record(self, event: FaultEvent) -> None:
        """Append a fault event to the chronological trace."""
        self.events.append(event)

    def get(self, phase: str) -> float:
        """Seconds charged to *phase* so far (0.0 if never charged)."""
        return self._t.get(phase, 0.0)

    def total(self) -> float:
        """Total modeled seconds across phases."""
        return sum(self._t.values())

    def spmv_total(self) -> float:
        """Seconds in the four SpMV phases only."""
        return sum(self._t.get(p, 0.0) for p in SPMV_PHASES)

    def breakdown(self) -> dict[str, float]:
        """Copy of the phase -> seconds mapping."""
        return dict(self._t)

    def merge(self, other: "CostLedger") -> None:
        """Fold another ledger's charges (and events) into this one."""
        for phase, t in other._t.items():
            self._t[phase] += t
        self.events.extend(other.events)

    def reset(self) -> None:
        """Zero all charges and drop the event trace."""
        self._t.clear()
        self.events.clear()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.3e}" for k, v in sorted(self._t.items()))
        return f"CostLedger({inner})"
