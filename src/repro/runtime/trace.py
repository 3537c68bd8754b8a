"""Cost ledger: per-phase modeled-time accounting.

Solvers and the SpMV engine charge modeled seconds to named phases
("expand", "local-compute", "fold", "sum", "vector-ops", "reduce", ...).
The ledger is what the benches read to reproduce the paper's timing
tables, including derived quantities like "fraction of solve time spent in
SpMV" (paper section 1 and Table 5).
"""

from __future__ import annotations

import math
from collections import defaultdict

__all__ = ["CostLedger", "SPMV_PHASES"]

#: The paper's four SpMV phases (section 2.1).
SPMV_PHASES = ("expand", "local-compute", "fold", "sum")


class CostLedger:
    """Accumulates modeled seconds by phase name."""

    def __init__(self) -> None:
        self._t: dict[str, float] = defaultdict(float)

    def add(self, phase: str, seconds: float) -> None:
        """Charge *seconds* to *phase* (must be finite and non-negative)."""
        if not math.isfinite(seconds):
            raise ValueError(f"non-finite time charged to {phase!r}: {seconds!r}")
        if seconds < 0:
            raise ValueError(f"negative time charged to {phase!r}: {seconds}")
        self._t[phase] += seconds

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

    def reset(self) -> None:
        """Zero all charges."""
        self._t.clear()

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v:.3e}" for k, v in sorted(self._t.items()))
        return f"CostLedger({inner})"
