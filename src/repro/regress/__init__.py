"""Golden-invariant regression harness (``python -m repro regress``).

The reproduction's claims rest on exact, machine-independent quantities —
communication volume, max messages per rank, nonzero/vector imbalance —
that fall straight out of :class:`~repro.runtime.plan.CommPlan` and
:class:`~repro.runtime.maps.Map` state, plus the modeled alpha-beta-gamma
phase costs derived from them. Nothing else in the test suite pins those
numbers down: a partitioner tweak or a ``CommPlan.build`` refactor could
silently shift every table in EXPERIMENTS.md while tier-1 tests stay
green.

This subsystem snapshots the full layout-method x corpus-matrix x p grid
as schema-versioned golden JSON under ``tests/golden/`` — computed from
plans alone, without executing a single SpMV — and checks the working
tree against it with a two-tier tolerance policy:

* integer invariants (message counts, volumes, nonzero maxima) must match
  **bit-exactly**;
* modeled seconds and imbalance ratios must match to a tight relative
  tolerance (:data:`DEFAULT_RTOL`), absorbing only float reassociation
  across numpy versions.

CI runs ``python -m repro regress check`` on every push; an intentional
metric change is shipped by regenerating the goldens in the same PR
(``python -m repro regress generate``) so the diff is reviewable.
"""

from .extract import cell_metrics
from .golden import (
    DEFAULT_GOLDEN_DIR,
    DEFAULT_RTOL,
    SCHEMA_VERSION,
    Mismatch,
    check_goldens,
    compare_matrix,
    diff_golden_dirs,
    format_mismatches,
    generate_goldens,
    golden_path,
    golden_payload,
    load_golden,
    write_golden,
)
from .grid import DEFAULT_SPEC, GridSpec, cell_key, compute_matrix_cells

__all__ = [
    "cell_metrics",
    "DEFAULT_GOLDEN_DIR",
    "DEFAULT_RTOL",
    "SCHEMA_VERSION",
    "Mismatch",
    "check_goldens",
    "compare_matrix",
    "diff_golden_dirs",
    "format_mismatches",
    "generate_goldens",
    "golden_path",
    "golden_payload",
    "load_golden",
    "write_golden",
    "DEFAULT_SPEC",
    "GridSpec",
    "cell_key",
    "compute_matrix_cells",
]
