"""Grid enumeration: which (matrix, layout, p) cells get golden files.

The default grid is the whole proxy corpus under each matrix's six paper
layouts (GP-vs-HP resolved per :func:`repro.layouts.paper_methods`) at
p in (4, 16, 64) — the process counts whose partitions a CI runner can
recompute from a cold cache in minutes. Larger p (256, 1024) stay the
scaling benches' territory: one hypergraph partition of rmat_26 at p=256
costs ~5 minutes alone, and the invariants the harness guards are already
exercised by three p values per layout.

Partitions route through the bench harness's on-disk cache, and lower
process counts derive from the p-max partition by recursive-bisection
nesting — exactly how the benches amortise partitioner runs, so goldens
and benches see identical layouts.

Every run recomputes every cell: the layout, the
:class:`DistSparseMatrix` build and the metrics come from the current
code, so a change to any of them shows up as a named-cell diff. The
partition cache is the one thing reused, and its file names carry a
fingerprint of the partitioner's source, so a partitioner change
re-partitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..bench.harness import layout_for
from ..generators.corpus import corpus_names, corpus_spec
from ..graphs.csr import as_csr
from ..layouts import paper_methods
from ..runtime import MACHINES, DistSparseMatrix
from .extract import cell_metrics

__all__ = [
    "GridSpec",
    "DEFAULT_SPEC",
    "cell_key",
    "compute_matrix_cells",
]


@dataclass(frozen=True)
class GridSpec:
    """One regression grid: matrices x methods x process counts.

    ``methods=None`` resolves each matrix's method set from its corpus
    partitioner choice; an explicit tuple applies to every matrix (and is
    what lets tests run tiny non-corpus grids).
    """

    matrices: tuple[str, ...] = tuple(corpus_names())
    procs: tuple[int, ...] = (4, 16, 64)
    methods: tuple[str, ...] | None = None
    seed: int = 0
    machine: str = "cab"

    def __post_init__(self) -> None:
        if not self.procs:
            raise ValueError("spec needs at least one process count")
        if self.machine not in MACHINES:
            raise ValueError(
                f"unknown machine {self.machine!r}; choose from {sorted(MACHINES)}"
            )

    def methods_for(self, matrix: str) -> list[str]:
        """The layout methods this grid evaluates for *matrix*."""
        if self.methods is not None:
            return [m.lower() for m in self.methods]
        return paper_methods(corpus_spec(matrix).partitioner)


#: The CI grid: full corpus, paper methods, three process counts.
DEFAULT_SPEC = GridSpec()


def cell_key(method: str, nprocs: int) -> str:
    """Stable key of one grid cell, e.g. ``"2d-gp@p64"``."""
    return f"{method.lower()}@p{nprocs}"


def compute_matrix_cells(
    A,
    spec: GridSpec,
    matrix: str,
    cache_dir: Path | None = None,
) -> dict[str, dict[str, int | float]]:
    """Metrics for every (method, p) cell of one matrix.

    Builds each layout (partitions come from the cache; p < max(procs)
    derives from the p-max partition by RB nesting) and a
    :class:`DistSparseMatrix` on the spec's machine model — no SpMV runs.
    """
    A = as_csr(A)
    machine = MACHINES[spec.machine]
    pmax = max(spec.procs)
    cells: dict[str, dict[str, int | float]] = {}
    for p in sorted(spec.procs):
        for method in spec.methods_for(matrix):
            layout = layout_for(
                A,
                method,
                p,
                seed=spec.seed,
                cache_dir=cache_dir,
                nested_from=pmax if p != pmax else None,
            )
            dist = DistSparseMatrix(A, layout, machine)
            cells[cell_key(method, p)] = cell_metrics(dist)
    return cells
