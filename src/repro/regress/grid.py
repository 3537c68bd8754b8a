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

With an ``engine_store`` directory, each cell additionally probes the
compiled-engine artifact store before building anything: artifacts saved
by a previous regress run carry the cell's metrics in their metadata, so
a matching entry (same machine model) skips the layout + DistSparseMatrix
build entirely. Metrics survive the JSON round-trip bit-exactly (ints
stay ints, float repr is shortest-round-trip), so a store hit produces
the same golden bytes as a fresh build.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..bench.harness import engine_store_key, layout_for
from ..generators.corpus import corpus_names, corpus_spec
from ..graphs.csr import as_csr
from ..layouts import paper_methods
from ..runtime import MACHINES, DistSparseMatrix
from ..runtime.store import EngineStore
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
    engine_store: "EngineStore | None" = None,
) -> dict[str, dict[str, int | float]]:
    """Metrics for every (method, p) cell of one matrix.

    Builds each layout (partitions come from the cache; p < max(procs)
    derives from the p-max partition by RB nesting) and a
    :class:`DistSparseMatrix` on the spec's machine model — no SpMV runs.

    With ``engine_store``, the artifact metadata is probed first: an
    entry saved by a previous run under the same key and machine model
    carries this cell's metrics, so the whole build is skipped. On a
    miss the freshly computed metrics (and the compiled engine) are
    persisted for the next run.
    """
    A = as_csr(A)
    machine = MACHINES[spec.machine]
    pmax = max(spec.procs)
    cells: dict[str, dict[str, int | float]] = {}
    for p in sorted(spec.procs):
        for method in spec.methods_for(matrix):
            nested_from = pmax if p != pmax else None
            store_key = None
            if engine_store is not None:
                store_key = engine_store_key(
                    A, method, p, seed=spec.seed, nested_from=nested_from
                )
                meta = engine_store.load_meta(store_key)
                if (
                    meta is not None
                    and meta.get("machine") == spec.machine
                    and isinstance(meta.get("cell_metrics"), dict)
                ):
                    cells[cell_key(method, p)] = meta["cell_metrics"]
                    continue
            layout = layout_for(
                A,
                method,
                p,
                seed=spec.seed,
                cache_dir=cache_dir,
                nested_from=nested_from,
            )
            dist = DistSparseMatrix(A, layout, machine)
            metrics = cell_metrics(dist)
            cells[cell_key(method, p)] = metrics
            if store_key is not None:
                engine_store.save(
                    store_key,
                    dist.engine,
                    {
                        "matrix": matrix,
                        "machine": spec.machine,
                        "cell_metrics": metrics,
                    },
                )
    return cells

