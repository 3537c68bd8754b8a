"""Layout factory: the six distributions of the paper's section 5.2.

``make_layout`` builds any of:

========== ==========================================================
name        distribution
========== ==========================================================
1d-block    row blocks of ~n/p consecutive rows
1d-random   rows assigned uniformly at random
1d-gp       rows by graph partitioning (nonzero-balanced)
1d-hp       rows by hypergraph partitioning
1d-gp-mc    rows by multiconstraint GP (rows + nonzeros balanced)
2d-block    Cartesian on the block rpart (Yoo et al. [34])
2d-random   Cartesian on the random rpart
2d-gp       **the paper's method**: Cartesian on the GP rpart
2d-hp       Cartesian on the HP rpart
2d-gp-mc    Cartesian on the multiconstraint GP rpart
========== ==========================================================

A precomputed ``rpart`` can be passed to amortise one partitioner run
across the 1D and 2D variants — exactly how the paper ran its comparison
("We used the same row-based graph or hypergraph partition rpart for
1D-GP/HP and for 2D-GP/HP").
"""

from __future__ import annotations

import numpy as np

from ..partitioning import PARTITION_METHODS
from .base import Layout, process_grid_shape
from .cartesian import cartesian_layout
from .oned import oned_layout
from .providers import block_rpart, partitioned_rpart, random_rpart

__all__ = ["make_layout", "LAYOUT_NAMES", "canonical_name", "paper_methods"]

#: Accepted method names, lowercase.
LAYOUT_NAMES = (
    "1d-block", "1d-random", "1d-gp", "1d-hp", "1d-gp-mc",
    "2d-block", "2d-random", "2d-gp", "2d-hp", "2d-gp-mc",
)

_DISPLAY = {
    "1d-block": "1D-Block", "1d-random": "1D-Random", "1d-gp": "1D-GP",
    "1d-hp": "1D-HP", "1d-gp-mc": "1D-GP-MC",
    "2d-block": "2D-Block", "2d-random": "2D-Random", "2d-gp": "2D-GP",
    "2d-hp": "2D-HP", "2d-gp-mc": "2D-GP-MC",
}


def canonical_name(method: str) -> str:
    """Display name used in the paper's tables (e.g. ``"2D-GP"``)."""
    return _DISPLAY[method.lower()]


def paper_methods(partitioner: str, include_mc: bool = False) -> list[str]:
    """The paper's Table-2 method set with the GP-vs-HP choice resolved.

    Six layouts per matrix — block, random and partitioned in 1D and 2D —
    where ``partitioner`` ("gp" or "hp", from the matrix's
    :class:`~repro.generators.corpus.CorpusSpec`) picks the partitioned
    variant, exactly as the paper's "(GP)"/"(HP)" table labels do.
    ``include_mc`` appends the multiconstraint variants (Table 4's extra
    columns; only defined for GP matrices).
    """
    if partitioner not in PARTITION_METHODS:
        raise ValueError(f"unknown partitioner {partitioner!r}; choose from "
                         f"{sorted(PARTITION_METHODS)}")
    methods = [
        "1d-block", "1d-random", f"1d-{partitioner}",
        "2d-block", "2d-random", f"2d-{partitioner}",
    ]
    if include_mc and partitioner == "gp":
        methods.insert(3, "1d-gp-mc")
        methods.append("2d-gp-mc")
    return methods


def make_layout(
    method: str,
    A,
    nprocs: int,
    seed: int = 0,
    rpart: np.ndarray | None = None,
    grid: tuple[int, int] | None = None,
    orientation: str = "fixed",
) -> Layout:
    """Build a named layout for matrix *A* on *nprocs* processes.

    Parameters
    ----------
    method:
        One of :data:`LAYOUT_NAMES` (case-insensitive).
    A:
        Square sparse matrix.
    nprocs:
        Number of processes p.
    seed:
        Seed for random rpart / the partitioner.
    rpart:
        Optional precomputed row partition (skips the partitioner /
        randomisation). Ignored for block layouts.
    grid:
        Optional explicit (pr, pc) for 2D layouts; default most-square.
    orientation:
        phi/psi orientation for 2D layouts: "fixed", "swapped" or "best"
        (see :func:`repro.layouts.cartesian.cartesian_layout`).
    """
    method = method.lower()
    if method not in LAYOUT_NAMES:
        raise ValueError(f"unknown layout {method!r}; choose from {LAYOUT_NAMES}")
    n = A.shape[0]
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"layouts need a square matrix, got {A.shape}")

    dim, _, kind = method.partition("-")
    if rpart is None:
        if kind == "block":
            rpart = block_rpart(n, nprocs)
        elif kind == "random":
            rpart = random_rpart(n, nprocs, seed=seed)
        else:
            rpart = partitioned_rpart(A, nprocs, method=kind, seed=seed)
    else:
        rpart = np.asarray(rpart, dtype=np.int64)
        if len(rpart) != n:
            raise ValueError(f"rpart length {len(rpart)} != n {n}")

    display = canonical_name(method)
    if dim == "1d":
        return oned_layout(display, rpart, nprocs)
    pr, pc = grid if grid is not None else process_grid_shape(nprocs)
    return cartesian_layout(display, A, rpart, pr, pc, orientation=orientation)
