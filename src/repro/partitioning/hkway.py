"""Recursive-bisection k-way driver for hypergraphs.

Each RB node runs :func:`repro.partitioning.bisect.multilevel_bisect`,
which picks the hypergraph coarsener, grower, refiner and cut from the
input's type. Part numbering is hierarchical, so
:func:`repro.partitioning.kway.derive_nested_partition` applies to
hypergraph partitions too.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .. import perf
from ._util import check_part_vector, two_sided, walk_rb
from .bisect import multilevel_bisect
from .hypergraph import Hypergraph

__all__ = ["hypergraph_recursive_bisection"]


def hypergraph_recursive_bisection(
    hg: Hypergraph,
    nparts: int,
    ub: float = 1.05,
    seed: int = 0,
) -> np.ndarray:
    """K-way hypergraph partition via recursive bisection (no balance repair)."""
    part = walk_rb(_node(hg, nparts), hg, nparts, ub, seed)
    return check_part_vector(part, hg.n, nparts)


def _split(
    hg: Hypergraph, k0: int, k: int, ub: float, seed, ideal: float
) -> tuple[np.ndarray, Hypergraph, Hypergraph]:
    """One hypergraph RB node; pure function of its arguments (see kway._split)."""
    total = hg.total_weight()[0]
    frac0 = float(np.clip(k0 * ideal / max(total, 1e-300), 0.05, 0.95))
    with perf.phase("bisect"):
        bis = multilevel_bisect(hg, (frac0, 1.0 - frac0), ub=ub, seed=seed)
    bis = two_sided(bis, hg.vwgt[:, 0], frac0)
    left, right = (hg.induced(np.flatnonzero(bis == side)) for side in (0, 1))
    return bis, left, right


def _node(hg: Hypergraph, nparts: int):
    """The walker's node function for a hypergraph partition (picklable).

    Binds the root-level ideal part weight: splits below target multiples
    of it so imbalance does not compound down the recursion. (An invalid
    *nparts* is the walker's to reject, hence the clamp.)
    """
    return partial(_split, ideal=hg.total_weight()[0] / max(nparts, 1))
