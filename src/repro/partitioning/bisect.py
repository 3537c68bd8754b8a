"""Multilevel bisection driver: coarsen -> initial partition -> refine up.

One skeleton for graphs (the METIS / ParMETIS pipeline behind 2D-GP) and
hypergraphs (the Zoltan PHG pipeline behind 2D-HP). The initial partition
is chosen best-of-k: several greedy-growing starts, an optional extra
candidate (a spectral split for graphs) and a random split are each
FM-refined on the coarsest level, and the (balanced, min-cut) winner is
projected back up with refinement at every level.

The structure's type picks its row of :data:`_SUBSTRATES`, which holds
only what differs between the two: the coarsening level step, the
grower's frontier gather, the refiner, the cut, the extra candidate and
the default number of growers. Neither refiner reads the random stream,
so both draw from it in the same order — coarsening, then the growers,
then the random split.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .. import perf
from ._util import gather_slices
from .coarsen import coarsen_level, coarsen_to
from .hcoarsen import hcoarsen_level
from .hrefine import fm_refine_hypergraph
from .hypergraph import Hypergraph
from .initial import greedy_growing, random_bisection, spectral_bisection
from .partgraph import PartGraph
from .refine import _violation, balance_allowance, fm_refine, is_balanced

__all__ = ["multilevel_bisect"]

#: Coarsening stops below this many vertices.
MIN_COARSE = 120

#: FM passes per refinement, on the coarsest level and on every finer one.
REFINE_PASSES = 3


class _Substrate(NamedTuple):
    level: Callable  # (g, rng, max_vertex_weight=) -> (coarse, cmap)
    neighbours: Callable  # (g, frontier) -> reached vertices, visit order
    refine: Callable  # (g, part, target_fracs, ub, passes=) -> part
    cut: Callable  # (g, part) -> bisection objective
    extra: Callable  # (g, frac0) -> one more candidate, or None
    n_initial: int  # number of greedy-growing starts


def _edge_neighbours(g: PartGraph, frontier: np.ndarray) -> np.ndarray:
    return gather_slices(g.xadj, g.adjncy, frontier)


def _pin_neighbours(hg: Hypergraph, frontier: np.ndarray) -> np.ndarray:
    HT = hg.transpose_incidence()
    nets = gather_slices(HT.indptr, HT.indices, frontier)
    return gather_slices(hg.H.indptr, hg.H.indices, nets.astype(np.int64))


_SUBSTRATES = {
    PartGraph: _Substrate(
        level=coarsen_level,
        neighbours=_edge_neighbours,
        refine=fm_refine,
        cut=PartGraph.edgecut,
        extra=spectral_bisection,
        n_initial=4,
    ),
    Hypergraph: _Substrate(
        level=hcoarsen_level,
        neighbours=_pin_neighbours,
        refine=fm_refine_hypergraph,
        cut=lambda hg, part: hg.cut_connectivity_minus_one(part, 2),
        extra=lambda hg, frac0: None,
        n_initial=3,
    ),
}


def _score(g, part: np.ndarray, allow: np.ndarray, cut: Callable) -> tuple:
    sw = g.part_weights(part, 2)
    return (not is_balanced(sw, allow), _violation(sw, allow), cut(g, part))


def multilevel_bisect(
    g: PartGraph | Hypergraph,
    target_fracs: tuple[float, float] = (0.5, 0.5),
    ub: float = 1.05,
    seed: int = 0,
) -> np.ndarray:
    """Bisect *g* into parts {0, 1} with target weight fractions.

    Parameters
    ----------
    g:
        :class:`PartGraph` (edge cut) or :class:`Hypergraph`
        (connectivity-1) to bisect, with any number of balance
        constraints; constraint 0 drives the initial partition, all
        constraints bound refinement.
    target_fracs:
        Desired weight fractions, e.g. (0.5, 0.5) or (0.375, 0.625) for
        uneven recursive splits.
    ub:
        Imbalance tolerance per side (1.05 = 5% overweight allowed).
    seed:
        Deterministic seed for matching/initial-partition randomness.
    """
    if abs(sum(target_fracs) - 1.0) > 1e-9:
        raise ValueError(f"target fractions must sum to 1, got {target_fracs}")
    if g.n <= 1:
        return np.zeros(g.n, dtype=np.int64)
    sub = _SUBSTRATES[type(g)]
    rng = np.random.default_rng(seed)

    with perf.phase("coarsen"):
        levels = coarsen_to(g, MIN_COARSE, rng, level=sub.level)
    gc = levels[-1][0]
    allow_c = balance_allowance(gc, target_fracs, ub)

    # --- initial partitions on the coarsest level ---
    with perf.phase("initial"):
        frac0 = target_fracs[0]
        candidates = [
            greedy_growing(gc, frac0, rng, sub.neighbours) for _ in range(sub.n_initial)
        ]
        extra = sub.extra(gc, frac0)
        if extra is not None:
            candidates.append(extra)
        candidates.append(random_bisection(gc, frac0, rng))
        refined = [
            sub.refine(gc, p, target_fracs, ub, passes=REFINE_PASSES)
            for p in candidates
        ]
        part = min(refined, key=lambda p: _score(gc, p, allow_c, sub.cut))

    # --- uncoarsen with refinement at each level ---
    for (g_fine, _), (_, cmap) in zip(reversed(levels[:-1]), reversed(levels[1:])):
        with perf.phase("project"):
            part = part[cmap]  # project coarse part onto the finer level
        with perf.phase("refine"):
            part = sub.refine(g_fine, part, target_fracs, ub, passes=REFINE_PASSES)
    return part
