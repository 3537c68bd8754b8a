"""Multilevel bisection driver: coarsen -> initial partition -> refine up.

Mirrors the METIS pipeline. The initial partition is chosen best-of-k:
several greedy-graph-growing starts, a spectral split, and a random split
are each FM-refined on the coarsest graph, and the (balanced, min-cut)
winner is projected back up with refinement at every level.
"""

from __future__ import annotations

import numpy as np

from .. import perf
from .coarsen import coarsen_to
from .initial import greedy_graph_growing, random_bisection, spectral_bisection
from .partgraph import PartGraph
from .refine import balance_allowance, fm_refine, is_balanced

__all__ = ["multilevel_bisect"]


def _score(g: PartGraph, part: np.ndarray, allow) -> tuple:
    sw = np.zeros((2, g.ncon))
    np.add.at(sw, part, g.vwgt)
    over = float(np.maximum(sw - allow, 0.0).sum())
    return (not is_balanced(sw, allow), over, g.edgecut(part))


def multilevel_bisect(
    g: PartGraph,
    target_fracs: tuple[float, float] = (0.5, 0.5),
    ub: float = 1.05,
    seed: int = 0,
    min_coarse: int = 120,
    n_initial: int = 4,
    refine_passes: int = 3,
) -> np.ndarray:
    """Bisect *g* into parts {0, 1} with target weight fractions.

    Parameters
    ----------
    g:
        Graph to bisect (any number of balance constraints; constraint 0
        drives the initial partition, all constraints bound refinement).
    target_fracs:
        Desired weight fractions, e.g. (0.5, 0.5) or (0.375, 0.625) for
        uneven recursive splits.
    ub:
        Imbalance tolerance per side (1.05 = 5% overweight allowed).
    seed:
        Deterministic seed for matching/initial-partition randomness.
    min_coarse:
        Stop coarsening below this many vertices.
    n_initial:
        Number of greedy-graph-growing starts to try.
    """
    if abs(sum(target_fracs) - 1.0) > 1e-9:
        raise ValueError(f"target fractions must sum to 1, got {target_fracs}")
    if g.n == 0:
        return np.zeros(0, dtype=np.int64)
    if g.n == 1:
        return np.zeros(1, dtype=np.int64)
    rng = np.random.default_rng(seed)

    with perf.phase("coarsen"):
        levels = coarsen_to(g, min_coarse, rng)
    gc = levels[-1][0]
    allow_c = balance_allowance(gc, target_fracs, ub)

    # --- initial partitions on the coarsest graph ---
    with perf.phase("initial"):
        candidates: list[np.ndarray] = []
        for _ in range(n_initial):
            candidates.append(greedy_graph_growing(gc, target_fracs[0], rng))
        spec = spectral_bisection(gc, target_fracs[0])
        if spec is not None:
            candidates.append(spec)
        candidates.append(random_bisection(gc, target_fracs[0], rng))

        refined = [
            fm_refine(gc, p, target_fracs, ub, passes=refine_passes, rng=rng)
            for p in candidates
        ]
        part = min(refined, key=lambda p: _score(gc, p, allow_c))

    # --- uncoarsen with refinement at each level ---
    for (g_fine, _), (_, cmap) in zip(reversed(levels[:-1]), reversed(levels[1:])):
        with perf.phase("project"):
            part = part[cmap]  # project coarse part onto the finer level
        with perf.phase("refine"):
            part = fm_refine(g_fine, part, target_fracs, ub, passes=refine_passes, rng=rng)
    return part
