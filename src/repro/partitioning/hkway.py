"""Multilevel hypergraph bisection and recursive-bisection k-way driver.

Same pipeline as the graph partitioner (coarsen / initial / refine /
project), with the hypergraph-specific pieces swapped in. Part numbering is
hierarchical, so :func:`repro.partitioning.kway.derive_nested_partition`
applies to hypergraph partitions too.
"""

from __future__ import annotations

from functools import partial

import numpy as np

from .. import perf
from ._util import check_part_vector, gather_slices, two_sided, walk_rb
from .hcoarsen import hcoarsen_to
from .hrefine import fm_refine_hypergraph
from .hypergraph import Hypergraph
from .refine import balance_allowance, is_balanced

__all__ = ["multilevel_hypergraph_bisect", "hypergraph_recursive_bisection"]


def _greedy_net_growing(
    hg: Hypergraph, target_frac: float, rng: np.random.Generator
) -> np.ndarray:
    """Grow part 0 by net-BFS from a random seed until the target weight.

    Level-synchronous numpy replay of the former per-pin deque loop (same
    argument as :func:`repro.partitioning.initial.greedy_graph_growing`):
    the frontier expands through two CSR gathers — vertex to incident nets,
    nets to pins, duplicates preserved exactly as the nested loops visited
    them — then first-discovery dedupe; the weight target only truncates
    the prefix of the visit order, and ``np.cumsum`` reproduces the scalar
    ``grown +=`` accumulation bit for bit.
    """
    n = hg.n
    part = np.ones(n, dtype=np.int64)
    target = hg.total_weight()[0] * target_frac
    if n == 0 or not 0.0 < target:
        return part
    visited = np.zeros(n, dtype=bool)
    order = rng.permutation(n)
    H = hg.H
    HT = hg.transpose_incidence()
    bfs = np.empty(n, dtype=np.int64)
    pos = 0
    oi = 0
    while pos < n:
        while oi < n and visited[order[oi]]:
            oi += 1
        if oi >= n:
            break
        frontier = np.asarray([order[oi]], dtype=np.int64)
        visited[frontier] = True
        while len(frontier):
            bfs[pos : pos + len(frontier)] = frontier
            pos += len(frontier)
            nets = gather_slices(HT.indptr, HT.indices, frontier)
            if len(nets) == 0:
                break
            cand = gather_slices(H.indptr, H.indices, nets.astype(np.int64))
            cand = cand[~visited[cand]]
            if len(cand) == 0:
                break
            _, first = np.unique(cand, return_index=True)
            frontier = cand[np.sort(first)].astype(np.int64)
            visited[frontier] = True
    cum = np.cumsum(hg.vwgt[bfs[:pos], 0])
    k = min(int(np.searchsorted(cum[:-1], target, side="left")) + 1, pos)
    part[bfs[:k]] = 0
    return part


def _random_bisection(hg: Hypergraph, target_frac: float, rng: np.random.Generator) -> np.ndarray:
    order = rng.permutation(hg.n)
    cum = np.cumsum(hg.vwgt[order, 0])
    target = hg.total_weight()[0] * target_frac
    split = int(np.searchsorted(cum, target)) + 1
    split = min(max(split, 1), hg.n - 1) if hg.n > 1 else 0
    part = np.ones(hg.n, dtype=np.int64)
    part[order[:split]] = 0
    return part


def _score(hg: Hypergraph, part: np.ndarray, allow: np.ndarray) -> tuple:
    sw = hg.part_weights(part, 2)
    over = float(np.maximum(sw - allow, 0.0).sum())
    return (not is_balanced(sw, allow), over, hg.cut_connectivity_minus_one(part, 2))


def multilevel_hypergraph_bisect(
    hg: Hypergraph,
    target_fracs: tuple[float, float] = (0.5, 0.5),
    ub: float = 1.05,
    seed: int = 0,
    min_coarse: int = 120,
    n_initial: int = 3,
    refine_passes: int = 3,
) -> np.ndarray:
    """Bisect hypergraph *hg* minimising connectivity-1 under balance."""
    if hg.n == 0:
        return np.zeros(0, dtype=np.int64)
    if hg.n == 1:
        return np.zeros(1, dtype=np.int64)
    rng = np.random.default_rng(seed)
    with perf.phase("coarsen"):
        levels = hcoarsen_to(hg, min_coarse, rng)
    hgc = levels[-1][0]
    allow_c = balance_allowance(hgc, target_fracs, ub)

    with perf.phase("initial"):
        candidates = [_greedy_net_growing(hgc, target_fracs[0], rng) for _ in range(n_initial)]
        candidates.append(_random_bisection(hgc, target_fracs[0], rng))
        refined = [
            fm_refine_hypergraph(hgc, p, target_fracs, ub, passes=refine_passes)
            for p in candidates
        ]
        part = min(refined, key=lambda p: _score(hgc, p, allow_c))

    for (hg_fine, _), (_, cmap) in zip(reversed(levels[:-1]), reversed(levels[1:])):
        with perf.phase("project"):
            part = part[cmap]
        with perf.phase("refine"):
            part = fm_refine_hypergraph(hg_fine, part, target_fracs, ub, passes=refine_passes)
    return part


def hypergraph_recursive_bisection(
    hg: Hypergraph,
    nparts: int,
    ub: float = 1.05,
    seed: int = 0,
    **bisect_kwargs,
) -> np.ndarray:
    """K-way hypergraph partition via recursive bisection (no balance repair)."""
    part = walk_rb(_node(hg, nparts, bisect_kwargs), hg, nparts, ub, seed)
    return check_part_vector(part, hg.n, nparts)


def _split(
    hg: Hypergraph, k0: int, k: int, ub: float, seed, ideal: float, kwargs: dict
) -> tuple[np.ndarray, Hypergraph, Hypergraph]:
    """One hypergraph RB node; pure function of its arguments (see kway._split)."""
    total = hg.total_weight()[0]
    frac0 = float(np.clip(k0 * ideal / max(total, 1e-300), 0.05, 0.95))
    with perf.phase("bisect"):
        bis = multilevel_hypergraph_bisect(
            hg, (frac0, 1.0 - frac0), ub=ub, seed=seed, **kwargs
        )
    bis = two_sided(bis, hg.vwgt[:, 0], frac0)
    return bis, hg.induced(np.flatnonzero(bis == 0)), hg.induced(np.flatnonzero(bis == 1))


def _node(hg: Hypergraph, nparts: int, kwargs: dict):
    """The walker's node function for a hypergraph partition (picklable).

    Binds the root-level ideal part weight: splits below target multiples
    of it so imbalance does not compound down the recursion. (An invalid
    *nparts* is the walker's to reject, hence the clamp.)
    """
    return partial(_split, ideal=hg.total_weight()[0] / max(nparts, 1), kwargs=kwargs)
