"""Initial bisection of the coarsest graph or hypergraph.

Three generators, best-of-k selected after refinement (METIS's strategy):

* greedy growing — BFS region growing from a random seed until the target
  weight is reached, through graph edges or through nets;
* spectral — weighted-median split of the Fiedler vector (graphs only; a
  dense solve, only attempted on small coarse graphs);
* random — weight-aware random assignment, the fallback that always works.

The growers and the random split read only ``n``, ``vwgt`` and
``total_weight()``, so one implementation serves both structures.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import scipy.sparse as sp

from .partgraph import PartGraph

__all__ = ["greedy_growing", "spectral_bisection", "random_bisection"]


def greedy_growing(
    g,
    target_frac: float,
    rng: np.random.Generator,
    neighbours: Callable,
) -> np.ndarray:
    """Grow part 0 by BFS from a random seed until it holds ``target_frac``
    of the total primary weight. Disconnected leftovers are seeded again.

    ``neighbours(g, frontier)`` returns the vertices the frontier reaches
    (through edges, or through nets to their pins), duplicates kept, in
    frontier order then CSR order. The BFS runs level-synchronously and
    replays the former per-vertex deque loop exactly: FIFO order equals
    level order with children deduplicated by first discovery, and the
    target weight only truncates the visit order. ``np.cumsum``
    accumulates float64 left to right like the scalar ``grown +=`` loop
    did, so the crossing vertex (and the partition) is bit-identical.
    """
    n = g.n
    part = np.ones(n, dtype=np.int64)
    target = g.total_weight()[0] * target_frac
    if n == 0 or not 0.0 < target:
        return part
    visited = np.zeros(n, dtype=bool)
    order = rng.permutation(n)
    bfs = np.empty(n, dtype=np.int64)
    pos = 0
    oi = 0
    while pos < n:
        # (re)seed from the next unvisited vertex in the random order
        while oi < n and visited[order[oi]]:
            oi += 1
        if oi >= n:
            break
        frontier = np.asarray([order[oi]], dtype=np.int64)
        visited[frontier] = True
        while len(frontier):
            bfs[pos : pos + len(frontier)] = frontier
            pos += len(frontier)
            cand = neighbours(g, frontier)
            cand = cand[~visited[cand]]
            if len(cand) == 0:
                break
            # first-discovery dedupe preserving order
            _, first = np.unique(cand, return_index=True)
            frontier = cand[np.sort(first)].astype(np.int64, copy=False)
            visited[frontier] = True
    cum = np.cumsum(g.vwgt[bfs[:pos], 0])
    # vertex i is grown while the weight before it is < target, so the
    # grown prefix ends one past the last cumsum entry strictly below it
    k = min(int(np.searchsorted(cum[:-1], target, side="left")) + 1, pos)
    part[bfs[:k]] = 0
    return part


def spectral_bisection(g: PartGraph, target_frac: float) -> np.ndarray | None:
    """Fiedler-vector bisection at the weighted median.

    Returns None when the eigensolve fails or the graph is trivially small;
    callers fall back to the other generators. Only intended for coarse
    graphs: the solve is dense, so graphs above 600 vertices return None.
    """
    n = g.n
    if n < 4 or n > 600 or g.xadj[-1] == 0:
        # dense solve only: shift-invert Lanczos on larger coarse graphs is
        # slower than the FM refinement it feeds and adds nothing over the
        # greedy starts — measured, not assumed
        return None
    W = g.adjacency_matrix()
    d = np.asarray(W.sum(axis=1)).ravel()
    L = sp.diags(d) - W
    try:
        _, vecs = np.linalg.eigh(L.toarray())
        fiedler = vecs[:, 1]
    except Exception:
        return None
    return _prefix_split(g, np.argsort(fiedler), target_frac)


def random_bisection(g, target_frac: float, rng: np.random.Generator) -> np.ndarray:
    """Random weight-aware bisection: shuffle, take a prefix of the target
    weight into part 0."""
    return _prefix_split(g, rng.permutation(g.n), target_frac)


def _prefix_split(g, order: np.ndarray, target_frac: float) -> np.ndarray:
    """Part 0 is the shortest prefix of *order* whose primary weight reaches
    ``target_frac`` of the total, clamped to leave both sides non-empty."""
    cum = np.cumsum(g.vwgt[order, 0])
    target = g.total_weight()[0] * target_frac
    split = int(np.searchsorted(cum, target)) + 1
    split = min(max(split, 1), g.n - 1) if g.n > 1 else 0
    part = np.ones(g.n, dtype=np.int64)
    part[order[:split]] = 0
    return part
