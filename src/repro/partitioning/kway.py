"""K-way partitioning by recursive bisection, with hierarchical numbering.

Recursive bisection (RB) is how METIS's ``pmetis`` and Zoltan's PHG obtain
k parts: split the graph (k0, k1)-proportionally, recurse on the induced
subgraphs. Part ids follow the recursion tree — the left subtree owns ids
``[lo, lo+k0)`` — which gives a useful *nesting* property for free: for
power-of-two part counts, ``part_k' = part_k * k' // k`` is exactly the RB
partition with k' parts. The bench harness exploits this to amortise one
deep partition across every process count of a scaling study
(:func:`derive_nested_partition`).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import perf
from ._util import two_sided
from .bisect import multilevel_bisect
from .partgraph import PartGraph

__all__ = ["kway_balance_refine", "derive_nested_partition"]

#: Rounds of :func:`kway_balance_refine` before it gives up on balance.
MAX_REPAIR_ROUNDS = 8


def _split(
    g: PartGraph, k0: int, k: int, ub: float, seed
) -> tuple[np.ndarray, PartGraph, PartGraph]:
    """One RB node: bisect *g* (k0 : k-k0)-proportionally, induce both sides.

    Returns the 0/1 side vector and the two induced subgraphs. This is the
    unit of work :func:`repro.partitioning._util.walk_rb` runs inline or
    ships to a pool worker, so it must stay a pure function of its
    arguments.
    """
    # proportional target: excess weight inherited from upper levels is
    # spread across both subtrees rather than pushed into one part
    # (targeting multiples of a root-level ideal instead concentrates all
    # the accumulated excess in the last part — measurably worse)
    frac0 = k0 / k
    with perf.phase("bisect"):
        bis = multilevel_bisect(g, (frac0, 1.0 - frac0), ub=ub, seed=seed)
    bis = two_sided(bis, g.vwgt[:, 0], frac0)
    left, right = (g.induced_subgraph(np.flatnonzero(bis == side)) for side in (0, 1))
    return bis, left, right


def kway_balance_refine(
    g: PartGraph,
    part: np.ndarray,
    nparts: int,
    ub: float | np.ndarray = 1.05,
) -> np.ndarray:
    """Greedy k-way balance repair after recursive bisection.

    RB controls balance per bisection, but per-level slack compounds and
    scale-free hubs add vertex-granularity error. This pass empties
    overweight parts directly: each round it computes every vertex's edge
    weight towards each part (one sparse product) and moves vertices out of
    overweight parts into parts with room, preferring moves that keep the
    most edge weight internal. Cut may increase — on scale-free graphs
    trading a little volume for balance is the right trade (the paper's
    randomised layouts make the same trade much more aggressively).

    ``ub`` may be a per-constraint array: repairing a *secondary*
    constraint (e.g. row counts on an nnz-balanced partition) requires
    slack on the primary one, because a partition balanced to its cap has
    no headroom to receive anything.
    """
    part = np.asarray(part, dtype=np.int64).copy()
    if g.n == 0 or nparts == 1:
        return part
    total = g.total_weight()
    vmax = g.vwgt.max(axis=0)
    ub = np.broadcast_to(np.asarray(ub, dtype=np.float64), (g.ncon,))
    # granularity floor: a part holding one maximal vertex is irreducible,
    # but nothing forces extra weight to pile on top of it — so the floor
    # is vmax itself, not avg + vmax (the wider form would declare a
    # hub-plus-full-average part "balanced")
    allow = np.maximum(ub * total / nparts, 1.02 * vmax)  # (ncon,)
    pw = g.part_weights(part, nparts)

    W = g.adjacency_matrix()
    for _ in range(MAX_REPAIR_ROUNDS):
        over = np.flatnonzero((pw > allow[None, :] + 1e-9).any(axis=1))
        if len(over) == 0:
            break
        onehot = sp.csr_matrix(
            (np.ones(g.n), (np.arange(g.n), part)), shape=(g.n, nparts)
        )
        C = (W @ onehot).tocsr()  # C[v, t] = edge weight from v into part t
        # the apply loop below reads C through raw CSR arrays (a scipy
        # row extraction per candidate vertex dominated this whole pass)
        indptr, cind, cdat = C.indptr, C.indices, C.data
        moved_any = False
        for s in over:
            cand = np.flatnonzero(part == s)
            if len(cand) <= 1:
                continue
            # cheapest-to-move first *in the violated dimension*: order by
            # internal edge weight per unit of the constraint this part is
            # most over on. (Ordering by a different constraint's weight
            # moves the wrong vertices and burns the targets' headroom —
            # e.g. shedding thousands of leaf rows when moving a few hub
            # rows would fix an nnz overage.)
            cstar = int(np.argmax(pw[s] / allow))
            # batched gather of C[cand, s]: flatten the candidate rows once
            # and pick out the column-s entries (rows without one keep 0)
            starts, ends = indptr[cand], indptr[cand + 1]
            counts = ends - starts
            flat = (
                np.repeat(starts - np.concatenate(([0], np.cumsum(counts)[:-1])), counts)
                + np.arange(counts.sum())
            )
            rows_rep = np.repeat(np.arange(len(cand)), counts)
            hit = cind[flat] == s
            internal = np.zeros(len(cand))
            internal[rows_rep[hit]] = cdat[flat[hit]]
            order = cand[np.argsort(internal / np.maximum(g.vwgt[cand, cstar], 1e-12))]
            for v in order.tolist():
                if not (pw[s] > allow + 1e-9).any():
                    break  # s is balanced now
                sl = slice(indptr[v], indptr[v + 1])
                keep = cind[sl] != s
                targets = cind[sl][keep]
                gains = cdat[sl][keep]
                w = g.vwgt[v]
                # consider neighbour parts by descending attraction, then —
                # as teleport fallbacks — the parts with the most headroom
                # on their *worst* constraint (a part minimal on one
                # constraint may be pinned at the cap of another)
                moved = False
                for t in targets[np.argsort(-gains)]:
                    if (pw[t] + w <= allow + 1e-9).all():
                        part[v] = t
                        pw[s] -= w
                        pw[t] += w
                        moved_any = moved = True
                        break
                if moved:
                    continue
                headroom = (pw / allow[None, :]).max(axis=1)
                for t in np.argsort(headroom)[:3].tolist():
                    if t == s:
                        continue
                    if (pw[t] + w <= allow + 1e-9).all():
                        part[v] = t
                        pw[s] -= w
                        pw[t] += w
                        moved_any = True
                        break
        if not moved_any:
            break
    return part


def derive_nested_partition(part: np.ndarray, nparts: int, nparts_coarse: int) -> np.ndarray:
    """Coarsen an RB part vector from *nparts* to *nparts_coarse* parts.

    Valid because RB numbering is hierarchical; requires both counts to be
    powers of two with ``nparts_coarse`` dividing ``nparts``.
    """
    for k in (nparts, nparts_coarse):
        if k < 1 or (k & (k - 1)) != 0:
            raise ValueError(f"part counts must be powers of two, got {k}")
    if nparts % nparts_coarse != 0:
        raise ValueError(f"{nparts_coarse} does not divide {nparts}")
    return np.asarray(part, dtype=np.int64) * nparts_coarse // nparts
