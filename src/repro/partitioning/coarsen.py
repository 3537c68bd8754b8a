"""Graph coarsening by heavy-edge handshake matching.

Heavy-edge matching (HEM) is the coarsening scheme of METIS: collapsing
heavy edges keeps as much edge weight as possible *inside* coarse vertices,
so the coarse graph's cuts approximate the fine graph's. The sequential HEM
loop vectorises poorly, so we use the standard parallel relaxation —
*handshake matching*: every unmatched vertex points at its heaviest
unmatched neighbour; mutual pointers form matches; repeat a few rounds.

Matching hoists the loop-invariant ``adjwgt + jitter`` keys, compacts
every round onto the shrinking unmatched frontier (round 1 is the only
full-width round; later rounds touch only still-unmatched CSR slices) and
uses the reduceat segment argmax
(:func:`repro.partitioning._util.segment_argmax_last`). Contraction is one
sort-based edge relabel + run-length segment sum over
``(cmap[src], cmap[dst])`` keys, and seeds the coarse graph's memoized
derived state (adjacency matrix, edge sources) from construction
by-products so the next level's matching and refinement skip their
first-touch rebuilds. It relies on
:meth:`~repro.partitioning.partgraph.PartGraph.exactly_summable_weights`
(edge-weight sums are order-independent in float64 for the integer
weights every graph in this package carries); graphs without that
guarantee are contracted by the scipy ``P^T W P`` triple product
(:func:`_contract_reference`).

The seed implementations (:func:`_handshake_matching_reference`,
:func:`_contract_reference`) stay as the bit-identity oracles the tests
call directly: same matching, same coarse CSR arrays, same partitions
all the way up.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .. import perf
from ._util import (
    gather_csr_slots,
    gather_slices,
    segment_argmax,
    segment_argmax_last,
    weights_by_part,
)
from .partgraph import PartGraph

__all__ = [
    "handshake_matching",
    "contract",
    "coarsen_level",
    "coarsen_to",
]

#: Handshake rounds before the two-hop pass pairs what is left unmatched.
MATCHING_ROUNDS = 4

#: A coarsening level that keeps this fraction of its vertices or more has
#: stalled, and :func:`coarsen_to` stops there.
MIN_SHRINK = 0.95


def handshake_matching(
    g: PartGraph,
    rng: np.random.Generator,
    max_vertex_weight: np.ndarray | None = None,
) -> np.ndarray:
    """Heavy-edge handshake matching.

    Returns ``match`` with ``match[v] = u`` when v and u are matched
    (``match[v] = v`` for unmatched vertices). When *max_vertex_weight* is
    given, pairs whose combined primary weight would exceed it are not
    matched — this keeps giant coarse vertices (hubs absorbing everything)
    from destroying balance options later, the scale-free pitfall noted by
    Abou-Rjeili & Karypis [3].
    """
    return _handshake_matching_vector(g, rng, max_vertex_weight)


def _handshake_matching_reference(
    g: PartGraph,
    rng: np.random.Generator,
    max_vertex_weight: np.ndarray | None = None,
) -> np.ndarray:
    """Seed matching kernel, kept verbatim as the bit-identity oracle.

    Every round recomputes the keys and masks over the *full* edge array
    and runs the lexsort-based :func:`segment_argmax` — the per-round
    costs the vector kernel removes.
    """
    n = g.n
    match = np.arange(n, dtype=np.int64)
    if g.xadj[-1] == 0:
        return match
    src = g.edge_sources()
    # random tiebreak jitter keeps the matching from degenerating on
    # unweighted graphs where every edge weight is 1
    jitter = rng.random(len(g.adjncy)) * 1e-6
    unmatched_mask = np.ones(n, dtype=bool)

    for _ in range(MATCHING_ROUNDS):
        if not unmatched_mask.any():
            break
        keys = g.adjwgt + jitter
        ok = unmatched_mask[g.adjncy] & unmatched_mask[src]
        if max_vertex_weight is not None:
            combined = g.vwgt[src, 0] + g.vwgt[g.adjncy, 0]
            ok &= combined <= max_vertex_weight[0]
        keys = np.where(ok, keys, -np.inf)
        best = segment_argmax(keys, g.xadj)  # slot index or -1
        proposal = np.full(n, -1, dtype=np.int64)
        has = (best >= 0) & unmatched_mask
        valid = has.copy()
        valid[has] = keys[best[has]] > -np.inf
        proposal[valid] = g.adjncy[best[valid]]
        v = np.flatnonzero(valid)
        u = proposal[v]
        mutual = proposal[u] == v
        v, u = v[mutual], u[mutual]
        pick = v < u  # each pair appears twice; keep one orientation
        v, u = v[pick], u[pick]
        match[v] = u
        match[u] = v
        unmatched_mask[v] = False
        unmatched_mask[u] = False

    _two_hop_matching(g, match, unmatched_mask, jitter, max_vertex_weight)
    return match


def _handshake_matching_vector(
    g: PartGraph,
    rng: np.random.Generator,
    max_vertex_weight: np.ndarray | None = None,
) -> np.ndarray:
    """Vector matching kernel — replays the reference rounds exactly.

    Bit-identity notes (each is load-bearing):

    * the ``adjwgt + jitter`` keys are loop-invariant — the reference
      recomputes the identical float array every round, so hoisting it is
      bit-neutral; the weight-cap mask is equally static per level, so the
      cap-masked keys ``k0`` are built once;
    * a vertex's proposal is a pure function of its slot keys and its
      neighbours' matched/unmatched state. Between rounds the only state
      change is the set of newly matched vertices, so only *their
      unmatched neighbours* can compute a different argmax — every other
      stored proposal is exactly what the reference would recompute.
      Rounds after the first therefore refresh just that affected set
      (``gather_csr_slots`` + :func:`segment_argmax_last` on its
      compacted slices, bit-equal to the full-width lexsort form);
    * a new mutual pair must involve at least one refreshed proposal —
      two unmatched vertices whose proposals both survived from the
      previous round would have been matched then — so scanning the
      refreshed set for mutuality finds exactly the reference's pairs
      (deduped via the packed ``min*n + max`` key; the reference applies
      all of a round's pairs simultaneously, so order is immaterial);
    * when a round matches nothing, the state is a fixpoint: every later
      reference round recomputes identical proposals and matches nothing,
      so breaking early leaves ``match`` bit-identical.

    On scale-free graphs this is the difference between four O(nnz)
    sweeps and one: direct matching stalls against hubs (round one
    matches a few percent), so the affected sets of later rounds are
    tiny while the reference pays full width every time.
    """
    n = g.n
    match = np.arange(n, dtype=np.int64)
    if g.xadj[-1] == 0:
        return match
    unmatched_mask = np.ones(n, dtype=bool)

    # hoisted keys, identical every reference round; built in place
    # (jitter * 1e-6 then += adjwgt — float addition is commutative, so
    # the bits match the reference's adjwgt + jitter)
    keys = rng.random(len(g.adjncy))
    keys *= 1e-6
    keys += g.adjwgt
    xadj, adjncy = g.xadj, g.adjncy
    vwgt0 = g.vwgt[:, 0]
    proposal = np.full(n, -1, dtype=np.int64)

    # cap-masked keys, built once: the cap compares static vertex weights.
    # When even the two heaviest vertices together fit under the cap the
    # mask is all-true, so the raw keys are used unmasked — bit-identical,
    # and it skips two O(nnz) gathers per level (on scale-free corpora the
    # cap only binds on coarse levels, after hubs absorb real weight).
    if max_vertex_weight is None or 2.0 * vwgt0.max() <= max_vertex_weight[0]:
        k0 = keys
    else:
        combined = vwgt0[g.edge_sources()] + vwgt0[adjncy]
        k0 = np.where(combined <= max_vertex_weight[0], keys, -np.inf)

    # round one at full width: every vertex is unmatched, so the
    # unmatched factor is all-true and the gather is the identity
    best = segment_argmax_last(k0, xadj)
    # when the keys are unmasked this is also the full-graph raw-key argmax
    # the two-hop stage needs — reuse it instead of recomputing
    best_full = best if k0 is keys else None
    has = best >= 0
    valid = has.copy()
    valid[has] = k0[best[has]] > -np.inf
    vv = np.flatnonzero(valid)
    proposal[vv] = adjncy[best[vv]]
    u = proposal[vv]
    mutual = proposal[u] == vv
    v, u = vv[mutual], u[mutual]
    pick = v < u  # each pair appears twice; keep one orientation
    v, u = v[pick], u[pick]
    match[v] = u
    match[u] = v
    unmatched_mask[v] = False
    unmatched_mask[u] = False

    affmask = np.zeros(n, dtype=bool)
    for _ in range(1, MATCHING_ROUNDS):
        if len(v) == 0:
            break  # fixpoint: later rounds would match nothing
        # refresh proposals whose inputs changed: the unmatched
        # neighbours of the vertices matched last round (mask-deduped —
        # cheaper than hashing, and flatnonzero keeps ids ascending)
        newly = np.concatenate((v, u))
        affmask[:] = False
        affmask[gather_slices(xadj, adjncy, newly)] = True
        affmask &= unmatched_mask
        aff = np.flatnonzero(affmask)
        if len(aff) == 0:
            break
        slots, sub_xadj = gather_csr_slots(xadj, aff)
        nbr = adjncy[slots]
        k = np.where(unmatched_mask[nbr], k0[slots], -np.inf)
        best = segment_argmax_last(k, sub_xadj)
        has = best >= 0
        ok = has.copy()
        ok[has] = k[best[has]] > -np.inf
        newprop = np.full(len(aff), -1, dtype=np.int64)
        newprop[ok] = nbr[best[ok]]
        proposal[aff] = newprop
        # new mutual pairs all touch the refreshed set (see docstring)
        cand = aff[newprop >= 0]
        t = proposal[cand]
        mutual = proposal[t] == cand
        a, b = cand[mutual], t[mutual]
        pairkey = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
        v = pairkey // n
        u = pairkey % n
        match[v] = u
        match[u] = v
        unmatched_mask[v] = False
        unmatched_mask[u] = False

    _two_hop_matching_vector(g, match, unmatched_mask, keys, max_vertex_weight, best_full)
    return match


def _two_hop_matching(
    g: PartGraph,
    match: np.ndarray,
    unmatched_mask: np.ndarray,
    jitter: np.ndarray,
    max_vertex_weight: np.ndarray | None,
) -> None:
    """Pair leftover vertices that share a heaviest neighbour.

    On scale-free graphs direct matching stalls: every leaf of a hub wants
    the hub, only one gets it, and coarsening grinds to a halt (the failure
    mode Abou-Rjeili & Karypis identified). Two-hop matching pairs the
    leaves of a common hub with each other instead, restoring geometric
    shrink rates. Fully vectorised: group unmatched vertices by their
    heaviest neighbour, then pair consecutive members of each group.

    This is the reference form (full-graph lexsort argmax), kept verbatim;
    the vector matching kernel uses :func:`_two_hop_matching_vector`.
    """
    um = np.flatnonzero(unmatched_mask)
    if len(um) < 2:
        return
    keys = g.adjwgt + jitter
    best = segment_argmax(keys, g.xadj)
    # isolated vertices (no neighbours) share the sentinel anchor -1 and are
    # paired with each other — merging edgeless vertices is always safe and
    # keeps them from stalling the coarsening
    anchor = np.where(best[um] >= 0, g.adjncy[np.maximum(best[um], 0)], -1)
    _pair_by_anchor(g, match, unmatched_mask, um, anchor, max_vertex_weight)


def _two_hop_matching_vector(
    g: PartGraph,
    match: np.ndarray,
    unmatched_mask: np.ndarray,
    keys: np.ndarray,
    max_vertex_weight: np.ndarray | None,
    best_full: np.ndarray | None = None,
) -> None:
    """Two-hop pairing without the reference's second full-width argmax.

    Anchors ignore matched/unmatched status by design — the heaviest
    neighbour may well be matched — so the anchor argmax runs on the raw
    hoisted ``adjwgt + jitter`` keys, exactly the reference's. When the
    matching rounds ran on unmasked keys (*best_full*), their round-one
    argmax is that exact computation and is reused outright; otherwise the
    argmax runs on the compacted CSR slices of the unmatched vertices only
    (still far cheaper than the reference's full-graph lexsort).
    """
    um = np.flatnonzero(unmatched_mask)
    if len(um) < 2:
        return
    if best_full is not None:
        bu = best_full[um]
        anchor = np.where(bu >= 0, g.adjncy[np.maximum(bu, 0)], -1)
    else:
        slots, sub_xadj = gather_csr_slots(g.xadj, um)
        best = segment_argmax_last(keys[slots], sub_xadj)
        anchor = np.full(len(um), -1, dtype=np.int64)  # sentinel: isolated rows
        has = best >= 0
        anchor[has] = g.adjncy[slots[best[has]]]
    _pair_by_anchor(g, match, unmatched_mask, um, anchor, max_vertex_weight)


def _pair_by_anchor(
    g: PartGraph,
    match: np.ndarray,
    unmatched_mask: np.ndarray,
    um: np.ndarray,
    anchor: np.ndarray,
    max_vertex_weight: np.ndarray | None,
) -> None:
    """Pair consecutive members of each anchor group (shared by both kernels)."""
    order = np.argsort(anchor, kind="stable")
    um_sorted = um[order]
    anch_sorted = anchor[order]
    # pair positions (2i, 2i+1) that share an anchor
    a = um_sorted[:-1:2]
    b = um_sorted[1::2]
    same = anch_sorted[: len(a) * 2 : 2] == anch_sorted[1 : len(b) * 2 : 2]
    if max_vertex_weight is not None:
        same &= g.vwgt[a, 0] + g.vwgt[b, 0] <= max_vertex_weight[0]
    a, b = a[same], b[same]
    match[a] = b
    match[b] = a
    unmatched_mask[a] = False
    unmatched_mask[b] = False


def _coarse_map(match: np.ndarray) -> tuple[np.ndarray, int]:
    """Fine-to-coarse vertex map: representative = min(v, match[v])."""
    n = len(match)
    rep = np.minimum(np.arange(n, dtype=np.int64), match)
    is_rep = rep == np.arange(n)
    cmap = np.cumsum(is_rep) - 1  # coarse id of each representative
    return cmap[rep], int(is_rep.sum())


def contract(g: PartGraph, match: np.ndarray) -> tuple[PartGraph, np.ndarray]:
    """Contract matched pairs into coarse vertices.

    Returns the coarse graph and ``cmap`` (fine vertex -> coarse vertex).
    Coarse edge weights are the summed fine weights between clusters;
    internal edges vanish (they become coarse self-loops and are dropped).
    """
    if g.exactly_summable_weights():
        return _contract_vector(g, match)
    return _contract_reference(g, match)


def _contract_reference(g: PartGraph, match: np.ndarray) -> tuple[PartGraph, np.ndarray]:
    """Seed contraction kernel: scipy ``P^T W P`` triple product (verbatim)."""
    n = g.n
    cmap, nc = _coarse_map(match)

    # coarse adjacency via sparse triple product P^T W P
    W = g.adjacency_matrix()
    P = sp.csr_matrix(
        (np.ones(n), (np.arange(n), cmap)), shape=(n, nc)
    )
    Wc = (P.T @ W @ P).tocsr()
    Wc.setdiag(0.0)
    Wc.eliminate_zeros()
    Wc.sort_indices()

    vwgt_c = weights_by_part(cmap, g.vwgt, nc)
    return PartGraph(Wc.indptr, Wc.indices, Wc.data, vwgt_c), cmap


def _contract_vector(g: PartGraph, match: np.ndarray) -> tuple[PartGraph, np.ndarray]:
    """Sort-based contraction: relabel edges, segment-sum duplicate runs.

    Each fine edge slot becomes the pair ``(cmap[src], cmap[dst])``; one
    stable argsort of the packed int64 key groups duplicates into runs,
    and a bincount over run ids sums their weights. Equality with the
    triple product holds bit-for-bit because

    * the coarse *pattern* is a set construction (which coarse pairs have
      any fine edge) — order-free;
    * coarse edge *weights* are sums of fine weights, and the caller
      (:func:`contract`) only dispatches here under
      :meth:`~repro.partitioning.partgraph.PartGraph.exactly_summable_weights`,
      which makes every such sum exact in float64 — the same number under
      any summation order, scipy's or ours;
    * dropped entries match: self-loops are excluded up front
      (``setdiag(0)``), and zero-total runs are filtered like
      ``eliminate_zeros`` (with exact sums, "total is 0.0" is the same
      predicate in both kernels);
    * sorting the packed key yields row-major, column-ascending runs —
      exactly the ``tocsr`` + ``sort_indices`` layout.

    The packed keys need ``nc * nc * nslots < 2**63`` (checked; the wider
    argsort form covers the overflow case). The coarse graph's memoized
    adjacency matrix and edge-source array are seeded from construction
    by-products, so the next coarsening level and the uncoarsening
    refinement skip their first-touch rebuilds.
    """
    cmap, nc = _coarse_map(match)

    cs = cmap[g.edge_sources()]
    cd = cmap[g.adjncy]
    keep = cs != cd  # coarse self-loops (internal edges) vanish
    # bit-packed (row, col) key: cd < nc <= 2**bits, so the packing is
    # lexicographic by (cs, cd) — the same run grouping and order as the
    # arithmetic cs*nc+cd form, recoverable with shifts instead of divmod
    bits = int(nc - 1).bit_length()
    key = cs[keep]
    key <<= bits
    key |= cd[keep]
    w = g.adjwgt[keep]

    if len(key):
        nslots = len(key)
        shift = int(nslots - 1).bit_length()
        if (int(nc) << bits) << shift < 2**63:
            # pack the slot index into the low bits: sorting the packed
            # value reproduces the stable argsort of `key` exactly (ties
            # break by ascending position) with one index-free in-place
            # np.sort — about half the cost of an argsort at this width
            packed = key << shift
            packed += np.arange(nslots, dtype=np.int64)
            packed.sort()
            order = packed & ((np.int64(1) << shift) - 1)
            ks = packed >> shift
        else:  # packed key would overflow int64: plain stable argsort
            order = np.argsort(key, kind="stable")
            ks = key[order]
        head = np.empty(len(ks), dtype=bool)
        head[0] = True
        np.not_equal(ks[1:], ks[:-1], out=head[1:])
        starts = np.flatnonzero(head)
        # run sums as differences of the inclusive prefix sum at run ends.
        # Every partial sum is an integer below 2**53 (the kernel's gate),
        # so prefix sums and their differences are exact — bit-identical
        # to summing each run directly, in any order
        csum = np.cumsum(w[order])
        ends1 = np.empty(len(starts), dtype=np.int64)
        ends1[:-1] = starts[1:] - 1
        ends1[-1] = nslots - 1
        sums = np.diff(csum[ends1], prepend=0.0)
        uk = ks[head]
        nonzero = sums != 0.0  # mirror eliminate_zeros on exact totals
        uk, sums = uk[nonzero], sums[nonzero]
        rows = uk >> bits
        cols = uk & ((np.int64(1) << bits) - 1)
    else:
        rows = cols = np.empty(0, dtype=np.int64)
        sums = np.empty(0, dtype=np.float64)

    indptr = np.zeros(nc + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=nc), out=indptr[1:])

    gc = PartGraph(indptr, cols, sums, weights_by_part(cmap, g.vwgt, nc))
    # coarse weights are sums of the fine integer weights this kernel is
    # gated on, with a no-larger absolute total — still exactly summable
    gc.seed_derived(
        adjacency=sp.csr_matrix((gc.adjwgt, gc.adjncy, gc.xadj), shape=(nc, nc)),
        edge_sources=rows,
        exactly_summable=True,
    )
    return gc, cmap


def coarsen_level(
    g: PartGraph,
    rng: np.random.Generator,
    max_vertex_weight: np.ndarray | None = None,
) -> tuple[PartGraph, np.ndarray]:
    """One coarsening level: match then contract (each a profiler phase)."""
    with perf.phase("match"):
        match = handshake_matching(g, rng, max_vertex_weight=max_vertex_weight)
    with perf.phase("contract"):
        return contract(g, match)


def coarsen_to(
    g,
    min_vertices: int,
    rng: np.random.Generator,
    max_weight_fraction: float = 0.25,
    level=coarsen_level,
) -> list[tuple]:
    """Coarsen until fewer than *min_vertices* vertices remain.

    Returns the level stack ``[(g0, None), (g1, cmap1), ...]`` where
    ``cmap_k`` maps level k-1 vertices to level k vertices. Stops early
    when a level shrinks by less than ``1 - MIN_SHRINK`` (matching has
    stalled, typical for star-like scale-free cores).

    ``max_weight_fraction`` bounds any coarse vertex to that fraction of
    total weight so bisection balance stays achievable. *level* is the
    one-level step: :func:`coarsen_level`, or ``hcoarsen_level`` for a
    :class:`~repro.partitioning.hypergraph.Hypergraph`.
    """
    levels: list[tuple] = [(g, None)]
    max_w = g.total_weight() * max_weight_fraction
    while levels[-1][0].n > min_vertices:
        cur = levels[-1][0]
        gc, cmap = level(cur, rng, max_vertex_weight=max_w)
        if gc.n >= cur.n * MIN_SHRINK:
            break
        levels.append((gc, cmap))
    return levels
