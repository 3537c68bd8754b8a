"""Fiduccia-Mattheyses boundary refinement for bisections.

Classic FM with the features the multilevel scheme needs:

* two gain heaps (one per side) with lazy invalidation;
* hill climbing — the pass keeps moving through negative-gain states and
  rolls back to the best prefix, which lets it escape local minima;
* multiconstraint balance — a move is admissible when every constraint
  stays inside its allowance, or when it strictly reduces the worst
  violation (so an unbalanced initial partition gets repaired first);
* boundary seeding — only boundary vertices enter the heaps; interior
  vertices are added lazily as their neighbours move.

The inner loop cost is proportional to the boundary size, not n, which
keeps refinement fast even on the finest level of large graphs.

The pass (:func:`_fm_pass`) picks its implementation from ``g.ncon``:

* one to three constraints — the one vectorised pass,
  :func:`_fm_pass_vec`: batched boundary seeding (one heap build per
  side), memoized graph state (adjacency matrix, edge sources, CSR list
  mirrors — :class:`~repro.partitioning.partgraph.PartGraph` is
  immutable after construction), scalar incremental balance tracking
  (two floats for one constraint, one list per side for two or three;
  no per-candidate ``sw.copy()``), and a two-tier neighbour update:
  masked fancy-indexed numpy over the CSR slice for hub moves, a
  plain-scalar loop over the memoized list mirrors below
  ``_HUB_DEGREE``;
* four or more — :func:`_fm_pass_reference`, the seed per-vertex pass,
  which is also the oracle the tests call directly.

All replay the **exact same move sequence**: every heap key, gain value
and balance decision is arithmetically identical (see the bit-identity
notes on :func:`_fm_pass`), which the identity tests and the golden
regression corpus verify bit-for-bit.
"""

from __future__ import annotations

import heapq

import numpy as np

from .partgraph import PartGraph

__all__ = ["fm_refine", "balance_allowance", "is_balanced"]

#: degree at or above which the vector pass's neighbour update switches
#: from the scalar loop to the masked fancy-indexed numpy path — both are
#: bit-identical, the threshold only trades constant factors
_HUB_DEGREE = 64

#: CSR slot count at or above which the vector pass skips the full list
#: mirrors (three O(nnz) ``tolist`` conversions) and converts each moved
#: vertex's slice on demand instead. FM touches only boundary vertices, so
#: on fine levels the mirrors convert millions of slots to move a few
#: thousand — the conversion dominated the whole refine phase. Values are
#: identical either way (``tolist`` of a slice == slice of ``tolist``), so
#: the threshold only trades constant factors.
_MIRROR_SLOTS = 200_000


def balance_allowance(g, target_fracs: tuple[float, float], ub: float) -> np.ndarray:
    """Maximum admissible side weight per (side, constraint).

    ``ub`` is the multiplicative imbalance tolerance (1.05 = 5%). The
    allowance is widened by the largest single vertex weight: a partition
    can never balance below the granularity of its heaviest vertex (on
    scale-free graphs a hub row can hold >1/p of all nonzeros — the paper's
    130x 2D-Block imbalance is exactly this effect).

    *g* may be a :class:`PartGraph` or a
    :class:`~repro.partitioning.hypergraph.Hypergraph` — both expose the
    ``total_weight`` / ``vwgt`` / ``ncon`` / ``n`` surface this needs, and
    the graph and hypergraph refiners share the one widening rule.
    """
    total = g.total_weight()  # (ncon,)
    vmax = g.vwgt.max(axis=0) if g.n else np.zeros(g.ncon)
    out = np.empty((2, g.ncon))
    for side, frac in enumerate(target_fracs):
        out[side] = np.maximum(ub * frac * total, frac * total + vmax)
    return out


def is_balanced(side_weights: np.ndarray, allow: np.ndarray) -> bool:
    """True when every (side, constraint) weight is within its allowance."""
    return bool((side_weights <= allow + 1e-9).all())


def _violation(side_weights: np.ndarray, allow: np.ndarray) -> float:
    """Total overweight across sides/constraints (0 when balanced)."""
    return float(np.maximum(side_weights - allow, 0.0).sum())


def fm_refine(
    g: PartGraph,
    part: np.ndarray,
    target_fracs: tuple[float, float] = (0.5, 0.5),
    ub: float = 1.05,
    passes: int = 3,
    hill_limit: int = 64,
) -> np.ndarray:
    """Refine a bisection without mutating the input (returns a copy).

    Runs up to *passes* FM passes; stops early when a pass improves
    neither the cut nor the balance violation.
    """
    part = np.asarray(part, dtype=np.int64).copy()
    if g.n <= 1:
        return part
    allow = balance_allowance(g, target_fracs, ub)
    carry: dict = {}
    for _ in range(passes):
        if not _fm_pass(g, part, allow, hill_limit, carry):
            break
    return part


def _gains_and_boundary(g: PartGraph, part: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised gain (= external - internal weight) and boundary mask.

    Uses the graph's memoized adjacency matrix and weighted degrees.
    """
    W = g.adjacency_matrix()
    to1 = W @ (part == 1).astype(np.float64)
    degw = g.weighted_degrees()
    ed = np.where(part == 0, to1, degw - to1)
    gain = 2.0 * ed - degw
    return gain, ed > 0.0


def _seed_heaps(gain: np.ndarray, boundary: np.ndarray, part: np.ndarray):
    """Batched boundary seeding: the heaps the per-vertex push loop built.

    Entry *i* of the boundary got counter ``i`` from the reference's push
    loop; splitting by side preserves those counters (``flatnonzero`` of
    the side mask *is* the counter sequence), and ``heapify`` produces a
    heap with the same *contents* — pop order from a binary heap depends
    only on its contents (each pop returns the minimum tuple), never on
    the internal layout, so the replayed pop sequence is identical.
    Returns ``(heaps, boundary_ids, counter)``.
    """
    bnd = np.flatnonzero(boundary)
    negg = -gain[bnd]
    sides = part[bnd]
    heaps: list[list] = []
    for s in (0, 1):
        m = sides == s
        h = list(zip(negg[m].tolist(), np.flatnonzero(m).tolist(), bnd[m].tolist()))
        heapq.heapify(h)
        heaps.append(h)
    return heaps, bnd, len(bnd)


def _fm_pass(
    g: PartGraph,
    part: np.ndarray,
    allow: np.ndarray,
    hill_limit: int,
    carry: dict | None = None,
) -> bool:
    """Vectorised FM pass — replays the reference move sequence exactly.

    Runs :func:`_fm_pass_vec` for one to three constraints and — above
    three, where the scalar balance mirrors would no longer match numpy's
    reduction order — the reference kernel. *carry* is an opaque dict
    :func:`fm_refine` threads through consecutive passes so per-pass
    O(n) state (the partition list mirror, the tracked edge cut) survives
    pass boundaries; pass ``None`` (the default) for a standalone pass.

    Bit-identity notes (each is load-bearing for golden stability):

    * heap pops depend only on the heap *contents* — tuples are totally
      ordered and each pop returns the minimum — so batched seeding via
      ``heapify`` pops in exactly the order the per-vertex ``heappush``
      loop did, as long as counters are assigned in the same order;
    * the balance state is mirrored in plain Python floats — two for one
      constraint, one list per side for two or three. Every scalar op
      (subtract, add, compare) is the same IEEE double op numpy applied
      elementwise, and numpy's small-array reductions (< 8 elements,
      which covers ``2 * ncon`` for every supported constraint set)
      accumulate sequentially from 0.0 in C order — both mirrors
      replicate that order term by term (``0.0 + d`` is exactly ``d``,
      so the two-float sum needs no leading zero);
    * the reference's stable sort of the two candidates on
      ``(not admissible, -gain)`` is one tuple comparison: the side-0
      candidate wins ties;
    * neighbour gain updates apply the same IEEE double ops in both
      tiers: the hub tier's ``gain + (-2.0) * w`` is bit-equal to the
      scalar tier's (and the reference's) ``gain - 2.0 * w`` because IEEE
      negation is exact;
    * gains of locked vertices are dead state — the pop path checks
      ``locked`` before ever reading a gain, and the wake path skips
      locked neighbours — so the vector pass updates them
      unconditionally (one branch less per touch) without affecting any
      decision the reference makes;
    * the reference's ``in_heap`` flag never returns to False except at
      the moment a vertex is locked, so ``locked or in_heap`` ("seen") is
      monotone — the wake test collapses to one byte read. ``locked``
      is still tracked separately for the pop path;
    * the edge cut the reference recomputes at the start of each pass is
      carried over from the previous pass's tracked value when
      :meth:`~repro.partitioning.partgraph.PartGraph.exactly_summable_weights`
      holds: cut and gain values are then exact integers in float64, so
      the tracked cut and a fresh recomputation are the same number.

    Stale-entry semantics (shared with the reference kernel): a popped
    entry whose recorded gain no longer matches is **reinserted with the
    current value of the push counter, without incrementing it** —
    several reinserted entries may therefore share a counter, and the
    heap tuple falls through to the vertex id. Tie-break order stays
    deterministic because ``(-gain, counter, v)`` is still a total order:
    equal-gain, equal-counter entries pop in ascending vertex id, and the
    reinserting side's counter snapshot is itself a deterministic
    function of the move history.
    """
    if g.ncon > 3:
        return _fm_pass_reference(g, part, allow, hill_limit)
    return _fm_pass_vec(g, part, allow, hill_limit, {} if carry is None else carry)


def _balance_rows(allow: np.ndarray, vcols: list[list[float]]):
    """Scalar balance helpers for two or three constraints.

    Returns ``(viol_of, load_of, admits)`` over ``[side0, side1]`` pairs
    of per-constraint weight lists: the total overweight, the worst
    weight-to-allowance ratio, and whether moving vertex *v* off side *s*
    keeps every constraint within its allowance or strictly reduces the
    violation *viol*. Sums run side-major, constraint-minor from 0.0 —
    the reference's numpy order (see :func:`_fm_pass`).
    """
    allow_l = allow.tolist()
    allow_eps = (allow + 1e-9).tolist()
    crange = range(allow.shape[1])

    def viol_of(rows) -> float:
        t = 0.0
        for row, arow in zip(rows, allow_l):
            for c in crange:
                d = row[c] - arow[c]
                if d > 0.0:
                    t += d
        return t

    def load_of(rows) -> float:
        m = -np.inf
        for row, arow in zip(rows, allow_l):
            for c in crange:
                r = row[c] / arow[c]
                if r > m:
                    m = r
        return m

    def admits(sw, s: int, v: int, viol: float) -> bool:
        rows = [None, None]
        rows[s] = [sw[s][c] - vcols[c][v] for c in crange]
        rows[1 - s] = [sw[1 - s][c] + vcols[c][v] for c in crange]
        for row, lim in zip(rows, allow_eps):
            for c in crange:
                if row[c] > lim[c]:
                    return viol_of(rows) < viol - 1e-12
        return True

    return viol_of, load_of, admits


def _fm_pass_vec(
    g: PartGraph,
    part: np.ndarray,
    allow: np.ndarray,
    hill_limit: int,
    carry: dict,
) -> bool:
    """Vector pass for one to three constraints; see :func:`_fm_pass`.

    All per-vertex state lives in list/bytearray mirrors — Python scalar
    reads and writes in the hot loop are several times cheaper than numpy
    0-d indexing — and the two pop loops are inlined. Only the balance
    state depends on ``g.ncon``: one constraint (the corpus-dominant
    case) collapses it to two floats updated inline, so its moves make
    no Python function call; two or three hold one list per side, read
    through :func:`_balance_rows`. The two forms branch at the four
    places the state is read or written: the start state, the
    admissibility test, the move update and the prefix key.
    """
    gain, boundary = _gains_and_boundary(g, part)
    adjncy, adjwgt = g.adjncy, g.adjwgt
    big = len(adjncy) >= _MIRROR_SLOTS
    if big:
        xadj_l = g.xadj  # scalar int64 reads; slices convert per move
        adjncy_l = adjwgt_l = None
    else:
        xadj_l, adjncy_l, adjwgt_l = g.adjacency_lists()

    gain_l = gain.tolist()
    part_l = carry.get("part_l")
    if part_l is None:
        part_l = part.tolist()
        carry["part_l"] = part_l
    locked_b = bytearray(g.n)
    seen_b = bytearray(g.n)  # locked-or-in-heap; monotone (see _fm_pass)
    seen_np = np.frombuffer(seen_b, dtype=np.uint8)

    heaps, bnd, counter = _seed_heaps(gain, boundary, part)
    h0, h1 = heaps
    seen_np[bnd] = 1

    heappush = heapq.heappush
    heappop = heapq.heappop

    cut0 = carry.get("cut")
    if cut0 is None or not g.exactly_summable_weights():
        cut0 = g.edgecut(part)
    cur_cut = cut0

    # scalar mirrors of the reference's (2, ncon) balance state
    one = g.ncon == 1
    if one:
        vw = g.vwgt_lists()[0]
        sw0, sw1 = g.part_weights(part, 2)[:, 0].tolist()
        a0, a1 = allow[:, 0].tolist()
        a0e = a0 + 1e-9
        a1e = a1 + 1e-9
        d0 = sw0 - a0
        d1 = sw1 - a1
        viol_cur = (d0 if d0 > 0.0 else 0.0) + (d1 if d1 > 0.0 else 0.0)
        r0 = sw0 / a0
        r1 = sw1 / a1
        load = r0 if r1 <= r0 else r1
    else:
        vcols = g.vwgt_lists()
        crange = range(g.ncon)
        sw = g.part_weights(part, 2).tolist()
        viol_of, load_of, admits = _balance_rows(allow, vcols)
        viol_cur = viol_of(sw)
        load = load_of(sw)
    # prefer balanced states, then lower cut, then tighter balance — the
    # last term stops FM from parking exactly at the allowance edge when an
    # equally cheap, better-balanced prefix exists
    best_key = (viol_cur > 1e-9, cut0, load)
    moves: list[int] = []
    moves_append = moves.append
    best_prefix = 0
    since_best = 0

    while since_best < hill_limit:
        # pop the freshest max-gain vertex of each side (stale entries are
        # reinserted with the current counter, not incremented)
        v0 = -1
        h = h0
        while h:
            negg, _, u = heappop(h)
            if locked_b[u] or part_l[u] != 0:
                continue
            if -negg != gain_l[u]:  # stale entry; reinsert with current gain
                heappush(h, (-gain_l[u], counter, u))
                continue
            v0 = u
            break
        v1 = -1
        h = h1
        while h:
            negg, _, u = heappop(h)
            if locked_b[u] or part_l[u] != 1:
                continue
            if -negg != gain_l[u]:  # stale entry; reinsert with current gain
                heappush(h, (-gain_l[u], counter, u))
                continue
            v1 = u
            break
        if v0 < 0 and v1 < 0:
            break
        # a move v: s -> 1-s is admissible if it keeps (or repairs) balance
        if v0 >= 0:
            if one:
                w = vw[v0]
                n0 = sw0 - w
                n1 = sw1 + w
                adm0 = n0 <= a0e and n1 <= a1e
                if not adm0:
                    e0 = n0 - a0
                    e1 = n1 - a1
                    nv = (e0 if e0 > 0.0 else 0.0) + (e1 if e1 > 0.0 else 0.0)
                    adm0 = nv < viol_cur - 1e-12
            else:
                adm0 = admits(sw, 0, v0, viol_cur)
            g0 = gain_l[v0]
        if v1 >= 0:
            if one:
                w = vw[v1]
                n0 = sw0 + w
                n1 = sw1 - w
                adm1 = n0 <= a0e and n1 <= a1e
                if not adm1:
                    e0 = n0 - a0
                    e1 = n1 - a1
                    nv = (e0 if e0 > 0.0 else 0.0) + (e1 if e1 > 0.0 else 0.0)
                    adm1 = nv < viol_cur - 1e-12
            else:
                adm1 = admits(sw, 1, v1, viol_cur)
            g1 = gain_l[v1]
        # replay the reference's stable sort on (not admissible, -gain):
        # the side-0 candidate wins ties; the loser is reinserted with the
        # current counter (not incremented)
        if v0 < 0:
            admissible, gv, s, v = adm1, g1, 1, v1
        elif v1 < 0:
            admissible, gv, s, v = adm0, g0, 0, v0
        elif (not adm0, -g0) <= (not adm1, -g1):
            admissible, gv, s, v = adm0, g0, 0, v0
            heappush(h1, (-g1, counter, v1))
        else:
            admissible, gv, s, v = adm1, g1, 1, v1
            heappush(h0, (-g0, counter, v0))
        if not admissible:
            # no move can keep or repair balance; stop the pass
            break

        # apply the move
        t = 1 - s
        part[v] = t
        part_l[v] = t
        locked_b[v] = 1
        if one:
            w = vw[v]
            if s == 0:
                sw0 -= w
                sw1 += w
            else:
                sw1 -= w
                sw0 += w
        else:
            row_s, row_t = sw[s], sw[t]
            for c in crange:
                row_s[c] -= vcols[c][v]
                row_t[c] += vcols[c][v]
        cur_cut -= gv
        moves_append(v)

        # update neighbour gains: edge (u,v) flips internal<->external.
        # Hub moves (hundreds to thousands of neighbours — the scale-free
        # case the paper's 2D layouts exist for) compute all deltas with
        # one masked fancy-indexed numpy expression over the CSR slice;
        # low-degree moves loop over the memoized list mirrors, which
        # beats numpy's per-call overhead on ~10-element slices.
        lo = xadj_l[v]
        hi = xadj_l[v + 1]
        if hi - lo >= _HUB_DEGREE:
            nbrs = adjncy[lo:hi]
            delta = np.where(part[nbrs] == s, 2.0, -2.0) * adjwgt[lo:hi]
            for u, d_u in zip(nbrs.tolist(), delta.tolist()):
                ng = gain_l[u] + d_u
                gain_l[u] = ng
                if not seen_b[u]:
                    heappush(h0 if part_l[u] == 0 else h1, (-ng, counter, u))
                    counter += 1
                    seen_b[u] = 1
        else:
            if big:
                nbr_l = adjncy[lo:hi].tolist()
                wuv_l = adjwgt[lo:hi].tolist()
            else:
                nbr_l = adjncy_l[lo:hi]
                wuv_l = adjwgt_l[lo:hi]
            for u, w_uv in zip(nbr_l, wuv_l):
                if part_l[u] == s:  # was internal for u, now external
                    ng = gain_l[u] + 2.0 * w_uv
                else:  # was external, now internal
                    ng = gain_l[u] - 2.0 * w_uv
                gain_l[u] = ng
                if not seen_b[u]:
                    heappush(h0 if part_l[u] == 0 else h1, (-ng, counter, u))
                    counter += 1
                    seen_b[u] = 1

        if one:
            d0 = sw0 - a0
            d1 = sw1 - a1
            viol_cur = (d0 if d0 > 0.0 else 0.0) + (d1 if d1 > 0.0 else 0.0)
            r0 = sw0 / a0
            r1 = sw1 / a1
            load = r0 if r1 <= r0 else r1
        else:
            viol_cur = viol_of(sw)
            load = load_of(sw)
        key = (viol_cur > 1e-9, cur_cut, load)
        if key < best_key:
            best_key = key
            best_prefix = len(moves)
            since_best = 0
        else:
            since_best += 1

    # roll back moves after the best prefix (maintaining the carried
    # mirror), and carry the best-prefix cut into the next pass
    for v in moves[best_prefix:]:
        t = 1 - part_l[v]
        part[v] = t
        part_l[v] = t
    carry["cut"] = best_key[1]
    return best_prefix > 0


def _fm_pass_reference(
    g: PartGraph,
    part: np.ndarray,
    allow: np.ndarray,
    hill_limit: int,
) -> bool:
    """Reference FM pass: the seed kernel, per-neighbour Python loops.

    The pass for four or more constraints, and the bit-identity oracle
    for the vectorised passes (``tests/test_coarsen.py`` checks agreement
    on corpus matrices). Stale-entry reinserts reuse the *current* counter
    without incrementing it — see :func:`_fm_pass` for why tie-break
    order is still deterministic.
    """
    gain, boundary = _gains_and_boundary(g, part)
    sw = np.zeros((2, g.ncon))
    np.add.at(sw, part, g.vwgt)

    heaps: list[list] = [[], []]  # one heap per *source* side
    in_heap = np.zeros(g.n, dtype=bool)
    counter = 0

    def push(v: int) -> None:
        nonlocal counter
        heapq.heappush(heaps[part[v]], (-gain[v], counter, v))
        counter += 1
        in_heap[v] = True

    for v in np.flatnonzero(boundary):
        push(int(v))

    locked = np.zeros(g.n, dtype=bool)
    cut0 = g.edgecut(part)
    cur_cut = cut0
    viol0 = _violation(sw, allow)
    # prefer balanced states, then lower cut, then tighter balance — the
    # last term stops FM from parking exactly at the allowance edge when an
    # equally cheap, better-balanced prefix exists
    best_key = (viol0 > 1e-9, cut0, float((sw / allow).max()))
    moves: list[int] = []
    best_prefix = 0
    since_best = 0

    def pop_valid(side: int):
        """Pop the freshest max-gain vertex from *side*'s heap."""
        h = heaps[side]
        while h:
            negg, _, v = heapq.heappop(h)
            if locked[v] or part[v] != side:
                continue
            if -negg != gain[v]:  # stale entry; reinsert with current gain
                heapq.heappush(h, (-gain[v], counter, v))
                continue
            return v
        return None

    while since_best < hill_limit:
        # choose source side: a move v: s -> 1-s is admissible if it keeps
        # (or repairs) balance on every constraint
        cand = []
        for s in (0, 1):
            v = pop_valid(s)
            if v is None:
                continue
            w = g.vwgt[v]
            new_sw = sw.copy()
            new_sw[s] -= w
            new_sw[1 - s] += w
            admissible = is_balanced(new_sw, allow) or (
                _violation(new_sw, allow) < _violation(sw, allow) - 1e-12
            )
            cand.append((admissible, gain[v], s, v))
        if not cand:
            break
        # prefer admissible moves, then higher gain
        cand.sort(key=lambda t: (not t[0], -t[1]))
        admissible, gv, s, v = cand[0]
        # reinsert the unused candidate
        for _, _, s2, v2 in cand[1:]:
            heapq.heappush(heaps[s2], (-gain[v2], counter, v2))
        if not admissible:
            # no move can keep or repair balance; stop the pass
            break

        # apply the move
        part[v] = 1 - s
        locked[v] = True
        in_heap[v] = False
        sw[s] -= g.vwgt[v]
        sw[1 - s] += g.vwgt[v]
        cur_cut -= gv
        moves.append(v)

        # update neighbour gains: edge (u,v) flips internal<->external
        nbrs = g.neighbors(v)
        wgts = g.edge_weights(v)
        for u, w_uv in zip(nbrs.tolist(), wgts.tolist()):
            if locked[u]:
                continue
            if part[u] == s:  # was internal for u, now external
                gain[u] += 2.0 * w_uv
            else:  # was external, now internal
                gain[u] -= 2.0 * w_uv
            if not in_heap[u]:
                push(u)

        key = (_violation(sw, allow) > 1e-9, cur_cut, float((sw / allow).max()))
        if key < best_key:
            best_key = key
            best_prefix = len(moves)
            since_best = 0
        else:
            since_best += 1

    # roll back moves after the best prefix
    for v in moves[best_prefix:]:
        part[v] = 1 - part[v]
    return best_prefix > 0
