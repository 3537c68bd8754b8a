"""FM refinement for hypergraph bisections on the connectivity-1 metric.

For a bisection the connectivity-1 cut reduces to the weighted number of
nets with pins on both sides. The gain of moving vertex v from side s to
side t is::

    gain(v) = sum_{e in nets(v), pins_s(e) == 1} w_e     (net becomes uncut)
            - sum_{e in nets(v), pins_t(e) == 0} w_e     (net becomes cut)

The pass (:func:`_pass`) picks its implementation from what it can observe
in the hypergraph:

* one balance constraint and exactly summable net weights (integer-valued,
  total below 2**53 — every hypergraph this package builds: column-net
  weights are 1.0 and contraction only restricts them) —
  :func:`_pass_incremental`, which keeps ``counts[side, net]`` and one
  ``gain[n]`` array resident and updates both per move;
* anything else — :func:`_pass_reference`, the seed recompute-on-pop pass,
  which is also the oracle the tests and ``tests/oracles.py`` call.

Both replay the **exact same move sequence**. Why no decision can change:

* *Exact deltas.* A move s -> t of v changes the gain of another pin u of
  net e only when e sits at a threshold. With F/T the from/to-side pin
  counts of e **before** the move: ``T == 0`` adds ``w_e`` to every other
  pin (all on s: leaving no longer cuts e), ``F == 2`` adds ``w_e`` to the
  one pin left on s (it can now uncut e), ``T == 1`` takes ``w_e`` from
  the one pin on t (it no longer uncuts e), ``F == 1`` takes ``w_e`` from
  every other pin (all on t: leaving now cuts e). With exactly summable
  weights every gain, every delta and every partial sum of them is an
  integer of magnitude at most the total net weight, below 2**53, so
  float64 addition is exact in any order: ``gain[u]`` **is** the number a
  fresh :func:`_compute_gain` returns, the stale test fires on the same
  pops, pushed keys are the same floats, and the tracked cut is the same
  number. Seeding all n gains with one pin-wise ``bincount`` is exact for
  the same reason.
* *Batch wake equals sequential wake.* The reference scans the moved
  vertex's nets in net order and, per net that crossed ``T == 0`` or
  ``F <= 2``, pushes the pins that are neither locked nor in the heap, in
  pin order, marking them as it goes. Counts and gains are final before
  the first push (the reference updates all of v's nets first, and its
  woken gains are recomputed from those counts), and the marks change only
  through the pushes themselves — so the pushed sequence is the
  concatenated pins of the waking nets, filtered by the marks at move
  start, deduplicated by first occurrence. That is what the pass builds:
  one gather of the threshold nets' pins, one vector filter, and a scalar
  first-occurrence dedupe that also hands out the counters.
* *Balance.* With one constraint the (2, 1) side-weight array collapses to
  two floats carried through the same IEEE operations in the same order
  (the argument :func:`repro.partitioning.refine._fm_pass_vec` makes for
  its one-constraint balance state).
* *One mark.* A vertex is pushed when seeded, when its only entry was
  just popped stale, or when woken while neither locked nor in the heap,
  so it has at most one heap entry and a locked vertex has none: the
  reference's ``locked`` test on pop never fires, "locked or in the heap"
  is one byte per vertex, and a moved vertex's gain is dead state that
  the update leaves unmaintained (the next pass seeds afresh).

The reference's batch paths — heap seeding and waking the pins of a
threshold-crossing net — compute gains through :func:`_compute_gain_many`,
which gathers every vertex's net slice into one concatenated fancy-indexed
pass and then sums each vertex's contiguous slice with ``np.sum``. The
slices have the same lengths and contents as the per-vertex arrays, so
numpy applies the same pairwise-summation tree and the batched gains are
bit-identical to the scalar ones (``np.add.reduceat`` would not be: it
accumulates strictly left to right).
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

import numpy as np

from ._util import exactly_summable, gather_csr_slots, gather_slices
from .hypergraph import Hypergraph
from .refine import _violation, balance_allowance, is_balanced

__all__ = ["fm_refine_hypergraph"]


def fm_refine_hypergraph(
    hg: Hypergraph,
    part: np.ndarray,
    target_fracs: tuple[float, float] = (0.5, 0.5),
    ub: float = 1.05,
    passes: int = 3,
    hill_limit: int = 64,
) -> np.ndarray:
    """Refine a hypergraph bisection; returns an improved copy."""
    part = np.asarray(part, dtype=np.int64).copy()
    if hg.n <= 1 or hg.nnets == 0:
        return part
    allow = balance_allowance(hg, target_fracs, ub)
    for _ in range(passes):
        if not _pass(hg, part, allow, hill_limit):
            break
    return part


def _pass(hg: Hypergraph, part: np.ndarray, allow: np.ndarray, hill_limit: int) -> bool:
    """One FM pass over the hypergraph bisection; returns True if it moved.

    Stale-entry counter semantics (both implementations): a popped entry
    whose recorded gain no longer matches the current one is reinserted at
    the true gain with a **fresh** counter value (the counter increments
    on every push, reinserts included) — unlike the graph-FM kernels in
    :mod:`~repro.partitioning.refine`, which reuse the current counter.
    Either convention is deterministic: the counter sequence is a pure
    function of the move history, so ``(-gain, counter, v)`` tuples give
    the same total order on every run with the same inputs. What matters
    for golden stability is only that each kernel keeps its own
    convention fixed.
    """
    if hg.ncon == 1 and exactly_summable(hg.netwgt):
        return _pass_incremental(hg, part, allow, hill_limit)
    return _pass_reference(hg, part, allow, hill_limit)


class _Pins(NamedTuple):
    """Int64 views of a hypergraph's incidence, both directions.

    scipy keeps CSR index arrays in int32; every fancy index through them
    would convert to intp again, once per move.
    """

    indptr: np.ndarray  # pin slots of net e are indptr[e]:indptr[e + 1]
    size: np.ndarray  # pin count of each net
    pin: np.ndarray  # vertex of each pin slot
    net_of_pin: np.ndarray  # net of each pin slot
    vstart: list[int]  # net slots of vertex v are vstart[v]:vstart[v + 1]
    vnet: np.ndarray  # net of each of those slots


def _pins(hg: Hypergraph) -> _Pins:
    H, HT = hg.H, hg.transpose_incidence()
    indptr = H.indptr.astype(np.int64)
    size = np.diff(indptr)
    return _Pins(
        indptr=indptr,
        size=size,
        pin=H.indices.astype(np.int64),
        net_of_pin=np.repeat(np.arange(hg.nnets, dtype=np.int64), size),
        vstart=HT.indptr.tolist(),
        vnet=HT.indices.astype(np.int64),
    )


def _seed(
    P: _Pins, netwgt: np.ndarray, part: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """``counts[side, net]`` and ``gain[v]`` of *part*, one pin-wise pass each."""
    nnets = len(netwgt)
    side = part[P.pin]
    own = side * nnets + P.net_of_pin  # flat (side, net) slot of each pin
    flat = np.bincount(own, minlength=2 * nnets)
    other = own + (1 - 2 * side) * nnets
    contrib = netwgt[P.net_of_pin] * ((flat[own] == 1) - 1.0 * (flat[other] == 0))
    return flat.reshape(2, nnets), np.bincount(P.pin, weights=contrib, minlength=n)


def _apply_move(
    P: _Pins,
    netwgt: np.ndarray,
    part: np.ndarray,
    counts: np.ndarray,
    gain: np.ndarray,
    v: int,
) -> np.ndarray:
    """Move *v* to the other side, updating *part*, *counts* and *gain*.

    Returns the pins of the nets the move wakes (``T == 0`` or ``F <= 2``
    before it), in net order then pin order, duplicates kept. ``gain[v]``
    itself is left meaningless: v is locked for the rest of the pass.
    """
    s = part.item(v)
    nets = P.vnet[P.vstart[v] : P.vstart[v + 1]]
    cf, ct = counts[s], counts[1 - s]
    F1 = cf[nets] - 1  # from-side pins left after the move
    T = ct[nets]  # to-side pins before it
    cf[nets] = F1
    ct[nets] = T + 1
    part[v] = 1 - s
    thr = np.minimum(T, F1) <= 1  # T in {0, 1} or F in {1, 2}
    nets = nets[thr]
    if len(nets) == 0:
        return nets
    T = T[thr]
    F1 = F1[thr]
    size = P.size[nets]
    pins = P.pin[gather_csr_slots(P.indptr, nets)[0]]
    w = netwgt[nets]
    up = w * ((T == 0) + 1.0 * (F1 == 1))  # to pins on s: T == 0, F == 2
    down = w * ((T == 1) + 1.0 * (F1 == 0))  # from pins on t: T == 1, F == 1
    np.add.at(gain, pins, np.where(part[pins] == s, up.repeat(size), -down.repeat(size)))
    return pins[((T == 0) | (F1 <= 1)).repeat(size)]


def _pass_incremental(
    hg: Hypergraph, part: np.ndarray, allow: np.ndarray, hill_limit: int
) -> bool:
    """Array-resident pass: O(1) gain reads, batched per-move updates.

    See the module notes for why it replays :func:`_pass_reference`.
    """
    n = hg.n
    P = _pins(hg)
    netwgt = hg.netwgt
    counts, gain = _seed(P, netwgt, part, n)
    vw = hg.vwgt[:, 0].tolist()
    sw0, sw1 = hg.part_weights(part, 2)[:, 0].tolist()
    a0, a1 = allow[:, 0].tolist()
    a0e = a0 + 1e-9
    a1e = a1 + 1e-9

    # boundary vertices: pins of cut nets
    cut = (counts[0] > 0) & (counts[1] > 0)
    seen = bytearray(n)  # locked or in the heap
    seen_np = np.frombuffer(seen, dtype=np.uint8)
    if cut.any():
        seen_np[P.pin[cut[P.net_of_pin]]] = 1
        boundary = np.flatnonzero(seen_np)
    elif sw0 <= a0e and sw1 <= a1e:
        return False
    else:
        boundary = np.arange(n)
        seen_np[:] = 1

    heap = [
        (-g, i, v)
        for i, (g, v) in enumerate(zip(gain[boundary].tolist(), boundary.tolist()))
    ]
    heapq.heapify(heap)
    ctr = len(heap)
    heappush, heappop = heapq.heappush, heapq.heappop
    gain_of = gain.item
    side_of = part.item

    cur_cut = float(netwgt[cut].sum())
    d0 = sw0 - a0
    d1 = sw1 - a1
    viol = (d0 if d0 > 0.0 else 0.0) + (d1 if d1 > 0.0 else 0.0)
    best_key = (viol > 1e-9, cur_cut)
    moves: list[int] = []
    best_prefix = 0
    since_best = 0
    max_pops = 30 * n + 1000

    pops = 0
    while since_best < hill_limit and pops < max_pops:
        pops += 1
        if not heap:
            break
        negg, _, v = heappop(heap)
        g = gain_of(v)
        if g != -negg:
            heappush(heap, (-g, ctr, v))  # stale: reinsert at the true gain
            ctr += 1
            continue
        seen[v] = 0
        w = vw[v]
        if side_of(v) == 0:
            n0 = sw0 - w
            n1 = sw1 + w
        else:
            n1 = sw1 - w
            n0 = sw0 + w
        d0 = n0 - a0
        d1 = n1 - a1
        new_viol = (d0 if d0 > 0.0 else 0.0) + (d1 if d1 > 0.0 else 0.0)
        if not ((n0 <= a0e and n1 <= a1e) or new_viol < viol - 1e-12):
            continue  # this vertex can't move now; it stays out of the heap

        seen[v] = 1  # locked
        sw0, sw1, viol = n0, n1, new_viol
        cur_cut -= g
        moves.append(v)
        woken = _apply_move(P, netwgt, part, counts, gain, v)
        woken = woken[seen_np[woken] == 0]
        for u, gu in zip(woken.tolist(), gain[woken].tolist()):
            if not seen[u]:  # first occurrence only: a pin shared by two nets
                seen[u] = 1
                heappush(heap, (-gu, ctr, u))
                ctr += 1

        key = (viol > 1e-9, cur_cut)
        if key < best_key:
            best_key = key
            best_prefix = len(moves)
            since_best = 0
        else:
            since_best += 1

    undo = np.asarray(moves[best_prefix:], dtype=np.int64)
    part[undo] = 1 - part[undo]
    return best_prefix > 0


def _gain_from_nets(
    netwgt: np.ndarray, counts: np.ndarray, nets: np.ndarray, s: int
) -> float:
    """Gain of moving a side-*s* vertex whose incident nets are *nets*."""
    w = netwgt[nets]
    uncut = counts[nets, s] == 1  # v is the last pin on its side
    cut_new = counts[nets, 1 - s] == 0  # net currently entirely on v's side
    return float((w * uncut).sum() - (w * cut_new).sum())


def _compute_gain(hg: Hypergraph, part: np.ndarray, counts: np.ndarray, v: int) -> float:
    return _gain_from_nets(hg.netwgt, counts, hg.nets_of(v), int(part[v]))


def _compute_gain_many(
    hg: Hypergraph, part: np.ndarray, counts: np.ndarray, vs: np.ndarray
) -> list[float]:
    """Gains of every vertex in *vs*, bit-identical to :func:`_compute_gain`.

    One concatenated gather replaces ``len(vs)`` per-vertex ``nets_of`` /
    ``netwgt`` / ``counts`` fancy-indexing rounds; only the final per-vertex
    reduction stays a loop, over contiguous slices (see the module notes on
    why that reduction must be ``np.sum`` per slice).
    """
    vs = np.asarray(vs, dtype=np.int64)
    if len(vs) == 0:
        return []
    HT = hg.transpose_incidence()
    lengths = (HT.indptr[vs + 1] - HT.indptr[vs]).astype(np.int64)
    nets = gather_slices(HT.indptr, HT.indices, vs)
    w = hg.netwgt[nets]
    s_rep = np.repeat(part[vs], lengths)
    wu = w * (counts[nets, s_rep] == 1)
    wc = w * (counts[nets, 1 - s_rep] == 0)
    out: list[float] = []
    lo = 0
    for length in lengths.tolist():
        hi = lo + length
        out.append(float(wu[lo:hi].sum()) - float(wc[lo:hi].sum()))
        lo = hi
    return out


def _pass_reference(
    hg: Hypergraph, part: np.ndarray, allow: np.ndarray, hill_limit: int
) -> bool:
    """The seed pass (oracle): lazy heap, gains recomputed on every pop.

    Recomputing a popped vertex's gain from the current per-net pin counts
    costs O(net-degree) per pop but needs no update rules and no
    assumption on the weights; stale entries are reinserted with their
    fresh gain (counter convention: see :func:`_pass`).
    """
    nparts = 2
    counts = np.zeros((hg.nnets, nparts), dtype=np.int64)
    M = hg.net_part_counts(part, nparts).toarray().astype(np.int64)
    counts[:, : M.shape[1]] = M

    sw = hg.part_weights(part, 2)

    # cached net/pin slice bounds: the hot loop indexes the incidence CSR
    # arrays directly instead of going through nets_of()/pins() accessors
    HT = hg.transpose_incidence()
    htp, hti = HT.indptr, HT.indices
    hp, hi_ = hg.H.indptr, hg.H.indices
    netwgt = hg.netwgt

    # boundary vertices: pins of cut nets
    cut_net_ids = np.flatnonzero((counts > 0).sum(axis=1) > 1)
    if len(cut_net_ids) == 0 and is_balanced(sw, allow):
        return False
    boundary = np.unique(hg.H[cut_net_ids].indices) if len(cut_net_ids) else np.arange(hg.n)

    in_heap = np.zeros(hg.n, dtype=bool)

    # batched seeding: entry i of the boundary gets counter i, exactly the
    # sequence the former per-vertex push loop produced, and a heapified
    # list pops identically to a push-built heap (pop order is a function
    # of heap *contents* only)
    seed_gains = _compute_gain_many(hg, part, counts, boundary)
    heap: list[tuple[float, int, int]] = [
        (-g, i, v) for i, (g, v) in enumerate(zip(seed_gains, boundary.tolist()))
    ]
    heapq.heapify(heap)
    ctr = len(heap)
    in_heap[boundary] = True

    locked = np.zeros(hg.n, dtype=bool)
    cur_cut = float((netwgt * ((counts > 0).sum(axis=1) > 1)).sum())
    best_key = (_violation(sw, allow) > 1e-9, cur_cut)
    moves: list[int] = []
    best_prefix = 0
    since_best = 0
    max_pops = 30 * hg.n + 1000

    pops = 0
    while since_best < hill_limit and pops < max_pops:
        pops += 1
        if not heap:
            break
        negg, _, v = heapq.heappop(heap)
        if locked[v]:
            continue
        g = _gain_from_nets(netwgt, counts, hti[htp[v] : htp[v + 1]], int(part[v]))
        if g != -negg:
            heapq.heappush(heap, (-g, ctr, v))  # stale: reinsert at the true gain
            ctr += 1
            continue
        in_heap[v] = False
        s = int(part[v])
        w = hg.vwgt[v]
        new_sw = sw.copy()
        new_sw[s] -= w
        new_sw[1 - s] += w
        admissible = is_balanced(new_sw, allow) or (
            _violation(new_sw, allow) < _violation(sw, allow) - 1e-12
        )
        if not admissible:
            continue  # this vertex can't move now; it stays out of the heap

        part[v] = 1 - s
        locked[v] = True
        sw = new_sw
        cur_cut -= g
        nets = hti[htp[v] : htp[v + 1]]
        counts[nets, s] -= 1
        counts[nets, 1 - s] += 1
        moves.append(v)

        # wake pins whose gain could have changed materially. Scanning every
        # pin of every touched net would cost O(moves x max-net-size) — fatal
        # with hub nets — so we only scan a net when it crossed a gain
        # threshold: it just became cut (its pins just became boundary), or
        # one side is down to its last pin (that pin can now uncut the net).
        # Each crossing net wakes its eligible pins as one batch, in pin
        # order — the same vertices, gains and counter values the former
        # per-pin loop produced (in_heap only changes through the pushes
        # themselves, so the sequential filter equals the batch filter).
        for e in nets.tolist():
            ct, cs = counts[e, 1 - s], counts[e, s]
            if ct == 1 or cs <= 1:
                pins_e = hi_[hp[e] : hp[e + 1]]
                wake = pins_e[~(locked[pins_e] | in_heap[pins_e])]
                if len(wake) == 0:
                    continue
                for u, gu in zip(wake.tolist(), _compute_gain_many(hg, part, counts, wake)):
                    heapq.heappush(heap, (-gu, ctr, u))
                    ctr += 1
                in_heap[wake] = True

        key = (_violation(sw, allow) > 1e-9, cur_cut)
        if key < best_key:
            best_key = key
            best_prefix = len(moves)
            since_best = 0
        else:
            since_best += 1

    for v in moves[best_prefix:]:
        part[v] = 1 - part[v]
    return best_prefix > 0
