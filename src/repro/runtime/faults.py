"""Deterministic fault injection and recovery for the simulated machine.

The paper's argument is about behaviour at scale (64-16,384 processes),
and at those process counts real runs lose ranks, absorb silent data
corruption, and wait on stragglers. This module lets the simulator ask a
question the paper could not: *do 2D Cartesian layouts also win on
resilience?* Every fault, detection and repair is costed with the same
alpha-beta-gamma accounting that prices SpMV and migration, so the
resilience overhead of a layout is directly comparable to its SpMV time.

Three fault classes, all scheduled by a seeded :class:`FaultPlan`:

**Fail-stop** — a rank dies at iteration t. Detection is timeout-based
(priced as a multiple of the expected iteration time plus a consensus
allreduce, charged to the ``detect`` phase). Recovery restores the dead
rank's blocks and owned vector entries from checkpoint storage onto a
spare (or spreads them over survivors) and re-syncs with exactly the
ranks the victim exchanged messages with — so for 2D Cartesian layouts
the repair touches at most ``pr + pc - 2`` peers (the process row and
column), while a 1D layout of a scale-free graph talks to nearly
everyone. :func:`recovery_stats` computes the traffic exactly and prices
it through :func:`repro.runtime.migration.price_pair_words`.

**Silent data corruption** — a seeded perturbation injected into an
expand payload (a ghost x-value), a local CSR value, or a fold payload in
transit. Detection is Huang-Abraham ABFT: the engine's precomputed
checksum vectors (:meth:`repro.runtime.engine.SpmvEngine.abft_check`)
verify each rank's partial-sum buffer and the folded result at O(n/p)
modeled cost per SpMV, charged to ``detect``. A detected corruption
triggers a recompute of the iteration, charged to ``recover``.

**Stragglers** — per-rank slowdown multipliers folded into the
max-over-ranks phase times (every SpMV phase is bulk-synchronous, so one
slow rank stretches them all; see ``slowdown=`` in
:meth:`CommPlan.phase_time <repro.runtime.plan.CommPlan.phase_time>` and
:mod:`repro.runtime.collectives`).

Everything is deterministic: the same seed produces the same
:class:`FaultPlan`, the same injected values, the same detection
verdicts, and the same modeled seconds, bit-for-bit — which is what makes
fault campaigns regression-testable.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from .machine import MachineModel
from .metrics import max_recovery_peers
from .migration import price_pair_words
from .trace import CostLedger, FaultEvent

if TYPE_CHECKING:  # avoid a hard import cycle in type hints only
    from .distmatrix import DistSparseMatrix

__all__ = [
    "FailStop",
    "Corruption",
    "Straggler",
    "FaultPlan",
    "FaultConfig",
    "RecoveryStats",
    "InjectionRecord",
    "FaultRunResult",
    "CampaignCell",
    "recovery_stats",
    "abft_detect_seconds",
    "checkpoint_write_seconds",
    "run_with_faults",
    "fault_campaign",
]

#: Corruption phases an injection can target.
CORRUPTION_PHASES = ("expand", "compute", "fold")

#: Fail-stop recovery strategies.
RECOVERY_STRATEGIES = ("spare", "redistribute")

#: Relative size of a sampled corruption, as a fraction of the value hit.
CORRUPTION_MAGNITUDE = 1e-3

#: Slowdown multiplier and length in iterations of a sampled straggler.
STRAGGLER_FACTOR = 4.0
STRAGGLER_DURATION = 5

#: Fail-stop detection waits this multiple of the expected iteration time.
DETECT_TIMEOUT_FACTOR = 3.0

#: Words per owned vector entry in a checkpoint: the iterate x and y.
CHECKPOINT_WORDS_PER_ENTRY = 2


# ---------------------------------------------------------------------------
# fault classes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FailStop:
    """Rank *rank* dies at the start of iteration *iteration*."""

    iteration: int
    rank: int


@dataclass(frozen=True)
class Corruption:
    """One silent-data-corruption injection.

    ``phase`` picks the pipeline point: ``"expand"`` perturbs a ghost
    x-value delivered to *rank*, ``"compute"`` perturbs one stored CSR
    value of *rank*'s block, ``"fold"`` perturbs a partial-sum payload
    *rank* ships to a row owner (after the producer-side checksum, so only
    the global fold checksum can catch it). ``magnitude`` is the relative
    size of the perturbation (default 1e-3 — five orders above the
    detection threshold's reassociation noise).
    """

    iteration: int
    rank: int
    phase: str = "compute"
    magnitude: float = 1e-3


@dataclass(frozen=True)
class Straggler:
    """Rank *rank* runs *factor* x slower for *duration* iterations."""

    rank: int
    start: int
    duration: int = 5
    factor: float = 4.0


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded schedule of faults against one run.

    The plan is layout-independent (it speaks in ranks and iterations),
    so the same plan can be replayed against every layout of a campaign —
    the fair-comparison analogue of reusing one rpart across 1D and 2D.
    """

    nprocs: int
    iterations: int
    seed: int = 0
    failstops: tuple[FailStop, ...] = ()
    corruptions: tuple[Corruption, ...] = ()
    stragglers: tuple[Straggler, ...] = ()

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise ValueError(f"nprocs must be >= 1, got {self.nprocs}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        for ev in self.failstops + self.corruptions:
            if not 0 <= ev.rank < self.nprocs:
                raise ValueError(f"event rank {ev.rank} out of range [0, {self.nprocs})")
            if not 0 <= ev.iteration < max(self.iterations, 1):
                raise ValueError(
                    f"event iteration {ev.iteration} outside run of {self.iterations}"
                )
        for c in self.corruptions:
            if c.phase not in CORRUPTION_PHASES:
                raise ValueError(
                    f"corruption phase {c.phase!r} not in {CORRUPTION_PHASES}"
                )
            if not (math.isfinite(c.magnitude) and c.magnitude > 0):
                raise ValueError(f"corruption magnitude must be > 0, got {c.magnitude}")
        for s in self.stragglers:
            if not 0 <= s.rank < self.nprocs:
                raise ValueError(f"straggler rank {s.rank} out of range")
            if s.duration < 1 or not math.isfinite(s.factor) or s.factor < 1.0:
                raise ValueError(
                    f"straggler needs duration >= 1 and factor >= 1, got {s}"
                )

    @classmethod
    def from_rates(
        cls,
        nprocs: int,
        iterations: int,
        seed: int = 0,
        failstop_rate: float = 0.0,
        corruption_rate: float = 0.0,
        straggler_rate: float = 0.0,
    ) -> "FaultPlan":
        """Sample a plan from per-iteration event probabilities.

        One Bernoulli draw per fault class per iteration, in a fixed
        order, from ``default_rng(SeedSequence(seed))`` — the same
        ``(nprocs, iterations, seed, rates)`` always yields the same plan.
        """
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        failstops: list[FailStop] = []
        corruptions: list[Corruption] = []
        stragglers: list[Straggler] = []
        for t in range(iterations):
            if failstop_rate and rng.random() < failstop_rate:
                failstops.append(FailStop(t, int(rng.integers(nprocs))))
            if corruption_rate and rng.random() < corruption_rate:
                phase = CORRUPTION_PHASES[int(rng.integers(len(CORRUPTION_PHASES)))]
                corruptions.append(
                    Corruption(t, int(rng.integers(nprocs)), phase, CORRUPTION_MAGNITUDE)
                )
            if straggler_rate and rng.random() < straggler_rate:
                stragglers.append(
                    Straggler(int(rng.integers(nprocs)), t,
                              STRAGGLER_DURATION, STRAGGLER_FACTOR)
                )
        return cls(
            nprocs=nprocs,
            iterations=iterations,
            seed=seed,
            failstops=tuple(failstops),
            corruptions=tuple(corruptions),
            stragglers=tuple(stragglers),
        )

    # -- per-iteration views -------------------------------------------------

    def failstops_at(self, t: int) -> list[FailStop]:
        """Fail-stop events scheduled for iteration *t*."""
        return [f for f in self.failstops if f.iteration == t]

    def corruptions_at(self, t: int) -> list[Corruption]:
        """Corruption events scheduled for iteration *t*."""
        return [c for c in self.corruptions if c.iteration == t]

    def slowdown_at(self, t: int) -> np.ndarray | None:
        """Per-rank slowdown multipliers at iteration *t* (None = all 1)."""
        active = [s for s in self.stragglers if s.start <= t < s.start + s.duration]
        if not active:
            return None
        slow = np.ones(self.nprocs)
        for s in active:
            slow[s.rank] = max(slow[s.rank], s.factor)
        return slow

    @property
    def nevents(self) -> int:
        """Total scheduled fault events."""
        return len(self.failstops) + len(self.corruptions) + len(self.stragglers)

    def as_dict(self) -> dict:
        """JSON-serializable view (bit-reproducibility checks, CLI)."""
        return {
            "nprocs": self.nprocs,
            "iterations": self.iterations,
            "seed": self.seed,
            "failstops": [asdict(f) for f in self.failstops],
            "corruptions": [asdict(c) for c in self.corruptions],
            "stragglers": [asdict(s) for s in self.stragglers],
        }


@dataclass(frozen=True)
class FaultConfig:
    """Knobs of the fault-tolerant runtime (not of the fault schedule).

    ``abft`` switches the always-on checksum verification (and its per-SpMV
    ``detect`` charge); ``checkpoint_interval`` is the number of iterations
    between state snapshots (0 disables both the snapshots and the rollback
    bound — a fail-stop then replays from iteration 0).
    """

    abft: bool = True
    checkpoint_interval: int = 10
    recovery_strategy: str = "spare"

    def __post_init__(self) -> None:
        if self.checkpoint_interval < 0:
            raise ValueError("checkpoint_interval must be >= 0")
        if self.recovery_strategy not in RECOVERY_STRATEGIES:
            raise ValueError(
                f"recovery_strategy {self.recovery_strategy!r} not in "
                f"{RECOVERY_STRATEGIES}"
            )


# ---------------------------------------------------------------------------
# detection / checkpoint / recovery cost models
# ---------------------------------------------------------------------------


def abft_detect_seconds(dist: "DistSparseMatrix") -> float:
    """Modeled per-SpMV cost of the ABFT checksum verification.

    Each rank sums its partial buffer and evaluates one checksum dot over
    its compressed column set — O(n/p) streaming on the busiest rank —
    then all ranks agree through a one-word allreduce. This is the
    always-on overhead ABFT charges even in fault-free runs.
    """
    if dist.nprocs == 0:
        return 0.0
    per_rank = np.fromiter(
        (len(rm) + len(cm) for rm, cm in zip(dist.row_maps, dist.col_maps)),
        dtype=np.float64,
        count=dist.nprocs,
    )
    mach = dist.machine
    return float(mach.gamma_mem * per_rank.max() + mach.allreduce_time(dist.nprocs, 1))


def checkpoint_write_seconds(dist: "DistSparseMatrix") -> float:
    """Modeled cost of one coordinated checkpoint of the vector state.

    Every rank streams its owned entries (x and y — the iterate state a
    rollback needs; the matrix itself is immutable and
    checkpointed once, off the critical path) to stable storage, priced
    as one alpha message plus beta per word, busiest rank setting the
    pace — the same postal accounting as a communication phase.
    """
    owned = dist.vector_map.counts()
    pair = {
        (int(r), -1): int(CHECKPOINT_WORDS_PER_ENTRY * c)
        for r, c in enumerate(owned)
        if c
    }
    seconds, _, _, _ = price_pair_words(pair, dist.nprocs, dist.machine)
    return seconds


@dataclass(frozen=True)
class RecoveryStats:
    """Exact traffic and modeled cost of recovering one failed rank.

    ``peers`` counts the distinct ranks other than the failed one (whose
    id the replacement inherits) that send or receive recovery messages —
    under ``"spare"`` exactly the victim's communication-plan peer set,
    the quantity bounded by ``pr + pc - 2`` for 2D Cartesian layouts.
    ``restore_words`` come from checkpoint storage ((i, j, value) triples
    for the lost block, (index, value) pairs for lost vector entries);
    ``resync_words`` are re-delivered ghost values and partial sums moving
    between ranks.
    """

    failed_rank: int
    strategy: str
    peers: int
    lost_nonzeros: int
    lost_vector_entries: int
    restore_words: int
    resync_words: int
    max_rank_words: int
    max_rank_messages: int
    modeled_seconds: float


def _accumulate(pair: dict, key: tuple[int, int], words: int) -> None:
    if words:
        pair[key] += int(words)


def recovery_stats(
    dist: "DistSparseMatrix",
    failed_rank: int,
    strategy: str = "spare",
    machine: MachineModel | None = None,
) -> RecoveryStats:
    """Exact recovery plan for a fail-stop of *failed_rank*.

    ``strategy="spare"`` restores the victim's blocks and owned vector
    entries from checkpoint storage onto a replacement rank (same grid
    position), then re-syncs runtime state with the victim's communication
    peers: ghost x-values are re-delivered by their owners, the restored
    block's partial sums are recomputed and re-folded to the row owners,
    consumers of the victim's owned x-entries get them re-sent, and
    producers of partials for the victim's owned rows re-ship them. Every
    one of those payloads is read off the communication plans, so the
    traffic (and the peer count) is exact, not estimated.

    ``strategy="redistribute"`` spreads the victim's block rows and owned
    vector entries round-robin over the survivors instead. Ghost inputs
    shared by rows that land on different survivors are then delivered
    more than once — the traffic amplification that makes spares the
    default in practice — and the fan-out is computed exactly from the
    block structure.
    """
    p = dist.nprocs
    f = int(failed_rank)
    if not 0 <= f < p:
        raise ValueError(f"failed_rank {f} out of range [0, {p})")
    if strategy not in RECOVERY_STRATEGIES:
        raise ValueError(f"strategy {strategy!r} not in {RECOVERY_STRATEGIES}")
    if strategy == "redistribute" and p < 2:
        raise ValueError("redistribute needs at least one survivor")
    machine = machine if machine is not None else dist.machine
    vm = dist.vector_map
    rmap, cmap, block = dist.row_maps[f], dist.col_maps[f], dist.local_blocks[f]
    owned = vm.indices_of(f)

    if strategy == "spare":
        row_target = np.full(len(rmap), f, dtype=np.int64)
        vec_target = np.full(len(owned), f, dtype=np.int64)
    else:
        survivors = np.delete(np.arange(p, dtype=np.int64), f)
        row_target = survivors[np.arange(len(rmap)) % len(survivors)]
        vec_target = survivors[np.arange(len(owned)) % len(survivors)]

    def new_owner(gidx: np.ndarray) -> np.ndarray:
        """Post-recovery owner of global indices the victim used to own."""
        return vec_target[np.searchsorted(owned, gidx)]

    pair: dict[tuple[int, int], int] = defaultdict(int)
    restore_words = 0

    # --- restore + re-sync each piece of the lost block -------------------
    for t in np.unique(row_target) if len(row_target) else []:
        t = int(t)
        lr = np.flatnonzero(row_target == t)
        sub = block[lr]
        _accumulate(pair, (-1, t), 3 * sub.nnz)  # (i, j, value) triples
        restore_words += 3 * int(sub.nnz)
        if sub.nnz:
            # ghost x-inputs this piece consumes, re-delivered by their
            # (possibly post-recovery) owners
            gidx = cmap[np.unique(sub.indices)]
            src = vm.owner[gidx]
            fown = src == f
            if fown.any():
                src = src.copy()
                src[fown] = new_owner(gidx[fown])
            src = src[src != t]
            for o, cnt in zip(*np.unique(src, return_counts=True)):
                _accumulate(pair, (int(o), t), int(cnt))
        # recomputed partial sums folded back to the row owners
        rows = rmap[lr]
        dst = vm.owner[rows]
        fown = dst == f
        if fown.any():
            dst = dst.copy()
            dst[fown] = new_owner(rows[fown])
        dst = dst[dst != t]
        for o, cnt in zip(*np.unique(dst, return_counts=True)):
            _accumulate(pair, (t, int(o)), int(cnt))

    # --- restore the lost owned vector entries from storage ----------------
    if len(vec_target):
        for t, cnt in zip(*np.unique(vec_target, return_counts=True)):
            _accumulate(pair, (-1, int(t)), 2 * int(cnt))  # (index, value)
            restore_words += 2 * int(cnt)

    # --- re-deliver the victim's owned x-entries to their consumers --------
    ip = dist.import_plan
    for m in np.flatnonzero(ip.src == f):
        d = int(ip.dst[m])
        src = new_owner(ip.message_indices(m))
        src = src[src != d]
        for o, cnt in zip(*np.unique(src, return_counts=True)):
            _accumulate(pair, (int(o), d), int(cnt))

    # --- re-ship partial sums destined for the victim's owned rows ---------
    fp = dist.fold_plan
    for m in np.flatnonzero(fp.dst == f):
        s = int(fp.src[m])
        dst = new_owner(fp.message_indices(m))
        dst = dst[dst != s]
        for o, cnt in zip(*np.unique(dst, return_counts=True)):
            _accumulate(pair, (s, int(o)), int(cnt))

    seconds, max_words, max_msgs, total_words = price_pair_words(pair, p, machine)
    # recompute the restored block's partial sums once (2 flops / nonzero)
    seconds += machine.gamma_flop * 2.0 * float(block.nnz)
    participants = {r for sd in pair for r in sd if r >= 0}
    peers = len(participants - {f})
    return RecoveryStats(
        failed_rank=f,
        strategy=strategy,
        peers=peers,
        lost_nonzeros=int(block.nnz),
        lost_vector_entries=int(len(owned)),
        restore_words=restore_words,
        resync_words=total_words - restore_words,
        max_rank_words=max_words,
        max_rank_messages=max_msgs,
        modeled_seconds=float(seconds),
    )


# ---------------------------------------------------------------------------
# fault-injected execution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InjectionRecord:
    """Ground truth of one executed corruption injection.

    ``effect`` is the exact change the injection made to the checksum the
    detector tests (the rank partial-sum for expand/compute, the global
    fold sum for fold); ``threshold`` the detector's noise bound at that
    point. ABFT guarantees detection whenever ``effect > threshold`` —
    the property the test suite asserts.
    """

    iteration: int
    rank: int
    phase: str
    effect: float
    threshold: float
    detected: bool


@dataclass
class FaultRunResult:
    """Outcome of one fault-injected run (see :func:`run_with_faults`)."""

    layout: str
    nprocs: int
    iterations: int
    plan: FaultPlan
    ledger: CostLedger
    clean_seconds: float
    total_seconds: float
    injections: tuple[InjectionRecord, ...]
    recoveries: tuple[RecoveryStats, ...]
    max_recovery_peers: int

    @property
    def overhead(self) -> float:
        """Fractional modeled-time overhead versus the fault-free run."""
        if self.clean_seconds <= 0:
            return 0.0
        return self.total_seconds / self.clean_seconds - 1.0


def _rank_slot_range(dist: "DistSparseMatrix", rank: int) -> tuple[int, int]:
    """[start, stop) of *rank*'s segment in the concatenated partials."""
    start = sum(len(dist.row_maps[r]) for r in range(rank))
    return start, start + len(dist.row_maps[rank])


def _inject_pre_fold(
    dist: "DistSparseMatrix",
    c: Corruption,
    x: np.ndarray,
    partials: np.ndarray,
    rng: np.random.Generator,
) -> tuple[str, float]:
    """Apply an expand/compute corruption to *partials* in place.

    Returns ``(phase_used, effect)`` where *effect* is the exact change to
    the victim rank's partial sum (the quantity the rank checksum tests).
    A scheduled expand corruption falls back to ``compute`` when the rank
    imports nothing (a rank with no ghosts has no expand payload to hit).
    """
    eng = dist.engine
    start, stop = _rank_slot_range(dist, c.rank)
    phase = c.phase
    if phase == "expand":
        msgs = np.flatnonzero(dist.import_plan.dst == c.rank)
        if len(msgs) == 0:
            phase = "compute"
        else:
            m = int(msgs[int(rng.integers(len(msgs)))])
            idx = dist.import_plan.message_indices(m)
            j = int(idx[int(rng.integers(len(idx)))])
            delta = c.magnitude * max(abs(float(x[j])), 1.0)
            x_bad = x.copy()
            x_bad[j] += delta
            before = float(partials[start:stop].sum())
            partials[start:stop] = eng._local[start:stop] @ x_bad
            return "expand", abs(float(partials[start:stop].sum()) - before)
    if phase == "compute":
        block = dist.local_blocks[c.rank]
        if block.nnz == 0:
            return "compute", 0.0
        k = int(rng.integers(block.nnz))
        lrow = int(np.searchsorted(block.indptr, k, side="right") - 1)
        gcol = int(dist.col_maps[c.rank][block.indices[k]])
        delta = c.magnitude * max(abs(float(block.data[k])), 1.0)
        effect = delta * float(x[gcol])
        partials[start + lrow] += effect
        return "compute", abs(effect)
    raise AssertionError(f"unexpected pre-fold phase {phase!r}")


def _inject_fold(
    dist: "DistSparseMatrix",
    c: Corruption,
    partials: np.ndarray,
    rng: np.random.Generator,
) -> float:
    """Corrupt a fold payload *rank* ships, in place. Returns |effect|."""
    start, _ = _rank_slot_range(dist, c.rank)
    msgs = np.flatnonzero(dist.fold_plan.src == c.rank)
    if len(msgs) == 0:
        return 0.0
    m = int(msgs[int(rng.integers(len(msgs)))])
    idx = dist.fold_plan.message_indices(m)
    row = int(idx[int(rng.integers(len(idx)))])
    slot = start + int(np.searchsorted(dist.row_maps[c.rank], row))
    delta = c.magnitude * max(abs(float(partials[slot])), 1.0)
    partials[slot] += delta
    return abs(delta)


def run_with_faults(
    dist: "DistSparseMatrix",
    plan: FaultPlan,
    config: FaultConfig | None = None,
    layout_name: str | None = None,
) -> FaultRunResult:
    """Simulate ``plan.iterations`` SpMV iterations under *plan*'s faults.

    Models a power-iteration-style workload: repeated SpMV with
    iteration-invariant communication. Per iteration the ledger is charged
    the four SpMV phases (stretched by any active straggler), the ``detect``
    phase (ABFT checksums every iteration; timeout detection on a
    fail-stop), ``checkpoint`` every ``config.checkpoint_interval``
    iterations, and ``recover`` for corruption recomputes and fail-stop
    reconstruction (including replay of the iterations lost since the last
    checkpoint). When the plan schedules corruption, the SpMVs execute for
    real through the engine with the perturbation applied at the scheduled
    pipeline point, and detection verdicts come from the actual checksum
    test — not from assumption.
    """
    config = config if config is not None else FaultConfig()
    if plan.nprocs != dist.nprocs:
        raise ValueError(
            f"plan is for {plan.nprocs} ranks, distribution has {dist.nprocs}"
        )

    mach = dist.machine
    ledger = CostLedger()
    clean_iter = dist.modeled_spmv_seconds(1)
    abft_iter = abft_detect_seconds(dist) if config.abft else 0.0
    ckpt_iter = (
        checkpoint_write_seconds(dist) if config.checkpoint_interval else 0.0
    )
    injections: list[InjectionRecord] = []
    recoveries: list[RecoveryStats] = []
    last_checkpoint = 0

    x = None
    if plan.corruptions:
        rng0 = np.random.default_rng(np.random.SeedSequence((plan.seed, 0xC1EA)))
        x = rng0.standard_normal(dist.n)
        nrm = np.linalg.norm(x)
        x = x / nrm if nrm > 0 else x

    for t in range(plan.iterations):
        slowdown = plan.slowdown_at(t)
        dist.charge_spmv(ledger, slowdown=slowdown)
        for s in plan.stragglers:
            if s.start == t:
                extra = (
                    dist_modeled_with_slowdown(dist, slowdown) - clean_iter
                )
                ledger.record(FaultEvent(
                    iteration=t, kind="straggler", rank=s.rank,
                    seconds=max(extra, 0.0) * s.duration,
                    note=f"x{s.factor:g} for {s.duration} it",
                ))
        if config.abft:
            ledger.add("detect", abft_iter)

        if x is not None:
            corrs = plan.corruptions_at(t)
            eng = dist.engine
            partials = eng._local @ x
            rngs = {
                id(c): np.random.default_rng(
                    np.random.SeedSequence((plan.seed, t, c.rank, i))
                )
                for i, c in enumerate(corrs)
            }
            pre_fold: list[tuple[Corruption, str, float]] = []
            fold_effects: list[tuple[Corruption, float]] = []
            for c in corrs:
                if c.phase in ("expand", "compute"):
                    phase_used, effect = _inject_pre_fold(
                        dist, c, x, partials, rngs[id(c)]
                    )
                    pre_fold.append((c, phase_used, effect))
            for c in corrs:
                if c.phase == "fold":
                    fold_effects.append(
                        (c, _inject_fold(dist, c, partials, rngs[id(c)]))
                    )
            y = eng.fold(partials)
            check = eng.abft_check(x, partials, y)
            flagged = set(int(r) for r in check.flagged_ranks)
            detected_any = False
            for c, phase_used, effect in pre_fold:
                thr = float(check.rank_threshold[c.rank])
                det = c.rank in flagged
                detected_any |= det
                injections.append(InjectionRecord(t, c.rank, phase_used, effect, thr, det))
                ledger.record(FaultEvent(t, "corruption", c.rank, phase_used, det))
            for c, effect in fold_effects:
                det = check.fold_flagged or c.rank in flagged
                detected_any |= det
                thr = float(check.rank_threshold[c.rank])
                injections.append(InjectionRecord(t, c.rank, "fold", effect, thr, det))
                ledger.record(FaultEvent(t, "corruption", c.rank, "fold", det))
            if detected_any:
                # discard the tainted iteration and recompute it cleanly
                ledger.add("recover", clean_iter + abft_iter)
                y = eng.spmv(x)
            nrm = np.linalg.norm(y)
            x = y / nrm if nrm > 0 else y

        for fs in plan.failstops_at(t):
            detect_s = (
                DETECT_TIMEOUT_FACTOR * clean_iter
                + mach.allreduce_time(dist.nprocs)
            )
            ledger.add("detect", detect_s)
            rec = recovery_stats(dist, fs.rank, config.recovery_strategy)
            recoveries.append(rec)
            lost_iters = t - last_checkpoint if config.checkpoint_interval else t
            redo_s = lost_iters * (clean_iter + abft_iter)
            ledger.add("recover", rec.modeled_seconds + redo_s)
            ledger.record(FaultEvent(
                iteration=t, kind="fail-stop", rank=fs.rank, detected=True,
                seconds=detect_s + rec.modeled_seconds + redo_s,
                note=f"{rec.strategy}: {rec.peers} peers, "
                     f"{rec.restore_words + rec.resync_words} words",
            ))

        if config.checkpoint_interval and (t + 1) % config.checkpoint_interval == 0:
            ledger.add("checkpoint", ckpt_iter)
            last_checkpoint = t + 1

    return FaultRunResult(
        layout=layout_name if layout_name is not None else dist.layout.name,
        nprocs=dist.nprocs,
        iterations=plan.iterations,
        plan=plan,
        ledger=ledger,
        clean_seconds=plan.iterations * clean_iter,
        total_seconds=ledger.total(),
        injections=tuple(injections),
        recoveries=tuple(recoveries),
        max_recovery_peers=max_recovery_peers(dist),
    )


def dist_modeled_with_slowdown(
    dist: "DistSparseMatrix", slowdown: np.ndarray | None
) -> float:
    """One-iteration modeled seconds under a per-rank slowdown vector."""
    ledger = CostLedger()
    dist.charge_spmv(ledger, slowdown=slowdown)
    return ledger.spmv_total()


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CampaignCell:
    """Per-layout summary of one fault campaign."""

    layout: str
    nprocs: int
    clean_seconds: float
    total_seconds: float
    overhead: float
    detect_seconds: float
    checkpoint_seconds: float
    recover_seconds: float
    faults: int
    detected: int
    max_recovery_peers: int
    recovery_words: int

    def row(self) -> tuple:
        """CLI/bench table row."""
        return (
            self.layout,
            f"{self.clean_seconds:.4f}",
            f"{self.total_seconds:.4f}",
            f"{100.0 * self.overhead:.1f}%",
            f"{self.detect_seconds:.4f}",
            f"{self.checkpoint_seconds:.4f}",
            f"{self.recover_seconds:.4f}",
            self.faults,
            self.detected,
            self.max_recovery_peers,
            self.recovery_words,
        )


#: Column headers matching :meth:`CampaignCell.row`.
CAMPAIGN_COLUMNS = [
    "layout", "clean t", "faulty t", "overhead", "detect", "ckpt",
    "recover", "faults", "detected", "rec peers", "rec words",
]


def _campaign_cell_task(args: tuple) -> CampaignCell:
    """One layout's campaign replay — the ``fault_campaign`` fan-out unit.

    Module-level so it pickles into pool workers; every input (matrix,
    layout, plan, machine, config) is a plain dataclass or array, and the
    replay is deterministic, so where it runs cannot change the cell.
    """
    from .distmatrix import DistSparseMatrix

    A, layout, plan, machine, config = args
    dist = DistSparseMatrix(A, layout, machine)
    res = run_with_faults(dist, plan, config=config)
    bd = res.ledger.breakdown()
    events = [e for e in res.ledger.events if e.kind != "straggler"]
    return CampaignCell(
        layout=res.layout,
        nprocs=res.nprocs,
        clean_seconds=res.clean_seconds,
        total_seconds=res.total_seconds,
        overhead=res.overhead,
        detect_seconds=bd.get("detect", 0.0),
        checkpoint_seconds=bd.get("checkpoint", 0.0),
        recover_seconds=bd.get("recover", 0.0),
        faults=len(events),
        detected=sum(1 for e in events if e.detected),
        max_recovery_peers=res.max_recovery_peers,
        recovery_words=sum(r.restore_words + r.resync_words for r in res.recoveries),
    )


def fault_campaign(
    A,
    layouts,
    plan: FaultPlan,
    machine: MachineModel | None = None,
    config: FaultConfig | None = None,
    jobs: int | None = None,
) -> list[CampaignCell]:
    """Replay one :class:`FaultPlan` against several layouts of *A*.

    *layouts* is an iterable of :class:`~repro.layouts.base.Layout` (all
    with ``plan.nprocs`` ranks — the plan speaks in rank ids). Returns one
    :class:`CampaignCell` per layout; because the schedule, the injected
    values, and the cost model are all deterministic, two calls with the
    same arguments produce identical cells, bit for bit — including under
    ``jobs`` > 1, which fans the layouts across a process pool.
    """
    from ..parallel import parallel_map
    from .machine import CAB

    machine = machine if machine is not None else CAB
    tasks = [(A, layout, plan, machine, config) for layout in layouts]
    return parallel_map(_campaign_cell_task, tasks, jobs=jobs)
