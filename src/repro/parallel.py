"""Process-pool execution layer: parallel RB, sweep fan-out, makespan replay.

The paper treats partitioning as a reusable pre-processing step; PR 1
made the modeled machine fast, which left host wall-clock dominated by
the *partitioner* and by cell sweeps that run strictly serially. This
module parallelises both without changing a single output bit:

parallel recursive bisection
    After a bisection, the two induced subgraphs are independent — the
    classic parallel-RB observation of multilevel partitioners (METIS,
    Zoltan PHG). :func:`parallel_recursive_bisection` expands the RB tree
    event-driven over a ``ProcessPoolExecutor``: every tree node is one
    picklable task (:func:`repro.partitioning.kway._split` /
    ``hkway._split``), children are submitted as soon as their parent
    completes, and per-subtree seeds derive from the same pure function
    of tree position the serial recursion uses
    (:func:`repro.partitioning._util.child_seeds`). Completion order
    therefore cannot influence the result: parallel part vectors are
    **bit-identical** to serial ones, and the serial path remains the
    default and the reference.

sweep fan-out
    :func:`parallel_map` fans independent cells (one corpus matrix's
    grid column, one campaign layout, one regression golden) across
    workers; :func:`parallel_partition_sweep` multiplexes the RB trees
    of *many* matrices over one shared pool, which matters because the
    corpus is dominated by a single matrix (rmat_26 is ~2/3 of the
    serial sweep — matrix-level fan-out alone caps below 2x).

schedule accounting
    Workers report per-task CPU seconds (``time.process_time``, immune
    to host time-slicing) and the drivers record the task DAG. A run
    can therefore be replayed onto k virtual workers with
    :func:`schedule_makespan` — the same greedy list scheduling the
    executor performs — giving a host-independent account of what the
    schedule achieves. On a host with >= jobs idle cores the replayed
    makespan and measured wall-clock agree; on a starved host (CI
    containers pinned to one core) the makespan is the meaningful
    number and the bench labels it as such.
"""

from __future__ import annotations

import heapq
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    TimeoutError as FutureTimeoutError,
    wait,
)
from threading import Lock, Thread

import numpy as np

from .partitioning import hkway, kway
from .partitioning._util import check_part_vector, child_seeds
from .partitioning.hypergraph import Hypergraph
from .partitioning.kway import kway_balance_refine
from .partitioning.partgraph import PartGraph

__all__ = [
    "resolve_jobs",
    "parallel_map",
    "parallel_recursive_bisection",
    "parallel_hypergraph_recursive_bisection",
    "parallel_partition_sweep",
    "schedule_makespan",
    "ResilientPool",
    "PoolTaskFailed",
]


def resolve_jobs(jobs: int | None) -> int:
    """Normalise a ``--jobs`` value: None/1 -> serial, 0 or negative -> all cores."""
    if jobs is None:
        return 1
    jobs = int(jobs)
    if jobs <= 0:
        return max(os.cpu_count() or 1, 1)
    return jobs


#: BLAS/OpenMP thread-count knobs a worker process must pin to 1.
_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _pin_worker_threads() -> None:
    """Process-pool worker initializer: one thread per worker, period.

    Process- and thread-parallelism must never nest — J workers each
    spinning T apply threads oversubscribes the machine J*T-fold and
    makes every latency measurement a lie. Every pool this module (and
    :class:`ResilientPool`) creates runs this in each worker: BLAS/OpenMP
    pools and the engine's apply budget (``REPRO_THREADS`` plus the
    process-global override) are all pinned to 1. Results are unaffected
    — the threaded apply kernel is bit-identical to serial — so this is
    purely a scheduling guard. (For fork-started workers an already
    initialized BLAS may ignore the env pins; the engine budget pin is
    what matters, and it always takes effect.)
    """
    for var in _THREAD_ENV_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_THREADS"] = "1"
    from .runtime.threads import set_default_threads

    set_default_threads(1)


def parallel_map(fn, items, jobs: int | None = None, executor: Executor | None = None):
    """Order-preserving map over a process pool.

    Falls back to a plain serial loop when the pool would not help
    (fewer than two items or jobs), so callers can pass ``--jobs``
    straight through. *fn* and every item must be picklable.
    """
    items = list(items)
    if executor is not None:
        return list(executor.map(fn, items))
    njobs = resolve_jobs(jobs)
    if njobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(
        max_workers=min(njobs, len(items)), initializer=_pin_worker_threads
    ) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# resilient one-shot pool (serve cold path)
# ---------------------------------------------------------------------------


class PoolTaskFailed(RuntimeError):
    """A :meth:`ResilientPool.run` task exhausted its retry budget.

    ``attempts`` is the number of attempts made; ``causes`` the short
    description of each attempt's failure, in order — so a server can put
    an honest story in its degraded-path response.
    """

    def __init__(self, message: str, attempts: int, causes: list[str]):
        super().__init__(message)
        self.attempts = attempts
        self.causes = causes


class ResilientPool:
    """Process pool for one-shot tasks that survives worker death.

    ``ProcessPoolExecutor`` has all-or-nothing failure semantics: one
    worker dying (OOM kill, segfault, fault injection) breaks the whole
    executor and every pending future. A long-lived server cannot accept
    that, so this wrapper rebuilds the pool and retries the task, a
    bounded number of times, and enforces a per-task timeout by the only
    means an abandoned process task allows — discarding the pool. Each
    broken-pool incident is counted in :attr:`deaths` so callers can
    price the recovery (:func:`repro.runtime.faults.recovery_stats`).

    The task callable receives the attempt index as its final positional
    argument; deterministic tasks ignore it, fault-injection tasks use it
    to die only on attempt 0 (which is what makes "a killed worker is
    retried and completes" testable).
    """

    def __init__(
        self,
        max_workers: int = 1,
        max_retries: int = 2,
        mp_context: str | None = None,
    ):
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self._max_workers = max_workers
        self._max_retries = max_retries
        #: multiprocessing start method ("spawn" for pools created from
        #: threaded processes like the serve event loop; None = platform
        #: default, which is what the batch drivers above use)
        self._mp_context = mp_context
        self._pool: ProcessPoolExecutor | None = None
        self._lock = Lock()
        #: broken-pool incidents observed (worker death, abandoned timeout)
        self.deaths = 0
        self.retries = 0

    def _checkout(self) -> ProcessPoolExecutor:
        with self._lock:
            if self._pool is None:
                ctx = None
                if self._mp_context is not None:
                    import multiprocessing

                    ctx = multiprocessing.get_context(self._mp_context)
                self._pool = ProcessPoolExecutor(
                    max_workers=self._max_workers,
                    mp_context=ctx,
                    initializer=_pin_worker_threads,
                )
            return self._pool

    def _discard(self, pool: ProcessPoolExecutor) -> None:
        """Drop *pool* (broken or hosting an abandoned task) for rebuild."""
        with self._lock:
            if self._pool is pool:
                self._pool = None
            self.deaths += 1
        pool.shutdown(wait=False, cancel_futures=True)

    def run(self, fn, *args, timeout: float | None = None, retries: int | None = None):
        """Run ``fn(*args, attempt)`` in a worker; retry on death/timeout.

        Raises :class:`PoolTaskFailed` once the budget (``retries`` + 1
        attempts, default from the constructor) is spent. Exceptions the
        task itself raises are *not* retried — they are deterministic and
        would fail identically again — only infrastructure failures are.
        """
        attempts = (self._max_retries if retries is None else int(retries)) + 1
        causes: list[str] = []
        for attempt in range(attempts):
            pool = self._checkout()
            try:
                return pool.submit(fn, *args, attempt).result(timeout=timeout)
            except BrokenExecutor:
                causes.append(f"attempt {attempt}: worker died")
                self._discard(pool)
            except FutureTimeoutError:
                causes.append(f"attempt {attempt}: timed out after {timeout}s")
                self._discard(pool)
            if attempt + 1 < attempts:
                self.retries += 1
        raise PoolTaskFailed(
            f"task failed after {attempts} attempt(s): {'; '.join(causes)}",
            attempts,
            causes,
        )

    def shutdown(self) -> None:
        """Release the worker processes (idempotent)."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# parallel recursive bisection
# ---------------------------------------------------------------------------


def _split_task(kind: str, sub, lo: int, k: int, ub: float, seed, extra, kwargs: dict):
    """Worker unit: one RB node — bisect and build both induced subgraphs.

    Runs the exact serial node functions, so (subgraph, seed) alone
    determine the output. Returns CPU seconds for schedule replay.
    """
    t0 = time.process_time()
    if kind == "hp":
        bis, k0 = hkway._split(sub, k, ub, extra, seed, kwargs)
        sel0, sel1 = np.flatnonzero(bis == 0), np.flatnonzero(bis == 1)
        left, right = sub.induced(sel0), sub.induced(sel1)
    else:
        bis, k0 = kway._split(sub, k, ub, seed, kwargs)
        sel0, sel1 = np.flatnonzero(bis == 0), np.flatnonzero(bis == 1)
        left, right = sub.induced_subgraph(sel0), sub.induced_subgraph(sel1)
    return bis, k0, left, right, time.process_time() - t0


def _drive_rb(
    kind: str,
    g,
    nparts: int,
    ub_level: float,
    seed,
    executor: Executor,
    extra,
    kwargs: dict,
    trace: list | None = None,
    label: str = "rb",
    root_dep: str | None = None,
) -> np.ndarray:
    """Event-driven RB tree expansion over *executor*.

    Children are dispatched the moment their parent's bisection lands, so
    the pool stays busy down the whole tree; the only serial dependency
    left is each matrix's root-to-leaf chain. Every write into ``part``
    is indexed by the node's own vertex set, so completion order cannot
    change the result.
    """
    part = np.zeros(g.n, dtype=np.int64)
    pending: dict = {}

    def dispatch(sub, vertices, lo, k, sd, path):
        if k == 1 or len(vertices) == 0:
            part[vertices] = lo
            return
        fut = executor.submit(_split_task, kind, sub, lo, k, ub_level, sd, extra, kwargs)
        pending[fut] = (vertices, lo, k, sd, path)

    dispatch(g, np.arange(g.n, dtype=np.int64), 0, nparts, seed, "r")
    while pending:
        done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
        for fut in done:
            vertices, lo, k, sd, path = pending.pop(fut)
            bis, k0, left, right, cpu = fut.result()
            if trace is not None:
                dep = f"{label}:{path[:-1]}" if len(path) > 1 else root_dep
                trace.append({
                    "id": f"{label}:{path}",
                    "deps": [dep] if dep else [],
                    "cpu": cpu,
                })
            s_left, s_right = child_seeds(sd)
            dispatch(left, vertices[bis == 0], lo, k0, s_left, path + "0")
            dispatch(right, vertices[bis == 1], lo + k0, k - k0, s_right, path + "1")
    return part


def parallel_recursive_bisection(
    g: PartGraph,
    nparts: int,
    ub: float = 1.05,
    seed=0,
    jobs: int | None = None,
    executor: Executor | None = None,
    trace: list | None = None,
    trace_label: str = "rb",
    root_dep: str | None = None,
    **bisect_kwargs,
) -> np.ndarray:
    """Process-pool :func:`repro.partitioning.recursive_bisection`.

    Bit-identical to the serial path for every (graph, nparts, seed):
    same per-level tolerance, same node splits, same
    subtree seeds, same final k-way balance repair. With ``jobs`` <= 1
    and no executor it simply calls the serial reference.
    """
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    if nparts == 1 or g.n == 0:
        return np.zeros(g.n, dtype=np.int64)
    njobs = resolve_jobs(jobs)
    if executor is None and njobs <= 1:
        return kway.recursive_bisection(g, nparts, ub=ub, seed=seed, **bisect_kwargs)
    depth = int(np.ceil(np.log2(nparts)))
    ub_level = float(ub) ** (1.0 / depth)
    own_pool = executor is None
    pool = (
        executor
        if executor is not None
        else ProcessPoolExecutor(
            max_workers=njobs, initializer=_pin_worker_threads
        )
    )
    try:
        part = _drive_rb(
            "gp", g, nparts, ub_level, seed, pool, None,
            bisect_kwargs, trace, trace_label, root_dep,
        )
    finally:
        if own_pool:
            pool.shutdown()
    part = kway_balance_refine(g, part, nparts, ub=ub)
    return check_part_vector(part, g.n, nparts)


def parallel_hypergraph_recursive_bisection(
    hg: Hypergraph,
    nparts: int,
    ub: float = 1.05,
    seed=0,
    jobs: int | None = None,
    executor: Executor | None = None,
    trace: list | None = None,
    trace_label: str = "hrb",
    root_dep: str | None = None,
    **bisect_kwargs,
) -> np.ndarray:
    """Process-pool :func:`repro.partitioning.hypergraph_recursive_bisection`."""
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    if nparts == 1 or hg.n == 0:
        return np.zeros(hg.n, dtype=np.int64)
    njobs = resolve_jobs(jobs)
    if executor is None and njobs <= 1:
        return hkway.hypergraph_recursive_bisection(
            hg, nparts, ub=ub, seed=seed, **bisect_kwargs
        )
    depth = int(np.ceil(np.log2(nparts)))
    ub_level = float(ub) ** (1.0 / depth)
    ideal = hg.total_weight()[0] / nparts
    own_pool = executor is None
    pool = (
        executor
        if executor is not None
        else ProcessPoolExecutor(
            max_workers=njobs, initializer=_pin_worker_threads
        )
    )
    try:
        part = _drive_rb(
            "hp", hg, nparts, ub_level, seed, pool, ideal,
            bisect_kwargs, trace, trace_label, root_dep,
        )
    finally:
        if own_pool:
            pool.shutdown()
    return check_part_vector(part, hg.n, nparts)


# ---------------------------------------------------------------------------
# multi-matrix partition sweep over one shared pool
# ---------------------------------------------------------------------------


def _build_task(A, kind: str, nparts: int):
    """Worker unit: build the partitioning structure for one matrix."""
    t0 = time.process_time()
    if kind == "hp":
        built = Hypergraph.from_matrix_column_net(A, vertex_weights="nnz")
    else:
        weights = ("unit", "nnz") if kind == "gp-mc" else "nnz"
        built = PartGraph.from_matrix(A, vertex_weights=weights)
    return built, time.process_time() - t0


def _finalize_task(A, kind: str, part: np.ndarray, nparts: int, ub: float):
    """Worker unit: the k-way balance repair :func:`partition_matrix` applies."""
    t0 = time.process_time()
    if kind == "hp":
        g_bal = PartGraph.from_matrix(A, vertex_weights=("unit", "nnz"))
        part = kway_balance_refine(
            g_bal, part, nparts, ub=np.array([1.15, max(ub, 1.25)])
        )
    else:
        weights = ("unit", "nnz") if kind == "gp-mc" else "nnz"
        g = PartGraph.from_matrix(A, vertex_weights=weights)
        part = kway_balance_refine(g, part, nparts, ub=ub)
    return check_part_vector(part, A.shape[0], nparts), time.process_time() - t0


def _sweep_one(name, A, kind, nparts, seed, ub, pool, trace, out):
    """Orchestrate one matrix's partition pipeline (runs in a thread).

    Mirrors :func:`repro.partitioning.partition_matrix` exactly — build,
    RB tree, balance repair — but every CPU-bearing step is a pool task,
    so the thread only shepherds futures and the trace records honest
    per-task CPU seconds.
    """
    built, cpu = pool.submit(_build_task, A, kind, nparts).result()
    if trace is not None:
        trace.append({"id": f"{name}:build", "deps": [], "cpu": cpu})
    depth = int(np.ceil(np.log2(nparts)))
    rb_ub = float(ub) ** (1.0 / depth)
    if kind == "hp":
        extra = built.total_weight()[0] / nparts
        part = _drive_rb("hp", built, nparts, rb_ub, seed, pool,
                         extra, {}, trace, name, f"{name}:build")
    else:
        part = _drive_rb("gp", built, nparts, rb_ub, seed, pool,
                         None, {}, trace, name, f"{name}:build")
    tree_ids = [t["id"] for t in trace if t["id"].startswith(f"{name}:r")] if trace is not None else []
    part, cpu = pool.submit(_finalize_task, A, kind, part, nparts, ub).result()
    if trace is not None:
        trace.append({"id": f"{name}:refine", "deps": tree_ids or [f"{name}:build"], "cpu": cpu})
    out[name] = part


def parallel_partition_sweep(
    specs,
    jobs: int | None = None,
    seed: int = 0,
    ub: float = 1.10,
    trace: list | None = None,
) -> dict[str, np.ndarray]:
    """Partition many matrices concurrently over one shared process pool.

    *specs* is an iterable of ``(name, matrix, kind, nparts)``. All RB
    trees are multiplexed onto a single ``jobs``-worker pool (one
    orchestration thread per matrix, threads only wait on futures), so a
    corpus dominated by one huge matrix still fills every worker: the
    big matrix's subtrees and the small matrices' nodes interleave.

    Returns ``{name: part}`` with each part bit-identical to
    ``partition_matrix(matrix, nparts, method=kind, seed=seed).part``.
    """
    specs = list(specs)
    njobs = resolve_jobs(jobs)
    out: dict[str, np.ndarray] = {}
    if njobs <= 1 or not specs:
        from .partitioning import partition_matrix

        for name, A, kind, nparts in specs:
            out[name] = partition_matrix(A, nparts, method=kind, seed=seed, ub=ub).part
        return out
    with ProcessPoolExecutor(
        max_workers=njobs, initializer=_pin_worker_threads
    ) as pool:
        threads = [
            Thread(
                target=_sweep_one,
                args=(name, A, kind, nparts, seed, ub, pool, trace, out),
                name=f"sweep-{name}",
            )
            for name, A, kind, nparts in specs
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    return out


# ---------------------------------------------------------------------------
# schedule replay
# ---------------------------------------------------------------------------


def schedule_makespan(trace: list[dict], workers: int) -> float:
    """Replay a task trace onto *workers* virtual workers; return makespan.

    Greedy list scheduling, the same policy a process pool implements: a
    task becomes ready when all its dependencies finish; the earliest
    ready task (ties broken by id, deterministically) goes to the first
    free worker. Durations are the workers' recorded CPU seconds, so the
    replay is independent of how starved the measuring host was.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    by_id = {t["id"]: t for t in trace}
    if len(by_id) != len(trace):
        raise ValueError("duplicate task ids in trace")
    children: dict[str, list[str]] = {tid: [] for tid in by_id}
    missing = [d for t in trace for d in t["deps"] if d not in by_id]
    if missing:
        raise ValueError(f"trace references unknown dependencies: {missing[:5]}")
    indeg = {tid: len(t["deps"]) for tid, t in by_id.items()}
    for t in trace:
        for d in t["deps"]:
            children[d].append(t["id"])
    done_at: dict[str, float] = {}
    ready = [(0.0, tid) for tid, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    free = [0.0] * workers
    heapq.heapify(free)
    scheduled = 0
    while ready:
        ready_time, tid = heapq.heappop(ready)
        start = max(heapq.heappop(free), ready_time)
        end = start + float(by_id[tid]["cpu"])
        heapq.heappush(free, end)
        done_at[tid] = end
        scheduled += 1
        for child in children[tid]:
            indeg[child] -= 1
            if indeg[child] == 0:
                child_ready = max(done_at[d] for d in by_id[child]["deps"])
                heapq.heappush(ready, (child_ready, child))
    if scheduled != len(trace):
        raise ValueError("trace has a dependency cycle")
    return max(done_at.values(), default=0.0)
