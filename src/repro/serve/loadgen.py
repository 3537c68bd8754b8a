"""Closed-loop load generator for the matvec server.

Drives *concurrency* independent sessions, each a blocking
:class:`~repro.serve.protocol.ServeClient` on its own thread issuing
matvecs back-to-back — the open-loop arrival pattern a batching server
actually sees, and the one that gives the micro-batcher distinct
requests to coalesce. Numbers reported:

* **throughput** — completed requests over the timed window (all
  sessions start together on a barrier, the window closes when the last
  one finishes);
* **latency** — per-request wall time at the client, p50/p99/mean/max;
* **divergences** — the correctness gate. Every request's answer is
  compared ``np.array_equal`` (bitwise for float64) against a *reference
  engine* the generator builds locally from the same partition cache, so
  the server's batched ``spmm`` path is held to the serial ``spmv``
  answer, bit for bit. Any nonzero count is a served-wrong-answer bug.

Vectors come from a small seeded pool so the reference answers are
precomputed once, not per request — checking is O(compare), and the pool
is shared across sessions so coalesced batches genuinely mix clients.

Two timeout knobs are deliberately separate: *timeout* is the
connect/socket default (how long a healthy server may take), while
*deadline* bounds each individual request. A request that misses its
deadline is a **distinct outcome class** (``timeouts`` in the summary) —
the session discards the poisoned connection, reconnects and keeps
going, instead of crashing the worker thread and aborting the run.

:func:`run_chaos_soak` is the adversarial variant: the same closed loop
driven through a :class:`~repro.serve.chaos.ChaosProxy` by
:class:`~repro.serve.resilience.RetryingClient` sessions, asserting the
repo's serving invariant — **every acknowledged answer is bit-identical
to the local reference engine under every chaos schedule**. Faults may
cost retries and latency, never wrong bits.
"""

from __future__ import annotations

import threading
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .protocol import DeadlineExceeded, ProtocolError, ServeClient
from .resilience import ResilienceError, RetryingClient

__all__ = [
    "LoadgenResult",
    "run_loadgen",
    "reference_engine",
    "ChaosSoakResult",
    "run_chaos_soak",
]


def reference_engine(matrix: str, method: str, procs: int, seed: int):
    """Build the serial-answer oracle: same cache, same layout, same bits.

    Goes through :func:`repro.bench.harness.cached_rpart` exactly like the
    server's cold path, so as long as generator and server see the same
    cache directory (both honor ``$REPRO_CACHE_DIR``) the two engines are
    built from identical partitions and their answers are bit-identical.
    Returns ``(engine, n)``.
    """
    from ..bench.harness import layout_for
    from ..graphs.csr import as_csr
    from ..io import load_matrix
    from ..runtime import CAB, DistSparseMatrix

    A = as_csr(load_matrix(matrix)[1])
    dist = DistSparseMatrix(A, layout_for(A, method, procs, seed=seed), CAB)
    return dist.engine, A.shape[0]


@dataclass
class LoadgenResult:
    """One load-generation run, summarized (see module docstring)."""

    matrix: str
    method: str
    procs: int
    concurrency: int
    requests: int
    errors: int
    divergences: int
    timeouts: int
    checked: bool
    elapsed_seconds: float
    throughput_rps: float
    mean_ms: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    batch_sizes: dict[int, int] = field(default_factory=dict)
    #: server-side engine lookup outcomes (mem_hit/disk_hit/built) at the
    #: end of the run — lets callers assert cold-path behavior directly
    tiers: dict[str, int] = field(default_factory=dict)

    @property
    def mean_batch_size(self) -> float:
        total = sum(k * v for k, v in self.batch_sizes.items())
        count = sum(self.batch_sizes.values())
        return total / count if count else 0.0

    def as_dict(self) -> dict:
        return {
            "matrix": self.matrix,
            "method": self.method,
            "procs": self.procs,
            "concurrency": self.concurrency,
            "requests": self.requests,
            "errors": self.errors,
            "divergences": self.divergences,
            "timeouts": self.timeouts,
            "checked": self.checked,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "mean_ms": round(self.mean_ms, 4),
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "max_ms": round(self.max_ms, 4),
            "mean_batch_size": round(self.mean_batch_size, 3),
            "batch_sizes": {str(k): v for k, v in sorted(self.batch_sizes.items())},
            "engine_tiers": dict(self.tiers),
        }


def _query_tiers(socket_path: str, timeout: float) -> dict[str, int]:
    """Best-effort fetch of the server's engine-tier counters (health op)."""
    try:
        with ServeClient(socket_path, timeout=timeout) as client:
            resp, _ = client.request({"op": "health"})
        if resp.get("ok"):
            return dict(resp.get("tiers") or {})
    except (OSError, ProtocolError):
        pass
    return {}


def _closed_loop(
    warm_path: str,
    warm_msg: dict,
    session,
    *,
    seed: int,
    concurrency: int,
    requests_per_client: int,
    vector_pool: int,
    check: bool,
    timeout: float,
    join_timeout: float,
) -> tuple[dict, Counter, dict]:
    """The closed loop behind :func:`run_loadgen` and :func:`run_chaos_soak`.

    Sends *warm_msg* to *warm_path*, builds the vector pool (and, with
    *check*, the reference answers), then runs one generator
    ``session(client_id, pool, expected, counts)`` per thread: it sets
    up its client up to its first ``yield``, then yields each request's
    latency in seconds (``None`` when no answer came back) and closes
    its client in ``finally``. A session that raises aborts the start
    barrier and the run re-raises its exception. Returns the warm-up
    response, the summed counts, and the timing fields both results share.
    """
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")
    with ServeClient(warm_path, timeout=timeout) as warm:
        warm_resp, _ = warm.request(warm_msg)
    if not warm_resp.get("ok"):
        raise ProtocolError(f"warm-up partition failed: {warm_resp.get('error')}")
    n = int(warm_resp["n"])

    rng = np.random.default_rng(seed ^ 0x5EED)
    pool = rng.standard_normal((vector_pool, n))
    expected: list[np.ndarray] | None = None
    if check:
        # the warm-up filled the partition cache, so this reuses its bits
        engine, n_ref = reference_engine(
            warm_msg["matrix"], warm_msg["method"], warm_msg["procs"], seed
        )
        if n_ref != n:
            raise ProtocolError(f"reference n={n_ref} != server n={n}")
        expected = [engine.spmv(pool[i]) for i in range(vector_pool)]

    barrier = threading.Barrier(concurrency + 1)
    lock = threading.Lock()
    latencies: list[float] = []
    totals: Counter = Counter()
    failures: list[BaseException] = []

    def run(client_id: int) -> None:
        counts: Counter = Counter()
        lat: list[float] = []
        steps = session(client_id, pool, expected, counts)
        try:
            next(steps)
            barrier.wait()
            for _ in range(requests_per_client):
                latency = next(steps)
                if latency is not None:
                    lat.append(latency)
        except BaseException as exc:
            failures.append(exc)
            barrier.abort()  # don't leave siblings waiting on a dead session
        finally:
            steps.close()
            with lock:
                latencies.extend(lat)
                totals.update(counts)

    threads = [
        threading.Thread(target=run, args=(i,), name=f"loadgen-{i}", daemon=True)
        for i in range(concurrency)
    ]
    for t in threads:
        t.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass  # a session failed before the start; its exception is raised below
    t_start = time.perf_counter()
    for t in threads:
        t.join(join_timeout)
    elapsed = time.perf_counter() - t_start
    if failures:
        raise failures[0]

    lat_ms = np.asarray(latencies) * 1e3 if latencies else np.zeros(1)
    return warm_resp, totals, {
        "elapsed_seconds": elapsed,
        "mean_ms": float(lat_ms.mean()),
        "p50_ms": float(np.percentile(lat_ms, 50)),
        "p99_ms": float(np.percentile(lat_ms, 99)),
        "max_ms": float(lat_ms.max()),
        "tiers": _query_tiers(warm_path, timeout),
    }


def run_loadgen(
    socket_path: str,
    matrix: str,
    method: str = "2d-gp",
    procs: int = 16,
    seed: int = 0,
    concurrency: int = 16,
    requests_per_client: int = 50,
    vector_pool: int = 32,
    check: bool = True,
    encoding: str = "bin",
    timeout: float = 600.0,
    deadline: float | None = None,
) -> LoadgenResult:
    """Run one closed-loop load test against a listening server.

    Warms the target engine with a ``partition`` request first, so the
    timed window measures steady-state serving, not the cold build.
    *deadline*, when given, bounds each request; expiries are reported
    as ``timeouts`` (the session reconnects and continues).
    """
    if requests_per_client < 1:
        raise ValueError(f"requests_per_client must be >= 1, got {requests_per_client}")
    target = {"matrix": matrix, "method": method, "procs": procs, "seed": seed}
    msg = {"op": "matvec", **target}

    def session(client_id, pool, expected, counts):
        pick = np.random.default_rng(1000 + client_id)
        client = ServeClient(socket_path, timeout=timeout)
        try:
            # one untimed request primes the connection end to end
            client.request(msg, x=pool[0], encoding=encoding)
            yield
            while True:
                idx = int(pick.integers(vector_pool))
                t0 = time.perf_counter()
                try:
                    resp, y = client.request(
                        msg, x=pool[idx], encoding=encoding, deadline=deadline
                    )
                except DeadlineExceeded:
                    # its own outcome class, not a crashed worker; the
                    # connection is poisoned (a stale response may still
                    # arrive mid-frame), so reconnect before continuing
                    counts["timeouts"] += 1
                    client.close()
                    client = ServeClient(socket_path, timeout=timeout)
                    yield None
                    continue
                latency = time.perf_counter() - t0
                counts["requests"] += 1
                if not resp.get("ok") or y is None:
                    counts["errors"] += 1
                else:
                    counts["batch", int(resp.get("batch_size", 0))] += 1
                    if expected is not None and not np.array_equal(y, expected[idx]):
                        counts["divergences"] += 1
                yield latency
        finally:
            client.close()

    _, counts, shared = _closed_loop(
        socket_path,
        {"op": "partition", **target},
        session,
        seed=seed,
        concurrency=concurrency,
        requests_per_client=requests_per_client,
        vector_pool=vector_pool,
        check=check,
        timeout=timeout,
        join_timeout=timeout,
    )
    elapsed = shared["elapsed_seconds"]
    return LoadgenResult(
        matrix=matrix,
        method=method,
        procs=procs,
        concurrency=concurrency,
        requests=counts["requests"],
        errors=counts["errors"],
        divergences=counts["divergences"],
        timeouts=counts["timeouts"],
        checked=check,
        throughput_rps=counts["requests"] / elapsed if elapsed > 0 else 0.0,
        batch_sizes={k[1]: v for k, v in counts.items() if isinstance(k, tuple)},
        **shared,
    )


# ---------------------------------------------------------------------------
# chaos soak: the same closed loop, adversarial wire + semantic faults
# ---------------------------------------------------------------------------


@dataclass
class ChaosSoakResult:
    """One chaos soak, summarized.

    ``lost_acked`` is the invariant counter: acknowledged (``ok``)
    responses that were wrong — bitwise divergences plus answers that
    arrived without a vector. It must be zero under every schedule.
    ``failed`` counts logical requests that exhausted their retry budget
    *without* an acknowledgment — visible failures, never wrong data.
    """

    matrix: str
    method: str
    procs: int
    seed: int
    chaos_seed: int
    concurrency: int
    requests: int
    answered: int
    failed: int
    divergences: int
    lost_acked: int
    deduped: int
    retries: int
    attempts: int
    shed_seen: int
    draining_seen: int
    breaker_opens: int
    elapsed_seconds: float
    throughput_rps: float
    mean_ms: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    injected_wire: dict[str, int] = field(default_factory=dict)
    injected_semantic: dict[str, int] = field(default_factory=dict)
    tiers: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "matrix": self.matrix,
            "method": self.method,
            "procs": self.procs,
            "seed": self.seed,
            "chaos_seed": self.chaos_seed,
            "concurrency": self.concurrency,
            "requests": self.requests,
            "answered": self.answered,
            "failed": self.failed,
            "divergences": self.divergences,
            "lost_acked": self.lost_acked,
            "deduped": self.deduped,
            "retries": self.retries,
            "attempts": self.attempts,
            "shed_seen": self.shed_seen,
            "draining_seen": self.draining_seen,
            "breaker_opens": self.breaker_opens,
            "elapsed_seconds": round(self.elapsed_seconds, 6),
            "throughput_rps": round(self.throughput_rps, 3),
            "mean_ms": round(self.mean_ms, 4),
            "p50_ms": round(self.p50_ms, 4),
            "p99_ms": round(self.p99_ms, 4),
            "max_ms": round(self.max_ms, 4),
            "injected_wire": dict(self.injected_wire),
            "injected_semantic": dict(self.injected_semantic),
            "engine_tiers": dict(self.tiers),
        }


def run_chaos_soak(
    socket_path: str,
    matrix: str,
    method: str = "2d-gp",
    procs: int = 16,
    seed: int = 0,
    *,
    warm_socket_path: str | None = None,
    chaos_seed: int = 0,
    concurrency: int = 4,
    requests_per_client: int = 25,
    vector_pool: int = 16,
    encoding: str = "bin",
    timeout: float = 60.0,
    attempt_deadline_s: float = 5.0,
    total_deadline_s: float = 120.0,
    max_attempts: int = 10,
    inject_kill: bool = False,
    p_slow: float = 0.0,
    slow_ms: float = 2.0,
) -> ChaosSoakResult:
    """Closed-loop soak through a chaos proxy with retrying clients.

    *socket_path* is the chaos proxy's listen socket; *warm_socket_path*
    (default: same) should be the server's direct socket so warm-up and
    the reference build are not themselves chaos targets. Every session
    is a :class:`RetryingClient` seeded from *chaos_seed*, so the retry
    schedule — like the proxy's injections — replays exactly.

    Semantic injections ride the request path: *inject_kill* stamps the
    warm-up partition with a worker-kill fault (a real pool-worker
    death the server retries), and each request independently carries
    a *slow_ms* stall with seeded probability *p_slow*. Both require the
    server to run with ``allow_fault_injection``.
    """
    if not 0.0 <= p_slow <= 1.0:
        raise ValueError(f"p_slow must be in [0, 1], got {p_slow}")
    target = {"matrix": matrix, "method": method, "procs": procs, "seed": seed}
    warm_msg: dict = {"op": "partition", **target}
    if inject_kill:
        warm_msg["fault"] = {"kill_worker": True}

    def session(client_id, pool, expected, counts):
        pick = np.random.default_rng(
            np.random.SeedSequence((chaos_seed, client_id, 0x50AC))
        )
        rc = RetryingClient(
            socket_path,
            seed=chaos_seed * 1000 + client_id,
            max_attempts=max_attempts,
            total_deadline_s=total_deadline_s,
            attempt_deadline_s=attempt_deadline_s,
            connect_timeout_s=timeout,
        )
        try:
            yield
            while True:
                idx = int(pick.integers(vector_pool))
                fault = None
                if p_slow > 0 and float(pick.uniform()) < p_slow:
                    fault = {"slow_ms": slow_ms}
                counts["requests"] += 1
                t0 = time.perf_counter()
                try:
                    resp, y = rc.matvec(
                        matrix, pool[idx], method=method, procs=procs,
                        seed=seed, encoding=encoding, fault=fault,
                    )
                except ResilienceError:
                    # visible failure: never acknowledged, never wrong
                    counts["failed"] += 1
                    yield None
                    continue
                latency = time.perf_counter() - t0
                if not resp.get("ok"):
                    counts["failed"] += 1
                    yield latency
                    continue
                counts["answered"] += 1
                if fault is not None and "slow_engine" in resp:
                    counts["slow_injected"] += 1
                if y is None:
                    counts["lost_acked"] += 1
                elif not np.array_equal(y, expected[idx]):
                    counts["divergences"] += 1
                    counts["lost_acked"] += 1
                yield latency
        finally:
            rc.close()
            for k in ("deduped", "retries", "attempts", "shed_seen", "draining_seen"):
                counts[k] += rc.stats[k]
            counts["breaker_opens"] += rc.breaker.opens

    warm, counts, shared = _closed_loop(
        warm_socket_path or socket_path,
        warm_msg,
        session,
        seed=seed,
        concurrency=concurrency,
        requests_per_client=requests_per_client,
        vector_pool=vector_pool,
        check=True,
        timeout=timeout,
        join_timeout=timeout + total_deadline_s * requests_per_client,
    )
    elapsed = shared["elapsed_seconds"]
    return ChaosSoakResult(
        matrix=matrix,
        method=method,
        procs=procs,
        seed=seed,
        chaos_seed=chaos_seed,
        concurrency=concurrency,
        requests=counts["requests"],
        answered=counts["answered"],
        failed=counts["failed"],
        divergences=counts["divergences"],
        lost_acked=counts["lost_acked"],
        deduped=counts["deduped"],
        retries=counts["retries"],
        attempts=counts["attempts"],
        shed_seen=counts["shed_seen"],
        draining_seen=counts["draining_seen"],
        breaker_opens=counts["breaker_opens"],
        throughput_rps=counts["answered"] / elapsed if elapsed > 0 else 0.0,
        injected_semantic={
            "kill_worker": int(warm.get("worker_deaths", 0)),
            "slow_engine": counts["slow_injected"],
        },
        **shared,
    )
