"""Partition-as-a-service: a long-lived batched matvec server.

The paper's economic argument is amortization — pay for a good 2D
partition once, reuse it across many matrix computations. Every other
entry point in this repo is a one-shot CLI that rebuilds state per call;
this package is the long-lived counterpart:

:mod:`~repro.serve.protocol`
    JSON-line wire protocol over a unix socket with an optional raw
    binary frame for vectors, CRC-32 frame integrity, plus the
    synchronous client.
:mod:`~repro.serve.residency`
    Engine residency: compiled :class:`~repro.runtime.engine.SpmvEngine`
    instances kept hot behind an LRU keyed by the same content-hash keys
    as the on-disk partition cache.
:mod:`~repro.serve.batching`
    Micro-batching: concurrent matvec requests on one matrix coalesce
    into a single ``spmm`` call, bit-identical per column to serial
    per-request answers; bounded queues shed load at admission.
:mod:`~repro.serve.server`
    The asyncio server: pipelined request dispatch, idempotency-keyed
    retry dedup, admission control with explicit shedding, graceful
    drain, cold-matrix partitioning over a resilient worker pool with
    timeout/retry/degradation, fault injection (a real worker death, a
    real slow-engine stall) counted in the server's fault events.
:mod:`~repro.serve.resilience`
    Client-side resilience: :class:`RetryingClient` with seeded
    decorrelated-jitter backoff and a circuit breaker, retry-safe
    through server-side idempotency.
:mod:`~repro.serve.chaos`
    Seeded wire-level fault injection: :class:`ChaosProxy` tears,
    corrupts, resets, delays and drops response frames from a
    deterministic schedule, with an executed-injection ledger.
:mod:`~repro.serve.loadgen`
    Seeded closed-loop load generator producing the p50/p99/throughput
    numbers ``benchmarks/bench_serve_load.py`` gates on, plus the chaos
    soak ``benchmarks/bench_serve_chaos.py`` gates on (bit-identical
    answers under every chaos schedule).
"""

from .batching import MicroBatcher, QueueFull
from .chaos import ChaosProxy, ChaosProxyHandle, ChaosSchedule, start_chaos_proxy
from .loadgen import (
    ChaosSoakResult,
    LoadgenResult,
    run_chaos_soak,
    run_loadgen,
)
from .protocol import (
    DeadlineExceeded,
    ProtocolError,
    ServeClient,
    decode_vector,
    encode_vector,
)
from .resilience import (
    BackoffPolicy,
    CircuitBreaker,
    CircuitOpen,
    RetriesExhausted,
    RetryingClient,
)
from .residency import EngineResidency, ResidentEngine
from .server import MatvecServer, ServeConfig, ServerHandle, start_in_thread

__all__ = [
    "BackoffPolicy",
    "ChaosProxy",
    "ChaosProxyHandle",
    "ChaosSchedule",
    "ChaosSoakResult",
    "CircuitBreaker",
    "CircuitOpen",
    "DeadlineExceeded",
    "EngineResidency",
    "LoadgenResult",
    "MatvecServer",
    "MicroBatcher",
    "ProtocolError",
    "QueueFull",
    "ResidentEngine",
    "RetriesExhausted",
    "RetryingClient",
    "ServeClient",
    "ServeConfig",
    "ServerHandle",
    "decode_vector",
    "encode_vector",
    "run_chaos_soak",
    "run_loadgen",
    "start_chaos_proxy",
    "start_in_thread",
]
