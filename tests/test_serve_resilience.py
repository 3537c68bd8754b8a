"""Client resilience + chaos harness: determinism, dedup, detection.

The contracts under test:

* **determinism** — backoff schedules, breaker transitions and chaos
  injection decisions are pure functions of their seeds and injected
  clocks: the same seed replays the same run, byte for byte;
* **idempotency** — a retried request (same ``idem`` key) is answered
  from the server's dedup table, bit-identical, never recomputed into a
  second batch slot;
* **detection** — corrupted frames NEVER parse as clean answers: every
  wire corruption surfaces as :class:`ProtocolError` (CRC/JSON) or
  :class:`DeadlineExceeded`, all retryable;
* **end to end** — a :class:`RetryingClient` soak through a seeded
  :class:`ChaosProxy` answers every request bit-identical to a locally
  built reference engine, with zero lost acknowledged requests.

Hermetic like ``test_serve.py``: generated matrix, private partition
cache, short ``/tmp`` socket paths, in-process server and proxy.
"""

from __future__ import annotations

import os
import tempfile
import threading
import types

import numpy as np
import pytest

from repro.generators import rmat
from repro.io import write_matrix_market
from repro.serve import (
    BackoffPolicy,
    ChaosProxy,
    ChaosSchedule,
    CircuitBreaker,
    CircuitOpen,
    DeadlineExceeded,
    ProtocolError,
    RetriesExhausted,
    RetryingClient,
    ServeClient,
    ServeConfig,
    start_chaos_proxy,
    start_in_thread,
)
from repro.serve.chaos import WIRE_FAULT_KINDS
from repro.serve.loadgen import reference_engine, run_chaos_soak, run_loadgen

PROCS = 4


def _short_tmpdir() -> str:
    # AF_UNIX paths are limited to ~107 bytes; pytest tmp_path nests too deep
    return tempfile.mkdtemp(prefix="rr-", dir="/tmp")


class _FakeClock:
    """Deterministic monotonic clock whose sleep just advances time."""

    def __init__(self) -> None:
        self.t = 0.0
        self.sleeps: list[float] = []

    def __call__(self) -> float:
        return self.t

    def sleep(self, seconds: float) -> None:
        self.sleeps.append(seconds)
        self.t += seconds


# ---------------------------------------------------------------------------
# backoff policy
# ---------------------------------------------------------------------------


def test_backoff_policy_deterministic_and_bounded():
    a = BackoffPolicy(base_s=0.05, cap_s=2.0, seed=13)
    b = BackoffPolicy(base_s=0.05, cap_s=2.0, seed=13)
    prev_a = prev_b = 0.05
    seq_a, seq_b = [], []
    for _ in range(32):
        prev_a = a.next(prev_a)
        prev_b = b.next(prev_b)
        seq_a.append(prev_a)
        seq_b.append(prev_b)
    assert seq_a == seq_b  # same seed, same schedule, exactly
    assert all(0.05 <= s <= 2.0 for s in seq_a)
    other = BackoffPolicy(base_s=0.05, cap_s=2.0, seed=14)
    assert [other.next(0.05) for _ in range(4)] != seq_a[:4]


def test_backoff_policy_honors_floor_and_validates():
    p = BackoffPolicy(base_s=0.01, cap_s=10.0, seed=0)
    assert all(p.next(0.01, floor_s=0.5) >= 0.5 for _ in range(16))
    with pytest.raises(ValueError):
        BackoffPolicy(base_s=0.0)
    with pytest.raises(ValueError):
        BackoffPolicy(base_s=1.0, cap_s=0.5)


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


def test_circuit_breaker_opens_probes_and_closes():
    clock = _FakeClock()
    b = CircuitBreaker(
        window=6, failure_threshold=0.5, min_calls=3, reset_timeout_s=1.0,
        clock=clock,
    )
    assert b.state == "closed" and b.allow()
    b.record(False)
    b.record(False)
    assert b.state == "closed"  # below min_calls: stays closed
    b.record(False)
    assert b.state == "open" and b.opens == 1
    assert not b.allow()
    assert b.seconds_until_probe() == pytest.approx(1.0)

    clock.t += 1.0
    assert b.allow()  # half-open: exactly one probe
    assert b.state == "half-open"
    assert not b.allow()  # second caller refused while probe in flight
    b.record(True)
    assert b.state == "closed" and b.failure_rate() == 0.0

    # a failed probe re-opens and restarts the timeout
    for _ in range(3):
        b.record(False)
    clock.t += 1.0
    assert b.allow()
    b.record(False)
    assert b.state == "open" and b.opens == 3
    assert b.seconds_until_probe() == pytest.approx(1.0)


def test_circuit_breaker_validates():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0.0)
    with pytest.raises(ValueError):
        CircuitBreaker(window=0)


# ---------------------------------------------------------------------------
# retrying client (stubbed attempts: no sockets, fake time)
# ---------------------------------------------------------------------------


def _stub_client(clock: _FakeClock, outcomes, **kw) -> RetryingClient:
    """A RetryingClient whose attempts replay *outcomes* (exc or response)."""
    kw.setdefault("total_deadline_s", 1e9)
    client = RetryingClient(
        "/nonexistent.sock", clock=clock, sleep=clock.sleep, **kw
    )
    it = iter(outcomes)

    def attempt(msg, x, encoding, idem, remaining):
        out = next(it)
        if isinstance(out, BaseException):
            raise out
        return out, None

    client._attempt = attempt
    return client


def test_retrying_client_backoff_schedule_is_seeded():
    def run(seed):
        clock = _FakeClock()
        client = _stub_client(
            clock, [ConnectionError("boom")] * 5, seed=seed, max_attempts=5
        )
        with pytest.raises(RetriesExhausted) as err:
            client.request({"op": "matvec"})
        assert err.value.attempts == 5
        assert client.stats["retries"] == 5
        return clock.sleeps

    first, second = run(seed=21), run(seed=21)
    assert first == second  # bitwise-identical replay under a fixed seed
    assert len(first) == 5
    assert run(seed=22) != first

    # and the sleeps are exactly the BackoffPolicy sequence for that seed
    policy = BackoffPolicy(seed=21)
    prev, expect = policy.base_s, []
    for _ in range(5):
        prev = policy.next(prev, floor_s=0.0)
        expect.append(prev)
    assert first == expect


def test_retrying_client_shed_uses_retry_after_floor():
    clock = _FakeClock()
    shed = {"ok": False, "shed": True, "retry_after_s": 0.25, "error": "full"}
    done = {"ok": True, "id": "x"}
    client = _stub_client(clock, [shed, done], seed=3)
    resp, _ = client.request({"op": "matvec"})
    assert resp["ok"]
    assert client.stats["shed_seen"] == 1
    assert client.stats["attempts"] == 2
    assert len(clock.sleeps) == 1
    assert clock.sleeps[0] >= 0.25  # the server's hint floors the jitter


def test_retrying_client_returns_application_errors_verbatim():
    clock = _FakeClock()
    app_err = {"ok": False, "error": "unknown matrix 'nope'"}
    client = _stub_client(clock, [app_err], seed=0)
    resp, _ = client.request({"op": "matvec", "matrix": "nope"})
    assert resp == app_err  # deterministic server answer: not retried
    assert client.stats["attempts"] == 1 and clock.sleeps == []


def test_retrying_client_raises_circuit_open_past_deadline():
    clock = _FakeClock()
    breaker = CircuitBreaker(
        window=4, failure_threshold=0.5, min_calls=2, reset_timeout_s=50.0,
        clock=clock,
    )
    client = _stub_client(
        clock,
        [ConnectionError("a"), ConnectionError("b")],
        seed=0,
        max_attempts=10,
        total_deadline_s=5.0,
        breaker=breaker,
    )
    with pytest.raises(CircuitOpen):
        client.request({"op": "matvec"})
    assert breaker.opens == 1


def test_retrying_client_idem_keys_unique_across_instances():
    clock = _FakeClock()
    a = _stub_client(clock, [], seed=0)
    b = _stub_client(clock, [], seed=0)
    keys = {a.next_idem() for _ in range(8)} | {b.next_idem() for _ in range(8)}
    assert len(keys) == 16


# ---------------------------------------------------------------------------
# chaos schedule + proxy decisions (no sockets)
# ---------------------------------------------------------------------------


def test_chaos_schedule_validates():
    with pytest.raises(ValueError):
        ChaosSchedule(p_torn=-0.1)
    with pytest.raises(ValueError):
        ChaosSchedule(p_torn=0.6, p_drop=0.6)  # sum > 1
    with pytest.raises(ValueError):
        ChaosSchedule(delay_ms=-1.0)


def test_chaos_decisions_pure_in_seed_conn_frame():
    sched = ChaosSchedule(
        seed=7, p_torn=0.1, p_corrupt=0.1, p_reset=0.1, p_delay=0.1, p_drop=0.1
    )
    a = ChaosProxy("up", "down", sched)
    b = ChaosProxy("up", "down", sched)
    grid = [(c, f) for c in range(6) for f in range(24)]

    def decide(p, c, f):
        d = p._decide(c, f)
        return d[0] if d else None

    seq_a = [decide(a, c, f) for c, f in grid]
    assert seq_a == [decide(b, c, f) for c, f in grid]
    assert set(seq_a) - {None} == set(WIRE_FAULT_KINDS)  # all classes land

    other = ChaosProxy("up", "down", ChaosSchedule(seed=8, p_drop=0.5))
    assert seq_a != [decide(other, c, f) for c, f in grid]

    silent = ChaosProxy("up", "down", ChaosSchedule(seed=7))
    assert all(decide(silent, c, f) is None for c, f in grid)


def test_chaos_fault_parameters_replay_with_decision():
    sched = ChaosSchedule(seed=5, p_corrupt=1.0)
    a, b = ChaosProxy("u", "d", sched), ChaosProxy("u", "d", sched)
    for conn, frame in [(0, 0), (1, 3), (2, 7)]:
        _, rng_a = a._decide(conn, frame)
        _, rng_b = b._decide(conn, frame)
        # the rng continuing the stream makes byte positions/masks replay
        assert rng_a.integers(1 << 30) == rng_b.integers(1 << 30)


# ---------------------------------------------------------------------------
# live server + proxy: dedup, detection, soak
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def serve_env():
    tmp = _short_tmpdir()
    cache_dir = os.path.join(tmp, "cache")
    os.makedirs(cache_dir)
    old_cache = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = cache_dir

    A = rmat(scale=8, edge_factor=8, seed=11)
    mtx = os.path.join(tmp, "tiny.mtx")
    write_matrix_market(mtx, A)

    config = ServeConfig(
        socket_path=os.path.join(tmp, "s.sock"),
        max_batch=8,
        batch_deadline_ms=2.0,
        allow_fault_injection=True,
    )
    handle = start_in_thread(config)
    env = {"A": A, "mtx": mtx, "sock": config.socket_path, "tmp": tmp}
    try:
        # warm the engine once: every test below measures steady state
        with ServeClient(config.socket_path) as c:
            resp, _ = c.request(
                {"op": "partition", "matrix": mtx, "procs": PROCS, "seed": 0}
            )
            assert resp.get("ok"), resp
        yield env
    finally:
        try:
            with ServeClient(config.socket_path, timeout=10.0) as c:
                c.request({"op": "shutdown"})
        except OSError:
            pass
        handle.stop()
        if old_cache is None:
            os.environ.pop("REPRO_CACHE_DIR", None)
        else:
            os.environ["REPRO_CACHE_DIR"] = old_cache


def _target(env) -> dict:
    return {"op": "matvec", "matrix": env["mtx"], "procs": PROCS, "seed": 0}


def test_idempotent_retry_answered_from_dedup_table(serve_env):
    n = serve_env["A"].shape[0]
    x = np.random.default_rng(0).standard_normal(n)
    with ServeClient(serve_env["sock"]) as c:
        first, y1 = c.request({**_target(serve_env), "idem": "k-dup"}, x=x)
        assert first.get("ok") and not first.get("deduped")
        # a retry of the same logical request: new wire id, same idem key
        second, y2 = c.request({**_target(serve_env), "idem": "k-dup"}, x=x)
    assert second.get("ok") and second.get("deduped") is True
    assert np.array_equal(y1, y2)  # bit-identical, answered from the table


def test_idempotent_retry_deduped_while_inflight(serve_env):
    """A duplicate arriving while the original is still computing waits
    on the same future — one computation, two identical answers."""
    n = serve_env["A"].shape[0]
    x = np.random.default_rng(1).standard_normal(n)
    msg = {
        **_target(serve_env),
        "idem": "k-inflight",
        "fault": {"slow_ms": 250.0},
    }
    out: dict[str, tuple] = {}

    def call(tag):
        with ServeClient(serve_env["sock"]) as c:
            out[tag] = c.request(dict(msg), x=x)

    t1 = threading.Thread(target=call, args=("a",))
    t2 = threading.Thread(target=call, args=("b",))
    t1.start()
    t2.start()
    t1.join(30)
    t2.join(30)
    (ra, ya), (rb, yb) = out["a"], out["b"]
    assert ra.get("ok") and rb.get("ok")
    assert np.array_equal(ya, yb)
    assert ra.get("deduped") or rb.get("deduped")  # exactly one computed
    assert not (ra.get("deduped") and rb.get("deduped"))


def test_corruption_always_detected_never_silent(serve_env):
    """Under 100% response corruption no request may return clean: every
    one must surface as ProtocolError (CRC / JSON) or DeadlineExceeded."""
    listen = os.path.join(serve_env["tmp"], "corrupt.sock")
    proxy = start_chaos_proxy(
        serve_env["sock"], listen, ChaosSchedule(seed=3, p_corrupt=1.0)
    )
    n = serve_env["A"].shape[0]
    x = np.random.default_rng(2).standard_normal(n)
    detected = 0
    try:
        for i in range(6):
            with ServeClient(listen) as c:
                with pytest.raises((ProtocolError, DeadlineExceeded)):
                    c.request(_target(serve_env), x=x, deadline=1.0)
                detected += 1
    finally:
        proxy.stop()
    assert detected == 6
    assert proxy.proxy.executed_counts()["corrupt"] >= 6


def test_retrying_client_bit_identical_through_chaos(serve_env):
    """The headline contract, in miniature: every answered request under
    an all-classes chaos schedule matches the local reference engine."""
    listen = os.path.join(serve_env["tmp"], "mix.sock")
    schedule = ChaosSchedule(
        seed=7, p_torn=0.06, p_corrupt=0.08, p_reset=0.06, p_delay=0.1,
        p_drop=0.06, delay_ms=2.0,
    )
    engine, n = reference_engine(serve_env["mtx"], "2d-gp", PROCS, 0)
    rng = np.random.default_rng(3)
    xs = rng.standard_normal((12, n))
    proxy = start_chaos_proxy(serve_env["sock"], listen, schedule)
    try:
        with RetryingClient(
            listen, seed=7, max_attempts=10, total_deadline_s=60.0,
            attempt_deadline_s=2.0,
        ) as client:
            for i in range(12):
                resp, y = client.matvec(
                    serve_env["mtx"], xs[i], procs=PROCS, seed=0
                )
                assert resp.get("ok"), resp
                assert np.array_equal(y, engine.spmv(xs[i]))
        stats = dict(client.stats)
        executed = proxy.proxy.executed_counts()
    finally:
        proxy.stop()
    assert stats["requests"] == 12
    assert sum(executed.values()) >= 1  # the schedule actually fired
    # retries that reached the server were deduped, not recomputed
    assert stats["deduped"] <= stats["retries"]


def test_chaos_soak_invariants(serve_env):
    """run_chaos_soak end to end: zero divergences, zero lost acks."""
    listen = os.path.join(serve_env["tmp"], "soak.sock")
    schedule = ChaosSchedule(
        seed=9, p_torn=0.05, p_corrupt=0.05, p_reset=0.05, p_delay=0.08,
        p_drop=0.05, delay_ms=2.0,
    )
    proxy = start_chaos_proxy(serve_env["sock"], listen, schedule)
    try:
        res = run_chaos_soak(
            listen,
            serve_env["mtx"],
            procs=PROCS,
            seed=0,
            warm_socket_path=serve_env["sock"],
            chaos_seed=9,
            concurrency=2,
            requests_per_client=6,
            attempt_deadline_s=2.0,
            total_deadline_s=60.0,
            p_slow=0.25,
            slow_ms=2.0,
        )
        res.injected_wire = proxy.proxy.executed_counts()
    finally:
        proxy.stop()
    assert res.requests == 12
    assert res.answered == 12 and res.failed == 0
    assert res.divergences == 0 and res.lost_acked == 0
    assert res.injected_semantic["slow_engine"] >= 1
    d = res.as_dict()
    assert d["divergences"] == 0 and d["lost_acked"] == 0


def test_loadgen_deadline_counts_timeouts_separately(serve_env):
    """Dropped responses expire the per-request deadline and land in the
    distinct ``timeouts`` class — not errors, not divergences.

    seed=5 is chosen so the warm-up and priming frames pass while later
    response frames drop (decisions are pure in (seed, conn, frame)).
    """
    listen = os.path.join(serve_env["tmp"], "drop.sock")
    proxy = start_chaos_proxy(
        serve_env["sock"], listen, ChaosSchedule(seed=5, p_drop=0.5)
    )
    try:
        res = run_loadgen(
            listen,
            serve_env["mtx"],
            procs=PROCS,
            seed=0,
            concurrency=1,
            requests_per_client=8,
            vector_pool=4,
            deadline=0.5,
            timeout=30.0,
        )
        dropped = proxy.proxy.executed_counts()["drop"]
    finally:
        proxy.stop()
    assert res.timeouts >= 1 and dropped >= 1
    assert res.requests + res.timeouts == 8  # every issue is accounted
    assert res.errors == 0 and res.divergences == 0
    assert res.as_dict()["timeouts"] == res.timeouts


class _WarmOnlyClient:
    """Fake ServeClient: the first connection answers the warm-up, every
    later one (a session's) is refused."""

    connected = 0

    def __init__(self, socket_path, timeout=None):
        type(self).connected += 1
        if type(self).connected > 1:
            raise ConnectionRefusedError(f"refused: {socket_path}")

    def request(self, msg, x=None, **kw):
        return {"ok": True, "op": msg["op"], "n": 4}, None

    def close(self):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def _raised_within(fn, seconds: float = 30.0) -> Exception | None:
    """Run *fn* on a thread; fail the test if it has not returned in time."""
    box: dict = {}

    def target():
        try:
            fn()
        except Exception as exc:
            box["exc"] = exc

    t = threading.Thread(target=target, daemon=True)
    t.start()
    t.join(seconds)
    assert not t.is_alive(), f"closed loop still running after {seconds}s"
    return box.get("exc")


@pytest.fixture
def fake_loop(monkeypatch):
    monkeypatch.setattr(_WarmOnlyClient, "connected", 0)
    monkeypatch.setattr("repro.serve.loadgen.ServeClient", _WarmOnlyClient)
    identity = types.SimpleNamespace(spmv=lambda x: x)
    monkeypatch.setattr(
        "repro.serve.loadgen.reference_engine", lambda *args: (identity, 4)
    )


def test_loadgen_raises_the_session_connect_error(fake_loop):
    """A session that cannot connect before the start must surface its own
    error, not the start barrier's BrokenBarrierError."""
    exc = _raised_within(
        lambda: run_loadgen("serve.sock", "m", concurrency=2, timeout=5.0)
    )
    assert isinstance(exc, ConnectionRefusedError), repr(exc)


def test_chaos_soak_raises_the_session_setup_error(fake_loop):
    """A session whose client cannot be built must fail the soak with that
    error instead of leaving the start barrier waiting forever."""
    exc = _raised_within(
        lambda: run_chaos_soak(
            "proxy.sock", "m", warm_socket_path="serve.sock",
            concurrency=2, max_attempts=0, timeout=5.0,
        )
    )
    assert isinstance(exc, ValueError) and "max_attempts" in str(exc), repr(exc)
