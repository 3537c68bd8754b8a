"""The serve layer: lifecycle, batching exactness, residency, resilience.

The contracts under test:

* **lifecycle** — a server boots on a unix socket, answers health, and
  shuts down cleanly (socket removed, thread joined);
* **exactness** — a batched answer is bit-identical to the serial
  ``spmv`` of a locally built reference engine, whatever the wire
  encoding and whatever batch the request landed in;
* **residency** — engines stay hot behind the LRU and evict in LRU
  order under count and byte bounds;
* **resilience** — a killed partition worker is retried, counted and
  logged, and the request completes; a pool that cannot deliver
  degrades to the in-process reference path; a ``fault`` object with a
  key the server does not know is refused, and so is any top-level key
  its op does not accept, a layout, ``procs`` or ``seed`` that is not
  one, and a shutdown mode other than ``drain`` or ``now``;
* **disk tier** — an engine is served from the artifact store only if
  the running code compiled it, and serving one (a stalled request
  included) builds no distribution.

Everything runs hermetically: a generated matrix written to a temp
MatrixMarket file, a private partition-cache directory, short ``/tmp``
socket paths (the AF_UNIX 107-byte limit), and in-process servers.
"""

from __future__ import annotations

import asyncio
import json
import os
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.generators import rmat
from repro.io import write_matrix_market
from repro.parallel import PoolTaskFailed, ResilientPool
from repro.perf import SpanRecorder
from repro.serve import (
    MatvecServer,
    MicroBatcher,
    ProtocolError,
    ServeClient,
    ServeConfig,
    start_in_thread,
)
from repro.serve.loadgen import reference_engine, run_loadgen
from repro.serve.protocol import decode_vector, encode_message, encode_vector
from repro.serve.residency import EngineKey, EngineResidency, ResidentEngine

PROCS = 4


def _short_tmpdir() -> tempfile.TemporaryDirectory:
    # AF_UNIX paths are limited to ~107 bytes; pytest tmp_path nests too deep
    return tempfile.TemporaryDirectory(prefix="rs-", dir="/tmp")


@pytest.fixture
def short_tmp():
    """A short /tmp directory, removed with everything in it at teardown."""
    with _short_tmpdir() as tmp:
        yield tmp


# ---------------------------------------------------------------------------
# shared server: one matrix, one fault-injectable server for the module
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def serve_env():
    with _short_tmpdir() as tmp:
        cache_dir = os.path.join(tmp, "cache")
        os.makedirs(cache_dir)
        old_cache = os.environ.get("REPRO_CACHE_DIR")
        os.environ["REPRO_CACHE_DIR"] = cache_dir

        A = rmat(scale=9, edge_factor=8, seed=7)
        mtx = os.path.join(tmp, "tiny.mtx")
        write_matrix_market(mtx, A)

        config = ServeConfig(
            socket_path=os.path.join(tmp, "s.sock"),
            max_batch=8,
            batch_deadline_ms=2.0,
            allow_fault_injection=True,
        )
        handle = start_in_thread(config)
        env = {
            "A": A,
            "mtx": mtx,
            "sock": config.socket_path,
            "handle": handle,
            "cache_dir": cache_dir,
            "tmp": tmp,
        }
        try:
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


def _matvec(client, env, x, seed=0, encoding="bin", **extra):
    return client.request(
        {"op": "matvec", "matrix": env["mtx"], "procs": PROCS, "seed": seed, **extra},
        x=x,
        encoding=encoding,
    )


# ---------------------------------------------------------------------------
# lifecycle
# ---------------------------------------------------------------------------


def test_health_roundtrip(serve_env):
    with ServeClient(serve_env["sock"]) as c:
        resp, y = c.request({"op": "health", "id": 42})
        assert resp["ok"] and resp["id"] == 42 and y is None
        assert resp["uptime_seconds"] >= 0
        assert resp["resident"] >= 0


def test_start_and_clean_shutdown(short_tmp):
    sock = os.path.join(short_tmp, "x.sock")
    handle = start_in_thread(ServeConfig(socket_path=sock))
    assert os.path.exists(sock)
    with ServeClient(sock) as c:
        resp, _ = c.request({"op": "health"})
        assert resp["ok"]
        resp, _ = c.request({"op": "shutdown"})
        assert resp["ok"]
    handle.stop()
    assert not os.path.exists(sock)
    handle.stop()  # idempotent


# ---------------------------------------------------------------------------
# matvec exactness and batching
# ---------------------------------------------------------------------------


def test_matvec_bit_identical_across_encodings(serve_env):
    n = serve_env["A"].shape[0]
    x = np.random.default_rng(1).standard_normal(n)
    engine, n_ref = reference_engine(serve_env["mtx"], "2d-gp", PROCS, 0)
    assert n_ref == n
    expected = engine.spmv(x)
    with ServeClient(serve_env["sock"], timeout=300.0) as c:
        for encoding in ("bin", "b64", "list"):
            resp, y = _matvec(c, serve_env, x, encoding=encoding)
            assert resp["ok"], resp.get("error")
            assert np.array_equal(y, expected)
            assert resp["batch_size"] >= 1
            assert set(resp["spans_ms"]) >= {"queue", "batch", "compute"}


def test_lone_request_flushes_on_deadline(serve_env):
    n = serve_env["A"].shape[0]
    x = np.random.default_rng(2).standard_normal(n)
    with ServeClient(serve_env["sock"], timeout=300.0) as c:
        _matvec(c, serve_env, x)  # ensure warm
        resp, _ = _matvec(c, serve_env, x)
        assert resp["ok"] and resp["batch_size"] == 1
        # a lone warm request's wait is bounded by the batch deadline plus
        # scheduling noise, nowhere near a size-8 pileup
        assert resp["spans_ms"]["batch"] < 1000.0


def test_concurrent_requests_coalesce_and_match_serial(serve_env):
    result = run_loadgen(
        serve_env["sock"],
        serve_env["mtx"],
        procs=PROCS,
        concurrency=4,
        requests_per_client=10,
        check=True,
    )
    assert result.requests == 40
    assert result.errors == 0
    assert result.divergences == 0  # bit-identity under coalescing
    assert result.mean_batch_size > 1.0  # batching actually happened
    assert result.throughput_rps > 0


def test_concurrent_mixed_matvec_and_partition(serve_env):
    n = serve_env["A"].shape[0]
    x = np.random.default_rng(3).standard_normal(n)
    results: dict[str, dict] = {}

    def matvecs():
        with ServeClient(serve_env["sock"], timeout=300.0) as c:
            for _ in range(5):
                resp, _ = _matvec(c, serve_env, x)
                assert resp["ok"], resp.get("error")
            results["matvec"] = resp

    def partition():
        with ServeClient(serve_env["sock"], timeout=300.0) as c:
            resp, _ = c.request(
                {"op": "partition", "matrix": serve_env["mtx"],
                 "procs": PROCS, "seed": 5}
            )
            results["partition"] = resp

    threads = [threading.Thread(target=matvecs), threading.Thread(target=partition)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120)
    assert results["matvec"]["ok"]
    assert results["partition"]["ok"] and results["partition"]["resident"]


# ---------------------------------------------------------------------------
# fault injection and degradation
# ---------------------------------------------------------------------------


def test_worker_death_is_retried_and_counted(serve_env):
    with ServeClient(serve_env["sock"], timeout=300.0) as c:
        resp, _ = c.request({
            "op": "partition", "matrix": serve_env["mtx"], "procs": PROCS,
            "seed": 77, "fault": {"kill_worker": True},
        })
        assert resp["ok"], resp.get("error")
        assert resp["worker_deaths"] >= 1
        assert not resp["degraded"]  # the retry completed on the pool
        assert resp["partition_source"] == "pool"
        assert "recovery" not in resp

        stats, _ = c.request({"op": "stats"})
        assert stats["pool"]["deaths"] >= 1
        deaths = [e for e in stats["fault_events"] if e["kind"] == "worker-death"]
        assert deaths and deaths[-1]["deaths"] >= 1
        assert "recovery" not in deaths[-1]


@pytest.mark.parametrize(
    "fault", [{"kill_workr": True}, {"slow_ms": 5.0, "straggler_factor": 8.0}]
)
def test_unknown_fault_keys_are_refused(serve_env, fault):
    """A misspelled or retired fault key is an error, never a no-op."""
    n = serve_env["A"].shape[0]
    with ServeClient(serve_env["sock"], timeout=300.0) as c:
        resp, y = _matvec(c, serve_env, np.ones(n), fault=fault)
        assert not resp["ok"] and y is None
        assert "unknown fault key" in resp["error"]
        assert "kill_worker" in resp["error"] and "slow_ms" in resp["error"]


def test_fault_injection_rejected_when_disabled(short_tmp):
    sock = os.path.join(short_tmp, "nf.sock")
    handle = start_in_thread(ServeConfig(socket_path=sock))
    try:
        with ServeClient(sock) as c:
            resp, _ = c.request({
                "op": "partition", "matrix": "nope", "procs": 2,
                "fault": {"kill_worker": True},
            })
            assert not resp["ok"]
            assert "fault injection" in resp["error"]
    finally:
        with ServeClient(sock) as c:
            c.request({"op": "shutdown"})
        handle.stop()


def test_pool_timeout_degrades_to_reference_path(serve_env, short_tmp):
    sock = os.path.join(short_tmp, "dg.sock")
    # a timeout no partition can meet, and no retry budget: the pool path
    # must fail and the server must still answer via the inline reference
    handle = start_in_thread(ServeConfig(
        socket_path=sock, partition_timeout_s=1e-3, partition_retries=0,
    ))
    try:
        with ServeClient(sock, timeout=300.0) as c:
            resp, _ = c.request({
                "op": "partition", "matrix": serve_env["mtx"],
                "procs": PROCS, "seed": 88,
            })
            assert resp["ok"], resp.get("error")
            assert resp["degraded"]
            assert resp["partition_source"] == "inline-reference"
            assert any("timed out" in c_ for c_ in resp["degraded_causes"])
            c.request({"op": "shutdown"})
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# protocol errors
# ---------------------------------------------------------------------------


def test_protocol_errors_keep_connection_alive(serve_env):
    n = serve_env["A"].shape[0]
    with ServeClient(serve_env["sock"], timeout=300.0) as c:
        resp, _ = c.request({"op": "frobnicate"})
        assert not resp["ok"] and "unknown op" in resp["error"]
        resp, _ = c.request({"op": "matvec"})  # no matrix
        assert not resp["ok"] and "matrix" in resp["error"]
        resp, _ = c.request(
            {"op": "matvec", "matrix": serve_env["mtx"], "procs": PROCS},
            x=np.ones(n + 3),
        )
        assert not resp["ok"] and "length" in resp["error"]
        resp, _ = c.request({"op": "matvec", "matrix": "no-such", "procs": PROCS},
                            x=np.ones(4))
        assert not resp["ok"]
        assert resp["error"] == "matrix 'no-such' is neither a corpus name nor a file"
        # and the same connection still serves good requests
        resp, y = _matvec(c, serve_env, np.ones(n))
        assert resp["ok"] and y is not None


def test_misspelled_request_keys_are_refused(serve_env):
    """A key its op does not accept is an error naming the key, never a
    silent default (a misspelled ``procs`` once served the default engine)."""
    n = serve_env["A"].shape[0]
    target = {"matrix": serve_env["mtx"], "method": "2d-gp", "procs": PROCS}
    with ServeClient(serve_env["sock"], timeout=300.0) as c:
        typo = {"op": "matvec", "matrix": serve_env["mtx"], "proc": PROCS}
        resp, y = c.request({**typo, "methd": "2d-random"}, x=np.ones(n))
        assert not resp["ok"] and y is None
        assert "'methd'" in resp["error"] and "'proc'" in resp["error"]
        resp, _ = c.request({"op": "health", "verbose": True})
        assert not resp["ok"] and "'verbose'" in resp["error"]
        resp, _ = c.request({"op": "partition", "matrices": [serve_env["mtx"]]})
        assert not resp["ok"] and "'matrices'" in resp["error"]
        # the keys in-repo clients send are accepted, in every encoding
        msg = {"op": "matvec", **target, "seed": 0, "idem": "keys-1"}
        for encoding in ("bin", "b64", "list"):
            resp, y = c.request(msg, x=np.ones(n), encoding=encoding)
            assert resp["ok"] and y is not None


def test_vector_encodings_roundtrip():
    y = np.linspace(-3.0, 3.0, 17)
    for encoding in ("list", "b64", "bin"):
        wire = encode_vector({"id": 1}, y, encoding)
        line, _, payload = wire.partition(b"\n")
        msg = json.loads(line)
        out, enc = decode_vector(msg, payload or None)
        assert enc == encoding
        assert np.array_equal(out, y)
    with pytest.raises(ProtocolError):
        encode_vector({}, y, "hex")
    with pytest.raises(ProtocolError):
        decode_vector({}, b"abc")  # not a float64 buffer
    assert decode_vector({}, None) == (None, "bin")
    assert encode_message({"a": 1}).endswith(b"\n")


# ---------------------------------------------------------------------------
# residency
# ---------------------------------------------------------------------------


def _entry(key_seed: int, nbytes: int = 100) -> ResidentEngine:
    class _Eng:
        n = 4

        def __init__(self, nb):
            self.nbytes = nb

    key = EngineKey("h" * 12, "2d-gp", 4, key_seed)
    return ResidentEngine(key=key, matrix="m", engine=_Eng(nbytes))


def test_residency_lru_and_byte_bounds():
    res = EngineResidency(max_engines=2)
    assert res.admit(_entry(0)) == []
    assert res.admit(_entry(1)) == []
    assert res.get(_entry(0).key) is not None  # refreshes 0's recency
    evicted = res.admit(_entry(2))  # 1 is now the LRU victim
    assert [e.key.seed for e in evicted] == [1]
    assert res.evictions == 1 and len(res) == 2

    res = EngineResidency(max_engines=10, max_bytes=250)
    res.admit(_entry(0))
    res.admit(_entry(1))
    evicted = res.admit(_entry(2))
    assert [e.key.seed for e in evicted] == [0]
    # an oversized newest entry evicts everything else but survives itself
    evicted = res.admit(_entry(3, nbytes=10_000))
    assert len(res) == 1 and res.get(_entry(3).key) is not None
    assert res.resident_bytes() == 10_000
    assert res.evict(_entry(3).key) is not None
    assert len(res) == 0

    with pytest.raises(ValueError):
        EngineResidency(max_engines=0)


def test_server_lru_eviction_end_to_end(serve_env, short_tmp):
    sock = os.path.join(short_tmp, "lru.sock")
    handle = start_in_thread(ServeConfig(socket_path=sock, max_engines=1))
    try:
        with ServeClient(sock, timeout=300.0) as c:
            for seed in (0, 5):  # both rparts already cached by earlier tests
                resp, _ = c.request({"op": "partition", "matrix": serve_env["mtx"],
                                     "procs": PROCS, "seed": seed})
                assert resp["ok"], resp.get("error")
            stats, _ = c.request({"op": "stats"})
            assert len(stats["resident"]) == 1
            assert stats["resident"][0]["seed"] == 5
            assert stats["evictions"] == 1
            c.request({"op": "shutdown"})
    finally:
        handle.stop()


# ---------------------------------------------------------------------------
# micro-batcher (event-loop unit tests, fake engine)
# ---------------------------------------------------------------------------


class _FakeEngine:
    def __init__(self):
        self.spmv_calls = 0
        self.spmm_widths: list[int] = []

    def spmv(self, x):
        self.spmv_calls += 1
        return x * 2.0

    def spmm(self, X):
        self.spmm_widths.append(X.shape[1])
        return X * 2.0


def test_batcher_deadline_flush():
    async def scenario():
        eng = _FakeEngine()
        b = MicroBatcher(eng, max_batch=8, deadline_s=0.005)
        y, k = await b.submit(np.ones(3), SpanRecorder())
        return eng, b, y, k

    eng, b, y, k = asyncio.run(scenario())
    assert k == 1 and np.array_equal(y, np.full(3, 2.0))
    assert eng.spmv_calls == 1 and eng.spmm_widths == []
    assert b.flushes == {"size": 0, "deadline": 1, "drain": 0}
    assert b.batch_sizes == {1: 1} and b.matvecs == 1


def test_batcher_size_flush_coalesces():
    async def scenario():
        eng = _FakeEngine()
        b = MicroBatcher(eng, max_batch=3, deadline_s=60.0)
        rec = [SpanRecorder() for _ in range(3)]
        xs = [np.full(4, float(i)) for i in range(3)]
        outs = await asyncio.gather(*(b.submit(x, r) for x, r in zip(xs, rec)))
        return eng, b, rec, outs

    eng, b, recs, outs = asyncio.run(scenario())
    assert eng.spmm_widths == [3] and eng.spmv_calls == 0
    for i, (y, k) in enumerate(outs):
        assert k == 3
        assert np.array_equal(y, np.full(4, 2.0 * i))  # column order = arrival
        assert y.flags["C_CONTIGUOUS"]
    assert b.flushes["size"] == 1
    assert all("compute" in r.spans and "batch" in r.spans for r in recs)


def test_batcher_drain_flushes_pending():
    async def scenario():
        eng = _FakeEngine()
        b = MicroBatcher(eng, max_batch=8, deadline_s=60.0)
        task = asyncio.ensure_future(b.submit(np.ones(2), SpanRecorder()))
        await asyncio.sleep(0)  # let submit enqueue
        assert b.pending == 1
        b.drain()
        y, k = await task
        return b, y, k

    b, y, k = asyncio.run(scenario())
    assert k == 1 and b.flushes["drain"] == 1 and b.pending == 0


def test_batcher_rejects_bad_config():
    with pytest.raises(ValueError):
        MicroBatcher(_FakeEngine(), max_batch=0)
    with pytest.raises(ValueError):
        MicroBatcher(_FakeEngine(), deadline_s=-1.0)


# ---------------------------------------------------------------------------
# resilient pool (direct unit tests)
# ---------------------------------------------------------------------------


def _echo_task(x, attempt):
    return (x, attempt)


def _die_then_echo(x, attempt):
    if attempt == 0:
        os._exit(3)
    return (x, attempt)


def _raise_task(attempt):
    raise ValueError("deterministic task bug")


def _sleep_task(seconds, attempt):
    time.sleep(seconds)
    return attempt


def test_resilient_pool_runs_and_passes_attempt():
    pool = ResilientPool(max_workers=1)
    try:
        assert pool.run(_echo_task, 7) == (7, 0)
        assert pool.deaths == 0 and pool.retries == 0
    finally:
        pool.shutdown()


def test_resilient_pool_retries_after_worker_death():
    pool = ResilientPool(max_workers=1, max_retries=2)
    try:
        assert pool.run(_die_then_echo, 9) == (9, 1)
        assert pool.deaths == 1 and pool.retries == 1
    finally:
        pool.shutdown()


def test_resilient_pool_does_not_retry_task_exceptions():
    pool = ResilientPool(max_workers=1, max_retries=3)
    try:
        with pytest.raises(ValueError, match="deterministic"):
            pool.run(_raise_task)
        assert pool.retries == 0  # the bug would fail identically again
    finally:
        pool.shutdown()


def test_resilient_pool_timeout_exhausts_budget():
    pool = ResilientPool(max_workers=1, max_retries=0)
    try:
        with pytest.raises(PoolTaskFailed) as exc_info:
            pool.run(_sleep_task, 3.0, timeout=0.2)
        assert exc_info.value.attempts == 1
        assert any("timed out" in c for c in exc_info.value.causes)
        assert pool.deaths == 1
    finally:
        pool.shutdown()
    pool.shutdown()  # idempotent

    with pytest.raises(ValueError):
        ResilientPool(max_workers=0)


# ---------------------------------------------------------------------------
# span recorder and engine footprint
# ---------------------------------------------------------------------------


def test_span_recorder():
    rec = SpanRecorder()
    rec.add("queue", 0.001)
    rec.add("queue", 0.002)  # accumulates
    t0 = time.perf_counter()
    rec.mark_since("batch", t0)
    with rec.span("compute"):
        pass
    ms = rec.as_millis()
    assert ms["queue"] == pytest.approx(3.0)
    assert ms["batch"] >= 0 and ms["compute"] >= 0
    assert set(ms) == {"queue", "batch", "compute"}


def test_engine_nbytes(small_rmat):
    from repro.bench.harness import layout_for
    from repro.runtime import CAB, DistSparseMatrix

    layout = layout_for(small_rmat, "2d-block", 4)
    dist = DistSparseMatrix(small_rmat, layout, CAB)
    assert dist.engine.nbytes > 0


# ---------------------------------------------------------------------------
# ids, deadlines, frame integrity
# ---------------------------------------------------------------------------


def test_client_ids_monotonic_and_distinct_across_clients(serve_env):
    with ServeClient(serve_env["sock"]) as a, ServeClient(serve_env["sock"]) as b:
        ids_a = [a.next_id() for _ in range(4)]
        ids_b = [b.next_id() for _ in range(4)]
        assert len(set(ids_a) | set(ids_b)) == 8  # never collide
        # and a request without an explicit id gets one assigned
        resp, _ = a.request({"op": "health"})
        assert isinstance(resp["id"], str) and resp["id"].startswith(
            ids_a[0].rsplit("-", 1)[0]
        )


def test_duplicate_inflight_id_rejected(serve_env):
    """Two frames with one id on one connection: the second is refused
    while the first is still in flight (held there by a slow fault)."""
    import socket as socket_mod

    n = serve_env["A"].shape[0]
    slow = {
        "op": "matvec",
        "matrix": serve_env["mtx"],
        "procs": PROCS,
        "seed": 0,
        "id": "dup-1",
        "x": list(np.random.default_rng(5).standard_normal(n)),
        "fault": {"slow_ms": 400.0},
    }
    again = {"op": "health", "id": "dup-1"}
    with socket_mod.socket(socket_mod.AF_UNIX, socket_mod.SOCK_STREAM) as s:
        s.settimeout(30.0)
        s.connect(serve_env["sock"])
        s.sendall(encode_message(slow) + encode_message(again))
        rfile = s.makefile("rb")
        first = json.loads(rfile.readline())
        second = json.loads(rfile.readline())
    # pipelining: the duplicate refusal overtakes the slow matvec
    assert first["id"] == "dup-1" and not first["ok"]
    assert "duplicate in-flight id" in first["error"]
    assert second["id"] == "dup-1" and second["ok"]  # the matvec completes


def test_request_deadline_separate_from_connect_timeout(serve_env):
    """A per-request deadline expires on a slow response while the
    connection-level timeout (much larger) never fires."""
    from repro.serve import DeadlineExceeded

    n = serve_env["A"].shape[0]
    x = np.random.default_rng(6).standard_normal(n)
    with ServeClient(serve_env["sock"], timeout=300.0) as c:
        _matvec(c, serve_env, x)  # warm
        with pytest.raises(DeadlineExceeded):
            c.request(
                {"op": "matvec", "matrix": serve_env["mtx"], "procs": PROCS,
                 "seed": 0, "fault": {"slow_ms": 500.0}},
                x=x,
                deadline=0.05,
            )


def test_corrupted_frame_detected_by_crc():
    from repro.serve.protocol import encode_frame, frame_digest, verify_frame

    msg = {"op": "matvec", "id": "z-1", "bin": 8}
    payload = b"\x01\x02\x03\x04\x05\x06\x07\x08"
    wire = encode_frame(msg, payload)
    line, _, body = wire.partition(b"\n")
    parsed = json.loads(line)
    verify_frame(parsed, body)  # clean frame passes

    flipped = dict(parsed)
    flipped["bin"] = 9  # any single-field mutation breaks the digest
    with pytest.raises(ProtocolError, match="crc mismatch"):
        verify_frame(flipped, body)
    with pytest.raises(ProtocolError, match="crc mismatch"):
        verify_frame(parsed, body[:-1] + b"\x00")
    # frames without a crc (external HTTP clients) pass unverified
    verify_frame({"op": "health"}, None)
    assert frame_digest(msg, payload) == parsed["crc"]


# ---------------------------------------------------------------------------
# admission control and graceful drain
# ---------------------------------------------------------------------------


def test_graceful_drain_completes_inflight_batch(serve_env, short_tmp):
    """Shutdown mid-micro-batch: the queued matvec still completes with
    correct bits; new work after the drain begins is refused."""
    config = ServeConfig(
        socket_path=os.path.join(short_tmp, "d.sock"),
        max_batch=8,
        batch_deadline_ms=250.0,  # long deadline holds the batch open
        allow_fault_injection=True,
    )
    handle = start_in_thread(config)
    n = serve_env["A"].shape[0]
    x = np.random.default_rng(7).standard_normal(n)
    engine, _ = reference_engine(serve_env["mtx"], "2d-gp", PROCS, 0)
    expected = engine.spmv(x)
    out: dict[str, tuple] = {}
    try:
        with ServeClient(config.socket_path, timeout=300.0) as warm:
            resp, _ = warm.request(
                {"op": "partition", "matrix": serve_env["mtx"],
                 "procs": PROCS, "seed": 0}
            )
            assert resp["ok"], resp

        def inflight(tag, **extra):
            with ServeClient(config.socket_path, timeout=60.0) as c:
                out[tag] = c.request(
                    {"op": "matvec", "matrix": serve_env["mtx"],
                     "procs": PROCS, "seed": 0, **extra},
                    x=x,
                )

        # one request parked in the open micro-batch (250 ms deadline),
        # one held by a slow-engine fault: the latter keeps the server
        # alive long enough to observe the refusal deterministically
        batched = threading.Thread(target=inflight, args=("batched",))
        slow = threading.Thread(
            target=inflight, args=("slow",),
            kwargs={"fault": {"slow_ms": 700.0}},
        )
        batched.start()
        slow.start()
        time.sleep(0.1)  # both in flight, batch deadline not yet hit
        with ServeClient(config.socket_path, timeout=30.0) as c:
            resp, _ = c.request({"op": "shutdown"})
            assert resp["ok"] and resp["state"] == "draining"
            refused, _ = _matvec(c, serve_env, x)
        batched.join(30)
        slow.join(30)
        for tag in ("batched", "slow"):
            resp, y = out[tag]
            assert resp["ok"], resp
            assert np.array_equal(y, expected)  # drained, not dropped
        assert not refused["ok"] and refused["draining"] is True
        assert refused["retry_after_s"] > 0
    finally:
        handle.stop(timeout=30.0)
    assert not os.path.exists(config.socket_path)


def test_graceful_drain_during_cold_engine_build(serve_env, short_tmp):
    """Shutdown while an engine is still building: the build finishes,
    the triggering matvec is answered, and only then does the loop stop."""
    from repro.serve.server import MatvecServer

    class SlowBuildServer(MatvecServer):
        async def _build_engine(self, *args, **kwargs):
            await asyncio.sleep(0.3)  # hold the build so the drain races it
            return await super()._build_engine(*args, **kwargs)

    config = ServeConfig(
        socket_path=os.path.join(short_tmp, "cold.sock"),
        allow_fault_injection=True,
        cache_dir=serve_env["cache_dir"],
    )
    handle = start_in_thread(config, server=SlowBuildServer(config))
    n = serve_env["A"].shape[0]
    x = np.random.default_rng(8).standard_normal(n)
    out: dict[str, tuple] = {}
    try:

        def cold():
            with ServeClient(config.socket_path, timeout=300.0) as c:
                out["resp"], out["y"] = _matvec(c, serve_env, x)

        t = threading.Thread(target=cold)
        t.start()
        time.sleep(0.1)  # inside the delayed _build_engine
        with ServeClient(config.socket_path, timeout=30.0) as c:
            resp, _ = c.request({"op": "shutdown"})
            assert resp["ok"] and resp["state"] == "draining"
        t.join(60)
        assert out["resp"]["ok"], out["resp"]
        assert out["resp"]["cold"] is True
        engine, _ = reference_engine(serve_env["mtx"], "2d-gp", PROCS, 0)
        assert np.array_equal(out["y"], engine.spmv(x))
    finally:
        handle.stop(timeout=60.0)
    assert not os.path.exists(config.socket_path)


def test_micro_batcher_sheds_over_bound():
    from repro.serve.batching import QueueFull

    async def scenario():
        b = MicroBatcher(_FakeEngine(), max_batch=8, deadline_s=60.0, max_pending=2)
        waiting = [
            asyncio.ensure_future(b.submit(np.zeros(4), SpanRecorder()))
            for _ in range(2)
        ]
        await asyncio.sleep(0)  # let both enqueue
        assert b.pending == 2
        with pytest.raises(QueueFull) as err:
            await b.submit(np.zeros(4), SpanRecorder())
        assert err.value.pending == 2 and err.value.max_pending == 2
        assert b.shed == 1
        b.drain()
        await asyncio.gather(*waiting)
        return b

    b = asyncio.run(scenario())
    assert b.flushes["drain"] == 1 and b.matvecs == 2


def test_health_reports_degraded_after_shed(serve_env, monkeypatch, short_tmp):
    monkeypatch.setattr("repro.serve.server.MAX_QUEUE", 1)
    config = ServeConfig(
        socket_path=os.path.join(short_tmp, "shed.sock"),
        max_batch=2,
        batch_deadline_ms=200.0,
        allow_fault_injection=True,
    )
    handle = start_in_thread(config)
    n = serve_env["A"].shape[0]
    rng = np.random.default_rng(9)
    xs = rng.standard_normal((6, n))
    try:
        with ServeClient(config.socket_path, timeout=300.0) as warm:
            resp, _ = warm.request(
                {"op": "partition", "matrix": serve_env["mtx"],
                 "procs": PROCS, "seed": 0}
            )
            assert resp["ok"], resp

        sheds: list[dict] = []
        oks: list[dict] = []

        def fire(i):
            with ServeClient(config.socket_path, timeout=60.0) as c:
                resp, _ = _matvec(c, serve_env, xs[i])
                (sheds if resp.get("shed") else oks).append(resp)

        threads = [threading.Thread(target=fire, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert sheds, "queue bound of 1 never shed under 6 concurrent requests"
        assert all(s["retry_after_s"] > 0 for s in sheds)
        assert all(not s["ok"] for s in sheds)
        assert oks and all(o["ok"] for o in oks)
        with ServeClient(config.socket_path, timeout=30.0) as c:
            health, _ = c.request({"op": "health"})
            stats, _ = c.request({"op": "stats"})
        assert health["state"] == "degraded"  # recent shed within the window
        assert stats["counters"]["shed"] == len(sheds)
    finally:
        with ServeClient(config.socket_path, timeout=10.0) as c:
            c.request({"op": "shutdown"})
        handle.stop()


def test_inflight_bound_sheds_concurrent_matvec(serve_env, monkeypatch, short_tmp):
    """With one request allowed in flight, a matvec arriving while a slow
    one computes is shed with a backpressure hint; the slow one completes."""
    monkeypatch.setattr("repro.serve.server.MAX_INFLIGHT", 1)
    config = ServeConfig(
        socket_path=os.path.join(short_tmp, "inf.sock"), allow_fault_injection=True
    )
    handle = start_in_thread(config)
    x = np.random.default_rng(11).standard_normal(serve_env["A"].shape[0])
    slow: dict = {}

    def fire_slow():
        with ServeClient(config.socket_path, timeout=60.0) as c:
            slow["resp"], _ = _matvec(c, serve_env, x, fault={"slow_ms": 1500.0})

    try:
        with ServeClient(config.socket_path, timeout=300.0) as c:
            resp, _ = c.request(
                {"op": "partition", "matrix": serve_env["mtx"],
                 "procs": PROCS, "seed": 0}
            )
            assert resp["ok"], resp
            t = threading.Thread(target=fire_slow)
            t.start()
            give_up = time.monotonic() + 30.0
            while c.request({"op": "health"})[0]["inflight"] < 1:
                assert time.monotonic() < give_up, "slow matvec never in flight"
                time.sleep(0.01)
            resp, y = _matvec(c, serve_env, x)
        t.join(60)
        assert not t.is_alive()
        assert resp["shed"] is True and not resp["ok"] and y is None
        assert resp["retry_after_s"] > 0
        assert "in flight (bound 1)" in resp["error"]
        assert slow["resp"]["ok"], slow["resp"]
    finally:
        with ServeClient(config.socket_path, timeout=10.0) as c:
            c.request({"op": "shutdown"})
        handle.stop()


def test_idem_table_keeps_only_the_newest_completed_keys(serve_env, monkeypatch):
    """Past the table's capacity the oldest completed key is forgotten:
    its retry is computed again (bit-identically), the newest is deduped."""
    monkeypatch.setattr("repro.serve.server.IDEM_CAPACITY", 2)
    xs = np.random.default_rng(12).standard_normal((3, serve_env["A"].shape[0]))
    keys = [f"cap-{os.getpid()}-{i}" for i in range(3)]

    def deduped(c) -> int:
        return c.request({"op": "stats"})[0]["counters"]["deduped"]

    with ServeClient(serve_env["sock"], timeout=300.0) as c:
        first = [_matvec(c, serve_env, xs[i], idem=keys[i]) for i in range(3)]
        assert all(r["ok"] and not r.get("deduped") for r, _ in first)
        before = deduped(c)
        resp, y = _matvec(c, serve_env, xs[0], idem=keys[0])
        assert resp["ok"] and not resp.get("deduped")
        assert np.array_equal(y, first[0][1])
        assert deduped(c) == before
        resp, y = _matvec(c, serve_env, xs[2], idem=keys[2])
        assert resp["ok"] and resp["deduped"] is True
        assert np.array_equal(y, first[2][1])
        assert deduped(c) == before + 1


def test_partition_reports_engine_tiers(serve_env, short_tmp):
    """A ``partition`` request walks memory -> artifact store -> build and
    says which tier its engine came from; a drain refuses it."""
    store = os.path.join(short_tmp, "engines")
    msg = {"op": "partition", "matrix": serve_env["mtx"], "procs": PROCS, "seed": 0}

    for i, cold in enumerate(("built", "disk")):
        sock = os.path.join(short_tmp, f"w{i}.sock")
        handle = start_in_thread(ServeConfig(socket_path=sock, engine_store_dir=store))
        try:
            with ServeClient(sock, timeout=300.0) as c:
                first, _ = c.request(msg)
                second, _ = c.request(msg)
                assert first["ok"] and second["ok"], (first, second)
                assert first["engine_source"] == cold
                assert second["engine_source"] == "memory"
                assert first["engine_key"] == second["engine_key"]
                health, _ = c.request({"op": "health"})
                assert health["tiers"] == {
                    "mem_hit": 1,
                    "disk_hit": int(cold == "disk"),
                    "built": int(cold == "built"),
                }
                c.request({"op": "shutdown"})
        finally:
            handle.stop()

    server = _unstarted_server(short_tmp)
    server.begin_drain()
    refused = {"op": "partition", "id": 7, "matrix": "m"}
    resp = _dispatch(server, refused)
    assert resp["id"] == 7 and not resp["ok"] and resp["draining"] is True
    assert resp["retry_after_s"] > 0


def _unstarted_server(tmp):
    """A server that is never started: its requests go straight to
    ``_dispatch`` (see :func:`_dispatch`), with no socket in between."""
    return MatvecServer(
        ServeConfig(
            socket_path=os.path.join(tmp, "d.sock"),
            cache_dir=os.path.join(tmp, "cache"),
            use_engine_store=False,
        )
    )


def _dispatch(server, msg: dict) -> dict:
    return json.loads(asyncio.run(server._dispatch(msg, None)))


@pytest.mark.parametrize("mode", ["nwo", "", "NOW", 1])
def test_unknown_shutdown_mode_is_refused(mode, tmp_path):
    """Only an absent mode, ``drain`` or ``now`` shuts down; a misspelled
    one is an error naming it, and the server keeps taking work."""
    server = _unstarted_server(tmp_path)
    resp = _dispatch(server, {"op": "shutdown", "mode": mode})
    assert not resp["ok"] and f"unknown shutdown mode {mode!r}" in resp["error"]
    assert server.state == "ok"
    resp = _dispatch(server, {"op": "shutdown", "mode": "drain"})
    assert resp["ok"] and resp["state"] == "draining"


@pytest.mark.parametrize("field", ["procs", "seed"])
def test_boolean_procs_and_seed_are_refused(field, tmp_path):
    """``True`` is an int to ``isinstance``; the server still refuses it."""
    server = _unstarted_server(tmp_path)
    resp = _dispatch(server, {"op": "partition", "matrix": "m", field: True})
    assert not resp["ok"] and resp["error"].startswith(f"{field} must be")


def test_negative_seed_is_refused(serve_env, tmp_path):
    """A seed numpy cannot take is refused by name, not deep in the build."""
    server = _unstarted_server(tmp_path)
    msg = {"op": "partition", "matrix": serve_env["mtx"], "method": "2d-random"}
    resp = _dispatch(server, {**msg, "seed": -1})
    assert not resp["ok"] and resp["error"].startswith("seed must be a non-negative")


@pytest.mark.parametrize("method", ["3d-gp", "2d-gpx", 5])
def test_unknown_method_is_refused_before_any_partition(
    serve_env, method, monkeypatch, tmp_path
):
    """A method that names no layout is refused before the server loads
    the matrix or runs the partitioner (``3d-gp`` names the ``gp`` kind)."""
    calls = []
    for name in ("_load_matrix", "_pool_partition"):
        real = getattr(MatvecServer, name)

        def counting(self, *args, _name=name, _real=real):
            calls.append(_name)
            return _real(self, *args)

        monkeypatch.setattr(MatvecServer, name, counting)
    server = _unstarted_server(tmp_path)
    msg = {"op": "partition", "matrix": serve_env["mtx"], "method": method}
    resp = _dispatch(server, msg)
    assert calls == []
    assert not resp["ok"] and f"unknown method {method!r}" in resp["error"]


def _matvec_on_fresh_server(tmp: str, name: str, mtx: str, x, **extra):
    """One 2d-random matvec from a new in-thread server over *tmp*'s caches."""
    sock = os.path.join(tmp, f"{name}.sock")
    msg = {"op": "matvec", "matrix": mtx, "method": "2d-random", "procs": PROCS}
    handle = start_in_thread(ServeConfig(
        socket_path=sock,
        cache_dir=os.path.join(tmp, "cache"),
        engine_store_dir=os.path.join(tmp, "engines"),
        allow_fault_injection=True,
    ))
    try:
        with ServeClient(sock, timeout=300.0) as c:
            return c.request({**msg, **extra}, x=x, encoding="bin")
    finally:
        handle.stop()


def test_slow_engine_from_disk_builds_no_distribution(
    serve_env, monkeypatch, short_tmp
):
    """A stalled request on a store-loaded engine stalls for ``slow_ms``
    and nothing more: the server builds no distribution to serve it."""
    from repro.runtime.distmatrix import DistSparseMatrix

    x = np.random.default_rng(3).standard_normal(serve_env["A"].shape[0])
    built, y_built = _matvec_on_fresh_server(short_tmp, "a", serve_env["mtx"], x)
    assert built["ok"] and built["engine_source"] == "built", built

    constructed = []
    real_init = DistSparseMatrix.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(args)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(DistSparseMatrix, "__init__", counting_init)
    resp, y = _matvec_on_fresh_server(
        short_tmp, "b", serve_env["mtx"], x, fault={"slow_ms": 50.0}
    )
    assert resp["ok"] and resp["engine_source"] == "disk", resp
    assert constructed == []
    assert resp["slow_engine"] == {"slow_ms": 50.0}
    assert np.array_equal(y, y_built)


def test_engine_of_other_code_is_not_served_from_disk(
    serve_env, monkeypatch, short_tmp
):
    """An artifact compiled by other code is a store miss: the server
    rebuilds it, and the rebuild replaces the older generation."""
    from repro.runtime import store

    x = np.ones(serve_env["A"].shape[0])
    first, y_first = _matvec_on_fresh_server(short_tmp, "a", serve_env["mtx"], x)
    assert first["ok"] and first["engine_source"] == "built", first
    monkeypatch.setattr(store, "code_fingerprint", lambda *sources: "0" * 12)
    second, y = _matvec_on_fresh_server(short_tmp, "b", serve_env["mtx"], x)
    assert second["ok"] and second["engine_source"] != "disk", second
    assert np.array_equal(y, y_first)
    artifacts = os.listdir(os.path.join(short_tmp, "engines"))
    assert len(artifacts) == 1 and "_000000000000_" in artifacts[0]


def test_server_handle_stop_raises_on_hung_thread():
    """A thread that will not die must raise, never pass silently."""
    from repro.serve.server import ServerHandle

    class HungThread:
        name = "hung-serve"

        def is_alive(self):
            return True

        def join(self, timeout=None):
            pass

    class DeadLoop:
        def call_soon_threadsafe(self, fn):
            raise RuntimeError("Event loop is closed")

    class StuckServer:
        state = "draining"
        _inflight_work = 3

        def begin_drain(self):
            pass

        def request_stop(self):
            pass

    handle = ServerHandle(StuckServer(), HungThread(), DeadLoop())
    with pytest.raises(RuntimeError, match="hung shutdown"):
        handle.stop(timeout=0.01)


def test_threaded_server_with_worker_pool_bit_identical(serve_env):
    """Oversubscription-guard regression: a server with pool_workers.

    A server running a process pool for cold partitions (whose workers
    pin their BLAS/OpenMP threads to 1) must still answer bit-identically
    to the serial reference engine. Its engines stay serial: neither
    health nor stats reports a thread budget or an apply plan.
    """
    sock = os.path.join(serve_env["tmp"], "thr.sock")
    config = ServeConfig(
        socket_path=sock,
        max_batch=8,
        batch_deadline_ms=1.0,
        pool_workers=2,
    )
    handle = start_in_thread(config)
    try:
        n = serve_env["A"].shape[0]
        engine, _ = reference_engine(serve_env["mtx"], "2d-gp", PROCS, 0)
        assert engine.threads == 1
        with ServeClient(sock, timeout=300.0) as c:
            xs = [
                np.random.default_rng(400 + i).standard_normal(n)
                for i in range(6)
            ]
            for x in xs:
                resp, y = _matvec(c, serve_env, x)
                assert resp["ok"], resp.get("error")
                assert np.array_equal(y, engine.spmv(x))
            health, _ = c.request({"op": "health"})
            assert not any("thread" in k for k in health)
            stats, _ = c.request({"op": "stats"})
            assert not any("thread" in k for k in stats)
            entry = stats["resident"][0]
            assert "threads" not in entry and "plan" not in entry
    finally:
        with ServeClient(sock, timeout=10.0) as c:
            c.request({"op": "shutdown"})
        handle.stop()
