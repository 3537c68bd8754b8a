"""Seeded wire-level fault injection: a chaos proxy for the matvec server.

:class:`ChaosProxy` sits between clients and a running
:class:`~.server.MatvecServer` on its own unix socket and mangles the
*response* stream according to a :class:`ChaosSchedule`. Every
injection decision is a pure function of ``(seed, connection, frame)``
drawn through ``np.random.SeedSequence``, so a chaos run replays
bit-identically: same seed, same torn frames, same flipped bytes, same
ledger.

Wire fault classes (server -> client frames):

``torn``
    Forward a prefix of the frame, then hard-reset the connection — the
    client sees a partial line or truncated payload.
``corrupt``
    XOR one byte of the frame with a seeded nonzero mask. Detection is
    **mandatory**: the CRC-32 frame check (or the JSON parser, or a
    read stall that trips the request deadline — when the flipped byte
    is the line's ``\\n`` or a length digit) must refuse the frame. A
    corrupted response reaching a caller as data is the one outcome the
    soak treats as an immediate failure.
``reset``
    Drop the connection instead of forwarding the frame.
``delay``
    Hold the frame for ``delay_ms`` before forwarding (latency, not
    loss — the p99 inflation the chaos bench bounds).
``drop``
    Swallow the frame; the client's per-request deadline fires.

Requests (client -> server) pass through untouched: request-side faults
are injected *semantically* instead — the soak driver stamps seeded
requests with the server's ``fault`` field (``kill_worker``, a real
pool-worker death, or ``slow_ms``, a real stall). Injecting on the
response side keeps the accounting clean: every request that reaches
the server is processed
exactly once (retries deduplicate through the idempotency table), so
"zero lost acknowledged requests" is checkable without heuristics.

Every executed injection lands in the proxy's ledger (kind, connection,
frame, detail) mirroring the runtime's executed-injection records; the
chaos bench gates on at least one execution of every scheduled class.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from threading import Event as ThreadEvent
from threading import Thread

import numpy as np

from .protocol import MAX_LINE_BYTES

__all__ = [
    "ChaosSchedule",
    "ChaosProxy",
    "ChaosProxyHandle",
    "start_chaos_proxy",
    "WIRE_FAULT_KINDS",
]

#: Wire-level fault classes the proxy can inject, in decision order.
WIRE_FAULT_KINDS = ("torn", "corrupt", "reset", "delay", "drop")


@dataclass(frozen=True)
class ChaosSchedule:
    """Per-frame fault probabilities plus the seed that fixes every draw.

    The per-class probabilities are evaluated cumulatively per response
    frame (at most one fault per frame); their sum must stay <= 1.
    """

    seed: int = 0
    p_torn: float = 0.0
    p_corrupt: float = 0.0
    p_reset: float = 0.0
    p_delay: float = 0.0
    p_drop: float = 0.0
    delay_ms: float = 5.0

    def __post_init__(self) -> None:
        probs = self.probabilities()
        for kind, p in probs.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"p_{kind} must be in [0, 1], got {p}")
        if sum(probs.values()) > 1.0 + 1e-12:
            raise ValueError(
                f"fault probabilities sum to {sum(probs.values())} > 1"
            )
        if self.delay_ms < 0:
            raise ValueError(f"delay_ms must be >= 0, got {self.delay_ms}")

    def probabilities(self) -> dict[str, float]:
        return {
            "torn": self.p_torn,
            "corrupt": self.p_corrupt,
            "reset": self.p_reset,
            "delay": self.p_delay,
            "drop": self.p_drop,
        }


class ChaosProxy:
    """Frame-aware unix-socket proxy injecting seeded wire faults.

    One event-loop thread owns all state (see :func:`start_chaos_proxy`).
    ``executed`` (the injection ledger) and ``executed_counts`` may be
    read from other threads once traffic is quiesced.
    """

    def __init__(
        self, upstream_path: str, listen_path: str, schedule: ChaosSchedule
    ):
        self.upstream_path = upstream_path
        self.listen_path = listen_path
        self.schedule = schedule
        self.executed: list[dict] = []
        self.frames = 0
        self.connections = 0
        self._conn_seq = itertools.count()
        self._stop: asyncio.Event | None = None
        self._server: asyncio.base_events.Server | None = None

    # -- seeded decisions --------------------------------------------------

    def _decide(
        self, conn_idx: int, frame_idx: int
    ) -> tuple[str, np.random.Generator] | None:
        """The injection decision for one frame: pure in (seed, conn, frame).

        Returns ``(kind, rng)`` — the rng continues the same seeded
        stream, so fault *parameters* (cut points, byte masks) are as
        deterministic as the decision itself — or ``None``.
        """
        s = self.schedule
        rng = np.random.default_rng(
            np.random.SeedSequence((s.seed, conn_idx, frame_idx, 0xCA05))
        )
        u = float(rng.uniform())
        acc = 0.0
        for kind, p in s.probabilities().items():
            acc += p
            if p > 0 and u < acc:
                return kind, rng
        return None

    def executed_counts(self) -> dict[str, int]:
        counts = dict.fromkeys(WIRE_FAULT_KINDS, 0)
        for event in self.executed:
            counts[event["kind"]] = counts.get(event["kind"], 0) + 1
        return counts

    # -- lifecycle ---------------------------------------------------------

    async def serve(self, on_started=None) -> None:
        """Listen on ``listen_path`` until :meth:`request_stop`."""
        self._stop = asyncio.Event()
        Path(self.listen_path).parent.mkdir(parents=True, exist_ok=True)
        if os.path.exists(self.listen_path):
            os.unlink(self.listen_path)
        self._server = await asyncio.start_unix_server(
            self._handle, path=self.listen_path, limit=MAX_LINE_BYTES
        )
        try:
            if on_started is not None:
                on_started(self)
            await self._stop.wait()
        finally:
            self._server.close()
            await self._server.wait_closed()
            if os.path.exists(self.listen_path):
                os.unlink(self.listen_path)

    def request_stop(self) -> None:
        if self._stop is not None:
            self._stop.set()

    # -- proxying ----------------------------------------------------------

    async def _handle(self, creader, cwriter) -> None:
        """One proxied connection: raw requests up, mangled frames down."""
        conn_idx = next(self._conn_seq)
        self.connections += 1
        try:
            ureader, uwriter = await asyncio.open_unix_connection(
                self.upstream_path, limit=MAX_LINE_BYTES
            )
        except OSError:
            cwriter.close()
            return
        up = asyncio.ensure_future(self._pump_up(creader, uwriter))
        down = asyncio.ensure_future(self._pump_down(conn_idx, ureader, cwriter))
        try:
            await asyncio.wait({up, down}, return_when=asyncio.FIRST_COMPLETED)
        finally:
            for task in (up, down):
                task.cancel()
            try:
                await asyncio.gather(up, down, return_exceptions=True)
            except asyncio.CancelledError:
                pass  # loop shutdown cancelled this handler; close quietly
            for writer in (uwriter, cwriter):
                try:
                    writer.close()
                except OSError:
                    pass

    async def _pump_up(self, creader, uwriter) -> None:
        """Client -> server: byte-transparent passthrough."""
        try:
            while True:
                chunk = await creader.read(1 << 16)
                if not chunk:
                    break
                uwriter.write(chunk)
                await uwriter.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            try:
                uwriter.write_eof()
            except (OSError, RuntimeError):
                pass

    async def _pump_down(self, conn_idx: int, ureader, cwriter) -> None:
        """Server -> client: read whole frames, inject per the schedule."""
        frame_idx = 0
        try:
            while True:
                line = await ureader.readline()
                if not line:
                    break
                payload = b""
                try:
                    msg = json.loads(line)
                    nbytes = msg.get("bin", 0) if isinstance(msg, dict) else 0
                except json.JSONDecodeError:
                    nbytes = 0
                if nbytes:
                    payload = await ureader.readexactly(int(nbytes))
                raw = line + payload
                self.frames += 1
                decision = self._decide(conn_idx, frame_idx)
                frame_idx += 1
                if decision is None:
                    cwriter.write(raw)
                    await cwriter.drain()
                    continue
                kind, rng = decision
                if not await self._inject(kind, rng, raw, conn_idx,
                                          frame_idx - 1, cwriter):
                    break  # connection-terminating fault
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            pass

    async def _inject(
        self, kind: str, rng, raw: bytes, conn_idx: int, frame_idx: int,
        cwriter,
    ) -> bool:
        """Execute one wire fault; return False when the connection dies."""
        event = {"kind": kind, "conn": conn_idx, "frame": frame_idx,
                 "bytes": len(raw)}
        if kind == "delay":
            event["delay_ms"] = self.schedule.delay_ms
            self.executed.append(event)
            await asyncio.sleep(self.schedule.delay_ms / 1e3)
            cwriter.write(raw)
            await cwriter.drain()
            return True
        if kind == "drop":
            self.executed.append(event)
            return True  # swallow the frame; keep the connection
        if kind == "corrupt":
            pos = int(rng.integers(0, len(raw)))
            mask = int(rng.integers(1, 256))
            event["pos"], event["mask"] = pos, mask
            self.executed.append(event)
            mangled = bytearray(raw)
            mangled[pos] ^= mask
            cwriter.write(bytes(mangled))
            await cwriter.drain()
            return True
        if kind == "torn":
            cut = int(rng.integers(1, max(len(raw), 2)))
            event["cut"] = cut
            self.executed.append(event)
            cwriter.write(raw[:cut])
            await cwriter.drain()
            cwriter.transport.abort()
            return False
        if kind == "reset":
            self.executed.append(event)
            cwriter.transport.abort()
            return False
        raise AssertionError(f"unknown fault kind {kind!r}")  # pragma: no cover


class ChaosProxyHandle:
    """A proxy running on its own loop thread (mirror of ServerHandle)."""

    def __init__(self, proxy: ChaosProxy, thread: Thread, loop):
        self.proxy = proxy
        self._thread = thread
        self._loop = loop

    @property
    def listen_path(self) -> str:
        return self.proxy.listen_path

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread.is_alive():
            try:
                self._loop.call_soon_threadsafe(self.proxy.request_stop)
            except RuntimeError:
                pass  # loop already closed
        self._thread.join(timeout)
        if self._thread.is_alive():
            raise RuntimeError(
                f"chaos proxy thread {self._thread.name!r} did not stop "
                f"within {timeout}s — hung shutdown"
            )


def start_chaos_proxy(
    upstream_path: str,
    listen_path: str,
    schedule: ChaosSchedule,
    timeout: float = 10.0,
) -> ChaosProxyHandle:
    """Boot a :class:`ChaosProxy` on a daemon thread; wait until it listens."""
    proxy = ChaosProxy(upstream_path, listen_path, schedule)
    ready = ThreadEvent()
    box: dict = {}

    def on_started(_p: ChaosProxy) -> None:
        box["loop"] = asyncio.get_running_loop()
        ready.set()

    def run() -> None:
        try:
            asyncio.run(proxy.serve(on_started=on_started))
        except BaseException as exc:
            box["error"] = exc
        finally:
            ready.set()

    thread = Thread(target=run, name="repro-chaos-proxy", daemon=True)
    thread.start()
    deadline = time.monotonic() + timeout
    if not ready.wait(timeout) or (
        "error" not in box and not _wait_for_socket(listen_path, deadline)
    ):
        raise RuntimeError("chaos proxy did not start listening in time")
    if "error" in box:
        raise RuntimeError(f"chaos proxy failed to start: {box['error']}")
    return ChaosProxyHandle(proxy, thread, box["loop"])


def _wait_for_socket(path: str, deadline: float) -> bool:
    while time.monotonic() < deadline:
        if os.path.exists(path):
            return True
        time.sleep(0.005)
    return os.path.exists(path)
