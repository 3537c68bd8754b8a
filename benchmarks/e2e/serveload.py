"""``python -m repro serve`` as a child process, and a closed loop against it.

Server and load generator are separate processes so they do not share a
GIL. The loop is **closed**: the callers this server exists for are
iterative solvers that wait for each product before forming the next
vector, so each client sends its next matvec only when the previous
answer is back. Clients are threads of the benchmark process (at most
``nproc`` of them); they spend their time blocked on the socket.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.serve import ServeClient

BOOT_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


class ServerChild:
    """One ``repro serve`` process listening on the unix socket *path*.

    The path is kept relative to the current directory: unix socket
    paths are capped at 108 bytes and a checkout may sit deep.
    """

    def __init__(self, path: Path, env: dict[str, str]):
        self.socket = os.path.relpath(path)
        self._log = open(path.with_suffix(".log"), "wb")
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket],
            env=env, stdout=self._log, stderr=subprocess.STDOUT,
        )
        try:
            self._await_ready(t0)
        except BaseException:
            self.kill()
            raise
        self.boot_seconds = time.perf_counter() - t0

    def _await_ready(self, t0: float) -> None:
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} at boot")
            if time.perf_counter() - t0 > BOOT_TIMEOUT_S:
                raise RuntimeError("server did not answer on its socket in time")
            try:  # the socket file appears at bind, before listen
                with ServeClient(self.socket, timeout=BOOT_TIMEOUT_S) as c:
                    resp, _ = c.request({"op": "health"})
                break
            except (FileNotFoundError, ConnectionRefusedError):
                time.sleep(0.002)
        if not resp.get("ok"):
            raise RuntimeError(f"server unhealthy at boot: {resp}")

    def stop(self) -> bool:
        """Drain with the ``shutdown`` op; kill on timeout. True = clean."""
        clean = False
        try:
            with ServeClient(self.socket, timeout=STOP_TIMEOUT_S) as c:
                c.request({"op": "shutdown"})
            self.proc.wait(STOP_TIMEOUT_S)
            clean = self.proc.returncode == 0
        except (OSError, subprocess.TimeoutExpired, ValueError):
            pass
        self.kill()
        return clean

    def kill(self) -> None:
        """Make sure the process is gone and reaped (a no-op after a clean exit)."""
        self.proc.kill()
        self.proc.wait()
        self._log.close()


def closed_loop(
    socket_path: str,
    target: dict,
    pool: np.ndarray,
    expected: list[np.ndarray],
    clients: int,
    seconds: float,
    seed: int,
) -> dict:
    """*clients* closed-loop connections for *seconds*; every answer checked.

    Returns latencies (ms), per-request server ``spans_ms``, batch sizes
    and outcome counts. A request fails when the server refuses it, when
    the transport raises, or when the answer is not ``np.array_equal`` to
    the local engine's.
    """
    barrier = threading.Barrier(clients + 1)
    lock = threading.Lock()
    lat_ms: list[float] = []
    spans: dict[str, list[float]] = {"queue": [], "batch": [], "compute": []}
    batch_sizes: list[int] = []
    counts = {"attempted": 0, "errors": 0, "shed": 0, "divergences": 0}
    window = {"end": 0.0}

    def session(cid: int) -> None:
        pick = np.random.default_rng([seed, cid])
        mine_lat: list[float] = []
        mine_spans: dict[str, list[float]] = {k: [] for k in spans}
        mine_sizes: list[int] = []
        mine = dict.fromkeys(counts, 0)
        msg = {"op": "matvec", **target}
        with ServeClient(socket_path, timeout=60.0) as client:
            client.request(msg, x=pool[0])  # prime the connection, untimed
            barrier.wait()
            deadline = time.perf_counter() + seconds
            while True:
                idx = int(pick.integers(len(pool)))
                t0 = time.perf_counter()
                if t0 >= deadline:
                    break
                mine["attempted"] += 1
                try:
                    resp, y = client.request(msg, x=pool[idx])
                except (OSError, ValueError):  # transport or protocol failure
                    mine["errors"] += 1
                    break  # the connection is poisoned
                done = time.perf_counter()
                if not resp.get("ok") or y is None:
                    mine["shed" if resp.get("shed") else "errors"] += 1
                    continue
                if not np.array_equal(y, expected[idx]):
                    mine["divergences"] += 1
                    continue
                mine_lat.append((done - t0) * 1e3)
                mine_sizes.append(int(resp.get("batch_size", 0)))
                for k, v in resp.get("spans_ms", {}).items():
                    if k in mine_spans:
                        mine_spans[k].append(float(v))
        with lock:
            window["end"] = max(window["end"], time.perf_counter())
            lat_ms.extend(mine_lat)
            batch_sizes.extend(mine_sizes)
            for k in spans:
                spans[k].extend(mine_spans[k])
            for k in counts:
                counts[k] += mine[k]

    crashed: list[Exception] = []

    def guarded(cid: int) -> None:
        try:
            session(cid)
        except Exception as exc:  # re-raised on the caller's thread
            crashed.append(exc)
            barrier.abort()

    threads = [
        threading.Thread(target=guarded, args=(i,), daemon=True) for i in range(clients)
    ]
    for t in threads:
        t.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    start = time.perf_counter()
    for t in threads:
        t.join(seconds + 120.0)
    if crashed:
        raise crashed[0]
    if any(t.is_alive() for t in threads):
        raise RuntimeError("a load-generator client did not finish")
    elapsed = window["end"] - start
    return {
        "latency_ms": lat_ms,
        "spans_ms": spans,
        "batch_sizes": batch_sizes,
        "elapsed_s": elapsed,
        "rps": len(lat_ms) / elapsed if elapsed > 0 else 0.0,
        **counts,
    }
