"""Client-side resilience: seeded retries and circuit breaking.

:class:`RetryingClient` wraps the blocking :class:`~.protocol.ServeClient`
with the failure handling a production caller needs and the determinism
this repo's tests demand:

**idempotency keys**
    Every logical request carries a client-unique ``idem`` key that stays
    fixed across retries (each *attempt* still gets a fresh wire ``id``).
    The server's dedup table answers a retry of in-flight work from the
    original's future and a retry of completed work from the stored
    result — a retried matvec is never recomputed and never
    double-batched, so retrying is always safe.

**backoff with decorrelated jitter**
    ``sleep = uniform(base, prev * 3)`` capped at ``cap`` — the classic
    decorrelated-jitter schedule, drawn from a seeded generator. A shed
    response's ``retry_after_s`` hint becomes the floor of the next
    sleep. Everything runs under one total deadline per logical request.

**circuit breaker**
    A closed/open/half-open breaker over a sliding outcome window. Too
    many failures open it; while open, attempts wait out the reset
    timeout (bounded by the request deadline) instead of hammering a
    struggling server; a half-open probe's outcome closes or re-opens it.

Nothing here reads the wall clock directly — ``clock``/``sleep`` are
injectable, and every random draw comes from the seeded generator — so
retry/backoff/breaker schedules replay bit-identically under a fixed
seed (the property ``tests/test_serve_resilience.py`` pins).
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .protocol import DeadlineExceeded, ProtocolError, ServeClient

__all__ = [
    "BackoffPolicy",
    "CircuitBreaker",
    "CircuitOpen",
    "RetriesExhausted",
    "RetryingClient",
]

#: Exception types that justify a retry on a fresh connection: the request
#: may never have been processed (connect/reset), or the response cannot be
#: trusted or recovered (torn frame, crc mismatch, deadline expiry — the
#: stale bytes may still arrive, so the socket is poisoned either way).
RETRYABLE_EXCEPTIONS = (
    DeadlineExceeded,
    ProtocolError,
    ConnectionError,
    EOFError,
    OSError,
)


class ResilienceError(RuntimeError):
    """Base class for client-side resilience failures."""


class RetriesExhausted(ResilienceError):
    """A logical request failed every attempt within its deadline."""

    def __init__(self, message: str, attempts: int, causes: list[str]):
        super().__init__(
            f"{message} after {attempts} attempt(s): {'; '.join(causes) or 'none'}"
        )
        self.attempts = attempts
        self.causes = causes


class CircuitOpen(ResilienceError):
    """The circuit breaker is open and the deadline cannot wait it out."""


@dataclass
class BackoffPolicy:
    """Decorrelated-jitter backoff: ``uniform(base, prev*3)``, capped.

    Seeded and stateless across requests (the caller threads ``prev``
    through), so a schedule replays exactly under a fixed seed.
    """

    base_s: float = 0.05
    cap_s: float = 5.0
    seed: int = 0
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.base_s <= 0:
            raise ValueError(f"base_s must be > 0, got {self.base_s}")
        if self.cap_s < self.base_s:
            raise ValueError("cap_s must be >= base_s")
        self.rng = np.random.default_rng(
            np.random.SeedSequence((int(self.seed), 0xB0FF))
        )

    def next(self, prev_s: float, floor_s: float = 0.0) -> float:
        """Next sleep given the previous one (and an optional server hint)."""
        lo = max(self.base_s, floor_s)
        hi = max(prev_s * 3.0, lo)
        return float(min(self.cap_s, self.rng.uniform(lo, hi)))


class CircuitBreaker:
    """Closed / open / half-open breaker over a sliding outcome window.

    Closed: everything flows; once the window holds ``min_calls``
    outcomes and the failure rate reaches ``failure_threshold``, the
    breaker opens. Open: :meth:`allow` refuses until ``reset_timeout_s``
    has elapsed on the injected *clock*, then one half-open probe is let
    through. Half-open: the probe's outcome decides — success closes
    (window wiped), failure re-opens the timeout.
    """

    def __init__(
        self,
        window: int = 20,
        failure_threshold: float = 0.5,
        min_calls: int = 5,
        reset_timeout_s: float = 1.0,
        clock=time.monotonic,
    ):
        if not 0 < failure_threshold <= 1:
            raise ValueError(f"failure_threshold in (0, 1], got {failure_threshold}")
        if window < 1 or min_calls < 1:
            raise ValueError("window and min_calls must be >= 1")
        self.window = window
        self.failure_threshold = failure_threshold
        self.min_calls = min_calls
        self.reset_timeout_s = reset_timeout_s
        self._clock = clock
        self._outcomes: deque[bool] = deque(maxlen=window)
        self.state = "closed"
        self.opens = 0
        self._opened_at = 0.0
        self._probe_inflight = False

    def allow(self) -> bool:
        """May an attempt proceed right now?"""
        if self.state == "closed":
            return True
        if self.state == "open":
            if self._clock() - self._opened_at >= self.reset_timeout_s:
                self.state = "half-open"
                self._probe_inflight = False
            else:
                return False
        # half-open: exactly one probe at a time
        if self._probe_inflight:
            return False
        self._probe_inflight = True
        return True

    def seconds_until_probe(self) -> float:
        """How long :meth:`allow` will keep refusing (0 when it would not)."""
        if self.state != "open":
            return 0.0
        return max(0.0, self.reset_timeout_s - (self._clock() - self._opened_at))

    def record(self, success: bool) -> None:
        """Feed one attempt outcome into the state machine."""
        if self.state == "half-open":
            self._probe_inflight = False
            if success:
                self.state = "closed"
                self._outcomes.clear()
            else:
                self._open()
            return
        self._outcomes.append(success)
        if (
            self.state == "closed"
            and len(self._outcomes) >= self.min_calls
            and self.failure_rate() >= self.failure_threshold
        ):
            self._open()

    def failure_rate(self) -> float:
        if not self._outcomes:
            return 0.0
        return 1.0 - sum(self._outcomes) / len(self._outcomes)

    def _open(self) -> None:
        self.state = "open"
        self.opens += 1
        self._opened_at = self._clock()


#: Distinguishes RetryingClient instances for idem-key uniqueness.
_RETRY_SEQ = itertools.count()


class RetryingClient:
    """Retrying, breaker-guarded matvec client.

    One instance owns one connection, rebuilt transparently after
    retryable failures. Not thread-safe — like :class:`ServeClient`,
    open one per session.
    """

    def __init__(
        self,
        socket_path: str,
        *,
        seed: int = 0,
        max_attempts: int = 5,
        total_deadline_s: float = 60.0,
        attempt_deadline_s: float | None = None,
        backoff: BackoffPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        connect_timeout_s: float = 60.0,
        clock=time.monotonic,
        sleep=time.sleep,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.socket_path = socket_path
        self.max_attempts = max_attempts
        self.total_deadline_s = total_deadline_s
        self.attempt_deadline_s = attempt_deadline_s
        self.backoff = backoff if backoff is not None else BackoffPolicy(seed=seed)
        self.breaker = breaker if breaker is not None else CircuitBreaker(clock=clock)
        self.connect_timeout_s = connect_timeout_s
        self._clock = clock
        self._sleep = sleep
        self._idem_prefix = f"r{next(_RETRY_SEQ)}"
        self._idem_seq = itertools.count()
        self._conn: ServeClient | None = None
        self.stats = {
            "requests": 0,
            "attempts": 0,
            "retries": 0,
            "deduped": 0,
            "shed_seen": 0,
            "draining_seen": 0,
            "breaker_waits": 0,
            "backoff_sleep_s": 0.0,
        }

    # -- connection management --------------------------------------------

    @staticmethod
    def _discard(conn: ServeClient | None) -> None:
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        self._discard(self._conn)
        self._conn = None

    def __enter__(self) -> "RetryingClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- public API --------------------------------------------------------

    def next_idem(self) -> str:
        """Mint the idempotency key for one logical request."""
        return f"{self._idem_prefix}-{next(self._idem_seq)}"

    def matvec(
        self,
        matrix: str,
        x: np.ndarray,
        *,
        method: str | None = None,
        procs: int | None = None,
        seed: int | None = None,
        encoding: str = "bin",
        fault: dict | None = None,
    ) -> tuple[dict, np.ndarray]:
        """One resilient matvec; returns ``(response, y)`` or raises."""
        msg: dict = {"op": "matvec", "matrix": matrix}
        if method is not None:
            msg["method"] = method
        if procs is not None:
            msg["procs"] = procs
        if seed is not None:
            msg["seed"] = seed
        if fault is not None:
            msg["fault"] = fault
        return self.request(msg, x, encoding=encoding)

    def request(
        self, msg: dict, x: np.ndarray | None = None, encoding: str = "bin"
    ) -> tuple[dict, np.ndarray | None]:
        """Send one logical request with retries, backoff and the breaker.

        Returns the first trustworthy ``ok`` response. Shed/draining
        refusals and retryable transport failures are retried under the
        total deadline; any other ``ok: false`` response is returned
        as-is (an application error is the server's answer, not a fault).
        """
        self.stats["requests"] += 1
        idem = msg.get("idem") or self.next_idem()
        deadline_at = self._clock() + self.total_deadline_s
        prev_sleep = self.backoff.base_s
        causes: list[str] = []
        attempt = 0
        while attempt < self.max_attempts:
            remaining = deadline_at - self._clock()
            if remaining <= 0:
                break
            waited = self._wait_for_breaker(deadline_at)
            if waited is None:
                raise CircuitOpen(
                    f"circuit open for {self.breaker.seconds_until_probe():.3f}s "
                    f"more, past the request deadline (causes: {causes})"
                )
            attempt += 1
            self.stats["attempts"] += 1
            try:
                resp, y = self._attempt(msg, x, encoding, idem, remaining)
            except RETRYABLE_EXCEPTIONS as exc:
                self.breaker.record(False)
                self.stats["retries"] += 1
                causes.append(f"{type(exc).__name__}: {exc}")
                prev_sleep = self._backoff_sleep(prev_sleep, 0.0, deadline_at)
                continue
            if resp.get("ok"):
                self.breaker.record(True)
                if resp.get("deduped"):
                    self.stats["deduped"] += 1
                return resp, y
            if resp.get("shed") or resp.get("draining"):
                key = "shed_seen" if resp.get("shed") else "draining_seen"
                self.stats[key] += 1
                self.breaker.record(False)
                causes.append(str(resp.get("error", key)))
                hint = float(resp.get("retry_after_s") or 0.0)
                prev_sleep = self._backoff_sleep(prev_sleep, hint, deadline_at)
                continue
            # a definitive application error: the server is healthy and
            # answered; retrying cannot change a deterministic answer
            self.breaker.record(True)
            return resp, y
        raise RetriesExhausted("request failed", attempt, causes)

    # -- internals ---------------------------------------------------------

    def _wait_for_breaker(self, deadline_at: float) -> float | None:
        """Block (injected sleep) until the breaker admits an attempt.

        Returns the seconds waited, or ``None`` when the open interval
        outlives the deadline.
        """
        waited = 0.0
        while not self.breaker.allow():
            wait = self.breaker.seconds_until_probe()
            if wait <= 0:
                # half-open with a probe in flight can't happen in this
                # single-threaded client; treat as a minimal yield
                wait = self.backoff.base_s
            if self._clock() + wait > deadline_at:
                return None
            self.stats["breaker_waits"] += 1
            self._sleep(wait)
            waited += wait
        return waited

    def _backoff_sleep(
        self, prev_sleep: float, floor_s: float, deadline_at: float
    ) -> float:
        """One decorrelated-jitter sleep, clipped to the deadline."""
        nxt = self.backoff.next(prev_sleep, floor_s=floor_s)
        budget = deadline_at - self._clock()
        if budget > 0:
            self._sleep(min(nxt, budget))
            self.stats["backoff_sleep_s"] += min(nxt, budget)
        return nxt

    def _attempt(
        self,
        msg: dict,
        x: np.ndarray | None,
        encoding: str,
        idem: str,
        remaining_s: float,
    ) -> tuple[dict, np.ndarray | None]:
        """One attempt on the kept connection; keep it only on success."""
        deadline = remaining_s
        if self.attempt_deadline_s is not None:
            deadline = min(deadline, self.attempt_deadline_s)
        wire = dict(msg)
        wire["idem"] = idem
        wire.pop("id", None)  # every attempt gets a fresh wire id
        conn, self._conn = self._conn, None
        if conn is None:
            conn = ServeClient(self.socket_path, timeout=self.connect_timeout_s)
        try:
            out = conn.request(wire, x, encoding=encoding, deadline=deadline)
        except BaseException:
            self._discard(conn)
            raise
        self._conn = conn
        return out
