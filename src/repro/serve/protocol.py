"""Wire protocol of the matvec server: JSON lines + optional binary frame.

One message is one JSON object on one ``\\n``-terminated line. Requests
carry ``op`` (``health``, ``stats``, ``matvec``, ``partition``,
``shutdown``) and an optional client-chosen ``id`` that the response
echoes; responses carry ``ok`` plus op-specific fields, or ``ok: false``
with ``error``.

Vectors travel in one of three interchangeable encodings, all exact for
float64 (the first two because Python's ``repr``/``float`` round-trip
shortest decimal forms, the last trivially):

``"x": [..]``
    A plain JSON array — the debugging/interop form.
``"x_b64": "..."``
    Base64 of the little-endian float64 buffer.
``"bin": <nbytes>``
    The *binary frame* extension: the JSON line announces a payload of
    ``nbytes`` raw little-endian float64 bytes that immediately follow
    the newline. This is the fast path — no escaping, no base64 blowup —
    and the load generator's default. Responses mirror the encoding of
    their request.

The messages run over a unix stream socket, framed as described. The
array and base64 forms serve clients that cannot write a raw frame.

**Frame integrity.** Every framed message carries a ``crc`` field: a
CRC-32 over the canonical (sorted-key, compact) JSON serialization of
the message *without* the ``crc`` field, concatenated with the binary
payload. Receivers that find a ``crc`` recompute and compare, so a
corrupted byte anywhere in the frame — the JSON line, the crc digits
themselves, or the raw float64 payload — surfaces as a
:class:`ProtocolError`, never as silently wrong data. This is the
detection point the chaos harness (:mod:`repro.serve.chaos`) attacks:
its corruption injections must *always* be caught here (or upstream by
the JSON parser), because a float64 payload with flipped bits is
otherwise a perfectly valid vector. Frames without ``crc`` (clients
not written in Python) are accepted unverified.
"""

from __future__ import annotations

import base64
import itertools
import json
import socket
import zlib
from typing import Any

import numpy as np

__all__ = [
    "ProtocolError",
    "DeadlineExceeded",
    "MAX_LINE_BYTES",
    "frame_digest",
    "verify_frame",
    "encode_frame",
    "encode_vector",
    "decode_vector",
    "encode_message",
    "read_message",
    "ServeClient",
]

#: Stream-reader line limit: a 1M-entry float64 vector in base64 plus JSON
#: overhead. Binary frames bypass this entirely.
MAX_LINE_BYTES = 16 * 1024 * 1024


class ProtocolError(ValueError):
    """A malformed request or response (bad JSON, bad frame, bad field)."""


class DeadlineExceeded(ProtocolError):
    """A per-request deadline expired before the response arrived.

    Distinct from :class:`ProtocolError` proper so callers can report
    timed-out requests as their own outcome class (the load generator's
    summary) or as a retryable-with-fresh-connection failure (the
    :class:`~repro.serve.resilience.RetryingClient`). A timed-out
    connection is poisoned — the response may still arrive mid-frame —
    so the socket must be discarded, never reused.
    """


def frame_digest(msg: dict, payload: bytes | None = None) -> int:
    """CRC-32 of one frame: canonical JSON of *msg* (sans ``crc``) + payload.

    The canonical form (sorted keys, compact separators) makes the digest
    a pure function of the message *content*, so the receiver — who only
    has the parsed dict — can recompute it byte-for-byte.
    """
    body = json.dumps(
        {k: v for k, v in msg.items() if k != "crc"},
        separators=(",", ":"),
        sort_keys=True,
    ).encode("utf-8")
    return zlib.crc32(body + (payload or b"")) & 0xFFFFFFFF


def verify_frame(msg: dict, payload: bytes | None = None) -> None:
    """Check *msg*'s ``crc`` against its content; raise on mismatch.

    Frames without a ``crc`` field pass unverified (external clients).
    """
    crc = msg.get("crc")
    if crc is None:
        return
    if not isinstance(crc, int) or crc != frame_digest(msg, payload):
        raise ProtocolError(
            "frame integrity check failed: crc mismatch (corrupted frame)"
        )


def encode_frame(msg: dict, payload: bytes = b"") -> bytes:
    """Serialize one integrity-checked frame: JSON line + raw payload."""
    out = {k: v for k, v in msg.items() if k != "crc"}
    out["crc"] = frame_digest(out, payload)
    return json.dumps(out, separators=(",", ":")).encode("utf-8") + b"\n" + payload


def encode_vector(msg: dict, y: np.ndarray, encoding: str) -> bytes:
    """Finish *msg* with vector *y* in *encoding*; return the wire bytes.

    ``encoding`` is ``"list"``, ``"b64"`` or ``"bin"`` (the request's own
    encoding, so responses mirror it).
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    payload = b""
    if encoding == "list":
        msg["y"] = y.tolist()
    elif encoding == "b64":
        msg["y_b64"] = base64.b64encode(y.tobytes()).decode("ascii")
    elif encoding == "bin":
        payload = y.tobytes()
        msg["bin"] = len(payload)
    else:
        raise ProtocolError(f"unknown vector encoding {encoding!r}")
    return encode_frame(msg, payload)


def decode_vector(msg: dict, payload: bytes | None, n: int | None = None):
    """Extract ``(vector, encoding)`` from a decoded message.

    Returns ``(None, "bin")``-style pairs absent a vector field. *n*, when
    given, validates the length (the server knows the matrix dimension).
    """
    x = None
    encoding = "bin"
    if payload:
        if len(payload) % 8:
            raise ProtocolError(f"binary frame of {len(payload)} bytes is not float64")
        x = np.frombuffer(payload, dtype="<f8").astype(np.float64, copy=False)
    elif "x_b64" in msg or "y_b64" in msg:
        raw = base64.b64decode(msg.get("x_b64") or msg.get("y_b64"))
        if len(raw) % 8:
            raise ProtocolError("base64 vector is not a float64 buffer")
        x = np.frombuffer(raw, dtype="<f8").astype(np.float64, copy=False)
        encoding = "b64"
    elif "x" in msg or "y" in msg:
        x = np.asarray(msg.get("x") if "x" in msg else msg["y"], dtype=np.float64)
        if x.ndim != 1:
            raise ProtocolError(f"vector must be 1-D, got shape {x.shape}")
        encoding = "list"
    if x is not None and n is not None and len(x) != n:
        raise ProtocolError(f"vector length {len(x)} != matrix dimension {n}")
    return x, encoding


def encode_message(msg: dict) -> bytes:
    """One integrity-checked JSON line (no binary payload appended)."""
    return encode_frame(msg, b"")


async def read_message(reader) -> tuple[dict, bytes | None] | None:
    """Read one framed message from an asyncio stream reader.

    Returns ``(msg, payload)`` — *payload* is the raw binary frame when
    the line announced one — or ``None`` on clean EOF before any bytes.
    """
    try:
        line = await reader.readline()
    except ValueError as exc:  # line longer than the stream limit
        raise ProtocolError(f"request line exceeds limit: {exc}") from exc
    if not line:
        return None
    try:
        msg = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON line: {exc}") from exc
    if not isinstance(msg, dict):
        raise ProtocolError(f"message must be a JSON object, got {type(msg).__name__}")
    payload = None
    nbytes = msg.get("bin", 0)
    if nbytes:
        if not isinstance(nbytes, int) or nbytes < 0 or nbytes > MAX_LINE_BYTES:
            raise ProtocolError(f"bad binary frame size {nbytes!r}")
        payload = await reader.readexactly(nbytes)
    verify_frame(msg, payload)
    return msg, payload


#: Process-wide counter distinguishing client instances, so two clients in
#: one process never mint the same auto-generated request id.
_CLIENT_SEQ = itertools.count()


class ServeClient:
    """Blocking client for tests, the load generator and ``repro loadgen``.

    One client wraps one connection; it is not thread-safe (the load
    generator opens one client per concurrent session, which is also what
    gives the server distinct requests to coalesce).

    Every request without an explicit ``id`` gets a monotonic unique one
    (``c<instance>-<seq>``) — the server rejects duplicate in-flight ids
    on a connection, and unique ids are the foundation the idempotency
    table builds on. *timeout* is the connect/default socket timeout; a
    per-request ``deadline`` can be passed to :meth:`request`, and its
    expiry raises :class:`DeadlineExceeded` (after which the connection
    must be discarded — the stale response may still arrive mid-frame).
    """

    def __init__(self, socket_path: str, timeout: float = 60.0):
        self._timeout = timeout
        self._id_prefix = f"c{next(_CLIENT_SEQ)}"
        self._seq = itertools.count()
        self._sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._sock.settimeout(timeout)
        self._sock.connect(socket_path)
        self._rfile = self._sock.makefile("rb")

    def next_id(self) -> str:
        """Mint the next monotonic unique request id for this client."""
        return f"{self._id_prefix}-{next(self._seq)}"

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def request(
        self,
        msg: dict,
        x: np.ndarray | None = None,
        encoding: str = "bin",
        deadline: float | None = None,
    ) -> tuple[dict, np.ndarray | None]:
        """Send one request; block for its response.

        *x*, when given, rides in *encoding* (``bin``/``b64``/``list``).
        *deadline*, when given, bounds this request's wall time (socket
        timeout for the send+receive), raising :class:`DeadlineExceeded`
        on expiry. Returns ``(response, vector)`` with the response's
        vector decoded from whichever encoding the server chose (it
        mirrors ours).
        """
        msg = dict(msg)
        if "id" not in msg:
            msg["id"] = self.next_id()
        payload = b""
        if x is not None:
            x = np.ascontiguousarray(x, dtype=np.float64)
            if encoding == "bin":
                payload = x.tobytes()
                msg["bin"] = len(payload)
            elif encoding == "b64":
                msg["x_b64"] = base64.b64encode(x.tobytes()).decode("ascii")
            elif encoding == "list":
                msg["x"] = x.tolist()
            else:
                raise ProtocolError(f"unknown vector encoding {encoding!r}")
        data = encode_frame(msg, payload)
        if deadline is not None:
            self._sock.settimeout(max(deadline, 1e-3))
        try:
            self._sock.sendall(data)
            return self._read_response()
        except TimeoutError as exc:
            raise DeadlineExceeded(
                f"request {msg['id']!r} exceeded its deadline of {deadline}s"
            ) from exc
        finally:
            if deadline is not None:
                self._sock.settimeout(self._timeout)

    def _read_response(self) -> tuple[dict, np.ndarray | None]:
        line = self._rfile.readline(MAX_LINE_BYTES)
        if not line:
            raise ProtocolError("connection closed mid-request")
        try:
            resp: dict[str, Any] = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            # a corrupted frame can break UTF-8 before it breaks JSON
            raise ProtocolError(f"bad JSON response: {exc}") from exc
        if not isinstance(resp, dict):
            raise ProtocolError("response must be a JSON object")
        payload = None
        nbytes = resp.get("bin", 0)
        if nbytes:
            chunks = []
            remaining = int(nbytes)
            while remaining:
                chunk = self._rfile.read(remaining)
                if not chunk:
                    raise ProtocolError("connection closed mid-payload")
                chunks.append(chunk)
                remaining -= len(chunk)
            payload = b"".join(chunks)
        verify_frame(resp, payload)
        y, _ = decode_vector(resp, payload)
        return resp, y
