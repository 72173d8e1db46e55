"""HTTP client adapter: the estimation service's wire API as a local object.

:class:`HttpEstimationClient` speaks to an
:class:`~repro.serving.http.EstimationHttpServer` and conforms to the
:class:`~repro.serving.EstimationClient` protocol (``estimate`` /
``estimate_batch``), so it drops straight into
:func:`repro.eval.harness.evaluate_estimator` and every accuracy/latency
harness written against in-process clients — point the harness at a URL
instead of a model and nothing else changes.

Built on a plain socket per thread (thread-local, so the harness's
``concurrency=N`` closed loop gets N independent keep-alive connections),
with ``TCP_NODELAY`` against Nagle/delayed-ACK stalls. A request is one
``sendall`` of head plus body; a response is read into a buffer up to the
blank line, framed by ``Content-Length``, and any surplus bytes stay
buffered for the next response on that connection (no ``Content-Length``
means the body runs to EOF; chunked bodies are refused, the server never
sends them). Retries are bounded, with exponential backoff + jitter:
dropped connections (EOF before a full response, reset, broken pipe, an
unparsable status line) and 429/503 estimate responses are retried up to
``max_retries`` times (honoring the server's ``Retry-After``), then the
last typed error is raised; socket timeouts are not retried. Estimates
are read-only, so retries are safe; ``max_retries=0`` restores fail-fast
behavior for callers that reconcile request counts exactly.

Error mapping: 4xx responses raise :class:`~repro.errors.QueryError`
(caller bug — malformed DSL, unknown model/tenant, quota), 5xx raise
:class:`~repro.errors.ServingError` (server state — shed, draining,
deadline); both carry the server's JSON ``error`` message.
"""

from __future__ import annotations

import json
import random
import socket
import threading
import time
from typing import Dict, Optional, Sequence

import numpy as np

from repro.errors import QueryError, ServingError
from repro.relational.dsl import query_to_dict
from repro.relational.query import Query


class _Headers(dict):
    """Response headers keyed by lower-cased name; lookups ignore case."""

    def __getitem__(self, name: str) -> str:
        return super().__getitem__(name.lower())

    def get(self, name: str, default=None):
        return super().get(name.lower(), default)


class _Connection:
    """One keep-alive socket and the bytes read past the last response."""

    __slots__ = ("sock", "buf")

    def __init__(self, host: str, port: int, timeout: float):
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def close(self) -> None:
        self.sock.close()

    def _recv(self) -> bytes:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        return chunk

    def roundtrip(self, request: bytes) -> "tuple[int, _Headers, bytes, bool]":
        """Send one request; return (status, headers, body, server_closes)."""
        self.sock.sendall(request)
        end = self.buf.find(b"\r\n\r\n")
        while end < 0:
            self.buf += self._recv()
            end = self.buf.find(b"\r\n\r\n")
        lines = self.buf[:end].decode("latin-1").split("\r\n")
        self.buf = self.buf[end + 4 :]
        version, _, rest = lines[0].partition(" ")
        code = rest[:3]
        if not version.startswith("HTTP/") or not (len(code) == 3 and code.isdigit()):
            raise ConnectionError(f"unparsable status line {lines[0]!r}")
        headers = _Headers()
        for line in lines[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding", "identity").lower() != "identity":
            raise ServingError(
                f"unsupported Transfer-Encoding {headers['transfer-encoding']!r}"
            )
        closes = headers.get("connection", "").lower() == "close"
        length = headers.get("content-length")
        if length is None:
            # No framing: the body is whatever arrives before EOF.
            closes = True
            chunks = [self.buf]
            while True:
                chunk = self.sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
            body, self.buf = b"".join(chunks), b""
        else:
            try:
                n = int(length)
            except ValueError:
                raise ServingError(f"bad Content-Length {length!r}") from None
            while len(self.buf) < n:
                self.buf += self._recv()
            body, self.buf = self.buf[:n], self.buf[n:]
        return int(code), headers, body, closes


class HttpEstimationClient:
    """Estimate over the wire; protocol-compatible with in-process clients.

    Parameters
    ----------
    host, port:
        The server's bound address (``HttpServerThread.host/.port``).
    model:
        Model name for the ``/v1/models/{model}/estimate`` route.
    tenant:
        Sent as ``X-Tenant`` (admission quota identity); None omits the
        header (the server applies the default quota).
    timeout:
        Socket timeout in seconds for connect/read.
    max_retries:
        Retries after the first attempt, covering dropped connections
        (all requests) and 429/503 responses (estimate requests only —
        ``/healthz`` legitimately answers 503 while draining). 0 fails
        fast: exactly one wire request per call.
    backoff_base_s, backoff_cap_s:
        Exponential backoff schedule: retry ``k`` sleeps
        ``min(cap, base * 2**k)`` scaled by uniform jitter in
        ``[0.5, 1.0]``, or the server's ``Retry-After`` if larger.
    retry_seed:
        Pins the jitter RNG for reproducible retry timing.
    """

    def __init__(
        self,
        host: str,
        port: int,
        model: str,
        *,
        tenant: Optional[str] = None,
        timeout: float = 30.0,
        max_retries: int = 2,
        backoff_base_s: float = 0.05,
        backoff_cap_s: float = 2.0,
        retry_seed: Optional[int] = None,
    ):
        if max_retries < 0:
            raise ServingError("max_retries must be >= 0")
        self.host = host
        self.port = port
        self.model = model
        self.tenant = tenant
        self.timeout = timeout
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self._rng = random.Random(retry_seed)
        #: Wire-level retries performed (connection drops + retried 429/503).
        self.n_retries = 0
        #: Tier(s) that answered the most recent estimate call (None when
        #: the server has no cascade attached). Per-call, not thread-safe.
        self.last_tier = None
        self._local = threading.local()

    # ------------------------------------------------------------------
    # Transport
    # ------------------------------------------------------------------
    def _connection(self) -> _Connection:
        conn = getattr(self._local, "conn", None)
        if conn is None:
            conn = _Connection(self.host, self.port, self.timeout)
            self._local.conn = conn
        return conn

    def _drop_connection(self) -> None:
        conn = getattr(self._local, "conn", None)
        if conn is not None:
            conn.close()
            self._local.conn = None

    def close(self) -> None:
        """Close this thread's connection (others close on their threads)."""
        self._drop_connection()

    def _backoff_delay(self, retry: int, retry_after: Optional[float]) -> float:
        """Sleep before retry number ``retry`` (0-based), honoring Retry-After."""
        delay = min(self.backoff_cap_s, self.backoff_base_s * (2.0 ** retry))
        delay *= 0.5 + 0.5 * self._rng.random()  # jitter against thundering herds
        if retry_after is not None:
            delay = max(delay, retry_after)
        return delay

    @staticmethod
    def _retry_after(headers: _Headers) -> Optional[float]:
        try:
            return float(headers["retry-after"])
        except (KeyError, ValueError):
            return None

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[bytes] = None,
        *,
        retry_statuses: "tuple[int, ...]" = (),
    ) -> "tuple[int, _Headers, bytes]":
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Connection: keep-alive\r\n"
        )
        if body is not None:
            head += (
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n"
            )
        if self.tenant is not None:
            head += f"X-Tenant: {self.tenant}\r\n"
        request = (head + "\r\n").encode("latin-1") + (body or b"")
        # Estimates are read-only, so retrying is always safe. Two failure
        # shapes are retried with exponential backoff + jitter: dropped
        # connections (drain, idle timeout, mid-flight crash) and — for the
        # estimate route — 429/503 sheds, sleeping at least the server's
        # Retry-After. The final attempt's failure surfaces as the usual
        # typed error (connection exception here, QueryError/ServingError
        # from _decode for an HTTP status).
        delay = 0.0
        for attempt in range(self.max_retries + 1):
            if attempt:
                self.n_retries += 1
                if delay > 0:
                    time.sleep(delay)
            conn = self._connection()
            try:
                status, headers, payload, closes = conn.roundtrip(request)
            except ConnectionError:
                self._drop_connection()
                if attempt == self.max_retries:
                    raise
                delay = self._backoff_delay(attempt, None)
                continue
            except BaseException:
                # Timeouts and protocol errors leave the stream mid-response.
                self._drop_connection()
                raise
            if closes:
                self._drop_connection()
            if status in retry_statuses and attempt < self.max_retries:
                delay = self._backoff_delay(attempt, self._retry_after(headers))
                continue
            return status, headers, payload
        raise ServingError("unreachable")  # pragma: no cover

    @staticmethod
    def _decode(status: int, payload: bytes) -> dict:
        try:
            doc = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ServingError(
                f"server returned non-JSON body (status {status})"
            ) from exc
        if 200 <= status < 300:
            return doc
        message = doc.get("error", "") if isinstance(doc, dict) else str(doc)
        if 400 <= status < 500:
            raise QueryError(f"HTTP {status}: {message}")
        raise ServingError(f"HTTP {status}: {message}")

    # ------------------------------------------------------------------
    # EstimationClient protocol
    # ------------------------------------------------------------------
    def estimate(
        self,
        query: Query,
        *,
        seed: Optional[int] = None,
        deadline_ms: Optional[float] = None,
        budget_ms: Optional[float] = None,
        max_q_error: Optional[float] = None,
    ) -> float:
        """Blocking single-query estimate over the wire.

        ``budget_ms``/``max_q_error`` are the cascade routing contract
        (servers without an attached cascade accept and ignore them); the
        answering tier is recorded on :attr:`last_tier`.
        """
        body: Dict[str, object] = {"query": query_to_dict(query)}
        if seed is not None:
            body["seed"] = seed
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        if budget_ms is not None:
            body["budget_ms"] = budget_ms
        if max_q_error is not None:
            body["max_q_error"] = max_q_error
        doc = self._post_estimate(body)
        self.last_tier = doc.get("tier")
        return float(doc["estimate"])

    def estimate_batch(
        self,
        queries: Sequence[Query],
        *,
        seeds: Optional[Sequence[Optional[int]]] = None,
        deadline_ms: Optional[float] = None,
        budget_ms: Optional[float] = None,
        max_q_error: Optional[float] = None,
    ) -> np.ndarray:
        """Batch estimate over the wire; one request, order-preserving.

        With a cascade attached server-side, :attr:`last_tier` holds the
        per-query tier list from the response.
        """
        body: Dict[str, object] = {
            "queries": [query_to_dict(q) for q in queries]
        }
        if seeds is not None:
            body["seeds"] = list(seeds)
        if deadline_ms is not None:
            body["deadline_ms"] = deadline_ms
        if budget_ms is not None:
            body["budget_ms"] = budget_ms
        if max_q_error is not None:
            body["max_q_error"] = max_q_error
        doc = self._post_estimate(body)
        self.last_tier = doc.get("tiers")
        return np.array(doc["estimates"], dtype=np.float64)

    def _post_estimate(self, body: Dict[str, object]) -> dict:
        status, _, payload = self._request(
            "POST",
            f"/v1/models/{self.model}/estimate",
            json.dumps(body).encode("utf-8"),
            retry_statuses=(429, 503),
        )
        return self._decode(status, payload)

    # ------------------------------------------------------------------
    # Operational endpoints
    # ------------------------------------------------------------------
    def healthz(self) -> dict:
        """The server's ``/healthz`` JSON (raises ServingError on 5xx)."""
        status, _, payload = self._request("GET", "/healthz")
        return self._decode(status, payload)

    def metrics_text(self) -> str:
        """The raw Prometheus text from ``/metrics``."""
        status, _, payload = self._request("GET", "/metrics")
        if status != 200:
            raise ServingError(f"/metrics returned HTTP {status}")
        return payload.decode("utf-8")


__all__ = ["HttpEstimationClient"]
