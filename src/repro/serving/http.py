"""Asyncio HTTP front end: the estimation service meets the network.

A hand-rolled HTTP/1.1 server over :func:`asyncio.start_server` (stdlib
only — no framework dependency) exposing an
:class:`~repro.serving.service.EstimationService` to remote callers:

``POST /v1/models/{name}/estimate``
    Single (``{"query": {...}}``) or batch (``{"queries": [...]}``)
    bodies, queries in the JSON filter DSL of
    :mod:`repro.relational.dsl`. Optional ``seed``/``seeds`` pin
    per-query generators (the wire answer is then bitwise-equal to the
    in-process scheduler's), and ``deadline_ms`` bounds the whole
    request — requests predicted to miss it are shed with 503 *before*
    consuming scheduler batch slots (see :mod:`repro.serving.admission`).
    The sample count is the served model's one configured setting;
    bodies cannot override it.
    With an estimator cascade attached (:mod:`repro.serving.cascade`),
    ``budget_ms``/``max_q_error`` set the per-query routing contract and
    responses carry ``"tier"`` (or per-query ``"tiers"``) naming the
    estimator that answered.

``GET /healthz``
    Liveness/readiness JSON: registry contents, scheduler/pool/refresher
    state, draining flag (503 while draining).

``GET /metrics``
    Prometheus text format: per-tenant request/shed counters and latency
    histograms plus scheduler, worker-pool, registry, and
    DriftMonitor-staleness gauges scraped live from the service.

Framing: a request head (request line, headers, blank line) is read in one
piece of at most 64 KiB, asyncio's stream limit; a longer head is answered
431 and the connection closed. ``Content-Length`` frames the body: absent
means empty, a value that is not a non-negative integer is a 400 and one
past ``max_body_bytes`` a 413, both closing the connection. Requests on one
connection may be pipelined; they are answered in order.

Concurrency model: the event loop parses requests and compiles the DSL;
``service.submit`` hands queries to the micro-batching scheduler whose
flusher/pool threads do the heavy lifting, and the resulting
``concurrent.futures.Future`` is awaited via :func:`asyncio.wrap_future`
(a batch body gathers one per query).
The loop therefore stays responsive while NumPy crunches — wire requests
coalesce into micro-batches exactly like in-process submits do. Futures
already answered when ``submit`` returns (cheap cascade tiers, fallback
answers behind an open circuit) are read inline, with no loop round trip.

Graceful drain (SIGTERM in :func:`serve`, or :meth:`drain`): stop
accepting connections, answer in-flight requests to completion, reject
late arrivals with 503 + ``Retry-After``, then optionally close the
service (schedulers, then worker pools). Zero in-flight futures are
dropped.
"""

from __future__ import annotations

import asyncio
import json
import math
import socket
import threading
import time
import warnings
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import DeadlineError, InjectedFaultError, QueryError, ReproError, ServingError
from repro.relational.dsl import query_from_dict
from repro.serving import faults
from repro.serving.admission import AdmissionController
from repro.serving.config import HttpConfig
from repro.serving.metrics import MetricsRegistry, series_key
from repro.serving.service import EstimationService

_REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

#: Status line per code, built once.
_STATUS_LINES = {code: f"HTTP/1.1 {code} {reason}" for code, reason in _REASONS.items()}

#: Tenants whose metric series keys are kept before the map is reset.
_TENANT_SERIES_LIMIT = 1024

#: Longest accepted request head (request line + headers + blank line):
#: the server's stream-reader limit, asyncio's default. Longer is a 431.
_HEAD_LIMIT = 64 * 1024

_ESTIMATE_KEYS = frozenset(
    {
        "query",
        "queries",
        "seed",
        "seeds",
        "deadline_ms",
        "budget_ms",
        "max_q_error",
    }
)


class _BadRequest(Exception):
    """Internal: maps straight to a 4xx (400 unless given) with its message."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


def _reject_constant(name: str):
    """``json.loads`` hook: NaN / Infinity / -Infinity are not JSON numbers."""
    raise _BadRequest(f"non-finite number {name} is not allowed")


#: Body decoder and response encoder, built once rather than per request.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)
_encode_json = json.JSONEncoder().encode


class _Conn:
    """Per-connection state the drain loop inspects."""

    __slots__ = ("writer", "busy")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.busy = False


class EstimationHttpServer:
    """The asyncio server object; one per bound socket.

    ``config`` precedence: explicit argument, then
    ``service.config.http``, then :class:`HttpConfig` defaults. Use
    :class:`HttpServerThread` from synchronous code, or :func:`serve` as
    a blocking process entrypoint with SIGTERM-triggered drain.
    """

    def __init__(
        self,
        service: EstimationService,
        config: Optional[HttpConfig] = None,
        *,
        metrics: Optional[MetricsRegistry] = None,
    ):
        if config is None:
            config = getattr(service.config, "http", None) or HttpConfig()
        self.service = service
        self.config = config
        self.admission = AdmissionController(
            max_queue=config.max_queue,
            default_quota=config.default_quota(),
            tenants=config.tenants,
            strict_tenants=config.strict_tenants,
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._requests = self.metrics.counter(
            "repro_http_requests_total",
            "Estimate-endpoint responses by tenant and status code.",
        )
        self._queries = self.metrics.counter(
            "repro_http_queries_total",
            "Queries answered with a 200 by tenant.",
        )
        self._shed = self.metrics.counter(
            "repro_http_shed_total",
            "Requests rejected by admission, by tenant and reason.",
        )
        self._latency = self.metrics.histogram(
            "repro_http_request_seconds",
            "Admitted estimate-request wall time by tenant.",
        )
        self._degraded_queries = self.metrics.counter(
            "repro_http_degraded_total",
            "Queries answered by the degraded-mode fallback, by tenant.",
        )
        #: tenant -> (tenant series, tenant + code 200 series), see _series_for.
        self._tenant_series: Dict[str, Tuple[tuple, tuple]] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: set = set()
        self._draining = False
        self._drained = False
        self.host: Optional[str] = None
        self.port: Optional[int] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "EstimationHttpServer":
        if self._server is not None:
            raise ServingError("server already started")
        self._server = await asyncio.start_server(
            self._serve_conn, self.config.host, self.config.port, limit=_HEAD_LIMIT
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self

    @property
    def url(self) -> str:
        if self.port is None:
            raise ServingError("server not started")
        return f"http://{self.host}:{self.port}"

    @property
    def draining(self) -> bool:
        return self._draining

    async def drain(
        self, *, grace_s: Optional[float] = None, close_service: bool = False
    ) -> None:
        """Stop accepting, flush in-flight requests, optionally close the pool.

        Idempotent. In-flight requests (including their scheduler futures)
        complete and are answered; idle keep-alive connections are closed;
        anything still running after ``grace_s`` is abandoned to the
        daemon threads.
        """
        grace = grace_s if grace_s is not None else self.config.drain_grace_s
        first = not self._draining
        self._draining = True
        if first and self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        # Let busy connections answer their current request, then close
        # idle ones (their readline sees EOF and the handler exits).
        while any(c.busy for c in self._conns) and loop.time() < deadline:
            await asyncio.sleep(0.005)
        for conn in list(self._conns):
            if not conn.busy:
                conn.writer.close()
        while self._conns and loop.time() < deadline:
            await asyncio.sleep(0.005)
        if close_service and not self._drained:
            self._drained = True
            await loop.run_in_executor(None, self.service.close)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _serve_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        injector = faults.get_active()
        if injector is not None:
            # Chaos seam: an ``http.connection`` fault (any kind) aborts the
            # connection before the first request is read — the client sees
            # the mid-flight disconnect its retry policy must survive.
            try:
                fired = injector.check("http.connection") is not None
            except InjectedFaultError:
                fired = True
            if fired:
                writer.close()
                return
        sock = writer.get_extra_info("socket")
        if sock is not None:
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:  # pragma: no cover - platform-dependent
                pass
        transport = writer.transport
        conn = _Conn(writer)
        self._conns.add(conn)
        try:
            while True:
                conn.busy = False
                try:
                    # The whole head in one read: request line and headers
                    # up to the blank line, at most the reader's limit.
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.LimitOverrunError:
                    self._reject(transport, 431, f"request head exceeds {_HEAD_LIMIT} bytes")
                    break
                except (ConnectionError, asyncio.IncompleteReadError):
                    break  # client closed (or drain closed an idle conn)
                conn.busy = True
                try:
                    method, path, headers, length = self._parse_head(head)
                except _BadRequest as exc:
                    self._reject(transport, exc.status, str(exc))
                    break
                body = await reader.readexactly(length) if length else b""
                path = path.partition("?")[0]
                parts = path.split("/")
                # /v1/models/{name}/estimate -> ["", "v1", "models", name, "estimate"]
                if (
                    method == "POST" and len(parts) == 5
                    and parts[1:3] == ["v1", "models"] and parts[4] == "estimate"
                ):
                    status, payload, extra = await self._estimate(parts[3], headers, body)
                else:
                    status, payload, extra = self._route(method, path, parts)
                if isinstance(payload, str):
                    data = payload.encode()
                    content_type = "text/plain; version=0.0.4; charset=utf-8"
                else:
                    data = _encode_json(payload).encode()
                    content_type = "application/json"
                keep_alive = (
                    not self._draining
                    and headers.get("connection", "keep-alive").lower() != "close"
                )
                self._write(transport, status, data, keep_alive, content_type, extra)
                if transport.get_write_buffer_size():
                    await writer.drain()  # the socket took less than all of it
                if not keep_alive or self._draining:
                    break
        except (ConnectionError, asyncio.IncompleteReadError, asyncio.CancelledError):
            pass
        finally:
            self._conns.discard(conn)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError):
                pass

    def _parse_head(self, head: bytes) -> Tuple[str, str, Dict[str, str], int]:
        """Method, path, lower-cased headers and body length of one head;
        raises :class:`_BadRequest` for a head that frames no request."""
        lines = head.decode("latin-1").split("\r\n")
        try:
            method, path, _version = lines[0].split(" ", 2)
        except ValueError:
            raise _BadRequest("malformed request line") from None
        headers: Dict[str, str] = {}
        for line in lines[1:-2]:  # the head ends with an empty line
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError:
            length = -1
        if length < 0:
            raise _BadRequest("bad Content-Length")
        if length > self.config.max_body_bytes:
            raise _BadRequest(f"body exceeds {self.config.max_body_bytes} bytes", 413)
        return method, path, headers, length

    @classmethod
    def _reject(cls, transport: asyncio.Transport, status: int, message: str) -> None:
        """An error response after which the connection closes."""
        cls._write(transport, status, _encode_json({"error": message}).encode())

    @staticmethod
    def _write(
        transport: asyncio.Transport,
        status: int,
        data: bytes,
        keep_alive: bool = False,
        content_type: str = "application/json",
        extra: Sequence[Tuple[str, str]] = (),
    ) -> None:
        head = (
            f"{_STATUS_LINES.get(status) or f'HTTP/1.1 {status} Unknown'}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        )
        for name, value in extra:
            head += f"{name}: {value}\r\n"
        transport.write((head + "\r\n").encode("latin-1") + data)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route(
        self, method: str, path: str, parts: List[str]
    ) -> Tuple[int, object, Sequence[Tuple[str, str]]]:
        """Every response but a POST to the estimate endpoint, which
        ``_serve_conn`` awaits itself."""
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}, ()
            return self._healthz()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}, ()
            return 200, self._render_metrics(), ()
        if len(parts) == 5 and parts[1:3] == ["v1", "models"] and parts[4] == "estimate":
            return 405, {"error": "use POST"}, ()
        return 404, {"error": f"no route for {path!r}"}, ()

    # ------------------------------------------------------------------
    # POST /v1/models/{name}/estimate
    # ------------------------------------------------------------------
    async def _estimate(
        self, model: str, headers: Dict[str, str], body: bytes
    ) -> Tuple[int, object, List[Tuple[str, str]]]:
        tenant = headers.get("x-tenant", "default")
        started = time.perf_counter()
        series = self._tenant_series.get(tenant)
        if series is None:
            series = self._series_for(tenant)
        tenant_key, ok_key = series

        def finish(status: int, payload, extra=()) -> Tuple[int, object, list]:
            if status == 200:
                self._requests.inc_series(ok_key)
            else:
                self._requests.inc(tenant=tenant, code=str(status))
            return status, payload, list(extra)

        if self._draining:
            self._shed.inc(tenant=tenant, reason="draining")
            return finish(503, {"error": "server is draining"}, [("Retry-After", "1")])
        try:
            queries, seeds, single, deadline_s, budget_ms, max_q_error = self._parse_estimate(body)
        except _BadRequest as exc:
            return finish(400, {"error": str(exc)})
        if model not in self.service.registry:
            return finish(404, {"error": f"unknown model {model!r}"})

        decision = self.admission.admit(
            tenant, cost=len(queries), deadline_s=deadline_s
        )
        if not decision.admitted:
            self._shed.inc(tenant=tenant, reason=decision.reason)
            retry = [("Retry-After", str(max(1, math.ceil(decision.retry_after))))]
            return finish(
                decision.status,
                {"error": f"rejected by admission ({decision.reason})"},
                retry if decision.status in (429, 503) else [],
            )
        # Absolute deadline rides the request through scheduler and pool:
        # work still queued when it passes fails with DeadlineError (504
        # here) *before* dispatch, so expired requests never hold a worker.
        abs_deadline = (
            time.monotonic() + deadline_s if deadline_s is not None else None
        )
        try:
            futures = []
            try:
                for query, seed in zip(queries, seeds):
                    futures.append(
                        self.service.submit(
                            query, model=model, seed=seed, deadline=abs_deadline,
                            budget_ms=budget_ms, max_q_error=max_q_error,
                        )
                    )
            except QueryError as exc:
                return finish(400, {"error": str(exc)})
            except ServingError as exc:
                return finish(503, {"error": str(exc)})
            one = len(futures) == 1
            try:
                if futures[0].done() if one else all(f.done() for f in futures):
                    # Answered inline (cheap cascade tier, open-circuit
                    # fallback): skip the loop round trip a wrapped future
                    # costs.
                    estimates = [f.result() for f in futures]
                else:
                    # One query awaits its own wrapped future; only a batch
                    # gathers.
                    waiting = (
                        asyncio.wrap_future(futures[0]) if one
                        else asyncio.gather(*[asyncio.wrap_future(f) for f in futures])
                    )
                    if deadline_s is not None:
                        remaining = deadline_s - (time.perf_counter() - started)
                        waiting = asyncio.wait_for(waiting, max(remaining, 0.001))
                    answer = await waiting
                    estimates = [answer] if one else answer
            except asyncio.TimeoutError:
                return finish(504, {"error": "deadline exceeded in flight"})
            except DeadlineError as exc:
                return finish(504, {"error": str(exc)})
            except QueryError as exc:
                return finish(400, {"error": str(exc)})
            except ReproError as exc:
                return finish(503, {"error": str(exc)})
            except Exception as exc:  # noqa: BLE001 - surfaced as a 500
                return finish(500, {"error": f"{type(exc).__name__}: {exc}"})
        finally:
            elapsed = time.perf_counter() - started
            self.admission.release(elapsed)
            self._latency.observe_series(tenant_key, elapsed)
        self._queries.inc_series(tenant_key, len(queries))
        n_degraded = 0
        for f in futures:
            if getattr(f, "degraded", False):
                n_degraded += 1
        if n_degraded:
            self._degraded_queries.inc(n_degraded, tenant=tenant)
        payload: Dict[str, object] = {"model": model}
        if single:
            payload["estimate"] = float(estimates[0])
        else:
            payload["estimates"] = [float(e) for e in estimates]
        if n_degraded:
            payload["degraded"] = True
        # Cascade-routed answers report who answered; responses keep their
        # pre-cascade shape when no cascade is attached.
        if single:
            tier = getattr(futures[0], "tier", None)
            if tier is not None:
                payload["tier"] = tier
        else:
            tiers = [getattr(f, "tier", None) for f in futures]
            if any(t is not None for t in tiers):
                payload["tiers"] = tiers
        return finish(200, payload)

    def _series_for(self, tenant: str) -> Tuple[tuple, tuple]:
        """``tenant``'s metric series keys, built once per tenant."""
        if len(self._tenant_series) >= _TENANT_SERIES_LIMIT:
            self._tenant_series.clear()
        series = (series_key(tenant=tenant), series_key(code="200", tenant=tenant))
        self._tenant_series[tenant] = series
        return series

    def _parse_estimate(self, body: bytes):
        """Decode and validate an estimate body; raises :class:`_BadRequest`."""
        try:
            doc = _DECODER.decode(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _BadRequest(f"body is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise _BadRequest("body must be a JSON object")
        unknown = sorted(set(doc) - _ESTIMATE_KEYS)
        if unknown:
            raise _BadRequest(
                f"unknown body key(s) {unknown}; known: {sorted(_ESTIMATE_KEYS)}"
            )
        if ("query" in doc) == ("queries" in doc):
            raise _BadRequest("body must carry exactly one of 'query' or 'queries'")
        single = "query" in doc
        raw_queries = [doc["query"]] if single else doc["queries"]
        if not isinstance(raw_queries, list) or not raw_queries:
            raise _BadRequest("'queries' must be a non-empty list")
        if single and "seeds" in doc:
            raise _BadRequest("'seeds' requires 'queries'; use 'seed' with 'query'")
        if not single and "seed" in doc:
            raise _BadRequest("'seed' requires 'query'; use 'seeds' with 'queries'")
        seeds = [doc.get("seed")] if single else doc.get("seeds")
        if seeds is None:
            seeds = [None] * len(raw_queries)
        if not isinstance(seeds, list) or len(seeds) != len(raw_queries):
            raise _BadRequest("'seeds' must be a list matching 'queries' in length")
        for seed in seeds:
            if seed is not None and (
                not isinstance(seed, int) or isinstance(seed, bool) or seed < 0
            ):
                raise _BadRequest("seeds must be non-negative integers (or null)")
        deadline_ms = doc.get("deadline_ms", self.config.default_deadline_ms)
        if deadline_ms is not None:
            if (
                not isinstance(deadline_ms, (int, float))
                or isinstance(deadline_ms, bool)
                or deadline_ms <= 0
            ):
                raise _BadRequest("'deadline_ms' must be a positive number")
        budget_ms = doc.get("budget_ms")
        if budget_ms is not None:
            if (
                not isinstance(budget_ms, (int, float))
                or isinstance(budget_ms, bool)
                or budget_ms <= 0
            ):
                raise _BadRequest("'budget_ms' must be a positive number")
            budget_ms = float(budget_ms)
        max_q_error = doc.get("max_q_error")
        if max_q_error is not None:
            if (
                not isinstance(max_q_error, (int, float))
                or isinstance(max_q_error, bool)
                or max_q_error < 1
            ):
                raise _BadRequest("'max_q_error' must be a number >= 1")
            max_q_error = float(max_q_error)
        try:
            if single:
                queries = [query_from_dict(doc["query"])]
            else:
                queries = [query_from_dict(q) for q in raw_queries]
        except QueryError as exc:
            raise _BadRequest(str(exc)) from exc
        deadline_s = deadline_ms / 1e3 if deadline_ms is not None else None
        return queries, seeds, single, deadline_s, budget_ms, max_q_error

    # ------------------------------------------------------------------
    # GET /healthz
    # ------------------------------------------------------------------
    def _healthz(self) -> Tuple[int, object, List[Tuple[str, str]]]:
        service_stats = self.service.stats()
        refreshers = {}
        degraded = False
        for refresher in self.service.refreshers:
            alive = (
                refresher._thread is not None and refresher._thread.is_alive()
            )
            failed = refresher.last_error is not None
            degraded = degraded or failed or not alive
            refreshers[refresher.name] = {
                "alive": alive,
                "last_error": (
                    str(refresher.last_error) if failed else None
                ),
                **refresher.stats(),
            }
        status = "draining" if self._draining else (
            "degraded" if degraded else "ok"
        )
        payload = {
            "status": status,
            "models": sorted(self.service.registry.names()),
            "registry": service_stats["registry"],
            "schedulers": service_stats.get("models", {}),
            "pools": service_stats.get("pools", {}),
            "refreshers": refreshers,
            "admission": self.admission.stats(),
            "cascade": service_stats.get("cascade", {}),
        }
        return (503 if self._draining else 200), payload, []

    # ------------------------------------------------------------------
    # GET /metrics
    # ------------------------------------------------------------------
    def _render_metrics(self) -> str:
        """Request counters plus live service gauges, Prometheus text."""
        inflight = self.metrics.gauge(
            "repro_http_inflight", "Requests currently past admission."
        )
        inflight.set(self.admission.in_flight)
        service_stats = self.service.stats()
        scheduler_g = self.metrics.gauge(
            "repro_scheduler_stat", "Micro-batch scheduler telemetry."
        )
        for model, stats in service_stats.get("models", {}).items():
            for key, value in stats.items():
                scheduler_g.set(float(value), model=model, stat=key)
        pool_g = self.metrics.gauge(
            "repro_worker_pool_stat", "Worker-pool telemetry."
        )
        for model, stats in service_stats.get("pools", {}).items():
            for key, value in stats.items():
                pool_g.set(float(value), model=model, stat=key)
        registry_g = self.metrics.gauge(
            "repro_registry_stat", "Model-registry telemetry."
        )
        for key, value in service_stats["registry"].items():
            registry_g.set(float(value), stat=key)
        resilience_g = self.metrics.gauge(
            "repro_resilience_stat",
            "Circuit-breaker + degraded-fallback telemetry "
            "(state: 0=closed 1=half_open 2=open).",
        )
        for model, stats in service_stats.get("resilience", {}).items():
            for key, value in stats.items():
                resilience_g.set(float(value), model=model, stat=key)
        tier_g = self.metrics.gauge(
            "repro_cascade_tier_total",
            "Cascade-routed queries answered, by model and tier.",
        )
        escalation_g = self.metrics.gauge(
            "repro_cascade_escalation_rate",
            "Fraction of cascade-routed queries escalated to the final tier.",
        )
        demotion_g = self.metrics.gauge(
            "repro_cascade_staleness_demotion",
            "Multiplier applied to the neural tier's calibrated bound "
            "(1.0 = fresh model).",
        )
        for model, cstats in service_stats.get("cascade", {}).items():
            for tier, count in cstats.get("tiers", {}).items():
                tier_g.set(float(count), model=model, tier=tier)
            escalation_g.set(float(cstats.get("escalation_rate", 0.0)), model=model)
            demotion_g.set(float(cstats.get("staleness_demotion", 1.0)), model=model)
        staleness_qerror = self.metrics.gauge(
            "repro_drift_staleness_qerror",
            "Rolling served-estimate q-error vs reported truths.",
        )
        divergence = self.metrics.gauge(
            "repro_drift_max_divergence",
            "Max per-column TV divergence of live data vs the served model.",
        )
        ingested = self.metrics.gauge(
            "repro_drift_ingested_fraction",
            "Rows ingested since the served model's snapshot, as a fraction.",
        )
        for refresher in self.service.refreshers:
            report = refresher.monitor.observe(*refresher.ingestor.snapshot())
            staleness_qerror.set(report.staleness_qerror, model=refresher.name)
            divergence.set(report.max_divergence, model=refresher.name)
            ingested.set(report.ingested_fraction, model=refresher.name)
        return self.metrics.render() + "\n".join(self.service.queue_wait.render()) + "\n"


class HttpServerThread:
    """Run an :class:`EstimationHttpServer` on a background event loop.

    The synchronous adapter everything non-async uses (tests, benchmarks,
    examples)::

        with HttpServerThread(service, HttpConfig(port=0)) as server:
            client = HttpEstimationClient(server.host, server.port, ...)

    ``stop`` (or context exit) drains gracefully: in-flight requests are
    answered, late ones see 503, the loop is torn down. Pass
    ``close_service=True`` to also close the underlying service after the
    drain (the SIGTERM path of :func:`serve` always does).
    """

    def __init__(
        self, service: EstimationService, config: Optional[HttpConfig] = None
    ):
        self._service = service
        self._config = config
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self.server: Optional[EstimationHttpServer] = None
        #: True once a stop() drain exceeded its timeout — requests may
        #: have been abandoned mid-flight when the loop was torn down.
        self.drain_timed_out = False

    # ------------------------------------------------------------------
    def start(self) -> "HttpServerThread":
        if self._thread is not None:
            raise ServingError("server thread already started")
        self._thread = threading.Thread(
            target=self._run, name="http-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._startup_error is not None:
            raise ServingError("HTTP server failed to start") from self._startup_error
        if self.server is None:
            raise ServingError("HTTP server did not start within 30s")
        return self

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = EstimationHttpServer(self._service, self._config)
            loop.run_until_complete(server.start())
            self.server = server
            self._ready.set()
            loop.run_forever()
            # Drain scheduled by stop(): run callbacks queued at shutdown.
            loop.run_until_complete(asyncio.sleep(0))
        except BaseException as exc:  # noqa: BLE001 - reported to start()
            self._startup_error = exc
            self._ready.set()
        finally:
            loop.close()

    def stop(self, *, close_service: bool = False, timeout: float = 60.0) -> None:
        """Drain the server and tear the loop down. Idempotent."""
        thread, loop, server = self._thread, self._loop, self.server
        if thread is None or loop is None:
            return
        self._thread = None
        if server is not None and not loop.is_closed():
            drained = asyncio.run_coroutine_threadsafe(
                server.drain(close_service=close_service), loop
            )
            try:
                drained.result(timeout=timeout)
            except (asyncio.TimeoutError, TimeoutError):
                # Don't swallow a botched drain: flag it and warn so tests
                # and operators see that in-flight requests may have been
                # abandoned when the loop went down.
                self.drain_timed_out = True
                drained.cancel()
                warnings.warn(
                    f"HTTP server drain did not complete within {timeout}s; "
                    "tearing the event loop down with requests possibly "
                    "still in flight",
                    RuntimeWarning,
                    stacklevel=2,
                )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=timeout)

    # ------------------------------------------------------------------
    @property
    def host(self) -> str:
        if self.server is None:
            raise ServingError("server not started")
        return self.server.host

    @property
    def port(self) -> int:
        if self.server is None:
            raise ServingError("server not started")
        return self.server.port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "HttpServerThread":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(
    service: EstimationService, config: Optional[HttpConfig] = None
) -> None:
    """Blocking process entrypoint: serve until SIGTERM/SIGINT, then drain.

    The production shape: bind, install signal handlers, serve forever;
    on the first signal stop accepting, flush in-flight futures, close
    the service (schedulers then worker pools), and return.
    """
    asyncio.run(_serve_async(service, config))


async def _serve_async(
    service: EstimationService, config: Optional[HttpConfig]
) -> None:
    import signal

    server = EstimationHttpServer(service, config)
    await server.start()
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover
            pass  # non-main thread / platform without signal support
    await stop.wait()
    await server.drain(close_service=True)


__all__ = [
    "EstimationHttpServer",
    "HttpServerThread",
    "serve",
]
