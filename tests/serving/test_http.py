"""HTTP front end: wire equivalence, 4xx surfaces, shedding, graceful drain."""

from __future__ import annotations

import itertools
import json
import socket
import threading
import time
from concurrent.futures import Future

import numpy as np
import pytest

from repro.errors import DeadlineError, QueryError, ServingError
from repro.eval.harness import evaluate_estimator, true_cardinalities
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.serving import (
    EstimationService,
    HttpConfig,
    HttpEstimationClient,
    HttpServerThread,
    ServingConfig,
    TenantQuota,
)
from repro.serving import http_client
from repro.serving.metrics import parse_samples
from tests.core.test_estimator import correlated_schema
from tests.serving.conftest import FakeModel


@pytest.fixture(scope="module")
def http_stack(oracle_engine):
    """One served oracle model behind a live HTTP server (read-only)."""
    service = EstimationService()
    service.register("oracle", oracle_engine)
    with HttpServerThread(service, HttpConfig(port=0)) as server:
        yield service, server
    service.close()


@pytest.fixture()
def client(http_stack):
    _, server = http_stack
    client = HttpEstimationClient(server.host, server.port, "oracle")
    yield client
    client.close()


class TestWireEquivalence:
    def test_single_estimate_bitwise_equals_in_process(self, http_stack, client, workload):
        service, _ = http_stack
        for i, query in enumerate(workload):
            assert client.estimate(query, seed=50 + i) == service.estimate(
                query, seed=50 + i
            )

    def test_batch_estimate_bitwise_equals_in_process(self, http_stack, client, workload):
        service, _ = http_stack
        seeds = [100 + i for i in range(len(workload))]
        wire = client.estimate_batch(workload, seeds=seeds)
        ref = np.array(
            [service.estimate(q, seed=s) for q, s in zip(workload, seeds)]
        )
        assert np.array_equal(wire, ref)

    def test_harness_drives_the_wire_client(self, client, workload):
        """evaluate_estimator accepts the HTTP adapter unchanged."""
        schema = correlated_schema(n_root=12, seed=4)
        truths = true_cardinalities(schema, workload)
        result = evaluate_estimator(
            "over-the-wire", client, workload, truths, concurrency=2
        )
        assert len(result.errors) == len(workload)
        assert all(np.isfinite(e) and e >= 1.0 for e in result.errors)


class TestClientConnections:
    def test_close_ends_every_threads_connection(self, http_stack, workload):
        service, server = http_stack
        client = HttpEstimationClient(server.host, server.port, "oracle")
        expected = service.estimate(workload[0], seed=1)
        opened = []

        def call():
            assert client.estimate(workload[0], seed=1) == expected
            opened.append(client._local.conn)

        threads = [threading.Thread(target=call) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        call()
        assert len({id(conn) for conn in opened}) == 3
        closer = threading.Thread(target=client.close)
        closer.start()
        closer.join()
        assert all(conn.closed for conn in opened)
        call()  # this thread's closed connection is replaced, not reused
        assert not opened[-1].closed and opened[-1] is not opened[-2]
        client.close()
        assert opened[-1].closed


class TestBadRequests:
    def _post_raw(self, client, body: bytes, path=None):
        status, _, payload = client._request(
            "POST", path or f"/v1/models/{client.model}/estimate", body
        )
        return status, json.loads(payload.decode())

    def test_malformed_json_is_400(self, client):
        status, doc = self._post_raw(client, b"{not json")
        assert status == 400
        assert "not valid JSON" in doc["error"]

    def test_non_object_body_is_400(self, client):
        status, doc = self._post_raw(client, b"[1, 2]")
        assert status == 400
        assert "JSON object" in doc["error"]

    def test_unknown_body_key_is_400(self, client):
        status, doc = self._post_raw(
            client, json.dumps({"query": {"tables": ["R"]}, "qeury": 1}).encode()
        )
        assert status == 400
        assert "qeury" in doc["error"]

    def test_query_and_queries_together_is_400(self, client):
        body = {"query": {"tables": ["R"]}, "queries": [{"tables": ["R"]}]}
        status, doc = self._post_raw(client, json.dumps(body).encode())
        assert status == 400
        assert "exactly one of" in doc["error"]

    def test_missing_both_is_400(self, client):
        status, _ = self._post_raw(client, b"{}")
        assert status == 400

    def test_seed_count_mismatch_is_400(self, client):
        body = {"queries": [{"tables": ["R"]}], "seeds": [1, 2]}
        status, doc = self._post_raw(client, json.dumps(body).encode())
        assert status == 400
        assert "matching 'queries'" in doc["error"]

    def test_bad_dsl_is_400(self, client):
        body = {"query": {"tables": ["R"],
                          "filters": [{"column": "R.year", "op": "!=", "value": 1}]}}
        status, doc = self._post_raw(client, json.dumps(body).encode())
        assert status == 400
        assert "unsupported filter op" in doc["error"]

    def _post_before_admission(self, http_stack, client, body: dict):
        """POST ``body``; asserts admission neither admitted nor shed it."""
        admission = http_stack[1].server.admission
        shed_before = dict(admission.stats()["shed"])
        admitted_before = sum(admission.admitted.values())
        status, doc = self._post_raw(client, json.dumps(body).encode())
        assert admission.stats()["shed"] == shed_before
        assert sum(admission.admitted.values()) == admitted_before
        return status, doc

    @pytest.mark.parametrize(
        "field, value", [("n_samples", 32), ("max_rel_var", 0.05)]
    )
    def test_per_request_sampling_override_is_unknown_key(
        self, http_stack, client, field, value
    ):
        body = {"query": {"tables": ["R"]}, field: value}
        status, doc = self._post_before_admission(http_stack, client, body)
        assert status == 400
        assert "unknown body key" in doc["error"] and field in doc["error"]

    @pytest.mark.parametrize("value", [True, False])
    @pytest.mark.parametrize("field", ["deadline_ms", "max_q_error", "budget_ms"])
    def test_boolean_number_field_is_400(self, http_stack, client, field, value):
        body = {"query": {"tables": ["R"]}, field: value}
        status, doc = self._post_before_admission(http_stack, client, body)
        assert status == 400
        assert field in doc["error"]

    @pytest.mark.parametrize(
        "body",
        [
            {"query": {"tables": ["R"]}, "seed": -1},
            {"queries": [{"tables": ["R"]}, {"tables": ["R"]}], "seeds": [0, -1]},
            {"query": {"tables": ["R"]}, "seed": True},
        ],
        ids=["negative", "negative-in-seeds", "bool"],
    )
    def test_bad_seed_is_400_and_the_model_keeps_serving(
        self, oracle_engine, workload, body
    ):
        service = EstimationService()
        service.register("oracle", oracle_engine)
        with HttpServerThread(service, HttpConfig(port=0)) as server:
            client = HttpEstimationClient(server.host, server.port, "oracle")
            status, doc = self._post_before_admission(
                (service, server), client, body
            )
            assert status == 400
            assert "non-negative integers" in doc["error"]
            assert client.estimate(workload[0], seed=7) == service.estimate(
                workload[0], seed=7
            )
            client.close()
        service.close()

    def test_unknown_column_is_400(self, client):
        """Submit-time validation (plan/layout) surfaces as a 400, not a 500."""
        query = Query.make(["R"], [Predicate("R", "id", "=", 1)])  # excluded col
        with pytest.raises(QueryError, match="400"):
            client.estimate(query)

    def test_unknown_model_is_404(self, http_stack):
        _, server = http_stack
        ghost = HttpEstimationClient(server.host, server.port, "ghost")
        with pytest.raises(QueryError, match="404"):
            ghost.estimate(Query.make(["R"], []))
        ghost.close()

    def test_unknown_route_is_404(self, client):
        status, _, _ = client._request("GET", "/v2/nope")
        assert status == 404

    def test_wrong_method_is_405(self, client):
        status, _, _ = client._request("GET", "/v1/models/oracle/estimate")
        assert status == 405

    def test_oversized_body_is_413(self, http_stack):
        service, _ = http_stack
        with HttpServerThread(
            service, HttpConfig(port=0, max_body_bytes=64)
        ) as small:
            tiny = HttpEstimationClient(small.host, small.port, "oracle")
            status, _, payload = tiny._request(
                "POST", "/v1/models/oracle/estimate", b"x" * 65
            )
            assert status == 413
            tiny.close()


class TestAdmissionOverTheWire:
    def test_unknown_tenant_is_403_when_strict(self, oracle_engine):
        config = ServingConfig(
            http=HttpConfig(
                port=0, tenants=(TenantQuota("vip"),), strict_tenants=True
            )
        )
        service = EstimationService(config=config)
        service.register("oracle", oracle_engine)
        query = Query.make(["R"], [])
        # No explicit HttpConfig argument: the section must flow in from
        # ServingConfig.http.
        with HttpServerThread(service) as server:
            anon = HttpEstimationClient(server.host, server.port, "oracle")
            with pytest.raises(QueryError, match="403"):
                anon.estimate(query)
            vip = HttpEstimationClient(
                server.host, server.port, "oracle", tenant="vip"
            )
            assert vip.estimate(query, seed=1) > 0
            anon.close()
            vip.close()
        service.close()

    def test_quota_exhaustion_is_429_with_retry_after(self, oracle_engine):
        service = EstimationService()
        service.register("oracle", oracle_engine)
        query = Query.make(["R"], [])
        with HttpServerThread(
            service, HttpConfig(port=0, rate=2.0)
        ) as server:
            client = HttpEstimationClient(server.host, server.port, "oracle")
            client.estimate(query, seed=1)
            client.estimate(query, seed=2)
            status, headers, payload = client._request(
                "POST",
                "/v1/models/oracle/estimate",
                json.dumps({"query": {"tables": ["R"]}}).encode(),
            )
            assert status == 429
            assert int(headers["Retry-After"]) >= 1
            assert "rate" in json.loads(payload.decode())["error"]
            client.close()
        service.close()

    def test_infeasible_deadline_shed_with_503(self):
        """Once the EWMA knows requests are slow, tight deadlines shed early."""
        service = EstimationService()
        service.register("slow", FakeModel(tag=7.0, delay=0.2))
        query = Query.make(["R"], [])
        with HttpServerThread(service, HttpConfig(port=0)) as server:
            # max_retries=0: a retried 503 would shed more than once and
            # break the exact shed-count assertion below.
            client = HttpEstimationClient(
                server.host, server.port, "slow", max_retries=0
            )
            assert client.estimate(query) == 7.0  # teaches the EWMA ~0.2s
            with pytest.raises(ServingError, match="503.*deadline"):
                client.estimate(query, deadline_ms=10.0)
            shed = server.server.admission.stats()["shed"]
            assert shed == {"default/deadline": 1}
            client.close()
        service.close()

    def test_in_flight_deadline_expiry_is_504(self):
        service = EstimationService()
        service.register("slow", FakeModel(tag=7.0, delay=0.3))
        query = Query.make(["R"], [])
        with HttpServerThread(service, HttpConfig(port=0)) as server:
            client = HttpEstimationClient(server.host, server.port, "slow")
            # No latency history yet, so admission lets it through; the
            # in-flight timer then fires before the model answers.
            with pytest.raises(ServingError, match="504"):
                client.estimate(query, deadline_ms=50.0)
            client.close()
        service.close()


class TestObservability:
    def test_healthz_reports_models_and_admission(self, client):
        doc = client.healthz()
        assert doc["status"] == "ok"
        assert doc["models"] == ["oracle"]
        assert doc["admission"]["in_flight"] == 0
        assert "registry" in doc

    def test_metrics_reconcile_exactly_with_client_tallies(self, oracle_engine, workload):
        service = EstimationService()
        service.register("oracle", oracle_engine)
        with HttpServerThread(
            service, HttpConfig(port=0, rate=4.0)
        ) as server:
            client = HttpEstimationClient(
                server.host, server.port, "oracle", tenant="t1"
            )
            ok = shed = queries = 0
            # Batch of 3 + two singles = 5 tokens against a burst of 4.
            for body in (
                {"queries": [{"tables": ["R"]}] * 3, "seeds": [1, 2, 3]},
                {"query": {"tables": ["R"]}, "seed": 4},
                {"query": {"tables": ["R"]}, "seed": 5},
            ):
                status, _, payload = client._request(
                    "POST",
                    "/v1/models/oracle/estimate",
                    json.dumps(body).encode(),
                )
                if status == 200:
                    ok += 1
                    doc = json.loads(payload.decode())
                    queries += len(doc.get("estimates", [0.0]))
                else:
                    assert status == 429
                    shed += 1
            assert ok == 2 and shed == 1  # 3 + 1 admitted, then the bucket is dry
            samples = parse_samples(client.metrics_text())
            assert samples['repro_http_requests_total{code="200",tenant="t1"}'] == ok
            assert samples['repro_http_requests_total{code="429",tenant="t1"}'] == shed
            assert samples['repro_http_queries_total{tenant="t1"}'] == queries
            assert samples['repro_http_shed_total{reason="rate",tenant="t1"}'] == shed
            assert (
                samples['repro_http_request_seconds_count{tenant="t1"}'] == ok
            )
            # Distinct seeds, so no cache hits: every answered query waited
            # in the scheduler's queue exactly once.
            waits = 'repro_scheduler_queue_wait_seconds'
            assert samples[f'{waits}_count{{model="oracle"}}'] == queries
            assert samples[f'{waits}_bucket{{model="oracle",le="+Inf"}}'] == queries
            assert samples['repro_scheduler_stat{model="oracle",stat="outstanding"}'] == 0
            client.close()
        service.close()

    def test_metrics_export_scheduler_gauges(self, client):
        client.estimate(Query.make(["R"], []), seed=11)
        samples = parse_samples(client.metrics_text())
        key = 'repro_scheduler_stat{model="oracle",stat="requests"}'
        assert samples[key] >= 1
        key = 'repro_scheduler_stat{model="oracle",stat="expected_concurrency"}'
        assert samples[key] >= 1

    def test_queue_wait_is_one_histogram_family_across_models(self, oracle_engine):
        service = EstimationService()
        service.register("a", oracle_engine)
        service.register("b", oracle_engine)
        with HttpServerThread(service, HttpConfig(port=0)) as server:
            for model, n in (("a", 1), ("b", 2)):
                client = HttpEstimationClient(server.host, server.port, model)
                for seed in range(n):
                    client.estimate(Query.make(["R"], []), seed=seed)
                text = client.metrics_text()
                client.close()
        service.close()
        name = "repro_scheduler_queue_wait_seconds"
        assert text.count(f"# TYPE {name} histogram") == 1
        samples = parse_samples(text)
        assert samples[f'{name}_count{{model="a"}}'] == 1
        assert samples[f'{name}_count{{model="b"}}'] == 2
        assert samples[f'{name}_sum{{model="b"}}'] > 0


class TestGracefulDrain:
    def test_drain_under_load_drops_no_admitted_request(self):
        """Every admitted request is answered; late ones see clean errors."""
        service = EstimationService()
        service.register("m", FakeModel(tag=3.0, delay=0.02))
        server = HttpServerThread(service, HttpConfig(port=0)).start()
        query = Query.make(["R"], [])

        successes = []
        clean_rejections = []
        anomalies = []
        stop = threading.Event()

        def worker():
            # Fail fast on drain-time 503s/disconnects: this test asserts
            # the *first* response for every request, not retried outcomes.
            client = HttpEstimationClient(
                server.host, server.port, "m", max_retries=0
            )
            while not stop.is_set():
                try:
                    successes.append(client.estimate(query))
                except ServingError:
                    clean_rejections.append("shed")  # 503 draining
                except (ConnectionError, OSError):
                    clean_rejections.append("closed")  # listener gone
                except Exception as exc:  # noqa: BLE001
                    anomalies.append(repr(exc))
            client.close()

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        # Let traffic build, then drain mid-flight.
        while len(successes) < 20:
            pass
        admission = server.server.admission
        server.stop()  # graceful drain: flush in-flight, then tear down
        stop.set()
        for t in threads:
            t.join(timeout=10)

        assert not anomalies
        # Zero dropped in-flight futures: everything admission admitted
        # produced a 200 the load generator observed.
        assert sum(admission.admitted.values()) == len(successes)
        assert all(v == 3.0 for v in successes)
        assert admission.in_flight == 0
        service.close()

    def test_stop_is_idempotent(self, oracle_engine):
        service = EstimationService()
        service.register("oracle", oracle_engine)
        server = HttpServerThread(service, HttpConfig(port=0)).start()
        server.stop()
        server.stop()
        service.close()


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    @pytest.mark.parametrize(
        "field", ["deadline_ms", "max_rel_var", "max_q_error", "budget_ms"]
    )
    def test_non_finite_field_is_400_before_admission(
        self, http_stack, client, field, literal
    ):
        _, server = http_stack
        admission = server.server.admission
        shed_before = dict(admission.stats()["shed"])
        admitted_before = sum(admission.admitted.values())
        body = f'{{"query": {{"tables": ["R"]}}, "{field}": {literal}}}'
        status, _, payload = client._request(
            "POST", "/v1/models/oracle/estimate", body.encode()
        )
        assert status == 400
        assert literal in json.loads(payload.decode())["error"]
        assert admission.stats()["shed"] == shed_before
        assert sum(admission.admitted.values()) == admitted_before


def _read_request(conn: socket.socket, buf: bytes):
    """Read one HTTP request off ``conn``; (request, leftover) or None on EOF."""
    while b"\r\n\r\n" not in buf:
        chunk = conn.recv(4096)
        if not chunk:
            return None
        buf += chunk
    head, _, buf = buf.partition(b"\r\n\r\n")
    length = 0
    for line in head.split(b"\r\n")[1:]:
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            length = int(value)
    while len(buf) < length:
        buf += conn.recv(4096)
    return head + b"\r\n\r\n" + buf[:length], buf[length:]


def _response(status: int, doc, *headers: str) -> bytes:
    body = json.dumps(doc).encode()
    head = [f"HTTP/1.1 {status} X", f"Content-Length: {len(body)}", *headers]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


class _FakeServer:
    """Plain-socket HTTP peer: ``reply(n_conn, n_req)`` scripts every answer.

    ``reply`` gets the 1-based connection and per-connection request
    numbers and returns the bytes to send (a list sends them as separate
    writes with a pause between), or None to close the connection without
    answering. A reply carrying ``Connection: close`` closes after sending.
    """

    def __init__(self, reply):
        self.reply = reply
        self.connections = 0
        self.requests = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self.port = self._listener.getsockname()[1]
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            self.connections += 1
            with conn:
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._serve(conn, self.connections)

    def _serve(self, conn: socket.socket, n_conn: int) -> None:
        buf = b""
        for n_req in itertools.count(1):
            request = _read_request(conn, buf)
            if request is None:
                return
            buf = request[1]
            self.requests += 1
            out = self.reply(n_conn, n_req)
            if out is None:
                return
            pieces = out if isinstance(out, list) else [out]
            for i, piece in enumerate(pieces):
                if i:
                    time.sleep(0.01)
                conn.sendall(piece)
            if b"\r\nConnection: close\r\n" in b"".join(pieces):
                return

    def client(self, **kwargs) -> HttpEstimationClient:
        return HttpEstimationClient("127.0.0.1", self.port, "m", **kwargs)

    def close(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5)
        self._listener.close()


@pytest.fixture()
def fake_server():
    servers = []

    def make(reply):
        servers.append(_FakeServer(reply))
        return servers[-1]

    yield make
    for server in servers:
        server.close()


class TestClientFraming:
    OK = _response(200, {"estimate": 5.0}, "Connection: keep-alive")
    QUERY = Query.make(["R"], [])

    def test_response_one_byte_at_a_time(self, fake_server):
        server = fake_server(lambda c, r: [bytes([b]) for b in self.OK])
        client = server.client()
        assert client.estimate(self.QUERY) == 5.0
        assert client.estimate(self.QUERY) == 5.0
        assert server.connections == 1
        client.close()

    def test_head_and_body_split_across_reads(self, fake_server):
        cut = self.OK.index(b"\r\n\r\n") + 6
        server = fake_server(lambda c, r: [self.OK[:20], self.OK[20:cut], self.OK[cut:]])
        client = server.client()
        assert client.estimate(self.QUERY) == 5.0
        assert client.estimate(self.QUERY) == 5.0
        assert server.connections == 1
        client.close()

    def test_surplus_bytes_frame_the_next_response(self, fake_server):
        second = _response(200, {"estimate": 7.0})
        server = fake_server(lambda c, r: self.OK + second if r == 1 else b"")
        client = server.client()
        assert client.estimate(self.QUERY) == 5.0
        assert client.estimate(self.QUERY) == 7.0
        assert server.connections == 1
        client.close()

    def test_connection_close_reply_reconnects_next_call(self, fake_server):
        closing = _response(200, {"estimate": 5.0}, "Connection: close")
        server = fake_server(lambda c, r: closing if r == 1 else None)
        client = server.client(max_retries=0)
        assert client.estimate(self.QUERY) == 5.0
        assert client.estimate(self.QUERY) == 5.0
        assert server.connections == 2
        assert client.n_retries == 0
        client.close()

    def test_body_to_eof_without_content_length(self, fake_server):
        body = json.dumps({"estimate": 3.0}).encode()
        reply = b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n" + body
        server = fake_server(lambda c, r: reply if r == 1 else None)
        client = server.client(max_retries=0)
        assert client.estimate(self.QUERY) == 3.0
        client.close()

    def test_close_before_status_line_is_retried(self, fake_server):
        server = fake_server(lambda c, r: None if c == 1 else self.OK)
        client = server.client(max_retries=1, backoff_base_s=0.001)
        assert client.estimate(self.QUERY) == 5.0
        assert client.n_retries == 1
        assert server.connections == 2
        client.close()

    def test_close_before_status_line_fails_fast(self, fake_server):
        server = fake_server(lambda c, r: None)
        client = server.client(max_retries=0)
        with pytest.raises(ConnectionError):
            client.estimate(self.QUERY)
        assert server.requests == 1
        client.close()

    def test_garbage_status_line_is_a_connection_error(self, fake_server):
        server = fake_server(lambda c, r: b"garbage\r\n\r\n")
        client = server.client(max_retries=0)
        with pytest.raises(ConnectionError, match="status line"):
            client.estimate(self.QUERY)
        client.close()

    def test_chunked_reply_is_refused(self, fake_server):
        reply = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n"
        server = fake_server(lambda c, r: reply)
        client = server.client(max_retries=0)
        with pytest.raises(ServingError, match="chunked"):
            client.estimate(self.QUERY)
        client.close()

    def test_lower_case_retry_after_is_honoured(self, fake_server, monkeypatch):
        shed = _response(503, {"error": "shed"}, "retry-after: 2")
        server = fake_server(lambda c, r: self.OK if r == 2 else shed)
        sleeps = []
        monkeypatch.setattr(http_client.time, "sleep", sleeps.append)
        client = server.client(max_retries=1, backoff_base_s=0.001)
        assert client.estimate(self.QUERY) == 5.0
        assert sleeps == [2.0]
        status, headers, _ = client._request("GET", "/healthz")
        assert status == 503
        assert headers["Retry-After"] == headers.get("RETRY-AFTER") == "2"
        client.close()


class TestAnsweredFutures:
    """An already-answered future maps errors exactly like an awaited one."""

    @pytest.mark.parametrize("answered", [True, False], ids=["done", "awaited"])
    @pytest.mark.parametrize(
        "exc, status",
        [
            (QueryError("bad column"), 400),
            (ServingError("breaker open"), 503),
            (DeadlineError("expired in queue"), 504),
        ],
        ids=["query", "serving", "deadline"],
    )
    def test_error_status_and_body(self, monkeypatch, exc, status, answered):
        service = EstimationService()
        service.register("m", FakeModel(tag=1.0))

        def submit(query, **kwargs):
            future = Future()
            if answered:
                future.set_exception(exc)
            else:
                threading.Timer(0.02, future.set_exception, (exc,)).start()
            return future

        monkeypatch.setattr(service, "submit", submit)
        with HttpServerThread(service, HttpConfig(port=0)) as server:
            client = HttpEstimationClient(server.host, server.port, "m")
            got, _, payload = client._request(
                "POST",
                "/v1/models/m/estimate",
                json.dumps({"query": {"tables": ["R"]}}).encode(),
            )
            client.close()
        service.close()
        assert got == status
        assert json.loads(payload.decode()) == {"error": str(exc)}
