"""The perf benchmark's tracer still finds every seam it wraps.

``benchmarks/perf/tracing.py`` times a request from outside the program by
replacing, at run time, the callables at each layer boundary: the HTTP
module's ``query_from_dict`` global, the server's ``admission.admit`` /
``release``, ``service.submit``, ``cascade.route``, each cheap tier's
``estimate``, ``scheduler.submit`` and the model class's ``estimate_batch``.
A serving change that stops calling one of them through the wrapped name
leaves that stage silently at 0 in a traced run. This test wraps an
in-process stack the way ``benchmarks/perf/server.py`` does, sends one cheap
and one neural request, and checks that each stage fired, under a parent
that exists. The tracer module is loaded from its file and never changed.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.baselines.per_table import PerTableStatsEstimator
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.serving import (
    CascadeCalibration,
    EstimationService,
    EstimatorCascade,
    HttpConfig,
    HttpEstimationClient,
    HttpServerThread,
    QueryFeatures,
)
from repro.serving import http as http_module
from tests.core.test_estimator import correlated_schema

TRACING = Path(__file__).resolve().parents[2] / "benchmarks" / "perf" / "tracing.py"

CHEAP = Query.make(["R"], [Predicate("R", "year", ">=", 1995)])
NEURAL = Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)])

COMMON = {"dsl", "admission.admit", "admission.release", "service.submit", "cascade.route"}


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perf_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def traced(monkeypatch):
    """A cascade service behind HTTP, wrapped like the benchmark's server."""
    tracing = _load_tracing()

    class Walk:
        """The neural tier's model; its class gets the engine wrapper."""

        is_fitted = True
        size_bytes = 0

        def estimate_batch(self, queries, rngs=None):
            return np.full(len(queries), 7.0)

        def estimate(self, query, **_kwargs):
            return 7.0

    schema = correlated_schema(n_root=12, seed=4)
    cheap_class = QueryFeatures.extract(CHEAP, schema).class_key
    calibration = CascadeCalibration(
        {"per_table": {cheap_class: {"p95_qerror": 1.0, "median_latency_ms": 0.01, "n": 50.0}}}
    )
    service = EstimationService()
    service.register("m", Walk())
    cascade = EstimatorCascade(schema, calibration=calibration)
    cascade.register("per_table", PerTableStatsEstimator(schema))
    cascade.register("neural", service.registry.get("m"), neural=True)
    service.attach_cascade(cascade, "m")
    service.scheduler("m")
    server = HttpServerThread(service, HttpConfig(port=0)).start()
    # The tracer patches a module global; hand it back after the test.
    monkeypatch.setattr(http_module, "query_from_dict", http_module.query_from_dict)
    tracer = tracing.Tracer()
    tracer.wrap_model_class(Walk)
    tracer.wrap_service(service, "m")
    tracer.wrap_http(http_module, server.server)
    client = HttpEstimationClient(server.host, server.port, "m", max_retries=0)
    yield tracing, tracer, client
    client.close()
    server.stop()
    service.close()


def test_every_stage_fires_under_a_parent_that_exists(traced):
    tracing, tracer, client = traced
    assert client.estimate(CHEAP, seed=1) == PerTableStatsEstimator(
        correlated_schema(n_root=12, seed=4)
    ).estimate(CHEAP)
    assert client.last_tier == "per_table"
    assert client.estimate(NEURAL, seed=2) == 7.0
    assert client.last_tier == "neural"

    spans = tracer.documents()
    assert tracing.dangling_parents(spans) == 0
    roots = {s["rid"]: s for s in spans if s["name"] == "request"}
    by_tier = {root["tier"]: rid for rid, root in roots.items()}
    assert sorted(by_tier) == ["neural", "per_table"]
    names = {
        tier: {s["name"] for s in spans if s["rid"] == rid} for tier, rid in by_tier.items()
    }
    assert COMMON | {"tier.estimate"} <= names["per_table"]
    assert "scheduler.submit" not in names["per_table"]
    assert COMMON | {"scheduler.submit", "queue_wait", "engine"} <= names["neural"]
    assert "tier.estimate" not in names["neural"]
    # The stages the benchmark reports from these spans are all nonzero.
    stats = tracing.analyze(spans, [])
    for stage in ("dsl", "admission", "route", "tier", "queue_wait", "engine"):
        assert stats[f"trace.{stage}_us"] > 0, stage
