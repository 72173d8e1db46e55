"""The wire's fixed cost, counted: server-side calls per answer, and the
routing-feature memo that keeps a cheap answer cheap.

Wall-clock latency on a shared box moves with the neighbours; the number of
interpreter-level calls a request costs the server does not. The counts are
taken with a ``threading.setprofile`` hook installed only in the threads the
server starts (event loop, scheduler flushers), so the client's own calls in
the test's thread are left out. At the commit before the single head read,
the same harness counted 191 calls per cheap answer and 273 per null request.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.baselines.per_table import PerTableStatsEstimator
from repro.eval.calibration import calibration_workload
from repro.eval.harness import true_cardinalities
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.serving import (
    CascadeConfig,
    EstimationService,
    EstimatorCascade,
    HttpConfig,
    HttpEstimationClient,
    HttpServerThread,
    QueryFeatures,
    ServingConfig,
)
from repro.serving import cascade as cascade_module
from tests.core.test_estimator import correlated_schema

#: Server-side calls allowed per answer (the most over ``N_COUNTED``).
CHEAP_CALLS = 130
NULL_CALLS = 200
N_WARMUP, N_COUNTED = 20, 50

EASY = Query.make(["R"], [Predicate("R", "year", ">=", 1995)])


class _Constant:
    """A model that answers 1.0 at once: what a request costs around it is
    the serving stack's own."""

    is_fitted = True
    size_bytes = 0

    def estimate_batch(self, queries, **_kwargs) -> np.ndarray:
        return np.ones(len(queries), dtype=np.float64)


class _CallCounter:
    """Counts ``call`` events in threads started while it is installing."""

    def __init__(self) -> None:
        self.counting = False
        self.events: list = []

    def hook(self, frame, event, arg) -> None:
        if event == "call" and self.counting:
            self.events.append(None)

    def per_request(self, send, n: int) -> list:
        counts = []
        for _ in range(n):
            # The server finishes after the client has its answer (back to
            # the head read, the flusher back to waiting): let the previous
            # request's tail pass uncounted, and count this one's.
            time.sleep(0.003)
            self.events.clear()
            self.counting = True
            send()
            time.sleep(0.003)
            self.counting = False
            counts.append(len(self.events))
        return counts


@pytest.fixture(scope="module")
def counted_server(oracle_engine):
    """A cascade-routed oracle and a null model behind one HTTP server whose
    threads carry the counting hook."""
    schema = correlated_schema(n_root=12, seed=4)
    config = ServingConfig(
        cascade=CascadeConfig(
            tiers=("per_table", "neural"), default_max_q_error=1.5, min_class_queries=4
        )
    )
    service = EstimationService(config=config)
    service.register("oracle", oracle_engine)
    service.register("null", _Constant())
    cascade = service.enable_cascade("oracle")
    queries = calibration_workload(schema, n_queries=60, seed=11)
    cascade.calibrate(queries, true_cardinalities(schema, queries))
    counter = _CallCounter()
    threading.setprofile(counter.hook)
    try:
        # Every server-side thread starts now: the loop thread here, the
        # flushers eagerly rather than at their model's first request.
        service.scheduler("oracle")
        service.scheduler("null")
        server = HttpServerThread(service, HttpConfig(port=0)).start()
    finally:
        threading.setprofile(None)
    yield server, counter
    server.stop()
    service.close()


def _counts(counted_server, model: str, tier):
    server, counter = counted_server
    client = HttpEstimationClient(server.host, server.port, model)
    try:
        for _ in range(N_WARMUP):
            client.estimate(EASY, seed=0)
        assert client.last_tier == tier
        return counter.per_request(lambda: client.estimate(EASY, seed=0), N_COUNTED)
    finally:
        client.close()


def test_cheap_tier_answer_costs_at_most_130_server_calls(counted_server):
    counts = _counts(counted_server, "oracle", "per_table")
    assert max(counts) <= CHEAP_CALLS, sorted(counts)


def test_null_request_costs_at_most_200_server_calls(counted_server):
    counts = _counts(counted_server, "null", None)
    assert max(counts) <= NULL_CALLS, sorted(counts)


# ----------------------------------------------------------------------
# The routing-feature memo
# ----------------------------------------------------------------------
class _Fixed:
    is_fitted = True
    size_bytes = 0

    def __init__(self, value: float):
        self.value = value

    def estimate(self, query, **_kwargs) -> float:
        return self.value


@pytest.fixture(scope="module")
def memo_schema():
    return correlated_schema(n_root=40, seed=9)


@pytest.fixture(scope="module")
def calibration(memo_schema):
    cascade = _cascade(memo_schema, None)
    queries = calibration_workload(memo_schema, n_queries=80, seed=3)
    return cascade.calibrate(queries, true_cardinalities(memo_schema, queries))


def _cascade(schema, calibration) -> EstimatorCascade:
    cascade = EstimatorCascade(
        schema, calibration=calibration, default_max_q_error=1.5, min_class_queries=4
    )
    cascade.register("per_table", PerTableStatsEstimator(schema))
    cascade.register("neural", _Fixed(1.0), neural=True)
    return cascade


_SHAPES = [("R",), ("C1",), ("C2",), ("R", "C1"), ("R", "C2"), ("R", "C1", "C2")]
_COLUMNS = {"R": "year", "C1": "kind", "C2": "score"}


def _drawn_mix(schema, n: int, seed: int):
    """Queries over every join shape with every operator, values drawn in
    and out of each column's domain (empty regions), IN lists as tuples
    (memoized) and as lists (not hashable, never memoized)."""
    rng = np.random.default_rng(seed)
    queries = []
    for _ in range(n):
        tables = _SHAPES[rng.integers(len(_SHAPES))]
        preds = []
        for table in tables:
            if rng.random() < 0.25:
                continue
            column = _COLUMNS[table]
            values = schema.table(table).column(column).dictionary
            lo, hi = int(values.min()), int(values.max())

            def draw() -> int:
                if rng.random() < 0.2:  # outside the domain
                    return int(rng.choice([lo - 5, hi + 5]))
                return int(rng.integers(lo, hi + 1))

            op = ["=", "<", "<=", ">", ">=", "IN"][rng.integers(6)]
            if op == "IN":
                value = [draw() for _ in range(rng.integers(0, 4))]
                value = value if rng.random() < 0.3 else tuple(value)
            else:
                value = draw()
            preds.append(Predicate(table, column, op, value))
        queries.append(Query.make(tables, preds))
    return queries


def _decision(decision):
    return decision.tier.name, decision.reason, decision.features.class_key


def test_memoized_routing_decides_as_unmemoized_extraction(
    memo_schema, calibration, monkeypatch
):
    distinct = _drawn_mix(memo_schema, 120, seed=5)
    stream = distinct + [distinct[i] for i in np.random.default_rng(6).permutation(120)]
    ops = {p.op for q in distinct for p in q.predicates}
    assert ops == {"=", "<", "<=", ">", ">=", "IN"}

    computed = []
    fraction = cascade_module._region_fraction
    monkeypatch.setattr(
        cascade_module,
        "_region_fraction",
        lambda pred, schema: computed.append(pred) or fraction(pred, schema),
    )
    memoized = _cascade(memo_schema, calibration)
    empty = by_memoized = 0
    for query in stream:
        before = len(computed)
        decision = memoized.route(query)
        by_memoized += len(computed) - before
        # Unmemoized: a fresh cascade, and the bare extraction.
        fresh = _cascade(memo_schema, calibration).route(query)
        assert _decision(decision) == _decision(fresh)
        assert decision.features == QueryFeatures.extract(query, memo_schema)
        empty += decision.features.min_region_fraction == 0.0
    assert empty > 0
    routed = sum(len(q.predicates) for q in stream)
    assert by_memoized < routed * 3 / 4, "the memo answered no repeated predicate"


def test_memo_stays_within_its_limit(memo_schema, calibration, monkeypatch):
    monkeypatch.setattr(EstimatorCascade, "FEATURE_MEMO_LIMIT", 16)
    cascade = _cascade(memo_schema, calibration)
    for i in range(200):
        query = Query.make(["R"], [Predicate("R", "year", "<", 1990 + i / 7)])
        decision = cascade.route(query)
        assert decision.features == QueryFeatures.extract(query, memo_schema)
        assert len(cascade._feature_memo) <= 16
