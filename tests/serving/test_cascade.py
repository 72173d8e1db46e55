"""Estimator cascade: features, calibration persistence, routing, wiring.

Pins the PR 10 tentpole contracts from ``docs/estimators.md``: the
class-key bucketing, lossless calibration round-trips, the three routing
rules (bound / best-effort / last-resort) plus staleness demotion, and
the service + HTTP wiring — cheap tiers answer inline, escalated queries
reach the scheduler and stay bitwise with the cascade-free path.
"""

from __future__ import annotations

import asyncio
import json
import time

import numpy as np
import pytest

from repro.baselines.per_table import PerTableStatsEstimator
from repro.errors import DeadlineError, QueryError, ServingError
from repro.eval.calibration import calibration_workload
from repro.eval.harness import true_cardinalities
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.serving import (
    CascadeCalibration,
    CascadeConfig,
    EstimationService,
    EstimatorCascade,
    HttpConfig,
    HttpEstimationClient,
    HttpServerThread,
    QueryFeatures,
    ServingConfig,
)
from repro.serving.cascade import _UNBOUNDED
from tests.core.test_estimator import correlated_schema
from tests.serving.conftest import FakeModel


@pytest.fixture(scope="module")
def schema():
    """Structurally identical to the ``oracle_engine`` fixture's schema."""
    return correlated_schema(n_root=12, seed=4)


EASY = Query.make(["R"], [Predicate("R", "year", ">=", 1995)])
HARD = Query.make(
    ["R", "C1"],
    [Predicate("R", "year", ">=", 1995), Predicate("C1", "kind", "=", 0)],
)


class _Const:
    """Constant-answer tier estimator with call counting and optional failure."""

    is_fitted = True
    size_bytes = 64

    def __init__(self, value: float, fail: bool = False):
        self.value = value
        self.fail = fail
        self.calls = 0

    def estimate(self, query, **kwargs) -> float:
        self.calls += 1
        if self.fail:
            raise RuntimeError("tier down")
        return self.value

    def estimate_batch(self, queries, **kwargs):
        return np.array([self.estimate(q) for q in queries])


def entries_for(key, *, cheap=(1.2, 0.01), neural=(1.05, 5.0), n=20.0):
    """Hand-built calibration: one class, a cheap and a neural tier."""
    return {
        "cheap": {
            key: {
                "p95_qerror": cheap[0],
                "median_latency_ms": cheap[1],
                "n": n,
            }
        },
        "neural": {
            key: {
                "p95_qerror": neural[0],
                "median_latency_ms": neural[1],
                "n": n,
            }
        },
    }


def two_tier(schema, entries, **kwargs) -> EstimatorCascade:
    cascade = EstimatorCascade(
        schema,
        calibration=CascadeCalibration(entries, n_queries=40) if entries else None,
        **kwargs,
    )
    cascade.register("cheap", _Const(5.0))
    cascade.register("neural", _Const(7.0), neural=True)
    return cascade


# ----------------------------------------------------------------------
# QueryFeatures and the class key
# ----------------------------------------------------------------------
class TestQueryFeatures:
    def test_predicate_free_query_is_all_wildcards(self, schema):
        feats = QueryFeatures.extract(Query.make(["C1"], []), schema)
        assert feats.n_tables == 1
        assert feats.n_predicates == feats.n_equality == feats.n_range == 0
        assert feats.wildcard_fraction == 1.0
        assert feats.min_region_fraction == 1.0
        assert feats.class_key == "1t|none|wide"

    def test_range_and_equality_split(self, schema):
        feats = QueryFeatures.extract(HARD, schema)
        assert feats.n_tables == 2
        assert feats.n_predicates == 2
        assert feats.n_range == 1 and feats.n_equality == 1
        # Any range predicate puts the query in the rng operator class.
        assert feats.class_key.startswith("nt|rng|")

    def test_equality_width_is_one_code_over_domain(self, schema):
        year = int(schema.table("R").column("year").dictionary[0])
        query = Query.make(["R"], [Predicate("R", "year", "=", year)])
        feats = QueryFeatures.extract(query, schema)
        domain = schema.table("R").column("year").domain_size
        assert feats.min_region_fraction == pytest.approx(1.0 / domain)
        narrow = feats.min_region_fraction <= 0.25
        assert feats.class_key == f"1t|eq|{'narrow' if narrow else 'wide'}"

    def test_wildcard_fraction_counts_filtered_columns_once(self, schema):
        query = Query.make(
            ["R"],
            [
                Predicate("R", "year", ">=", 1992),
                Predicate("R", "year", "<=", 1998),
            ],
        )
        feats = QueryFeatures.extract(query, schema)
        # Two predicates on one column of R's two columns -> half wildcard.
        assert feats.wildcard_fraction == pytest.approx(0.5)

    def test_invalid_query_raises_query_error(self, schema):
        bad = Query.make(["Zed"], [])
        with pytest.raises(QueryError):
            QueryFeatures.extract(bad, schema)


# ----------------------------------------------------------------------
# Calibration: measurement and lossless persistence
# ----------------------------------------------------------------------
class TestCalibration:
    @pytest.fixture(scope="class")
    def calibrated(self, schema):
        cascade = EstimatorCascade(schema, min_class_queries=4)
        cascade.register("per_table", PerTableStatsEstimator(schema))
        cascade.register("broken", _Const(1.0, fail=True))
        cascade.register("neural", _Const(3.0), neural=True)
        queries = calibration_workload(schema, n_queries=48, seed=11)
        truths = true_cardinalities(schema, queries)
        calibration = cascade.calibrate(queries, truths)
        return cascade, calibration

    def test_every_tier_and_class_is_measured(self, calibrated):
        cascade, calibration = calibrated
        assert sorted(calibration.tiers()) == ["broken", "neural", "per_table"]
        assert calibration.n_queries == 48
        for tier in calibration.tiers():
            for entry in calibration.entries[tier].values():
                assert entry["n"] >= 1
                assert entry["median_latency_ms"] >= 0.0
                assert entry["p95_qerror"] >= 1.0

    def test_single_table_per_table_bound_is_exact(self, calibrated):
        _, calibration = calibrated
        one_table = {
            key: entry
            for key, entry in calibration.entries["per_table"].items()
            if key.startswith("1t|")
        }
        assert one_table
        for entry in one_table.values():
            assert entry["p95_qerror"] == 1.0

    def test_raising_tier_records_the_unbounded_stand_in(self, calibrated):
        _, calibration = calibrated
        for entry in calibration.entries["broken"].values():
            assert entry["p95_qerror"] == _UNBOUNDED

    def test_dict_round_trip_is_lossless(self, calibrated):
        _, calibration = calibrated
        doc = calibration.to_dict()
        assert CascadeCalibration.from_dict(doc).to_dict() == doc

    def test_save_load_round_trip_is_lossless_json(self, calibrated, tmp_path):
        _, calibration = calibrated
        path = tmp_path / "calibration.json"
        calibration.save(path)
        json.loads(path.read_text())  # valid JSON despite inf q-errors
        assert CascadeCalibration.load(path).to_dict() == calibration.to_dict()

    def test_from_dict_requires_tiers_mapping(self):
        with pytest.raises(ServingError):
            CascadeCalibration.from_dict({"n_queries": 3})

    def test_load_missing_file_raises_serving_error(self, tmp_path):
        with pytest.raises(ServingError):
            CascadeCalibration.load(tmp_path / "absent.json")

    def test_length_mismatch_and_empty_cascade_are_errors(self, schema):
        cascade = EstimatorCascade(schema)
        with pytest.raises(ServingError):
            cascade.calibrate([EASY], [1.0, 2.0])
        with pytest.raises(ServingError):
            cascade.calibrate([EASY], [1.0])  # no tiers registered


# ----------------------------------------------------------------------
# Routing rules
# ----------------------------------------------------------------------
class TestRouting:
    @pytest.fixture(scope="class")
    def key(self, schema):
        return QueryFeatures.extract(EASY, schema).class_key

    def test_first_fitting_tier_answers_with_reason_bound(self, schema, key):
        cascade = two_tier(schema, entries_for(key))
        decision = cascade.route(EASY)
        assert decision.tier.name == "cheap"
        assert decision.reason == "bound"
        assert decision.features.class_key == key

    def test_loose_bound_skips_to_the_neural_tier(self, schema, key):
        cascade = two_tier(schema, entries_for(key, cheap=(9.0, 0.01)))
        decision = cascade.route(EASY, max_q_error=2.0)
        assert decision.tier.name == "neural"
        assert decision.reason == "bound"

    def test_budget_excluding_neural_falls_back_best_effort(self, schema, key):
        cascade = two_tier(
            schema, entries_for(key, cheap=(9.0, 0.01), neural=(1.05, 5.0))
        )
        decision = cascade.route(EASY, max_q_error=2.0, budget_ms=1.0)
        assert decision.tier.name == "cheap"
        assert decision.reason == "best-effort"

    def test_live_neural_latency_overrides_calibrated(self, schema, key):
        cascade = two_tier(
            schema, entries_for(key, cheap=(9.0, 0.01), neural=(1.05, 5.0))
        )
        decision = cascade.route(
            EASY, max_q_error=2.0, budget_ms=1.0, neural_latency_ms=0.5
        )
        assert decision.tier.name == "neural"
        assert decision.reason == "bound"

    def test_thin_class_is_unproven_and_escalates(self, schema, key):
        cascade = two_tier(schema, entries_for(key, n=3.0), min_class_queries=8)
        decision = cascade.route(EASY)
        assert decision.tier.name == "neural"
        assert decision.reason == "last-resort"

    def test_uncalibrated_cascade_routes_last_resort(self, schema):
        decision = two_tier(schema, None).route(EASY)
        assert decision.tier.name == "neural"
        assert decision.reason == "last-resort"

    def test_unknown_class_routes_last_resort(self, schema, key):
        cascade = two_tier(schema, entries_for(key))
        decision = cascade.route(HARD)  # a class the calibration never saw
        assert decision.tier.name == "neural"
        assert decision.reason == "last-resort"

    def test_invalid_contract_values_raise(self, schema, key):
        cascade = two_tier(schema, entries_for(key))
        with pytest.raises(ServingError):
            cascade.route(EASY, max_q_error=0.5)
        with pytest.raises(ServingError):
            cascade.route(EASY, budget_ms=0.0)

    def test_staleness_demotion_moves_classes_off_the_neural_tier(
        self, schema, key
    ):
        cascade = two_tier(
            schema, entries_for(key, cheap=(3.0, 0.01), neural=(1.5, 5.0))
        )
        assert cascade.route(EASY, max_q_error=2.0).tier.name == "neural"
        cascade.staleness_provider = lambda: 2.5
        assert cascade.staleness_demotion() == 2.5
        decision = cascade.route(EASY, max_q_error=2.0)
        # 1.5 * 2.5 > 2.0: the stale model loses the class to the cheap tier.
        assert decision.tier.name == "cheap"
        assert decision.reason == "best-effort"

    def test_staleness_below_threshold_does_not_demote(self, schema, key):
        cascade = two_tier(schema, entries_for(key))
        cascade.staleness_provider = lambda: 1.5  # < demote_staleness_qerror
        assert cascade.staleness_demotion() == 1.0

    def test_broken_staleness_provider_never_breaks_routing(self, schema, key):
        cascade = two_tier(schema, entries_for(key))
        cascade.staleness_provider = lambda: 1 / 0
        assert cascade.staleness_demotion() == 1.0
        assert cascade.route(EASY).tier.name == "cheap"

    def test_registration_validation(self, schema):
        cascade = EstimatorCascade(schema)
        with pytest.raises(ServingError):
            cascade.route(EASY)  # no tiers
        cascade.register("a", _Const(1.0), neural=True)
        with pytest.raises(ServingError):
            cascade.register("a", _Const(1.0))  # duplicate name
        with pytest.raises(ServingError):
            cascade.register("b", _Const(1.0), neural=True)  # second neural
        with pytest.raises(ServingError):
            cascade.register("c", object())  # no estimate()
        with pytest.raises(ServingError):
            cascade.tier("missing")

    def test_constructor_validation(self, schema):
        for kwargs in (
            dict(default_max_q_error=0.9),
            dict(default_budget_ms=0.0),
            dict(min_class_queries=0),
            dict(demote_staleness_qerror=0.5),
        ):
            with pytest.raises(ServingError):
                EstimatorCascade(schema, **kwargs)


# ----------------------------------------------------------------------
# Standalone EstimationClient surface
# ----------------------------------------------------------------------
class TestStandaloneEstimate:
    @pytest.fixture()
    def key(self, schema):
        return QueryFeatures.extract(EASY, schema).class_key

    def test_routed_tier_answers_and_counters_move(self, schema, key):
        cascade = two_tier(schema, entries_for(key))
        assert cascade.estimate(EASY) == 5.0
        stats = cascade.stats()
        assert stats["routed"] == 1
        assert stats["tiers"] == {"cheap": 1, "neural": 0}
        assert stats["escalations"] == 0 and stats["escalation_rate"] == 0.0

    def test_failing_cheap_tier_escalates_to_the_final_tier(self, schema, key):
        cascade = EstimatorCascade(
            schema, calibration=CascadeCalibration(entries_for(key))
        )
        cascade.register("cheap", _Const(5.0, fail=True))
        cascade.register("neural", _Const(7.0), neural=True)
        assert cascade.estimate(EASY) == 7.0
        stats = cascade.stats()
        assert stats["tier_errors"] == {"cheap": 1}
        assert stats["tiers"] == {"cheap": 0, "neural": 1}
        assert stats["escalations"] == 1

    def test_final_tier_failure_raises(self, schema):
        cascade = EstimatorCascade(schema)
        cascade.register("neural", _Const(1.0, fail=True), neural=True)
        with pytest.raises(RuntimeError):
            cascade.estimate(EASY)

    def test_estimate_batch_matches_sequential(self, schema, key):
        cascade = two_tier(schema, entries_for(key))
        batch = cascade.estimate_batch([EASY, HARD])
        assert np.array_equal(batch, [5.0, 7.0])  # bound + last-resort

    def test_protocol_surface(self, schema, key):
        cascade = two_tier(schema, entries_for(key))
        assert cascade.is_fitted
        assert cascade.size_bytes == 128  # both _Const tiers report 64


# ----------------------------------------------------------------------
# Service wiring: inline cheap tiers, scheduler escalation, stats
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def cascade_service(schema, oracle_engine):
    """Calibrated two-tier cascade fronting the served oracle engine."""
    config = ServingConfig(
        max_batch=8,
        max_wait_us=500,
        cascade=CascadeConfig(
            tiers=("per_table", "neural"),
            default_max_q_error=1.5,
            min_class_queries=4,
        ),
    )
    service = EstimationService(config=config)
    service.register("oracle", oracle_engine)
    cascade = service.enable_cascade("oracle")
    queries = calibration_workload(schema, n_queries=60, seed=11)
    cascade.calibrate(queries, true_cardinalities(schema, queries))
    yield service, cascade
    service.close()


class TestServiceWiring:
    def test_easy_query_is_answered_inline_by_per_table(self, cascade_service):
        service, cascade = cascade_service
        future = service.submit(EASY, model="oracle")
        assert future.tier == "per_table"
        expected = cascade.tier("per_table").estimator.estimate(EASY)
        assert future.result() == expected
        assert future.degraded is False

    def test_escalated_query_is_bitwise_with_cascade_free_serving(
        self, cascade_service, oracle_engine
    ):
        service, _ = cascade_service
        future = service.submit(HARD, model="oracle", seed=123)
        assert future.tier == "neural"
        reference = EstimationService(
            config=ServingConfig(max_batch=8, max_wait_us=500)
        )
        reference.register("oracle", oracle_engine)
        try:
            assert future.result() == reference.estimate(HARD, seed=123)
        finally:
            reference.close()

    def test_tight_budget_keeps_the_query_on_the_cheap_tier(
        self, cascade_service
    ):
        service, cascade = cascade_service
        # Even with an unreachable accuracy contract, a millisecond budget
        # excludes the scheduler path: best-effort answers from per_table.
        decision = cascade.route(
            HARD, max_q_error=1.0, budget_ms=1.0, neural_latency_ms=5.0
        )
        assert decision.tier.name == "per_table"
        assert decision.reason == "best-effort"

    def test_service_stats_surface_cascade_telemetry(self, cascade_service):
        service, _ = cascade_service
        service.submit(EASY, model="oracle").result()
        stats = service.stats()["cascade"]["oracle"]
        assert stats["routed"] >= 1
        assert set(stats["tiers"]) == {"per_table", "neural"}
        assert 0.0 <= stats["escalation_rate"] <= 1.0

    def test_cascade_for_returns_the_attached_cascade(self, cascade_service):
        service, cascade = cascade_service
        assert service.cascade_for("oracle") is cascade

    def test_expired_deadline_fails_before_the_inline_tier_runs(
        self, cascade_service
    ):
        service, _ = cascade_service
        future = service.submit(
            EASY, model="oracle", deadline=time.monotonic() - 1.0
        )
        with pytest.raises(DeadlineError):
            future.result()

    def test_inline_tier_error_escalates_to_the_scheduler(self, schema):
        key = QueryFeatures.extract(EASY, schema).class_key
        service = EstimationService(
            config=ServingConfig(max_batch=4, max_wait_us=500)
        )
        service.register("m", FakeModel(42.0))
        cascade = EstimatorCascade(
            schema, calibration=CascadeCalibration(entries_for(key))
        )
        cascade.register("cheap", _Const(5.0, fail=True))
        cascade.register("neural", _Const(0.0), neural=True)
        service.attach_cascade(cascade, "m")
        try:
            future = service.submit(EASY, model="m")
            assert future.tier == "neural"
            assert future.result() == 42.0  # the registered model answers
            assert cascade.stats()["tier_errors"] == {"cheap": 1}
        finally:
            service.close()

    def test_attach_cascade_requires_a_neural_final_tier(self, schema):
        service = EstimationService()
        service.register("m", FakeModel(1.0))
        cascade = EstimatorCascade(schema)
        cascade.register("cheap", _Const(5.0))
        try:
            with pytest.raises(ServingError):
                service.attach_cascade(cascade, "m")
        finally:
            service.close()

    def test_enable_cascade_requires_a_config_section(self):
        service = EstimationService()
        service.register("m", FakeModel(1.0))
        try:
            with pytest.raises(ServingError):
                service.enable_cascade("m")
        finally:
            service.close()

    def test_enable_cascade_rejects_unknown_supplied_tiers(
        self, schema, oracle_engine
    ):
        config = ServingConfig(
            cascade=CascadeConfig(tiers=("per_table", "neural"))
        )
        service = EstimationService(config=config)
        service.register("oracle", oracle_engine)
        try:
            with pytest.raises(ServingError):
                service.enable_cascade(
                    "oracle", estimators={"bogus": _Const(1.0)}
                )
        finally:
            service.close()

    def test_enable_cascade_loads_persisted_calibration(
        self, schema, oracle_engine, cascade_service, tmp_path
    ):
        _, calibrated = cascade_service
        path = tmp_path / "calibration.json"
        calibrated.calibration.save(path)
        config = ServingConfig(
            cascade=CascadeConfig(
                tiers=("per_table", "neural"), calibration_path=str(path)
            )
        )
        service = EstimationService(config=config)
        service.register("oracle", oracle_engine)
        try:
            cascade = service.enable_cascade("oracle")
            assert (
                cascade.calibration.to_dict()
                == calibrated.calibration.to_dict()
            )
        finally:
            service.close()


# ----------------------------------------------------------------------
# HTTP wiring: contract fields, tier reporting, /metrics
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def http_cascade(cascade_service):
    service, cascade = cascade_service
    with HttpServerThread(service, HttpConfig(port=0)) as server:
        client = HttpEstimationClient(server.host, server.port, "oracle")
        yield service, cascade, client
        client.close()


class TestHttpCascade:
    def test_response_reports_the_answering_tier(self, http_cascade):
        _, cascade, client = http_cascade
        value = client.estimate(EASY, seed=5)
        assert client.last_tier == "per_table"
        assert value == cascade.tier("per_table").estimator.estimate(EASY)

    def test_escalated_wire_answer_is_bitwise_with_in_process(
        self, http_cascade
    ):
        service, _, client = http_cascade
        wire = client.estimate(HARD, seed=77)
        assert client.last_tier == "neural"
        assert wire == service.submit(HARD, model="oracle", seed=77).result()

    def test_contract_fields_travel_per_request(self, http_cascade):
        _, cascade, client = http_cascade
        # A loose contract keeps even the hard class on the cheap tier.
        value = client.estimate(HARD, seed=5, max_q_error=1e6)
        assert client.last_tier == "per_table"
        assert value == cascade.tier("per_table").estimator.estimate(HARD)

    def test_invalid_budget_is_a_pointed_400(self, http_cascade):
        _, _, client = http_cascade
        with pytest.raises(QueryError, match="budget_ms"):
            client.estimate(EASY, seed=5, budget_ms=-1.0)

    def test_metrics_export_per_tier_counters(self, http_cascade):
        _, _, client = http_cascade
        client.estimate(EASY, seed=6)
        text = client.metrics_text()
        assert "repro_cascade_tier_total" in text
        assert "repro_cascade_escalation_rate" in text
        assert "repro_cascade_staleness_demotion" in text
        assert 'tier="per_table"' in text

    def test_healthz_carries_cascade_stats(self, http_cascade):
        _, _, client = http_cascade
        doc = client.healthz()
        assert "oracle" in doc["cascade"]
        assert "escalation_rate" in doc["cascade"]["oracle"]


class TestInlineAnswers:
    """Answers ready at submit skip the event-loop hop; pending ones await."""

    @pytest.fixture()
    def wraps(self, monkeypatch):
        calls = []
        wrap = asyncio.wrap_future

        def counting(future, **kwargs):
            calls.append(future)
            return wrap(future, **kwargs)

        monkeypatch.setattr(asyncio, "wrap_future", counting)
        return calls

    def test_per_table_answer_is_never_wrapped(self, http_cascade, wraps):
        _, cascade, client = http_cascade
        value = client.estimate(EASY, seed=31)
        assert client.last_tier == "per_table"
        assert value == cascade.tier("per_table").estimator.estimate(EASY)
        assert wraps == []

    def test_neural_answer_is_awaited(
        self, http_cascade, wraps, oracle_engine, monkeypatch
    ):
        service, _, client = http_cascade
        walk = oracle_engine.estimate_batch

        def slow_walk(*args, **kwargs):
            time.sleep(0.02)  # still pending when the server checks
            return walk(*args, **kwargs)

        monkeypatch.setattr(oracle_engine, "estimate_batch", slow_walk)
        wire = client.estimate(HARD, seed=32)
        assert client.last_tier == "neural"
        assert len(wraps) == 1
        monkeypatch.undo()
        assert wire == service.submit(HARD, model="oracle", seed=32).result()
