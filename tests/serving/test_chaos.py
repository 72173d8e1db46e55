"""Chaos harness: deterministic fault injection, breaker cascade, recovery.

The invariants bench_chaos_resilience.py gates in CI, proven small here:
every request terminates (result or typed error), one seed replays one
fault schedule, non-degraded answers are bitwise-unaffected by the storm,
torn saves leave the previous artifact intact, and corrupted artifacts
surface as clean PersistenceErrors without poisoning their registry entry.
"""

from __future__ import annotations

import pickle
import threading
import time

import numpy as np
import pytest

from repro.core.persistence import load_model, save_model
from repro.errors import (
    DeadlineError,
    InjectedFaultError,
    PersistenceError,
    ServingError,
)
from repro.baselines.per_table import PerTableStatsEstimator
from repro.joins.executor import query_cardinality
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.serving import (
    CircuitBreaker,
    EstimationService,
    FaultPlan,
    FaultSpec,
    ModelRegistry,
    ServingConfig,
    faults,
)
from repro.serving.resilience import FALLBACK, PRIMARY, PROBE
from tests.core.test_estimator import correlated_schema
from tests.serving.conftest import FakeModel


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no process-global plan installed."""
    faults.uninstall()
    yield
    faults.uninstall()


class _ConstFallback:
    """Minimal degraded-mode estimator: constant answer, call counting."""

    def __init__(self, value: float, fail: bool = False):
        self.value = value
        self.fail = fail
        self.calls = 0

    def estimate(self, query) -> float:
        self.calls += 1
        if self.fail:
            raise RuntimeError("fallback exploded too")
        return self.value


# ----------------------------------------------------------------------
# FaultPlan / FaultInjector determinism
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_spec_validation(self):
        with pytest.raises(ServingError, match="exactly one"):
            FaultSpec("s")  # neither probability nor at
        with pytest.raises(ServingError, match="exactly one"):
            FaultSpec("s", probability=0.5, at=(1,))
        with pytest.raises(ServingError, match="within"):
            FaultSpec("s", probability=1.5)
        with pytest.raises(ServingError, match="kind"):
            FaultSpec("s", probability=0.5, kind="meltdown")
        with pytest.raises(ServingError, match="duplicate"):
            FaultPlan(specs=(FaultSpec("s", at=(0,)), FaultSpec("s", at=(1,))))

    def test_plan_pickles_and_compares(self):
        plan = FaultPlan(
            seed=5,
            specs=(
                FaultSpec("a", probability=0.3),
                FaultSpec("b", at=(2, 4), kind="disconnect"),
            ),
        )
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_same_seed_reproduces_identical_schedule(self):
        plan = FaultPlan(seed=13, specs=(FaultSpec("x", probability=0.4),))
        first = plan.schedule("x", 200)
        second = plan.schedule("x", 200)
        assert first == second and len(first) > 10
        assert plan.schedule("x", 200, scope="worker-0") != first

    def test_different_seeds_differ(self):
        spec = (FaultSpec("x", probability=0.4),)
        assert FaultPlan(seed=1, specs=spec).schedule("x", 200) != FaultPlan(
            seed=2, specs=spec
        ).schedule("x", 200)


class TestFaultInjector:
    def test_check_agrees_with_preview(self):
        plan = FaultPlan(seed=7, specs=(FaultSpec("s", probability=0.5),))
        injector = faults.FaultInjector(plan)
        fired = []
        for k in range(50):
            try:
                injector.check("s")
            except InjectedFaultError:
                fired.append(k)
        assert fired == injector.preview("s", 50)
        assert injector.stats()["s"] == {"hits": 50, "fires": len(fired)}
        assert injector.log == [("s", k) for k in fired]

    def test_per_site_schedule_survives_interleaving(self):
        """Whether site A's k-th hit fires cannot depend on site B traffic."""
        plan = FaultPlan(
            seed=3,
            specs=(FaultSpec("a", probability=0.5), FaultSpec("b", probability=0.5)),
        )

        def fires(order):
            injector = faults.FaultInjector(plan)
            out = {"a": [], "b": []}
            counts = {"a": 0, "b": 0}
            for site in order:
                k = counts[site]
                counts[site] += 1
                try:
                    injector.check(site)
                except InjectedFaultError:
                    out[site].append(k)
            return out

        interleaved = fires(["a", "b"] * 30)
        sequential = fires(["a"] * 30 + ["b"] * 30)
        assert interleaved == sequential

    def test_at_after_and_max_fires(self):
        plan = FaultPlan(
            specs=(FaultSpec("s", at=(0, 2, 4), after=1, max_fires=1),)
        )
        injector = faults.FaultInjector(plan)
        fired = []
        for k in range(6):
            try:
                injector.check("s")
            except InjectedFaultError:
                fired.append(k)
        assert fired == [2]  # hit 0 skipped by warmup, hit 4 capped away

    def test_unplanned_site_and_empty_default(self):
        assert faults.get_active() is None
        injector = faults.FaultInjector(FaultPlan(specs=(FaultSpec("s", at=(0,)),)))
        assert injector.check("not-in-plan") is None

    def test_injected_context_installs_and_restores(self):
        plan = FaultPlan(specs=(FaultSpec("s", at=(0,)),))
        with faults.injected(plan) as injector:
            assert faults.get_active() is injector
            with pytest.raises(InjectedFaultError, match="injected fault at 's'"):
                injector.check("s")
        assert faults.get_active() is None

    def test_disconnect_kind_returns_spec(self):
        plan = FaultPlan(specs=(FaultSpec("s", at=(0,), kind="disconnect"),))
        injector = faults.FaultInjector(plan)
        spec = injector.check("s")
        assert spec is not None and spec.kind == "disconnect"
        assert injector.check("s") is None  # hit 1 not scheduled

    def test_thread_storm_counts_every_hit_exactly_once(self):
        plan = FaultPlan(seed=1, specs=(FaultSpec("s", probability=0.3),))
        injector = faults.FaultInjector(plan)
        n_threads, per_thread = 8, 50
        fires = [0] * n_threads

        def worker(i):
            for _ in range(per_thread):
                try:
                    injector.check("s")
                except InjectedFaultError:
                    fires[i] += 1

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = injector.stats()["s"]
        assert stats["hits"] == n_threads * per_thread
        assert stats["fires"] == sum(fires)
        assert stats["fires"] == len(injector.preview("s", n_threads * per_thread))


# ----------------------------------------------------------------------
# Circuit breaker state machine (pinned clock)
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def test_opens_after_k_consecutive_failures(self):
        clock = [0.0]
        b = CircuitBreaker(failures=3, cooldown_s=10.0, clock=lambda: clock[0])
        assert b.state == "closed" and b.allow() == PRIMARY
        b.record_failure()
        b.record_failure()
        b.record_success()  # success resets the consecutive count
        b.record_failure()
        b.record_failure()
        assert b.state == "closed"
        b.record_failure()
        assert b.state == "open"
        assert b.allow() == FALLBACK

    def test_half_open_probe_single_flight(self):
        clock = [0.0]
        b = CircuitBreaker(failures=1, cooldown_s=5.0, clock=lambda: clock[0])
        b.record_failure()
        assert b.allow() == FALLBACK  # still cooling down
        clock[0] = 5.0
        assert b.allow() == PROBE  # cooldown elapsed: one probe
        assert b.state == "half_open"
        assert b.allow() == FALLBACK  # probe in flight: everyone else waits
        b.record_success(probe=True)
        assert b.state == "closed" and b.allow() == PRIMARY

    def test_failed_probe_reopens_and_recools(self):
        clock = [0.0]
        b = CircuitBreaker(failures=1, cooldown_s=5.0, clock=lambda: clock[0])
        b.record_failure()
        clock[0] = 5.0
        assert b.allow() == PROBE
        b.record_failure(probe=True)
        assert b.state == "open"
        assert b.allow() == FALLBACK  # cooldown restarted at the probe failure
        clock[0] = 10.0
        assert b.allow() == PROBE

    def test_stats_shape(self):
        b = CircuitBreaker(failures=1, cooldown_s=1.0)
        b.record_failure()
        stats = b.stats()
        assert stats["state"] == 2 and stats["opens"] == 1
        assert set(stats) >= {"state", "consecutive_failures", "opens",
                              "probes", "fallback_routes"}

    def test_validation(self):
        with pytest.raises(ServingError):
            CircuitBreaker(failures=0)
        with pytest.raises(ServingError):
            CircuitBreaker(cooldown_s=-1.0)


# ----------------------------------------------------------------------
# Deadline propagation
# ----------------------------------------------------------------------
class TestDeadlines:
    def test_expired_request_fails_before_dispatch(self):
        model = FakeModel(tag=1.0)
        service = EstimationService()
        service.register("m", model)
        query = Query.make(["R"], [])
        future = service.submit(query, deadline=time.monotonic() - 0.01)
        with pytest.raises(DeadlineError, match="deadline expired"):
            future.result(timeout=10)
        assert service.scheduler("m").stats()["deadline_expired"] == 1
        assert model.calls == 0  # cancelled before touching the model
        service.close()

    def test_generous_deadline_answers_normally(self):
        service = EstimationService()
        service.register("m", FakeModel(tag=4.0))
        future = service.submit(
            Query.make(["R"], []), deadline=time.monotonic() + 30.0
        )
        assert future.result(timeout=10) == 4.0
        service.close()

    def test_deadline_expiry_never_cascades_to_fallback(self):
        """DeadlineError is the caller's signal: no breaker hit, no fallback."""
        fallback = _ConstFallback(99.0)
        service = EstimationService(
            config=ServingConfig(breaker_failures=1, breaker_cooldown_s=60.0)
        )
        service.register("m", FakeModel(tag=1.0))
        service.register_fallback("m", fallback)
        future = service.submit(
            Query.make(["R"], []), deadline=time.monotonic() - 0.01
        )
        with pytest.raises(DeadlineError):
            future.result(timeout=10)
        assert fallback.calls == 0
        assert service.breaker("m").state == "closed"
        service.close()


# ----------------------------------------------------------------------
# Degraded-mode cascade through EstimationService
# ----------------------------------------------------------------------
class TestFallbackCascade:
    def test_no_fallback_preserves_error_semantics(self):
        service = EstimationService()
        service.register("m", FakeModel(tag=1.0, fail=True))
        with pytest.raises(RuntimeError, match="exploded"):
            service.submit(Query.make(["R"], []), seed=1).result(timeout=10)
        assert "resilience" not in service.stats()
        service.close()

    def test_primary_failure_answers_degraded(self):
        fallback = _ConstFallback(123.0)
        service = EstimationService(
            config=ServingConfig(breaker_failures=10, breaker_cooldown_s=60.0)
        )
        service.register("m", FakeModel(tag=1.0, fail=True))
        service.register_fallback("m", fallback)
        future = service.submit(Query.make(["R"], []), seed=1)
        assert future.result(timeout=10) == 123.0
        assert future.degraded is True
        stats = service.stats()["resilience"]["m"]
        assert stats["degraded_responses"] == 1
        assert stats["fallback_registered"] == 1
        service.close()

    def test_breaker_opens_and_skips_broken_primary(self):
        model = FakeModel(tag=1.0, fail=True)
        fallback = _ConstFallback(7.0)
        service = EstimationService(
            config=ServingConfig(breaker_failures=2, breaker_cooldown_s=60.0)
        )
        service.register("m", model)
        service.register_fallback("m", fallback)
        query = Query.make(["R"], [])
        for seed in (1, 2):  # two failures open the breaker
            assert service.submit(query, seed=seed).result(timeout=10) == 7.0
        assert service.breaker("m").state == "open"
        calls_before = model.calls
        future = service.submit(query, seed=3)
        assert future.result(timeout=10) == 7.0 and future.degraded
        assert model.calls == calls_before  # open circuit: primary untouched
        assert service.stats()["resilience"]["m"]["state"] == 2
        service.close()

    def test_successful_probe_closes_breaker_after_recovery(self):
        model = FakeModel(tag=5.0, fail=True)
        service = EstimationService(
            config=ServingConfig(breaker_failures=1, breaker_cooldown_s=0.05)
        )
        service.register("m", model)
        service.register_fallback("m", _ConstFallback(7.0))
        query = Query.make(["R"], [])
        assert service.submit(query, seed=1).result(timeout=10) == 7.0
        assert service.breaker("m").state == "open"
        model.fail = False  # the primary heals
        time.sleep(0.1)  # past the cooldown: next submit is the probe
        probe = service.submit(query, seed=2)
        assert probe.result(timeout=10) == 5.0 and not probe.degraded
        assert service.breaker("m").state == "closed"
        healthy = service.submit(query, seed=3)
        assert healthy.result(timeout=10) == 5.0 and not healthy.degraded
        service.close()

    def test_fallback_failure_surfaces_original_error(self):
        service = EstimationService(
            config=ServingConfig(breaker_failures=10, breaker_cooldown_s=60.0)
        )
        service.register("m", FakeModel(tag=1.0, fail=True))
        service.register_fallback("m", _ConstFallback(0.0, fail=True))
        with pytest.raises(RuntimeError, match="model 1.0 exploded"):
            service.submit(Query.make(["R"], []), seed=1).result(timeout=10)
        assert service.stats()["resilience"]["m"]["fallback_errors"] == 1
        service.close()

    def test_default_fallback_is_per_table_stats(self, oracle_engine):
        schema = correlated_schema(n_root=12, seed=4)
        engine = oracle_engine

        class _SchemaEngine:
            """Oracle engine + a .schema attribute for the default fallback."""

            is_fitted = True
            size_bytes = 0

            def __init__(self):
                self.schema = schema

            def estimate_batch(self, queries, **kwargs):
                return engine.estimate_batch(queries, **kwargs)

        service = EstimationService()
        service.register("m", _SchemaEngine())
        service.register_fallback("m")
        assert isinstance(service._fallbacks["m"], PerTableStatsEstimator)
        service.close()

    def test_register_fallback_unknown_model_rejected(self):
        service = EstimationService()
        with pytest.raises(ServingError, match="unknown model"):
            service.register_fallback("ghost", _ConstFallback(1.0))
        service.close()


class TestPerTableStatsFallback:
    def test_single_table_conjunctions_are_exact(self):
        schema = correlated_schema(n_root=40, seed=2)
        estimator = PerTableStatsEstimator(schema)
        queries = [
            Query.make(["R"], [Predicate("R", "year", ">=", 1995)]),
            Query.make(["C1"], [Predicate("C1", "kind", "=", 1)]),
            Query.make(
                ["R"],
                [Predicate("R", "year", ">=", 1995), Predicate("R", "year", "<", 1997)],
            ),
            Query.make(["C2"], []),
        ]
        for query in queries:
            assert estimator.estimate(query) == query_cardinality(schema, query)

    def test_join_estimates_are_positive_and_finite(self):
        schema = correlated_schema(n_root=40, seed=2)
        estimator = PerTableStatsEstimator(schema)
        query = Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)])
        batch = estimator.estimate_batch([query, Query.make(["R", "C1", "C2"], [])])
        assert batch.shape == (2,) and np.all(np.isfinite(batch)) and np.all(batch >= 0)


# ----------------------------------------------------------------------
# Seeded fault storm: termination + bitwise purity of non-degraded answers
# ----------------------------------------------------------------------
class TestFaultStorm:
    def test_storm_terminates_with_bitwise_clean_survivors(
        self, oracle_engine, workload
    ):
        schema = correlated_schema(n_root=12, seed=4)
        queries = (workload * 8)[:40]
        seeds = list(range(100, 140))

        reference = EstimationService()
        reference.register("oracle", oracle_engine)
        expected = [
            reference.submit(q, seed=s).result(timeout=30)
            for q, s in zip(queries, seeds)
        ]
        reference.close()

        plan = FaultPlan(
            seed=11, specs=(FaultSpec("scheduler.flush", probability=0.4),)
        )
        service = EstimationService(
            config=ServingConfig(breaker_failures=3, breaker_cooldown_s=0.02)
        )
        service.register("oracle", oracle_engine)
        service.register_fallback("oracle", PerTableStatsEstimator(schema))
        with faults.injected(plan) as injector:
            futures = [
                service.submit(q, seed=s) for q, s in zip(queries, seeds)
            ]
            results = [f.result(timeout=30) for f in futures]  # all terminate
            assert injector.stats()["scheduler.flush"]["fires"] > 0
        degraded = [getattr(f, "degraded", False) for f in futures]
        assert any(degraded), "storm fired but nothing cascaded"
        for hit_fallback, result, clean in zip(degraded, results, expected):
            if not hit_fallback:
                assert result == clean  # bitwise: faults never skew survivors
        stats = service.stats()["resilience"]["oracle"]
        assert stats["degraded_responses"] == sum(degraded)
        service.close()

    def test_registry_load_fault_cascades_not_crashes(self, tiny_trained, tmp_path):
        schema, estimator = tiny_trained
        path = save_model(estimator, tmp_path / "m.npz")
        fallback = _ConstFallback(42.0)
        service = EstimationService(
            config=ServingConfig(breaker_failures=1, breaker_cooldown_s=60.0)
        )
        service.register_path("m", path, schema)
        service.register_fallback("m", fallback)
        plan = FaultPlan(specs=(FaultSpec("registry.load", at=(0,)),))
        query = Query.make(["R"], [])
        with faults.injected(plan):
            broken = service.submit(query, seed=1)
            assert broken.result(timeout=30) == 42.0 and broken.degraded
        service.close()


# ----------------------------------------------------------------------
# Crash-safe persistence + corrupted-artifact recovery
# ----------------------------------------------------------------------
class TestCrashSafePersistence:
    def test_torn_save_leaves_previous_artifact_intact(self, tiny_trained, tmp_path):
        schema, estimator = tiny_trained
        path = tmp_path / "m.npz"
        save_model(estimator, path)
        before = path.read_bytes()
        plan = FaultPlan(specs=(FaultSpec("persistence.save", at=(0,)),))
        with faults.injected(plan):
            with pytest.raises(InjectedFaultError):
                save_model(estimator, path)  # dies between fsync and replace
        assert path.read_bytes() == before  # old artifact byte-identical
        assert not list(tmp_path.glob("*.tmp"))  # temp file cleaned up
        load_model(path, schema)  # still loadable, checksum still good

    def test_checksum_detects_bit_flip_in_params(self, tiny_trained, tmp_path):
        schema, estimator = tiny_trained
        path = save_model(estimator, tmp_path / "m.npz")
        _tamper_param(path)
        with pytest.raises(PersistenceError, match="checksum"):
            load_model(path, schema)

    def test_truncated_artifact_is_clean_persistence_error(
        self, tiny_trained, tmp_path
    ):
        schema, estimator = tiny_trained
        path = save_model(estimator, tmp_path / "m.npz")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 3])
        with pytest.raises(PersistenceError):
            load_model(path, schema)

    def test_garbage_file_is_clean_persistence_error(self, tiny_trained, tmp_path):
        schema, _ = tiny_trained
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00" * 512)
        with pytest.raises(PersistenceError):
            load_model(path, schema)


class TestCorruptedArtifactRecovery:
    def test_registry_entry_survives_corruption_and_repair(
        self, tiny_trained, tmp_path
    ):
        """A corrupt artifact raises cleanly and does NOT poison the entry:
        once the file is repaired, the same registry name loads fine."""
        schema, estimator = tiny_trained
        path = save_model(estimator, tmp_path / "m.npz")
        good = path.read_bytes()
        path.write_bytes(good[: len(good) // 2])  # torn download/copy
        registry = ModelRegistry()
        registry.register_path("m", path, schema)
        with pytest.raises(PersistenceError):
            registry.get("m")
        with pytest.raises(PersistenceError):  # still failing, still typed
            registry.get("m")
        path.write_bytes(good)  # artifact repaired in place
        model, version = registry.get_with_version("m")
        assert model.is_fitted and version == 0
        assert registry.loads == 1  # only the successful load counts

    def test_resident_model_keeps_serving_while_sibling_artifact_is_corrupt(
        self, tiny_trained, tmp_path
    ):
        schema, estimator = tiny_trained
        path = save_model(estimator, tmp_path / "broken.npz")
        _tamper_param(path)
        service = EstimationService()
        service.register("live", FakeModel(tag=3.0))
        service.register_path("broken", path, schema)
        query = Query.make(["R"], [])
        with pytest.raises(PersistenceError):
            service.submit(query, model="broken", seed=1).result(timeout=30)
        # The sibling model is completely unaffected by the corrupt entry.
        assert service.submit(query, model="live", seed=1).result(timeout=30) == 3.0
        service.close()


def _tamper_param(path) -> None:
    """Flip bytes inside one parameter array without touching __meta__."""
    import json
    import numpy as np

    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(bytes(arrays["__meta__"]).decode("utf-8"))
    assert meta["checksum"]["algorithm"] == "crc32"
    key = next(k for k in sorted(arrays) if k.startswith("param::"))
    flipped = arrays[key].copy()
    flat = flipped.reshape(-1)
    flat[0] = flat[0] + 1.0 if flipped.dtype.kind == "f" else flat[0] ^ 1
    arrays[key] = flipped
    np.savez_compressed(path, **arrays)


# ----------------------------------------------------------------------
# Worker-process plan propagation
# ----------------------------------------------------------------------
class TestWorkerPropagation:
    def test_plan_rides_into_spawned_workers(self):
        service = EstimationService(config=ServingConfig(workers=1))
        service.register("m", FakeModel(tag=5.0))
        plan = FaultPlan(seed=2, specs=(FaultSpec("worker.batch", at=(0,)),))
        query = Query.make(["R"], [])
        with faults.injected(plan):
            first = service.submit(query, seed=1)
            with pytest.raises(InjectedFaultError, match="worker.batch"):
                first.result(timeout=60)
            # Hit 1 is not scheduled: the same worker answers normally.
            assert service.submit(query, seed=2).result(timeout=60) == 5.0
        service.close()

    def test_fault_plan_key_in_payload_tracks_installed_plan(self):
        from repro.serving.workers import WorkerPool

        plan = FaultPlan(seed=9, specs=(FaultSpec("worker.crash", at=(5,), kind="crash"),))
        model = FakeModel(tag=1.0)
        pool = WorkerPool(name="p", n_workers=1)
        try:
            with faults.injected(plan):
                payload, _ = pool._build_payload(model, 0)
                assert payload["fault_plan"] == plan
            payload, _ = pool._build_payload(model, 0)
            assert payload["fault_plan"] is None
        finally:
            pool.close()
