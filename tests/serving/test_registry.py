"""ModelRegistry: registration, lazy loading, eviction, hot-swap atomicity."""

import threading

import numpy as np
import pytest

from repro.core.persistence import save_model
from repro.errors import ServingError
from repro.serving import MicroBatchScheduler, ModelRegistry
from repro.relational.query import Query
from tests.serving.conftest import FakeModel


class TestRegistration:
    def test_register_get_version(self):
        registry = ModelRegistry()
        model = FakeModel(tag=1.0)
        registry.register("a", model)
        assert registry.get("a") is model
        assert registry.version("a") == 0
        assert "a" in registry and "b" not in registry

    def test_duplicate_and_unknown_rejected(self):
        registry = ModelRegistry()
        registry.register("a", FakeModel(tag=1.0))
        with pytest.raises(ServingError):
            registry.register("a", FakeModel(tag=2.0))
        with pytest.raises(ServingError, match="unknown model"):
            registry.get("missing")

    def test_unfitted_rejected(self):
        fake = FakeModel(tag=1.0)
        fake.is_fitted = False
        with pytest.raises(ServingError, match="fitted"):
            ModelRegistry().register("a", fake)


class TestLazyLoadAndEviction:
    def test_lazy_load_on_first_get(self, tiny_trained, tmp_path):
        schema, estimator = tiny_trained
        path = save_model(estimator, tmp_path / "m.npz")
        registry = ModelRegistry()
        registry.register_path("m", path, schema)
        assert registry.loads == 0
        assert registry.resident_bytes == 0
        loaded = registry.get("m")
        assert registry.loads == 1
        assert registry.resident_bytes == loaded.size_bytes
        registry.get("m")
        assert registry.loads == 1  # cached, not reloaded

    def test_eviction_by_size_budget(self, tiny_trained, tmp_path):
        schema, estimator = tiny_trained
        path = save_model(estimator, tmp_path / "m.npz")
        # Probe the resident footprint of one loaded model (weights plus
        # the compiled inference buffers folded on load) so the budget
        # fits exactly one of them, not two.
        probe = ModelRegistry()
        probe.register_path("probe", path, schema)
        budget = int(probe.get("probe").size_bytes * 1.5)  # fits one, not two
        registry = ModelRegistry(budget_bytes=budget)
        registry.register_path("a", path, schema)
        registry.register_path("b", path, schema)
        registry.get("a")
        registry.get("b")
        assert registry.evictions == 1
        assert registry.resident_bytes <= budget
        # The evicted model transparently reloads on demand.
        assert registry.get("a").is_fitted
        assert registry.loads == 3

    def test_pinned_models_never_evicted(self, tiny_trained):
        _, estimator = tiny_trained
        registry = ModelRegistry(budget_bytes=1)  # absurdly small
        registry.register("pinned", estimator)
        assert registry.get("pinned") is estimator
        assert registry.evictions == 0


class TestHotSwap:
    def test_swap_bumps_version_and_readers_keep_old_object(self):
        registry = ModelRegistry()
        old, new = FakeModel(tag=1.0), FakeModel(tag=2.0)
        registry.register("m", old)
        held = registry.get("m")
        assert registry.swap("m", new) == 1
        assert held is old  # a reader mid-batch is untouched
        assert registry.get("m") is new
        assert registry.version("m") == 1

    def test_swap_severs_stale_artifact_path(self, tiny_trained, tmp_path):
        """Post-swap eviction must not resurrect the pre-swap weights."""
        schema, estimator = tiny_trained
        path = save_model(estimator, tmp_path / "m.npz")
        registry = ModelRegistry()
        registry.register_path("m", path, schema)
        registry.get("m")
        replacement = FakeModel(tag=9.0)
        registry.swap("m", replacement)
        assert not registry.unload("m")  # no longer reloadable from disk
        assert registry.get("m") is replacement

    def test_refresh_trains_copy_without_blocking_readers(self, tiny_trained):
        schema, estimator = tiny_trained
        registry = ModelRegistry()
        registry.register("m", estimator)
        held = registry.get("m")
        version = registry.refresh("m", schema, train_tuples=1_024)
        assert version == 1
        assert held is estimator  # the live object was never mutated
        refreshed = registry.get("m")
        assert refreshed is not estimator
        assert refreshed.is_fitted

    def test_refresh_rebuilds_compiled_state(self, tiny_trained):
        """Hot-swap must never serve kernels folded from pre-update weights."""
        from repro.core.inference import build_engine, compiled_model

        schema, estimator = tiny_trained
        registry = ModelRegistry()
        registry.register("m", estimator)
        old_engine = registry.get("m").inference
        registry.refresh("m", schema, train_tuples=1_024)
        refreshed = registry.get("m")
        new_compiled = compiled_model(refreshed.inference)
        assert refreshed.inference is not old_engine
        assert new_compiled is not compiled_model(old_engine)
        # The refreshed clone serves the table its training folded.
        assert new_compiled is refreshed.compiled
        # And those kernels reflect the refreshed weights: a fresh engine
        # built from the refreshed model must agree bitwise.
        query = Query.make(["R"])
        fresh = build_engine(
            refreshed.model, refreshed.layout, refreshed.counts.full_join_size
        )
        served = refreshed.estimate(query, rng=np.random.default_rng(21))
        rebuilt = fresh.estimate_batch(
            [query],
            n_samples=refreshed.config.progressive_samples,
            rngs=[np.random.default_rng(21)],
        )[0]
        assert served == rebuilt

    def test_hot_swap_under_concurrent_submit_no_torn_reads(self):
        """Every result is wholly from one model generation, never mixed."""
        registry = ModelRegistry()
        registry.register("m", FakeModel(tag=0.0))
        query = Query.make(["T"])
        results, errors = [], []
        stop = threading.Event()
        lock = threading.Lock()

        with MicroBatchScheduler(
            lambda: registry.get_with_version("m"), max_batch=8, max_wait_us=200
        ) as scheduler:

            def client():
                while not stop.is_set():
                    try:
                        value = scheduler.submit(query).result(timeout=10)
                    except Exception as exc:  # pragma: no cover - failure path
                        with lock:
                            errors.append(exc)
                        return
                    with lock:
                        results.append(value)

            threads = [threading.Thread(target=client) for _ in range(4)]
            for t in threads:
                t.start()
            for generation in range(1, 6):  # swap 5 times under load
                registry.swap("m", FakeModel(tag=float(generation)))
            stop.set()
            for t in threads:
                t.join()

        assert not errors
        assert len(results) > 0
        valid = {float(g) for g in range(6)}
        assert set(results) <= valid  # no torn / interpolated values
        assert np.isfinite(results).all()
