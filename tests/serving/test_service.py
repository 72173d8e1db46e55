"""EstimationService: façade behavior, refresh hand-over, harness wiring."""

import numpy as np
import pytest

from repro.errors import ServingError
from repro.eval.harness import evaluate_estimator, true_cardinalities
from repro.serving import EstimationService, ServingConfig
from tests.serving.conftest import FakeModel


@pytest.fixture()
def service(tiny_trained):
    _, estimator = tiny_trained
    config = ServingConfig(max_batch=16, max_wait_us=1_000)
    with EstimationService(config=config) as svc:
        svc.register("tiny", estimator)
        yield svc


class TestFacade:
    def test_estimate_and_batch(self, service, workload):
        single = service.estimate(workload[0], seed=3)
        assert np.isfinite(single) and single >= 0
        batch = service.estimate_batch(workload)
        assert batch.shape == (len(workload),)
        assert np.all(np.isfinite(batch)) and np.all(batch >= 0)

    def test_pinned_seed_matches_direct_batched_engine(self, service, tiny_trained, workload):
        _, estimator = tiny_trained
        query = workload[1]
        direct = estimator.estimate_batch([query], rngs=[np.random.default_rng(21)])[0]
        served = service.estimate(query, seed=21)
        assert served == direct  # same engine, same budget, same pinned stream

    def test_single_model_resolves_implicitly(self, service, workload):
        assert service.submit(workload[0]).result(timeout=30) >= 0

    def test_multi_model_requires_name(self, tiny_trained, workload):
        _, estimator = tiny_trained
        with EstimationService() as svc:
            svc.register("a", estimator)
            svc.registry.register("b", FakeModel(tag=5.0))
            with pytest.raises(ServingError, match="model name required"):
                svc.estimate(workload[0])
            assert svc.estimate(workload[0], model="a") >= 0

    def test_closed_service_rejects_submits(self, tiny_trained, workload):
        _, estimator = tiny_trained
        svc = EstimationService()
        svc.register("tiny", estimator)
        svc.close()
        with pytest.raises(ServingError):
            svc.submit(workload[0])

    def test_stats_exposes_scheduler_and_registry(self, service, workload):
        service.estimate_batch(workload)
        stats = service.stats()
        assert stats["models"]["tiny"]["requests"] == len(workload)
        assert stats["registry"]["n_models"] == 1
        assert stats["registry"]["resident_bytes"] > 0


class TestRefreshInvalidation:
    def test_next_request_after_refresh_runs_on_the_new_version(
        self, tiny_trained, workload
    ):
        schema, estimator = tiny_trained
        query = workload[1]

        def pinned(model):
            return model.estimate_batch([query], rngs=[np.random.default_rng(11)])[0]

        config = ServingConfig(max_batch=8, max_wait_us=500)
        with EstimationService(config=config) as svc:
            svc.register("tiny", estimator)
            before = svc.estimate(query, seed=11)
            assert svc.refresh("tiny", schema, train_tuples=1_024) == 1
            refreshed = svc.registry.get("tiny")
            assert refreshed is not estimator
            assert svc.estimate(query, seed=11) == pinned(refreshed)
        # The original estimator object was never touched.
        assert pinned(estimator) == before

    def test_refresh_under_live_planning_traffic(self, tiny_trained, workload):
        """refresh() copies safely while serving threads mutate plan caches."""
        import threading

        schema, estimator = tiny_trained
        config = ServingConfig(max_batch=8, max_wait_us=200)
        with EstimationService(config=config) as svc:
            svc.register("tiny", estimator)
            stop = threading.Event()
            errors = []

            def hammer():
                i = 0
                while not stop.is_set():
                    try:
                        svc.estimate(workload[i % len(workload)], seed=i)
                    except Exception as exc:  # pragma: no cover - failure path
                        errors.append(exc)
                        return
                    i += 1

            thread = threading.Thread(target=hammer)
            thread.start()
            try:
                svc.refresh("tiny", schema, train_tuples=1_024)
            finally:
                stop.set()
                thread.join()
            assert not errors


class TestHarnessWiring:
    def test_concurrent_evaluation_through_service(self, service, tiny_trained, workload):
        schema, estimator = tiny_trained
        truths = true_cardinalities(schema, workload, counts=estimator.counts)
        result = evaluate_estimator(
            "served", service, workload, truths, concurrency=4
        )
        assert len(result.errors) == len(workload)
        assert all(np.isfinite(e) for e in result.errors)
        assert all(lat > 0 for lat in result.latencies_ms)
        assert result.size_bytes == estimator.size_bytes

    def test_concurrent_evaluation_propagates_client_failures(self, workload):
        """A dead client must raise, not report fabricated zero estimates."""
        from repro.serving import MicroBatchScheduler

        failing = FakeModel(tag=1.0, fail=True)
        with MicroBatchScheduler(
            lambda: (failing, 0), max_batch=4, max_wait_us=500
        ) as scheduler:
            with pytest.raises(RuntimeError, match="exploded"):
                evaluate_estimator(
                    "bad", scheduler, workload,
                    [1.0] * len(workload), concurrency=2,
                )
