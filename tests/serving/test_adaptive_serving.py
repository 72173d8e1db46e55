"""max_rel_var through the serving stack: scheduler, pool protocol, HTTP.

The adaptive-sampling knob must behave identically however a request
arrives — direct scheduler submit, ServingConfig default, or the wire —
and adaptive results must never alias fixed-samples results in the plan
cache (the cache key carries ``max_rel_var``).
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import ServingError
from repro.serving import (
    EstimationService,
    HttpConfig,
    HttpEstimationClient,
    HttpServerThread,
    MicroBatchScheduler,
    ServingConfig,
)
from tests.serving.conftest import FakeModel
from tests.serving.test_scheduler import fixed_source


class TestSchedulerPassthrough:
    def test_adaptive_submit_matches_direct_engine_call(
        self, oracle_engine, workload
    ):
        with MicroBatchScheduler(fixed_source(oracle_engine), n_samples=64) as sched:
            got = [
                sched.submit(q, seed=30 + i, max_rel_var=0.05).result()
                for i, q in enumerate(workload)
            ]
        want = oracle_engine.estimate_batch(
            workload,
            n_samples=64,
            rngs=[np.random.default_rng(30 + i) for i in range(len(workload))],
            max_rel_var=0.05,
        )
        np.testing.assert_array_equal(got, want)

    def test_adaptive_and_fixed_results_never_share_cache_entries(
        self, oracle_engine, workload
    ):
        query = workload[0]
        with MicroBatchScheduler(fixed_source(oracle_engine), n_samples=64) as sched:
            fixed = sched.submit(query, seed=7).result()
            adaptive = sched.submit(query, seed=7, max_rel_var=1e9).result()
            assert sched.stats()["cache_hits"] == 0  # distinct keys, no alias
            assert sched.submit(query, seed=7).result() == fixed
            assert sched.submit(query, seed=7, max_rel_var=1e9).result() == adaptive
            assert sched.stats()["cache_hits"] == 2

    def test_scheduler_default_comes_from_config(self, oracle_engine, workload):
        config = ServingConfig(max_rel_var=1e9, n_samples=64)
        service = EstimationService(config=config)
        service.register("oracle", oracle_engine)
        with service:
            service.submit(workload[0]).result()
            assert oracle_engine.last_adaptive is not None
            assert not oracle_engine.last_adaptive["escalated"].any()

    def test_invalid_bound_fails_synchronously(self, oracle_engine, workload):
        with MicroBatchScheduler(fixed_source(oracle_engine)) as sched:
            with pytest.raises(ServingError):
                sched.submit(workload[0], max_rel_var=-1.0)
        with pytest.raises(ServingError):
            ServingConfig(max_rel_var=-0.1)

    def test_mixed_bounds_flush_in_separate_groups(self, workload):
        class Capturing(FakeModel):
            def __init__(self):
                super().__init__(tag=1.0)
                self.kwargs_seen = []

            def estimate_batch(self, queries, n_samples=None, rngs=None, **kwargs):
                self.kwargs_seen.append(kwargs.get("max_rel_var"))
                return super().estimate_batch(queries, n_samples=n_samples, rngs=rngs)

        model = Capturing()
        with MicroBatchScheduler(
            fixed_source(model), max_wait_us=50_000, cache_size=0
        ) as sched:
            futures = [
                sched.submit(workload[0], max_rel_var=0.1),
                sched.submit(workload[1], max_rel_var=0.1),
                sched.submit(workload[2]),
            ]
            for future in futures:
                future.result()
        assert sorted(model.kwargs_seen, key=str) == [0.1, None]

    def test_engine_telemetry_rides_scheduler_stats(self, oracle_engine, workload):
        with MicroBatchScheduler(fixed_source(oracle_engine), n_samples=64) as sched:
            sched.submit(workload[0], max_rel_var=1e9).result()
            stats = sched.stats()
        assert stats["adaptive_batches"] >= 1
        assert stats["adaptive_queries"] >= 1


class TestWirePassthrough:
    @pytest.fixture(scope="class")
    def http_stack(self, oracle_engine):
        service = EstimationService(config=ServingConfig(n_samples=64))
        service.register("oracle", oracle_engine)
        with HttpServerThread(service, HttpConfig(port=0)) as server:
            yield service, server
        service.close()

    @pytest.fixture()
    def client(self, http_stack):
        _, server = http_stack
        client = HttpEstimationClient(server.host, server.port, "oracle")
        yield client
        client.close()

    def test_max_rel_var_travels_and_matches_in_process(
        self, http_stack, client, workload
    ):
        service, _ = http_stack
        query = workload[0]
        wire = client.estimate(query, seed=11, max_rel_var=0.05)
        ref = service.submit(query, seed=11, max_rel_var=0.05).result()
        assert wire == ref

    def test_batch_max_rel_var_travels(self, http_stack, client, workload):
        service, _ = http_stack
        seeds = [200 + i for i in range(len(workload))]
        wire = client.estimate_batch(workload, seeds=seeds, max_rel_var=0.05)
        ref = np.array(
            [
                service.submit(q, seed=s, max_rel_var=0.05).result()
                for q, s in zip(workload, seeds)
            ]
        )
        np.testing.assert_array_equal(wire, ref)

    @pytest.mark.parametrize("bad", [-0.5, "tight", True])
    def test_invalid_max_rel_var_is_400(self, http_stack, client, workload, bad):
        from repro.errors import QueryError
        from repro.relational.dsl import query_to_dict

        body = json.dumps(
            {"query": query_to_dict(workload[0]), "max_rel_var": bad}
        ).encode("utf-8")
        status, _, payload = client._request(
            "POST", "/v1/models/oracle/estimate", body
        )
        assert status == 400
        with pytest.raises(QueryError):
            client._decode(status, payload)

    def test_adaptive_gauges_reach_metrics(self, http_stack, client, workload):
        client.estimate(workload[0], seed=3, max_rel_var=1e9)
        text = client.metrics_text()
        assert 'stat="adaptive_batches"' in text
        assert 'stat="adaptive_samples_saved"' in text
