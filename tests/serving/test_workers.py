"""Multiprocess worker pool: zero-copy attach, fault injection, hot-swap.

The pool's contracts under test:

* **zero-copy equivalence** — a worker skeleton serving the published
  shared-memory blob (the kernel table, nothing else) answers bitwise like
  the training process's estimator;
* **fail-fast worker death** — a SIGKILL'd worker fails its in-flight
  batches with a chained ServingError, is respawned, and pinned-seed
  requests afterwards are bitwise-identical to pre-crash answers;
* **hot-swap under load** — a registry swap during multiprocess traffic
  produces zero failed and zero stale-version responses;
* **the inline path stays the oracle** — pooled results match inline
  results (bitwise for the pickled reference engine, to fp32-kernel
  tolerance for compiled estimators).
"""

from __future__ import annotations

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.estimator import NeuroCard
from repro.core.inference import compiled_model
from repro.core.progressive import ProgressiveSampler
from repro.errors import EstimationError, ServingError
from repro.nn.compiled import CompiledResMADE, pack_layout, read_blob, write_blob
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.serving import (
    EstimationService,
    ModelRegistry,
    ServingConfig,
    WorkerPool,
)
from tests.core.test_estimator import small_config


class SlowModel:
    """Picklable duck-typed model with a per-batch delay (for kill windows)."""

    is_fitted = True
    size_bytes = 512

    def __init__(self, tag: float, delay: float = 0.0):
        self.tag = tag
        self.delay = delay

    def estimate_batch(self, queries, rngs=None):
        if self.delay:
            time.sleep(self.delay)
        return np.full(len(queries), self.tag, dtype=np.float64)

    def estimate(self, query, **kwargs) -> float:
        return float(self.estimate_batch([query])[0])


def _query():
    return Query.make(["R"], [Predicate("R", "year", ">=", 1995)])


def _pinned(seed0: int, n: int):
    return [np.random.default_rng(seed0 + i) for i in range(n)]


# ----------------------------------------------------------------------
# Zero-copy export/attach (in-process, no workers involved)
# ----------------------------------------------------------------------
def test_blob_round_trip_is_bitwise(tiny_trained):
    """Skeleton + a kernel over the published table answers bitwise like the
    trained original."""
    schema, est = tiny_trained
    arrays = est.compiled.export_state()
    manifest, nbytes = pack_layout(arrays)
    buf = bytearray(nbytes)
    write_blob(arrays, manifest, buf)
    views = read_blob(manifest, buf)
    assert all(not view.flags.writeable for view in views.values())

    twin = NeuroCard(schema, est.config).prepare().serve(CompiledResMADE(views))
    # What the blob carries is what both sides count.
    assert twin.size_bytes == est.size_bytes == sum(view.nbytes for view in views.values())
    queries = [_query()] * 4
    rngs_a = [np.random.default_rng(7 + i) for i in range(4)]
    rngs_b = [np.random.default_rng(7 + i) for i in range(4)]
    original = est.estimate_batch(queries, rngs=rngs_a)
    attached = twin.estimate_batch(queries, rngs=rngs_b)
    np.testing.assert_array_equal(np.asarray(attached), np.asarray(original))


def test_serve_rejects_a_table_of_another_architecture(tiny_trained):
    schema, est = tiny_trained
    twin = NeuroCard(schema, est.config).prepare()
    state = est.compiled.export_state()
    del state[f"head::{est.compiled.n_columns - 1}"]
    state["cuts"] = state["cuts"][:-1]
    with pytest.raises(EstimationError, match="does not match"):
        twin.serve(CompiledResMADE(state))
    wider = NeuroCard(schema, small_config(d_ff=64, train_tuples=1_000)).prepare()
    with pytest.raises(EstimationError, match="does not match"):
        wider.serve(est.compiled)
    assert not twin.is_fitted and not wider.is_fitted


def test_reference_engine_has_no_state_to_share(tiny_trained):
    """Only the served engine holds kernels; the oracle is built directly."""
    schema, est = tiny_trained
    assert compiled_model(est.inference) is est.compiled
    reference = ProgressiveSampler(est.training_model(), est.layout, est.full_join_size)
    assert compiled_model(reference) is None


# ----------------------------------------------------------------------
# Pooled serving vs the inline oracle path
# ----------------------------------------------------------------------
def test_pool_matches_inline_compiled(tiny_trained):
    """Sharded fp32 serving reproduces the single-process path."""
    _schema, est = tiny_trained
    queries = [_query()] * 8
    inline = est.estimate_batch(queries, rngs=_pinned(40, 8))
    with WorkerPool(n_workers=2, name="fp32", min_shard=1) as pool:
        pool.publish(est, 1)
        pooled = pool.submit_batch(est, 1, queries, rngs=_pinned(40, 8)).result(timeout=60)
    np.testing.assert_allclose(pooled, np.asarray(inline), rtol=5e-6)


def test_pool_publishes_the_table_alone(tiny_trained):
    """The shared blob is the kernel table: no parameter array rides in it,
    and its bytes are the served size plus at most the 64-byte alignment
    padding of each entry."""
    _schema, est = tiny_trained
    with WorkerPool(n_workers=1, name="table", min_shard=1) as pool:
        pool.publish(est, 1)
        manifest = pool._current_payload["manifest"]
        names = [entry[0] for entry in manifest]
        assert sorted(names) == sorted(est.compiled.export_state())
        assert not [name for name in names if name.startswith("param::")]
        shared = pool.stats()["shared_bytes"]
        assert est.size_bytes <= shared <= est.size_bytes + 64 * len(manifest)


def test_pool_is_bitwise_on_reference_engine(oracle_engine, workload):
    """Pickle-transported reference engine: sharding changes nothing."""
    inline = [
        float(oracle_engine.estimate(q, rng=np.random.default_rng(100 + i)))
        for i, q in enumerate(workload)
    ]
    with WorkerPool(n_workers=2, name="ref", min_shard=1) as pool:
        pool.publish(oracle_engine, 1)
        pooled = pool.submit_batch(
            oracle_engine, 1, workload, rngs=_pinned(100, len(workload))
        ).result(timeout=60)
        assert pool.stats()["chunks"] == 2  # really sharded
    assert pooled.tolist() == inline


def test_scheduler_executor_path_matches_seeded_submits(oracle_engine, workload):
    """scheduler(executor=pool) resolves seeded futures bitwise-stably."""
    from repro.serving.scheduler import MicroBatchScheduler

    expected = [
        float(oracle_engine.estimate(q, rng=np.random.default_rng(55 + i)))
        for i, q in enumerate(workload)
    ]
    with WorkerPool(n_workers=2, name="exec", min_shard=1) as pool:
        with MicroBatchScheduler(
            lambda: (oracle_engine, 3),
            max_batch=4,
            max_wait_us=500,
            executor=pool,
        ) as sched:
            futures = [
                sched.submit(q, seed=55 + i) for i, q in enumerate(workload)
            ]
            got = [f.result(timeout=60) for f in futures]
    assert got == expected
    assert pool.stats()["batches"] > 0  # really took the sharded path


# ----------------------------------------------------------------------
# Fault injection: worker death mid-batch
# ----------------------------------------------------------------------
def test_worker_death_fails_fast_and_respawns(oracle_engine, workload):
    with WorkerPool(n_workers=2, name="doomed", min_shard=1) as pool:
        slow = SlowModel(tag=1.0, delay=3.0)
        pool.publish(slow, 1)
        future = pool.submit_batch(slow, 1, [_query()] * 4, rngs=_pinned(0, 4))
        deadline = time.time() + 10
        while not pool.worker_pids() and time.time() < deadline:
            time.sleep(0.01)
        victim = pool.worker_pids()[0]
        time.sleep(0.3)  # let the shards reach the workers
        os.kill(victim, signal.SIGKILL)
        with pytest.raises(ServingError, match="died mid-batch"):
            future.result(timeout=30)
        try:
            future.result(timeout=0)
        except ServingError as exc:
            assert isinstance(exc.__cause__, RuntimeError)
            assert "exited with code" in str(exc.__cause__)

        # The pool respawned the worker and republished version 1; a
        # fresh publish + pinned seeds must serve bitwise as before.
        pool.publish(oracle_engine, 2)
        assert pool.stats()["respawns"] >= 1
        assert len(pool.worker_pids()) == 2
        recovered = pool.submit_batch(
            oracle_engine, 2, workload, rngs=_pinned(200, len(workload))
        ).result(timeout=60).tolist()
        expected = [
            float(oracle_engine.estimate(q, rng=np.random.default_rng(200 + i)))
            for i, q in enumerate(workload)
        ]
        assert recovered == expected


# ----------------------------------------------------------------------
# Hot-swap under multiprocess load
# ----------------------------------------------------------------------
def test_hot_swap_under_load_has_no_stale_or_failed_responses(workload):
    registry = ModelRegistry()
    registry.register("m", SlowModel(tag=1.0))
    config = ServingConfig(
        workers=2, max_batch=8, max_wait_us=500, min_shard=1
    )
    results: list = []
    failures: list = []
    stop = threading.Event()

    with EstimationService(registry, config=config) as service:
        warm = service.estimate(workload[0], model="m")
        assert warm == 1.0

        def client():
            while not stop.is_set():
                try:
                    results.append(service.estimate(workload[0], model="m"))
                except BaseException as exc:  # noqa: BLE001 - recorded, fails test
                    failures.append(exc)
                    return

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        time.sleep(0.3)
        service.swap("m", SlowModel(tag=2.0))
        # swap() returned => every worker has attached the new version;
        # anything submitted from here on must see the new model.
        post_swap = [service.estimate(workload[0], model="m") for _ in range(8)]
        time.sleep(0.2)
        stop.set()
        for thread in threads:
            thread.join(timeout=30)

    assert not failures, failures
    assert results and set(results) <= {1.0, 2.0}
    assert post_swap == [2.0] * 8


def test_pool_refuses_unpicklable_and_surfaces_closed(workload):
    pool = WorkerPool(n_workers=1, name="edge")
    try:
        with pytest.raises(ServingError, match="picklable"):
            pool.publish(threading.Lock(), 1)
    finally:
        pool.close()
    with pytest.raises(ServingError, match="closed"):
        pool.submit_batch(SlowModel(tag=1.0), 1, workload[:1], rngs=_pinned(0, 1))
