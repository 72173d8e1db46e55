"""CI load benchmark: concurrent serving QPS, scheduler vs sequential.

A closed-loop load generator drives the micro-batching scheduler
(`repro.serving`) with ``--clients`` concurrent threads, each keeping
``--depth`` requests in flight, against a tiny-config NeuroCard trained on
a scaled-down JOB-light schema. The baseline is the same request sequence
through the sequential ``estimate`` loop. Reports QPS, speedup, and
p50/p95/p99 per-request latency, and writes a ``BENCH_serving_qps.json``
artifact gated by ``check_regression.py``.

The script verifies three acceptance properties and exits non-zero when
they fail (``--no-check`` to report only):

* scheduler results are **bitwise-equal** to the sequential path under
  pinned per-query generators on the deterministic tabular oracle model
  (whose conditionals are batch-composition invariant);
* on the trained model, scheduler results match the sequential loop to
  ``rtol <= 5e-6`` under pinned seeds (both paths run the compiled fp32
  kernels, whose GEMMs may round differently per batch composition);
* the scheduler sustains >= 1.4x the sequential QPS at 8 concurrent
  clients. The floor was 3x before the compiled inference engine: the
  sequential baseline now runs batch-of-1 through the same compiled
  kernels (~4x faster than PR 3's loop), so coalescing's *relative* win
  shrank while absolute scheduler QPS rose — ``check_regression.py``
  gates that absolute level separately.

With ``--workers N`` the same load additionally runs against the
multiprocess worker pool (``ServingConfig(workers=N)``): micro-batches
are sharded across N processes attaching the model from shared-memory
blobs. A second report (``--pool-out``, bench ``multiprocess_serving``)
records pool QPS, the scaling factor over the single-process scheduler,
a pooled rerun of the oracle bitwise check, and a registry hot-swap
under pooled load that must complete with zero failed and zero
stale-version responses. The >= 2.5x scaling check is enforced only when
the host has at least ``--workers`` CPU cores (single-core dev boxes
report the number without failing on physics).

Run:  PYTHONPATH=src python benchmarks/bench_serving_qps.py [--out PATH]
      PYTHONPATH=src python benchmarks/bench_serving_qps.py --workers 4
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core import NeuroCard, NeuroCardConfig
from repro.core.progressive import ProgressiveSampler
from repro.joins.counts import JoinCounts
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.relational.schema import JoinEdge, JoinSchema
from repro.relational.table import Table
from repro.serving import (
    EstimationService,
    MicroBatchScheduler,
    ModelRegistry,
    ServingConfig,
)
from repro.workloads import job_light_ranges_queries, job_light_schema
from repro.workloads.imdb import DEFAULT_EXCLUDED_COLUMNS, ImdbScale

# The tabular oracle lives with the tests (numpy-only, no pytest import);
# the CI smoke job runs from the repo root with only the package installed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.core.oracle import FixedBudget, OracleModel  # noqa: E402


def train_tiny_estimator(n_samples: int) -> NeuroCard:
    schema = job_light_schema(ImdbScale(n_title=600))
    config = NeuroCardConfig(
        d_emb=8, d_ff=64, n_blocks=2, factorization_bits=14,
        batch_size=512, train_tuples=60_000, learning_rate=5e-3,
        progressive_samples=n_samples, sampler_threads=1,
        exclude_columns=DEFAULT_EXCLUDED_COLUMNS, seed=0,
    )
    return NeuroCard(schema, config).fit()


def make_requests(schema, n_requests: int, n_queries: int):
    """(query, seed) pairs; a unique seed, so a distinct stream, per request."""
    counts = JoinCounts(schema)
    queries = job_light_ranges_queries(schema, n=n_queries, counts=counts)
    return [(queries[i % len(queries)], i) for i in range(n_requests)]


def run_sequential(inference, requests, n_samples: int):
    """One-at-a-time baseline; returns (qps, results)."""
    start = time.perf_counter()
    results = [
        inference.estimate(q, n_samples=n_samples, rng=np.random.default_rng(seed))
        for q, seed in requests
    ]
    wall = time.perf_counter() - start
    return len(requests) / wall, np.array(results)


def run_scheduler(scheduler, requests, n_clients: int, depth: int):
    """Closed-loop clients with ``depth`` requests in flight each.

    Returns (qps, results-in-request-order, per-request amortized latencies).
    """
    results = [0.0] * len(requests)
    latencies: list = []
    lock = threading.Lock()

    def client(cid: int) -> None:
        mine = list(range(cid, len(requests), n_clients))
        local_lat = []
        for at in range(0, len(mine), depth):
            window = mine[at:at + depth]
            t0 = time.perf_counter()
            futures = [
                (i, scheduler.submit(requests[i][0], seed=requests[i][1]))
                for i in window
            ]
            for i, future in futures:
                results[i] = future.result()
            per_request = (time.perf_counter() - t0) / len(window)
            local_lat.extend([per_request] * len(window))
        with lock:
            latencies.extend(local_lat)

    threads = [
        threading.Thread(target=client, args=(cid,)) for cid in range(n_clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return len(requests) / wall, np.array(results), np.array(latencies)


def oracle_bitwise_check(n_samples: int = 200) -> bool:
    """Scheduler == sequential, bitwise, on the composition-invariant oracle."""
    rng = np.random.default_rng(7)
    years = rng.integers(1990, 1998, 40)
    root = Table.from_dict(
        "R", {"id": list(range(40)), "year": [int(y) for y in years]}
    )
    child_rows = [
        (int(rng.integers(0, 40)), int(rng.integers(0, 5))) for _ in range(70)
    ]
    child = Table.from_dict(
        "C", {"rid": [r[0] for r in child_rows], "kind": [r[1] for r in child_rows]}
    )
    schema = JoinSchema(
        tables={"R": root, "C": child},
        edges=[JoinEdge("R", "C", (("id", "rid"),))],
        root="R",
    )
    oracle = OracleModel(schema, factorization_bits=2, exclude=("R.id", "C.rid"))
    ps = ProgressiveSampler(oracle, oracle.layout, oracle.full_join_size)
    queries = [
        Query.make(["R"], [Predicate("R", "year", ">=", 1994)]),
        Query.make(["R", "C"], [Predicate("C", "kind", "IN", (0, 2, 4))]),
        Query.make(["R", "C"], [Predicate("R", "year", "<", 1993)]),
        Query.make(["C"], [Predicate("C", "kind", "=", 1)]),
        Query.make(["R", "C"], []),
    ]
    sequential = [
        ps.estimate(q, n_samples=n_samples, rng=np.random.default_rng(100 + i))
        for i, q in enumerate(queries)
    ]
    served = FixedBudget(ps, n_samples)
    with MicroBatchScheduler(
        lambda: (served, 0), max_batch=3, max_wait_us=500
    ) as scheduler:
        futures = [scheduler.submit(q, seed=100 + i) for i, q in enumerate(queries)]
        coalesced = [f.result() for f in futures]
    return all(a == b for a, b in zip(sequential, coalesced))


class TagModel:
    """Picklable constant-answer model for the pooled hot-swap probe.

    The tag IS the version marker: after a swap to a new tag, any response
    still carrying the old tag is a stale-version response by definition.
    """

    is_fitted = True
    size_bytes = 256

    def __init__(self, tag: float):
        self.tag = tag

    def estimate_batch(self, queries, rngs=None):
        return np.full(len(queries), self.tag, dtype=np.float64)

    def estimate(self, query, **kwargs) -> float:
        return self.tag


def pooled_oracle_bitwise_check(workers: int, n_samples: int = 200) -> bool:
    """Service over a sharded pool == sequential, bitwise, on the fp64 oracle."""
    rng = np.random.default_rng(7)
    years = rng.integers(1990, 1998, 40)
    root = Table.from_dict(
        "R", {"id": list(range(40)), "year": [int(y) for y in years]}
    )
    child_rows = [
        (int(rng.integers(0, 40)), int(rng.integers(0, 5))) for _ in range(70)
    ]
    child = Table.from_dict(
        "C", {"rid": [r[0] for r in child_rows], "kind": [r[1] for r in child_rows]}
    )
    schema = JoinSchema(
        tables={"R": root, "C": child},
        edges=[JoinEdge("R", "C", (("id", "rid"),))],
        root="R",
    )
    oracle = OracleModel(schema, factorization_bits=2, exclude=("R.id", "C.rid"))
    ps = ProgressiveSampler(oracle, oracle.layout, oracle.full_join_size)
    queries = [
        Query.make(["R"], [Predicate("R", "year", ">=", 1994)]),
        Query.make(["R", "C"], [Predicate("C", "kind", "IN", (0, 2, 4))]),
        Query.make(["R", "C"], [Predicate("R", "year", "<", 1993)]),
        Query.make(["C"], [Predicate("C", "kind", "=", 1)]),
        Query.make(["R", "C"], []),
    ]
    sequential = [
        ps.estimate(q, n_samples=n_samples, rng=np.random.default_rng(100 + i))
        for i, q in enumerate(queries)
    ]
    config = ServingConfig(workers=workers, min_shard=1)
    with EstimationService(config=config) as service:
        service.register("oracle", FixedBudget(ps, n_samples))
        futures = [service.submit(q, seed=100 + i) for i, q in enumerate(queries)]
        pooled = [f.result() for f in futures]
        took_the_pool = service.stats()["pools"]["oracle"]["batches"] > 0
    return took_the_pool and all(a == b for a, b in zip(sequential, pooled))


def swap_under_load_check(workers: int, queries) -> dict:
    """Hot-swap the registry during pooled load; count failed/stale responses."""
    registry = ModelRegistry()
    registry.register("probe", TagModel(1.0))
    config = ServingConfig(
        workers=workers, max_batch=16, max_wait_us=500, min_shard=1
    )
    failed = 0
    stale_post_swap = 0
    during: list = []
    stop = threading.Event()
    lock = threading.Lock()

    with EstimationService(registry, config=config) as service:
        service.estimate(queries[0], model="probe")  # warm the pool

        def client() -> None:
            nonlocal failed
            while not stop.is_set():
                try:
                    value = service.estimate(queries[0], model="probe")
                except BaseException:
                    with lock:
                        failed += 1
                    return
                with lock:
                    during.append(value)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        time.sleep(0.3)
        service.swap("probe", TagModel(2.0))
        # swap() returning means every worker acked the new version: from
        # here on, a 1.0 response would be served by a stale worker.
        for q in queries:
            if service.estimate(q, model="probe") != 2.0:
                stale_post_swap += 1
        stop.set()
        for t in threads:
            t.join(timeout=30)

    torn = [v for v in during if v not in (1.0, 2.0)]
    return {
        "failed_responses": failed,
        "stale_post_swap_responses": stale_post_swap,
        "torn_responses": len(torn),
        "responses_during_swap": len(during),
        "ok": int(failed == 0 and stale_post_swap == 0 and not torn),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_serving_qps.json")
    parser.add_argument(
        "--workers", type=int, default=0,
        help="also benchmark the multiprocess worker pool with N processes",
    )
    parser.add_argument(
        "--pool-out", default="BENCH_multiprocess_serving.json",
        help="report path for the --workers run",
    )
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument(
        "--depth", type=int, default=2,
        help="requests each client keeps in flight (closed-loop window)",
    )
    parser.add_argument("--requests", type=int, default=256)
    parser.add_argument("--n-queries", type=int, default=64)
    parser.add_argument("--n-samples", type=int, default=128)
    parser.add_argument("--max-batch", type=int, default=64)
    parser.add_argument("--max-wait-us", type=int, default=2000)
    parser.add_argument(
        "--no-check", action="store_true",
        help="report only; do not fail on the 3x / equivalence checks",
    )
    args = parser.parse_args()

    start = time.perf_counter()
    estimator = train_tiny_estimator(args.n_samples)
    train_seconds = time.perf_counter() - start
    requests = make_requests(estimator.schema, args.requests, args.n_queries)

    sequential_qps, sequential = run_sequential(
        estimator.inference, requests, args.n_samples
    )

    base_config = ServingConfig(max_batch=args.max_batch, max_wait_us=args.max_wait_us)
    service = EstimationService(config=base_config)
    service.register("tiny", estimator)
    scheduler = service.scheduler("tiny")
    scheduler_qps, coalesced, latencies = run_scheduler(
        scheduler, requests, args.clients, args.depth
    )
    stats = scheduler.stats()
    service.close()

    speedup = scheduler_qps / sequential_qps
    rel_dev = float(
        np.max(np.abs(coalesced - sequential) / np.maximum(np.abs(sequential), 1e-12))
    )
    bitwise = oracle_bitwise_check()

    report = {
        "bench": "serving_qps",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "train_seconds": round(train_seconds, 2),
        "clients": args.clients,
        "depth": args.depth,
        "n_requests": len(requests),
        "n_samples": args.n_samples,
        "max_batch": args.max_batch,
        "max_wait_us": args.max_wait_us,
        "mean_batch_size": round(stats["mean_batch_size"], 2),
        "sequential_qps": round(sequential_qps, 2),
        "scheduler_qps": round(scheduler_qps, 2),
        "speedup": round(speedup, 2),
        "p50_ms": round(float(np.percentile(latencies, 50)) * 1e3, 2),
        "p95_ms": round(float(np.percentile(latencies, 95)) * 1e3, 2),
        "p99_ms": round(float(np.percentile(latencies, 99)) * 1e3, 2),
        "max_rel_dev_vs_sequential": rel_dev,
        "oracle_bitwise_match": int(bitwise),
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
    print(json.dumps(report, indent=2))
    print(f"[saved to {args.out}]")

    pool_report = None
    if args.workers > 0:
        pool_config = ServingConfig(
            max_batch=args.max_batch, max_wait_us=args.max_wait_us, workers=args.workers
        )
        pool_service = EstimationService(config=pool_config)
        pool_service.register("tiny", estimator)
        pool_scheduler = pool_service.scheduler("tiny")
        # Warm outside the measurement: spawn the workers and attach the
        # blob at the registry's current version before the clock starts.
        warm_model, warm_version = pool_service.registry.get_with_version("tiny")
        pool_service.pool("tiny").publish(warm_model, warm_version, wait=True)
        pool_qps, pooled, pool_latencies = run_scheduler(
            pool_scheduler, requests, args.clients, args.depth
        )
        pool_stats = pool_service.pool("tiny").stats()
        pool_service.close()

        pool_rel_dev = float(
            np.max(np.abs(pooled - sequential) / np.maximum(np.abs(sequential), 1e-12))
        )
        pool_bitwise = pooled_oracle_bitwise_check(args.workers)
        swap_probe = swap_under_load_check(
            args.workers, [req[0] for req in requests[:8]]
        )
        pool_report = {
            "bench": "multiprocess_serving",
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "workers": args.workers,
            "clients": args.clients,
            "depth": args.depth,
            "n_requests": len(requests),
            "n_samples": args.n_samples,
            "shared_bytes": pool_stats["shared_bytes"],
            "chunks": pool_stats["chunks"],
            "respawns": pool_stats["respawns"],
            "pool_qps": round(pool_qps, 2),
            "scheduler_qps": round(scheduler_qps, 2),
            "scaling_x": round(pool_qps / scheduler_qps, 2),
            "p50_ms": round(float(np.percentile(pool_latencies, 50)) * 1e3, 2),
            "p95_ms": round(float(np.percentile(pool_latencies, 95)) * 1e3, 2),
            "max_rel_dev_vs_sequential": pool_rel_dev,
            "oracle_bitwise_match": int(pool_bitwise),
            "swap_under_load_ok": swap_probe["ok"],
            "swap_probe": swap_probe,
        }
        with open(args.pool_out, "w") as f:
            json.dump(pool_report, f, indent=2)
        print(json.dumps(pool_report, indent=2))
        print(f"[saved to {args.pool_out}]")

    if args.no_check:
        return
    failures = []
    if not bitwise:
        failures.append("scheduler is not bitwise-equal to the sequential oracle path")
    if rel_dev > 5e-6:
        failures.append(
            f"trained-model deviation vs sequential {rel_dev:.2e} exceeds 5e-6"
        )
    if speedup < 1.4:
        failures.append(
            f"scheduler speedup {speedup:.2f}x at {args.clients} clients is below 1.4x"
        )
    if pool_report is not None:
        if not pool_report["oracle_bitwise_match"]:
            failures.append("worker pool is not bitwise-equal to the fp64 oracle path")
        if pool_report["max_rel_dev_vs_sequential"] > 5e-6:
            failures.append(
                "pooled trained-model deviation vs sequential "
                f"{pool_report['max_rel_dev_vs_sequential']:.2e} exceeds 5e-6"
            )
        if not pool_report["swap_under_load_ok"]:
            failures.append(
                f"hot-swap under pooled load failed: {pool_report['swap_probe']}"
            )
        cores = os.cpu_count() or 1
        if cores >= args.workers and pool_report["scaling_x"] < 2.5:
            failures.append(
                f"pool scaling {pool_report['scaling_x']:.2f}x with "
                f"{args.workers} workers on {cores} cores is below 2.5x"
            )
        elif cores < args.workers:
            print(
                f"note: scaling check skipped ({cores} cores < "
                f"{args.workers} workers); measured {pool_report['scaling_x']:.2f}x"
            )
    if failures:
        for failure in failures:
            print(f"CHECK FAILED: {failure}", file=sys.stderr)
        sys.exit(1)
    passed = (
        f"checks passed: bitwise oracle match, rel dev {rel_dev:.1e} <= 5e-6, "
        f"{speedup:.2f}x >= 1.4x at {args.clients} clients"
    )
    if pool_report is not None:
        passed += (
            f"; pool bitwise + swap-under-load clean at {args.workers} workers "
            f"({pool_report['scaling_x']:.2f}x)"
        )
    print(passed)


if __name__ == "__main__":
    main()
