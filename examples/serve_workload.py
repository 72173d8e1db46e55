"""Serve concurrent traffic through the estimation service.

Trains one NeuroCard, registers it with :class:`EstimationService`, and
drives it with 8 closed-loop client threads: every client submits one
query at a time, and the micro-batching scheduler coalesces the
concurrent requests into shared ``estimate_batch`` passes. With
``workers=2`` in the :class:`ServingConfig`, each coalesced micro-batch
is sharded across two worker processes that serve the model's kernel
table from a shared-memory blob (zero-copy). Finishes
with a zero-downtime hot-swap refresh onto a new data snapshot — the
registry republishes the new version to every worker before the swap
returns.

Run:  PYTHONPATH=src python examples/serve_workload.py
"""

import threading
import time

import numpy as np

from repro.core import NeuroCard, NeuroCardConfig
from repro.relational import JoinEdge, JoinSchema, Predicate, Query, Table
from repro.serving import EstimationService, ServingConfig


def build_schema(n_customers: int = 500, seed: int = 0) -> JoinSchema:
    """Orders join customers, with correlated amounts (see quickstart.py)."""
    rng = np.random.default_rng(seed)
    premium = rng.random(n_customers) < 0.2
    customers = Table.from_dict(
        "customers",
        {
            "id": list(range(n_customers)),
            "tier": ["premium" if p else "basic" for p in premium],
        },
    )
    rows = []
    for cid in range(n_customers):
        for _ in range(int(rng.integers(1, 6))):
            base = 500 if premium[cid] else 50
            rows.append((cid, int(base + rng.integers(0, 50))))
    orders = Table.from_dict(
        "orders",
        {"customer_id": [r[0] for r in rows], "amount": [r[1] for r in rows]},
    )
    return JoinSchema(
        tables={"customers": customers, "orders": orders},
        edges=[JoinEdge("customers", "orders", (("id", "customer_id"),))],
        root="customers",
    )


def main() -> None:
    # Serve an initial snapshot holding the first 80% of orders; the rest
    # arrives later as a partition append (same column dictionaries).
    full = build_schema()
    orders = full.table("orders")
    initial = full.replace_table(orders.take(np.arange(int(orders.n_rows * 0.8))))
    config = NeuroCardConfig(
        d_emb=8, d_ff=64, n_blocks=2, train_tuples=100_000,
        learning_rate=5e-3, progressive_samples=128,
        exclude_columns=("customers.id", "orders.customer_id"),
    )
    # fit() serves the trained model on plan-specialized fp32 kernels
    # (per-column input slices, incremental fold sessions, sliced output
    # heads), folded on the first estimate.
    estimator = NeuroCard(initial, config).fit()
    print(f"trained in {estimator.train_result.wall_seconds:.1f}s, "
          f"{estimator.size_mb:.2f} MB")

    workload = [
        Query.make(["customers", "orders"],
                   [Predicate("customers", "tier", "=", "premium"),
                    Predicate("orders", "amount", ">=", 500)]),
        Query.make(["orders"], [Predicate("orders", "amount", "<", 100)]),
        Query.make(["customers"], [Predicate("customers", "tier", "=", "basic")]),
        Query.make(["customers", "orders"],
                   [Predicate("orders", "amount", "IN", (510, 520, 530))]),
    ]

    # One validated config object for every serving knob (scheduler,
    # worker pool, registry, refresh policy). ``workers=2`` turns on the
    # sharded multi-process executor; drop it (the default is 0) to serve
    # in-process.
    serving = ServingConfig(max_batch=64, max_wait_us=2000, workers=2)
    with EstimationService(config=serving) as service:
        service.register("shop", estimator)
        # The fit already folded the kernel table; it is all the model holds.
        print(f"serving the kernel table ({estimator.size_mb:.2f} MB resident)")

        # 8 closed-loop clients, each query's latency = submit -> result.
        n_clients, per_client = 8, 40
        latencies, lock = [], threading.Lock()

        def client(cid: int) -> None:
            rng = np.random.default_rng(cid)
            local = []
            for i in range(per_client):
                query = workload[int(rng.integers(0, len(workload)))]
                start = time.perf_counter()
                service.submit(query, seed=cid * per_client + i).result()
                local.append(time.perf_counter() - start)
            with lock:
                latencies.extend(local)

        threads = [threading.Thread(target=client, args=(c,)) for c in range(n_clients)]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start

        n_requests = n_clients * per_client
        stats = service.stats()["models"]["shop"]
        pool_stats = service.stats().get("pools", {}).get("shop", {})
        print(f"{n_requests} requests from {n_clients} clients in {wall:.2f}s "
              f"-> {n_requests / wall:.0f} QPS "
              f"(p95 {np.percentile(latencies, 95) * 1e3:.1f} ms, "
              f"mean batch {stats['mean_batch_size']:.1f})")
        if pool_stats:
            print(f"worker pool: {pool_stats['workers']} processes, "
                  f"{pool_stats['chunks']} shards over "
                  f"{pool_stats['batches']} micro-batches, "
                  f"{pool_stats['shared_bytes'] / 1024:.0f} KB shared model "
                  f"memory (version {pool_stats['published_version']})")

        # Zero-downtime refresh: a copy ingests the full snapshot and takes
        # extra gradient steps, then replaces the live model atomically; the
        # next batch the scheduler flushes runs on the new version.
        before = service.estimate(workload[0], seed=0)
        version = service.refresh("shop", full, train_tuples=20_000)
        after = service.estimate(workload[0], seed=0)
        print(f"hot-swapped to version {version}; premium-join estimate "
              f"{before:.0f} -> {after:.0f} after ingesting the append")


if __name__ == "__main__":
    main()
