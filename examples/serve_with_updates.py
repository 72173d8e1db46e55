"""Serve live traffic while the paper's §7.6 partitions stream in.

Trains a NeuroCard on partition 1 of the year-partitioned JOB-light split,
serves it through the estimation service, then ingests partitions 2..5 as
append batches through a :class:`StreamingIngestor` while closed-loop
clients keep submitting queries. A :class:`BackgroundRefresher` watches the
drift monitor and hot-swaps incrementally retrained models in (the paper's
*fast* strategy, throttled so serving keeps the CPU), and the script prints
the freshness / q-error trajectory after every ingest: how stale the served
model was just before the refresh, and how much accuracy the refresh
recovered.

Run:  PYTHONPATH=src python examples/serve_with_updates.py   (~2 minutes)
"""

import threading
import time

import numpy as np

from repro.core import NeuroCard, NeuroCardConfig, clone_estimator
from repro.eval.harness import true_cardinalities
from repro.eval.metrics import q_error
from repro.eval.updates import partition_stream
from repro.joins.counts import JoinCounts
from repro.serving import (
    EstimationService,
    RefreshPolicy,
    StreamingIngestor,
)
from repro.workloads import job_light_ranges_queries, job_light_schema
from repro.workloads.imdb import DEFAULT_EXCLUDED_COLUMNS, ImdbScale


def median_qerror(estimates, truths) -> float:
    return float(np.median([q_error(e, t) for e, t in zip(estimates, truths)]))


def main() -> None:
    full = job_light_schema(ImdbScale(n_title=500))
    snapshots, deltas = partition_stream(full, n_partitions=5)
    config = NeuroCardConfig(
        d_emb=8, d_ff=64, n_blocks=2, train_tuples=50_000,
        learning_rate=5e-3, progressive_samples=128, sampler_threads=1,
        exclude_columns=DEFAULT_EXCLUDED_COLUMNS, seed=0,
    )
    # Probe workload: literals drawn from the final snapshot so every
    # query stays answerable across the whole stream.
    queries = job_light_ranges_queries(
        snapshots[-1], n=32, counts=JoinCounts(snapshots[-1])
    )

    estimator = NeuroCard(snapshots[0], config).fit()
    print(f"trained on partition 1/5 in "
          f"{estimator.train_result.wall_seconds:.1f}s "
          f"({snapshots[0].table('title').n_rows} title rows)")
    # A frozen copy of the partition-1 model: the Table 6 "stale" row,
    # re-scored against every later snapshot to show what refreshing buys.
    stale_reference = clone_estimator(estimator)

    with EstimationService() as service:
        service.register("imdb", estimator)
        ingestor = StreamingIngestor(snapshots[0])
        refresher = service.serve_with_updates(
            "imdb", ingestor,
            policy=RefreshPolicy(
                drift_threshold=None,
                ingest_threshold=0.01,        # any partition triggers
                retrain_drift_threshold=2.0,  # stick to the fast strategy
                fast_fraction=0.05,
                train_duty=0.3,               # background training yields CPU
            ),
            poll_interval=0.05,
        )

        # Closed-loop client traffic for the whole ingest stream.
        stop = threading.Event()
        served = [0]

        def client(cid: int) -> None:
            rng = np.random.default_rng(cid)
            i = 0
            while not stop.is_set():
                query = queries[int(rng.integers(0, len(queries)))]
                service.submit(query, seed=cid * 100_000 + i).result()
                served[0] += 1  # telemetry only; exactness doesn't matter
                i += 1

        clients = [threading.Thread(target=client, args=(c,)) for c in range(4)]
        for t in clients:
            t.start()

        print("\npart  rows(title)  drift   stale-p50  served-p50  "
              "refresh-s  model-v")
        try:
            for k, delta in enumerate(deltas[1:], start=2):
                version = ingestor.ingest_many(delta)
                report = refresher.monitor.observe(*ingestor.snapshot())
                deadline = time.monotonic() + 180
                while (refresher.stats()["last_data_version"] < version
                       and refresher.last_error is None
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                if refresher.last_error is not None:
                    raise refresher.last_error
                # Score the never-refreshed partition-1 model (a private
                # clone) and the freshly served model (through the service,
                # sharing the scheduler with the live clients) against the
                # post-ingest snapshot's exact truths.
                snapshot_truths = true_cardinalities(snapshots[k - 1], queries)
                stale_p50 = median_qerror(
                    stale_reference.estimate_batch(
                        queries, rng=np.random.default_rng(0)
                    ),
                    snapshot_truths,
                )
                served_p50 = median_qerror(
                    service.estimate_batch(queries), snapshot_truths
                )
                fresh = service.registry.get("imdb")
                event = refresher.history[-1]
                print(f"{k:>4}  {fresh.schema.table('title').n_rows:>11}  "
                      f"{report.max_divergence:>5.3f}  {stale_p50:>10.2f}  "
                      f"{served_p50:>10.2f}  {event.seconds:>9.2f}  "
                      f"{event.model_version:>7}")
        finally:
            stop.set()
            for t in clients:
                t.join()

        print(f"\nserved ~{served[0]} requests during the stream; "
              f"final model data_version="
              f"{service.registry.get('imdb').data_version}, "
              f"refresher stats: {refresher.stats()}")


if __name__ == "__main__":
    main()
