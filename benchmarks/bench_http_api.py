"""HTTP-serving benchmark: the wire API vs the in-process scheduler.

Serves the deterministic fp64 tabular oracle engine (bitwise-stable and
training-free, so the bench isolates the serving stack) through
``repro.serving.http`` and drives it with a closed-loop load generator
(N keep-alive client threads, one request in flight each). Reports QPS,
p50/p95 latency, shed and error rates, and five acceptance properties the
CI gate pins (``--no-check`` to report only):

* **wire results are bitwise-equal to in-process** — every pinned-seed
  answer over HTTP equals the sequential ``ProgressiveSampler.estimate``
  with the same seed (JSON ``repr``-round-trips floats exactly; the
  scheduler pins per-request generators);
* **the wire sustains >= 0.55x the unbatched in-process QPS** — the same
  requests through ``service.submit`` directly, same client count, with
  ``max_batch=1``: every request walks alone, so no coalescing policy can
  move the denominator, and the ratio says whether batching across wire
  clients pays for HTTP parsing + loopback TCP. (Until PR 16 the
  denominator was the batched in-process run, whose every cycle held a
  ``max_wait_us`` sleep that hid the wire clients' turnaround; without
  the sleep that ratio, ``wire_qps / inprocess_qps``, reads ~0.55. The
  floor was 0.7 until the walk itself got ~45 % faster per lone request:
  the engine-bound denominator rose 1224 -> 1790 qps while the wire-bound
  numerator rose 1151 -> 1315, medians of five runs, ratio 0.94 -> 0.71.)
* **zero shed at low load** — an uncontended run must admit everything;
* **/metrics reconciles exactly** — scraped request/shed/query counters
  equal the load generator's own tallies, integer-exact;
* **overload sheds, admitted traffic stays fast** — at >= 3x the
  sustainable rate (token-bucket quota at one third of measured wire
  QPS), shed rate is positive while the p95 of *accepted* requests stays
  within 2x the uncontended p95 (shedding happens before batch slots are
  consumed, so survivors don't queue behind doomed requests).

Run:  PYTHONPATH=src python benchmarks/bench_http_api.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.core.progressive import ProgressiveSampler
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.relational.schema import JoinEdge, JoinSchema
from repro.relational.table import Table
from repro.serving import (
    EstimationService,
    HttpConfig,
    HttpEstimationClient,
    HttpServerThread,
    ServingConfig,
)
from repro.serving.metrics import parse_samples

# The tabular oracle lives with the tests (numpy-only, no pytest import);
# the CI smoke job runs from the repo root with only the package installed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.core.oracle import FixedBudget, OracleModel  # noqa: E402


def build_oracle_engine() -> ProgressiveSampler:
    """The same two-table fp64 oracle the serving benches use."""
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
    return ProgressiveSampler(oracle, oracle.layout, oracle.full_join_size)


def make_requests(n_requests: int):
    """(query, seed) pairs; a unique seed, so a distinct stream, per request."""
    queries = [
        Query.make(["R"], [Predicate("R", "year", ">=", 1994)]),
        Query.make(["R", "C"], [Predicate("C", "kind", "IN", (0, 2, 4))]),
        Query.make(["R", "C"], [Predicate("R", "year", "<", 1993)]),
        Query.make(["C"], [Predicate("C", "kind", "=", 1)]),
        Query.make(["R", "C"], []),
    ]
    return [(queries[i % len(queries)], 1000 + i) for i in range(n_requests)]


def run_inprocess(service, requests, n_clients: int):
    """Closed-loop clients against service.submit; returns (qps, results)."""
    results = [0.0] * len(requests)

    def client(cid: int) -> None:
        for i in range(cid, len(requests), n_clients):
            query, seed = requests[i]
            results[i] = service.submit(query, seed=seed).result()

    threads = [
        threading.Thread(target=client, args=(cid,)) for cid in range(n_clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return len(requests) / wall, np.array(results)


def run_wire(server, requests, n_clients: int, tenant: str = "bench"):
    """Closed-loop clients over HTTP; per-request wall-time latencies.

    Returns (qps, results, latencies_of_accepted, tallies) where results
    holds NaN for shed/failed requests and tallies counts
    ``{"ok", "shed", "error"}`` exactly as the client threads observed
    them (the /metrics reconciliation compares against these).
    """
    from repro.errors import QueryError, ServingError

    results = [float("nan")] * len(requests)
    latencies: list = []
    tallies = {"ok": 0, "shed": 0, "error": 0}
    lock = threading.Lock()

    def client(cid: int) -> None:
        # max_retries=0: the /metrics reconciliation demands exactly one
        # wire request per workload entry, so retried 429s would break it.
        http = HttpEstimationClient(
            server.host, server.port, "oracle", tenant=tenant, max_retries=0
        )
        local_lat, ok, shed, error = [], 0, 0, 0
        for i in range(cid, len(requests), n_clients):
            query, seed = requests[i]
            t0 = time.perf_counter()
            try:
                results[i] = http.estimate(query, seed=seed)
                ok += 1
                local_lat.append(time.perf_counter() - t0)
            except QueryError as exc:
                # 429 = quota shed (the overload phase's design); any
                # other 4xx is a generator bug and counts as an error.
                if "429" in str(exc):
                    shed += 1
                else:
                    error += 1
            except ServingError:
                shed += 1  # 503 queue/deadline shed
            except Exception:  # noqa: BLE001
                error += 1
        http.close()
        with lock:
            latencies.extend(local_lat)
            tallies["ok"] += ok
            tallies["shed"] += shed
            tallies["error"] += error

    threads = [
        threading.Thread(target=client, args=(cid,)) for cid in range(n_clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - start
    return len(requests) / wall, np.array(results), np.array(latencies), tallies


def reconcile_metrics(client, tenant: str, tallies) -> bool:
    """Scraped counters must equal the load generator's tallies exactly."""
    samples = parse_samples(client.metrics_text())

    def scraped(name: str, **labels) -> float:
        rendered = ",".join(f'{k}="{v}"' for k, v in sorted(labels.items()))
        return samples.get(f"{name}{{{rendered}}}", 0.0)

    ok = scraped("repro_http_requests_total", tenant=tenant, code="200")
    shed = sum(
        value
        for key, value in samples.items()
        if key.startswith("repro_http_shed_total") and f'tenant="{tenant}"' in key
    )
    queries = scraped("repro_http_queries_total", tenant=tenant)
    observed = scraped("repro_http_request_seconds_count", tenant=tenant)
    return (
        ok == tallies["ok"]
        and shed == tallies["shed"]
        and queries == tallies["ok"]  # single-query requests
        and observed == tallies["ok"]  # only admitted requests are timed
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_http_api.json")
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--requests", type=int, default=600)
    parser.add_argument("--n-samples", type=int, default=200)
    parser.add_argument("--overload-x", type=float, default=3.0)
    parser.add_argument(
        "--no-check", action="store_true",
        help="report only; do not fail the acceptance checks",
    )
    args = parser.parse_args()

    engine = build_oracle_engine()
    requests = make_requests(args.requests)

    # Sequential fp64 reference: the bitwise ground truth for every path.
    sequential = np.array([
        engine.estimate(q, n_samples=args.n_samples, rng=np.random.default_rng(seed))
        for q, seed in requests
    ])

    config = ServingConfig(max_batch=64, max_wait_us=2000)
    served = FixedBudget(engine, args.n_samples)

    # -- in-process scheduler baselines: as configured, and unbatched ---
    def inprocess_run(config):
        service = EstimationService(config=config)
        service.register("oracle", served)
        service.estimate(requests[0][0], seed=requests[0][1])  # warm the scheduler
        qps, results = run_inprocess(service, requests, args.clients)
        service.close()
        return qps, results

    inprocess_qps, inprocess = inprocess_run(config)
    unbatched_qps, _ = inprocess_run(replace(config, max_batch=1, max_wait_us=0))

    # -- wire run (uncontended) ----------------------------------------
    service = EstimationService(config=config)
    service.register("oracle", served)
    with HttpServerThread(service, HttpConfig(port=0)) as server:
        wire_client = HttpEstimationClient(
            server.host, server.port, "oracle", tenant="bench"
        )
        wire_client.estimate(requests[0][0], seed=requests[0][1])  # warm
        wire_qps, wire, latencies, tallies = run_wire(
            server, requests, args.clients
        )
        tallies["ok"] += 1  # the warm-up request hit the same tenant
        metrics_ok = reconcile_metrics(wire_client, "bench", tallies)
        tallies["ok"] -= 1
        wire_client.close()
    service.close()

    bitwise = bool(np.array_equal(wire, sequential))
    inprocess_bitwise = bool(np.array_equal(inprocess, sequential))
    zero_shed = int(tallies["shed"] == 0 and tallies["error"] == 0)
    p50_ms = float(np.percentile(latencies, 50)) * 1e3 if len(latencies) else 0.0
    p95_ms = float(np.percentile(latencies, 95)) * 1e3 if len(latencies) else 0.0

    # -- overload probe: quota at wire_qps / overload_x ----------------
    # The same closed loop now offers ~overload_x times what the bucket
    # admits; shedding must appear and the survivors must stay fast.
    quota_rate = max(wire_qps / args.overload_x, 1.0)
    service = EstimationService(config=config)
    service.register("oracle", served)
    with HttpServerThread(
        service,
        HttpConfig(port=0, rate=quota_rate, burst=max(quota_rate / 10, 1.0)),
    ) as server:
        _, _, over_latencies, over_tallies = run_wire(
            server, requests, args.clients
        )
    service.close()

    total = over_tallies["ok"] + over_tallies["shed"] + over_tallies["error"]
    overload_shed_rate = over_tallies["shed"] / total if total else 0.0
    overload_p95_ms = (
        float(np.percentile(over_latencies, 95)) * 1e3 if len(over_latencies) else 0.0
    )
    overload_ok = int(
        over_tallies["error"] == 0
        and overload_shed_rate > 0.0
        and overload_p95_ms <= 2.0 * p95_ms
    )

    report = {
        "bench": "http_api",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "clients": args.clients,
        "n_requests": len(requests),
        "n_samples": args.n_samples,
        "inprocess_qps": round(inprocess_qps, 2),
        "inprocess_unbatched_qps": round(unbatched_qps, 2),
        "wire_qps": round(wire_qps, 2),
        "wire_ratio": round(wire_qps / unbatched_qps, 3),
        "p50_ms": round(p50_ms, 2),
        "p95_ms": round(p95_ms, 2),
        "shed_low_load": tallies["shed"],
        "error_low_load": tallies["error"],
        "zero_shed_low_load": zero_shed,
        "wire_bitwise_match": int(bitwise),
        "inprocess_bitwise_match": int(inprocess_bitwise),
        "metrics_reconcile_ok": int(metrics_ok),
        "overload_x": args.overload_x,
        "overload_shed_rate": round(overload_shed_rate, 3),
        "overload_p95_ms": round(overload_p95_ms, 2),
        "overload_ok": overload_ok,
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
    print(json.dumps(report, indent=2))
    print(f"[saved to {args.out}]")

    if args.no_check:
        return
    failures = []
    if not bitwise:
        failures.append("wire results are not bitwise-equal to the fp64 oracle path")
    if not inprocess_bitwise:
        failures.append("in-process results are not bitwise-equal (scheduler bug?)")
    if report["wire_ratio"] < 0.55:
        failures.append(
            f"wire QPS is {report['wire_ratio']:.2f}x unbatched in-process "
            "(< 0.55x floor)"
        )
    if not zero_shed:
        failures.append(
            f"uncontended run shed {tallies['shed']} / errored {tallies['error']}"
        )
    if not metrics_ok:
        failures.append("/metrics counters do not reconcile with client tallies")
    if not overload_ok:
        failures.append(
            f"overload probe failed: shed_rate={overload_shed_rate:.3f}, "
            f"p95 {overload_p95_ms:.1f}ms vs 2x floor {2 * p95_ms:.1f}ms, "
            f"errors={over_tallies['error']}"
        )
    if failures:
        print("\nHTTP API acceptance checks FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        sys.exit(1)
    print("\nHTTP API acceptance checks passed.")


if __name__ == "__main__":
    main()
