"""Serve cardinality estimates over HTTP, and hot-swap the model mid-traffic.

Trains a small NeuroCard on the JOB-light schema, puts it behind the
stdlib asyncio HTTP front end (`repro.serving.http`), and drives it three
ways while closed-loop client threads keep traffic flowing:

1. a raw JSON request (exactly what ``curl`` would send, filter DSL and
   all) posted with ``http.client`` — no repro import needed on the caller;
2. the `HttpEstimationClient` wire adapter, whose pinned-seed answers are
   bitwise-equal to the in-process path;
3. a **hot-swap under live load**: a longer-trained replacement model is
   swapped in through the registry while the clients hammer the server,
   and the script proves no request failed or observed a torn model — the
   served estimates simply switch distribution at one request boundary.

It finishes with the operational surface: `/healthz` (models, refresher
liveness, admission occupancy) and a `/metrics` scrape whose counters
reconcile exactly with the number of requests the clients sent.

Run:  PYTHONPATH=src python examples/serve_http.py   (~1 minute)
"""

import http.client
import json
import threading

import numpy as np

from repro.core import NeuroCard, NeuroCardConfig
from repro.serving import (
    EstimationService,
    HttpConfig,
    HttpEstimationClient,
    HttpServerThread,
)
from repro.workloads import job_light_ranges_queries, job_light_schema
from repro.workloads.imdb import DEFAULT_EXCLUDED_COLUMNS, ImdbScale


def train(schema, train_tuples: int, seed: int) -> NeuroCard:
    config = NeuroCardConfig(
        d_emb=8, d_ff=64, n_blocks=2, train_tuples=train_tuples,
        learning_rate=5e-3, progressive_samples=128, sampler_threads=1,
        exclude_columns=DEFAULT_EXCLUDED_COLUMNS, seed=seed,
    )
    return NeuroCard(schema, config).fit()


def main() -> None:
    schema = job_light_schema(ImdbScale(n_title=400))
    queries = job_light_ranges_queries(schema, n=24)

    print("training the initial model (short run)...")
    estimator = train(schema, train_tuples=20_000, seed=0)

    service = EstimationService()
    service.register("imdb", estimator)

    with HttpServerThread(service, HttpConfig(port=0)) as server:
        print(f"serving on http://{server.host}:{server.port}\n")

        # -- 1. the curl view: plain JSON in, plain JSON out ------------
        body = {
            "query": {
                "tables": ["title", "movie_companies"],
                "filters": [
                    {"column": "title.production_year", "op": ">=", "value": 1990},
                    {"table": "movie_companies", "column": "company_type_id",
                     "op": "<=", "value": 1},
                ],
            },
            "seed": 7,
        }
        conn = http.client.HTTPConnection(server.host, server.port)
        conn.request(
            "POST", "/v1/models/imdb/estimate", json.dumps(body),
            {"Content-Type": "application/json", "X-Tenant": "example"},
        )
        raw = json.loads(conn.getresponse().read())
        conn.close()
        print(f"raw JSON estimate (curl-equivalent): {raw}")

        # -- 2. the client adapter: bitwise-equal to in-process ---------
        client = HttpEstimationClient(server.host, server.port, "imdb",
                                      tenant="example")
        wire = client.estimate(queries[0], seed=42)
        local = service.estimate(queries[0], seed=42)
        print(f"pinned seed over the wire {wire!r} == in-process {local!r}: "
              f"{wire == local}\n")

        # -- 3. hot-swap while closed-loop clients keep submitting ------
        stop = threading.Event()
        failures: list = []
        served: list = []
        lock = threading.Lock()

        def client_loop(cid: int) -> None:
            http_client = HttpEstimationClient(
                server.host, server.port, "imdb", tenant="example"
            )
            rng = np.random.default_rng(cid)
            while not stop.is_set():
                query = queries[int(rng.integers(0, len(queries)))]
                try:
                    estimate = http_client.estimate(query)
                except Exception as exc:  # noqa: BLE001 - any failure breaks the demo
                    with lock:
                        failures.append(exc)
                    return
                with lock:
                    served.append(estimate)
            http_client.close()

        threads = [
            threading.Thread(target=client_loop, args=(cid,)) for cid in range(4)
        ]
        for t in threads:
            t.start()

        print("training the replacement model while traffic flows...")
        replacement = train(schema, train_tuples=60_000, seed=1)
        before = len(served)
        version = service.swap("imdb", replacement)
        after_swap_marker = len(served)
        # Let the new model take some traffic, then stop the clients.
        while len(served) < after_swap_marker + 200 and not failures:
            stop.wait(0.01)
        stop.set()
        for t in threads:
            t.join()

        print(f"hot-swap installed model version {version} after "
              f"~{before} served requests; {len(served) - before} more "
              f"answered afterwards; failed requests: {len(failures)}")
        if failures:
            raise failures[0]

        # -- the operational surface ------------------------------------
        health = client.healthz()
        print(f"\n/healthz: status={health['status']} "
              f"models={health['models']} "
              f"registry={health['registry']}")
        scrape = client.metrics_text()
        ok_line = next(
            line for line in scrape.splitlines()
            if line.startswith("repro_http_requests_total")
            and 'tenant="example"' in line and 'code="200"' in line
        )
        # raw curl request + bitwise probe + everything the loop served
        expected = 2 + len(served)
        print(f"/metrics: {ok_line}  (clients counted {expected})")
        client.close()

    service.close()


if __name__ == "__main__":
    main()
