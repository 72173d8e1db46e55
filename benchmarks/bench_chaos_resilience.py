"""Chaos-resilience benchmark: a seeded fault storm vs availability gates.

Serves the deterministic fp64 tabular oracle engine through the full
stack (scheduler + sharded worker pool) while ``repro.serving.faults``
injects a *reproducible* storm — scheduler flush failures, parent-side
dispatch errors, and worker SIGKILLs — with a training-free per-table
fallback registered behind the circuit breaker. Reports QPS, p95
latency, fault/degraded tallies, and the acceptance properties the
``chaos-smoke`` CI leg pins (``--no-check`` to report only):

* **one seed, one schedule** — ``FaultPlan.schedule`` replayed twice
  (and from a freshly constructed equal plan) yields the identical fire
  indices, while a different seed yields a different schedule;
* **every request is answered** — under the storm the answered-request
  ratio is >= 0.99 (degraded answers count; stranded futures and raw
  infrastructure errors do not) and zero futures time out;
* **non-degraded answers are bitwise clean** — every answer that did
  NOT route through the fallback equals the no-fault reference run's
  fp64 result exactly, so injected faults never skew surviving math;
* **the storm really stormed** — the flush site fired, both planned
  dispatch errors fired, and the SIGKILL ingredient took a worker down
  (the pool respawned >= 1); failed requests cascaded to the fallback
  (degraded responses > 0) while the primary kept receiving traffic;
* **open-circuit traffic is served by the fallback** — a corrupted
  artifact opens the breaker on the first load failure and every
  subsequent request is answered degraded with the primary skipped
  (``fallback_routes`` > 0, zero successful loads);
* **containment** — an injected refresh failure leaves the old model
  object and version serving; an already-expired deadline fails with
  ``DeadlineError`` before dispatch while a generous deadline
  reproduces the reference answer bitwise.

Run:  PYTHONPATH=src python benchmarks/bench_chaos_resilience.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

from repro.baselines.per_table import PerTableStatsEstimator
from repro.core.progressive import ProgressiveSampler
from repro.errors import DeadlineError, InjectedFaultError
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.relational.schema import JoinEdge, JoinSchema
from repro.relational.table import Table
from repro.serving import (
    EstimationService,
    FaultPlan,
    FaultSpec,
    ModelRegistry,
    ServingConfig,
    StreamingIngestor,
    faults,
)
from repro.serving.updates import BackgroundRefresher

# The tabular oracle lives with the tests (numpy-only, no pytest import);
# the CI smoke job runs from the repo root with only the package installed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.core.oracle import FixedBudget, OracleModel  # noqa: E402


def build_oracle_engine():
    """Two-table R |><| C oracle engine + schema (same shape as bench_http_api)."""
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
    engine = ProgressiveSampler(oracle, oracle.layout, oracle.full_join_size)
    return schema, engine


QUERIES = [
    Query.make(["R"], [Predicate("R", "year", ">=", 1994)]),
    Query.make(["R", "C"], [Predicate("C", "kind", "IN", (0, 2, 4))]),
    Query.make(["R", "C"], [Predicate("R", "year", "<", 1993)]),
    Query.make(["C"], [Predicate("C", "kind", "=", 1)]),
    Query.make(["R", "C"], []),
]


def make_requests(n: int):
    """``n`` (query, seed) pairs; unique seeds pin every answer bitwise."""
    return [(QUERIES[i % len(QUERIES)], 1000 + i) for i in range(n)]


def make_storm_plan(seed: int) -> FaultPlan:
    """The storm: flush failures + dispatch errors + per-slot worker SIGKILL.

    ``at``-specs make the dispatch and crash ingredients certain (their
    hit counts are guaranteed by the request volume) while the flush
    failures draw from the plan's seeded per-site stream.
    """
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec("scheduler.flush", probability=0.25),
            FaultSpec("worker.dispatch", at=(1, 3)),
            FaultSpec("worker.crash", at=(15,), kind="crash"),
        ),
    )


def serving_config(args, *, breaker_failures=2, breaker_cooldown_s=0.05):
    return ServingConfig(
        max_batch=16,
        max_wait_us=1000,
        workers=args.workers,
        min_shard=4,
        breaker_failures=breaker_failures,
        breaker_cooldown_s=breaker_cooldown_s,
    )


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------
def check_schedule_determinism(seed: int) -> bool:
    plan = make_storm_plan(seed)
    first = plan.schedule("scheduler.flush", 500)
    replayed = plan.schedule("scheduler.flush", 500)
    fresh = make_storm_plan(seed).schedule("scheduler.flush", 500)
    other = make_storm_plan(seed + 1).schedule("scheduler.flush", 500)
    return first == replayed == fresh and first != other and len(first) > 10


def run_reference(args, engine, requests):
    """No-fault run, same config as the storm: the bitwise reference."""
    with EstimationService(config=serving_config(args)) as service:
        service.register("oracle", engine)
        return [
            service.submit(q, seed=s).result(timeout=120) for q, s in requests
        ]


def run_storm(args, schema, engine, requests):
    # The breaker is effectively count-only here (failures far above the
    # workload size): every injected failure cascades per-request to the
    # fallback while the *primary keeps receiving traffic*, so the crash
    # and flush sites keep firing all storm long. Open-circuit routing is
    # gated separately (check_corruption_containment), where the breaker
    # deterministically opens.
    plan = make_storm_plan(args.seed)
    service = EstimationService(config=serving_config(args, breaker_failures=10_000))
    service.register("oracle", engine)
    service.register_fallback("oracle", PerTableStatsEstimator(schema))

    results: dict = {}
    degraded: dict = {}
    errors: dict = {}
    stranded = 0
    latencies = []
    lock = threading.Lock()
    next_idx = [0]

    def worker():
        nonlocal stranded
        while True:
            with lock:
                if next_idx[0] >= len(requests):
                    return
                i = next_idx[0]
                next_idx[0] += 1
            query, seed = requests[i]
            t0 = time.perf_counter()
            try:
                future = service.submit(query, seed=seed)
                value = future.result(timeout=120)
            except TimeoutError:
                with lock:
                    stranded += 1
                continue
            except Exception as exc:  # typed infra error: terminated, unanswered
                with lock:
                    errors[i] = type(exc).__name__
                continue
            elapsed = time.perf_counter() - t0
            with lock:
                results[i] = value
                degraded[i] = bool(getattr(future, "degraded", False))
                latencies.append(elapsed)

    with faults.injected(plan) as injector:
        # Warm inside the injected block: the pool ships the plan to every
        # spawned worker with the model payload, so the storm must be
        # installed before the first publish.
        service.estimate(requests[0][0], seed=999_983)
        threads = [threading.Thread(target=worker) for _ in range(args.clients)]
        t0 = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - t0
        fault_stats = injector.stats()

    stats = service.stats()
    service.close()

    resilience = stats["resilience"]["oracle"]
    pool = stats.get("pools", {}).get("oracle", {})
    return {
        "results": results,
        "degraded": degraded,
        "errors": errors,
        "stranded": stranded,
        "latencies": latencies,
        "wall_s": wall,
        "faults_fired": {
            site: int(s["fires"]) for site, s in fault_stats.items()
        },
        "resilience": resilience,
        "respawns": int(pool.get("respawns", 0)),
    }


def check_refresh_containment(schema, engine, seed: int) -> bool:
    """An injected refresh failure parks; the old model object keeps serving."""
    registry = ModelRegistry()
    registry.register("live", engine)
    before = registry.version("live")
    ingestor = StreamingIngestor(schema)
    refresher = BackgroundRefresher(registry, "live", ingestor)
    plan = FaultPlan(seed=seed, specs=(FaultSpec("refresher.train", at=(0,)),))
    with faults.injected(plan):
        event = refresher.refresh_now("fast")
    return (
        not event.ok
        and isinstance(event.error, InjectedFaultError)
        and registry.get("live") is engine
        and registry.version("live") == before
    )


def check_corruption_containment(args, schema):
    """A corrupted artifact degrades (open breaker + fallback), never poisons.

    Returns ``(contained, resilience_stats)`` — this is also the bench's
    deterministic open-circuit proof: the first request's load failure
    opens the breaker (``breaker_failures=1``) and every subsequent
    request is served by the per-table fallback with the primary skipped.
    """
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "broken.npz"
        path.write_bytes(b"this is not an npz artifact")
        service = EstimationService(
            config=serving_config(args, breaker_failures=1, breaker_cooldown_s=60.0)
        )
        try:
            service.register_path("broken", path, schema)
            service.register_fallback("broken", PerTableStatsEstimator(schema))
            futures = [
                service.submit(q, seed=50 + i, model="broken")
                for i, q in enumerate(QUERIES)
            ]
            answers = [f.result(timeout=120) for f in futures]
            stats = service.stats()
        finally:
            service.close()
    resilience = stats["resilience"]["broken"]
    contained = (
        all(np.isfinite(a) for a in answers)
        and all(getattr(f, "degraded", False) for f in futures)
        and resilience["state"] == 2.0  # open
        and resilience["fallback_routes"] >= 1
        and stats["registry"]["loads"] == 0  # the broken artifact never loaded
    )
    return contained, resilience


def check_deadline_probe(args, engine, reference) -> bool:
    """Expired deadlines fail typed before dispatch; generous ones are bitwise."""
    config = ServingConfig(max_batch=16, max_wait_us=1000)
    with EstimationService(config=config) as service:
        service.register("oracle", engine)
        query, seed = QUERIES[0], 1000  # request 0 of the reference workload
        expired = service.submit(query, seed=seed, deadline=time.monotonic())
        try:
            expired.result(timeout=120)
            typed = False
        except DeadlineError:
            typed = True
        except Exception:
            typed = False
        generous = service.submit(
            query, seed=seed, deadline=time.monotonic() + 60.0
        ).result(timeout=120)
        expired_count = service.stats()["models"]["oracle"]["deadline_expired"]
    return typed and expired_count >= 1 and generous == reference[0]


# ----------------------------------------------------------------------
def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_chaos_resilience.json")
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--requests", type=int, default=240)
    parser.add_argument("--n-samples", type=int, default=200)
    parser.add_argument(
        "--workers", type=int, default=2,
        help="worker processes for the storm (the SIGKILL ingredient "
        "needs >= 1; 0 skips the crash/respawn gate and fails --check)",
    )
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--no-check", action="store_true",
        help="report without enforcing the acceptance properties",
    )
    args = parser.parse_args()

    schema, engine = build_oracle_engine()
    engine = FixedBudget(engine, args.n_samples)  # served at the bench's budget
    requests = make_requests(args.requests)

    schedule_deterministic = check_schedule_determinism(args.seed)
    print("reference run (no faults)...")
    reference = run_reference(args, engine, requests)
    print(f"fault storm: {args.requests} requests, {args.clients} clients, "
          f"{args.workers} workers...")
    storm = run_storm(args, schema, engine, requests)

    n = len(requests)
    answered = len(storm["results"])
    answered_ratio = answered / n
    n_degraded = sum(1 for d in storm["degraded"].values() if d)
    mismatches = [
        i for i, value in storm["results"].items()
        if not storm["degraded"][i] and value != reference[i]
    ]
    bitwise_match = not mismatches
    no_stranded = storm["stranded"] == 0
    worker_crash_respawned = args.workers > 0 and storm["respawns"] >= 1
    flush_fired = storm["faults_fired"].get("scheduler.flush", 0) >= 1

    refresh_contained = check_refresh_containment(schema, engine, args.seed)
    corruption_contained, open_resilience = check_corruption_containment(
        args, schema
    )
    fallback_served_open_circuit = (
        open_resilience["opens"] >= 1
        and open_resilience["fallback_routes"] >= 1
        and open_resilience["degraded_responses"] >= 1
    )
    deadline_ok = check_deadline_probe(args, engine, reference)

    latencies = sorted(storm["latencies"])
    p95_ms = (
        latencies[max(0, int(len(latencies) * 0.95) - 1)] * 1000.0
        if latencies else float("nan")
    )
    qps = n / storm["wall_s"]

    report = {
        "bench": "chaos_resilience",
        "python": platform.python_version(),
        "requests": n,
        "clients": args.clients,
        "workers": args.workers,
        "storm_seed": args.seed,
        "faults_fired": storm["faults_fired"],
        "pool_respawns": storm["respawns"],
        "breaker_opens": int(open_resilience["opens"]),
        "open_circuit_fallback_routes": int(open_resilience["fallback_routes"]),
        "degraded_responses": n_degraded,
        "typed_errors": len(storm["errors"]),
        "answered_ratio": round(answered_ratio, 4),
        "qps": round(qps, 1),
        "p95_ms": round(p95_ms, 2),
        "schedule_deterministic": int(schedule_deterministic),
        "no_stranded_futures": int(no_stranded),
        "bitwise_match": int(bitwise_match),
        "fallback_served_open_circuit": int(fallback_served_open_circuit),
        "worker_crash_respawned": int(worker_crash_respawned),
        "refresh_failure_contained": int(refresh_contained),
        "artifact_corruption_contained": int(corruption_contained),
        "deadline_probe_ok": int(deadline_ok),
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(json.dumps(report, indent=2))

    if args.no_check:
        return
    failures = []
    if answered_ratio < 0.99:
        failures.append(
            f"answered ratio {answered_ratio:.4f} < 0.99 "
            f"(typed errors: {storm['errors']})"
        )
    if not no_stranded:
        failures.append(f"{storm['stranded']} futures timed out (stranded)")
    if not bitwise_match:
        failures.append(
            f"{len(mismatches)} non-degraded answers differ from the "
            f"no-fault reference (first: request {mismatches[0]})"
        )
    if not schedule_deterministic:
        failures.append("FaultPlan.schedule is not reproducible from the seed")
    if not fallback_served_open_circuit:
        failures.append(
            "breaker never opened or open-circuit traffic never reached "
            f"the fallback (resilience: {open_resilience})"
        )
    if not worker_crash_respawned:
        failures.append(
            f"worker SIGKILL ingredient missing: {args.workers} workers, "
            f"{storm['respawns']} respawns"
        )
    if not flush_fired:
        failures.append("scheduler.flush never fired during the storm")
    if n_degraded == 0:
        failures.append("storm fired but nothing cascaded to the fallback")
    if not refresh_contained:
        failures.append("injected refresh failure was not contained")
    if not corruption_contained:
        failures.append("corrupted artifact was not contained")
    if not deadline_ok:
        failures.append("deadline probe failed (typed 504-path or bitwise)")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    print(
        f"chaos OK: {answered_ratio:.4f} answered ({n_degraded} degraded, "
        f"{storm['respawns']} respawns, "
        f"{sum(storm['faults_fired'].values())} parent-side fires), "
        f"non-degraded bitwise-clean, refresh/corruption/deadline contained"
    )


if __name__ == "__main__":
    main()
