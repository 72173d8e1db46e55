"""Cascade routing benchmark: latency-budgeted tiers vs NeuroCard-only.

Serves the deterministic fp64 tabular oracle engine twice through the
full stack — once NeuroCard-only (every request micro-batched through
the scheduler) and once behind the estimator cascade
(:class:`repro.serving.cascade.EstimatorCascade`: per-table stats →
DeepDB-style SPN → neural) calibrated on a held-out workload from
:func:`repro.eval.calibration.calibration_workload`. The workload is
easy-heavy (80% single-table), which is exactly where the cascade's
contract pays: cheap tiers answer inline when their calibrated q-error
bound fits ``default_max_q_error``, so only the hard tail reaches the
scheduler. Reports and gates (``--no-check`` to report only):

* **p50 speedup** — closed-loop p50 latency of the cascade run is
  >= 3x better than the NeuroCard-only run on the same requests;
* **accuracy contract holds** — the cascade's p95 q-error is within
  10% of NeuroCard-only (cheap tiers only answer inside their
  calibrated bound, so routing must not cost accuracy);
* **cheap tiers stay honest** — p95 q-error over queries answered
  below the neural tier is <= 1.5 (per-tier accuracy gate);
* **bounded escalation** — at most 35% of the easy-heavy workload
  escalates to the neural tier;
* **escalated answers are bitwise clean** — every query the cascade
  escalates reproduces the NeuroCard-only run's fp64 answer exactly
  (same pinned per-request seeds, same scheduler path);
* **calibration persistence round-trips** — the calibration is saved
  with :meth:`CascadeCalibration.save` and re-loaded by
  ``EstimationService.enable_cascade`` via ``cascade.calibration_path``
  without loss.

Run:  PYTHONPATH=src python benchmarks/bench_cascade.py [--out PATH]
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
from repro.baselines.spn import DeepDBEstimator
from repro.eval.calibration import calibration_workload
from repro.eval.harness import true_cardinalities
from repro.relational.schema import JoinEdge, JoinSchema
from repro.relational.table import Table
from repro.serving import (
    CascadeConfig,
    EstimationService,
    EstimatorCascade,
    ServingConfig,
)

# The tabular oracle lives with the tests (numpy-only, no pytest import);
# the CI smoke job runs from the repo root with only the package installed.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from tests.core.oracle import FixedBudget, OracleModel  # noqa: E402


#: Columns the served oracle model leaves out; calibration never filters them.
EXCLUDED_COLUMNS = ("R.id", "C.rid")


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
    oracle = OracleModel(schema, factorization_bits=2, exclude=EXCLUDED_COLUMNS)
    from repro.core.progressive import ProgressiveSampler

    engine = ProgressiveSampler(oracle, oracle.layout, oracle.full_join_size)
    return schema, engine


def q_error(estimate: float, truth: float) -> float:
    estimate = max(float(estimate), 1.0)
    truth = max(float(truth), 1.0)
    return max(estimate / truth, truth / estimate)


def serving_config(args, cascade_cfg=None) -> ServingConfig:
    return ServingConfig(
        max_batch=16,
        max_wait_us=1000,
        cascade=cascade_cfg,
    )


def run_closed_loop(service, requests, clients):
    """Drain ``requests`` through ``clients`` threads; per-request latency."""
    results: dict = {}
    tiers: dict = {}
    latencies: dict = {}
    errors: dict = {}
    lock = threading.Lock()
    next_idx = [0]

    def worker():
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
            except Exception as exc:  # noqa: BLE001 - tallied, fails the gate
                with lock:
                    errors[i] = type(exc).__name__
                continue
            elapsed = time.perf_counter() - t0
            with lock:
                results[i] = value
                tiers[i] = getattr(future, "tier", None)
                latencies[i] = elapsed
    threads = [threading.Thread(target=worker) for _ in range(clients)]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return {
        "results": results,
        "tiers": tiers,
        "latencies": latencies,
        "errors": errors,
        "wall_s": wall,
    }


def percentile_ms(latencies, q: float) -> float:
    if not latencies:
        return float("nan")
    return float(np.percentile(np.array(sorted(latencies)), q) * 1000.0)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_cascade.json")
    parser.add_argument("--clients", type=int, default=6)
    parser.add_argument("--requests", type=int, default=200)
    parser.add_argument("--n-samples", type=int, default=200)
    parser.add_argument("--calibration-queries", type=int, default=160)
    parser.add_argument(
        "--no-check", action="store_true",
        help="report without enforcing the acceptance gates",
    )
    args = parser.parse_args()

    schema, engine = build_oracle_engine()

    print(f"calibration: {args.calibration_queries} held-out queries...")
    calib_queries = calibration_workload(
        schema, n_queries=args.calibration_queries, easy_fraction=0.5, seed=21,
        exclude_columns=EXCLUDED_COLUMNS,
    )
    calib_truths = true_cardinalities(schema, calib_queries)

    # Serving traffic is disjoint from calibration (different seed) and
    # easy-heavy: 80% single-table, the shape cheap tiers should win.
    serve_queries = calibration_workload(
        schema, n_queries=args.requests, easy_fraction=0.8, seed=22,
        exclude_columns=EXCLUDED_COLUMNS,
    )
    serve_truths = true_cardinalities(schema, serve_queries)
    requests = [(q, 1000 + i) for i, q in enumerate(serve_queries)]

    # Tier estimators are built once and shared by the offline calibration
    # and the serving run (the per-table tier is training-free; DeepDB
    # fits its SPN-style approximation from join samples).
    per_table = PerTableStatsEstimator(schema)
    deepdb = DeepDBEstimator(schema)

    offline = EstimatorCascade(schema, default_max_q_error=1.2)
    offline.register("per_table", per_table)
    offline.register("deepdb", deepdb)
    offline.register("neural", engine, neural=True)
    calibration = offline.calibrate(calib_queries, calib_truths)

    with tempfile.TemporaryDirectory() as tmp:
        calib_path = Path(tmp) / "cascade_calibration.json"
        calibration.save(calib_path)

        cascade_cfg = CascadeConfig(
            tiers=("per_table", "deepdb", "neural"),
            calibration_path=str(calib_path),
            default_max_q_error=1.2,
        )

        print(f"NeuroCard-only run: {args.requests} requests, "
              f"{args.clients} clients...")
        with EstimationService(config=serving_config(args)) as service:
            service.register("oracle", FixedBudget(engine, args.n_samples))
            service.estimate(requests[0][0], seed=999_983)  # warm the scheduler
            reference = run_closed_loop(service, requests, args.clients)

        print("cascade run (per_table -> deepdb -> neural)...")
        with EstimationService(
            config=serving_config(args, cascade_cfg)
        ) as service:
            service.register("oracle", FixedBudget(engine, args.n_samples))
            cascade = service.enable_cascade(
                estimators={"per_table": per_table, "deepdb": deepdb}
            )
            roundtrip_ok = (
                cascade.calibration is not None
                and cascade.calibration.to_dict() == calibration.to_dict()
            )
            service.estimate(requests[0][0], seed=999_983)  # warm the scheduler
            routed = run_closed_loop(service, requests, args.clients)
            cascade_stats = cascade.stats()

    n = len(requests)
    all_answered = (
        not reference["errors"] and not routed["errors"]
        and len(reference["results"]) == n and len(routed["results"]) == n
    )

    p50_neural_ms = percentile_ms(list(reference["latencies"].values()), 50.0)
    p50_cascade_ms = percentile_ms(list(routed["latencies"].values()), 50.0)
    p50_speedup = p50_neural_ms / p50_cascade_ms if p50_cascade_ms else float("inf")

    qerr_neural = [
        q_error(reference["results"][i], serve_truths[i])
        for i in sorted(reference["results"])
    ]
    qerr_cascade = [
        q_error(routed["results"][i], serve_truths[i])
        for i in sorted(routed["results"])
    ]
    p95_qerror_neural = float(np.percentile(qerr_neural, 95.0))
    p95_qerror_cascade = float(np.percentile(qerr_cascade, 95.0))
    p95_qerror_ratio = p95_qerror_cascade / p95_qerror_neural

    # The warm-up estimate() is routed too, so normalize counts over the
    # measured requests only (tiers recorded per request index).
    tier_counts: dict = {}
    for tier in routed["tiers"].values():
        tier_counts[tier or "neural"] = tier_counts.get(tier or "neural", 0) + 1
    escalated = [i for i, t in routed["tiers"].items() if t == "neural"]
    escalation_rate = len(escalated) / n
    cheap_qerrs = [
        q_error(routed["results"][i], serve_truths[i])
        for i, t in routed["tiers"].items()
        if t is not None and t != "neural"
    ]
    cheap_tier_p95_qerror = (
        float(np.percentile(cheap_qerrs, 95.0)) if cheap_qerrs else 1.0
    )
    escalated_bitwise_match = all(
        routed["results"][i] == reference["results"][i] for i in escalated
    )
    qps = n / routed["wall_s"]

    report = {
        "bench": "cascade",
        "python": platform.python_version(),
        "requests": n,
        "clients": args.clients,
        "n_samples": args.n_samples,
        "calibration_queries": args.calibration_queries,
        "p50_neural_ms": round(p50_neural_ms, 3),
        "p50_cascade_ms": round(p50_cascade_ms, 3),
        "p50_speedup": round(p50_speedup, 2),
        "p95_qerror_neural": round(p95_qerror_neural, 4),
        "p95_qerror_cascade": round(p95_qerror_cascade, 4),
        "p95_qerror_ratio": round(p95_qerror_ratio, 4),
        "cheap_tier_p95_qerror": round(cheap_tier_p95_qerror, 4),
        "escalation_rate": round(escalation_rate, 4),
        "tier_counts": tier_counts,
        "escalated_bitwise_match": int(escalated_bitwise_match),
        "calibration_roundtrip_ok": int(bool(roundtrip_ok)),
        "all_answered": int(all_answered),
        "qps": round(qps, 1),
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
        f.write("\n")
    print(json.dumps(report, indent=2))

    if args.no_check:
        return
    failures = []
    if not all_answered:
        failures.append(
            f"unanswered requests (reference errors: {reference['errors']}, "
            f"cascade errors: {routed['errors']})"
        )
    if p50_speedup < 3.0:
        failures.append(
            f"p50 speedup {p50_speedup:.2f}x < 3x "
            f"({p50_neural_ms:.3f}ms -> {p50_cascade_ms:.3f}ms)"
        )
    if p95_qerror_ratio > 1.10:
        failures.append(
            f"cascade p95 q-error {p95_qerror_cascade:.4f} is more than 10% "
            f"worse than NeuroCard-only {p95_qerror_neural:.4f}"
        )
    if cheap_tier_p95_qerror > 1.5:
        failures.append(
            f"cheap-tier p95 q-error {cheap_tier_p95_qerror:.4f} > 1.5"
        )
    if escalation_rate > 0.35:
        failures.append(
            f"escalation rate {escalation_rate:.4f} > 0.35 on an "
            f"easy-heavy workload (tiers: {tier_counts})"
        )
    if not escalated_bitwise_match:
        failures.append(
            "escalated answers differ from the NeuroCard-only reference"
        )
    if not roundtrip_ok:
        failures.append("calibration save/load round-trip lost data")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        sys.exit(1)
    print(
        f"cascade OK: p50 {p50_neural_ms:.2f}ms -> {p50_cascade_ms:.2f}ms "
        f"({p50_speedup:.1f}x), p95 q-error ratio {p95_qerror_ratio:.3f}, "
        f"escalation {escalation_rate:.2%}, tiers {tier_counts}, "
        f"stats {cascade_stats['escalations']}/{cascade_stats['routed']} escalated"
    )


if __name__ == "__main__":
    main()
