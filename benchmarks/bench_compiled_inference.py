"""Compiled-inference benchmark + equivalence gate (CI job).

Trains a small NeuroCard at the paper's Base architecture (d_emb 16,
d_ff 128 — the fig. 7d configuration) on a scaled-down JOB-light schema
and compares the two engines over one batch of >= 64 range queries (both
run the same batched walk; only the conditional provider differs):

* reference — ``ProgressiveSampler`` built directly over the trained
  model's own forward, the correctness oracle;
* compiled  — the served engine (``build_engine``: per-column input
  slices, incremental fold session, prefix-sliced blocks, fused
  indicator runs, fp32 scratch): must keep estimates within 1e-4
  relative of the reference (median; p90 within 1e-3 guards stray Monte
  Carlo boundary flips) and deliver **>= 2x** the reference's median
  batched latency.

Reference and compiled rounds are interleaved so machine drift hits both
paths alike; one automatic re-measure absorbs a transient spike before the
speedup assertion fails the build. Writes ``BENCH_compiled_inference.json``
for ``check_regression.py`` and the bench-trajectory artifact.

Run:  PYTHONPATH=src python benchmarks/bench_compiled_inference.py [--out PATH]
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np

from repro.core import NeuroCard, NeuroCardConfig
from repro.core.inference import build_engine, compiled_model
from repro.core.progressive import ProgressiveSampler
from repro.joins.counts import JoinCounts
from repro.workloads import job_light_ranges_queries, job_light_schema
from repro.workloads.imdb import DEFAULT_EXCLUDED_COLUMNS, ImdbScale

SPEEDUP_FLOOR = 2.0
REL_MEDIAN_TOL = 1e-4
REL_P90_TOL = 1e-3


def measure_interleaved(ref_fn, fast_fn, rounds: int) -> tuple[float, float, float]:
    """Median latencies + median per-round speedup, rounds interleaved.

    Each round times the reference and the compiled path back to back, so
    machine drift hits both alike; the gated speedup is the median of the
    per-round ratios (pairing cancels drift that a ratio of medians keeps).
    """
    ref_fn(), fast_fn()  # warm plans, tries, compiled kernels
    ref_times, fast_times = [], []
    for _ in range(rounds):
        start = time.perf_counter()
        ref_fn()
        ref_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        fast_fn()
        fast_times.append(time.perf_counter() - start)
    ratios = np.array(ref_times) / np.array(fast_times)
    return (
        float(np.median(ref_times)),
        float(np.median(fast_times)),
        float(np.median(ratios)),
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_compiled_inference.json")
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--n-samples", type=int, default=128)
    parser.add_argument("--rounds", type=int, default=7)
    args = parser.parse_args()
    if args.batch_size < 64:
        sys.exit("the gate is defined at batch >= 64")

    schema = job_light_schema(ImdbScale(n_title=600))
    counts = JoinCounts(schema)
    config = NeuroCardConfig(
        d_emb=16, d_ff=128, n_blocks=2, factorization_bits=14,
        batch_size=512, train_tuples=60_000, learning_rate=5e-3,
        progressive_samples=args.n_samples, sampler_threads=1,
        exclude_columns=DEFAULT_EXCLUDED_COLUMNS, seed=0,
    )
    start = time.perf_counter()
    estimator = NeuroCard(schema, config).fit()
    train_seconds = time.perf_counter() - start
    queries = job_light_ranges_queries(schema, n=args.batch_size, counts=counts)

    J = estimator.counts.full_join_size
    model = estimator.training_model()
    reference = ProgressiveSampler(model, estimator.layout, J)
    compiled = build_engine(model, estimator.layout, J)

    def run(engine):
        return engine.estimate_batch(
            queries, n_samples=args.n_samples,
            rngs=[np.random.default_rng(1000 + i) for i in range(len(queries))],
        )

    # Equivalence: fp32 kernels within tolerance of the reference forward.
    est_ref, est_fp32 = run(reference), run(compiled)
    rel = np.abs(est_fp32 - est_ref) / np.maximum(np.abs(est_ref), 1e-12)
    rel_median, rel_p90 = float(np.median(rel)), float(np.quantile(rel, 0.9))
    fp32_within_tol = int(rel_median <= REL_MEDIAN_TOL and rel_p90 <= REL_P90_TOL)

    def ref_fn():
        reference.estimate_batch(
            queries, n_samples=args.n_samples, rng=np.random.default_rng(0)
        )

    def fast_fn():
        compiled.estimate_batch(
            queries, n_samples=args.n_samples, rng=np.random.default_rng(0)
        )

    ref_s, fast_s, speedup = measure_interleaved(ref_fn, fast_fn, args.rounds)
    for _ in range(2):  # re-measure absorbs transient load spikes
        if speedup >= SPEEDUP_FLOOR:
            break
        ref_s, fast_s, speedup = measure_interleaved(ref_fn, fast_fn, args.rounds)

    report = {
        "bench": "compiled_inference",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "train_seconds": round(train_seconds, 2),
        "n_queries": len(queries),
        "n_samples": args.n_samples,
        "rounds": args.rounds,
        "reference_ms": round(ref_s * 1e3, 2),
        "compiled_ms": round(fast_s * 1e3, 2),
        "speedup": round(speedup, 3),
        "compiled_qps": round(len(queries) / fast_s, 2),
        "fp32_within_tol": fp32_within_tol,
        "fp32_rel_median": rel_median,
        "fp32_rel_p90": rel_p90,
        "compiled_extra_kb": round(
            compiled_model(compiled).size_bytes / 1024, 1
        ),
    }
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
    print(json.dumps(report, indent=2))
    print(f"[saved to {args.out}]")

    failures = []
    if not fp32_within_tol:
        failures.append(
            f"fp32 drift median={rel_median:.2e} p90={rel_p90:.2e} "
            f"exceeds ({REL_MEDIAN_TOL:.0e}, {REL_P90_TOL:.0e})"
        )
    if speedup < SPEEDUP_FLOOR:
        failures.append(
            f"compiled speedup {speedup:.2f}x < {SPEEDUP_FLOOR:.1f}x "
            f"({ref_s * 1e3:.1f}ms -> {fast_s * 1e3:.1f}ms)"
        )
    if failures:
        sys.exit("compiled-inference gate FAILED: " + "; ".join(failures))
    print(
        f"compiled-inference gate passed: {speedup:.2f}x at batch "
        f"{len(queries)}, fp32 within tolerance."
    )


if __name__ == "__main__":
    main()
