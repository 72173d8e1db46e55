"""Figure 7d: per-query inference latency CDFs, plus batched serving.

Paper: MSCN is fastest (lightweight net); DeepDB spans ~1-100 ms depending
on query complexity; NeuroCard sits at a predictable ~17 ms median (more
FLOPs, but a fixed number of progressive-sampling forward passes).

Shape assertions: MSCN's median latency is the lowest; NeuroCard's latency
spread (p95/median) is tighter than DeepDB's relative spread or at least
bounded; all latencies are reported as CDFs. The batched engine adds an
amortized-latency series and a throughput comparison: packing ≥ 16 queries
through ``estimate_batch`` must be at least 1.8x the sequential loop's
queries/sec at equal ``n_samples`` (both paths ride the compiled fp32
kernels, which lifted the sequential baseline), and the compiled engine
must beat the reference batched path (``ProgressiveSampler`` built
directly over the trained model, the oracle) on top.

Standalone CI-smoke mode (no pytest, same small model as
``bench_compiled_inference.py``)::

    PYTHONPATH=src python benchmarks/bench_fig7d_latency.py --out PATH

measures the fig. 7d latency properties on the compiled fp32 engine —
per-query median + p95/median predictability spread and batched QPS —
and writes ``fig7d.*`` metrics for ``check_regression.py``; the
predictability spread is gated in-script.
"""

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from bench_timing import measure_serving_paths, median_of


def test_fig7d_inference_latency(
    light_env, neurocard_light, deepdb_light, mscn_light, benchmark
):
    from conftest import write_result
    from repro.eval.figures import ascii_cdf
    from repro.eval.harness import evaluate_estimator

    queries = light_env.queries["ranges"][:120]
    truths = light_env.truths["ranges"][:120]

    def run():
        return {
            "MSCN": evaluate_estimator("MSCN", mscn_light, queries, truths),
            "DeepDB": evaluate_estimator("DeepDB", deepdb_light, queries, truths),
            "NeuroCard": evaluate_estimator("NeuroCard", neurocard_light, queries, truths),
            "NeuroCard-batch": evaluate_estimator(
                "NeuroCard-batch", neurocard_light, queries, truths, batch_size=32
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    series = {name: res.latencies_ms for name, res in results.items()}
    text = ascii_cdf(series, "Figure 7d: inference latency CDFs (ms, log10)")
    med = {name: np.median(lat) for name, lat in series.items()}
    spread = {
        name: np.quantile(lat, 0.95) / max(np.median(lat), 1e-9)
        for name, lat in series.items()
    }
    text += "\n" + "\n".join(
        f"  {name:<16} median={med[name]:.2f}ms p95/median={spread[name]:.2f}"
        for name in series
    )
    write_result("fig7d_latency", text)

    # MSCN (one tiny forward pass) is the fastest at the median.
    assert med["MSCN"] <= med["NeuroCard"]
    assert med["MSCN"] <= med["DeepDB"]
    # NeuroCard's latencies are predictable (tight spread, paper's point).
    assert spread["NeuroCard"] < 6.0
    # Batched serving amortizes below the sequential per-query latency.
    assert med["NeuroCard-batch"] < med["NeuroCard"]


def test_fig7d_batched_throughput(light_env, neurocard_light, benchmark):
    """estimate_batch >= 1.8x the (compiled) sequential loop's queries/sec
    at >= 16 queries, and the compiled engine beats the reference batched
    path on top."""
    from conftest import RESULTS_DIR, write_result
    from repro.core.inference import build_engine
    from repro.core.progressive import ProgressiveSampler

    inference = neurocard_light.inference
    n_samples = 256
    batch_sizes = (16, 32)
    queries = light_env.queries["ranges"][: max(batch_sizes)]

    # Compiled-vs-reference batched engines over the same trained weights.
    model = neurocard_light.training_model()
    reference = ProgressiveSampler(
        model, neurocard_light.layout, neurocard_light.full_join_size,
    )
    compiled = build_engine(
        model, neurocard_light.layout, neurocard_light.full_join_size,
    )

    def run():
        rows = {
            size: measure_serving_paths(inference, queries[:size], n_samples)
            for size in batch_sizes
        }
        batch = queries[: max(batch_sizes)]
        ref_s = median_of(lambda: reference.estimate_batch(
            batch, n_samples=n_samples, rng=np.random.default_rng(0)))
        fast_s = median_of(lambda: compiled.estimate_batch(
            batch, n_samples=n_samples, rng=np.random.default_rng(0)))
        return rows, ref_s, fast_s

    rows, ref_s, fast_s = benchmark.pedantic(run, rounds=1, iterations=1)
    compiled_speedup = ref_s / fast_s
    text = "\n".join(
        [f"Figure 7d addendum: batched throughput (n_samples={n_samples})"]
        + [
            f"  batch={size:<3d} sequential {r['sequential_qps']:7.1f} q/s | "
            f"batched {r['batched_qps']:7.1f} q/s | speedup {r['speedup']:.2f}x"
            for size, r in rows.items()
        ]
        + [
            f"  compiled engine (batch={max(batch_sizes)}): reference "
            f"{ref_s * 1e3:7.1f} ms | compiled {fast_s * 1e3:7.1f} ms | "
            f"{compiled_speedup:.2f}x"
        ]
    )
    write_result("fig7d_batched_throughput", text)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, "BENCH_batched_throughput.json"), "w") as f:
        json.dump(
            {
                "n_samples": n_samples,
                "batches": rows,
                "compiled_speedup": round(compiled_speedup, 3),
            },
            f, indent=2,
        )

    for size, r in rows.items():
        # Re-based from 3x when the compiled kernels lifted the sequential
        # denominator (batch-of-1 now runs the same compiled fast path);
        # measured ~2.1x/~2.5x at batch 16/32 on a developer box.
        assert r["speedup"] >= 1.8, (
            f"batched path only {r['speedup']:.2f}x sequential at batch={size}"
        )
    # The hard >= 2x gate lives in bench_compiled_inference.py (batch 64);
    # at batch 32 the compiled engine must still clearly win.
    assert compiled_speedup >= 1.3, (
        f"compiled engine only {compiled_speedup:.2f}x the reference batched path"
    )


# ----------------------------------------------------------------------
# Standalone CI-smoke mode (pytest-free): fig7d.* metrics + latency gate.
# ----------------------------------------------------------------------

#: Paper's predictability claim: NeuroCard's per-query p95/median stays tight.
SPREAD_CEILING = 6.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="BENCH_fig7d_latency.json")
    parser.add_argument("--batch-size", type=int, default=64)
    parser.add_argument("--n-samples", type=int, default=128)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args()

    from repro.core import NeuroCard, NeuroCardConfig
    from repro.core.inference import build_engine
    from repro.joins.counts import JoinCounts
    from repro.workloads import job_light_ranges_queries, job_light_schema
    from repro.workloads.imdb import DEFAULT_EXCLUDED_COLUMNS, ImdbScale

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
    compiled = build_engine(estimator.training_model(), estimator.layout, J)

    # Per-query latencies (the paper's CDF view): one warm pass, then one
    # timed pass per round; per-query medians across rounds form the CDF.
    for query in queries:
        compiled.estimate(
            query, n_samples=args.n_samples, rng=np.random.default_rng(0)
        )
    per_query = np.empty((args.rounds, len(queries)))
    for r in range(args.rounds):
        for i, query in enumerate(queries):
            start = time.perf_counter()
            compiled.estimate(
                query, n_samples=args.n_samples, rng=np.random.default_rng(i)
            )
            per_query[r, i] = time.perf_counter() - start
    lat_ms = np.median(per_query, axis=0) * 1e3
    seq_p50_ms = float(np.median(lat_ms))
    spread = float(np.quantile(lat_ms, 0.95) / max(seq_p50_ms, 1e-9))

    def fixed_fn():
        compiled.estimate_batch(
            queries, n_samples=args.n_samples, rng=np.random.default_rng(0)
        )

    fixed_s = median_of(fixed_fn, rounds=args.rounds)
    batched_qps = len(queries) / fixed_s

    report = {
        "bench": "fig7d",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "train_seconds": round(train_seconds, 2),
        "n_queries": len(queries),
        "n_samples": args.n_samples,
        "rounds": args.rounds,
        "seq_p50_ms": round(seq_p50_ms, 3),
        "seq_p95_ms": round(float(np.quantile(lat_ms, 0.95)), 3),
        "spread_p95_over_p50": round(spread, 3),
        "latency_predictable": int(spread < SPREAD_CEILING),
        "batched_ms": round(fixed_s * 1e3, 2),
        "batched_qps": round(batched_qps, 2),
    }
    out_dir = os.path.dirname(args.out)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=2)
    print(json.dumps(report, indent=2))
    print(f"[saved to {args.out}]")

    if spread >= SPREAD_CEILING:
        sys.exit(
            f"fig7d latency gate FAILED: per-query p95/median spread "
            f"{spread:.2f} >= {SPREAD_CEILING:.1f} (latency no longer predictable)"
        )
    print(
        f"fig7d latency gate passed: median {seq_p50_ms:.2f}ms/query "
        f"(spread {spread:.2f}), batched {batched_qps:.0f} q/s."
    )


if __name__ == "__main__":
    main()
