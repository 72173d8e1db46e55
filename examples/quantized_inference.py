"""Quantized inference: fp32 vs int16 vs int8 kernels on one workload.

Trains the fig. 7d smoke model (Base architecture on a scaled-down
JOB-light schema), then answers the same range workload with the compiled
fp32 engine and its int16/int8-quantized variants, printing a
latency / size / accuracy table: median batched latency, compiled-buffer
size, median q-error vs exact cardinalities, and per-query drift vs the
reference engine (``off``). The drift columns are what the accuracy ladder in
``docs/accuracy.md`` documents — int16 stays within 1e-3 relative, int8
within 5e-2.

Run:  python examples/quantized_inference.py
"""

import time

import numpy as np

from repro.core import NeuroCard, NeuroCardConfig
from repro.core.inference import (
    build_engine,
    compiled_model,
    measure_quantization_drift,
)
from repro.eval.harness import true_cardinalities
from repro.joins.counts import JoinCounts
from repro.workloads import job_light_ranges_queries, job_light_schema
from repro.workloads.imdb import DEFAULT_EXCLUDED_COLUMNS, ImdbScale

N_SAMPLES = 128


def median_latency_ms(engine, queries, rounds: int = 5) -> float:
    def run():
        engine.estimate_batch(
            queries, n_samples=N_SAMPLES, rng=np.random.default_rng(0)
        )

    run()  # warm plans and compiled kernels outside the timed rounds
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        run()
        times.append(time.perf_counter() - start)
    return float(np.median(times)) * 1e3


def main() -> None:
    schema = job_light_schema(ImdbScale(n_title=600))
    counts = JoinCounts(schema)
    config = NeuroCardConfig(
        d_emb=16, d_ff=128, n_blocks=2, factorization_bits=14,
        batch_size=512, train_tuples=60_000, learning_rate=5e-3,
        progressive_samples=N_SAMPLES, sampler_threads=1,
        exclude_columns=DEFAULT_EXCLUDED_COLUMNS, seed=0,
    )
    estimator = NeuroCard(schema, config).fit(compile=False)
    queries = job_light_ranges_queries(schema, n=64, counts=counts)
    truths = np.maximum(true_cardinalities(schema, queries, counts), 1.0)

    J = estimator.counts.full_join_size
    engines = {
        mode: build_engine(
            estimator.model, estimator.layout, J, "fp32", quantization=mode
        )
        for mode in ("off", "int16", "int8")
    }

    print(f"batch of {len(queries)} range queries, n_samples={N_SAMPLES}\n")
    header = (
        f"{'engine':<8} {'latency':>10} {'size':>9} {'q-err p50':>10} "
        f"{'drift p90':>10} {'drift max':>10}"
    )
    print(header)
    for mode, engine in engines.items():
        estimates = np.maximum(
            engine.estimate_batch(
                queries, n_samples=N_SAMPLES, rng=np.random.default_rng(0)
            ),
            1.0,
        )
        q_errors = np.maximum(estimates / truths, truths / estimates)
        latency = median_latency_ms(engine, queries)
        size_kb = compiled_model(engine).size_bytes / 1024
        if mode == "off":
            drift_p90 = drift_max = "-"
        else:
            drift = measure_quantization_drift(
                engine, queries, n_samples=N_SAMPLES, seed=7
            )
            drift_p90 = f"{np.quantile(drift, 0.9):.2e}"
            drift_max = f"{drift.max():.2e}"
        label = "fp32" if mode == "off" else mode
        print(
            f"{label:<8} {latency:>8.1f}ms {size_kb:>7.0f}kB "
            f"{np.median(q_errors):>10.2f} {drift_p90:>10} {drift_max:>10}"
        )
    print(
        "\ndrift = per-query relative deviation from the reference engine; CI "
        "gates the p90 (docs/accuracy.md ladder: int16 <= 1e-3, int8 <= "
        "5e-2), the max column shows this run's worst query."
    )


if __name__ == "__main__":
    main()
