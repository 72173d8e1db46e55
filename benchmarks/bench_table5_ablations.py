"""Table 5: ablation studies on JOB-light-ranges.

Paper (p50 / p99):
    Base (unbiased sampler, 14 bits, 128;16, all tables in one AR): 1.9 / 375
    (A) biased sampler:            33  / 1e4
    (B) 10 bits: 2.2 / 2811 ; 12 bits: 2.0 / 936 ; no factorization: 1.6 / 375
    (C) 128;64: 1.5 / 300 ; 1024;16: 1.7 / 497
    (D) one AR per table + independence: 40 / 7e6
    (E) no model, uniform join samples:  4.0 / 3e6

Shape assertions: the biased sampler (A) and per-table independence (D)
are the catastrophic ablations; fewer factorization bits trade accuracy for
space; the sampling-only estimator (E) has a reasonable median but a far
worse tail than any AR-model configuration.
"""

import numpy as np

from repro.baselines import BiasedJoinSampler, JoinSampleEstimator, PerTableAREstimator
from repro.core.estimator import NeuroCard
from repro.eval.harness import evaluate_estimator

from conftest import base_config, write_result


def fit_with_biased_sampler(schema, config):
    """NeuroCard trained on IBJS-style biased samples (ablation A)."""
    estimator = NeuroCard(schema, config)
    cfg = estimator.config
    import time

    from repro.core.encoding import Layout
    from repro.core.training import train_autoregressive
    from repro.joins.counts import JoinCounts
    from repro.joins.sampler import joined_column_specs
    from repro.nn.compiled import CompiledResMADE
    from repro.nn.optim import Adam

    start = time.perf_counter()
    estimator.counts = JoinCounts(schema)
    specs = joined_column_specs(schema, estimator.counts, exclude=cfg.exclude_columns)
    estimator.sampler = BiasedJoinSampler(schema, estimator.counts, specs=specs)
    estimator.layout = Layout(schema, estimator.counts, specs, cfg.factorization_bits)
    estimator.prepare_seconds = time.perf_counter() - start
    model = estimator.training_model()  # the seeded initialization
    rng = np.random.default_rng(cfg.seed)
    estimator.train_result = train_autoregressive(
        model, estimator.layout,
        lambda: estimator.sampler.sample_batch(cfg.batch_size, rng),
        cfg.train_tuples, cfg.batch_size, cfg.learning_rate,
        cfg.wildcard_skipping, cfg.seed,
        optimizer=Adam(model.parameters(), lr=cfg.learning_rate),
    )
    return estimator.serve(CompiledResMADE.fold(model))


def test_table5_ablations(light_env, neurocard_light, benchmark):
    schema, counts = light_env.schema, light_env.counts
    queries = light_env.queries["ranges"]
    truths = light_env.truths["ranges"]
    train_budget = 400_000

    def run():
        rows = {}

        def record(label, estimator):
            res = evaluate_estimator(label, estimator, queries, truths)
            rows[label] = (res.summary(), res.size_bytes)

        record("Base", neurocard_light)
        record(
            "(A) biased sampler",
            fit_with_biased_sampler(schema, base_config(train_tuples=train_budget)),
        )
        record(
            "(B) fact bits=6",
            NeuroCard(schema, base_config(
                factorization_bits=6, train_tuples=train_budget, seed=2,
            )).fit(),
        )
        record(
            "(B) no factorization",
            NeuroCard(schema, base_config(
                factorization_bits=None, train_tuples=train_budget, seed=3,
            )).fit(),
        )
        record(
            "(C) demb=48",
            NeuroCard(schema, base_config(d_emb=48, train_tuples=train_budget, seed=4)).fit(),
        )
        record(
            "(C) dff=512",
            NeuroCard(schema, base_config(d_ff=512, train_tuples=train_budget, seed=5)).fit(),
        )
        record(
            "(D) per-table AR",
            PerTableAREstimator(
                schema,
                base_config(train_tuples=train_budget, progressive_samples=128),
                counts,
            ),
        )
        record(
            "(E) join samples only",
            JoinSampleEstimator(schema, counts, n_samples=1000, seed=6),
        )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    header = f"{'Configuration':<24} {'Size':>9} {'p50':>7} {'p99':>10}"
    lines = [
        "Table 5: ablations on JOB-light-ranges (paper p50/p99: Base 1.9/375, "
        "A 33/1e4, D 40/7e6, E 4.0/3e6)",
        header,
        "-" * len(header),
    ]
    for label, (summary, size) in rows.items():
        size_label = f"{size / 2**20:.1f}MB" if size else "-"
        lines.append(
            f"{label:<24} {size_label:>9} {summary.median:>7.2f} {summary.p99:>10.1f}"
        )
    write_result("table5_ablations", "\n".join(lines))

    base = rows["Base"][0]
    # (A) the biased sampler causes a systematic median shift.
    assert rows["(A) biased sampler"][0].median > base.median * 1.5
    # (D) per-table independence is the worst configuration at the tail.
    assert rows["(D) per-table AR"][0].p99 > base.p99
    # (E) sampling-only: fine median, much worse tail than Base.
    assert rows["(E) join samples only"][0].p99 > base.p99
    # (B) fewer bits never helps the tail; disabling factorization costs space.
    assert rows["(B) no factorization"][1] >= rows["(B) fact bits=6"][1]
