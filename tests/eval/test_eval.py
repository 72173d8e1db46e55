"""Metrics, harness, figures, and the update pipeline."""

import numpy as np
import pytest

from repro.core.config import NeuroCardConfig
from repro.core.estimator import NeuroCard
from repro.errors import DataError, EstimationError
from repro.eval.calibration import calibration_workload
from repro.eval.figures import ascii_cdf, cdf_series, selectivity_spectrum
from repro.eval.harness import (
    evaluate_estimator,
    format_report,
    true_cardinalities,
)
from repro.eval.metrics import q_error, summarize_errors
from repro.eval.updates import partition_by_year, run_update_experiment
from repro.joins.counts import JoinCounts
from repro.joins.executor import query_cardinality
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.workloads import job_light_queries, job_light_schema
from repro.workloads.imdb import DEFAULT_EXCLUDED_COLUMNS, ImdbScale


class TestQError:
    def test_symmetric(self):
        assert q_error(10, 100) == q_error(100, 10) == 10.0

    def test_clamped_at_one(self):
        assert q_error(0.0, 0.0) == 1.0
        assert q_error(0.5, 0.2) == 1.0

    def test_minimum_is_one(self):
        assert q_error(42, 42) == 1.0

    def test_summary_quantiles(self):
        errors = [1.0] * 98 + [10.0, 100.0]
        s = summarize_errors(errors)
        assert s.median == 1.0
        assert s.maximum == 100.0
        assert s.p99 >= 10.0

    def test_empty_errors_rejected(self):
        with pytest.raises(EstimationError):
            summarize_errors([])


class _TruthOracle:
    """Estimator wrapper returning exact answers (harness plumbing test)."""

    size_bytes = 123

    def __init__(self, schema, counts):
        self.schema, self.counts = schema, counts

    def estimate(self, query):
        return query_cardinality(self.schema, query, counts=self.counts)


@pytest.fixture(scope="module")
def small():
    schema = job_light_schema(ImdbScale(n_title=300))
    return schema, JoinCounts(schema)


class TestHarness:
    def test_oracle_estimator_scores_one(self, small):
        schema, counts = small
        queries = job_light_queries(schema, n=10, counts=counts)
        truths = true_cardinalities(schema, queries, counts)
        res = evaluate_estimator("oracle", _TruthOracle(schema, counts), queries, truths)
        assert res.summary().maximum == 1.0
        assert res.size_bytes == 123
        assert len(res.latencies_ms) == 10

    def test_format_report_includes_paper_rows(self, small):
        schema, counts = small
        queries = job_light_queries(schema, n=5, counts=counts)
        truths = true_cardinalities(schema, queries, counts)
        res = evaluate_estimator("oracle", _TruthOracle(schema, counts), queries, truths)
        text = format_report("T", [res], paper_rows={"oracle": "1 1 1 1"})
        assert "oracle" in text
        assert "(paper)" in text


class TestCalibrationWorkload:
    def test_excluded_columns_are_never_filtered(self, small):
        """A workload drawn with the served model's exclusions names none of
        them, so the neural tier answers every query; without them it would
        filter on columns that tier rejects."""
        schema, counts = small
        excluded = set(DEFAULT_EXCLUDED_COLUMNS)

        def named(queries):
            return {f"{p.table}.{p.column}" for q in queries for p in q.predicates}

        unfiltered = calibration_workload(schema, n_queries=60, seed=4, counts=counts)
        assert named(unfiltered) & excluded
        queries = calibration_workload(
            schema, n_queries=60, seed=4, counts=counts,
            exclude_columns=DEFAULT_EXCLUDED_COLUMNS,
        )
        assert len(queries) == 60 and not named(queries) & excluded

        config = NeuroCardConfig(
            d_emb=8, d_ff=32, n_blocks=1, train_tuples=2_000, batch_size=256,
            progressive_samples=16, sampler_threads=1,
            exclude_columns=DEFAULT_EXCLUDED_COLUMNS,
        )
        model = NeuroCard(schema, config).fit()
        estimates = model.estimate_batch(
            queries, rngs=[np.random.default_rng(i) for i in range(len(queries))]
        )
        assert np.all(np.isfinite(estimates)) and np.all(np.asarray(estimates) >= 0)


class TestFigures:
    def test_selectivity_spectrum_in_unit_interval(self, small):
        schema, counts = small
        queries = job_light_queries(schema, n=8, counts=counts)
        sels = selectivity_spectrum(schema, queries, counts)
        assert ((sels > 0) & (sels <= 1.0)).all()

    def test_cdf_series_monotone(self):
        series = cdf_series([5, 1, 3, 2, 4], n_points=5)
        values = [series[k] for k in sorted(series)]
        assert values == sorted(values)

    def test_ascii_cdf_renders(self):
        text = ascii_cdf({"a": [1e-4, 1e-2, 1.0]}, "title")
        assert "title" in text and "a" in text and "[" in text


class TestUpdatePipeline:
    def test_partitions_are_cumulative(self, small):
        schema, _ = small
        snapshots = partition_by_year(schema, n_partitions=3)
        sizes = [s.table("title").n_rows for s in snapshots]
        assert sizes == sorted(sizes)
        assert sizes[-1] == schema.table("title").n_rows
        child_sizes = [s.table("cast_info").n_rows for s in snapshots]
        assert child_sizes == sorted(child_sizes)

    def test_partitions_share_dictionaries(self, small):
        schema, _ = small
        snapshots = partition_by_year(schema, n_partitions=3)
        for snap in snapshots:
            for tname, table in snap.tables.items():
                for cname, col in table.columns.items():
                    assert (
                        col.domain_size
                        == schema.table(tname).column(cname).domain_size
                    )

    def test_rejects_single_partition(self, small):
        schema, _ = small
        with pytest.raises(DataError):
            partition_by_year(schema, n_partitions=1)

    def test_update_experiment_shapes(self, small):
        schema, counts = small
        snapshots = partition_by_year(schema, n_partitions=2)
        queries = job_light_queries(schema, n=6, counts=counts)[:4]
        config = NeuroCardConfig(
            d_emb=8, d_ff=32, n_blocks=1, train_tuples=20_000,
            learning_rate=5e-3, progressive_samples=200, sampler_threads=1,
            exclude_columns=DEFAULT_EXCLUDED_COLUMNS,
        )
        exp = run_update_experiment(snapshots, queries, config)
        assert len(exp.row("stale")) == 2
        assert len(exp.row("fast update")) == 2
        assert len(exp.row("retrain")) == 2
        text = exp.format()
        assert "stale" in text and "retrain" in text
