"""End-to-end NeuroCard: train on a correlated schema, check accuracy & API."""

import numpy as np
import pytest

from repro.core.config import NeuroCardConfig
from repro.core.estimator import NeuroCard
from repro.errors import EstimationError, SchemaError, TrainingError
from repro.eval.metrics import q_error
from repro.joins.executor import query_cardinality
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.relational.schema import JoinEdge, JoinSchema
from repro.relational.table import Table


def correlated_schema(n_root=300, seed=0):
    """Star schema with strong inter-table correlation.

    Child 'kind' deterministically tracks the root's 'year' bucket, so any
    estimator assuming inter-table independence fails badly here.
    """
    rng = np.random.default_rng(seed)
    years = rng.integers(1990, 2000, n_root)
    root = Table.from_dict(
        "R", {"id": list(range(n_root)), "year": [int(y) for y in years]}
    )
    rows = []
    for rid, year in enumerate(years):
        for _ in range(int(rng.integers(0, 4))):
            rows.append((rid, int(year >= 1995)))
    c1 = Table.from_dict(
        "C1", {"rid": [r[0] for r in rows], "kind": [r[1] for r in rows]}
    )
    c2_rids = rng.integers(0, n_root, n_root * 2)
    c2 = Table.from_dict(
        "C2",
        {
            "rid": [int(v) for v in c2_rids],
            "score": [int(v) for v in rng.integers(0, 20, n_root * 2)],
        },
    )
    return JoinSchema(
        tables={"R": root, "C1": c1, "C2": c2},
        edges=[
            JoinEdge("R", "C1", (("id", "rid"),)),
            JoinEdge("R", "C2", (("id", "rid"),)),
        ],
        root="R",
    )


def small_config(**overrides):
    base = dict(
        d_emb=8,
        d_ff=48,
        n_blocks=1,
        train_tuples=120_000,
        batch_size=512,
        learning_rate=5e-3,
        progressive_samples=400,
        sampler_threads=2,
        exclude_columns=("R.id", "C1.rid", "C2.rid"),
        seed=0,
    )
    base.update(overrides)
    return NeuroCardConfig(**base)


@pytest.fixture(scope="module")
def fitted():
    schema = correlated_schema()
    estimator = NeuroCard(schema, small_config()).fit()
    return schema, estimator


class TestEndToEnd:
    def test_training_loss_decreases(self, fitted):
        _, estimator = fitted
        losses = estimator.train_result.losses
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_accuracy_on_mixed_queries(self, fitted):
        schema, estimator = fitted
        queries = [
            Query.make(["R"], [Predicate("R", "year", ">=", 1995)]),
            Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)]),
            Query.make(["R", "C2"], [Predicate("C2", "score", "<", 10)]),
            Query.make(
                ["R", "C1", "C2"],
                [Predicate("R", "year", "<", 1995), Predicate("C1", "kind", "=", 0)],
            ),
            Query.make(["C1"], []),
            Query.make(
                ["R", "C1"],
                [Predicate("R", "year", "IN", (1991, 1996)), Predicate("C1", "kind", "=", 1)],
            ),
        ]
        errors = []
        rng = np.random.default_rng(123)
        for query in queries:
            truth = query_cardinality(schema, query, counts=estimator.counts)
            est = estimator.estimate(query, rng=rng)
            errors.append(q_error(est, truth))
        # Trained briefly on a small model: demand decent but not heroic accuracy.
        assert np.median(errors) < 2.0
        assert max(errors) < 8.0

    def test_correlation_captured(self, fitted):
        """kind=1 never co-occurs with year<1995; the estimate must be tiny."""
        schema, estimator = fitted
        impossible = Query.make(
            ["R", "C1"],
            [Predicate("R", "year", "<", 1995), Predicate("C1", "kind", "=", 1)],
        )
        possible = Query.make(
            ["R", "C1"],
            [Predicate("R", "year", ">=", 1995), Predicate("C1", "kind", "=", 1)],
        )
        est_bad = estimator.estimate(impossible, rng=np.random.default_rng(5))
        est_good = estimator.estimate(possible, rng=np.random.default_rng(5))
        assert est_bad < 0.15 * est_good

    def test_size_accounting(self, fitted):
        """size_bytes = the served kernel table, the only weights held; it is
        smaller than the training form it was folded from."""
        _, estimator = fitted
        assert estimator.size_mb > 0
        table = estimator.compiled.export_state()
        assert estimator.size_bytes == sum(a.nbytes for a in table.values())
        estimator.estimate(Query.make(["R"]), rng=np.random.default_rng(0))
        assert estimator.size_bytes == sum(a.nbytes for a in table.values())
        assert estimator.size_bytes < estimator.training_model().size_bytes


class TestAPI:
    def test_estimate_before_fit_raises(self):
        schema = correlated_schema(n_root=20)
        estimator = NeuroCard(schema, small_config())
        with pytest.raises(EstimationError):
            estimator.estimate(Query.make(["R"]))

    def test_config_validation(self):
        with pytest.raises(TrainingError):
            NeuroCardConfig(progressive_samples=0).validate()
        with pytest.raises(TrainingError):
            NeuroCardConfig(factorization_bits=0).validate()

    def test_update_rejects_changed_domains(self, fitted):
        schema, estimator = fitted
        mutated = schema.replace_table(
            Table.from_dict("C2", {"rid": [0], "score": [999_999]})
        )
        with pytest.raises(SchemaError):
            estimator.update(mutated)

    def test_update_refreshes_counts_and_estimates(self, fitted):
        schema, estimator = fitted
        # Drop half of C2's rows (dictionaries shared via take()).
        c2 = schema.table("C2")
        half = c2.take(np.arange(c2.n_rows // 2))
        new_schema = schema.replace_table(half)
        old_size = estimator.full_join_size
        estimator.update(new_schema, train_tuples=2048)
        assert estimator.full_join_size != old_size
        query = Query.make(["R", "C2"])
        truth = query_cardinality(new_schema, query)
        est = estimator.estimate(query, rng=np.random.default_rng(11))
        assert q_error(est, truth) < 4.0
        # Restore original snapshot for other tests sharing the fixture.
        estimator.update(schema, train_tuples=2048)
