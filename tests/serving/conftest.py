"""Shared serving-layer fixtures: one tiny trained estimator + an oracle engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.estimator import NeuroCard
from repro.core.progressive import ProgressiveSampler
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from tests.core.oracle import OracleModel
from tests.core.test_estimator import correlated_schema, small_config


@pytest.fixture(scope="session")
def tiny_trained():
    """A quickly trained real estimator (shared; treat as read-only)."""
    schema = correlated_schema(n_root=80)
    config = small_config(
        train_tuples=8_000, sampler_threads=1, progressive_samples=64
    )
    return schema, NeuroCard(schema, config).fit()


@pytest.fixture(scope="session")
def oracle_engine():
    """Deterministic tabular-oracle inference engine (bitwise-stable)."""
    schema = correlated_schema(n_root=12, seed=4)
    oracle = OracleModel(
        schema, factorization_bits=2, exclude=("R.id", "C1.rid", "C2.rid")
    )
    return ProgressiveSampler(oracle, oracle.layout, oracle.full_join_size)


@pytest.fixture()
def workload():
    return [
        Query.make(["R"], [Predicate("R", "year", ">=", 1995)]),
        Query.make(["R", "C1"], [Predicate("C1", "kind", "=", 1)]),
        Query.make(["R", "C2"], [Predicate("C2", "score", "<=", 10)]),
        Query.make(["R", "C1", "C2"], [Predicate("R", "year", "<", 1996)]),
        Query.make(["C1"], []),
    ]


class FakeModel:
    """Duck-typed model: constant answer, call counting, optional failure.

    ``tag`` doubles as the returned estimate and a torn-read probe: both
    halves of :meth:`estimate_batch`'s output derive from one attribute
    read, so results are always internally consistent per model object.
    """

    def __init__(self, tag: float, delay: float = 0.0, fail: bool = False):
        self.tag = tag
        self.delay = delay
        self.fail = fail
        self.calls = 0
        self.batch_sizes = []
        self.is_fitted = True

    @property
    def size_bytes(self) -> int:
        return 1000

    def estimate_batch(self, queries, rngs=None):
        self.calls += 1
        self.batch_sizes.append(len(queries))
        if self.delay:
            import time

            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError(f"model {self.tag} exploded")
        return np.full(len(queries), float(self.tag))
