"""One autoregressive model per table, joined via independence (Table 5, D).

Each table gets its own single-table NeuroCard (same architecture as the
Base configuration). A join query is estimated as
``|inner join of query graph| × Π_t (card_t / |T_t|)`` — i.e. exact join
sizes but *inter-table independence* between filters. Comparing this row
against the Base configuration isolates the value of learning cross-table
correlations in one model, which the paper finds is the single most
important design choice.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.config import NeuroCardConfig
from repro.core.estimator import NeuroCard
from repro.joins.counts import JoinCounts
from repro.joins.executor import inner_join_count
from repro.relational.query import Query
from repro.relational.schema import JoinSchema


class PerTableAREstimator:
    """Per-table AR density models combined under independence."""

    name = "PerTableAR"

    def __init__(
        self,
        schema: JoinSchema,
        config: Optional[NeuroCardConfig] = None,
        counts: Optional[JoinCounts] = None,
    ):
        self.schema = schema
        self.counts = counts if counts is not None else JoinCounts(schema)
        base = config if config is not None else NeuroCardConfig()
        self.models: Dict[str, NeuroCard] = {}
        for tname, table in schema.tables.items():
            single = JoinSchema(tables={tname: table}, edges=[], root=tname)
            cfg = NeuroCardConfig(
                d_emb=base.d_emb,
                d_ff=base.d_ff,
                n_blocks=base.n_blocks,
                factorization_bits=base.factorization_bits,
                batch_size=base.batch_size,
                train_tuples=max(base.train_tuples // max(len(schema.tables), 1), 2048),
                learning_rate=base.learning_rate,
                progressive_samples=base.progressive_samples,
                sampler_threads=1,
                wildcard_skipping=base.wildcard_skipping,
                exclude_columns=tuple(
                    c for c in base.exclude_columns if c.startswith(f"{tname}.")
                ),
                seed=base.seed,
            )
            self.models[tname] = NeuroCard(single, cfg).fit()
        self._size_cache: Dict[Tuple[str, ...], float] = {}

    @property
    def size_bytes(self) -> int:
        return sum(m.size_bytes for m in self.models.values())

    @property
    def is_fitted(self) -> bool:
        return all(m.is_fitted for m in self.models.values())

    def _graph_size(self, tables: Tuple[str, ...]) -> float:
        if tables not in self._size_cache:
            self._size_cache[tables] = inner_join_count(
                self.schema, list(tables), counts=self.counts
            )
        return self._size_cache[tables]

    def estimate(self, query: Query, **_ignored) -> float:
        query.validate(self.schema)
        card = self._graph_size(tuple(sorted(query.tables)))
        by_table = query.predicates_by_table()
        for tname, preds in by_table.items():
            single = Query.make([tname], preds)
            table_card = self.models[tname].estimate(single)
            card *= max(table_card, 0.0) / max(self.schema.table(tname).n_rows, 1)
        return card

    def estimate_batch(self, queries, **_ignored) -> np.ndarray:
        """Sequential-equivalent batch estimates (deterministic per-table models)."""
        return np.array([self.estimate(q) for q in queries], dtype=np.float64)


class PerTableStatsEstimator:
    """Training-free degraded-mode fallback: exact per-table selectivities.

    The same structural assumption as :class:`PerTableAREstimator` (exact
    join sizes, inter-table independence between filters), but each
    table's conjunction selectivity is computed *exactly* by evaluating
    the predicate masks against the base table — no learned model at all,
    so it can be built in milliseconds and can never be stale, crashed,
    or corrupted. The serving layer's circuit breaker routes to it when a
    model cannot answer (see :mod:`repro.serving.resilience`); its only
    error source is the independence assumption across tables, so
    single-table queries are exact and multi-table q-error is bounded by
    the filters' cross-table correlation (documented in
    ``docs/resilience.md``).
    """

    name = "PerTableStats"
    is_fitted = True
    #: Bound on cached per-table selectivities before the cache is reset.
    SELECTIVITY_CACHE_LIMIT = 4096

    def __init__(self, schema: JoinSchema, counts: Optional[JoinCounts] = None):
        self.schema = schema
        self.counts = counts if counts is not None else JoinCounts(schema)
        self._size_cache: Dict[Tuple[str, ...], float] = {}
        self._sel_cache: Dict[tuple, float] = {}

    @property
    def size_bytes(self) -> int:
        return 0  # references the live schema; no owned state

    def _graph_size(self, tables: Tuple[str, ...]) -> float:
        if tables not in self._size_cache:
            self._size_cache[tables] = inner_join_count(
                self.schema, list(tables), counts=self.counts
            )
        return self._size_cache[tables]

    def _selectivity(self, tname: str, preds) -> float:
        key = (tname, tuple(preds))
        try:
            cached = self._sel_cache.get(key)
        except TypeError:  # unhashable predicate values: compute uncached
            key = cached = None
        if cached is not None:
            return cached
        table = self.schema.table(tname)
        if table.n_rows == 0:
            return 0.0
        mask = np.ones(table.n_rows, dtype=bool)
        for pred in preds:
            mask &= pred.mask(table)
        selectivity = float(mask.mean())
        if key is not None:
            if len(self._sel_cache) >= self.SELECTIVITY_CACHE_LIMIT:
                self._sel_cache.clear()
            self._sel_cache[key] = selectivity
        return selectivity

    def estimate(self, query: Query, **_ignored) -> float:
        """COUNT(*) = exact join size x Π_t exact filter selectivity of t."""
        query.validate(self.schema)
        card = self._graph_size(tuple(sorted(query.tables)))
        for tname, preds in query.predicates_by_table().items():
            card *= self._selectivity(tname, preds)
        return card

    def estimate_batch(self, queries, **_ignored) -> np.ndarray:
        return np.array([self.estimate(q) for q in queries], dtype=np.float64)
