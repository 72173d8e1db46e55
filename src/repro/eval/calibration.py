"""Held-out calibration workloads for the estimator cascade.

:meth:`repro.serving.cascade.EstimatorCascade.calibrate` needs a workload
that (a) is disjoint from the serving traffic, (b) covers every query
class the router buckets on (single-table vs join, equality vs range,
narrow vs wide — see :class:`~repro.serving.cascade.QueryFeatures`), and
(c) has non-trivial true cardinalities so per-class q-error bounds mean
something. :func:`calibration_workload` generates one for *any*
:class:`~repro.relational.schema.JoinSchema` — unlike the JOB-specific
generators in :mod:`repro.workloads.generators`, it discovers filterable
columns from the schema itself (every non-join-key column the served model
does not exclude), drawing literals from sampled tuples so results are
non-empty by construction.

Pair with :func:`repro.eval.harness.true_cardinalities` for the truth
labels, then persist the calibration with
:meth:`~repro.serving.cascade.CascadeCalibration.save`.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.errors import DataError
from repro.joins.counts import JoinCounts
from repro.joins.sampler import InnerJoinSampler
from repro.relational.predicate import Predicate
from repro.relational.query import Query
from repro.relational.schema import JoinSchema


def join_key_columns(schema: JoinSchema) -> Set[Tuple[str, str]]:
    """Every (table, column) participating in a join edge.

    Join keys are excluded from generated filters: filtering on them
    changes join semantics, and served models commonly exclude them
    (``exclude_columns``), so a calibration predicate there would measure
    a query shape serving never sees.
    """
    keys: Set[Tuple[str, str]] = set()
    for edge in schema.edges:
        for side in (edge.parent, edge.child):
            for column in edge.columns_of(side):
                keys.add((side, column))
    return keys


def _filterable(
    schema: JoinSchema, exclude_columns: Sequence[str]
) -> Dict[str, List[str]]:
    skip = join_key_columns(schema)
    skip.update(tuple(name.split(".", 1)) for name in exclude_columns)
    return {
        tname: [c for c in table.column_names if (tname, c) not in skip]
        for tname, table in schema.tables.items()
    }


def calibration_workload(
    schema: JoinSchema,
    n_queries: int = 200,
    easy_fraction: float = 0.5,
    seed: int = 0,
    counts: Optional[JoinCounts] = None,
    exclude_columns: Sequence[str] = (),
) -> List[Query]:
    """Schema-agnostic held-out workload covering the router's query classes.

    ``easy_fraction`` of the queries are single-table conjunctions (the
    shapes cheap tiers should win); the rest join 2+ tables grown BFS
    from a random anchor. Both halves mix equality and range operators
    so the ``1t|eq``, ``1t|rng``, ``nt|eq`` and ``nt|rng`` classes all
    accumulate calibration mass. Deterministic in ``seed``.

    ``exclude_columns`` (``"table.column"`` names, as in
    ``NeuroCardConfig.exclude_columns``) are never filtered on: pass the
    served model's, whose neural tier rejects predicates on them.
    """
    if not 0.0 <= easy_fraction <= 1.0:
        raise DataError("easy_fraction must be within [0, 1]")
    if n_queries < 1:
        raise DataError("n_queries must be >= 1")
    rng = np.random.default_rng(seed)
    counts = counts if counts is not None else JoinCounts(schema)
    inner = InnerJoinSampler(schema, counts)
    filterable = _filterable(schema, exclude_columns)
    table_names = sorted(schema.tables)
    n_easy = int(round(n_queries * easy_fraction))

    queries: List[Query] = []
    attempt = 0
    while len(queries) < n_queries:
        attempt += 1
        if attempt > 100 * n_queries:
            raise DataError("calibration workload generation failed to converge")
        easy = len(queries) < n_easy
        if easy or len(table_names) == 1:
            tables = [str(rng.choice(table_names))]
            table = schema.table(tables[0])
            rows = {tables[0]: rng.integers(0, table.n_rows, size=1)}
        else:
            tables = _grow_join(schema, table_names, rng)
            if len(tables) < 2:
                continue
            try:
                rows = inner.sample_row_ids(tables, 1, rng)
            except DataError:
                continue  # empty inner join for this subgraph
        predicates = _make_predicates(schema, filterable, tables, rows, rng)
        if not predicates:
            continue
        kind = "easy" if easy else "hard"
        queries.append(
            Query.make(tables, predicates, name=f"calib-{kind}-{len(queries):04d}")
        )
    return queries


def _grow_join(
    schema: JoinSchema, table_names: List[str], rng: np.random.Generator
) -> List[str]:
    """BFS-grow a connected 2+-table subgraph from a random anchor."""
    target = int(rng.integers(2, min(len(table_names), 4) + 1))
    tables = [str(rng.choice(table_names))]
    while len(tables) < target:
        frontier = sorted(
            {
                e.other(t)
                for t in tables
                for e in schema.incident_edges(t)
                if e.other(t) not in tables
            }
        )
        if not frontier:
            break
        tables.append(str(rng.choice(frontier)))
    return tables


def _make_predicates(
    schema: JoinSchema,
    filterable: Dict[str, List[str]],
    tables: List[str],
    rows: Dict[str, np.ndarray],
    rng: np.random.Generator,
) -> List[Predicate]:
    """1-3 filters with literals from the sampled tuple (never NULL)."""
    slots = [(t, c) for t in tables for c in filterable[t]]
    if not slots:
        return []
    rng.shuffle(slots)
    n_filters = int(rng.integers(1, min(len(slots), 3) + 1))
    predicates: List[Predicate] = []
    for table, column in slots:
        if len(predicates) >= n_filters:
            break
        col = schema.table(table).column(column)
        value = col.decode([col.codes[rows[table][0]]])[0]
        if value is None:
            continue
        op = str(rng.choice(["=", "<=", ">="]))
        predicates.append(Predicate(table, column, op, value))
    return predicates


__all__ = ["calibration_workload", "join_key_columns"]
