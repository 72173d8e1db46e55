"""Reusable model-refresh strategies for data ingests (paper §7.6).

The paper compares three ways of keeping an estimator fresh as partitions
are appended: do nothing (``stale``), incrementally train on ~1% of the
original tuple budget (``fast``), or retrain from scratch (``retrain``).
These used to live inline in the offline Table 6 pipeline
(:mod:`repro.eval.updates`); the serving layer's background refresher
(:mod:`repro.serving.updates`) drives the same strategies against live
traffic, so they are factored here, in ``repro.core``, where both can
reuse them.

Every strategy returns a :class:`RefreshOutcome` carrying the refreshed
estimator plus the cost telemetry (wall seconds, tuples trained,
throughput) that both the Table 6 report and the serving freshness
trajectory need.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Optional

from repro.core.config import NeuroCardConfig
from repro.core.estimator import NeuroCard
from repro.relational.schema import JoinSchema

#: The §7.6 strategy universe. ``stale`` is the identity strategy: it exists
#: so policies can *decide* not to refresh and report it uniformly.
REFRESH_STRATEGIES = ("stale", "fast", "retrain")

#: The paper's fast-update budget: ~1% of the original training tuples.
FAST_REFRESH_FRACTION = 0.01

#: Never train on fewer tuples than this per refresh (one reasonable batch);
#: matches the floor the offline pipeline has always used.
MIN_REFRESH_TUPLES = 512


def fast_refresh_budget(
    config: NeuroCardConfig, fraction: float = FAST_REFRESH_FRACTION
) -> int:
    """Incremental-training tuple budget for one fast refresh."""
    return max(int(config.train_tuples * fraction), MIN_REFRESH_TUPLES)


@dataclass
class RefreshOutcome:
    """One applied refresh: the (possibly new) estimator plus its cost."""

    strategy: str
    estimator: NeuroCard
    seconds: float = 0.0
    train_tuples: int = 0
    #: Incremental-training throughput of just this refresh (0 when no
    #: training happened), from the vectorized sampling pipeline.
    tuples_per_second: float = 0.0
    data_version: Optional[int] = None


def clone_estimator(estimator: NeuroCard) -> NeuroCard:
    """Deep-copy a fitted estimator, sharing its immutable kernel table and
    excluding its live inference engine.

    Serving threads mutate the engine's plan/region caches concurrently, and
    ``deepcopy`` iterating those dicts mid-insert would crash; a fresh
    engine is built on the copy over the same table (training reads it and
    folds a new one, never writing into it), so the clone can train while
    the original keeps serving.
    """
    memo = {id(estimator.inference): None, id(estimator.compiled): estimator.compiled}
    clone = copy.deepcopy(estimator, memo)
    clone.inference = clone.build_inference()
    return clone


def fast_refresh(
    estimator: NeuroCard,
    snapshot: JoinSchema,
    *,
    fraction: float = FAST_REFRESH_FRACTION,
    train_tuples: Optional[int] = None,
    data_version: Optional[int] = None,
) -> RefreshOutcome:
    """The paper's fast update: incremental training on a sliver of the budget.

    Mutates ``estimator`` in place (clone first — :func:`clone_estimator` —
    when the original must keep serving) and reports the refresh cost.
    """
    budget = (
        train_tuples
        if train_tuples is not None
        else fast_refresh_budget(estimator.config, fraction)
    )
    seen_before = estimator.train_result.tuples_seen
    wall_before = estimator.train_result.wall_seconds
    start = time.perf_counter()
    estimator.update(snapshot, train_tuples=budget, data_version=data_version)
    elapsed = time.perf_counter() - start
    d_tuples = estimator.train_result.tuples_seen - seen_before
    d_wall = max(estimator.train_result.wall_seconds - wall_before, 1e-9)
    return RefreshOutcome(
        strategy="fast",
        estimator=estimator,
        seconds=elapsed,
        train_tuples=d_tuples,
        tuples_per_second=d_tuples / d_wall,
        data_version=data_version,
    )


def full_retrain(
    snapshot: JoinSchema,
    config: NeuroCardConfig,
    *,
    data_version: Optional[int] = None,
) -> RefreshOutcome:
    """Retrain from scratch on the new snapshot (the accuracy ceiling)."""
    start = time.perf_counter()
    estimator = NeuroCard(snapshot, config).fit()
    elapsed = time.perf_counter() - start
    estimator.data_version = data_version if data_version is not None else 0
    result = estimator.train_result
    return RefreshOutcome(
        strategy="retrain",
        estimator=estimator,
        seconds=elapsed,
        train_tuples=result.tuples_seen,
        tuples_per_second=result.tuples_seen / max(result.wall_seconds, 1e-9),
        data_version=data_version,
    )
