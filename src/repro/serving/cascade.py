"""Latency-budgeted estimator cascade: cheap tiers first, the model last.

ROADMAP item 4. A served NeuroCard answers every query equally well — and
equally slowly. Most production workloads are *easy-heavy*: single-table
point lookups and short conjunctions that training-free per-table
statistics answer exactly in microseconds, while only the hard multi-join
tail needs learned cross-table correlations. :class:`EstimatorCascade`
routes each query to the cheapest registered tier whose *calibrated*
accuracy bound for that query's class fits the caller's contract
(``max_q_error``), within the caller's latency budget (``budget_ms``);
everything else escalates to the final (neural) tier.

The three pieces:

* :class:`QueryFeatures` — the per-query feature vector (table count,
  predicate counts by operator class, wildcard fraction, narrowest
  predicate-region fraction) and its coarse ``class_key`` bucketing.
* :class:`CascadeCalibration` — per-(tier, class) p95 q-error and median
  latency measured offline on a held-out workload
  (:meth:`EstimatorCascade.calibrate`), persisted alongside the model as
  JSON (:meth:`~CascadeCalibration.save` / :meth:`~CascadeCalibration.load`)
  so a serving process can route from the first request.
* :class:`EstimatorCascade` — ordered tier registration, the routing rule,
  staleness demotion (a :class:`~repro.serving.updates.DriftMonitor`
  staleness q-error inflates the neural tier's calibrated bound, leaning
  the cascade on the SPN/stats tiers while the model is stale), and
  per-tier telemetry.

Routing is the *accuracy* path and is distinct from the circuit breaker's
*failure* path (:mod:`repro.serving.resilience`): the breaker reroutes
when the primary cannot answer at all; the cascade decides who should
answer in the first place. ``docs/estimators.md`` is the authoritative
contract for every tier and documents the decision procedure verbatim.

The cascade itself satisfies the :class:`~repro.serving.EstimationClient`
protocol (``estimate`` / ``estimate_batch``), so it can stand alone in
front of bare estimators (see ``examples/cascade_routing.py``) or be
attached to an :class:`~repro.serving.service.EstimationService` via
:meth:`~repro.serving.service.EstimationService.attach_cascade`, where
cheap tiers answer inline and skip micro-batching entirely.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.regions import Region
from repro.errors import QueryError, ServingError
from repro.relational.query import Query
from repro.relational.schema import JoinSchema

#: Operators with ordered (range) semantics; ``=``/``IN`` are point classes.
_RANGE_OPS = frozenset({"<", "<=", ">", ">="})

#: JSON stand-in for an unbounded (uncalibratable / failing) q-error.
_UNBOUNDED = 1e18


def _q_error(estimate: float, actual: float) -> float:
    """Multiplicative error factor, both sides clamped to >= 1 (paper §7.1)."""
    est = max(float(estimate), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


# ----------------------------------------------------------------------
# Per-query features and class bucketing
# ----------------------------------------------------------------------
def _region_fraction(pred, schema: JoinSchema) -> float:
    """A predicate's code region as a fraction of its column's domain."""
    table = schema.table(pred.table)
    region = Region.from_predicate(pred.code_region(table))
    domain = max(table.column(pred.column).domain_size, 1)
    if region.is_empty:
        width = 0
    elif region.kind == "interval":
        width = min(region.hi, domain - 1) - region.lo + 1
    else:
        width = len(region.codes)
    return width / domain


@dataclass(frozen=True)
class QueryFeatures:
    """The routing feature vector of one query (all cheap to extract)."""

    #: Tables in the query's join graph.
    n_tables: int
    #: Total predicates, and the split by operator class.
    n_predicates: int
    n_equality: int
    n_range: int
    #: Fraction of the query tables' columns left unfiltered (wildcards).
    wildcard_fraction: float
    #: Narrowest predicate region as a fraction of its column's domain
    #: (1.0 for a predicate-free query; 0.0 when some region is empty).
    min_region_fraction: float

    @staticmethod
    def extract(
        query: Query, schema: JoinSchema, memo: Optional[dict] = None
    ) -> "QueryFeatures":
        """Compute features; raises :class:`QueryError` for invalid queries.

        ``memo`` (a cascade's bounded map, see
        :attr:`EstimatorCascade.FEATURE_MEMO_LIMIT`) keeps each predicate's
        region fraction and each table list's column count across calls. An
        entry is stored only after its query validated, so a query whose
        parts are all memoized skips re-validation; the features are the
        same as without a memo.
        """
        if memo is None:
            memo = {}
        # Two key shapes share the map: a table list is a tuple of names,
        # a predicate key carries its value's type, which no name equals.
        n_columns = memo.get(query.tables)
        complete = n_columns is not None
        n_equality = n_range = 0
        min_fraction = 1.0
        filtered = set()
        missing = []
        for pred in query.predicates:
            if pred.op in _RANGE_OPS:
                n_range += 1
            else:
                n_equality += 1
            filtered.add((pred.table, pred.column))
            key = (pred.table, pred.column, pred.op, type(pred.value), pred.value)
            try:
                fraction = memo.get(key)
            except TypeError:  # unhashable value (an IN list): not memoized
                key = fraction = None
            if fraction is None:
                complete = False
                missing.append((pred, key))
            else:
                min_fraction = min(min_fraction, fraction)
        if not complete:
            query.validate(schema)
            if len(memo) >= EstimatorCascade.FEATURE_MEMO_LIMIT:
                memo.clear()
            if n_columns is None:
                n_columns = sum(
                    len(schema.table(t).column_names) for t in query.tables
                )
                memo[query.tables] = n_columns
            for pred, key in missing:
                fraction = _region_fraction(pred, schema)
                if key is not None:
                    memo[key] = fraction
                min_fraction = min(min_fraction, fraction)
        return QueryFeatures(
            n_tables=len(query.tables),
            n_predicates=len(query.predicates),
            n_equality=n_equality,
            n_range=n_range,
            wildcard_fraction=1.0 - len(filtered) / max(n_columns, 1),
            min_region_fraction=min_fraction,
        )

    @property
    def class_key(self) -> str:
        """Coarse deterministic bucket the calibration is keyed on.

        Three axes — join shape, operator class, narrowest region — giving
        at most 10 classes, so a few hundred held-out queries calibrate
        every class with enough mass (see ``min_class_queries``).
        """
        tables = "1t" if self.n_tables == 1 else "nt"
        if self.n_predicates == 0:
            ops = "none"
        elif self.n_range:
            ops = "rng"
        else:
            ops = "eq"
        width = "narrow" if self.min_region_fraction <= 0.25 else "wide"
        return f"{tables}|{ops}|{width}"


# ----------------------------------------------------------------------
# Offline calibration, persisted alongside the model
# ----------------------------------------------------------------------
class CascadeCalibration:
    """Per-(tier, query-class) accuracy/latency bounds from a held-out workload.

    ``entries`` maps ``tier -> class_key -> {"p95_qerror",
    "median_latency_ms", "n"}``. A tier that raised on a calibration query
    (e.g. DeepDB on a non-star join) records an unbounded q-error for it,
    so its class bound honestly reflects "cannot answer this shape".
    JSON-persisted (:meth:`save`/:meth:`load`) next to the model artifact.
    """

    def __init__(
        self,
        entries: Dict[str, Dict[str, Dict[str, float]]],
        *,
        n_queries: int = 0,
    ):
        self.entries = entries
        self.n_queries = n_queries

    def tiers(self) -> List[str]:
        return list(self.entries)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {"n_queries": self.n_queries, "tiers": self.entries}

    @classmethod
    def from_dict(cls, doc: dict) -> "CascadeCalibration":
        if not isinstance(doc, dict) or "tiers" not in doc:
            raise ServingError("calibration document must carry a 'tiers' mapping")
        return cls(doc["tiers"], n_queries=int(doc.get("n_queries", 0)))

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def load(cls, path) -> "CascadeCalibration":
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ServingError(f"cannot load cascade calibration {path}: {exc}") from exc
        return cls.from_dict(doc)


# ----------------------------------------------------------------------
# The cascade
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Tier:
    """One registered cascade tier, in escalation order."""

    name: str
    estimator: object
    #: The tier served by the micro-batching scheduler when the cascade is
    #: attached to a service (always the final tier).
    neural: bool = False


@dataclass(frozen=True)
class TierDecision:
    """The routing outcome for one query."""

    tier: Tier
    reason: str
    features: QueryFeatures


class EstimatorCascade:
    """Ordered estimator tiers behind one confidence-gated router.

    Register tiers cheapest-first; the last registered tier is the
    *final* tier and answers whatever nothing cheaper is calibrated to
    answer. The routing rule (documented in ``docs/estimators.md``):

    1. extract :class:`QueryFeatures`, compute the ``class_key``;
    2. walk tiers in order — a tier answers iff its calibrated class
       entry has at least ``min_class_queries`` samples, its adjusted
       p95 q-error bound (× the staleness demotion factor for the neural
       tier) fits ``max_q_error``, and its predicted latency fits
       ``budget_ms`` (when a budget is given);
    3. if no tier qualifies, the tier with the smallest adjusted bound
       among those within budget answers; with none within budget (or no
       calibration at all), the final tier answers.

    Staleness demotion: ``staleness_provider`` (wired to a
    :class:`~repro.serving.updates.DriftMonitor` by
    ``EstimationService.serve_with_updates``) returns the rolling served
    q-error; once it reaches ``demote_staleness_qerror`` the neural
    tier's calibrated bound is multiplied by it, so a stale model loses
    classes to the SPN/stats tiers *before* it starts failing — the
    routing-path complement of the breaker's failure path.
    """

    #: Bound on memoized routing-feature entries before the map is reset.
    FEATURE_MEMO_LIMIT = 4096

    def __init__(
        self,
        schema: JoinSchema,
        *,
        calibration: Optional[CascadeCalibration] = None,
        default_max_q_error: float = 4.0,
        default_budget_ms: Optional[float] = None,
        min_class_queries: int = 8,
        demote_staleness_qerror: float = 2.0,
    ):
        if default_max_q_error < 1.0:
            raise ServingError("default_max_q_error must be >= 1")
        if default_budget_ms is not None and default_budget_ms <= 0:
            raise ServingError("default_budget_ms must be positive (or None)")
        if min_class_queries < 1:
            raise ServingError("min_class_queries must be >= 1")
        if demote_staleness_qerror < 1.0:
            raise ServingError("demote_staleness_qerror must be >= 1")
        self.schema = schema
        self.calibration = calibration
        self.default_max_q_error = default_max_q_error
        self.default_budget_ms = default_budget_ms
        self.min_class_queries = min_class_queries
        self.demote_staleness_qerror = demote_staleness_qerror
        #: Zero-arg callable returning the rolling staleness q-error
        #: (>= 1.0); None disables demotion.
        self.staleness_provider: Optional[Callable[[], float]] = None
        self._tiers: List[Tier] = []
        self._lock = threading.Lock()
        self._routed = 0
        self._escalations = 0
        self._answered: Dict[str, int] = {}
        self._tier_errors: Dict[str, int] = {}
        #: Region fractions and column counts routing has computed
        #: (:meth:`QueryFeatures.extract`), reset at ``FEATURE_MEMO_LIMIT``.
        self._feature_memo: dict = {}

    # ------------------------------------------------------------------
    # Tier registration
    # ------------------------------------------------------------------
    def register(
        self, name: str, estimator, *, neural: bool = False
    ) -> "EstimatorCascade":
        """Append a tier (escalation order = registration order)."""
        if any(t.name == name for t in self._tiers):
            raise ServingError(f"tier {name!r} already registered")
        if not hasattr(estimator, "estimate"):
            raise ServingError(f"tier {name!r} estimator has no estimate()")
        if neural and any(t.neural for t in self._tiers):
            raise ServingError("only one neural tier may be registered")
        self._tiers.append(Tier(name, estimator, neural))
        return self

    @property
    def tiers(self) -> Tuple[Tier, ...]:
        return tuple(self._tiers)

    @property
    def final_tier(self) -> Tier:
        if not self._tiers:
            raise ServingError("cascade has no registered tiers")
        return self._tiers[-1]

    def tier(self, name: str) -> Tier:
        for t in self._tiers:
            if t.name == name:
                return t
        raise ServingError(f"unknown tier {name!r}")

    # ------------------------------------------------------------------
    # Offline calibration
    # ------------------------------------------------------------------
    def calibrate(
        self, queries: Sequence[Query], truths: Sequence[float]
    ) -> CascadeCalibration:
        """Measure every tier on a held-out workload; installs + returns it.

        Run offline (the held-out workload must be disjoint from the
        serving workload) and persist with
        :meth:`CascadeCalibration.save` alongside the model artifact.
        """
        if len(queries) != len(truths):
            raise ServingError("calibration queries/truths length mismatch")
        if not self._tiers:
            raise ServingError("register tiers before calibrating")
        features = [QueryFeatures.extract(q, self.schema) for q in queries]
        entries: Dict[str, Dict[str, Dict[str, float]]] = {}
        for t in self._tiers:
            per_class: Dict[str, Tuple[List[float], List[float]]] = {}
            for query, truth, feats in zip(queries, truths, features):
                start = time.perf_counter()
                try:
                    estimate = float(t.estimator.estimate(query))
                    qerr = min(_q_error(estimate, truth), _UNBOUNDED)
                except Exception:  # noqa: BLE001 - "cannot answer" is a datum
                    # The finite stand-in, not math.inf: np.percentile over
                    # infinities interpolates inf - inf = nan, which would
                    # poison the class bound instead of marking it unbounded.
                    qerr = _UNBOUNDED
                latency_ms = (time.perf_counter() - start) * 1e3
                qerrs, lats = per_class.setdefault(feats.class_key, ([], []))
                qerrs.append(qerr)
                lats.append(latency_ms)
            entries[t.name] = {
                key: {
                    "p95_qerror": float(
                        min(np.percentile(qerrs, 95.0), _UNBOUNDED)
                    ),
                    "median_latency_ms": float(np.median(lats)),
                    "n": float(len(qerrs)),
                }
                for key, (qerrs, lats) in per_class.items()
            }
        self.calibration = CascadeCalibration(entries, n_queries=len(queries))
        return self.calibration

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def staleness_demotion(self) -> float:
        """Current neural-bound multiplier (1.0 = fresh model)."""
        if self.staleness_provider is None:
            return 1.0
        try:
            staleness = float(self.staleness_provider())
        except Exception:  # noqa: BLE001 - telemetry must not break routing
            return 1.0
        if staleness >= self.demote_staleness_qerror:
            return max(staleness, 1.0)
        return 1.0

    def route(
        self,
        query: Query,
        *,
        max_q_error: Optional[float] = None,
        budget_ms: Optional[float] = None,
        neural_latency_ms: Optional[float] = None,
    ) -> TierDecision:
        """Pick the tier for ``query`` (pure decision; no counters moved).

        ``neural_latency_ms`` overrides the neural tier's calibrated
        latency with a live measurement (the scheduler's EWMA) when the
        cascade fronts a service.
        """
        if not self._tiers:
            raise ServingError("cascade has no registered tiers")
        features = QueryFeatures.extract(query, self.schema, self._feature_memo)
        max_q = max_q_error if max_q_error is not None else self.default_max_q_error
        if max_q < 1.0:
            raise ServingError("max_q_error must be >= 1")
        budget = budget_ms if budget_ms is not None else self.default_budget_ms
        if budget is not None and budget <= 0:
            raise ServingError("budget_ms must be positive (or None)")
        demotion = self.staleness_demotion()

        class_key = features.class_key
        entries = self.calibration.entries if self.calibration is not None else {}
        scored: List[Tuple[Tier, float, Optional[float]]] = []
        for t in self._tiers:
            entry = entries.get(t.name, {}).get(class_key)
            if entry is None or entry.get("n", 0) < self.min_class_queries:
                bound, latency = math.inf, None
            else:
                bound = float(entry["p95_qerror"])
                latency = float(entry["median_latency_ms"])
                if bound >= _UNBOUNDED:
                    bound = math.inf
            if t.neural:
                bound *= demotion
                if neural_latency_ms is not None:
                    latency = neural_latency_ms
            scored.append((t, bound, latency))

        # Rule 2: first tier whose calibrated bound and latency both fit.
        for t, bound, latency in scored:
            if bound > max_q:
                continue
            if budget is not None and latency is not None and latency > budget:
                continue
            return TierDecision(t, "bound", features)

        # Rule 3: nothing meets the contract — best bound within budget,
        # falling back to the final tier when the budget excludes everyone
        # (someone has to answer).
        in_budget = [
            (t, bound) for t, bound, latency in scored
            if budget is None or latency is None or latency <= budget
        ]
        if in_budget and any(math.isfinite(bound) for _, bound in in_budget):
            best = min(in_budget, key=lambda item: item[1])
            return TierDecision(best[0], "best-effort", features)
        return TierDecision(self.final_tier, "last-resort", features)

    # ------------------------------------------------------------------
    # Telemetry (the service moves these; standalone estimate() does too)
    # ------------------------------------------------------------------
    def record_answer(self, tier_name: str) -> None:
        with self._lock:
            self._routed += 1
            self._answered[tier_name] = self._answered.get(tier_name, 0) + 1
            if tier_name == self._tiers[-1].name:
                self._escalations += 1

    def record_tier_error(self, tier_name: str) -> None:
        with self._lock:
            self._tier_errors[tier_name] = self._tier_errors.get(tier_name, 0) + 1

    def stats(self) -> Dict[str, object]:
        with self._lock:
            routed = self._routed
            escalations = self._escalations
            answered = dict(self._answered)
            errors = dict(self._tier_errors)
        return {
            "routed": routed,
            "escalations": escalations,
            "escalation_rate": escalations / routed if routed else 0.0,
            "tiers": {t.name: answered.get(t.name, 0) for t in self._tiers},
            "tier_errors": errors,
            "staleness_demotion": self.staleness_demotion(),
        }

    # ------------------------------------------------------------------
    # Standalone EstimationClient surface
    # ------------------------------------------------------------------
    def estimate(
        self,
        query: Query,
        *,
        max_q_error: Optional[float] = None,
        budget_ms: Optional[float] = None,
        **kwargs,
    ) -> float:
        """Route and answer locally (every tier's estimator runs in-process)."""
        decision = self.route(
            query, max_q_error=max_q_error, budget_ms=budget_ms
        )
        t = decision.tier
        try:
            value = float(t.estimator.estimate(query, **kwargs))
        except QueryError:
            raise
        except Exception:
            self.record_tier_error(t.name)
            if t is self.final_tier:
                raise
            final = self.final_tier
            value = float(final.estimator.estimate(query, **kwargs))
            self.record_answer(final.name)
            return value
        self.record_answer(t.name)
        return value

    def estimate_batch(self, queries: Sequence[Query], **kwargs) -> np.ndarray:
        return np.array(
            [self.estimate(q, **kwargs) for q in queries], dtype=np.float64
        )

    @property
    def size_bytes(self) -> Optional[int]:
        """Total resident bytes across tiers (None when nothing reports)."""
        sizes = [
            getattr(t.estimator, "size_bytes", None) for t in self._tiers
        ]
        known = [s for s in sizes if s is not None]
        return sum(known) if known else None

    @property
    def is_fitted(self) -> bool:
        return bool(self._tiers) and all(
            getattr(t.estimator, "is_fitted", True) for t in self._tiers
        )


__all__ = [
    "CascadeCalibration",
    "EstimatorCascade",
    "QueryFeatures",
    "Tier",
    "TierDecision",
]
