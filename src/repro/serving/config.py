"""ServingConfig: every serving knob in one validated, serializable place.

Through PR 5 the serving knobs accreted as loose keyword arguments —
scheduler options on :class:`~repro.serving.service.EstimationService`,
refresh thresholds on :class:`~repro.serving.updates.RefreshPolicy`,
byte budgets on :class:`~repro.serving.registry.ModelRegistry` — so a
deployment's serving posture was scattered across three constructors and
could not be written down. :class:`ServingConfig` consolidates them, adds
the PR 6 worker-pool knobs, validates eagerly (a typo'd field fails at
construction with a :class:`~repro.errors.ServingError`, not at the first
flush), and round-trips through plain dicts (:meth:`from_dict` /
:meth:`to_dict`) so a config can live in a JSON/YAML deployment file.

``EstimationService`` takes the config object only; where each field came
from:

======================  ==========================================
earlier home            ServingConfig field
======================  ==========================================
(service kwargs)        ``max_batch``, ``max_wait_us``
(serve_with_updates)    ``poll_interval``
(registry ctor)         ``budget_bytes``
(RefreshPolicy ctor)    ``drift_threshold`` … ``min_interval_seconds``
(new in PR 6)           ``workers``, ``min_shard``
======================  ==========================================

There is no sample-count field: every request is answered at the served
model's own ``NeuroCardConfig.progressive_samples``. ``cache_size`` is
retired (the result cache is gone) and accepts only 0.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.refresh import FAST_REFRESH_FRACTION
from repro.errors import ServingError
from repro.serving.admission import TenantQuota
from repro.serving.scheduler import RETIRED_CACHE
from repro.serving.updates import RefreshPolicy


@dataclass(frozen=True)
class HttpConfig:
    """Network front-end knobs: bind address, admission, drain behavior.

    Lives as the ``http`` section of :class:`ServingConfig` so one
    deployment file describes the whole serving posture, wire to weights.
    Same contract as its parent: frozen, eagerly validated, and
    dict-round-trippable (``tenants`` serializes as a list of
    ``{"name", "rate", "burst"}`` objects).
    """

    #: Bind address; port 0 asks the OS for an ephemeral port (tests/bench).
    host: str = "127.0.0.1"
    port: int = 0
    #: Bounded accept queue: max estimate requests past admission at once.
    max_queue: int = 64
    #: Default tenant token rate (queries/second; None = unlimited).
    rate: Optional[float] = None
    #: Default tenant bucket capacity (None = one second of ``rate``).
    burst: Optional[float] = None
    #: Per-tenant quota overrides.
    tenants: Tuple[TenantQuota, ...] = ()
    #: Reject tenants without an explicit quota (403) instead of applying
    #: the default quota.
    strict_tenants: bool = False
    #: Deadline applied to requests that do not carry one (None = none).
    default_deadline_ms: Optional[float] = None
    #: Largest accepted request body.
    max_body_bytes: int = 1 << 20
    #: Seconds :meth:`~repro.serving.http.EstimationHttpServer.drain`
    #: waits for in-flight requests before giving up.
    drain_grace_s: float = 10.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tenants", tuple(self.tenants))
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ServingError` naming the first invalid field."""
        if not self.host:
            raise ServingError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ServingError(f"port must be within [0, 65535], got {self.port}")
        if self.max_queue < 1:
            raise ServingError("max_queue must be >= 1")
        if self.rate is not None and self.rate <= 0:
            raise ServingError("rate must be positive (or None for unlimited)")
        if self.burst is not None and self.burst <= 0:
            raise ServingError("burst must be positive (or None = 1s of rate)")
        seen = set()
        for quota in self.tenants:
            if not isinstance(quota, TenantQuota):
                raise ServingError(
                    f"tenants entries must be TenantQuota, got {type(quota).__name__}"
                )
            if quota.name in seen:
                raise ServingError(f"duplicate tenant quota for {quota.name!r}")
            seen.add(quota.name)
        if self.default_deadline_ms is not None and self.default_deadline_ms <= 0:
            raise ServingError("default_deadline_ms must be positive (or None)")
        if self.max_body_bytes < 1:
            raise ServingError("max_body_bytes must be >= 1")
        if self.drain_grace_s < 0:
            raise ServingError("drain_grace_s must be >= 0")

    @classmethod
    def from_dict(cls, values: dict) -> "HttpConfig":
        """Build from a plain mapping; unknown keys are hard errors."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise ServingError(
                f"unknown HttpConfig field(s) {unknown}; known: {sorted(known)}"
            )
        values = dict(values)
        tenants = values.get("tenants", ())
        values["tenants"] = tuple(
            q if isinstance(q, TenantQuota) else TenantQuota(**q) for q in tenants
        )
        return cls(**values)

    def to_dict(self) -> dict:
        """Plain-dict form; ``from_dict(to_dict())`` round-trips exactly."""
        out = dataclasses.asdict(self)
        out["tenants"] = [dataclasses.asdict(q) for q in self.tenants]
        return out

    def default_quota(self) -> TenantQuota:
        return TenantQuota("default", self.rate, self.burst)


@dataclass(frozen=True)
class CascadeConfig:
    """Estimator-cascade knobs: tier order, routing contract, calibration.

    Lives as the ``cascade`` section of :class:`ServingConfig` (same
    contract: frozen, eagerly validated, dict-round-trippable). The tier
    names map to the estimators
    :meth:`~repro.serving.service.EstimationService.enable_cascade`
    builds (``per_table``, ``deepdb``, ``join_samples``) plus the final
    ``neural`` tier served by the scheduler; ``docs/estimators.md`` is
    the per-tier accuracy/latency contract these knobs route against.
    """

    #: Ordered tier names, cheapest first; the last entry is the final
    #: (neural) tier the scheduler serves.
    tiers: Tuple[str, ...] = ("per_table", "neural")
    #: JSON calibration file persisted alongside the model (None = routes
    #: uncalibrated until :meth:`EstimatorCascade.calibrate` runs).
    calibration_path: Optional[str] = None
    #: Default per-query accuracy contract: a tier answers only when its
    #: calibrated p95 q-error bound for the query's class fits this.
    default_max_q_error: float = 4.0
    #: Default per-query latency budget in milliseconds (None = none);
    #: requests may override it per call (HTTP ``budget_ms``).
    default_budget_ms: Optional[float] = None
    #: Minimum held-out queries per (tier, class) before the calibrated
    #: bound is trusted; thinner classes escalate.
    min_class_queries: int = 8
    #: Rolling staleness q-error at which the neural tier's bound is
    #: demoted (multiplied by the staleness), leaning routing on the
    #: cheap tiers while the model drifts.
    demote_staleness_qerror: float = 2.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tiers", tuple(self.tiers))
        self.validate()

    def validate(self) -> None:
        """Raise :class:`ServingError` naming the first invalid field."""
        if not self.tiers:
            raise ServingError("tiers must name at least one tier")
        seen = set()
        for name in self.tiers:
            if not name or not isinstance(name, str):
                raise ServingError(f"tier names must be non-empty strings, got {name!r}")
            if name in seen:
                raise ServingError(f"duplicate cascade tier {name!r}")
            seen.add(name)
        if self.default_max_q_error < 1.0:
            raise ServingError("default_max_q_error must be >= 1")
        if self.default_budget_ms is not None and self.default_budget_ms <= 0:
            raise ServingError("default_budget_ms must be positive (or None)")
        if self.min_class_queries < 1:
            raise ServingError("min_class_queries must be >= 1")
        if self.demote_staleness_qerror < 1.0:
            raise ServingError("demote_staleness_qerror must be >= 1")

    @classmethod
    def from_dict(cls, values: dict) -> "CascadeConfig":
        """Build from a plain mapping; unknown keys are hard errors."""
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise ServingError(
                f"unknown CascadeConfig field(s) {unknown}; known: {sorted(known)}"
            )
        return cls(**values)

    def to_dict(self) -> dict:
        """Plain-dict form; ``from_dict(to_dict())`` round-trips exactly."""
        out = dataclasses.asdict(self)
        out["tiers"] = list(self.tiers)
        return out


@dataclass(frozen=True)
class ServingConfig:
    """Validated bundle of scheduler, pool, registry and refresh knobs.

    Frozen so a config shared between a service, its pools and its
    refreshers can never drift; derive variants with
    :func:`dataclasses.replace`.
    """

    # -- micro-batching scheduler ------------------------------------
    #: Largest micro-batch one flush may coalesce.
    max_batch: int = 64
    #: Straggler bound (microseconds): how long a batch waits for callers
    #: the scheduler expects but that have not shown up yet. A batch that
    #: already holds every expected caller does not wait at all.
    max_wait_us: int = 2000
    #: Retired: the result cache is gone; only 0 is accepted.
    cache_size: int = 0

    # -- registry -----------------------------------------------------
    #: Byte budget for resident models (None = unbounded).
    budget_bytes: Optional[int] = None

    # -- worker pool (PR 6) -------------------------------------------
    #: Worker processes per served model; 0 = inline single-process
    #: serving (the bitwise-reference path, and the default).
    workers: int = 0
    #: Smallest per-worker shard; batches below ``workers * min_shard``
    #: queries use fewer workers rather than shipping tiny shards.
    min_shard: int = 4

    # -- resilience (PR 9) --------------------------------------------
    #: Consecutive primary failures before a model's circuit breaker
    #: opens and (when a fallback estimator is registered) traffic is
    #: served degraded; see :mod:`repro.serving.resilience`.
    breaker_failures: int = 5
    #: Seconds an open breaker waits before letting a half-open probe
    #: through to the primary.
    breaker_cooldown_s: float = 1.0

    # -- streaming refresh (RefreshPolicy twin) -----------------------
    drift_threshold: float = 0.05
    ingest_threshold: float = 0.10
    qerror_threshold: Optional[float] = None
    retrain_drift_threshold: float = 0.5
    fast_fraction: float = FAST_REFRESH_FRACTION
    train_duty: Optional[float] = 0.3
    min_interval_seconds: float = 0.0
    #: Background refresher poll cadence (seconds).
    poll_interval: float = 0.05

    # -- HTTP front end (PR 7) ----------------------------------------
    #: Network front-end section (None = in-process serving only).
    http: Optional[HttpConfig] = None

    # -- estimator cascade (PR 10) ------------------------------------
    #: Routing section for :meth:`EstimationService.enable_cascade`
    #: (None = every query goes straight to the neural model).
    cascade: Optional[CascadeConfig] = None

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`ServingError` naming the first invalid field."""
        if self.max_batch < 1:
            raise ServingError("max_batch must be >= 1")
        if self.max_wait_us < 0:
            raise ServingError("max_wait_us must be >= 0")
        if self.cache_size != 0:
            raise ServingError(RETIRED_CACHE)
        if self.budget_bytes is not None and self.budget_bytes <= 0:
            raise ServingError("budget_bytes must be positive (or None for unbounded)")
        if self.workers < 0:
            raise ServingError("workers must be >= 0 (0 serves inline)")
        if self.min_shard < 1:
            raise ServingError("min_shard must be >= 1")
        if self.breaker_failures < 1:
            raise ServingError("breaker_failures must be >= 1")
        if self.breaker_cooldown_s < 0:
            raise ServingError("breaker_cooldown_s must be >= 0")
        for field in ("drift_threshold", "ingest_threshold", "retrain_drift_threshold"):
            value = getattr(self, field)
            if not 0.0 <= value <= 1.0:
                raise ServingError(f"{field} must be within [0, 1], got {value!r}")
        if self.qerror_threshold is not None and self.qerror_threshold < 1.0:
            raise ServingError("qerror_threshold must be >= 1 (or None to disable)")
        if not 0.0 < self.fast_fraction <= 1.0:
            raise ServingError("fast_fraction must be within (0, 1]")
        if self.train_duty is not None and not 0.0 < self.train_duty <= 1.0:
            raise ServingError("train_duty must be within (0, 1] (or None = unthrottled)")
        if self.min_interval_seconds < 0:
            raise ServingError("min_interval_seconds must be >= 0")
        if self.poll_interval <= 0:
            raise ServingError("poll_interval must be positive")
        if self.http is not None:
            if not isinstance(self.http, HttpConfig):
                raise ServingError(
                    f"http must be an HttpConfig (or None), got {type(self.http).__name__}"
                )
            self.http.validate()
        if self.cascade is not None:
            if not isinstance(self.cascade, CascadeConfig):
                raise ServingError(
                    "cascade must be a CascadeConfig (or None), got "
                    f"{type(self.cascade).__name__}"
                )
            self.cascade.validate()

    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, values: dict) -> "ServingConfig":
        """Build from a plain mapping; unknown keys are hard errors.

        Serving configs come from deployment files — a misspelled knob
        silently falling back to its default is exactly the failure mode
        this class exists to kill.
        """
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(values) - known)
        if unknown:
            raise ServingError(
                f"unknown ServingConfig field(s) {unknown}; known: {sorted(known)}"
            )
        http = values.get("http")
        if isinstance(http, dict):
            values = dict(values)
            values["http"] = HttpConfig.from_dict(http)
        cascade = values.get("cascade")
        if isinstance(cascade, dict):
            values = dict(values)
            values["cascade"] = CascadeConfig.from_dict(cascade)
        return cls(**values)

    def to_dict(self) -> dict:
        """Plain-dict form; ``from_dict(to_dict())`` round-trips exactly."""
        out = dataclasses.asdict(self)
        if self.http is not None:
            out["http"] = self.http.to_dict()
        if self.cascade is not None:
            out["cascade"] = self.cascade.to_dict()
        return out

    # ------------------------------------------------------------------
    def scheduler_opts(self) -> dict:
        """Keyword arguments for :class:`MicroBatchScheduler`."""
        return dict(
            max_batch=self.max_batch,
            max_wait_us=self.max_wait_us,
        )

    def pool_opts(self) -> dict:
        """Keyword arguments for :class:`~repro.serving.workers.WorkerPool`."""
        return dict(
            n_workers=max(self.workers, 1),
            min_shard=self.min_shard,
        )

    def refresh_policy(self) -> RefreshPolicy:
        """The :class:`RefreshPolicy` twin of this config's refresh fields."""
        return RefreshPolicy(
            drift_threshold=self.drift_threshold,
            ingest_threshold=self.ingest_threshold,
            qerror_threshold=self.qerror_threshold,
            retrain_drift_threshold=self.retrain_drift_threshold,
            fast_fraction=self.fast_fraction,
            train_duty=self.train_duty,
            min_interval_seconds=self.min_interval_seconds,
        )
