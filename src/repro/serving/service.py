"""EstimationService: the one-object serving front door.

Ties a :class:`~repro.serving.registry.ModelRegistry` (who owns which
model) to per-model :class:`~repro.serving.scheduler.MicroBatchScheduler`
instances (how concurrent requests reach it), so an application does::

    service = EstimationService()
    service.register("imdb", estimator)          # or register_path(...)
    future = service.submit(query, model="imdb")  # from any thread
    count = future.result()
    service.refresh("imdb", new_snapshot, train_tuples=50_000)  # hot-swap

A single-model service also quacks like an estimator (``estimate`` /
``estimate_batch``), so it drops straight into
:func:`repro.eval.harness.evaluate_estimator` and the benchmark suites.

Degraded-mode cascade (PR 9): :meth:`register_fallback` attaches a cheap
estimator (default: training-free per-table statistics) behind a model's
per-model :class:`~repro.serving.resilience.CircuitBreaker`. While the
breaker is closed, primary failures are answered by the fallback (and
counted); after ``config.breaker_failures`` consecutive failures the
breaker opens and traffic skips the broken primary entirely until a
half-open probe succeeds. Fallback-served futures carry
``future.degraded == True`` — the HTTP layer surfaces that as
``"degraded": true`` in response bodies and a counter on ``/metrics``.
Deadline expiries and invalid queries are never cascaded: they are the
caller's signal, not a serving failure.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from pathlib import Path
from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.estimator import NeuroCard
from repro.errors import DeadlineError, QueryError, ServingError
from repro.relational.query import Query
from repro.relational.schema import JoinSchema
from repro.serving.cascade import CascadeCalibration, EstimatorCascade, Tier
from repro.serving.config import ServingConfig
from repro.serving.registry import ModelRegistry
from repro.serving.resilience import FALLBACK, PROBE, CircuitBreaker
from repro.serving.scheduler import MicroBatchScheduler, queue_wait_histogram
from repro.serving.updates import (
    BackgroundRefresher,
    DriftMonitor,
    RefreshPolicy,
    StreamingIngestor,
)
from repro.serving.workers import WorkerPool


class EstimationService:
    """Registry + schedulers (+ worker pools) behind one façade.

    All knobs live in one :class:`~repro.serving.config.ServingConfig`;
    with ``config.workers > 0`` each served model gets a
    :class:`~repro.serving.workers.WorkerPool` and its scheduler shards
    micro-batches across processes instead of executing them inline.
    Safe to share across threads.
    """

    def __init__(
        self,
        registry: Optional[ModelRegistry] = None,
        *,
        config: Optional[ServingConfig] = None,
    ):
        config = config if config is not None else ServingConfig()
        self.config = config
        self.registry = (
            registry
            if registry is not None
            else ModelRegistry(budget_bytes=config.budget_bytes)
        )
        self._schedulers: Dict[str, MicroBatchScheduler] = {}
        #: Every scheduler observes into this one histogram, labelled by
        #: model; ``/metrics`` renders it.
        self.queue_wait = queue_wait_histogram()
        self._pools: Dict[str, WorkerPool] = {}
        self._refreshers: list[BackgroundRefresher] = []
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._cascades: Dict[str, EstimatorCascade] = {}
        self._fallbacks: Dict[str, object] = {}
        self._degraded: Dict[str, int] = {}
        self._fallback_errors: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._closed = False
        # Eager publish on hot-swap: the new version reaches every worker
        # pipe (in-band, ahead of any post-swap batch) before swap()
        # returns, so multiprocess serving never answers a post-swap
        # request from a stale worker version.
        self.registry.subscribe(self._on_swap)

    # ------------------------------------------------------------------
    # Model management (delegates to the registry)
    # ------------------------------------------------------------------
    def register(self, name: str, estimator: NeuroCard) -> "EstimationService":
        self.registry.register(name, estimator)
        return self

    def register_path(
        self, name: str, path, schema: JoinSchema
    ) -> "EstimationService":
        self.registry.register_path(name, path, schema)
        return self

    def swap(self, name: str, estimator: NeuroCard) -> int:
        """Hot-swap ``name``; in-flight batches finish on the old model."""
        return self.registry.swap(name, estimator)

    def refresh(
        self, name: str, new_schema: JoinSchema, train_tuples: Optional[int] = None
    ) -> int:
        """Incrementally retrain a *copy* onto a snapshot, then hot-swap it in.

        Readers never block: the scheduler reads the registry per flush, so
        a batch that starts after the swap runs on the new version, while
        batches already running finish on the old one, which is left as it
        was.
        """
        return self.registry.refresh(name, new_schema, train_tuples=train_tuples)

    def serve_with_updates(
        self,
        name: str,
        ingestor: StreamingIngestor,
        *,
        policy: Optional[RefreshPolicy] = None,
        monitor: Optional[DriftMonitor] = None,
        poll_interval: Optional[float] = None,
    ) -> BackgroundRefresher:
        """Keep ``name`` fresh against an ingest stream (started refresher).

        Attaches a :class:`~repro.serving.updates.BackgroundRefresher` that
        polls ``ingestor``, consults the drift monitor/policy, and hot-swaps
        refreshed models in behind this service's schedulers — traffic is
        never blocked, and the refresher is closed with the service.
        """
        refresher = BackgroundRefresher(
            self, name, ingestor,
            policy=policy if policy is not None else self.config.refresh_policy(),
            monitor=monitor,
            poll_interval=(
                poll_interval if poll_interval is not None
                else self.config.poll_interval
            ),
        )
        with self._lock:
            if self._closed:
                raise ServingError("service is closed")
            self._refreshers.append(refresher)
            cascade = self._cascades.get(name)
        if cascade is not None:
            # Stale model -> the cascade demotes the neural tier's bound
            # (routing path), long before the breaker sees failures.
            self._wire_staleness(name, cascade, [refresher])
        return refresher.start()

    def register_fallback(
        self, model: Optional[str] = None, estimator=None
    ) -> "EstimationService":
        """Attach a degraded-mode fallback estimator behind ``model``'s breaker.

        With no ``estimator``, a training-free
        :class:`~repro.baselines.per_table.PerTableStatsEstimator` is built
        from the registered model's schema — exact on single-table
        conjunctions, independence-assumption across joins, and immune to
        whatever broke the primary (no weights, no workers, no artifacts).
        Once registered, primary failures are answered by the fallback and
        the per-model circuit breaker starts routing (see module docstring).
        """
        name = self._resolve(model)
        if name not in self.registry:
            raise ServingError(f"unknown model {name!r}")
        if estimator is None:
            schema = getattr(self.registry.get(name), "schema", None)
            if schema is None:
                raise ServingError(
                    f"model {name!r} exposes no schema; pass an explicit "
                    "fallback estimator"
                )
            from repro.baselines.per_table import PerTableStatsEstimator

            estimator = PerTableStatsEstimator(schema)
        with self._lock:
            if self._closed:
                raise ServingError("service is closed")
            self._fallbacks[name] = estimator
        return self

    def breaker(self, model: Optional[str] = None) -> CircuitBreaker:
        """The (lazily created) circuit breaker in front of ``model``."""
        name = self._resolve(model)
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = CircuitBreaker(
                    failures=self.config.breaker_failures,
                    cooldown_s=self.config.breaker_cooldown_s,
                )
                self._breakers[name] = breaker
        return breaker

    # ------------------------------------------------------------------
    # Estimator cascade (routing path; distinct from the breaker above)
    # ------------------------------------------------------------------
    def attach_cascade(
        self, cascade: EstimatorCascade, model: Optional[str] = None
    ) -> "EstimationService":
        """Route ``model``'s submits through ``cascade``.

        The cascade's final tier must be its neural tier: queries routed
        there go through the registered model's micro-batching scheduler
        (seeds, deadlines, breaker all apply); queries a cheaper
        tier answers are served inline and skip batching entirely.
        """
        name = self._resolve(model)
        if name not in self.registry:
            raise ServingError(f"unknown model {name!r}")
        if not cascade.final_tier.neural:
            raise ServingError(
                "the cascade's final tier must be registered with neural=True"
            )
        with self._lock:
            if self._closed:
                raise ServingError("service is closed")
            self._cascades[name] = cascade
            refreshers = list(self._refreshers)
        self._wire_staleness(name, cascade, refreshers)
        return self

    def enable_cascade(
        self,
        model: Optional[str] = None,
        *,
        estimators: Optional[Dict[str, object]] = None,
        calibration: Optional[CascadeCalibration] = None,
    ) -> EstimatorCascade:
        """Build + attach the cascade described by ``config.cascade``.

        Tier names in ``config.cascade.tiers`` (final entry = the neural
        tier, served by the registered model) resolve to built-ins —
        ``per_table``/``stats``, ``deepdb``/``spn``, ``join_samples``/
        ``sampling`` — unless ``estimators`` supplies an instance for that
        name. Calibration comes from the ``calibration`` argument, else
        ``config.cascade.calibration_path`` when the file exists, else the
        cascade starts uncalibrated (everything escalates until
        :meth:`EstimatorCascade.calibrate` runs).
        """
        cfg = self.config.cascade
        if cfg is None:
            raise ServingError(
                "enable_cascade requires a config.cascade section "
                "(or build an EstimatorCascade and attach_cascade it)"
            )
        name = self._resolve(model)
        if name not in self.registry:
            raise ServingError(f"unknown model {name!r}")
        primary = self.registry.get(name)
        schema = getattr(primary, "schema", None)
        if schema is None:  # bare inference engines carry it on the layout
            layout = getattr(primary, "layout", None)
            schema = getattr(layout, "schema", None)
        if schema is None:
            raise ServingError(
                f"model {name!r} exposes no schema; cascade tiers cannot be built"
            )
        if calibration is None and cfg.calibration_path is not None:
            path = Path(cfg.calibration_path)
            if path.exists():
                calibration = CascadeCalibration.load(path)
        cascade = EstimatorCascade(
            schema,
            calibration=calibration,
            default_max_q_error=cfg.default_max_q_error,
            default_budget_ms=cfg.default_budget_ms,
            min_class_queries=cfg.min_class_queries,
            demote_staleness_qerror=cfg.demote_staleness_qerror,
        )
        supplied = dict(estimators or {})
        for tier_name in cfg.tiers[:-1]:
            estimator = supplied.pop(tier_name, None)
            if estimator is None:
                estimator = self._build_tier(tier_name, schema)
            cascade.register(tier_name, estimator)
        final_name = cfg.tiers[-1]
        cascade.register(final_name, supplied.pop(final_name, primary), neural=True)
        if supplied:
            raise ServingError(
                f"estimators supplied for unknown cascade tiers: {sorted(supplied)}"
            )
        self.attach_cascade(cascade, name)
        return cascade

    @staticmethod
    def _build_tier(tier_name: str, schema: JoinSchema):
        """Default estimator for a named tier (lazy imports keep layering)."""
        if tier_name in ("per_table", "stats"):
            from repro.baselines.per_table import PerTableStatsEstimator

            return PerTableStatsEstimator(schema)
        if tier_name in ("deepdb", "spn"):
            from repro.baselines.spn import DeepDBEstimator

            return DeepDBEstimator(schema)
        if tier_name in ("join_samples", "sampling"):
            from repro.baselines.sampling import JoinSampleEstimator

            return JoinSampleEstimator(schema)
        raise ServingError(
            f"no built-in estimator for cascade tier {tier_name!r}; "
            "pass estimators={...} with an instance"
        )

    def cascade_for(self, model: Optional[str] = None) -> Optional[EstimatorCascade]:
        """The cascade attached to ``model`` (None when routing is off)."""
        name = self._resolve(model)
        with self._lock:
            return self._cascades.get(name)

    def _neural_latency_ms(self, name: str) -> Optional[float]:
        with self._lock:
            scheduler = self._schedulers.get(name)
        if scheduler is None:
            return None
        return scheduler.predicted_latency_ms()

    @staticmethod
    def _wire_staleness(
        name: str, cascade: EstimatorCascade, refreshers
    ) -> None:
        """Point the cascade's demotion signal at ``name``'s drift monitor."""
        if cascade.staleness_provider is not None:
            return
        for refresher in refreshers:
            if refresher.name != name:
                continue
            monitor, ingestor = refresher.monitor, refresher.ingestor

            def _staleness() -> float:
                return monitor.observe(*ingestor.snapshot()).staleness_qerror

            cascade.staleness_provider = _staleness
            return

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def scheduler(self, model: Optional[str] = None) -> MicroBatchScheduler:
        """The (lazily created) scheduler in front of ``model``."""
        name = self._resolve(model)
        if name not in self.registry:
            raise ServingError(f"unknown model {name!r}")
        with self._lock:
            if self._closed:
                raise ServingError("service is closed")
            scheduler = self._schedulers.get(name)
            if scheduler is None:
                pool = None
                if self.config.workers > 0:
                    pool = self._pools.get(name)
                    if pool is None:
                        pool = WorkerPool(name=name, **self.config.pool_opts())
                        self._pools[name] = pool
                scheduler = MicroBatchScheduler(
                    lambda: self.registry.get_with_version(name),
                    name=name,
                    executor=pool,
                    **self.config.scheduler_opts(),
                )
                scheduler.queue_wait = self.queue_wait
                self._schedulers[name] = scheduler
        return scheduler

    def pool(self, model: Optional[str] = None) -> Optional[WorkerPool]:
        """The worker pool behind ``model`` (None when serving inline)."""
        name = self._resolve(model)
        with self._lock:
            return self._pools.get(name)

    @property
    def refreshers(self) -> tuple:
        """Attached background refreshers (health/metrics introspection)."""
        with self._lock:
            return tuple(self._refreshers)

    def _on_swap(self, name: str, estimator: NeuroCard, version: int) -> None:
        with self._lock:
            pool = self._pools.get(name)
        if pool is not None:
            pool.publish(estimator, version, wait=True)

    def submit(
        self,
        query: Query,
        *,
        model: Optional[str] = None,
        seed: Optional[int] = None,
        deadline: Optional[float] = None,
        budget_ms: Optional[float] = None,
        max_q_error: Optional[float] = None,
    ) -> Future:
        """Submit ``query``; routed through the cascade / breaker when attached.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp: requests
        still queued when it passes fail with
        :class:`~repro.errors.DeadlineError` *before* dispatch, so expired
        work never occupies a worker. Returned futures carry a ``degraded``
        attribute (True when the answer came from the fallback estimator).

        With a cascade attached (:meth:`attach_cascade`), ``budget_ms`` and
        ``max_q_error`` are the caller's per-query contract: a cheap tier
        whose calibrated bound fits answers inline — no queueing, no
        batching — and the returned future carries ``future.tier``; only
        escalated queries reach the scheduler (and the breaker's failure
        path). Without a cascade both knobs are ignored.
        """
        name = self._resolve(model)
        cascade = self._cascades.get(name)
        if cascade is not None:
            decision = cascade.route(
                query,
                max_q_error=max_q_error,
                budget_ms=budget_ms,
                neural_latency_ms=self._neural_latency_ms(name),
            )
            if not decision.tier.neural:
                inline = self._answer_inline(
                    cascade, decision.tier, query, deadline
                )
                if inline is not None:
                    return inline
                # Tier raised a serving (non-Query) error: escalate this
                # query to the neural tier instead of failing the caller.
            future = self._submit_neural(name, query, seed=seed, deadline=deadline)
            final_name = cascade.final_tier.name
            cascade.record_answer(final_name)
            future.tier = final_name
            return future
        return self._submit_neural(name, query, seed=seed, deadline=deadline)

    def _answer_inline(
        self,
        cascade: EstimatorCascade,
        tier: Tier,
        query: Query,
        deadline: Optional[float],
    ) -> Optional[Future]:
        """Serve ``query`` from a cheap tier, inline on the caller's thread.

        Returns None when the tier fails with a serving error (the caller
        escalates to the neural path); invalid-query errors raise — they
        are the caller's bug on every tier alike.
        """
        future: Future = Future()
        future.degraded = False
        future.tier = tier.name
        if deadline is not None and time.monotonic() >= deadline:
            future.set_exception(
                DeadlineError(
                    f"deadline expired before inline tier {tier.name!r} ran"
                )
            )
            return future
        try:
            value = float(tier.estimator.estimate(query))
        except QueryError:
            raise
        except Exception:
            cascade.record_tier_error(tier.name)
            return None
        cascade.record_answer(tier.name)
        future.set_result(value)
        return future

    def _submit_neural(
        self,
        name: str,
        query: Query,
        *,
        seed: Optional[int],
        deadline: Optional[float],
    ) -> Future:
        """The pre-cascade submit path: scheduler + breaker/fallback cascade."""
        fallback = self._fallbacks.get(name)
        if fallback is None:
            # No fallback registered: original semantics, untouched — the
            # breaker isn't even consulted, so errors surface verbatim.
            return self.scheduler(name).submit(query, seed=seed, deadline=deadline)

        breaker = self.breaker(name)
        route = breaker.allow()
        if route == FALLBACK:
            # Open circuit: skip the broken primary entirely (no scheduler
            # queueing, no worker dispatch) and answer from the fallback.
            outer: Future = Future()
            self._resolve_degraded(outer, name, query, fallback, cause=None)
            return outer

        probe = route == PROBE
        try:
            inner = self.scheduler(name).submit(query, seed=seed, deadline=deadline)
        except QueryError:
            if probe:
                breaker.record_success(probe=True)  # release the probe slot
            raise
        except Exception as exc:
            # Submit-time serving failure (closed scheduler, dead flusher,
            # artifact load error): counts against the breaker and cascades.
            breaker.record_failure(probe=probe)
            outer = Future()
            self._resolve_degraded(outer, name, query, fallback, cause=exc)
            return outer

        outer = Future()
        outer.degraded = False

        def _settle(done: Future) -> None:
            exc = done.exception()
            if exc is None:
                breaker.record_success(probe=probe)
                outer.set_result(done.result())
            elif isinstance(exc, (DeadlineError, QueryError)):
                # The caller's signal (expired budget / invalid query) —
                # neither a serving failure nor something to answer for.
                if probe:
                    breaker.record_success(probe=True)
                outer.set_exception(exc)
            else:
                breaker.record_failure(probe=probe)
                self._resolve_degraded(outer, name, query, fallback, cause=exc)

        inner.add_done_callback(_settle)
        return outer

    def _resolve_degraded(
        self, outer: Future, name: str, query: Query, fallback, *, cause
    ) -> None:
        """Answer ``outer`` from the fallback estimator (or the original error)."""
        try:
            estimate = float(fallback.estimate(query))
        except Exception as fallback_exc:
            with self._lock:
                self._fallback_errors[name] = self._fallback_errors.get(name, 0) + 1
            outer.set_exception(cause if cause is not None else fallback_exc)
            return
        with self._lock:
            self._degraded[name] = self._degraded.get(name, 0) + 1
        outer.degraded = True
        outer.set_result(estimate)

    def estimate(
        self, query: Query, *, model: Optional[str] = None, seed: Optional[int] = None
    ) -> float:
        return self.submit(query, model=model, seed=seed).result()

    def estimate_batch(
        self, queries: Sequence[Query], *, model: Optional[str] = None
    ) -> np.ndarray:
        futures = [self.submit(q, model=model) for q in queries]
        return np.array([f.result() for f in futures], dtype=np.float64)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Dict]:
        """Scheduler telemetry per model (under ``models``) + registry counters."""
        with self._lock:
            schedulers = dict(self._schedulers)
            pools = dict(self._pools)
            refreshers = list(self._refreshers)
            breakers = dict(self._breakers)
            cascades = dict(self._cascades)
            fallbacks = set(self._fallbacks)
            degraded = dict(self._degraded)
            fallback_errors = dict(self._fallback_errors)
        stats = {
            "models": {name: s.stats() for name, s in schedulers.items()},
            "registry": {
                "n_models": len(self.registry.names()),
                "resident_bytes": self.registry.resident_bytes,
                "loads": self.registry.loads,
                "evictions": self.registry.evictions,
            },
        }
        if pools:
            stats["pools"] = {name: p.stats() for name, p in pools.items()}
        if refreshers:
            stats["updates"] = {r.name: r.stats() for r in refreshers}
        if breakers or fallbacks:
            resilience: Dict[str, Dict] = {}
            for name in sorted(set(breakers) | fallbacks):
                entry = breakers[name].stats() if name in breakers else {}
                entry["fallback_registered"] = int(name in fallbacks)
                entry["degraded_responses"] = degraded.get(name, 0)
                entry["fallback_errors"] = fallback_errors.get(name, 0)
                resilience[name] = entry
            stats["resilience"] = resilience
        if cascades:
            stats["cascade"] = {name: c.stats() for name, c in cascades.items()}
        return stats

    def close(self) -> None:
        """Stop refreshers, then schedulers, then worker pools. Idempotent."""
        with self._lock:
            self._closed = True
            schedulers = list(self._schedulers.values())
            self._schedulers.clear()
            pools = list(self._pools.values())
            self._pools.clear()
            refreshers = list(self._refreshers)
            self._refreshers.clear()
        # Refreshers first: a refresh completing after its schedulers are
        # gone would be wasted work (though harmless — swaps touch only the
        # registry). Pools last: schedulers drain their queues into the
        # pool, so the pool must outlive every flusher.
        for refresher in refreshers:
            refresher.close()
        for scheduler in schedulers:
            scheduler.close()
        for pool in pools:
            pool.close()

    def __enter__(self) -> "EstimationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _resolve(self, model: Optional[str]) -> str:
        if model is not None:
            return model
        names = self.registry.names()
        if len(names) != 1:
            raise ServingError(
                "model name required when the registry holds "
                f"{len(names)} models: {sorted(names)}"
            )
        return names[0]

    @property
    def size_bytes(self) -> Optional[int]:
        """Resident model bytes (harness Size column for single-model services)."""
        return self.registry.resident_bytes or None
