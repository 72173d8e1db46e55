"""Concurrent estimation service: registry + scheduler + worker pools.

The serving layer turns many concurrent single-query callers into the
batched inference fast path:

* :class:`ModelRegistry` — named fitted estimators with lazy artifact
  loading, size-budgeted eviction, and non-blocking hot-swap/refresh;
* :class:`MicroBatchScheduler` — coalesces concurrent ``submit(query)``
  calls into single ``estimate_batch`` invocations (a batch goes once
  it holds every expected caller; ``max_batch`` caps it and
  ``max_wait_us`` bounds the wait for a straggler) with per-caller futures,
  each answered fresh at the model's own sample budget;
* :class:`WorkerPool` — the scheduler's executor: shards those
  micro-batches across N worker processes that serve the model's kernel
  table from immutable versioned shared-memory blobs (zero-copy, hot-swap
  aware);
* :class:`ServingConfig` — every serving knob in one validated,
  dict-round-trippable dataclass;
* :class:`EstimationService` — the façade tying all of it together;
* :mod:`repro.serving.updates` — streaming ingest, drift monitoring, and
  background refresh, so the served model stays fresh while the underlying
  data changes under load (:class:`StreamingIngestor`,
  :class:`DriftMonitor`, :class:`RefreshPolicy`,
  :class:`BackgroundRefresher`);
* :mod:`repro.serving.http` — an asyncio HTTP/1.1 front end exposing the
  service over the network (:class:`EstimationHttpServer`,
  :class:`HttpServerThread`, :func:`~repro.serving.http.serve`) with
  per-tenant admission control (:class:`~repro.serving.admission.AdmissionController`,
  :class:`TenantQuota`, :class:`HttpConfig`) and Prometheus ``/metrics``;
* :class:`HttpEstimationClient` — the wire client, protocol-compatible
  with every in-process client above;
* :mod:`repro.serving.faults` — deterministic fault injection
  (:class:`FaultPlan`, :class:`FaultInjector`) at named seams across the
  stack, and :mod:`repro.serving.resilience` — the per-model
  :class:`CircuitBreaker` behind
  :meth:`EstimationService.register_fallback`'s degraded-mode cascade
  (see ``docs/resilience.md``);
* :mod:`repro.serving.cascade` — the latency-budgeted estimator cascade
  (:class:`EstimatorCascade`, :class:`CascadeCalibration`,
  :class:`QueryFeatures`): cheap tiers answer easy queries inline, only
  the hard tail escalates to the neural model (see
  ``docs/estimators.md``); configured via :class:`CascadeConfig` and
  attached with :meth:`EstimationService.attach_cascade` /
  :meth:`EstimationService.enable_cascade`.

Everything that answers queries — a bare estimator, a scheduler, a
service, the wire client — satisfies the :class:`EstimationClient`
protocol, so harnesses and applications can be written once against the
protocol and handed any serving depth.
"""

from typing import Protocol, Sequence, runtime_checkable

from repro.serving.admission import AdmissionController, TenantQuota
from repro.serving.cascade import CascadeCalibration, EstimatorCascade, QueryFeatures
from repro.serving.config import CascadeConfig, HttpConfig, ServingConfig
from repro.serving.faults import FaultInjector, FaultPlan, FaultSpec, injected
from repro.serving.http import EstimationHttpServer, HttpServerThread, serve
from repro.serving.http_client import HttpEstimationClient
from repro.serving.metrics import MetricsRegistry
from repro.serving.registry import ModelRegistry
from repro.serving.resilience import CircuitBreaker
from repro.serving.scheduler import MicroBatchScheduler
from repro.serving.service import EstimationService
from repro.serving.updates import (
    BackgroundRefresher,
    DriftMonitor,
    DriftReport,
    RefreshEvent,
    RefreshPolicy,
    StreamingIngestor,
)
from repro.serving.workers import WorkerPool


@runtime_checkable
class EstimationClient(Protocol):
    """Anything that answers cardinality queries, at any serving depth.

    :class:`~repro.core.estimator.NeuroCard`, :class:`MicroBatchScheduler`,
    :class:`EstimationService` and :class:`HttpEstimationClient` all
    conform (a :class:`WorkerPool` does not: it is reached through a
    scheduler), so
    :func:`repro.eval.harness.evaluate_estimator` (including its
    ``concurrency=N`` closed-loop mode) and application code accept any of
    them interchangeably. Clients with a ``submit(query) -> Future`` method
    additionally support pipelined (non-blocking) submission; callers that
    need it should feature-test with ``hasattr``.
    """

    def estimate(self, query, **kwargs) -> float:
        """Blocking single-query COUNT(*) estimate."""
        ...  # pragma: no cover - protocol stub

    def estimate_batch(self, queries: Sequence, **kwargs):
        """Estimates for ``queries``, in order (array-like of float)."""
        ...  # pragma: no cover - protocol stub


__all__ = [
    "EstimationClient",
    "EstimationService",
    "MicroBatchScheduler",
    "ModelRegistry",
    "ServingConfig",
    "WorkerPool",
    "StreamingIngestor",
    "DriftMonitor",
    "DriftReport",
    "RefreshPolicy",
    "RefreshEvent",
    "BackgroundRefresher",
    "AdmissionController",
    "TenantQuota",
    "HttpConfig",
    "EstimationHttpServer",
    "HttpServerThread",
    "HttpEstimationClient",
    "MetricsRegistry",
    "serve",
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "injected",
    "CircuitBreaker",
    "EstimatorCascade",
    "CascadeCalibration",
    "CascadeConfig",
    "QueryFeatures",
]
