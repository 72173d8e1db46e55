"""Request admission: per-tenant quotas, bounded queue, deadline shedding.

The HTTP front end admits a request *before* it may consume scheduler
batch slots; this module is the gatekeeper. Three independent checks, in
order, each with its own rejection status so clients can react correctly:

1. **tenant resolution** — unknown tenants are rejected (``403``) when the
   controller is strict; otherwise they fall back to the default quota.
2. **token-bucket quota** (``429``) — each tenant owns a bucket refilled at
   ``rate`` tokens/second up to ``burst``; a request costs one token per
   query it carries, so a 64-query batch draws 64 tokens. Rejections carry
   the exact ``Retry-After`` the bucket needs to cover the request.
3. **bounded queue + deadline shedding** (``503``) — at most ``max_queue``
   requests may be in flight behind the admission gate, and a request
   carrying a deadline is shed up front when the controller predicts it
   cannot be met: predicted completion is the EWMA of recent request
   latencies scaled by instantaneous occupancy,
   ``ewma * (1 + in_flight / max_queue)``. Shedding before submission is
   the whole point — a doomed request must not displace feasible ones from
   micro-batches.

The controller is deliberately model-agnostic (it never imports the
scheduler); time is injected via ``clock`` so tests drive it
deterministically. All state is lock-guarded: admission runs on the
asyncio loop while completions (:meth:`AdmissionController.release`) land
on scheduler worker threads.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.errors import ServingError

#: Latency EWMA smoothing factor (weight of the newest observation).
EWMA_ALPHA = 0.2


@dataclass(frozen=True)
class TenantQuota:
    """One tenant's admission contract.

    ``rate`` is tokens (queries) per second; ``burst`` is the bucket
    capacity (defaults to ``rate``, i.e. up to one second of traffic may
    arrive instantaneously). ``rate=None`` disables rate limiting for the
    tenant (the bucket always admits).
    """

    name: str
    rate: Optional[float] = None
    burst: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ServingError("tenant name must be non-empty")
        if self.rate is not None and self.rate <= 0:
            raise ServingError(f"tenant {self.name!r}: rate must be positive or None")
        if self.burst is not None and self.burst <= 0:
            raise ServingError(f"tenant {self.name!r}: burst must be positive")

    @property
    def capacity(self) -> Optional[float]:
        if self.rate is None:
            return None
        return self.burst if self.burst is not None else self.rate


class TokenBucket:
    """Classic token bucket; returns retry-after instead of raising.

    :meth:`acquire` atomically refills from elapsed time and either takes
    ``tokens`` (returning ``0.0``) or leaves the bucket untouched and
    returns the seconds until the deficit refills. Unlimited buckets
    (``rate=None``) always admit.
    """

    def __init__(
        self,
        rate: Optional[float],
        burst: Optional[float] = None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ):
        if rate is not None and rate <= 0:
            raise ServingError("rate must be positive (or None for unlimited)")
        self.rate = rate
        self.burst = (burst if burst is not None else rate) or 0.0
        self._clock = clock
        self._tokens = self.burst
        self._refilled_at = clock()
        self._lock = threading.Lock()

    def acquire(self, tokens: float = 1.0) -> float:
        """Take ``tokens`` now; 0.0 on success, else seconds to retry after."""
        if self.rate is None:
            return 0.0
        now = self._clock()
        with self._lock:
            elapsed = max(now - self._refilled_at, 0.0)
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._refilled_at = now
            if self._tokens >= tokens:
                self._tokens -= tokens
                return 0.0
            return (tokens - self._tokens) / self.rate

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one :meth:`AdmissionController.admit` call."""

    admitted: bool
    #: HTTP status to surface on rejection (403/429/503); 200 when admitted.
    status: int = 200
    #: Rejection class: ``tenant`` / ``rate`` / ``queue`` / ``deadline``.
    reason: str = ""
    #: Suggested client back-off in seconds (Retry-After, rounded up).
    retry_after: float = 0.0


_ADMITTED = AdmissionDecision(True)


class AdmissionController:
    """Per-tenant token buckets + one bounded in-flight queue + shedding.

    ``admit`` must be paired with ``release`` for every admitted request
    (the HTTP layer does so in a ``finally``); ``release`` feeds the
    latency EWMA that powers deadline prediction.
    """

    def __init__(
        self,
        *,
        max_queue: int = 64,
        default_quota: Optional[TenantQuota] = None,
        tenants: Tuple[TenantQuota, ...] = (),
        strict_tenants: bool = False,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_queue < 1:
            raise ServingError("max_queue must be >= 1")
        self.max_queue = max_queue
        self.strict_tenants = strict_tenants
        self._clock = clock
        self._default_quota = (
            default_quota if default_quota is not None else TenantQuota("default")
        )
        self._quotas: Dict[str, TenantQuota] = {q.name: q for q in tenants}
        self._buckets: Dict[str, TokenBucket] = {}
        self._lock = threading.Lock()
        self._in_flight = 0
        self._ewma_latency: Optional[float] = None
        # Monotonic counters, by tenant then reason/outcome; the /metrics
        # endpoint mirrors them, the load generator reconciles against them.
        self.admitted: Dict[str, int] = {}
        self.shed: Dict[Tuple[str, str], int] = {}

    # ------------------------------------------------------------------
    def quota_for(self, tenant: str) -> Optional[TenantQuota]:
        """The quota governing ``tenant``; None for unknown-and-strict."""
        quota = self._quotas.get(tenant)
        if quota is not None:
            return quota
        if self.strict_tenants:
            return None
        return TenantQuota(tenant, self._default_quota.rate, self._default_quota.burst)

    def _bucket(self, quota: TenantQuota) -> TokenBucket:
        with self._lock:
            bucket = self._buckets.get(quota.name)
            if bucket is None:
                bucket = TokenBucket(quota.rate, quota.burst, clock=self._clock)
                self._buckets[quota.name] = bucket
            return bucket

    # ------------------------------------------------------------------
    def admit(
        self,
        tenant: str,
        *,
        cost: int = 1,
        deadline_s: Optional[float] = None,
    ) -> AdmissionDecision:
        """Admit or reject one request of ``cost`` queries.

        ``deadline_s`` is the remaining time the caller can wait (already
        relative); pass None for no deadline.
        """
        # A tenant's bucket exists only once its quota resolved, so a known
        # tenant skips the quota lookup.
        bucket = self._buckets.get(tenant)
        if bucket is None:
            quota = self.quota_for(tenant)
            if quota is None:
                return self._reject(tenant, "tenant", 403, 0.0)
            bucket = self._bucket(quota)
        if bucket.rate is not None:
            wait = bucket.acquire(float(cost))
            if wait > 0.0:
                return self._reject(tenant, "rate", 429, wait)
        with self._lock:
            ewma = self._ewma_latency
            if self._in_flight >= self.max_queue:
                reason, retry = "queue", ewma if ewma is not None else 0.05
            elif deadline_s is not None and (
                deadline_s <= 0.0
                or (
                    ewma is not None
                    and ewma * (1.0 + self._in_flight / self.max_queue) > deadline_s
                )
            ):
                reason, retry = "deadline", ewma or 0.0
            else:
                self._in_flight += 1
                self.admitted[tenant] = self.admitted.get(tenant, 0) + 1
                return _ADMITTED
        # The bucket took this request's tokens but the queue/deadline gate
        # turned it away; refund so the gates stay independent.
        if bucket.rate is not None:
            with bucket._lock:
                bucket._tokens = min(bucket.burst, bucket._tokens + float(cost))
        return self._reject(tenant, reason, 503, retry)

    def release(self, latency_s: Optional[float] = None) -> None:
        """Mark one admitted request complete; feed the latency EWMA."""
        with self._lock:
            if self._in_flight > 0:
                self._in_flight -= 1
            if latency_s is not None:
                if self._ewma_latency is None:
                    self._ewma_latency = float(latency_s)
                else:
                    self._ewma_latency = (
                        EWMA_ALPHA * float(latency_s)
                        + (1.0 - EWMA_ALPHA) * self._ewma_latency
                    )

    def _reject(
        self, tenant: str, reason: str, status: int, retry_after: float
    ) -> AdmissionDecision:
        with self._lock:
            key = (tenant, reason)
            self.shed[key] = self.shed.get(key, 0) + 1
        return AdmissionDecision(False, status, reason, retry_after)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    @property
    def ewma_latency(self) -> Optional[float]:
        with self._lock:
            return self._ewma_latency

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "in_flight": self._in_flight,
                "max_queue": self.max_queue,
                "ewma_latency_s": self._ewma_latency,
                "admitted": dict(self.admitted),
                "shed": {f"{t}/{r}": n for (t, r), n in self.shed.items()},
            }


__all__ = [
    "EWMA_ALPHA",
    "AdmissionController",
    "AdmissionDecision",
    "TenantQuota",
    "TokenBucket",
]
