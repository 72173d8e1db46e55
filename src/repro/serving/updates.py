"""Streaming updates: incremental ingest, drift monitoring, background refresh.

PR 3/4 built a serving layer over a *frozen* model; this module converts the
paper's offline §7.6 update experiments into a live subsystem so the
estimator stays accurate while the data changes under load:

* :class:`StreamingIngestor` — accepts row-batch appends against a live
  :class:`~repro.relational.schema.JoinSchema`. Every append produces a new
  immutable, versioned snapshot sharing dictionary code spaces with the
  seed schema (the §7.6 contract), so one model vocabulary covers the whole
  stream and the vectorized
  :meth:`~repro.joins.sampler.FullJoinSampler.for_snapshot` fragment
  routing applies to each snapshot.
* :class:`DriftMonitor` — compares per-column code-frequency histograms of
  the current snapshot against the snapshot the serving model was trained
  on (total-variation divergence), tracks the ingested-row fraction, and
  optionally a rolling served-estimate q-error staleness signal.
* :class:`RefreshPolicy` — thresholds mapping a :class:`DriftReport` to a
  strategy: ``none``, ``fast`` (the paper's ~1%-budget incremental
  retrain), or ``retrain`` (from scratch), reusing the
  :mod:`repro.core.refresh` strategy functions the offline Table 6
  pipeline runs.
* :class:`BackgroundRefresher` — a daemon thread polling the ingestor,
  asking the policy, and driving
  :meth:`~repro.serving.registry.ModelRegistry.refresh` /
  :meth:`~repro.serving.registry.ModelRegistry.swap` without ever blocking
  in-flight :class:`~repro.serving.scheduler.MicroBatchScheduler` traffic:
  training happens on a clone, the swap is one reference assignment that
  the next flushed batch reads, and the clone serves the kernel table its
  training folded. A failed refresh leaves the old model serving and is
  retried only when new data arrives.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.refresh import FAST_REFRESH_FRACTION, full_retrain
from repro.errors import DataError, ServingError
from repro.relational.schema import JoinSchema
from repro.relational.table import Table
from repro.serving import faults


class StreamingIngestor:
    """Versioned append-only ingest against a live join schema.

    Appends arrive per table (a :class:`Table` of new rows, or a plain
    ``{column: values}`` mapping) and are re-encoded against the live
    dictionaries via :meth:`Table.concat`. With ``strict_dictionaries``
    (default), a batch introducing values outside the seed dictionaries is
    rejected — the §7.6 setup fixes code spaces upfront so fast incremental
    refreshes stay valid; pass ``False`` to let dictionaries grow, which
    the refresh policy then treats as forced full retrains (the model
    vocabulary no longer matches).

    Thread-safe: readers get immutable ``(schema, version)`` pairs via
    :meth:`snapshot` while writers append; the serving layer never sees a
    half-applied batch because each ingest installs a fully built schema
    under one reference assignment.
    """

    def __init__(self, schema: JoinSchema, *, strict_dictionaries: bool = True):
        self.strict_dictionaries = strict_dictionaries
        self._schema = schema
        self._version = 0
        self._lock = threading.Lock()
        self.baseline_rows = {n: t.n_rows for n, t in schema.tables.items()}
        self.rows_ingested = 0
        self.batches_ingested = 0

    # ------------------------------------------------------------------
    def snapshot(self) -> Tuple[JoinSchema, int]:
        """The current immutable ``(schema, data_version)`` pair."""
        with self._lock:
            return self._schema, self._version

    @property
    def version(self) -> int:
        with self._lock:
            return self._version

    # ------------------------------------------------------------------
    def ingest(self, table: Table) -> int:
        """Append one table's row batch; returns the new data version."""
        return self.ingest_many([table])

    def ingest_rows(self, table_name: str, rows: Mapping[str, Iterable]) -> int:
        """Append raw ``{column: values}`` rows to ``table_name``."""
        return self.ingest(Table.from_dict(table_name, rows))

    def ingest_many(
        self, tables: Iterable[Table] | Mapping[str, Table]
    ) -> int:
        """Append row batches to several tables as ONE versioned ingest.

        A multi-table delta (e.g. a §7.6 partition: new ``title`` rows plus
        their ``cast_info``/``movie_info`` children) lands atomically: no
        snapshot ever contains the parent rows without their children.
        """
        batch = list(tables.values()) if isinstance(tables, Mapping) else list(tables)
        if not batch:
            raise DataError("ingest batch is empty")
        with self._lock:
            schema = self._schema
            appended = 0
            for delta in batch:
                live = schema.table(delta.name)
                merged = live.concat(delta)
                if self.strict_dictionaries:
                    for col in live.column_names:
                        if (
                            merged.column(col).domain_size
                            != live.column(col).domain_size
                        ):
                            raise DataError(
                                f"ingest batch for {delta.name!r} introduces new "
                                f"values in column {col!r}; snapshots must share "
                                "dictionaries (strict_dictionaries=True)"
                            )
                schema = schema.replace_table(merged)
                appended += delta.n_rows
            self._schema = schema
            self._version += 1
            self.rows_ingested += appended
            self.batches_ingested += 1
            return self._version

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        with self._lock:
            return {
                "version": self._version,
                "batches_ingested": self.batches_ingested,
                "rows_ingested": self.rows_ingested,
                "ingested_fraction": self.rows_ingested
                / max(sum(self.baseline_rows.values()), 1),
            }


# ----------------------------------------------------------------------
# Drift monitoring
# ----------------------------------------------------------------------
@dataclass
class DriftReport:
    """One comparison of the live snapshot against the served model's data."""

    data_version: int
    baseline_version: int
    ingested_rows: int
    baseline_rows: int
    #: Per-column total-variation distance between normalized
    #: code-frequency histograms, keyed by ``"table.column"``.
    column_divergence: Dict[str, float] = field(default_factory=dict)
    #: Rolling median q-error of served estimates against reported truths
    #: (1.0 until feedback is recorded).
    staleness_qerror: float = 1.0
    #: Whether the snapshot grew any column dictionary past the baseline's
    #: (only possible with ``strict_dictionaries=False`` ingest).
    domains_changed: bool = False

    @property
    def ingested_fraction(self) -> float:
        return self.ingested_rows / max(self.baseline_rows, 1)

    @property
    def max_divergence(self) -> float:
        return max(self.column_divergence.values(), default=0.0)

    @property
    def worst_column(self) -> Optional[str]:
        if not self.column_divergence:
            return None
        return max(self.column_divergence, key=self.column_divergence.get)

    @property
    def is_stale(self) -> bool:
        """Any data movement at all since the baseline snapshot."""
        return self.data_version != self.baseline_version


class DriftMonitor:
    """Tracks distribution drift between the served and live snapshots.

    The *baseline* is the snapshot the serving model was last (re)trained
    on; :meth:`rebase` moves it after each successful refresh. Divergence is
    the total-variation distance ``0.5 * Σ|p - q|`` between per-column code
    histograms — 0 for identical distributions, 1 for disjoint support —
    computed over dictionary codes (NULL included), so it is row-order
    invariant and cheap (one ``bincount`` per tracked column).
    """

    def __init__(
        self,
        baseline: JoinSchema,
        *,
        columns: Optional[Sequence[str]] = None,
        baseline_version: int = 0,
        qerror_window: int = 64,
    ):
        if columns is None:
            columns = [
                f"{tname}.{cname}"
                for tname, table in baseline.tables.items()
                for cname in table.column_names
            ]
        self.columns = list(columns)
        self._qerrors: deque = deque(maxlen=qerror_window)
        self._lock = threading.Lock()
        self.rebase(baseline, baseline_version)

    # ------------------------------------------------------------------
    @staticmethod
    def _histogram(schema: JoinSchema, full_name: str) -> np.ndarray:
        tname, _, cname = full_name.partition(".")
        column = schema.table(tname).column(cname)
        counts = np.bincount(column.codes, minlength=column.domain_size)
        total = counts.sum()
        return counts / total if total else counts.astype(np.float64)

    def rebase(self, baseline: JoinSchema, version: int) -> None:
        """Adopt a new baseline (after a successful model refresh)."""
        histograms = {c: self._histogram(baseline, c) for c in self.columns}
        rows = sum(t.n_rows for t in baseline.tables.values())
        with self._lock:
            self._baseline_histograms = histograms
            self._baseline_rows = rows
            self._baseline_version = version
            self._divergence_cache = None
            self._qerrors.clear()

    @property
    def baseline_version(self) -> int:
        with self._lock:
            return self._baseline_version

    # ------------------------------------------------------------------
    def record_qerror(self, qerror: float) -> None:
        """Feed one served-estimate staleness observation (q-error >= 1)."""
        with self._lock:
            self._qerrors.append(float(qerror))

    def observe(self, schema: JoinSchema, version: int) -> DriftReport:
        """Compare the live snapshot against the baseline.

        Histograms are recomputed only when the snapshot version moved
        (snapshots are immutable per version, so the poll loop's repeated
        observes between ingests cost O(1), not a full data scan); the
        rolling staleness q-error is always read fresh.
        """
        with self._lock:
            baseline_histograms = self._baseline_histograms
            baseline_rows = self._baseline_rows
            baseline_version = self._baseline_version
            staleness = (
                float(np.median(self._qerrors)) if self._qerrors else 1.0
            )
            cached = self._divergence_cache
        if cached is not None and cached[0] == version:
            _, divergence, domains_changed, rows = cached
        else:
            divergence = {}
            domains_changed = False
            for name, base_hist in baseline_histograms.items():
                hist = self._histogram(schema, name)
                if len(hist) != len(base_hist):
                    domains_changed = True
                    width = max(len(hist), len(base_hist))
                    base_hist = np.pad(base_hist, (0, width - len(base_hist)))
                    hist = np.pad(hist, (0, width - len(hist)))
                divergence[name] = 0.5 * float(np.abs(hist - base_hist).sum())
            rows = sum(t.n_rows for t in schema.tables.values())
            with self._lock:
                # Drop stale cache entries from a concurrent rebase: only
                # publish when the baseline we diffed against is current.
                if self._baseline_version == baseline_version:
                    self._divergence_cache = (
                        version, divergence, domains_changed, rows
                    )
        return DriftReport(
            data_version=version,
            baseline_version=baseline_version,
            ingested_rows=max(rows - baseline_rows, 0),
            baseline_rows=baseline_rows,
            column_divergence=divergence,
            staleness_qerror=staleness,
            domains_changed=domains_changed,
        )


# ----------------------------------------------------------------------
# Refresh policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RefreshPolicy:
    """Thresholds mapping a :class:`DriftReport` to a refresh strategy.

    A refresh triggers when ANY enabled signal reaches its threshold
    (inclusive — a report sitting *exactly at* a threshold triggers):
    per-column divergence, ingested-row fraction, or the rolling staleness
    q-error. Triggered refreshes run the paper's ``fast`` strategy unless
    the drift is severe (``retrain_drift_threshold``) or dictionaries grew,
    which force a full retrain.
    """

    #: Max per-column TV divergence before refreshing (None disables).
    drift_threshold: Optional[float] = 0.05
    #: Fraction of baseline rows ingested before refreshing (None disables).
    ingest_threshold: Optional[float] = 0.10
    #: Rolling served q-error median before refreshing (None disables).
    qerror_threshold: Optional[float] = None
    #: Divergence at which incremental training is hopeless: retrain.
    retrain_drift_threshold: float = 0.5
    #: Incremental budget, as a fraction of the config's training tuples.
    fast_fraction: float = FAST_REFRESH_FRACTION
    #: Duty cycle for background gradient steps (0 < duty <= 1): the fast
    #: refresh's trainer sleeps ``(1-duty)/duty`` of its busy time so
    #: serving threads keep the GIL. Pacing only — with a single-threaded
    #: sampler the refreshed weights are bitwise those of an unthrottled
    #: run. None/1.0 = full speed.
    train_duty: Optional[float] = 0.3
    #: Floor between consecutive refreshes (seconds): back-pressure against
    #: refresh storms when every poll crosses a threshold.
    min_interval_seconds: float = 0.0

    def decide(self, report: DriftReport) -> str:
        """``"none"``, ``"fast"``, or ``"retrain"`` for this report."""
        if report.domains_changed:
            return "retrain"
        triggered = False
        if report.is_stale:
            if (
                self.drift_threshold is not None
                and report.max_divergence >= self.drift_threshold
            ):
                triggered = True
            if (
                self.ingest_threshold is not None
                and report.ingested_fraction >= self.ingest_threshold
            ):
                triggered = True
        # The staleness q-error triggers on its own, even with no new data:
        # degraded serving quality warrants extra gradient steps on the
        # current snapshot (rebase clears the rolling window afterwards,
        # and min_interval_seconds bounds any storm).
        if (
            self.qerror_threshold is not None
            and report.staleness_qerror >= self.qerror_threshold
        ):
            triggered = True
        if not triggered:
            return "none"
        if report.max_divergence >= self.retrain_drift_threshold:
            return "retrain"
        return "fast"


# ----------------------------------------------------------------------
# Background refresher
# ----------------------------------------------------------------------
@dataclass
class RefreshEvent:
    """One attempted refresh (successful or failed)."""

    strategy: str
    data_version: int
    model_version: Optional[int] = None
    seconds: float = 0.0
    report: Optional[DriftReport] = None
    error: Optional[BaseException] = None
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class BackgroundRefresher:
    """Drives registry refreshes off a drift monitor, never blocking serving.

    ``serving`` is an :class:`~repro.serving.service.EstimationService` or a
    bare :class:`~repro.serving.registry.ModelRegistry`; ``name`` is the
    model to keep fresh. The poll loop reads the ingestor's latest
    snapshot, asks the policy, and applies ``fast`` via
    ``registry.refresh`` (clone → incremental train → atomic swap) or
    ``retrain`` via :func:`repro.core.refresh.full_retrain` + ``swap``. Every
    scheduler reads the registry per flush, so the next batch runs on the
    swapped-in estimator, which carries freshly folded compiled kernels —
    in-flight batches finish on the old model object
    untouched, so no request ever observes a torn model.

    Failure containment: an exception inside a refresh is recorded as a
    failed :class:`RefreshEvent` (see :attr:`history` / :attr:`last_error`)
    and the old model keeps serving; the same data version is not retried
    until new data arrives, so a poisoned snapshot cannot cause a retry
    storm.
    """

    def __init__(
        self,
        serving,
        name: str,
        ingestor: StreamingIngestor,
        *,
        policy: Optional[RefreshPolicy] = None,
        monitor: Optional[DriftMonitor] = None,
        poll_interval: float = 0.05,
        on_event: Optional[Callable[[RefreshEvent], None]] = None,
    ):
        registry = getattr(serving, "registry", serving)
        if name not in registry:
            raise ServingError(f"unknown model {name!r}; register it first")
        self.registry = registry
        self.name = name
        self.ingestor = ingestor
        self.policy = policy if policy is not None else RefreshPolicy()
        if monitor is None:
            schema, version = ingestor.snapshot()
            monitor = DriftMonitor(schema, baseline_version=version)
        self.monitor = monitor
        self.poll_interval = poll_interval
        self.on_event = on_event
        self.history: List[RefreshEvent] = []
        self.last_error: Optional[BaseException] = None
        self._refresh_lock = threading.Lock()
        self._history_lock = threading.Lock()
        self._failed_version: Optional[int] = None
        self._last_finish = 0.0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "BackgroundRefresher":
        """Spawn the daemon poll loop; idempotent."""
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._run, name=f"refresher-{self.name}", daemon=True
            )
            self._thread.start()
        return self

    def close(self) -> None:
        """Stop the poll loop; a refresh already in flight completes."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "BackgroundRefresher":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()

    def _run(self) -> None:
        while not self._stop.is_set():
            try:
                self.poll_once()
            except Exception as exc:  # defensive: the loop must survive
                self.last_error = exc
            self._stop.wait(self.poll_interval)

    # ------------------------------------------------------------------
    def poll_once(self) -> Optional[RefreshEvent]:
        """One monitor/policy/refresh cycle; the unit tests drive this directly.

        Returns the refresh event if one was attempted, else None.
        """
        schema, version = self.ingestor.snapshot()
        if version == self._failed_version:
            return None  # wait for new data before retrying a failed version
        if (
            version == self.monitor.baseline_version
            and self.policy.qerror_threshold is None
        ):
            return None  # nothing ingested and no staleness signal to check
        if (
            self.policy.min_interval_seconds > 0
            and time.monotonic() - self._last_finish < self.policy.min_interval_seconds
        ):
            return None
        report = self.monitor.observe(schema, version)
        strategy = self.policy.decide(report)
        if strategy == "none":
            return None
        return self._apply(strategy, schema, version, report)

    def refresh_now(self, strategy: str = "fast") -> RefreshEvent:
        """Force a refresh onto the current snapshot, bypassing the policy."""
        schema, version = self.ingestor.snapshot()
        report = self.monitor.observe(schema, version)
        return self._apply(strategy, schema, version, report)

    # ------------------------------------------------------------------
    def _apply(
        self, strategy: str, schema: JoinSchema, version: int, report: DriftReport
    ) -> RefreshEvent:
        with self._refresh_lock:
            event = RefreshEvent(
                strategy=strategy,
                data_version=version,
                report=report,
                started_at=time.monotonic(),
            )
            try:
                # Chaos seam: inside the try, so an injected fault follows
                # the contract under test — a failed RefreshEvent, the old
                # model keeps serving, no retry until data moves on.
                injector = faults.get_active()
                if injector is not None:
                    injector.check("refresher.train")
                if strategy == "fast":
                    event.model_version = self.registry.refresh(
                        self.name,
                        schema,
                        fraction=self.policy.fast_fraction,
                        data_version=version,
                        throttle=self.policy.train_duty,
                    )
                elif strategy == "retrain":
                    config = self.registry.get(self.name).config
                    outcome = full_retrain(schema, config, data_version=version)
                    event.model_version = self.registry.swap(
                        self.name, outcome.estimator
                    )
                else:
                    raise ServingError(
                        f"unknown refresh strategy {strategy!r}; "
                        "expected 'fast' or 'retrain'"
                    )
                self.monitor.rebase(schema, version)
                self._failed_version = None
            except Exception as exc:
                # The old model keeps serving; retry only once data moves on.
                event.error = exc
                self.last_error = exc
                self._failed_version = version
            event.finished_at = time.monotonic()
            event.seconds = event.finished_at - event.started_at
            self._last_finish = event.finished_at
        with self._history_lock:
            self.history.append(event)
        if self.on_event is not None:
            self.on_event(event)
        return event

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, float]:
        with self._history_lock:
            done = [e for e in self.history if e.ok]
            failed = [e for e in self.history if not e.ok]
            return {
                "refreshes": len(done),
                "failures": len(failed),
                "last_data_version": done[-1].data_version if done else 0,
                "last_refresh_seconds": done[-1].seconds if done else 0.0,
            }


__all__ = [
    "StreamingIngestor",
    "DriftMonitor",
    "DriftReport",
    "RefreshPolicy",
    "RefreshEvent",
    "BackgroundRefresher",
]
