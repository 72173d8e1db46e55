"""Tiny Prometheus-text-format metrics registry (stdlib only).

The HTTP front end (:mod:`repro.serving.http`) exposes ``GET /metrics``;
this module provides the three instrument kinds it needs — monotonic
:class:`Counter`, :class:`Gauge`, cumulative-bucket :class:`Histogram` —
rendered in the Prometheus text exposition format 0.0.4. No external
client library (the container pins its dependency set), no background
threads, and exact integer-preserving rendering so the closed-loop load
generator can reconcile its accepted/shed/error tallies against the
scraped counters *exactly*, not approximately.

All instruments are label-aware: ``counter.inc(tenant="a", code="200")``
keeps one monotonic series per label combination. Mutation is lock-guarded
(requests resolve on scheduler/pool threads while the asyncio loop serves
scrapes), and :meth:`MetricsRegistry.render` snapshots under the same lock
so a scrape never observes a half-applied update.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, List, Optional, Tuple

from repro.errors import ServingError

#: Default latency buckets (seconds): 1ms .. 10s, roughly log-spaced.
DEFAULT_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0
)

_LabelKey = Tuple[Tuple[str, str], ...]


def series_key(**labels: str) -> _LabelKey:
    """The canonical key of one labelset: build it once, then pass it to
    :meth:`Counter.inc_series` / :meth:`Histogram.observe_series` on a hot
    path instead of re-sorting keyword labels on every call."""
    return _label_key(labels)


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _format_labels(key: _LabelKey, extra: Optional[Tuple[str, str]] = None) -> str:
    items = list(key) + ([extra] if extra is not None else [])
    if not items:
        return ""
    body = ",".join(
        '{}="{}"'.format(name, value.replace("\\", "\\\\").replace('"', '\\"'))
        for name, value in items
    )
    return "{" + body + "}"


def _format_value(value: float) -> str:
    """Integers render as integers so counter reconciliation is exact."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


class _Instrument:
    """Shared bookkeeping: name, help text, per-labelset storage."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str, lock: threading.Lock):
        self.name = name
        self.help_text = help_text
        self._lock = lock
        self._series: Dict[_LabelKey, float] = {}

    def header(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.kind}",
        ]


class Counter(_Instrument):
    """Monotonically increasing per-labelset counter."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.inc_series(_label_key(labels), amount)

    def inc_series(self, key: _LabelKey, amount: float = 1.0) -> None:
        """:meth:`inc` for a labelset whose :func:`series_key` is at hand."""
        if amount < 0:
            raise ServingError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def render(self) -> List[str]:
        lines = self.header()
        with self._lock:
            for key in sorted(self._series):
                lines.append(
                    f"{self.name}{_format_labels(key)} "
                    f"{_format_value(self._series[key])}"
                )
        return lines


class Gauge(_Instrument):
    """Set/add instantaneous per-labelset value."""

    kind = "gauge"

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def render(self) -> List[str]:
        lines = self.header()
        with self._lock:
            for key in sorted(self._series):
                lines.append(
                    f"{self.name}{_format_labels(key)} "
                    f"{_format_value(self._series[key])}"
                )
        return lines


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus ``le`` convention)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        lock: threading.Lock,
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(name, help_text, lock)
        self.buckets = tuple(sorted(float(b) for b in buckets))
        if not self.buckets:
            raise ServingError(f"histogram {self.name} needs at least one bucket")
        # Per labelset: (per-bucket counts + +Inf slot, sum).
        self._hist: Dict[_LabelKey, Tuple[List[int], float]] = {}

    def observe(self, value: float, **labels: str) -> None:
        self.observe_series(_label_key(labels), value)

    def observe_series(self, key: _LabelKey, value: float) -> None:
        """:meth:`observe` for a labelset whose :func:`series_key` is at hand."""
        with self._lock:
            counts, total = self._hist.get(key, (None, 0.0))
            if counts is None:
                counts = [0] * (len(self.buckets) + 1)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    counts[i] += 1
            counts[-1] += 1  # +Inf
            self._hist[key] = (counts, total + float(value))

    def count(self, **labels: str) -> int:
        with self._lock:
            entry = self._hist.get(_label_key(labels))
            return entry[0][-1] if entry else 0

    def quantile(self, q: float, **labels: str) -> float:
        """Upper-bound estimate of the q-quantile from bucket boundaries."""
        with self._lock:
            entry = self._hist.get(_label_key(labels))
            if entry is None or entry[0][-1] == 0:
                return 0.0
            counts, _ = entry
            rank = q * counts[-1]
            for i, bound in enumerate(self.buckets):
                if counts[i] >= rank:
                    return bound
            return math.inf

    def render(self) -> List[str]:
        lines = self.header()
        with self._lock:
            for key in sorted(self._hist):
                counts, total = self._hist[key]
                for bound, count in zip(self.buckets, counts):
                    lines.append(
                        f"{self.name}_bucket"
                        f"{_format_labels(key, ('le', _format_value(bound)))} "
                        f"{count}"
                    )
                lines.append(
                    f"{self.name}_bucket{_format_labels(key, ('le', '+Inf'))} "
                    f"{counts[-1]}"
                )
                lines.append(
                    f"{self.name}_sum{_format_labels(key)} {_format_value(total)}"
                )
                lines.append(f"{self.name}_count{_format_labels(key)} {counts[-1]}")
        return lines


class MetricsRegistry:
    """Named instruments + one-shot text rendering.

    Instrument getters are idempotent (same name returns the same object)
    so request handlers can look instruments up by name without plumbing
    references around; re-registering a name as a different kind is an
    error.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._instruments: "Dict[str, _Instrument]" = {}
        self._order: List[str] = []

    def _get(self, cls, name: str, help_text: str, **kwargs) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ServingError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            instrument = cls(name, help_text, threading.Lock(), **kwargs)
            self._instruments[name] = instrument
            self._order.append(name)
            return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._get(Counter, name, help_text)

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._get(Gauge, name, help_text)

    def histogram(
        self, name: str, help_text: str = "", buckets: Iterable[float] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get(Histogram, name, help_text, buckets=buckets)

    def render(self) -> str:
        with self._lock:
            instruments = [self._instruments[name] for name in self._order]
        lines: List[str] = []
        for instrument in instruments:
            lines.extend(instrument.render())
        return "\n".join(lines) + "\n"


def parse_samples(text: str) -> Dict[str, float]:
    """Parse Prometheus text back to ``{name{labels}: value}`` (tests/bench).

    Inverse of :meth:`MetricsRegistry.render` for reconciliation checks;
    label order inside ``{}`` is preserved as rendered (sorted by name).
    """
    samples: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name_part, _, value_part = line.rpartition(" ")
        value = math.inf if value_part == "+Inf" else float(value_part)
        samples[name_part] = value
    return samples


__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "parse_samples",
    "series_key",
]
