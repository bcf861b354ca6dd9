"""Typed runtime instruments: gauges, histograms, and their exposition.

This module is the *state* half of the observability layer (DESIGN.md
§12).  Where :class:`~repro.telemetry.metrics.MetricsRecorder` collects
one traced answer's operator counters for its ``evaluate`` span, the
:class:`MetricsRegistry` holds *process-lifetime* instruments:

* :class:`Histogram` — fixed-bucket latency distributions with
  p50/p90/p99 quantile estimation, bumped on the hot path by the
  answerer, both engines and the fallback ladder;
* :class:`Gauge` / :class:`MultiGauge` — callbacks sampled at read
  time, surfacing otherwise-hidden runtime state (cache fill, SQLite
  connection-pool size, circuit-breaker states, reformulator-memo
  size);
* counter *sources* — callables returning monotone counter mappings
  (e.g. the answerer's resilience counters), re-read per export.

Everything renders two ways: :meth:`MetricsRegistry.render_text` emits
a Prometheus-style text exposition (``repro metrics-export``, and later
the query service's ``/metrics`` endpoint), and
:meth:`MetricsRegistry.snapshot` the JSON-friendly equivalent.

One process-wide default registry (:func:`get_registry`) is shared by
every instrumented component; tests swap it with :func:`set_registry`
or pass an explicit registry to the answerer.  Instrument identity is
``(name, labels)``, and :meth:`MetricsRegistry.histogram` is
get-or-create, so concurrent components bump one shared instrument
instead of shadowing each other.
"""

from __future__ import annotations

import re
import threading
from bisect import bisect_left
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

#: Default latency buckets (seconds): sub-millisecond through 10 s,
#: roughly logarithmic — the spread of one operator call up to a full
#: fig5-class evaluation.  Values beyond the last bound land in an
#: implicit +Inf overflow bucket.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Label tuple form used as part of instrument identity.
LabelsKey = Tuple[Tuple[str, str], ...]


def _labels_key(labels: Optional[Mapping[str, str]]) -> LabelsKey:
    return tuple(sorted((str(k), str(v)) for k, v in (labels or {}).items()))


def _sanitize(name: str) -> str:
    """A dotted instrument name as a Prometheus metric name."""
    return re.sub(r"[^a-zA-Z0-9_:]", "_", name)


def _render_labels(labels: LabelsKey, extra: Optional[Tuple[str, str]] = None) -> str:
    pairs = list(labels)
    if extra is not None:
        pairs.append(extra)
    if not pairs:
        return ""
    body = ",".join(f'{key}="{value}"' for key, value in pairs)
    return "{" + body + "}"


def _format_bound(bound: float) -> str:
    """A bucket bound as exposition text (no float repr noise)."""
    return format(bound, "g")


class Histogram:
    """A fixed-bucket histogram with streaming quantile estimation.

    Buckets use Prometheus ``le`` semantics: an observation lands in the
    first bucket whose upper bound is >= the value; values beyond the
    last bound land in the implicit +Inf overflow bucket.  Quantiles are
    estimated by linear interpolation inside the covering bucket (the
    overflow bucket clamps to the last finite bound), so they are exact
    at bucket boundaries and within one bucket's width elsewhere.

    ``observe`` is a lock-guarded bisect-plus-increment, safe for
    concurrent bumps from the service's worker threads.
    """

    __slots__ = ("name", "help", "labels", "buckets", "_counts", "_sum", "_count", "_lock")

    def __init__(
        self,
        name: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_S,
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b <= a for a, b in zip(bounds, bounds[1:])):
            raise ValueError(f"bucket bounds must be strictly increasing: {bounds}")
        self.name = name
        self.help = help
        self.labels: LabelsKey = _labels_key(labels)
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf overflow
        self._sum = 0.0
        self._count = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Total number of observations."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        return self._sum

    def bucket_counts(self) -> List[int]:
        """Per-bucket (non-cumulative) counts; last entry is +Inf."""
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> Optional[float]:
        """Estimated ``q``-quantile (0..1), or None when empty."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        if total == 0:
            return None
        remaining = q * total
        nonempty = [i for i, c in enumerate(counts) if c]
        for index in nonempty:
            count = counts[index]
            if remaining <= count or index == nonempty[-1]:
                lower = 0.0 if index == 0 else self.buckets[index - 1]
                upper = (
                    self.buckets[index]
                    if index < len(self.buckets)
                    else self.buckets[-1]  # +Inf bucket clamps to last bound
                )
                fraction = min(max(remaining / count, 0.0), 1.0)
                return lower + (upper - lower) * fraction
            remaining -= count
        return None  # pragma: no cover - loop always returns when total > 0

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly state (cumulative bucket counts + quantiles)."""
        with self._lock:
            counts = list(self._counts)
            total = self._count
            acc = self._sum
        cumulative: List[Dict[str, Any]] = []
        running = 0
        for bound, count in zip(self.buckets, counts):
            running += count
            cumulative.append({"le": bound, "count": running})
        cumulative.append({"le": "+Inf", "count": running + counts[-1]})
        return {
            "name": self.name,
            "labels": dict(self.labels),
            "count": total,
            "sum": acc,
            "buckets": cumulative,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }


class Gauge:
    """A read-time sampled instrument backed by a callback.

    The callback is invoked at export time; a raising or non-numeric
    callback makes :meth:`read` answer None and the sample is skipped
    in the exposition (a dead component must not break ``/metrics``).
    """

    __slots__ = ("name", "help", "labels", "callback")

    def __init__(
        self,
        name: str,
        callback: Callable[[], Any],
        help: str = "",
        labels: Optional[Mapping[str, str]] = None,
    ) -> None:
        self.name = name
        self.help = help
        self.labels: LabelsKey = _labels_key(labels)
        self.callback = callback

    def read(self) -> Optional[float]:
        """The gauge's current value, or None when unreadable."""
        try:
            return float(self.callback())
        except Exception:
            return None


class MultiGauge:
    """One gauge name fanned out over a dynamic label set.

    The callback returns ``{label_value: reading}``; each entry renders
    as one sample with ``{label_key="label_value"}``.  Used where the
    member set is not fixed at registration time — cache levels,
    circuit-breaker states.
    """

    __slots__ = ("name", "help", "label_key", "callback")

    def __init__(
        self,
        name: str,
        label_key: str,
        callback: Callable[[], Mapping[str, Any]],
        help: str = "",
    ) -> None:
        self.name = name
        self.help = help
        self.label_key = label_key
        self.callback = callback

    def read(self) -> Dict[str, float]:
        """``{label_value: numeric reading}``; empty when unreadable."""
        try:
            readings = self.callback()
            return {str(key): float(value) for key, value in readings.items()}
        except Exception:
            return {}


class MetricsRegistry:
    """The process-lifetime instrument registry.

    Histograms are get-or-create by ``(name, labels)``; gauges, multi
    gauges and counter sources are register-replace by name, so a
    rebuilt component (a fresh answerer over the same store) simply
    takes over its instrument names instead of accumulating stale
    callbacks.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._histograms: Dict[Tuple[str, LabelsKey], Histogram] = {}
        self._gauges: Dict[Tuple[str, LabelsKey], Gauge] = {}
        self._multi_gauges: Dict[str, MultiGauge] = {}
        self._counter_sources: Dict[str, Callable[[], Mapping[str, int]]] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def histogram(
        self,
        name: str,
        labels: Optional[Mapping[str, str]] = None,
        buckets: Optional[Sequence[float]] = None,
        help: str = "",
    ) -> Histogram:
        """The histogram for ``(name, labels)``, created on first use."""
        key = (name, _labels_key(labels))
        with self._lock:
            instrument = self._histograms.get(key)
            if instrument is None:
                instrument = Histogram(
                    name,
                    buckets=buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS_S,
                    help=help,
                    labels=labels,
                )
                self._histograms[key] = instrument
            return instrument

    def register_gauge(
        self,
        name: str,
        callback: Callable[[], Any],
        labels: Optional[Mapping[str, str]] = None,
        help: str = "",
    ) -> Gauge:
        """Register (or replace) a callback gauge."""
        gauge = Gauge(name, callback, help=help, labels=labels)
        with self._lock:
            self._gauges[(name, gauge.labels)] = gauge
        return gauge

    def register_multi_gauge(
        self,
        name: str,
        label_key: str,
        callback: Callable[[], Mapping[str, Any]],
        help: str = "",
    ) -> MultiGauge:
        """Register (or replace) a dynamic-label gauge family."""
        gauge = MultiGauge(name, label_key, callback, help=help)
        with self._lock:
            self._multi_gauges[name] = gauge
        return gauge

    def register_counters(
        self, prefix: str, source: Callable[[], Mapping[str, int]]
    ) -> None:
        """Register (or replace) a monotone-counter source.

        ``source()`` is re-read per export; each entry renders as the
        counter ``<prefix>.<key>``.
        """
        with self._lock:
            self._counter_sources[prefix] = source

    def clear(self) -> None:
        """Drop every instrument (test isolation)."""
        with self._lock:
            self._histograms.clear()
            self._gauges.clear()
            self._multi_gauges.clear()
            self._counter_sources.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def histograms(self) -> List[Histogram]:
        """Registered histograms, registration-ordered."""
        with self._lock:
            return list(self._histograms.values())

    def gauge_samples(self) -> List[Dict[str, Any]]:
        """All readable gauge samples: ``{name, labels, value}``."""
        with self._lock:
            gauges = list(self._gauges.values())
            multi = list(self._multi_gauges.values())
        samples: List[Dict[str, Any]] = []
        for gauge in gauges:
            value = gauge.read()
            if value is not None:
                samples.append(
                    {"name": gauge.name, "labels": dict(gauge.labels), "value": value}
                )
        for family in multi:
            for label_value, value in sorted(family.read().items()):
                samples.append(
                    {
                        "name": family.name,
                        "labels": {family.label_key: label_value},
                        "value": value,
                    }
                )
        return samples

    def counter_samples(self) -> Dict[str, int]:
        """All counters from registered sources, ``prefix.key`` named."""
        with self._lock:
            sources = dict(self._counter_sources)
        flat: Dict[str, int] = {}
        for prefix, source in sources.items():
            try:
                counters = source()
            except Exception:
                continue
            for key, value in counters.items():
                flat[f"{prefix}.{key}"] = int(value)
        return flat

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly snapshot of every instrument."""
        return {
            "gauges": self.gauge_samples(),
            "counters": self.counter_samples(),
            "histograms": [h.snapshot() for h in self.histograms()],
        }

    def render_text(self) -> str:
        """Prometheus-style text exposition of the registry state."""
        lines: List[str] = []
        # Gauges, grouped by name so each family gets one TYPE header.
        by_name: Dict[str, List[Dict[str, Any]]] = {}
        for sample in self.gauge_samples():
            by_name.setdefault(sample["name"], []).append(sample)
        with self._lock:
            helps = {g.name: g.help for g in self._gauges.values() if g.help}
            helps.update(
                {g.name: g.help for g in self._multi_gauges.values() if g.help}
            )
        for name in sorted(by_name):
            metric = _sanitize(name)
            if helps.get(name):
                lines.append(f"# HELP {metric} {helps[name]}")
            lines.append(f"# TYPE {metric} gauge")
            for sample in by_name[name]:
                labels = _render_labels(_labels_key(sample["labels"]))
                lines.append(f"{metric}{labels} {format(sample['value'], 'g')}")
        for name, value in sorted(self.counter_samples().items()):
            metric = _sanitize(name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {value}")
        groups: Dict[str, List[Histogram]] = {}
        for histogram in self.histograms():
            groups.setdefault(histogram.name, []).append(histogram)
        for name in sorted(groups):
            metric = _sanitize(name)
            family = groups[name]
            help_text = next((h.help for h in family if h.help), "")
            if help_text:
                lines.append(f"# HELP {metric} {help_text}")
            lines.append(f"# TYPE {metric} histogram")
            for histogram in family:
                snap = histogram.snapshot()
                for bucket in snap["buckets"]:
                    bound = (
                        "+Inf"
                        if bucket["le"] == "+Inf"
                        else _format_bound(bucket["le"])
                    )
                    labels = _render_labels(histogram.labels, ("le", bound))
                    lines.append(f"{metric}_bucket{labels} {bucket['count']}")
                labels = _render_labels(histogram.labels)
                lines.append(f"{metric}_sum{labels} {format(snap['sum'], 'g')}")
                lines.append(f"{metric}_count{labels} {snap['count']}")
        return "\n".join(lines) + "\n"


#: The process-wide default registry every instrumented component binds
#: to unless handed an explicit one.
_default_registry = MetricsRegistry()
_default_lock = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry (tests); returns the previous one."""
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous
