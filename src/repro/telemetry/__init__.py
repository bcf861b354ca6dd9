"""Zero-dependency tracing + metrics for the answering pipeline.

Five pieces (see DESIGN.md §7 for the span and counter taxonomy).  A
traced answer's trace is its one record: spans, the operator counters
on its ``evaluate`` span, its accuracy samples and search trajectory as
loose records.  An untraced answer keeps no per-answer record.

* :mod:`.tracer` — hierarchical spans with wall-clock + monotonic
  timing and a no-op :data:`NULL_TRACER` default;
* :mod:`.metrics` — operator-level counters (rows scanned per index
  permutation, join probe/emit counts, dedup input/output, …);
* :mod:`.accuracy` — predicted-vs-observed (cost, cardinality) samples
  as plain dicts with their q-errors;
* :mod:`.search_trace` — the GCov/ECov exploration trajectory in
  JSON-friendly form;
* :mod:`.registry` — process-lifetime typed instruments (gauges,
  latency histograms, counter sources) with Prometheus-style text and
  JSON exposition (DESIGN.md §12).
"""

from .accuracy import accuracy_sample, q_error
from .metrics import MetricsRecorder
from .registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    Gauge,
    Histogram,
    MetricsRegistry,
    MultiGauge,
    get_registry,
    set_registry,
)
from .search_trace import cover_fragments, trajectory
from .tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Gauge",
    "Histogram",
    "MetricsRecorder",
    "MetricsRegistry",
    "MultiGauge",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "accuracy_sample",
    "cover_fragments",
    "get_registry",
    "q_error",
    "set_registry",
    "trajectory",
]
