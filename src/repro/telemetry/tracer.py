"""Hierarchical span tracing for the answering pipeline.

A :class:`Tracer` produces :class:`Span` context managers that nest the
way the pipeline nests (``answer`` → ``plan`` → ``cover-search``,
``evaluate`` → ``operand`` → ``dedup`` …).  Each span records wall-clock
start time, a monotonic start offset relative to the tracer's epoch, a
monotonic duration, and arbitrary key/value attributes.  The whole tree
— plus any loose :meth:`Tracer.record` events such as cost-model
accuracy samples or the GCov search trajectory — exports as JSON lines.

The default tracer everywhere is :data:`NULL_TRACER`, whose spans are a
single shared no-op object: the instrumented hot paths pay one attribute
lookup and one ``with`` block per span, nothing more.  Code that would
compute expensive attributes should guard on ``tracer.enabled``.

Timing discipline: *durations* (and ``start_s`` offsets) come from
``time.perf_counter()`` — the monotonic clock NTP steps cannot touch —
so a wall-clock adjustment mid-span can never produce a negative or
garbage duration (or q-error denominator downstream).  The only
wall-clock reads are ``Span.start_unix`` and ``Tracer.created_at``,
kept purely so exported traces can be correlated with external logs.

Thread model: one tracer may collect spans from many threads at once
(threads sharing one answerer's default tracer).  The live-span stack
is *thread-local*, so nesting in one thread never corrupts another's;
the shared span forest and record list are guarded by a lock.  A span
nests under the innermost live span of the thread that enters it.
"""

from __future__ import annotations

import json
import threading
import time
from itertools import count
from typing import Any, Dict, List, Optional


def _json_default(value: Any) -> Any:
    """Serialize the non-JSON values that show up in span attributes."""
    if isinstance(value, (set, frozenset)):
        return sorted(value, key=repr)
    if isinstance(value, tuple):
        return list(value)
    return str(value)


class Span:
    """One timed region of the pipeline (a context manager).

    Spans attach themselves to the tracer's current stack on ``enter``
    and compute their duration on ``exit``; attributes can be set at
    creation (``tracer.span(name, key=value)``) or at any point while
    the span is live (:meth:`set`).
    """

    __slots__ = (
        "name",
        "attributes",
        "start_unix",
        "start_s",
        "duration_s",
        "children",
        "_tracer",
        "_start_mono",
    )

    def __init__(self, tracer: "Tracer", name: str, attributes: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attributes: Dict[str, Any] = dict(attributes)
        #: Wall-clock start, for export/correlation ONLY — durations and
        #: ordering always come from the monotonic clock.
        self.start_unix = 0.0
        #: Monotonic offset from the tracer's epoch (orders sibling spans).
        self.start_s = 0.0
        self.duration_s = 0.0
        self.children: List["Span"] = []
        self._start_mono = 0.0

    def set(self, **attributes: Any) -> "Span":
        """Attach attributes to this span; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        tracer = self._tracer
        stack = tracer._stack
        parent = stack[-1] if stack else None
        with tracer._lock:
            (parent.children if parent is not None else tracer.roots).append(self)
        stack.append(self)
        self.start_unix = time.time()
        self._start_mono = time.perf_counter()
        self.start_s = self._start_mono - tracer.epoch
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self._start_mono
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        stack = self._tracer._stack
        if stack and stack[-1] is self:
            stack.pop()
        return False

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration_s * 1000:.3f}ms, {self.attributes})"


class Tracer:
    """Collects a forest of spans plus loose typed records."""

    enabled = True

    def __init__(self) -> None:
        self.epoch = time.perf_counter()
        #: Wall-clock creation time, export-only (see module docstring).
        self.created_at = time.time()
        self.roots: List[Span] = []
        self.records: List[Dict[str, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    @property
    def _stack(self) -> List[Span]:
        """This thread's live-span stack (created on first use)."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, **attributes: Any) -> Span:
        """A new span; nests under the innermost live span when entered."""
        return Span(self, name, attributes)

    def annotate(self, **attributes: Any) -> None:
        """Attach attributes to the innermost live span (no-op if none)."""
        if self._stack:
            self._stack[-1].attributes.update(attributes)

    def record(self, kind: str, payload: Dict[str, Any]) -> None:
        """Append a loose (non-span) record, e.g. an accuracy sample."""
        with self._lock:
            self.records.append({"type": kind, **payload})

    @property
    def current(self) -> Optional[Span]:
        """The innermost live span, if any."""
        return self._stack[-1] if self._stack else None

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_dicts(self) -> List[Dict[str, Any]]:
        """Flatten the span forest (pre-order) plus records to plain dicts.

        Span entries carry ``id``/``parent``/``depth`` so the tree can be
        rebuilt from the flat JSON-lines form.
        """
        entries: List[Dict[str, Any]] = []
        ids = count(1)

        def walk(span: Span, parent_id: Optional[int], depth: int) -> None:
            span_id = next(ids)
            entries.append(
                {
                    "type": "span",
                    "id": span_id,
                    "parent": parent_id,
                    "depth": depth,
                    "name": span.name,
                    "start_unix": span.start_unix,
                    "start_s": span.start_s,
                    "duration_s": span.duration_s,
                    "attributes": span.attributes,
                }
            )
            for child in span.children:
                walk(child, span_id, depth + 1)

        for root in self.roots:
            walk(root, None, 0)
        entries.extend(self.records)
        return entries

    def export_jsonl(self, destination) -> int:
        """Write one JSON object per line; returns the line count.

        ``destination`` is a path or an open text file.
        """
        entries = self.to_dicts()
        text = "".join(
            json.dumps(entry, default=_json_default) + "\n" for entry in entries
        )
        if hasattr(destination, "write"):
            destination.write(text)
        else:
            with open(destination, "w", encoding="utf-8") as sink:
                sink.write(text)
        return len(entries)


class _NullSpan:
    """The shared no-op span handed out by :class:`NullTracer`."""

    __slots__ = ()

    def set(self, **attributes: Any) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer-shaped object that records nothing (the default everywhere)."""

    __slots__ = ()

    enabled = False
    roots: tuple = ()
    records: tuple = ()

    def span(self, name: str, **attributes: Any) -> _NullSpan:
        return _NULL_SPAN

    def annotate(self, **attributes: Any) -> None:
        pass

    def record(self, kind: str, payload: Dict[str, Any]) -> None:
        pass

    @property
    def current(self) -> None:
        return None

    def to_dicts(self) -> List[Dict[str, Any]]:
        return []

    def export_jsonl(self, destination) -> int:
        return 0


#: Shared no-op tracer; the default for every instrumented component.
NULL_TRACER = NullTracer()
