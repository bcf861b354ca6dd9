"""Operator-level counters collected during query evaluation.

The engine threads one :class:`MetricsRecorder` through an evaluation;
each physical operator bumps named counters (`the counter taxonomy is
documented in DESIGN.md §7`).  The recorder distinguishes *counters*
(monotone integers: rows scanned, join probe/emit counts, dedup
input/output) from *series* (ordered per-item observations: one entry
per JUCQ operand's materialized size or per-operand evaluation time).

All operators accept ``metrics=None`` and skip recording entirely in
that case, so the untraced hot path pays one ``is None`` test per
operator call.

One recorder may be shared by several threads (an answerer's
lifetime ``resilience_metrics`` is bumped by every thread answering
through it), so every read-modify-write — ``inc``'s fetch-add, ``append``'s setdefault,
``merge``'s fold — happens under a per-recorder lock; unsynchronized
counters would silently lose increments under concurrent bumps.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List


class MetricsRecorder:
    """A flat namespace of integer counters plus ordered series."""

    __slots__ = ("counters", "series", "_lock")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.series: Dict[str, List[Any]] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (creating it at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    def append(self, name: str, value: Any) -> None:
        """Append one observation to the named series."""
        with self._lock:
            self.series.setdefault(name, []).append(value)

    def merge(self, other: "MetricsRecorder") -> None:
        """Fold another recorder's counters and series into this one."""
        with other._lock:
            counters = dict(other.counters)
            series = {name: list(values) for name, values in other.series.items()}
        with self._lock:
            for name, amount in counters.items():
                self.counters[name] = self.counters.get(name, 0) + amount
            for name, values in series.items():
                self.series.setdefault(name, []).extend(values)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def get(self, name: str, default: int = 0) -> int:
        """Current value of a counter.

        Locked like every other accessor: a bare dict ``.get`` is atomic
        in CPython, but reading unlocked while ``merge`` folds another
        recorder in would let a torn sequence of increments show up —
        consistency here matches ``as_dict``/``merge``.
        """
        with self._lock:
            return self.counters.get(name, default)

    def as_dict(self) -> Dict[str, Any]:
        """Plain-dict snapshot: ``{"counters": {...}, "series": {...}}``."""
        with self._lock:
            return {
                "counters": dict(self.counters),
                "series": {name: list(values) for name, values in self.series.items()},
            }

    def __bool__(self) -> bool:
        return bool(self.counters or self.series)

    def __repr__(self) -> str:
        return f"MetricsRecorder({len(self.counters)} counters, {len(self.series)} series)"
