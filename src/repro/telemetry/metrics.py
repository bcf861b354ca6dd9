"""Operator-level counters collected during query evaluation.

The engine threads one :class:`MetricsRecorder` through an evaluation;
each physical operator bumps named counters (`the counter taxonomy is
documented in DESIGN.md §7`): rows scanned, join probe/emit counts,
dedup input/output.  A traced answer builds one recorder and hangs its
counters on its ``evaluate`` span; an untraced answer builds none.

All operators accept ``metrics=None`` and skip recording entirely in
that case, so the untraced hot path pays one ``is None`` test per
operator call.

One recorder may be shared by several threads (an answerer's
lifetime ``resilience_metrics`` is bumped by every thread answering
through it), so ``inc``'s fetch-add happens under a per-recorder lock;
unsynchronized counters would silently lose increments under
concurrent bumps.
"""

from __future__ import annotations

import threading
from typing import Dict


class MetricsRecorder:
    """A flat namespace of integer counters."""

    __slots__ = ("counters", "_lock")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self._lock = threading.Lock()

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the named counter (creating it at zero)."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + int(amount)

    def get(self, name: str, default: int = 0) -> int:
        """Current value of a counter."""
        with self._lock:
            return self.counters.get(name, default)

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """Plain-dict snapshot: ``{"counters": {...}}``."""
        with self._lock:
            return {"counters": dict(self.counters)}

    def __bool__(self) -> bool:
        return bool(self.counters)

    def __repr__(self) -> str:
        return f"MetricsRecorder({len(self.counters)} counters)"
