"""A bounded least-recently-used map with built-in accounting.

Every cache level of the answering pipeline (reformulations, plans,
generated SQL) is one of these: an :class:`LRUCache` with a capacity
bound, eviction in strict least-recently-*used* order (both ``get`` and
``put`` refresh recency), and monotone hit/miss/eviction/invalidation
counters that the answerer exports through
:class:`repro.telemetry.MetricsRecorder` (DESIGN.md §9).

``capacity=None`` means unbounded — used where the legacy behaviour
(memoize forever) is still wanted, while keeping the accounting.

The cache is thread-safe: levels are shared by every thread answering
through one answerer (an engine's per-thread SQLite connections share
one SQL cache, every thread bumps the same counters), and an ``OrderedDict``'s ``move_to_end``/eviction
dance is a multi-step mutation that must not interleave.  All compound
operations hold a per-cache lock; the counter reads used for reporting
stay lock-free (single attribute loads are atomic in CPython).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Hashable, Iterator, Optional

#: Sentinel distinguishing "absent" from a stored ``None``.
MISSING = object()


class LRUCache:
    """Mapping with LRU eviction and hit/miss/eviction counters."""

    __slots__ = (
        "capacity",
        "_data",
        "_lock",
        "hits",
        "misses",
        "evictions",
        "invalidations",
    )

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._data: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    # ------------------------------------------------------------------
    # Mapping protocol
    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Counted lookup: a hit refreshes the entry's recency."""
        with self._lock:
            value = self._data.get(key, MISSING)
            if value is MISSING:
                self.misses += 1
                return default
            self.hits += 1
            self._data.move_to_end(key)
            return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or overwrite; evicts the LRU entry past capacity."""
        with self._lock:
            data = self._data
            if key in data:
                data[key] = value
                data.move_to_end(key)
                return
            data[key] = value
            if self.capacity is not None:
                while len(data) > self.capacity:
                    data.popitem(last=False)
                    self.evictions += 1

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Uncounted lookup that does not refresh recency (tests/tools)."""
        with self._lock:
            return self._data.get(key, default)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def keys(self) -> Iterator[Hashable]:
        """Keys from least- to most-recently used (a point-in-time snapshot)."""
        with self._lock:
            return iter(list(self._data.keys()))

    def clear(self) -> None:
        """Drop every entry and count one invalidation (counters persist)."""
        with self._lock:
            self._data.clear()
            self.invalidations += 1

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def lookups(self) -> int:
        """Total counted lookups (hits + misses)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over counted lookups (0.0 when never consulted)."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def stats(self) -> Dict[str, Any]:
        """Plain-dict counter snapshot for telemetry export."""
        return {
            "size": len(self._data),
            "capacity": self.capacity,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
            "hit_rate": self.hit_rate,
        }

    def __repr__(self) -> str:
        bound = "∞" if self.capacity is None else str(self.capacity)
        return (
            f"LRUCache({len(self._data)}/{bound}, hits={self.hits}, "
            f"misses={self.misses}, evictions={self.evictions})"
        )
