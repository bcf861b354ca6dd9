"""Database statistics for cardinality estimation.

The optimizers repeatedly ask two questions about the store while
searching the cover space (paper Section 5.2 notes the time "to obtain
the statistics necessary for estimating the number of results of
various fragments"):

* exact match counts of single triple patterns — ``O(log n)`` on the
  sorted indexes, so we answer them exactly, like the paper's Table 1
  "#answers" column;
* distinct-value counts per pattern position — used by the
  System-R-style join selectivity estimate in
  :mod:`repro.cost.cardinality`.

Both are memoized: the optimizer probes the same patterns many times
across candidate covers.

Staleness is handled automatically: every read compares the table's
:attr:`~repro.storage.triple_table.TripleTable.version` against the
version the memos were built for and drops them on mismatch, so write
paths need no manual :meth:`TableStatistics.invalidate` call.  The
:attr:`epoch` derived from the same version is the *statistics snapshot
epoch* that keys every statistics-dependent cache entry (plans,
cardinalities — DESIGN.md §9): a data update bumps it and thereby
invalidates those entries, while schema-stable reformulations survive.
"""

from __future__ import annotations

import threading
from typing import Dict, Tuple

from .triple_table import Pattern, TripleTable


class TableStatistics:
    """Memoizing statistics facade over a :class:`TripleTable`.

    Reads are thread-safe: threads answering through one shared
    answerer probe the same statistics while ordering joins, and the clear-and-rebuild sync on
    version mismatch must not interleave with another thread's memo
    read (a probe could otherwise cache a *pre*-mutation count under the
    *post*-mutation version).  The lock is re-entrant because
    :meth:`distinct` calls :meth:`pattern_count` on bound positions.
    """

    def __init__(self, table: TripleTable):
        self.table = table
        self._pattern_counts: Dict[Pattern, int] = {}
        self._distinct_cache: Dict[Tuple[Pattern, int], int] = {}
        self._synced_version = table.version
        self._lock = threading.RLock()
        #: How many times the memos were dropped because the table
        #: changed underneath (instrumentation).
        self.auto_invalidations = 0

    def _sync(self) -> None:
        """Drop the memos when the table has mutated since they were built.

        Callers must hold ``self._lock``.
        """
        version = self.table.version
        if version != self._synced_version:
            self._pattern_counts.clear()
            self._distinct_cache.clear()
            self._synced_version = version  # lock: held by every caller
            self.auto_invalidations += 1

    @property
    def epoch(self) -> int:
        """The statistics snapshot epoch (the table's mutation version).

        Any two reads with equal epochs saw identical data; caches
        keyed by ``(…, epoch)`` therefore invalidate exactly when the
        data changes.
        """
        return self.table.version

    def pattern_count(self, pattern: Pattern) -> int:
        """Exact number of triples matching an encoded pattern."""
        with self._lock:
            self._sync()
            cached = self._pattern_counts.get(pattern)
            if cached is None:
                cached = self.table.match_count(pattern)
                self._pattern_counts[pattern] = cached
            return cached

    def distinct(self, pattern: Pattern, position: int) -> int:
        """Distinct values at ``position`` among the pattern's matches.

        For a bound position this is 1 when any match exists (0
        otherwise); unbound positions are measured on the index.
        """
        if pattern[position] is not None:
            return 1 if self.pattern_count(pattern) else 0
        with self._lock:
            self._sync()
            key = (pattern, position)
            cached = self._distinct_cache.get(key)
            if cached is None:
                cached = self.table.distinct_count(pattern, position)
                self._distinct_cache[key] = cached
            return cached

    def invalidate(self) -> None:
        """Drop the memos explicitly.

        Retained for callers that want to bound memory; correctness no
        longer depends on it — every read auto-invalidates against the
        table version (see the module docstring).
        """
        with self._lock:
            self._pattern_counts.clear()
            self._distinct_cache.clear()
            self._synced_version = self.table.version

    def probe_calls(self) -> Tuple[int, int]:
        """(count-cache size, distinct-cache size) — for instrumentation."""
        return len(self._pattern_counts), len(self._distinct_cache)
