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

The memos live in one record stamped with the table version it is
current at, and a read that finds the version moved swaps in a
successor record instead of clearing this one (DESIGN.md §19), so no
write path has anything to invalidate.  The successor is a copy that
keeps every entry no row of the write matches — a row matches only its
eight ``None``-masks, so the others' counts are unmoved — and starts
empty when the write has more rows than the record has entries.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .triple_table import Pattern, TripleTable


class _Counts:
    """The pattern-count and distinct-count memos of one table version."""

    __slots__ = ("version", "patterns", "distincts")

    def __init__(self, version: Optional[int]):
        self.version = version
        self.patterns: Dict[Pattern, int] = {}
        self.distincts: Dict[Tuple[Pattern, int], int] = {}

    def successor(self, table: TripleTable) -> "_Counts":
        """The record of the table's current version, carrying what it can."""
        moved, version = table.changed_patterns(
            self.version, len(self.patterns) + len(self.distincts)
        )
        after = _Counts(version)
        if moved is not None:
            # Filtered from copies: a probe still holding this record may
            # store into it meanwhile, and ``dict.copy`` is one atomic step.
            after.patterns = {
                pattern: count
                for pattern, count in self.patterns.copy().items()
                if pattern not in moved
            }
            after.distincts = {
                key: count
                for key, count in self.distincts.copy().items()
                if key[0] not in moved
            }
        return after


class TableStatistics:
    """Memoizing statistics facade over a :class:`TripleTable`.

    Threads answering through one shared answerer probe the same
    statistics while ordering joins; the read path takes no lock.  A
    probe captures the current record once and stores only into it, so
    a count computed while a write lands goes into the record of the
    version the probe started under, never into a newer one.  A record
    newer than the version a reader saw is still used: every count is
    read from the current index anyway.
    """

    def __init__(self, table: TripleTable):
        self.table = table
        self._counts = _Counts(None)

    def _current(self) -> _Counts:
        """The memo record of the table's current version."""
        self.table.freeze()
        counts = self._counts
        if counts.version is None or counts.version < self.table.version:
            counts = self._counts = counts.successor(self.table)
        return counts

    def pattern_count(self, pattern: Pattern) -> int:
        """Exact number of triples matching an encoded pattern."""
        counts = self._current()
        cached = counts.patterns.get(pattern)
        if cached is None:
            cached = counts.patterns[pattern] = self.table.match_count(pattern)
        return cached

    def distinct(self, pattern: Pattern, position: int) -> int:
        """Distinct values at ``position`` among the pattern's matches.

        For a bound position this is 1 when any match exists (0
        otherwise); unbound positions are measured on the index.
        """
        if pattern[position] is not None:
            return 1 if self.pattern_count(pattern) else 0
        counts = self._current()
        key = (pattern, position)
        cached = counts.distincts.get(key)
        if cached is None:
            cached = counts.distincts[key] = self.table.distinct_count(pattern, position)
        return cached

    def probe_calls(self) -> Tuple[int, int]:
        """(count-cache size, distinct-cache size) — for instrumentation."""
        counts = self._counts
        return len(counts.patterns), len(counts.distincts)
