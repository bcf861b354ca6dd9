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

The memos live in one record per table version, computed from that
version's :class:`~repro.storage.triple_table.TableView` only: a reader
asks :meth:`TableStatistics.at` for the record of the view it was
handed, so a count it reads is of its own version.  The newest record
is published and a newer view swaps in a successor instead of clearing
it (DESIGN.md §19), so no write path has anything to invalidate.  The
successor is a copy that keeps every entry no row of the write matches
— a row matches only its eight ``None``-masks, so the others' counts
are unmoved — and starts empty when the write has more rows than the
record has entries.  A reader whose view is older than the published
record gets a record of its own, which is not published.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .triple_table import Pattern, TableView, TripleTable


class _Counts:
    """The pattern-count and distinct-count memos of one table view."""

    __slots__ = ("view", "patterns", "distincts")

    def __init__(self, view: TableView):
        self.view = view
        self.patterns: Dict[Pattern, int] = {}
        self.distincts: Dict[Tuple[Pattern, int], int] = {}

    def successor(self, view: TableView) -> "_Counts":
        """The record of a newer view, carrying what it can."""
        moved, _ = view.changed_patterns(
            self.view.version, len(self.patterns) + len(self.distincts)
        )
        after = _Counts(view)
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

    def pattern_count(self, pattern: Pattern) -> int:
        """Exact number of triples matching an encoded pattern."""
        cached = self.patterns.get(pattern)
        if cached is None:
            cached = self.patterns[pattern] = self.view.match_count(pattern)
        return cached

    def distinct(self, pattern: Pattern, position: int) -> int:
        """Distinct values at ``position`` among the pattern's matches.

        For a bound position this is 1 when any match exists (0
        otherwise); unbound positions are measured on the index.
        """
        if pattern[position] is not None:
            return 1 if self.pattern_count(pattern) else 0
        key = (pattern, position)
        cached = self.distincts.get(key)
        if cached is None:
            cached = self.distincts[key] = self.view.distinct_count(pattern, position)
        return cached


class TableStatistics:
    """Memoizing statistics facade over a :class:`TripleTable`.

    Threads answering through one shared answerer probe the same
    statistics while ordering joins; the read path takes no lock.  A
    reader takes the record of its view once and stores only into it.
    """

    def __init__(self, table: TripleTable):
        self.table = table
        self._counts = _Counts(table.view)

    def at(self, view: TableView) -> _Counts:
        """The memo record of ``view``'s version."""
        counts = self._counts
        if counts.view.version < view.version:
            counts = self._counts = counts.successor(view)
        elif counts.view is not view:
            counts = _Counts(view)
        return counts

    def probe_calls(self) -> Tuple[int, int]:
        """(count-cache size, distinct-cache size) — for instrumentation."""
        counts = self._counts
        return len(counts.patterns), len(counts.distincts)
