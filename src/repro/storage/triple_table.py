"""The dictionary-encoded ``Triples(s, p, o)`` table with all 6 indexes.

Mirrors the paper's storage layout (Section 5.1): one triples table of
integer codes, "indexed by all permutations of the s, p, o columns,
leading to a total of 6 indexes".

Each index is a sorted ``numpy`` array of 64-bit composite keys packing
the three columns in one permutation order; a lookup with any subset of
bound positions is a binary-searched contiguous range on the
permutation whose order puts the bound positions first:

===========  =================
bound        index used
===========  =================
(none)       spo (full scan)
s            spo
p            pos
o            osp
s, p         spo
p, o         pos
s, o         sop
s, p, o      spo
===========  =================

Column codes must fit in ``BITS`` bits (default 21 → two million
distinct values, ample for the benchmark scales; raise it for more).

Writes merge (DESIGN.md §20): :meth:`TripleTable.freeze` sorts only the
buffered rows, merges the ones not yet stored into *new* read-only
index arrays, logs them, and publishes all of it as the next version's
:class:`TableView` by one reference swap.  A reader reads one view, so
its lookups and log reads are of one version (DESIGN.md §9), and what
is derived from the table takes a write's rows from
:meth:`TableView.changes` instead of diffing the index.  Buffering and
merging serialize on one lock; reads take none.
"""

from __future__ import annotations

import threading
from typing import Iterable, Iterator, List, Optional, Set, Tuple

import numpy as np

from ..rdf.terms import Triple
from .dictionary import Dictionary

#: A pattern binds some positions to codes and leaves others None.
Pattern = Tuple[Optional[int], Optional[int], Optional[int]]

#: The six permutations, as position orders into (s, p, o).
PERMUTATIONS = {
    "spo": (0, 1, 2),
    "sop": (0, 2, 1),
    "pso": (1, 0, 2),
    "pos": (1, 2, 0),
    "osp": (2, 0, 1),
    "ops": (2, 1, 0),
}

#: Which permutation serves which set of bound positions (as a frozenset).
_INDEX_FOR_BOUND = {
    frozenset(): "spo",
    frozenset({0}): "spo",
    frozenset({1}): "pos",
    frozenset({2}): "osp",
    frozenset({0, 1}): "spo",
    frozenset({1, 2}): "pos",
    frozenset({0, 2}): "sop",
    frozenset({0, 1, 2}): "spo",
}


def index_for_pattern(pattern: Pattern) -> str:
    """Name of the permutation index that serves a pattern's bound set."""
    bound = frozenset(i for i, v in enumerate(pattern) if v is not None)
    return _INDEX_FOR_BOUND[bound]


#: Which permutation serves a (bound set, range position) pair: the
#: bound positions must form the key prefix and the range position must
#: come immediately after, so the code interval is one contiguous
#: composite-key interval.  Every combination with the range position
#: outside the bound set is served by at least one of the 6 indexes.
_RANGE_INDEX = {}
for _name, _order in PERMUTATIONS.items():
    for _k in range(3):
        _RANGE_INDEX.setdefault((frozenset(_order[:_k]), _order[_k]), _name)


def index_for_range(pattern: Pattern, position: int) -> str:
    """Name of the permutation index serving a range scan on ``position``."""
    bound = frozenset(i for i, v in enumerate(pattern) if v is not None)
    return _RANGE_INDEX[(bound, position)]


def _dedup_sorted(values: np.ndarray) -> np.ndarray:
    """A sorted array without its adjacent duplicates."""
    keep = np.ones(values.shape, dtype=bool)
    keep[1:] = values[1:] != values[:-1]
    return values[keep]


def keys_absent_from(keys: np.ndarray, stored: np.ndarray) -> np.ndarray:
    """The members of ``keys`` that ``stored`` lacks (both sorted, duplicate-free)."""
    if stored.size == 0:
        return keys
    at = np.minimum(np.searchsorted(stored, keys), stored.size - 1)
    return keys[stored[at] != keys]




class TableView:
    """One published state of a :class:`TripleTable`: the six sorted
    index arrays, their row count and version, and the merge log up to
    that version.  It never changes once published."""

    __slots__ = ("indexes", "count", "version", "bits", "_mask", "_log")

    def __init__(self, indexes: dict, version: int, bits: int, log: List[np.ndarray]):
        self.indexes = indexes
        self.count = int(indexes["spo"].shape[0])
        self.version = version
        self.bits = bits
        self._mask = (1 << bits) - 1
        #: The table's append-only merge log: entry ``i`` took it from
        #: version ``i`` to ``i + 1``.  This view reads its first
        #: ``version`` entries only.
        self._log = log

    def changes(self, since: Optional[int]) -> Tuple[np.ndarray, int]:
        """The ``spo`` keys stored after version ``since``, and this view's version.

        ``since=None`` is the whole ``spo`` index.  Otherwise the keys
        are the sorted rows the merges from ``since`` up to this view
        stored: exactly this view's index minus the index at ``since``.
        """
        if since is None:
            return self.indexes["spo"], self.version
        blocks = self._log[since : self.version]
        keys = np.concatenate([np.empty(0, dtype=np.int64), *blocks])
        return np.sort(keys), self.version

    def changed_patterns(
        self, since: Optional[int], limit: int
    ) -> Tuple[Optional[Set[Pattern]], int]:
        """Every pattern a row stored after ``since`` matches, and this view's version.

        A row ``(s, p, o)`` matches exactly its eight ``None``-masks, so a
        count or distinct count memoized for any other pattern is unmoved
        (DESIGN.md §20).  None instead of the set when more than ``limit``
        rows were stored: a memo of ``limit`` entries is then cheaper to
        refill than to filter.
        """
        if sum(block.size for block in self._log[since : self.version]) > limit:
            return None, self.version
        keys, version = self.changes(since)
        matched: Set[Pattern] = set()
        for s, p, o in self.decode_keys(keys).tolist():
            matched.update(
                (
                    (s, p, o), (s, p, None), (s, None, o), (None, p, o),
                    (s, None, None), (None, p, None), (None, None, o), (None, None, None),
                )
            )
        return matched, version

    def match_count(self, pattern: Pattern) -> int:
        """Exact number of triples matching ``pattern`` (O(log n))."""
        return self._range(pattern)[0].shape[0]

    def match(self, pattern: Pattern) -> np.ndarray:
        """All matching triples as an ``(n, 3)`` array in (s, p, o) order."""
        return self.decode_keys(*self._range(pattern))

    def match_range_count(self, pattern: Pattern, position: int, lo: int, hi: int) -> int:
        """Number of triples matching ``pattern`` with ``position``'s code in ``[lo, hi)``."""
        return self._range_interval(pattern, position, lo, hi)[0].shape[0]

    def match_range(self, pattern: Pattern, position: int, lo: int, hi: int) -> np.ndarray:
        """Triples matching ``pattern`` whose ``position`` code lies in ``[lo, hi)``.

        ``pattern`` must leave ``position`` unbound; the scan runs on the
        permutation whose key order puts the bound positions first and
        ``position`` next, so the whole interval is one binary-searched
        contiguous key range (the LiteMat range-scan primitive,
        DESIGN.md §16).  Returns an ``(n, 3)`` array in (s, p, o) order.
        """
        return self.decode_keys(*self._range_interval(pattern, position, lo, hi))

    def iter_matches(self, pattern: Pattern) -> Iterator[Tuple[int, int, int]]:
        """Iterate matches as plain tuples (used by tuple-at-a-time code)."""
        for row in self.match(pattern):
            yield (int(row[0]), int(row[1]), int(row[2]))

    def contains(self, s: int, p: int, o: int) -> bool:
        """Membership test for one encoded triple."""
        return self.match_count((s, p, o)) == 1

    def distinct_count(self, pattern: Pattern, position: int) -> int:
        """Number of distinct values at ``position`` among matches."""
        keys, name = self._range(pattern)
        order = PERMUTATIONS[name]
        slot = order.index(position)
        column = self._column_from_keys(keys, slot)
        # The slot right after the bound prefix is sorted within the range.
        if slot != sum(value is not None for value in pattern):
            column = np.sort(column)
        return int(_dedup_sorted(column).size)

    def _range(self, pattern: Pattern) -> Tuple[np.ndarray, str]:
        """Binary-search the composite range for a pattern.

        Returns ``(keys, index_name)``: the matching slice of the index.
        """
        bound = frozenset(i for i, v in enumerate(pattern) if v is not None)
        name = _INDEX_FOR_BOUND[bound]
        order = PERMUTATIONS[name]
        keys = self.indexes[name]
        shift2, shift1 = 2 * self.bits, self.bits
        prefix = 0
        width = 3 * self.bits
        for slot, position in enumerate(order):
            value = pattern[position]
            if value is None:
                break
            shift = (shift2, shift1, 0)[slot]
            prefix |= value << shift
            width = shift
        lo_key = prefix
        hi_key = prefix + (1 << width) if width else prefix + 1
        lo = int(np.searchsorted(keys, lo_key, side="left"))
        hi = int(np.searchsorted(keys, hi_key, side="left"))
        return keys[lo:hi], name

    def _range_interval(
        self, pattern: Pattern, position: int, lo: int, hi: int
    ) -> Tuple[np.ndarray, str]:
        """Binary-search the composite range for a pattern plus code interval."""
        if pattern[position] is not None:
            raise ValueError(f"range position {position} is bound in pattern {pattern}")
        bound = frozenset(i for i, v in enumerate(pattern) if v is not None)
        name = _RANGE_INDEX[(bound, position)]
        order = PERMUTATIONS[name]
        keys = self.indexes[name]
        shifts = (2 * self.bits, self.bits, 0)
        prefix = 0
        for slot in range(len(bound)):
            value = pattern[order[slot]]
            prefix |= value << shifts[slot]
        lo = max(lo, 0)
        hi = min(hi, self._mask + 1)
        if lo >= hi:
            return keys[:0], name
        shift = shifts[len(bound)]
        lo_key = prefix | (lo << shift)
        hi_key = prefix + (hi << shift)
        row_lo = int(np.searchsorted(keys, lo_key, side="left"))
        row_hi = int(np.searchsorted(keys, hi_key, side="left"))
        return keys[row_lo:row_hi], name

    def _column_from_keys(self, keys: np.ndarray, slot: int) -> np.ndarray:
        shift = (2 * self.bits, self.bits, 0)[slot]
        return (keys >> shift) & self._mask

    def decode_keys(self, keys: np.ndarray, name: str = "spo") -> np.ndarray:
        """Composite keys of one permutation back to ``(n, 3)`` (s, p, o) rows."""
        order = PERMUTATIONS[name]
        out = np.empty((keys.shape[0], 3), dtype=np.int64)
        for slot, position in enumerate(order):
            out[:, position] = self._column_from_keys(keys, slot)
        return out


class TripleTable:
    """Sorted-array triple store over a :class:`Dictionary`.

    Usage: ``add_triples`` (or ``add_encoded``, ``add_block``) then
    :meth:`freeze`, which publishes the merged rows as the next
    :attr:`view`.  Lookups read the published view: rows still buffered
    are not seen until a freeze merges them.
    """

    def __init__(self, dictionary: Optional[Dictionary] = None, bits: int = 21):
        if not 1 <= bits <= 21:
            raise ValueError("bits must be in 1..21 so three columns fit in 63 bits")
        self.dictionary = dictionary if dictionary is not None else Dictionary()
        self.bits = bits
        #: Serializes buffering and :meth:`freeze`; reads take no lock.
        self._lock = threading.Lock()
        self._pending: List[Tuple[int, int, int]] = []
        self._pending_blocks: List[np.ndarray] = []
        self._dirty = True
        #: The new ``spo`` keys of every merge, in version order.
        self._log: List[np.ndarray] = []
        empty = np.empty(0, dtype=np.int64)
        empty.setflags(write=False)
        #: The published state: replaced whole by each merge that stores a row.
        self.view = TableView(dict.fromkeys(PERMUTATIONS, empty), 0, bits, self._log)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Encode and buffer ground triples; returns how many were buffered."""
        encode = self.dictionary.encode
        return self.add_encoded(
            [(encode(triple.s), encode(triple.p), encode(triple.o)) for triple in triples]
        )

    def add_encoded(self, rows: Iterable[Tuple[int, int, int]]) -> int:
        """Buffer already-encoded rows."""
        rows = list(rows)
        with self._lock:
            self._pending.extend(rows)
            if rows:
                self._dirty = True
        return len(rows)

    def add_block(self, block: np.ndarray) -> int:
        """Buffer an already-encoded ``(n, 3)`` array without conversion."""
        if block.ndim != 2 or block.shape[1] != 3:
            raise ValueError(f"expected an (n, 3) block, got shape {block.shape}")
        with self._lock:
            self._pending_blocks.append(np.asarray(block, dtype=np.int64))
            if block.shape[0]:
                self._dirty = True
        return int(block.shape[0])

    def freeze(self) -> None:
        """Merge the buffered rows into the six sorted composite-key indexes.

        Rows already stored (or repeated in the buffer) are dropped; the
        rest are merged into *new* index arrays, logged, and published
        with the next version as one new :class:`TableView`.
        """
        if not self._dirty:
            return
        with self._lock:
            if not self._dirty:
                return
            if len(self.dictionary) > (1 << self.bits):
                raise OverflowError(
                    f"{len(self.dictionary)} dictionary codes exceed {self.bits}-bit columns"
                )
            blocks = [np.empty((0, 3), dtype=np.int64), *self._pending_blocks]
            if self._pending:
                blocks.append(np.array(self._pending, dtype=np.int64))
            rows = np.vstack(blocks)
            stored = self.view.indexes
            fresh = _dedup_sorted(np.sort(self._pack(rows[:, 0], rows[:, 1], rows[:, 2])))
            fresh = keys_absent_from(fresh, stored["spo"])
            if fresh.size:
                columns = [self.view._column_from_keys(fresh, s) for s in range(3)]
                indexes = {}
                for name, order in PERMUTATIONS.items():
                    keys = fresh
                    if name != "spo":
                        keys = np.sort(self._pack(*(columns[position] for position in order)))
                    held = stored[name]
                    if held.size:
                        keys = np.insert(held, np.searchsorted(held, keys), keys)
                    keys.setflags(write=False)
                    indexes[name] = keys
                self._log.append(fresh)
                version = self.view.version + 1
                self.view = TableView(indexes, version, self.bits, self._log)
            self._pending = []
            self._pending_blocks = []
            self._dirty = False

    def copy(self) -> "TripleTable":
        """A new table over the same dictionary and (shared, read-only) indexes.

        The copy starts at version 0 with an empty log of its own.
        """
        self.freeze()
        other = TripleTable(dictionary=self.dictionary, bits=self.bits)
        other.view = TableView(self.view.indexes, 0, self.bits, other._log)
        other._dirty = False
        return other

    def _pack(self, first: np.ndarray, second: np.ndarray, third: np.ndarray) -> np.ndarray:
        """Composite keys of three code columns, most significant first."""
        return (first << (2 * self.bits)) | (second << self.bits) | third

    # ------------------------------------------------------------------
    # Lookup: the published view's (every other read goes to ``view``)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.view.count

    def match(self, pattern: Pattern) -> np.ndarray:
        """:meth:`TableView.match` of the published view."""
        return self.view.match(pattern)

    def match_range(self, pattern: Pattern, position: int, lo: int, hi: int) -> np.ndarray:
        """:meth:`TableView.match_range` of the published view."""
        return self.view.match_range(pattern, position, lo, hi)

    def __repr__(self) -> str:
        pending = len(self._pending) + sum(len(b) for b in self._pending_blocks)
        return f"TripleTable({self.view.count} triples frozen, {pending} pending)"
