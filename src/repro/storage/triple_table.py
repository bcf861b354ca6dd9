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

Writes cost what they change (DESIGN.md §20).  Each index is two
sorted, read-only runs of the same permutation: a large *base* and a
small *tail*.  :meth:`TripleTable.freeze` sorts only the buffered rows,
drops the ones either run already holds, merges the rest into a *new*
tail, and folds the tail into a new base only once it holds
:data:`FOLD_SHARE` of the base's rows; a first build folds at once, so a
store built once and never written has empty tails.  The merge logs the
new rows and publishes all of it as the next version's
:class:`TableView` by one reference swap.  A scan merges the two runs'
ranges only when the tail's is non-empty, and returns the rows, in the
order, of one merged index; counts add the two range sizes.  A reader
reads one view, so its lookups and log reads are of one version
(DESIGN.md §9), and what is derived from the table takes a write's rows
from :meth:`TableView.changes` instead of diffing the index.  Buffering
and merging serialize on one lock; reads take none.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from ..rdf.terms import Term, Triple
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


#: A tail is folded into its base once it holds this share of the base's
#: rows: a write then copies O(tail) keys per index, not O(base), and a
#: fold's O(base) copy is paid once per ``FOLD_SHARE * base`` new rows
#: (DESIGN.md §20 has the measurement behind the value).
FOLD_SHARE = 1 / 16

_EMPTY = np.empty(0, dtype=np.int64)
_EMPTY.setflags(write=False)


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


def _merge(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The sorted union of two sorted, disjoint key arrays.

    Returns one of them as it is when the other is empty; otherwise a
    new array (a stable sort of two sorted runs is one linear merge).
    """
    if not second.size:
        return first
    if not first.size:
        return second
    out = np.concatenate((first, second))
    out.sort(kind="stable")
    return out


class TableView:
    """One published state of a :class:`TripleTable`: each permutation's
    two sorted runs, their row count and version, and the merge log up to
    that version.  Its rows never change once published, so it also
    memoizes the exact pattern and distinct counts asked of it
    (:meth:`pattern_count`, :meth:`distinct`): every reader of one
    version shares them, and the next version starts with empty memos."""

    __slots__ = ("runs", "count", "version", "bits", "_mask", "_log", "_counts", "_distincts")

    def __init__(
        self,
        runs: Dict[str, Tuple[np.ndarray, np.ndarray]],
        version: int,
        bits: int,
        log: List[np.ndarray],
    ):
        #: ``runs[name]`` is ``(base, tail)``: two sorted, disjoint,
        #: read-only key arrays whose merge is the ``name`` index.
        self.runs = runs
        base, tail = runs["spo"]
        self.count = int(base.shape[0] + tail.shape[0])
        self.version = version
        self.bits = bits
        self._mask = (1 << bits) - 1
        #: The table's append-only merge log: entry ``i`` took it from
        #: version ``i`` to ``i + 1``.  This view reads its first
        #: ``version`` entries only.
        self._log = log
        self._counts: Dict[Pattern, int] = {}
        self._distincts: Dict[Tuple[Pattern, int], int] = {}

    def changes(self, since: Optional[int]) -> Tuple[np.ndarray, int]:
        """The ``spo`` keys stored after version ``since``, and this view's version.

        ``since=None`` is the whole ``spo`` index.  Otherwise the keys
        are the sorted rows the merges from ``since`` up to this view
        stored: exactly this view's index minus the index at ``since``.
        """
        if since is None:
            return _merge(*self.runs["spo"]), self.version
        blocks = self._log[since : self.version]
        keys = np.concatenate([np.empty(0, dtype=np.int64), *blocks])
        return np.sort(keys), self.version

    def pattern_count(self, pattern: Pattern) -> int:
        """:meth:`match_count`, memoized: the optimizers ask the same
        patterns many times across candidate covers (paper Section 5.2)."""
        cached = self._counts.get(pattern)
        if cached is None:
            cached = self._counts[pattern] = self.match_count(pattern)
        return cached

    def distinct(self, pattern: Pattern, position: int) -> int:
        """:meth:`distinct_count`, memoized; for a bound position, 1 when
        any match exists (0 otherwise)."""
        if pattern[position] is not None:
            return 1 if self.pattern_count(pattern) else 0
        key = (pattern, position)
        cached = self._distincts.get(key)
        if cached is None:
            cached = self._distincts[key] = self.distinct_count(pattern, position)
        return cached

    def match_count(self, pattern: Pattern) -> int:
        """Exact number of triples matching ``pattern`` (O(log n))."""
        return self._count(*self._bounds(pattern))

    def match(self, pattern: Pattern) -> np.ndarray:
        """All matching triples as an ``(n, 3)`` array in (s, p, o) order."""
        name, lo_key, hi_key = self._bounds(pattern)
        return self.decode_keys(self._scan(name, lo_key, hi_key), name)

    def match_range_count(self, pattern: Pattern, position: int, lo: int, hi: int) -> int:
        """Number of triples matching ``pattern`` with ``position``'s code in ``[lo, hi)``."""
        return self._count(*self._interval_bounds(pattern, position, lo, hi))

    def match_range(self, pattern: Pattern, position: int, lo: int, hi: int) -> np.ndarray:
        """Triples matching ``pattern`` whose ``position`` code lies in ``[lo, hi)``.

        ``pattern`` must leave ``position`` unbound; the scan runs on the
        permutation whose key order puts the bound positions first and
        ``position`` next, so the whole interval is one binary-searched
        contiguous key range (the LiteMat range-scan primitive,
        DESIGN.md §16).  Returns an ``(n, 3)`` array in (s, p, o) order.
        """
        name, lo_key, hi_key = self._interval_bounds(pattern, position, lo, hi)
        return self.decode_keys(self._scan(name, lo_key, hi_key), name)

    def iter_matches(self, pattern: Pattern) -> Iterator[Tuple[int, int, int]]:
        """Iterate matches as plain tuples (used by tuple-at-a-time code)."""
        for row in self.match(pattern):
            yield (int(row[0]), int(row[1]), int(row[2]))

    def contains(self, s: int, p: int, o: int) -> bool:
        """Membership test for one encoded triple."""
        return self.match_count((s, p, o)) == 1

    def distinct_count(self, pattern: Pattern, position: int) -> int:
        """Number of distinct values at ``position`` among matches.

        Counted per run, merging no keys: the base's distinct values plus
        the tail's that the base's lack.
        """
        name, lo_key, hi_key = self._bounds(pattern)
        slot = PERMUTATIONS[name].index(position)
        # The slot right after the bound prefix is sorted within the range.
        presorted = slot == sum(value is not None for value in pattern)
        base, tail = self.runs[name]
        values = self._distinct(base, lo_key, hi_key, slot, presorted)
        if tail.size:
            extra = self._distinct(tail, lo_key, hi_key, slot, presorted)
            return int(values.size + keys_absent_from(extra, values).size)
        return int(values.size)

    def _distinct(
        self, run: np.ndarray, lo_key: int, hi_key: int, slot: int, presorted: bool
    ) -> np.ndarray:
        """The sorted distinct codes at ``slot`` of ``run``'s keys in ``[lo_key, hi_key)``."""
        keys = run[run.searchsorted(lo_key) : run.searchsorted(hi_key)]
        column = self._column_from_keys(keys, slot)
        if not presorted:
            column = np.sort(column)
        return _dedup_sorted(column)

    def _scan(self, name: str, lo_key: int, hi_key: int) -> np.ndarray:
        """The ``name`` index's keys in ``[lo_key, hi_key)``, in index order.

        The two runs' ranges are merged only when the tail's is non-empty.
        """
        base, tail = self.runs[name]
        keys = base[base.searchsorted(lo_key) : base.searchsorted(hi_key)]
        if tail.size:
            extra = tail[tail.searchsorted(lo_key) : tail.searchsorted(hi_key)]
            keys = _merge(keys, extra)
        return keys

    def _count(self, name: str, lo_key: int, hi_key: int) -> int:
        """The number of ``name`` keys in ``[lo_key, hi_key)``, copying none."""
        total = 0
        for run in self.runs[name]:
            if run.size:
                total += int(run.searchsorted(hi_key) - run.searchsorted(lo_key))
        return total

    def _bounds(self, pattern: Pattern) -> Tuple[str, int, int]:
        """The index serving a pattern and its composite key range ``[lo, hi)``."""
        bound = frozenset(i for i, v in enumerate(pattern) if v is not None)
        name = _INDEX_FOR_BOUND[bound]
        order = PERMUTATIONS[name]
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
        hi_key = prefix + (1 << width) if width else prefix + 1
        return name, prefix, hi_key

    def _interval_bounds(
        self, pattern: Pattern, position: int, lo: int, hi: int
    ) -> Tuple[str, int, int]:
        """The index serving a pattern plus code interval, and its key range."""
        if pattern[position] is not None:
            raise ValueError(f"range position {position} is bound in pattern {pattern}")
        bound = frozenset(i for i, v in enumerate(pattern) if v is not None)
        name = _RANGE_INDEX[(bound, position)]
        order = PERMUTATIONS[name]
        shifts = (2 * self.bits, self.bits, 0)
        prefix = 0
        for slot in range(len(bound)):
            value = pattern[order[slot]]
            prefix |= value << shifts[slot]
        lo = max(lo, 0)
        hi = min(hi, self._mask + 1)
        if lo >= hi:
            return name, 0, 0
        shift = shifts[len(bound)]
        return name, prefix | (lo << shift), prefix + (hi << shift)

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
        #: Buffered ``(n, 3)`` blocks the table owns, merged by the next freeze.
        self._pending: List[np.ndarray] = []
        self._dirty = True
        #: The new ``spo`` keys of every merge, in version order.
        self._log: List[np.ndarray] = []
        #: The published state: replaced whole by each merge that stores a row.
        empty = dict.fromkeys(PERMUTATIONS, (_EMPTY, _EMPTY))
        self.view = TableView(empty, 0, bits, self._log)

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def add_triples(self, triples: Iterable[Triple]) -> int:
        """Encode and buffer ground triples; returns how many were buffered.

        Raises ValueError, buffering none of them and adding no term to
        the dictionary, if a term's code would not fit ``[0, 2**bits)``:
        known terms keep their codes, new ones would take the next free
        codes, and both are checked before any new term is encoded.
        """
        dictionary = self.dictionary
        known = dictionary.snapshot.code_of.get
        #: New term -> ``-1 - n``, its place among the new terms.
        new: Dict[Term, int] = {}

        def code(term: Term) -> int:
            found = known(term)
            return new.setdefault(term, -1 - len(new)) if found is None else found

        rows = [(code(t.s), code(t.p), code(t.o)) for t in triples]
        block = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
        top = len(dictionary) + len(new) - 1 if new else -1
        if block.size and max(int(block.max()), top) >> self.bits:
            raise self._overflow()
        if new:
            codes = np.array([dictionary.encode(term) for term in new], dtype=np.int64)
            placeholders = block < 0
            block[placeholders] = codes[-1 - block[placeholders]]
        # A racing encoder may still have moved the new terms' codes up.
        return self._buffer(self._checked(block))

    def add_encoded(self, rows: Iterable[Tuple[int, int, int]]) -> int:
        """Buffer already-encoded rows.

        Raises ValueError, buffering none of them, if a code lies outside
        ``[0, 2**bits)``.
        """
        rows = list(rows)
        block = np.array(rows, dtype=np.int64).reshape(len(rows), 3)
        return self._buffer(self._checked(block))

    def add_block(self, block: np.ndarray) -> int:
        """Buffer a copy of an already-encoded ``(n, 3)`` array.

        The copy is taken here, so the caller may reuse ``block`` at once.
        Raises ValueError, buffering nothing, if a code lies outside
        ``[0, 2**bits)``.
        """
        if block.ndim != 2 or block.shape[1] != 3:
            raise ValueError(f"expected an (n, 3) block, got shape {block.shape}")
        return self._buffer(self._checked(np.array(block, dtype=np.int64)))

    def _checked(self, block: np.ndarray) -> np.ndarray:
        """``block`` itself, once every code in it fits a ``bits``-bit column."""
        if block.size and (block.min() < 0 or block.max() >> self.bits):
            raise self._overflow()
        return block

    def _overflow(self) -> ValueError:
        return ValueError(
            f"codes must lie in [0, {1 << self.bits}) for {self.bits}-bit columns"
        )

    def _buffer(self, block: np.ndarray) -> int:
        """Hold an ``(n, 3)`` block this table owns until the next freeze."""
        if block.shape[0]:
            with self._lock:
                self._pending.append(block)
                self._dirty = True
        return int(block.shape[0])

    def freeze(self) -> None:
        """Merge the buffered rows into the six indexes' tails.

        Rows already stored (or repeated in the buffer) are dropped; the
        rest are merged into *new* tail arrays — folded into new base
        arrays once a tail holds :data:`FOLD_SHARE` of its base — logged,
        and published with the next version as one new :class:`TableView`.
        """
        if not self._dirty:
            return
        with self._lock:
            if not self._dirty:
                return
            view = self.view
            rows = np.concatenate([np.empty((0, 3), dtype=np.int64), *self._pending])
            fresh = _dedup_sorted(np.sort(self._pack(rows[:, 0], rows[:, 1], rows[:, 2])))
            for run in view.runs["spo"]:
                fresh = keys_absent_from(fresh, run)
            if fresh.size:
                columns = [view._column_from_keys(fresh, s) for s in range(3)]
                base, tail = view.runs["spo"]
                fold = tail.size + fresh.size >= FOLD_SHARE * base.size
                runs = {}
                for name, order in PERMUTATIONS.items():
                    keys = fresh
                    if name != "spo":
                        keys = np.sort(self._pack(*(columns[position] for position in order)))
                    base, tail = view.runs[name]
                    tail = _merge(tail, keys)
                    if fold:
                        base, tail = _merge(base, tail), _EMPTY
                    base.setflags(write=False)
                    tail.setflags(write=False)
                    runs[name] = (base, tail)
                self._log.append(fresh)
                self.view = TableView(runs, view.version + 1, self.bits, self._log)
            self._pending = []
            self._dirty = False

    def copy(self) -> "TripleTable":
        """A new table over the same dictionary and (shared, read-only) runs.

        The copy starts at version 0 with an empty log of its own.
        """
        self.freeze()
        other = TripleTable(dictionary=self.dictionary, bits=self.bits)
        other.view = TableView(self.view.runs, 0, self.bits, other._log)
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
        pending = sum(len(block) for block in self._pending)
        return f"TripleTable({self.view.count} triples frozen, {pending} pending)"
