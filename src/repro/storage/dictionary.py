"""Dictionary encoding of RDF values.

The paper stores the ``Triples(s,p,o)`` table dictionary-encoded,
"using a unique integer for each distinct value (URIs and literals)",
with the dictionary indexed both ways (Section 5.1).  :class:`Dictionary`
is that two-way map; codes are dense, starting at 0, so they double as
array indices.

Concurrency: all read paths (``lookup``/``decode``/``stats``/iteration)
resolve against a single immutable-identity *snapshot* object grabbed in
one attribute read, so a reader can never observe the forward map and
the reverse map of two different states (the old layout kept them as two
separate attributes, leaving a torn-read window between the maps during
re-encoding).  Code *allocation* is a check-then-act sequence — two
worker threads encoding the same unseen term could both observe "absent"
and hand out clashing codes — so :meth:`encode` takes a lock on the miss
path only; the hot path (term already known) stays a single dict read.

Renumbering (the LiteMat interval assigner, DESIGN.md §16) never mutates
codes in place: :meth:`remapped` builds a complete *new* dictionary and
the caller publishes it by swapping whole-object references.  Concurrent
readers holding codes from the old dictionary keep decoding against the
old object, which is never touched.

Per-kind counts (:meth:`stats`) are maintained incrementally at
allocation time: the old implementation rescanned every stored term on
each call, an O(n) walk per report that made frequent ``stats``/CLI
polling quadratic over the load.

The result boundary (DESIGN.md §17): every answer crosses code → term
exactly once, through :meth:`Dictionary.decode_rows`, which decodes an
``(n, k)`` code array by column against the snapshot's ``term_of`` and
builds the row tuples with one ``zip``.
"""

from __future__ import annotations

import gc
import threading
from collections import Counter
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..rdf.terms import BlankNode, Literal, Term, URI


# Who paused the collector: [callers inside, was it on when the first came].
_pause_lock = threading.Lock()
_pause_state = [0, False]


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Keep the cyclic collector out of one bulk build of acyclic objects.

    Allocating tens of thousands of GC-tracked tuples trips a young
    collection every 700 of them and promotes the half-built set into
    the old generation, whose collections then rescan it (and the whole
    heap) again and again.  Pauses nest across threads: the first caller
    in records whether the collector was on and turns it off, the last
    one out turns it back on if it was.  (Without the count, a thread
    entering inside another's pause reads "off", and by disabling after
    the other's re-enable leaves collection off for the whole process.)
    """
    with _pause_lock:
        if _pause_state[0] == 0:
            _pause_state[1] = gc.isenabled()
            gc.disable()
        _pause_state[0] += 1
    try:
        yield
    finally:
        with _pause_lock:
            _pause_state[0] -= 1
            if _pause_state[0] == 0 and _pause_state[1]:
                gc.enable()


def _kind_of(term: Term) -> str:
    """The stats bucket a term counts under."""
    if isinstance(term, URI):
        return "uris"
    if isinstance(term, Literal):
        return "literals"
    if isinstance(term, BlankNode):
        return "blank_nodes"
    return "other"


class _Snapshot:
    """One consistent state of the two-way map.

    ``term_of[code] == term`` iff ``code_of[term] == code``; both maps
    live on the same object so readers that grab the snapshot once can
    never see them disagree.  Snapshots are grow-only: within one
    snapshot a ``term_of`` entry is appended *before* the code is
    published in ``code_of``, so any code a reader can obtain already
    decodes.
    """

    __slots__ = ("code_of", "term_of", "kind_counts")

    def __init__(
        self,
        code_of: Optional[Dict[Term, int]] = None,
        term_of: Optional[List[Term]] = None,
        kind_counts: Optional[Dict[str, int]] = None,
    ) -> None:
        self.code_of: Dict[Term, int] = code_of if code_of is not None else {}
        self.term_of: List[Term] = term_of if term_of is not None else []
        self.kind_counts: Dict[str, int] = (
            kind_counts
            if kind_counts is not None
            else {"uris": 0, "literals": 0, "blank_nodes": 0}
        )


class Dictionary:
    """Two-way value ↔ integer-code map for ground RDF terms."""

    def __init__(self) -> None:
        self._snapshot = _Snapshot()
        self._lock = threading.Lock()

    @staticmethod
    def _check_encodable(term: Term) -> None:
        if term.is_variable:
            raise TypeError(f"variables are not dictionary-encoded: {term}")
        if not isinstance(term, (URI, Literal, BlankNode)):
            raise TypeError(
                f"only ground RDF terms are dictionary-encoded, "
                f"got {type(term).__name__}: {term}"
            )

    def encode(self, term: Term) -> int:
        """The code of ``term``, allocating a new one on first sight."""
        self._check_encodable(term)
        snap = self._snapshot
        code = snap.code_of.get(term)
        if code is None:
            with self._lock:
                # Re-read the snapshot under the lock: another thread may
                # have allocated the code — or published a remapped
                # snapshot — between the read and the acquire.
                snap = self._snapshot
                code = snap.code_of.get(term)
                if code is None:
                    code = len(snap.term_of)
                    # Append to the reverse map before publishing the
                    # code: a racing reader that obtains the code via
                    # code_of can then always decode it.
                    snap.term_of.append(term)
                    snap.code_of[term] = code
                    kind = _kind_of(term)
                    snap.kind_counts[kind] = snap.kind_counts.get(kind, 0) + 1
        return code

    def encode_many(self, terms: Iterable[Term]) -> List[int]:
        """Encode a batch of terms."""
        return [self.encode(t) for t in terms]

    def lookup(self, term: Term) -> Optional[int]:
        """The code of ``term`` if already allocated, else ``None``.

        Query translation uses this: a constant absent from the
        dictionary cannot match any stored triple.
        """
        return self._snapshot.code_of.get(term)

    def decode(self, code: int) -> Term:
        """The term a code stands for."""
        return self._snapshot.term_of[code]

    def decode_columns(self, codes: np.ndarray) -> List[List[Term]]:
        """An ``(n, k)`` code array decoded column-wise: ``k`` lists of ``n``.

        The one code → term loop in ``src/``: one list index per cell,
        no call, generator or tuple per row.
        """
        term_of = self._snapshot.term_of
        return [[term_of[v] for v in column] for column in codes.T.tolist()]

    def decode_rows(self, codes: np.ndarray) -> FrozenSet[Tuple[Term, ...]]:
        """The distinct rows of an ``(n, k)`` code array, decoded.

        The crossing every engine's answers take, once.  A zero-column
        array is a Boolean result: ``{()}`` when it has rows, else the
        empty set.
        """
        n, k = codes.shape
        if k == 0:
            return frozenset({()}) if n else frozenset()
        # Rows are tuples of existing terms in one frozenset: acyclic.
        with _collector_paused():
            return frozenset(zip(*self.decode_columns(codes)))

    def items(self) -> Iterator[Tuple[int, Term]]:
        """Iterate ``(code, term)`` pairs of one consistent snapshot."""
        snap = self._snapshot
        return enumerate(list(snap.term_of))

    def remapped(self, leading: Sequence[Term]) -> "Dictionary":
        """A new dictionary assigning ``leading`` the codes ``0..len-1``.

        Terms of this dictionary not in ``leading`` follow in their old
        code order.  The receiver is left untouched, so concurrent
        readers holding old codes keep decoding correctly against the
        old object; the caller publishes the new dictionary by swapping
        whole-object references (copy-on-write renumbering, the LiteMat
        assigner's re-encode path).
        """
        # Built in bulk, not by |dictionary| locked ``encode`` calls (most
        # of a LiteMat re-encode).  ``dict.fromkeys`` keeps each leading
        # term's first occurrence, in order; the rest are told apart by
        # old code, so no stored term is hashed or classified twice.
        leading = list(dict.fromkeys(leading))
        for term in leading:
            self._check_encodable(term)
        with self._lock:  # one state of term_of, code_of and kind_counts
            snap = self._snapshot
            stored = list(snap.term_of)
            moved = {snap.code_of.get(term) for term in leading}
            kind_counts = Counter(snap.kind_counts)
            kind_counts.update(
                _kind_of(term) for term in leading if term not in snap.code_of
            )
        terms = leading + [
            term for code, term in enumerate(stored) if code not in moved
        ]
        new = Dictionary()
        new._snapshot = _Snapshot(
            dict(zip(terms, range(len(terms)))), terms, dict(kind_counts)
        )
        return new

    def __len__(self) -> int:
        return len(self._snapshot.term_of)

    def __contains__(self, term: Term) -> bool:
        return term in self._snapshot.code_of

    def __repr__(self) -> str:
        return f"Dictionary({len(self)} values)"

    def stats(self) -> Dict[str, int]:
        """Counts per term kind, for reporting (O(1): no term rescan)."""
        counts = self._snapshot.kind_counts
        return {
            "uris": counts.get("uris", 0),
            "literals": counts.get("literals", 0),
            "blank_nodes": counts.get("blank_nodes", 0),
        }
