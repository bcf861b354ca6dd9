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

The result boundary (DESIGN.md §17): engines return their answers as
codes plus the snapshot that decodes them
(:class:`repro.engine.evaluator.AnswerSet`).  A snapshot decodes an
``(n, k)`` code array by column against its ``term_of``, and keeps a
grow-only per-code string table, ``text_of``, that answers are rendered
from without building a term tuple per row.
"""

from __future__ import annotations

import threading
from collections import Counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..rdf.terms import BlankNode, Literal, Term, URI


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

    ``text_of[code] == str(term_of[code])`` for every code below its
    length: the string table answers are rendered from.  It grows only
    when a render asks for a code it does not cover yet, under the
    owning dictionary's lock, and by the same rule as ``term_of``: the
    strings are built first and published with one ``extend``, so a
    reader that sees the new length sees every string under it.
    """

    __slots__ = ("code_of", "term_of", "kind_counts", "text_of", "_lock")

    def __init__(
        self,
        lock: threading.Lock,
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
        self.text_of: List[str] = []
        self._lock = lock

    def decode_columns(self, codes: np.ndarray) -> List[List[Term]]:
        """An ``(n, k)`` code array decoded column-wise: ``k`` lists of ``n``.

        The one code → term loop in ``src/``: one list index per cell,
        no call, generator or tuple per row.
        """
        term_of = self.term_of
        return [[term_of[v] for v in column] for column in codes.T.tolist()]

    def texts(self, size: int) -> List[str]:
        """The string table, grown to cover at least the codes ``< size``.

        A code that was never allocated stays uncovered, so indexing the
        table with it is an ``IndexError``, as with ``term_of``.
        """
        text_of = self.text_of
        if len(text_of) < size:
            with self._lock:
                start = len(text_of)
                if start < size:
                    text_of.extend([str(term) for term in self.term_of[start:size]])
        return text_of


class Dictionary:
    """Two-way value ↔ integer-code map for ground RDF terms."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._snapshot = _Snapshot(self._lock)

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

    @property
    def snapshot(self) -> _Snapshot:
        """The current state of the map: what an engine's answers decode
        against (``term_of``, ``code_of`` and the string table)."""
        return self._snapshot

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
            new._lock, dict(zip(terms, range(len(terms)))), terms, dict(kind_counts)
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
