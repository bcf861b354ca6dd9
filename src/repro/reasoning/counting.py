"""Counting-based saturation maintenance: insertions *and* deletions.

The paper motivates reformulation by the cost of keeping a saturated
store consistent under updates; its reference [4] (Goasdoué, Manolescu,
Roatiş, EDBT 2013) maintains the saturation with *multiplicity
counting*.  This module implements that scheme:

every triple in the saturated view carries the number of distinct ways
it is currently derivable — one for being explicitly asserted, plus one
per (explicit triple, rule) pair producing it.  Because the schema
closure makes every entailment an *immediate* consequence of a single
explicit triple, derivation counts never chain: inserting or deleting
an explicit triple adjusts exactly the counts of its direct
consequences.

* insert: bump the explicit triple's count and each consequence's
  count; a count moving 0 → positive adds the triple to the view;
* delete: the reverse; a count reaching 0 removes it.

``tests/test_counting.py`` checks the view equals batch re-saturation
after arbitrary interleavings of inserts and deletes (Hypothesis).

Not wired into answering: insert-only maintenance needs no counts
(``reasoning/encoded.py`` merges the new rows' consequences, DESIGN.md
§20) and the store has no delete API yet; deletion maintenance starts
from this module once ``TripleTable`` can delete (ROADMAP item 7
decides between wiring it in and deleting it; until then its callers
are ``examples/update_churn.py`` and the tests).
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Set

from ..rdf.graph import RDFGraph
from ..rdf.schema import RDFSchema
from ..rdf.terms import Triple
from .rules import entail_from_triple


class CountingSaturator:
    """A saturated view maintained under insertions and deletions."""

    def __init__(
        self,
        schema: RDFSchema,
        initial: Optional[Iterable[Triple]] = None,
    ) -> None:
        self.schema = schema
        #: Multiset of explicit (asserted) triples.
        self._explicit: Dict[Triple, int] = {}
        #: Derivation counts of every triple in the saturated view.
        self._counts: Dict[Triple, int] = {}
        self.graph = RDFGraph()
        if initial is not None:
            for triple in initial:
                self.add(triple)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> int:
        """Assert ``triple``; returns how many view triples appeared.

        Re-asserting an existing triple only bumps multiplicities (the
        view is a set, so nothing appears).
        """
        previous = self._explicit.get(triple, 0)
        self._explicit[triple] = previous + 1
        if previous:
            return 0
        appeared = self._bump(triple, +1)
        for consequence in entail_from_triple(triple, self.schema):
            appeared += self._bump(consequence, +1)
        return appeared

    def remove(self, triple: Triple) -> int:
        """Retract one assertion of ``triple``; returns view triples gone.

        Raises ``KeyError`` when the triple was never asserted.
        """
        previous = self._explicit.get(triple, 0)
        if not previous:
            raise KeyError(f"not asserted: {triple}")
        if previous > 1:
            self._explicit[triple] = previous - 1
            return 0
        del self._explicit[triple]
        disappeared = self._bump(triple, -1)
        for consequence in entail_from_triple(triple, self.schema):
            disappeared += self._bump(consequence, -1)
        return disappeared

    def _bump(self, triple: Triple, delta: int) -> int:
        count = self._counts.get(triple, 0) + delta
        if count < 0:
            raise AssertionError(f"negative derivation count for {triple}")
        if count == 0:
            self._counts.pop(triple, None)
            self.graph.discard(triple)
            return 1
        self._counts[triple] = count
        if delta > 0 and count == delta:
            self.graph.add(triple)
            return 1
        return 0

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def derivation_count(self, triple: Triple) -> int:
        """How many ways ``triple`` is currently derivable (0 = absent)."""
        return self._counts.get(triple, 0)

    def explicit_triples(self) -> Set[Triple]:
        """The currently asserted triples (ignoring multiplicities)."""
        return set(self._explicit)

    def __len__(self) -> int:
        """Size of the saturated view."""
        return len(self.graph)

    def __contains__(self, triple: Triple) -> bool:
        return triple in self._counts

    def __repr__(self) -> str:
        return (
            f"CountingSaturator({len(self._explicit)} explicit, "
            f"{len(self.graph)} saturated)"
        )
