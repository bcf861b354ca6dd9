"""Result-size estimation for JUCQs and their parts.

The paper's cost model (Section 4.1) "relies on estimated cardinalities
of various subqueries of the JUCQ".  This module provides them:

* **single atoms** — answered *exactly* from the store's sorted indexes
  (the paper's Table 1 reports exact per-triple counts, and its search
  "obtain[s] the statistics necessary for estimating the number of
  results of various fragments");
* **conjuncts** — the classic System-R style estimate: the product of
  the atom counts divided, per join variable, by the product of all but
  the smallest of the distinct-value counts at its occurrences;
* **UCQs** — the sum over the union terms (set-semantics overlap is
  ignored, as usual);
* **JUCQ operand joins** — the same join formula applied at the level
  of operand results, with per-variable distinct counts approximated
  from the tightest atom-level distinct count mentioning the variable.

Atoms and operands are memoized per table version and computed from
that version's view only; the view itself memoizes the exact counts
(DESIGN.md §19).
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..query.algebra import JUCQ, UCQ, as_jucq
from ..query.bgp import BGPQuery
from ..rdf.terms import IdRange, Term, Triple, Variable
from ..storage.database import RDFDatabase
from ..storage.triple_table import Pattern, TableView


class AtomStatistics(NamedTuple):
    """What the store knows about one atom, from a single encoding of it."""

    #: Exact number of stored triples matching the atom.
    count: int
    #: Variable name → exact distinct values it takes among the matches
    #: (the tightest position when it occurs twice), in position order
    #: (s, p, o): the per-variable divisions of the join formula run in
    #: that order, and a float result depends on it.
    distinct: Dict[str, int]


class OperandSummary(NamedTuple):
    """Everything the Section 4.1 formulas read of one UCQ operand."""

    #: Σ over terms and atoms of the exact match counts.
    scan_size: int
    #: Σ over terms of the conjunct estimates.
    cardinality: float
    #: (head variable, distinct-count proxy), in head order, each
    #: variable once (the operand-join divisions run in that order).
    distinct: Tuple[Tuple[Variable, float], ...]


def _join_selectivity(estimate: float, occurrences: Dict) -> float:
    """Per join variable: divide by all-but-the-smallest distinct counts."""
    for distincts in occurrences.values():
        distincts.sort()
        for d in distincts[1:]:
            estimate /= d
    return estimate


def _conjunct(
    atoms: Sequence[AtomStatistics], head: Sequence[Term]
) -> Tuple[float, int, Dict[str, List[int]]]:
    """One conjunct's join estimate capped by its head, its scan volume,
    and its occurrences map: variable name → ``max(1, distinct)`` at
    each atom mentioning it, in atom then position order (sorted only
    when the join formula ran, that is when no atom is empty)."""
    occurrences: Dict[str, List[int]] = {}
    scan = 0
    for atom in atoms:
        scan += atom.count
        for name, distinct in atom.distinct.items():
            occurrences.setdefault(name, []).append(max(1, distinct))
    if not atoms:
        return 1.0, scan, occurrences
    if any(atom.count == 0 for atom in atoms):
        return 0.0, scan, occurrences
    estimate = 1.0
    for atom in atoms:
        estimate *= atom.count
    estimate = _join_selectivity(estimate, occurrences)
    # Head projection cap: no more rows than the product of the head
    # variables' tightest domains (constants contribute factor 1).
    cap = 1.0
    for term in head:
        if isinstance(term, Variable):
            cap *= occurrences[term.value][0] if term.value in occurrences else 1
    # With no head variables (boolean or all-constant head) the cap
    # stays 1.0: at most one distinct answer row under set semantics.
    return max(min(estimate, cap), 0.0), scan, occurrences


#: An atom's memo entry: its encoded pattern (None when one of its
#: constants is unknown) and its statistics.
AtomEntry = Tuple[Optional[Pattern], AtomStatistics]


class _Memo:
    """The per-atom and per-operand memos of one table view."""

    __slots__ = ("view", "atoms", "operands")

    def __init__(self, view: TableView):
        self.view = view
        self.atoms: Dict[Triple, AtomEntry] = {}
        #: ``id(ucq)`` → (the operand, its summary).  Keyed on identity
        #: because ``UCQ.__hash__`` hashes a frozenset of every term; the
        #: entry holds the operand, so its id cannot be recycled.
        self.operands: Dict[int, Tuple[UCQ, OperandSummary]] = {}


class CardinalityEstimator:
    """Estimates answer-set sizes against one database.

    The cover searches re-ask about the same fragments constantly, so
    atoms are memoized by the atom and operands by identity (the
    ``Reformulator`` memo hands a repeated fragment the *same* ``UCQ``);
    a conjunct is computed from its atom entries in one pass, since its
    terms arrive once, inside their operand's one summary.  The two
    memos live in one record per table view (DESIGN.md §19), and every
    estimate is of the ``view`` it is asked at: the answerer hands in its
    snapshot's, and a caller that passes none gets the database's current
    one, taken once per call.  A computation captures the record once and writes only
    into it; a newer view publishes a new, empty record by one reference
    assignment, and any other view gets an unpublished record of its
    own.  So an entry stored in a record is of that record's version,
    and the read path takes no lock.  The exact counts an atom entry
    reads are memoized by the view itself
    (:meth:`~repro.storage.triple_table.TableView.pattern_count`), so
    they are shared with every other reader of that version.

    Only a table write that stores a row moves the version.  The term
    dictionary can also grow *without* one (``cq_to_sql`` encodes head
    constants), and that cannot invalidate an entry: a constant that
    was unknown when an atom was encoded occurs in no triple until a
    write stores one, and that write's view starts a new record.
    """

    def __init__(self, database: RDFDatabase):
        self.database = database
        self._memo = _Memo(database.table.view)

    def _current(self, view: Optional[TableView]) -> _Memo:
        """The memo record of ``view`` (None: the database's current one)."""
        if view is None:
            view = self.database.snapshot().table
        memo = self._memo
        if memo.view is not view:
            newer = memo.view.version < view.version
            memo = _Memo(view)
            if newer:
                self._memo = memo
        return memo

    # ------------------------------------------------------------------
    # Atoms
    # ------------------------------------------------------------------
    def atom_pattern(self, atom: Triple) -> Optional[Pattern]:
        """The encoded index pattern of an atom; None when a constant is unknown.

        An :class:`~repro.rdf.terms.IdRange` position is left unbound in
        the pattern (the range constraint is applied to the count only;
        distinct-count estimates over the unbounded pattern are safe
        overestimates).
        """
        pattern: List[Optional[int]] = []
        lookup = self.database.dictionary.lookup
        for term in atom:
            if isinstance(term, (Variable, IdRange)):
                pattern.append(None)
            else:
                code = lookup(term)
                if code is None:
                    return None
                pattern.append(code)
        return tuple(pattern)

    def _atom_entry(self, memo: _Memo, atom: Triple) -> AtomEntry:
        """Pattern, count and per-variable distincts of one atom (memoized)."""
        cached = memo.atoms.get(atom)
        if cached is not None:
            return cached
        pattern = self.atom_pattern(atom)
        if pattern is None:
            names = [t.value for t in atom if isinstance(t, Variable)]
            result = AtomStatistics(0, dict.fromkeys(names, 0))
        else:
            view = memo.view
            count: Optional[int] = None
            distinct: Dict[str, int] = {}
            for position, term in enumerate(atom):
                if isinstance(term, IdRange):
                    count = view.match_range_count(
                        pattern, position, term.lo, term.hi
                    )
                elif isinstance(term, Variable):
                    here = view.distinct(pattern, position)
                    best = distinct.get(term.value)
                    if best is None or here < best:
                        distinct[term.value] = here
            if count is None:
                count = view.pattern_count(pattern)
            result = AtomStatistics(count, distinct)
        entry = memo.atoms[atom] = (pattern, result)
        return entry

    def _atoms(self, memo: _Memo, cq: BGPQuery) -> List[AtomStatistics]:
        return [self._atom_entry(memo, atom)[1] for atom in cq.body]

    def atom_count(self, atom: Triple, view: Optional[TableView] = None) -> int:
        """Exact number of stored triples matching the atom."""
        return self._atom_entry(self._current(view), atom)[1].count

    def atom_distinct(self, atom: Triple, variable: Variable) -> int:
        """Exact distinct values the variable takes among the atom's matches."""
        distinct = self._atom_entry(self._current(None), atom)[1].distinct
        return distinct.get(variable.value, 0)

    # ------------------------------------------------------------------
    # Conjunctive queries
    # ------------------------------------------------------------------
    def cq_cardinality(self, cq: BGPQuery, view: Optional[TableView] = None) -> float:
        """Estimated answer count of one conjunct (capped by its head's domains)."""
        return _conjunct(self._atoms(self._current(view), cq), cq.head)[0]

    # ------------------------------------------------------------------
    # Unions and joins of unions
    # ------------------------------------------------------------------
    def operand_summary(
        self, ucq: UCQ, view: Optional[TableView] = None
    ) -> OperandSummary:
        """Scan volume, cardinality and head-variable distincts of one operand.

        Computed in one pass over the terms, once per distinct operand
        object and table version; every UCQ-level question reads it.
        """
        memo = self._current(view)
        entry = memo.operands.get(id(ucq))
        if entry is None or entry[0] is not ucq:
            entry = memo.operands[id(ucq)] = (ucq, self._summarize(memo, ucq))
        return entry[1]

    def _summarize(self, memo: _Memo, ucq: UCQ) -> OperandSummary:
        heads = list(dict.fromkeys(ucq.head_variables()))
        totals = [0.0] * len(heads)
        scan_size = 0
        sizes: List[float] = []
        for cq in ucq:
            size, scan, occurrences = _conjunct(self._atoms(memo, cq), cq.head)
            sizes.append(size)
            scan_size += scan
            for index, variable in enumerate(heads):
                # The tightest atom-level distinct mentioning the variable;
                # a term that instantiated it contributes its own size.
                distincts = occurrences.get(variable.value)
                totals[index] += float(min(distincts)) if distincts else size
        return OperandSummary(
            scan_size,
            sum(sizes),
            tuple(
                (variable, max(total, 1.0))
                for variable, total in zip(heads, totals)
            ),
        )

    def ucq_cardinality(self, ucq: UCQ, view: Optional[TableView] = None) -> float:
        """Sum of the conjunct estimates (overlap between terms ignored)."""
        return self.operand_summary(ucq, view).cardinality

    def ucq_scan_size(self, ucq: UCQ) -> int:
        """Total scan volume over all union terms (drives c_scan/c_join)."""
        return self.operand_summary(ucq).scan_size

    def join_cardinality(self, operands: Sequence[OperandSummary]) -> float:
        """Estimated size of the natural join of summarized operands."""
        if any(operand.cardinality == 0 for operand in operands):
            return 0.0
        estimate = 1.0
        for operand in operands:
            estimate *= operand.cardinality
        occurrences: Dict[Variable, List[float]] = {}
        for operand in operands:
            for variable, distinct in operand.distinct:
                occurrences.setdefault(variable, []).append(distinct)
        return max(_join_selectivity(estimate, occurrences), 0.0)

    def jucq_cardinality(self, jucq: JUCQ, view: Optional[TableView] = None) -> float:
        """Estimated final result size of a JUCQ (join of operand results)."""
        return self.join_cardinality([self.operand_summary(u, view) for u in jucq])

    def estimate(self, query, view: Optional[TableView] = None) -> float:
        """Estimate any query form, as its JUCQ: for one operand the
        operand's own estimate, for one term the conjunct's."""
        return self.jucq_cardinality(as_jucq(query), view)
