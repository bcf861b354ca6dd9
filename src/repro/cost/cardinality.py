"""Result-size estimation for CQs, UCQs and JUCQs.

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
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from ..query.algebra import JUCQ, UCQ
from ..query.bgp import BGPQuery
from ..rdf.terms import IdRange, Triple, Variable
from ..storage.database import RDFDatabase
from ..storage.triple_table import Pattern


class AtomStatistics(NamedTuple):
    """What the store knows about one atom, from a single encoding of it."""

    #: Exact number of stored triples matching the atom.
    count: int
    #: Variable → exact distinct values it takes among the matches (the
    #: tightest position when it occurs twice), in ``atom.variables()``
    #: iteration order: the per-variable divisions of the join formula
    #: run in that order, and a float result depends on it.
    distinct: Dict[Variable, int]


class OperandSummary(NamedTuple):
    """Everything the Section 4.1 formulas read of one UCQ operand."""

    #: Σ over terms and atoms of the exact match counts.
    scan_size: int
    #: Σ over terms of the conjunct estimates.
    cardinality: float
    #: (head variable, distinct-count proxy), in ``set(head_variables())``
    #: iteration order (the operand-join divisions run in that order).
    distinct: Tuple[Tuple[Variable, float], ...]


def _join_selectivity(estimate: float, occurrences: Dict[Variable, List]) -> float:
    """Per join variable: divide by all-but-the-smallest distinct counts."""
    for distincts in occurrences.values():
        distincts.sort()
        for d in distincts[1:]:
            estimate /= d
    return estimate


class _Memo:
    """The per-atom, per-conjunct and per-operand memos of one data version."""

    __slots__ = ("version", "atoms", "cqs", "operands")

    def __init__(self, version: Optional[int]):
        self.version = version
        self.atoms: Dict[Triple, AtomStatistics] = {}
        self.cqs: Dict[Tuple, float] = {}
        #: ``id(ucq)`` → (the operand, its summary).  Keyed on identity
        #: because ``UCQ.__hash__`` hashes a frozenset of every term;
        #: the entry holds the operand, so its id cannot be recycled.
        self.operands: Dict[int, Tuple[UCQ, OperandSummary]] = {}


class CardinalityEstimator:
    """Estimates answer-set sizes against one database.

    The cover searches re-ask about the same fragments constantly, so
    every level is memoized: atoms by the atom, conjuncts by canonical
    form, operands by identity (the ``Reformulator`` memo hands a
    repeated fragment the *same* ``UCQ``).  The three memos live in one
    record stamped with the data part of the database snapshot it was
    filled under (DESIGN.md §19).  A computation captures the record
    once and writes only into it; a new version swaps in a fresh record
    by one reference assignment.  So a worker that started under
    version *n* cannot store into the memos of version *n + 1* (the
    clear-then-stale-write race of a dictionary cleared in place), and
    the read path takes no lock.

    Only a table write that stores a row moves the version.  The term
    dictionary can also grow *without* one (``cq_to_sql`` encodes head
    constants), and that cannot invalidate an entry: a constant that
    was unknown when an atom was encoded occurs in no triple before or
    after, so its count stays 0.
    """

    def __init__(self, database: RDFDatabase):
        self.database = database
        self._memo = _Memo(None)

    def _current(self) -> _Memo:
        """The memo record of the current data version."""
        memo = self._memo
        version = self.database.snapshot().data
        if memo.version != version:
            memo = self._memo = _Memo(version)
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

    def _atom_statistics(self, memo: _Memo, atom: Triple) -> AtomStatistics:
        """Count and per-variable distincts of one atom (memoized)."""
        cached = memo.atoms.get(atom)
        if cached is not None:
            return cached
        pattern = self.atom_pattern(atom)
        if pattern is None:
            result = AtomStatistics(0, dict.fromkeys(atom.variables(), 0))
        else:
            statistics = self.database.statistics
            count: Optional[int] = None
            distinct = dict.fromkeys(atom.variables())
            for position, term in enumerate(atom):
                if isinstance(term, IdRange):
                    count = self.database.table.match_range_count(
                        pattern, position, term.lo, term.hi
                    )
                elif isinstance(term, Variable):
                    here = statistics.distinct(pattern, position)
                    best = distinct[term]
                    if best is None or here < best:
                        distinct[term] = here
            if count is None:
                count = statistics.pattern_count(pattern)
            result = AtomStatistics(count, distinct)
        memo.atoms[atom] = result
        return result

    def _body_statistics(self, memo: _Memo, cq: BGPQuery) -> List[AtomStatistics]:
        return [self._atom_statistics(memo, atom) for atom in cq.body]

    def atom_count(self, atom: Triple) -> int:
        """Exact number of stored triples matching the atom."""
        return self._atom_statistics(self._current(), atom).count

    def atom_distinct(self, atom: Triple, variable: Variable) -> int:
        """Exact distinct values the variable takes among the atom's matches."""
        distinct = self._atom_statistics(self._current(), atom).distinct
        return distinct.get(variable, 0)

    # ------------------------------------------------------------------
    # Conjunctive queries
    # ------------------------------------------------------------------
    def cq_cardinality(self, cq: BGPQuery) -> float:
        """Estimated answer count of one conjunct (before head projection cap).

        Memoized per canonical conjunct form, for the current data version.
        """
        memo = self._current()
        return self._cq_cardinality(memo, cq, self._body_statistics(memo, cq))

    def _cq_cardinality(
        self, memo: _Memo, cq: BGPQuery, atoms: Sequence[AtomStatistics]
    ) -> float:
        key = cq.canonical()
        cached = memo.cqs.get(key)
        if cached is None:
            cached = memo.cqs[key] = self._estimate_cq(cq, atoms)
        return cached

    @staticmethod
    def _estimate_cq(cq: BGPQuery, atoms: Sequence[AtomStatistics]) -> float:
        if not atoms:
            return 1.0
        if any(atom.count == 0 for atom in atoms):
            return 0.0
        estimate = 1.0
        for atom in atoms:
            estimate *= atom.count
        occurrences: Dict[Variable, List[int]] = {}
        for atom in atoms:
            for variable, distinct in atom.distinct.items():
                occurrences.setdefault(variable, []).append(max(1, distinct))
        estimate = _join_selectivity(estimate, occurrences)
        # Head projection cap: no more rows than the product of the head
        # variables' tightest domains (constants contribute factor 1).
        cap = 1.0
        for term in cq.head:
            if isinstance(term, Variable):
                cap *= occurrences[term][0] if term in occurrences else 1
        # With no head variables (boolean or all-constant head) the cap
        # stays 1.0: at most one distinct answer row under set semantics.
        return max(min(estimate, cap), 0.0)

    def cq_scan_size(self, cq: BGPQuery) -> int:
        """Σ over atoms of their exact match counts (the scan volume)."""
        return sum(atom.count for atom in self._body_statistics(self._current(), cq))

    # ------------------------------------------------------------------
    # Unions and joins of unions
    # ------------------------------------------------------------------
    def operand_summary(self, ucq: UCQ) -> OperandSummary:
        """Scan volume, cardinality and head-variable distincts of one operand.

        Computed in one pass over the terms, once per distinct operand
        object and data version; every UCQ-level question reads it.
        """
        memo = self._current()
        entry = memo.operands.get(id(ucq))
        if entry is None or entry[0] is not ucq:
            entry = memo.operands[id(ucq)] = (ucq, self._summarize(memo, ucq))
        return entry[1]

    def _summarize(self, memo: _Memo, ucq: UCQ) -> OperandSummary:
        head_variables = list(set(ucq.head_variables()))
        totals = [0.0] * len(head_variables)
        scan_size = 0
        sizes: List[float] = []
        for cq in ucq:
            atoms = self._body_statistics(memo, cq)
            size = self._cq_cardinality(memo, cq, atoms)
            sizes.append(size)
            for atom in atoms:
                scan_size += atom.count
            for index, variable in enumerate(head_variables):
                # The tightest atom-level distinct mentioning the variable;
                # a term that instantiated it contributes its own size.
                totals[index] += min(
                    (
                        float(max(1, atom.distinct[variable]))
                        for atom in atoms
                        if variable in atom.distinct
                    ),
                    default=size,
                )
        return OperandSummary(
            scan_size,
            sum(sizes),
            tuple(
                (variable, max(total, 1.0))
                for variable, total in zip(head_variables, totals)
            ),
        )

    def ucq_cardinality(self, ucq: UCQ) -> float:
        """Sum of the conjunct estimates (overlap between terms ignored)."""
        return self.operand_summary(ucq).cardinality

    def ucq_scan_size(self, ucq: UCQ) -> int:
        """Total scan volume over all union terms (drives c_scan/c_join)."""
        return self.operand_summary(ucq).scan_size

    def ucq_distinct(self, ucq: UCQ, variable: Variable) -> float:
        """Distinct-count proxy for a head variable of a UCQ operand."""
        return dict(self.operand_summary(ucq).distinct)[variable]

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

    def jucq_cardinality(self, jucq: JUCQ) -> float:
        """Estimated final result size of a JUCQ (join of operand results)."""
        return self.join_cardinality([self.operand_summary(u) for u in jucq])

    def estimate(self, query) -> float:
        """Estimate any supported query form (dispatch by type)."""
        if isinstance(query, BGPQuery):
            return self.cq_cardinality(query)
        if isinstance(query, UCQ):
            return self.ucq_cardinality(query)
        if isinstance(query, JUCQ):
            return self.jucq_cardinality(query)
        raise TypeError(f"cannot estimate {type(query).__name__}")
