"""UCQ and JUCQ query forms (paper Definition 3.1).

* a CQ (:class:`repro.query.bgp.BGPQuery`) is a JUCQ;
* a union of CQs (:class:`UCQ`) is a JUCQ;
* a join of UCQs (:class:`JUCQ`) is a JUCQ.

A :class:`UCQ` requires all its conjuncts to share the same head.  A
:class:`JUCQ` joins UCQ operands *naturally* — on the head variables
they share — and projects onto its own head, exactly the semantics of
Theorem 3.1's ``q_f1^UCQ ⋈ ... ⋈ q_fm^UCQ``.

:func:`as_jucq` is the one place that tells the three forms apart:
every engine, compiler and cost model takes a query through it once
and reads only the JUCQ.  A JUCQ whose one operand answers its own
head (:meth:`JUCQ.lone_union`) is run, compiled and priced as that
union, with its one dedup.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Set, Tuple

from ..rdf.terms import Term, Variable
from .bgp import BGPQuery
from .templates import Template, partition_terms


class UCQ:
    """A union of conjunctive queries answering the same head positions.

    The conjuncts must agree on *arity*; their heads need not be
    syntactically identical, because reformulation instantiates head
    variables (the paper's Example 4 unions ``q(x, y)`` with
    ``q(x, Book)``).  ``head`` names the union's answer columns and
    defaults to the head of the first conjunct; positions that are
    constants in some conjunct simply return that constant there.

    Duplicate conjuncts (up to renaming of non-distinguished variables)
    are removed at construction; the paper counts ``|q_ref|`` as the
    number of distinct union terms, and so do we.  The reformulator
    has merged its rows before it builds them, and hands them over
    through :meth:`_raw`, which skips that merge (DESIGN.md §13).
    """

    __slots__ = ("head", "cqs", "name", "_templates")

    def __init__(
        self,
        cqs: Sequence[BGPQuery],
        name: str = "u",
        head: Optional[Sequence[Term]] = None,
    ) -> None:
        cqs = list(cqs)
        if not cqs:
            raise ValueError("a UCQ needs at least one conjunct")
        self.head: Tuple[Term, ...] = tuple(head) if head is not None else cqs[0].head
        arity = len(self.head)
        for cq in cqs:
            if cq.arity != arity:
                raise ValueError(
                    f"UCQ conjunct arity mismatch: expected {arity}, "
                    f"got {cq.arity} in {cq}"
                )
        first: Dict[Tuple, BGPQuery] = {}
        for cq in cqs:
            first.setdefault(cq.canonical(), cq)
        self.cqs: Tuple[BGPQuery, ...] = tuple(first.values())
        self.name = name
        self._templates: Optional[Tuple[Template, ...]] = None

    @classmethod
    def _raw(
        cls, cqs: Sequence[BGPQuery], name: str, head: Tuple[Term, ...]
    ) -> "UCQ":
        """Checked-elsewhere constructor: no arity check, no merge.

        Callers guarantee at least one term, all of ``head``'s arity,
        with pairwise distinct ``canonical()`` forms (a reformulator's
        survivors, or a subset of a UCQ's terms, qualify)."""
        ucq = object.__new__(cls)
        ucq.head = head
        ucq.cqs = tuple(cqs)
        ucq.name = name
        ucq._templates = None
        return ucq

    @property
    def arity(self) -> int:
        """Answer width."""
        return len(self.head)

    def head_variables(self) -> Tuple[Variable, ...]:
        """Variables among the head terms, in order."""
        return tuple(t for t in self.head if isinstance(t, Variable))

    def templates(self) -> Tuple[Template, ...]:
        """The terms grouped by shape (cached; DESIGN.md §18).

        A pure function of the immutable ``cqs``, so a plan-cached UCQ
        never recomputes it.  Unlocked on purpose: two threads racing
        here both compute the same immutable value and one reference
        write wins.
        """
        cached = self._templates
        if cached is None:
            cached = self._templates = partition_terms(self.cqs)
        return cached

    def __len__(self) -> int:
        """Number of union terms (the paper's ``|q_ref|``)."""
        return len(self.cqs)

    def __iter__(self):
        return iter(self.cqs)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, UCQ)
            and self.head == other.head
            and set(self.cqs) == set(other.cqs)
        )

    def __hash__(self) -> int:
        return hash((self.head, frozenset(self.cqs)))

    def __repr__(self) -> str:
        return f"UCQ({len(self)} CQs, head=({', '.join(map(str, self.head))}))"

    def __str__(self) -> str:
        return " UNION ".join(str(cq) for cq in self.cqs)


class JUCQ:
    """A join of UCQs projected onto ``head`` (paper Definition 3.1).

    ``operands`` are joined on shared head variables.  Every head
    variable of the JUCQ must be exported by at least one operand.
    """

    __slots__ = ("head", "operands", "name")

    def __init__(
        self,
        head: Sequence[Term],
        operands: Sequence[UCQ],
        name: str = "jucq",
    ) -> None:
        if not operands:
            raise ValueError("a JUCQ needs at least one UCQ operand")
        self.head: Tuple[Term, ...] = tuple(head)
        self.operands: Tuple[UCQ, ...] = tuple(operands)
        self.name = name
        exported: Set[Variable] = set()
        for operand in self.operands:
            exported.update(operand.head_variables())
        for term in self.head:
            if isinstance(term, Variable) and term not in exported:
                raise ValueError(
                    f"JUCQ head variable {term} is not exported by any operand"
                )

    @property
    def arity(self) -> int:
        """Answer width."""
        return len(self.head)

    def join_variables(self) -> Dict[Variable, int]:
        """Variables shared by 2+ operands, mapped to their operand count."""
        counts: Dict[Variable, int] = {}
        for operand in self.operands:
            for var in set(operand.head_variables()):
                counts[var] = counts.get(var, 0) + 1
        return {v: n for v, n in counts.items() if n > 1}

    def lone_union(self) -> Optional[UCQ]:
        """The operand this JUCQ *is*, when it is one union over its own
        head: nothing to join, project or dedup past that union's own
        dedup.  None otherwise (a repeated head variable or a head
        constant still needs the projection)."""
        if len(self.operands) == 1 and self.operands[0].head == self.head:
            return self.operands[0]
        return None

    def total_union_terms(self) -> int:
        """Sum of ``len(ucq)`` over the operands (reformulation size)."""
        return sum(len(u) for u in self.operands)

    def __len__(self) -> int:
        """Number of UCQ operands."""
        return len(self.operands)

    def __iter__(self):
        return iter(self.operands)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, JUCQ)
            and self.head == other.head
            and self.operands == other.operands
        )

    def __hash__(self) -> int:
        return hash((self.head, self.operands))

    def __repr__(self) -> str:
        shape = " ⋈ ".join(f"U{len(u)}" for u in self.operands)
        return f"JUCQ({shape}, head=({', '.join(map(str, self.head))}))"

    def __str__(self) -> str:
        parts = " JOIN ".join(f"({u})" for u in self.operands)
        head = ", ".join(str(t) for t in self.head)
        return f"{self.name}({head}) := {parts}"


def as_jucq(query) -> JUCQ:
    """``query`` as a JUCQ: a JUCQ as is, a UCQ as its one operand, a
    CQ as a one-term operand (cached on the immutable query, like its
    ``canonical()``).  ``TypeError`` for anything else."""
    if isinstance(query, JUCQ):
        return query
    if isinstance(query, UCQ):
        return JUCQ(query.head, [query], name=query.name)
    if isinstance(query, BGPQuery):
        cached = query._jucq
        if cached is None:
            union = UCQ._raw([query], query.name, query.head)
            cached = query._jucq = JUCQ(query.head, [union], name=query.name)
        return cached
    raise TypeError(f"not a query: {type(query).__name__}")
