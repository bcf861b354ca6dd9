"""UCQ and JUCQ query forms (paper Definition 3.1).

* a CQ (:class:`repro.query.bgp.BGPQuery`) is a JUCQ;
* a union of CQs (:class:`UCQ`) is a JUCQ;
* a join of UCQs (:class:`JUCQ`) is a JUCQ.

A :class:`UCQ` requires all its conjuncts to share the same head.  A
:class:`JUCQ` joins UCQ operands *naturally* — on the head variables
they share — and projects onto its own head, exactly the semantics of
Theorem 3.1's ``q_f1^UCQ ⋈ ... ⋈ q_fm^UCQ``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

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
    number of distinct union terms, and so do we.
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
        unique: List[BGPQuery] = []
        seen = set()
        for cq in cqs:
            key = cq.canonical()
            if key not in seen:
                seen.add(key)
                unique.append(cq)
        self.cqs: Tuple[BGPQuery, ...] = tuple(unique)
        self.name = name
        self._templates: Optional[Tuple[Template, ...]] = None

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


def cq_as_ucq(cq: BGPQuery) -> UCQ:
    """Wrap a single CQ as a one-term UCQ."""
    return UCQ([cq], name=cq.name)


def ucq_as_jucq(ucq: UCQ) -> JUCQ:
    """Wrap a UCQ as a single-operand JUCQ (the classic reformulation shape)."""
    return JUCQ(ucq.head, [ucq], name=ucq.name)
