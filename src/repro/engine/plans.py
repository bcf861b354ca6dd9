"""Explicit physical plans: inspectable operator trees.

The evaluator in :mod:`repro.engine.evaluator` interleaves planning
(join ordering, limits) with execution.  This module factors the plan
out into a tree of :class:`PlanNode` objects that can be built,
printed, costed, and *then* executed — the shape a user coming from a
relational engine expects.

The compiler produces the textbook plan — one greedy statistics-driven
join tree per union term, same operand handling as the native engine —
while the engine itself runs one pipeline per *template* of same-shaped
terms (DESIGN.md §18).  ``compile_query(q, db).execute(db)`` and
``NativeEngine(db).evaluate(q)`` agree on the answers — a property
pinned in ``tests/test_plans.py``.

Example::

    plan = compile_query(jucq, database, profile=NATIVE_HASH)
    print(plan.render())         # the operator tree
    relation = plan.execute(database)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from ..query.algebra import JUCQ, UCQ
from ..query.bgp import BGPQuery
from ..rdf.terms import IdRange, Term, Triple, Variable
from ..storage.database import RDFDatabase
from .evaluator import EngineProfile, NATIVE_HASH
from .operators import cross_product, distinct, hash_join, merge_join, scan_atom, union_all
from .relation import Relation


class PlanNode:
    """Base of all plan operators."""

    #: Child nodes, if any.
    children: Tuple["PlanNode", ...] = ()

    def execute(self, database: RDFDatabase) -> Relation:
        """Run the subtree and return its relation."""
        raise NotImplementedError

    def label(self) -> str:
        """One-line description used by :meth:`render`."""
        raise NotImplementedError

    def render(self, indent: str = "") -> str:
        """Pretty-print the subtree."""
        lines = [indent + self.label()]
        for child in self.children:
            lines.append(child.render(indent + "  "))
        return "\n".join(lines)

    def node_count(self) -> int:
        """Number of operators in the subtree."""
        return 1 + sum(child.node_count() for child in self.children)


@dataclass(frozen=True)
class ScanNode(PlanNode):
    """Index scan of one triple atom."""

    atom: Triple
    estimated_rows: int = 0

    def execute(self, database: RDFDatabase) -> Relation:
        return scan_atom(self.atom, database.table, database.dictionary)

    def label(self) -> str:
        return (
            f"Scan [{self.atom.s} {self.atom.p} {self.atom.o}] "
            f"~{self.estimated_rows} rows"
        )


@dataclass(frozen=True)
class JoinNode(PlanNode):
    """Natural join of two subtrees on their shared columns."""

    left: PlanNode
    right: PlanNode
    algorithm: str = "hash"  # "hash" | "merge" | "cross"

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.left, self.right)

    def execute(self, database: RDFDatabase) -> Relation:
        left = self.left.execute(database)
        right = self.right.execute(database)
        if self.algorithm == "cross":
            return cross_product(left, right)
        if self.algorithm == "merge":
            return merge_join(left, right)
        return hash_join(left, right)

    def label(self) -> str:
        return f"{self.algorithm.title()}Join"


@dataclass(frozen=True)
class ProjectNode(PlanNode):
    """Project onto head terms (variables become columns, constants fill)."""

    child: PlanNode
    head: Tuple[Term, ...]
    output_names: Tuple[str, ...]

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def execute(self, database: RDFDatabase) -> Relation:
        relation = self.child.execute(database)
        n = len(relation)
        columns: List[np.ndarray] = []
        for term in self.head:
            if isinstance(term, Variable):
                columns.append(relation.column(term.value))
            else:
                code = database.dictionary.encode(term)
                columns.append(np.full(n, code, dtype=np.int64))
        rows = (
            np.column_stack(columns)
            if columns
            else np.empty((n, 0), dtype=np.int64)
        )
        return Relation(self.output_names, rows)

    def label(self) -> str:
        head = ", ".join(str(t) for t in self.head)
        return f"Project [{head}]"


@dataclass(frozen=True)
class ConstantRowNode(PlanNode):
    """A single constant row (schema-resolved empty-body conjunct)."""

    head: Tuple[Term, ...]
    output_names: Tuple[str, ...]

    def execute(self, database: RDFDatabase) -> Relation:
        values = [database.dictionary.encode(t) for t in self.head]
        return Relation.single_row(self.output_names, values)

    def label(self) -> str:
        return f"ConstantRow [{', '.join(str(t) for t in self.head)}]"


@dataclass(frozen=True)
class UnionNode(PlanNode):
    """Bag union of positionally aligned subtrees."""

    inputs: Tuple[PlanNode, ...]
    output_names: Tuple[str, ...]

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return self.inputs

    def execute(self, database: RDFDatabase) -> Relation:
        parts = [child.execute(database) for child in self.inputs]
        return union_all(parts, self.output_names)

    def label(self) -> str:
        return f"Union ({len(self.inputs)} inputs)"


@dataclass(frozen=True)
class DistinctNode(PlanNode):
    """Duplicate elimination (set semantics)."""

    child: PlanNode

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def execute(self, database: RDFDatabase) -> Relation:
        return distinct(self.child.execute(database))

    def label(self) -> str:
        return "Distinct"


@dataclass(frozen=True)
class RenameNode(PlanNode):
    """Positional column rename (aligns operand outputs)."""

    child: PlanNode
    output_names: Tuple[str, ...]

    @property
    def children(self) -> Tuple[PlanNode, ...]:
        return (self.child,)

    def execute(self, database: RDFDatabase) -> Relation:
        return self.child.execute(database).rename(self.output_names)

    def label(self) -> str:
        return f"Rename [{', '.join(self.output_names)}]"


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
class PlanCompiler:
    """Compiles CQ/UCQ/JUCQ queries into plan trees for one database."""

    def __init__(self, database: RDFDatabase, profile: EngineProfile = NATIVE_HASH):
        self.database = database
        self.profile = profile

    # -- helpers -------------------------------------------------------
    def _atom_count(self, atom: Triple) -> int:
        pattern = []
        range_position: Optional[int] = None
        range_term: Optional[IdRange] = None
        for position, term in enumerate(atom):
            if isinstance(term, Variable):
                pattern.append(None)
            elif isinstance(term, IdRange):
                pattern.append(None)
                range_position = position
                range_term = term
            else:
                code = self.database.dictionary.lookup(term)
                if code is None:
                    return 0
                pattern.append(code)
        if range_term is not None:
            assert range_position is not None
            return self.database.table.match_range_count(
                tuple(pattern), range_position, range_term.lo, range_term.hi
            )
        return self.database.statistics.pattern_count(tuple(pattern))

    def _join(self, left: PlanNode, right: PlanNode, shares: bool) -> JoinNode:
        if not shares:
            return JoinNode(left, right, algorithm="cross")
        return JoinNode(left, right, algorithm=self.profile.join_algorithm)

    # -- conjunct ------------------------------------------------------
    def compile_cq(
        self, cq: BGPQuery, output_names: Optional[Sequence[str]] = None
    ) -> PlanNode:
        """Greedy smallest-connected-next left-deep join tree + project."""
        names = tuple(
            output_names
            if output_names is not None
            else [f"c{i}" for i in range(cq.arity)]
        )
        if not cq.body:
            return ConstantRowNode(cq.head, names)
        counts = [self._atom_count(atom) for atom in cq.body]
        atom_vars = [cq.atom_variables(i) for i in range(len(cq.body))]
        remaining = set(range(len(cq.body)))
        bound: Set[Variable] = set()
        plan: Optional[PlanNode] = None
        while remaining:
            connected = [i for i in remaining if atom_vars[i] & bound] or list(remaining)
            index = min(connected, key=lambda i: counts[i])
            scan = ScanNode(cq.body[index], counts[index])
            if plan is None:
                plan = scan
            else:
                plan = self._join(plan, scan, bool(atom_vars[index] & bound))
            bound |= atom_vars[index]
            remaining.discard(index)
        return ProjectNode(plan, cq.head, names)

    # -- union ---------------------------------------------------------
    def compile_ucq(
        self, ucq: UCQ, output_names: Optional[Sequence[str]] = None
    ) -> PlanNode:
        """Per-conjunct plans under a Union, topped with Distinct."""
        names = tuple(
            output_names
            if output_names is not None
            else [f"c{i}" for i in range(ucq.arity)]
        )
        inputs = tuple(self.compile_cq(cq, names) for cq in ucq)
        if len(inputs) == 1:
            return DistinctNode(inputs[0])
        return DistinctNode(UnionNode(inputs, names))

    # -- join of unions --------------------------------------------------
    def compile_jucq(self, jucq: JUCQ) -> PlanNode:
        """Operand plans joined on shared head variables, then project+distinct."""
        operands: List[PlanNode] = []
        operand_vars: List[Set[str]] = []
        for ucq in jucq:
            names = tuple(
                term.value if isinstance(term, Variable) else f"c{i}"
                for i, term in enumerate(ucq.head)
            )
            operands.append(self.compile_ucq(ucq, names))
            operand_vars.append({n for n in names})
        order = sorted(range(len(operands)), key=lambda i: -len(jucq.operands[i]))
        # Smallest-union-last heuristics mirror the evaluator's greedy
        # materialized-size order only approximately; correctness does
        # not depend on it.
        plan = operands[order[0]]
        seen = set(operand_vars[order[0]])
        rest = order[1:]
        while rest:
            joinable = [i for i in rest if operand_vars[i] & seen] or rest
            index = joinable[0]
            rest = [i for i in rest if i != index]
            plan = self._join(plan, operands[index], bool(operand_vars[index] & seen))
            seen |= operand_vars[index]
        names = tuple(f"c{i}" for i in range(jucq.arity))
        return DistinctNode(ProjectNode(plan, jucq.head, names))

    def compile(self, query) -> PlanNode:
        """Compile any supported query form."""
        if isinstance(query, BGPQuery):
            return DistinctNode(self.compile_cq(query))
        if isinstance(query, UCQ):
            return self.compile_ucq(query)
        if isinstance(query, JUCQ):
            return self.compile_jucq(query)
        raise TypeError(f"cannot compile {type(query).__name__}")


def compile_query(
    query,
    database: RDFDatabase,
    profile: EngineProfile = NATIVE_HASH,
    verify: bool = False,
) -> PlanNode:
    """One-shot compilation (see :class:`PlanCompiler`).

    With ``verify=True`` the produced tree is self-checked by the IR
    verifier's schema-propagation pass (DESIGN.md §8): join keys must
    exist in both child schemas, union operands must be
    schema-compatible, and the root must produce the query's answer
    width.  Raises :class:`repro.analysis.IRVerificationError` when the
    compiler produced a corrupt plan.
    """
    plan = PlanCompiler(database, profile).compile(query)
    if verify:
        from ..analysis.verifier import verify_plan

        verify_plan(plan, expected_arity=getattr(query, "arity", None))
    return plan
