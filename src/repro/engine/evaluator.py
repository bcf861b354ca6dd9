"""The native query evaluation engine (and its personalities).

Plays the role of the paper's RDBMSs: it evaluates CQs, UCQs and JUCQs
over an :class:`repro.storage.RDFDatabase` using selections,
projections, joins and unions, with set semantics.

Two *personalities* reproduce the paper's observation that distinct
engines have distinct strengths (Section 5.2: "three well-established
RDBMSs ... differ significantly in their ability to handle UCQ and SCQ
reformulations"):

* ``native-hash`` — hash-partition joins, generous statement-size
  limit;
* ``native-merge`` — sort-merge joins and a much stricter statement
  limit, mirroring engines (the paper's DB2) that throw "stack depth
  limit exceeded" on huge unions.

The limits are honest emulations of real failure modes the paper hit
(footnote 1: stack-depth errors, I/O exceptions while materializing
intermediate results); crossing one raises :class:`EngineFailure`, and
benchmark harnesses report it the way the paper reports missing bars.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..query.algebra import JUCQ, UCQ
from ..query.bgp import BGPQuery
from ..rdf.terms import IdRange, Term, Variable
from ..storage.database import RDFDatabase
from ..telemetry.metrics import MetricsRecorder
from ..telemetry.registry import get_registry
from ..telemetry.tracer import NULL_TRACER
from .operators import cross_product, distinct, hash_join, merge_join, scan_atom, union_all
from .relation import Relation

#: Decoded answers: a set of tuples of RDF terms.
AnswerSet = FrozenSet[Tuple[Term, ...]]


class EngineFailure(RuntimeError):
    """The engine could not evaluate the query (limit hit or backend error).

    ``transient`` feeds the resilience layer's classification
    (:mod:`repro.resilience.errors`): native engine failures are
    deterministic, so the class default is False; chaos-injected
    subclasses override it.
    """

    transient = False


class EngineTimeout(EngineFailure):
    """Evaluation exceeded the caller's deadline."""


@dataclass(frozen=True)
class EngineProfile:
    """Tunable personality of a native engine.

    ``max_union_terms`` caps the number of compound-union terms a single
    statement may carry (real engines fail beyond theirs — SQLite's
    compile-time default is 500); ``max_intermediate_rows`` caps any
    materialized intermediate result (beyond it, real engines spill and
    may abort with I/O errors, which the paper observed).
    """

    name: str
    join_algorithm: str = "hash"  # "hash" | "merge"
    max_union_terms: int = 20_000
    max_intermediate_rows: int = 20_000_000

    def join(
        self,
        left: Relation,
        right: Relation,
        metrics: Optional[MetricsRecorder] = None,
    ) -> Relation:
        """Run this personality's join algorithm."""
        if self.join_algorithm == "merge":
            return merge_join(left, right, metrics)
        return hash_join(left, right, metrics)


#: The native personalities used throughout the benchmarks.
NATIVE_HASH = EngineProfile(name="native-hash", join_algorithm="hash",
                            max_union_terms=20_000,
                            max_intermediate_rows=20_000_000)
NATIVE_MERGE = EngineProfile(name="native-merge", join_algorithm="merge",
                             max_union_terms=2_000,
                             max_intermediate_rows=5_000_000)


class _Deadline:
    """Cooperative budget checkpoint between operator steps.

    Wraps either a bare ``timeout_s`` (the legacy API) or an
    :class:`repro.resilience.ExecutionBudget`-shaped object (duck-typed
    so this hot-path module depends on nothing above it): something
    with ``start()``, ``expired``, ``row_limit(engine_limit)``,
    ``union_limit(engine_limit)`` and ``max_result_rows``.  When both
    are given, the shared budget wins — that is the whole point of a
    budget.
    """

    __slots__ = ("expires_at", "budget")

    def __init__(self, seconds: Optional[float] = None, budget=None):
        if budget is not None:
            self.budget = budget.start()
            self.expires_at = None
        else:
            self.budget = None
            self.expires_at = (
                None if seconds is None else time.perf_counter() + seconds
            )

    def check(self) -> None:
        if self.expires_at is not None and time.perf_counter() > self.expires_at:
            raise EngineTimeout("query evaluation timed out")
        if self.budget is not None and self.budget.expired:
            raise EngineTimeout("query evaluation exceeded its budget deadline")

    def row_limit(self, engine_limit: int) -> int:
        """Effective intermediate-row cap: min(profile, budget)."""
        if self.budget is None:
            return engine_limit
        return self.budget.row_limit(engine_limit)

    def union_limit(self, engine_limit: int) -> int:
        """Effective compound-union cap: min(profile, budget)."""
        if self.budget is None:
            return engine_limit
        return self.budget.union_limit(engine_limit)

    @property
    def max_result_rows(self) -> Optional[int]:
        return None if self.budget is None else self.budget.max_result_rows


class NativeEngine:
    """Evaluates CQ/UCQ/JUCQ queries against one database."""

    def __init__(self, database: RDFDatabase, profile: EngineProfile = NATIVE_HASH):
        self.database = database
        self.profile = profile

    @property
    def name(self) -> str:
        """The engine personality's name (used in reports)."""
        return self.profile.name

    def for_database(self, database: RDFDatabase) -> "NativeEngine":
        """A sibling engine (same personality) over another store.

        The answerer uses this to build the engine for the derived
        saturated database; wrappers (e.g. the chaos engine) override
        it to control whether the clone inherits their behaviour.
        """
        return type(self)(database, self.profile)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        query,
        timeout_s: Optional[float] = None,
        tracer=None,
        metrics: Optional[MetricsRecorder] = None,
        budget=None,
    ) -> AnswerSet:
        """Evaluate and decode: a set of tuples of RDF terms."""
        started = time.perf_counter()
        relation = self.evaluate_relation(
            query, timeout_s=timeout_s, tracer=tracer, metrics=metrics,
            budget=budget,
        )
        answers = self.database.dictionary.decode_rows(relation.rows)
        get_registry().histogram(
            "repro.engine.evaluate_seconds",
            labels={"engine": self.name},
            help="wall-clock time of one engine-level evaluation",
        ).observe(time.perf_counter() - started)
        return answers

    def evaluate_relation(
        self,
        query,
        timeout_s: Optional[float] = None,
        tracer=None,
        metrics: Optional[MetricsRecorder] = None,
        budget=None,
    ) -> Relation:
        """Evaluate to an encoded relation (one column per head position).

        ``budget`` is an :class:`repro.resilience.ExecutionBudget`
        (shared deadline plus row/term caps tightened against the
        profile's own limits); when given, ``timeout_s`` is ignored.
        """
        tracer = NULL_TRACER if tracer is None else tracer
        deadline = _Deadline(timeout_s, budget)
        if isinstance(query, BGPQuery):
            joined = self._eval_cq(
                query, deadline, _positional_names(query.head), metrics
            )
            with tracer.span("dedup", rows_in=len(joined)) as span:
                result = distinct(joined, metrics)
                span.set(rows_out=len(result))
        elif isinstance(query, UCQ):
            result = self._eval_ucq(
                query, deadline, _positional_names(query.head), tracer, metrics
            )
        elif isinstance(query, JUCQ):
            result = self._eval_jucq(query, deadline, tracer, metrics)
        else:
            raise TypeError(f"cannot evaluate {type(query).__name__}")
        result_cap = deadline.max_result_rows
        if result_cap is not None and len(result) > result_cap:
            raise EngineFailure(
                f"result of {len(result)} rows exceeds the budget's "
                f"max_result_rows={result_cap}"
            )
        return result

    def count(self, query, timeout_s: Optional[float] = None) -> int:
        """Number of distinct answers."""
        return len(self.evaluate_relation(query, timeout_s=timeout_s))

    def explain(self, query) -> str:
        """A human-readable sketch of the plan this engine would run.

        For a CQ: the statistics-driven join order with per-atom exact
        match counts.  For a UCQ: the conjunct summary.  For a JUCQ:
        each operand plus the operand-join strategy.  Purely
        informational — nothing is evaluated.
        """
        if isinstance(query, BGPQuery):
            return self._explain_cq(query, indent="")
        if isinstance(query, UCQ):
            return self._explain_ucq(query, indent="")
        if isinstance(query, JUCQ):
            lines = [
                f"JUCQ: {self.profile.join_algorithm}-join of {len(query)} "
                f"operands on shared head variables, then project+distinct"
            ]
            for index, operand in enumerate(query):
                lines.append(f"  operand u{index}:")
                lines.append(self._explain_ucq(operand, indent="    "))
            return "\n".join(lines)
        raise TypeError(f"cannot explain {type(query).__name__}")

    def _explain_ucq(self, ucq: UCQ, indent: str) -> str:
        satisfiable = 0
        total_scan = 0
        for cq in ucq:
            counts = self._atom_counts(cq)
            if all(c > 0 for c in counts) or not cq.body:
                satisfiable += 1
                total_scan += sum(counts)
        lines = [
            f"{indent}UCQ: {len(ucq)} union terms "
            f"({satisfiable} satisfiable, scan volume {total_scan} tuples), "
            f"union + distinct"
        ]
        return "\n".join(lines)

    def _explain_cq(self, cq: BGPQuery, indent: str) -> str:
        if not cq.body:
            return f"{indent}CQ: constant row (schema-resolved conjunct)"
        counts = self._atom_counts(cq)
        order = self._join_order(cq)
        steps = []
        for position, atom_index in enumerate(order):
            atom = cq.body[atom_index]
            action = "scan" if position == 0 else f"{self.profile.join_algorithm}-join"
            steps.append(
                f"{indent}  {position + 1}. {action} t{atom_index + 1} "
                f"[{atom.s} {atom.p} {atom.o}] ~{counts[atom_index]} tuples"
            )
        header = f"{indent}CQ: {len(cq.body)} atoms, join order {[i + 1 for i in order]}"
        return "\n".join([header] + steps)

    def _atom_counts(self, cq: BGPQuery) -> List[int]:
        stats = self.database.statistics
        dictionary = self.database.dictionary
        counts: List[int] = []
        for atom in cq.body:
            pattern = []
            missing = False
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
                    code = dictionary.lookup(term)
                    if code is None:
                        missing = True
                        break
                    pattern.append(code)
            if missing:
                counts.append(0)
            elif range_term is not None and range_position is not None:
                counts.append(
                    self.database.table.match_range_count(
                        tuple(pattern), range_position, range_term.lo, range_term.hi
                    )
                )
            else:
                counts.append(stats.pattern_count(tuple(pattern)))
        return counts

    # ------------------------------------------------------------------
    # CQ
    # ------------------------------------------------------------------
    def _eval_cq(
        self,
        cq: BGPQuery,
        deadline: _Deadline,
        out_names: Sequence[str],
        metrics: Optional[MetricsRecorder] = None,
    ) -> Relation:
        """Evaluate one conjunct; columns renamed to ``out_names``.

        Runs once per union term, so it carries counters but no spans —
        a traced UCQ reformulation can have thousands of conjuncts.
        """
        deadline.check()
        table, dictionary = self.database.table, self.database.dictionary
        if not cq.body:
            # Schema-resolved constant conjunct: one row of head constants.
            values = [dictionary.encode(t) for t in cq.head]
            return Relation.single_row(out_names, values)
        row_cap = deadline.row_limit(self.profile.max_intermediate_rows)
        order = self._join_order(cq)
        current: Optional[Relation] = None
        for atom_index in order:
            deadline.check()
            scanned = scan_atom(cq.body[atom_index], table, dictionary, metrics)
            if current is None:
                current = scanned
            else:
                shared = set(current.columns) & set(scanned.columns)
                if shared:
                    current = self.profile.join(current, scanned, metrics)
                else:
                    current = cross_product(current, scanned, metrics)
                if metrics is not None:
                    metrics.inc("materialized.intermediate_rows", len(current))
            if len(current) > row_cap:
                raise EngineFailure(
                    f"intermediate result of {len(current)} rows exceeds "
                    f"the limit of {row_cap} ({self.profile.name})"
                )
            if len(current) == 0:
                # Unsatisfiable conjunct; later atoms' columns would be
                # missing, so emit the empty result directly.
                return Relation.empty(out_names)
        return self._project_head(current, cq, out_names)

    def _project_head(
        self, relation: Relation, cq: BGPQuery, out_names: Sequence[str]
    ) -> Relation:
        n = len(relation)
        columns: List[np.ndarray] = []
        for term in cq.head:
            if isinstance(term, Variable):
                columns.append(relation.column(term.value))
            else:
                code = self.database.dictionary.encode(term)
                columns.append(np.full(n, code, dtype=np.int64))
        if columns:
            rows = np.column_stack(columns)
        else:
            rows = np.empty((n, 0), dtype=np.int64)
        return Relation(out_names, rows)

    def _join_order(self, cq: BGPQuery) -> List[int]:
        """Greedy statistics-driven join order: smallest connected next."""
        counts = self._atom_counts(cq)
        remaining = set(range(len(cq.body)))
        atom_vars = [cq.atom_variables(i) for i in range(len(cq.body))]
        order: List[int] = []
        bound: set = set()
        while remaining:
            connected = [i for i in remaining if atom_vars[i] & bound] or list(remaining)
            chosen = min(connected, key=lambda i: counts[i])
            order.append(chosen)
            bound |= atom_vars[chosen]
            remaining.discard(chosen)
        return order

    # ------------------------------------------------------------------
    # UCQ
    # ------------------------------------------------------------------
    def _eval_ucq(
        self,
        ucq: UCQ,
        deadline: _Deadline,
        out_names: Sequence[str],
        tracer=NULL_TRACER,
        metrics: Optional[MetricsRecorder] = None,
    ) -> Relation:
        union_cap = deadline.union_limit(self.profile.max_union_terms)
        if len(ucq) > union_cap:
            raise EngineFailure(
                f"{len(ucq)} union terms exceed the compound statement "
                f"limit of {union_cap} ({self.profile.name})"
            )
        with tracer.span("union", terms=len(ucq)) as span:
            parts = [self._eval_cq(cq, deadline, out_names, metrics) for cq in ucq]
            combined = union_all(parts, out_names, metrics)
            span.set(rows=len(combined))
        if len(combined) > deadline.row_limit(self.profile.max_intermediate_rows):
            raise EngineFailure(
                f"union result of {len(combined)} rows exceeds "
                f"{self.profile.name}'s limit"
            )
        deadline.check()
        with tracer.span("dedup", rows_in=len(combined)) as span:
            result = distinct(combined, metrics)
            span.set(rows_out=len(result))
        return result

    # ------------------------------------------------------------------
    # JUCQ
    # ------------------------------------------------------------------
    def _eval_jucq(
        self,
        jucq: JUCQ,
        deadline: _Deadline,
        tracer=NULL_TRACER,
        metrics: Optional[MetricsRecorder] = None,
    ) -> Relation:
        row_cap = deadline.row_limit(self.profile.max_intermediate_rows)
        operands: List[Relation] = []
        for index, ucq in enumerate(jucq):
            names = _variable_names(ucq.head)
            with tracer.span("operand", index=index, terms=len(ucq)) as span:
                started = time.perf_counter()
                operand = self._eval_ucq(ucq, deadline, names, tracer, metrics)
                span.set(rows=len(operand))
            if metrics is not None:
                metrics.append("jucq.operand_rows", len(operand))
                metrics.append("jucq.operand_s", time.perf_counter() - started)
            operands.append(operand)
        if metrics is not None:
            metrics.inc("jucq.operands", len(operands))
        # Greedy join order over materialized operand sizes.
        remaining = list(range(len(operands)))
        remaining.sort(key=lambda i: len(operands[i]))
        current = operands[remaining.pop(0)]
        while remaining:
            deadline.check()
            joinable = [
                i for i in remaining if set(operands[i].columns) & set(current.columns)
            ] or remaining
            chosen = min(joinable, key=lambda i: len(operands[i]))
            remaining.remove(chosen)
            other = operands[chosen]
            if set(other.columns) & set(current.columns):
                current = self.profile.join(current, other, metrics)
            else:
                current = cross_product(current, other, metrics)
            if metrics is not None:
                metrics.inc("materialized.intermediate_rows", len(current))
            if len(current) > row_cap:
                raise EngineFailure(
                    f"join intermediate of {len(current)} rows exceeds "
                    f"the limit of {row_cap} ({self.profile.name})"
                )
        # Final projection to the JUCQ head.
        n = len(current)
        columns: List[np.ndarray] = []
        for term in jucq.head:
            if isinstance(term, Variable):
                columns.append(current.column(term.value))
            else:
                columns.append(
                    np.full(n, self.database.dictionary.encode(term), dtype=np.int64)
                )
        if columns:
            rows = np.column_stack(columns)
        else:
            rows = np.empty((n, 0), dtype=np.int64)
        deadline.check()
        with tracer.span("dedup", rows_in=n) as span:
            result = distinct(Relation(_positional_names(jucq.head), rows), metrics)
            span.set(rows_out=len(result))
        return result


def _positional_names(head: Sequence[Term]) -> List[str]:
    return [f"c{i}" for i in range(len(head))]


def _variable_names(head: Sequence[Term]) -> List[str]:
    names: List[str] = []
    for i, term in enumerate(head):
        names.append(term.value if isinstance(term, Variable) else f"c{i}")
    return names
