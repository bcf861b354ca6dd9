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

Reformulation emits union terms by the hundred that differ only in a
class or property constant, so a union is evaluated one *template* —
one family of same-shaped terms (:mod:`repro.query.templates`) — at a
time: each distinct scan once, the scans of an atom stacked, one join
order and one join pipeline for the whole family (DESIGN.md §18).  A
CQ is the family of one.

The limits are honest emulations of real failure modes the paper hit
(footnote 1: stack-depth errors, I/O exceptions while materializing
intermediate results); crossing one raises :class:`EngineFailure`, and
benchmark harnesses report it the way the paper reports missing bars.
"""

from __future__ import annotations

import gc
import threading
import time
from collections.abc import Set as AbstractSet
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..query.algebra import JUCQ, UCQ
from ..query.bgp import BGPQuery
from ..query.templates import ConstantPattern, Template, VariableLayout
from ..rdf.terms import Term, Variable
from ..storage.database import RDFDatabase
from ..telemetry.metrics import MetricsRecorder
from ..telemetry.registry import get_registry
from ..telemetry.tracer import NULL_TRACER
from .operators import (
    bind_variables,
    cross_product,
    distinct,
    encode_pattern,
    hash_join,
    match_pattern,
    merge_join,
    union_all,
)
from .relation import Relation

#: One decoded answer: a tuple of RDF terms, one per head position.
Row = Tuple[Term, ...]

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


class AnswerSet(AbstractSet):
    """An engine's answers: a set of tuples of RDF terms, kept as codes.

    Holds the engine's distinct ``(n, k)`` int64 code rows (read-only)
    and the dictionary snapshot that decodes them, and decodes only what
    a caller reads (DESIGN.md §17).  ``len`` is ``n`` (for ``k = 0``, a
    Boolean answer: 1 if there are rows, else 0) — the rows must be
    distinct, which every engine guarantees.  Iteration decodes by
    column and yields term tuples; :meth:`rendered` builds the sorted
    tab-joined rows the service returns from the snapshot's string
    table.  ``==`` against a view on the *same* snapshot compares the
    sorted code rows; anything else (a ``frozenset``, or a view over a
    ``remapped()`` dictionary such as LiteMat's) compares by terms,
    through a ``frozenset`` built on first need and kept.  Membership,
    hashing and the set operators (which return plain ``frozenset``
    objects) go through that same ``frozenset``.
    """

    __slots__ = ("codes", "_snapshot", "_sorted", "_terms")

    def __init__(self, codes: np.ndarray, snapshot) -> None:
        codes = codes.view()
        codes.flags.writeable = False
        self.codes = codes
        self._snapshot = snapshot
        self._sorted: Optional[np.ndarray] = None
        self._terms: Optional[FrozenSet[Row]] = None

    def __len__(self) -> int:
        n, k = self.codes.shape
        return n if k else min(n, 1)

    def __iter__(self) -> Iterator[Row]:
        if self.codes.shape[1] == 0:
            return iter([()] * len(self))
        return zip(*self._snapshot.decode_columns(self.codes))

    def __contains__(self, row) -> bool:
        return row in self._frozen()

    def __eq__(self, other) -> bool:
        if isinstance(other, AnswerSet):
            if other._snapshot is self._snapshot:
                return self._same_codes(other)
            other = other._frozen()
        elif not isinstance(other, AbstractSet):
            return NotImplemented
        return self._frozen() == other

    def __hash__(self) -> int:
        return hash(self._frozen())

    @classmethod
    def _from_iterable(cls, rows) -> FrozenSet[Row]:
        return frozenset(rows)

    def rendered(self) -> List[str]:
        """``sorted("\\t".join(str(t) for t in row) for row in self)``.

        Built by column from the snapshot's string table: one list index
        per cell, one C-level join per row, one sort.
        """
        n, k = self.codes.shape
        if n == 0:
            return []
        if k == 0:
            return [""]
        texts = self._snapshot.texts(int(self.codes.max()) + 1)
        columns = [[texts[v] for v in column] for column in self.codes.T.tolist()]
        rows = columns[0] if k == 1 else list(map("\t".join, zip(*columns)))
        rows.sort()
        return rows

    def _same_codes(self, other: "AnswerSet") -> bool:
        """Equality of two views on one snapshot: sorted code rows."""
        if len(self) != len(other):
            return False
        if not len(self) or self.codes.shape[1] == other.codes.shape[1] == 0:
            return True
        return np.array_equal(self._sorted_codes(), other._sorted_codes())

    def _sorted_codes(self) -> np.ndarray:
        if self._sorted is None:
            self._sorted = self.codes[np.lexsort(self.codes.T[::-1])]
        return self._sorted

    def _frozen(self) -> FrozenSet[Row]:
        if self._terms is None:
            # Rows are tuples of existing terms in one frozenset: acyclic.
            with _collector_paused():
                self._terms = frozenset(self)
        return self._terms

    def __repr__(self) -> str:
        return f"AnswerSet({len(self)} rows x {self.codes.shape[1]})"


class Engine(Protocol):
    """What :class:`~repro.answering.QueryAnswerer` asks of an engine.

    The paper hands the reformulated query to *the engine* and lets it
    union, join and deduplicate (Figure 1); this is that hand-off.
    :class:`NativeEngine`, :class:`~repro.engine.SQLiteEngine` and
    :class:`~repro.resilience.ChaosEngine` implement it; a wrapper
    that forwards ``**kwargs`` to an inner engine does too.
    """

    @property
    def name(self) -> str:
        """How reports, spans and gauge labels call this engine."""

    def evaluate(
        self,
        query,
        timeout_s: Optional[float] = None,
        tracer=None,
        metrics: Optional[MetricsRecorder] = None,
        budget=None,
    ) -> AnswerSet:
        """The answers of a CQ, UCQ or JUCQ: distinct rows, still encoded.

        ``budget`` (:class:`repro.resilience.ExecutionBudget`) carries
        the shared deadline and the row/term caps and supersedes
        ``timeout_s``; a crossed limit raises :class:`EngineFailure`, a
        crossed deadline :class:`EngineTimeout`.
        """

    def for_database(self, database: RDFDatabase) -> "Engine":
        """A sibling engine over another (derived) store.

        The answerer builds the engines of the saturated and the
        interval-encoded store only through this; a decorator decides
        here whether its sibling is decorated too.
        """


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

    Union terms are evaluated a *template* at a time (DESIGN.md §18), so
    an intermediate is a template's: the sum of its members' (their
    scans stacked, their joins in one pass).  Combinations of constants
    no member has are excluded by the join key, so they are neither
    built nor counted.  ``max_union_terms`` still counts terms, not
    templates.
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
        """Evaluate: the distinct answer rows, as an :class:`AnswerSet`."""
        started = time.perf_counter()
        relation = self.evaluate_relation(
            query, timeout_s=timeout_s, tracer=tracer, metrics=metrics,
            budget=budget,
        )
        answers = AnswerSet(relation.rows, self.database.dictionary.snapshot)
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
        scans: Dict[ConstantPattern, np.ndarray] = {}
        if isinstance(query, (BGPQuery, UCQ)):
            # A CQ is the union of one term: the one-member template.
            result = self._eval_union(
                query.templates(), deadline,
                _positional_names(query.head), scans, tracer, metrics,
            )
        elif isinstance(query, JUCQ):
            result = self._eval_jucq(query, deadline, scans, tracer, metrics)
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
        scans = {
            pattern
            for template in ucq.templates()
            for patterns in template.patterns
            for pattern in patterns
        }
        volume = sum(self._pattern_count(pattern) for pattern in scans)
        return (
            f"{indent}UCQ: {len(ucq)} union terms in {len(ucq.templates())} "
            f"templates, {len(scans)} distinct scans (~{volume} tuples), "
            f"union + distinct"
        )

    def _explain_cq(self, cq: BGPQuery, indent: str) -> str:
        if not cq.body:
            return f"{indent}CQ: constant row (schema-resolved conjunct)"
        (template,) = cq.templates()
        counts = [self._pattern_count(p) for (p,) in template.patterns]
        order = _greedy_order(counts, template.atoms)
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

    def _pattern_count(self, constants: ConstantPattern) -> int:
        """Exact number of triples one scan would match (nothing is read)."""
        encoded = encode_pattern(constants, self.database.dictionary)
        if encoded is None:
            return 0
        pattern, range_position, range_term = encoded
        if range_term is not None and range_position is not None:
            return self.database.table.match_range_count(
                pattern, range_position, range_term.lo, range_term.hi
            )
        return self.database.statistics.pattern_count(pattern)

    # ------------------------------------------------------------------
    # Unions, one join pipeline per template (DESIGN.md §18)
    # ------------------------------------------------------------------
    def _eval_union(
        self,
        templates: Sequence[Template],
        deadline: _Deadline,
        out_names: Sequence[str],
        scans: Dict[ConstantPattern, np.ndarray],
        tracer=NULL_TRACER,
        metrics: Optional[MetricsRecorder] = None,
    ) -> Relation:
        """Union + distinct of the union terms grouped into ``templates``.

        ``scans`` memoizes matched rows per constant pattern for the
        whole ``evaluate_relation`` call, so a pattern shared by several
        templates or JUCQ operands is read from the indexes once.
        """
        terms = sum(template.size for template in templates)
        union_cap = deadline.union_limit(self.profile.max_union_terms)
        if terms > union_cap:
            raise EngineFailure(
                f"{terms} union terms exceed the compound statement "
                f"limit of {union_cap} ({self.profile.name})"
            )
        row_cap = deadline.row_limit(self.profile.max_intermediate_rows)
        with tracer.span("union", terms=terms, templates=len(templates)) as span:
            parts = [
                self._eval_template(template, deadline, row_cap, out_names, scans, metrics)
                for template in templates
            ]
            combined = union_all(parts, out_names)
            span.set(rows=len(combined))
        if metrics is not None:
            metrics.inc("union.count")
            metrics.inc("union.terms", terms)
            metrics.inc("union.templates", len(templates))
            metrics.inc("union.input_rows", len(combined))
        if len(combined) > row_cap:
            raise EngineFailure(
                f"union result of {len(combined)} rows exceeds "
                f"{self.profile.name}'s limit"
            )
        deadline.check()
        with tracer.span("dedup", rows_in=len(combined)) as span:
            result = distinct(combined, metrics)
            span.set(rows_out=len(result))
        return result

    def _eval_template(
        self,
        template: Template,
        deadline: _Deadline,
        row_cap: int,
        out_names: Sequence[str],
        scans: Dict[ConstantPattern, np.ndarray],
        metrics: Optional[MetricsRecorder] = None,
    ) -> Relation:
        """All of a template's members at once; columns named ``out_names``.

        Runs once per template, so it carries counters but no spans.
        """
        deadline.check()
        relations: List[Relation] = []
        for index in range(len(template.atoms)):
            relation = self._stack_scans(template, index, scans, metrics)
            if len(relation) == 0:
                # No member is satisfiable; skip the remaining scans.
                return Relation.empty(out_names)
            relations.append(relation)
        members = self._members(template)

        def check_rows(relation: Relation) -> None:
            if len(relation) > row_cap:
                raise EngineFailure(
                    f"intermediate result of {len(relation)} rows exceeds "
                    f"the limit of {row_cap} ({self.profile.name})"
                )

        current = Relation.unit()
        for step, index in enumerate(
            _greedy_order([len(r) for r in relations], template.atoms)
        ):
            deadline.check()
            if step == 0:
                current = relations[index]
            else:
                incoming = relations[index]
                if index in template.tagged:
                    current, incoming = self._pair_with_members(
                        current, incoming, index, members, template, metrics
                    )
                    check_rows(current)
                    check_rows(incoming)
                current = self._join(current, incoming, metrics)
                if metrics is not None:
                    metrics.inc("materialized.intermediate_rows", len(current))
            check_rows(current)
            if len(current) == 0:
                return Relation.empty(out_names)
        if template.head_constants:
            # Tag combination -> head constants: one-to-many, because
            # members may share a body and differ only in the head.
            current = self._join(current, members, metrics)
        return self._project(current, template.head, out_names, members.columns)

    def _stack_scans(
        self,
        template: Template,
        index: int,
        scans: Dict[ConstantPattern, np.ndarray],
        metrics: Optional[MetricsRecorder],
    ) -> Relation:
        """One atom of a template: its distinct patterns' scans, stacked."""
        table, dictionary = self.database.table, self.database.dictionary
        matched: List[np.ndarray] = []
        for pattern in template.patterns[index]:
            rows = scans.get(pattern)
            if rows is None:
                rows = scans[pattern] = match_pattern(pattern, table, dictionary, metrics)
            matched.append(rows)
        stacked = matched[0] if len(matched) == 1 else np.vstack(matched)
        tag = None
        if index in template.tagged:
            sizes = [rows.shape[0] for rows in matched]
            tag = (f"#{index}", np.repeat(np.arange(len(matched)), sizes))
        return bind_variables(stacked, template.atoms[index], metrics, tag)

    def _members(self, template: Template) -> Relation:
        """``template.members`` with head-constant indices turned into codes."""
        encode = self.database.dictionary.encode
        names = [f"#{index}" for index in template.tagged]
        rows = template.members
        if template.head_constants:
            rows = rows.copy()
            for column, terms in enumerate(template.head_constants, len(names)):
                codes = np.array([encode(term) for term in terms], dtype=np.int64)
                rows[:, column] = codes[rows[:, column]]
                names.append(f"={column}")
        return Relation(names, rows)

    def _pair_with_members(
        self,
        current: Relation,
        incoming: Relation,
        index: int,
        members: Relation,
        template: Template,
        metrics: Optional[MetricsRecorder],
    ) -> Tuple[Relation, Relation]:
        """Make the join that brings tag ``index`` in join on the tags too.

        When the members do not pair every pattern of atom ``index``
        with every tag combination ``current`` carries, the smaller side
        is first joined with the combinations they do have, so the tags
        become part of the join key and the pairs no member has are
        never built: ``(x type A, x p y) ∪ (x type B, x q y)`` must not
        materialize ``A``/``q`` and ``B``/``p``.  The paired side grows
        to the sum of its members' rows, no further.
        """
        present = [f"#{j}" for j in template.tagged if f"#{j}" in current.columns]
        if not present:
            return current, incoming
        allowed = distinct(members.project(present + [f"#{index}"]))
        carried = len(distinct(members.project(present)))
        if len(allowed) == carried * len(template.patterns[index]):
            return current, incoming
        if len(current) <= len(incoming):
            return self._join(current, allowed, metrics), incoming
        return current, self._join(incoming, allowed, metrics)

    def _join(
        self, left: Relation, right: Relation, metrics: Optional[MetricsRecorder]
    ) -> Relation:
        if set(left.columns) & set(right.columns):
            return self.profile.join(left, right, metrics)
        return cross_product(left, right, metrics)

    def _project(
        self,
        relation: Relation,
        head: Sequence,
        out_names: Sequence[str],
        member_names: Sequence[str] = (),
    ) -> Relation:
        """Head positions as columns: variables, member constants, constants."""
        n = len(relation)
        columns: List[np.ndarray] = []
        for entry in head:
            if isinstance(entry, str):
                columns.append(relation.column(entry))
            elif isinstance(entry, int):
                columns.append(relation.column(member_names[entry]))
            else:
                code = self.database.dictionary.encode(entry)
                columns.append(np.full(n, code, dtype=np.int64))
        if columns:
            rows = np.column_stack(columns)
        else:
            rows = np.empty((n, 0), dtype=np.int64)
        return Relation(out_names, rows)

    # ------------------------------------------------------------------
    # JUCQ
    # ------------------------------------------------------------------
    def _eval_jucq(
        self,
        jucq: JUCQ,
        deadline: _Deadline,
        scans: Dict[ConstantPattern, np.ndarray],
        tracer=NULL_TRACER,
        metrics: Optional[MetricsRecorder] = None,
    ) -> Relation:
        row_cap = deadline.row_limit(self.profile.max_intermediate_rows)
        operands: List[Relation] = []
        for index, ucq in enumerate(jucq):
            names = _variable_names(ucq.head)
            with tracer.span("operand", index=index, terms=len(ucq)) as span:
                started = time.perf_counter()
                operand = self._eval_union(
                    ucq.templates(), deadline, names, scans, tracer, metrics
                )
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
            current = self._join(current, operands[chosen], metrics)
            if metrics is not None:
                metrics.inc("materialized.intermediate_rows", len(current))
            if len(current) > row_cap:
                raise EngineFailure(
                    f"join intermediate of {len(current)} rows exceeds "
                    f"the limit of {row_cap} ({self.profile.name})"
                )
        head = [t.value if isinstance(t, Variable) else t for t in jucq.head]
        projected = self._project(current, head, _positional_names(jucq.head))
        deadline.check()
        with tracer.span("dedup", rows_in=len(projected)) as span:
            result = distinct(projected, metrics)
            span.set(rows_out=len(result))
        return result


def _greedy_order(sizes: Sequence[int], atoms: Sequence[VariableLayout]) -> List[int]:
    """Join order over a template's atoms: smallest connected next."""
    variables = [{name for name in atom if name is not None} for atom in atoms]
    remaining = set(range(len(atoms)))
    order: List[int] = []
    bound: set = set()
    while remaining:
        connected = [i for i in remaining if variables[i] & bound] or list(remaining)
        chosen = min(connected, key=lambda i: sizes[i])
        order.append(chosen)
        bound |= variables[chosen]
        remaining.discard(chosen)
    return order


def _positional_names(head: Sequence[Term]) -> List[str]:
    return [f"c{i}" for i in range(len(head))]


def _variable_names(head: Sequence[Term]) -> List[str]:
    names: List[str] = []
    for i, term in enumerate(head):
        names.append(term.value if isinstance(term, Variable) else f"c{i}")
    return names
