"""Timeout-path coverage on both backends (DESIGN.md §10).

The promise under test: a fired deadline is always a loud
:class:`EngineTimeout` — never a silent partial answer set — and the
engine (or SQLite connection) stays fully usable for the next call.

The native engine's deadline is scripted through the budget's
injectable clock, so the timeout fires at an exact operator boundary
(between two join steps) without sleeping; SQLite's cooperative
progress handler is exercised by shrinking ``progress_interval`` so
even tiny statements reach a checkpoint, with a clock scripted to pass
the check before the statement and fail the first one inside it.
"""

from __future__ import annotations

import pytest

from repro.answering import QueryAnswerer
from repro.datasets import lubm_workload
from repro.engine import EngineTimeout, NativeEngine, SQLiteEngine
from repro.query import BGPQuery
from repro.rdf import RDF_TYPE, Triple, URI, Variable
from repro.resilience import ExecutionBudget

x, y, z = Variable("x"), Variable("y"), Variable("z")
UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"


def ub(name: str) -> URI:
    return URI(UB + name)


class ScriptedClock:
    """Returns scripted values, then repeats the last one."""

    def __init__(self, *values: float):
        self._values = list(values)
        self._last = 0.0

    def __call__(self) -> float:
        if self._values:
            self._last = self._values.pop(0)
        return self._last


def interrupting_budget() -> ExecutionBudget:
    """Started at 0, alive at ``execute_sql``'s pre-statement check (1),
    expired at the progress handler's first call (100)."""
    return ExecutionBudget(timeout_s=10.0, clock=ScriptedClock(0.0, 1.0, 100.0))


def two_atom_query() -> BGPQuery:
    """A CQ whose evaluation takes one scan + one join step."""
    return BGPQuery(
        [x, y],
        [
            Triple(x, RDF_TYPE, ub("FullProfessor")),
            Triple(x, ub("teacherOf"), y),
        ],
    )


class TestNativeDeadline:
    def test_deadline_fires_between_join_steps(self, lubm_db):
        """Scripted clock: alive at the first atom, expired at the second.

        The deadline checkpoints sit between operator steps, so the
        timeout surfaces mid-join — after the first scan, before the
        second — and the partially-joined rows are discarded.
        """
        engine = NativeEngine(lubm_db)
        # start, entry check, atom-1 check OK, atom-2 check expired.
        budget = ExecutionBudget(
            timeout_s=10.0, clock=ScriptedClock(0.0, 1.0, 2.0, 100.0)
        )
        with pytest.raises(EngineTimeout):
            engine.evaluate(two_atom_query(), budget=budget)

    def test_no_silent_partial_results(self, lubm_db):
        """An expiry mid-evaluation raises; it never returns a subset."""
        engine = NativeEngine(lubm_db)
        full = engine.evaluate(two_atom_query())
        assert len(full) > 0
        for expire_after in (1, 2, 3):
            script = [0.0] + [1.0] * expire_after + [100.0]
            budget = ExecutionBudget(timeout_s=10.0, clock=ScriptedClock(*script))
            try:
                answers = engine.evaluate(two_atom_query(), budget=budget)
            except EngineTimeout:
                continue
            assert answers == full, (
                "a survived deadline must deliver the complete answer set"
            )

    def test_engine_usable_after_timeout(self, lubm_db):
        engine = NativeEngine(lubm_db)
        budget = ExecutionBudget(timeout_s=10.0, clock=ScriptedClock(0.0, 100.0))
        with pytest.raises(EngineTimeout):
            engine.evaluate(two_atom_query(), budget=budget)
        # The same engine answers the same query cleanly afterwards.
        answers = engine.evaluate(two_atom_query())
        assert len(answers) > 0

    def test_answerer_timeout_then_success(self, lubm_db):
        """The facade path: a timed-out answer, then a clean one."""
        answerer = QueryAnswerer(lubm_db)
        query = lubm_workload()[0].query
        budget = ExecutionBudget(timeout_s=10.0, clock=ScriptedClock(0.0, 100.0))
        with pytest.raises(EngineTimeout):
            answerer.answer(query, strategy="saturation", budget=budget)
        report = answerer.answer(query, strategy="saturation")
        assert report.answer_count >= 0 and report.answers is not None


class TestSQLiteProgressHandler:
    def test_budget_deadline_interrupts_statement(self, lubm_db3):
        """The progress handler cancels the running statement.

        ``progress_interval`` is shrunk to 1 VM instruction so even a
        small statement reaches a checkpoint before finishing.
        """
        engine = SQLiteEngine(lubm_db3)
        engine.progress_interval = 1
        with pytest.raises(EngineTimeout, match="SQLite statement timed out$"):
            engine.evaluate(two_atom_query(), budget=interrupting_budget())

    def test_connection_usable_after_interrupt(self, lubm_db3):
        """An interrupted statement leaves the same connection healthy."""
        engine = SQLiteEngine(lubm_db3)
        engine.progress_interval = 1
        query = two_atom_query()
        with pytest.raises(EngineTimeout):
            engine.evaluate(query, budget=interrupting_budget())
        # Handler cleared: the very next statement runs to completion.
        answers = engine.evaluate(query)
        assert len(answers) > 0
        # A deadline that does not fire installs and clears it again.
        roomy = ExecutionBudget(timeout_s=60.0)
        assert len(engine.evaluate(query, budget=roomy)) == len(answers)

    def test_interrupt_never_returns_partial_rows(self, lubm_db3):
        engine = SQLiteEngine(lubm_db3)
        full = engine.evaluate(two_atom_query())
        assert len(full) > 0
        engine.progress_interval = 1
        try:
            answers = engine.evaluate(two_atom_query(), budget=interrupting_budget())
        except EngineTimeout:
            answers = None
        assert answers is None, "an expired budget must interrupt, not truncate"

    def test_timed_out_answerer_recovers_on_sqlite(self, lubm_db3):
        engine = SQLiteEngine(lubm_db3)
        engine.progress_interval = 1
        answerer = QueryAnswerer(lubm_db3, engine=engine)
        query = lubm_workload()[0].query
        with pytest.raises(EngineTimeout):
            answerer.answer(
                query, strategy="gcov", budget=ExecutionBudget(timeout_s=0.0)
            )
        engine.progress_interval = 100_000
        report = answerer.answer(query, strategy="gcov")
        assert report.answers is not None
