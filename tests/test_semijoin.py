"""The JUCQ semi-join reduction on both engines (DESIGN.md §18).

A JUCQ's operands run in ascending scan volume; the distinct values of
a head variable that earlier operands hold filter a later operand's
scans (native) or arms (SQLite, through an indexed ``k<j>`` table)
when they are few enough against its scan volume.  These tests pin the
work it saves as counters on a 1-university store, the SQL program
SQLite runs, its verification, its cleanup on every exit, and its
answers under deadlines and concurrent threads.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis import check_sql, verify_pipeline
from repro.answering import QueryAnswerer
from repro.datasets import motivating_q1, motivating_q2
from repro.engine import EngineFailure, EngineTimeout, NativeEngine, SQLiteEngine
from repro.engine.sql import SQLProgram
from repro.engine.sqlite_backend import program_statements
from repro.query import parse_query
from repro.resilience import ExecutionBudget
from repro.telemetry import Tracer

#: q1 under gcov on one LUBM university at the commit before the
#: reduction: its largest operand (the 135-term ``?x rdf:type ?y``)
#: kept 2 327 rows out of a 5 160-row union, and the three unions fed
#: 5 338 rows to their dedups.
UNREDUCED_LARGEST_ROWS = 2327
UNREDUCED_UNION_INPUT_ROWS = 5338


def _temp_tables(engine: SQLiteEngine):
    return engine.connection.execute(
        "SELECT name FROM temp.sqlite_master WHERE type = 'table'"
    ).fetchall()


@pytest.fixture(scope="module")
def q1_plan(lubm_db):
    planned, _search = QueryAnswerer(lubm_db).plan(motivating_q1().query, "gcov")
    assert len(planned.operands) == 3 and planned.lone_union() is None
    return planned


class TestNativeCounters:
    def test_q1_largest_operand_shrinks_tenfold(self, lubm_db):
        tracer = Tracer()
        report = QueryAnswerer(lubm_db).answer(
            motivating_q1().query, strategy="gcov", tracer=tracer
        )
        assert len(report.answers) == 73
        counters = tracer.spans("evaluate")[0].attributes["counters"]
        operands = {span.attributes["index"]: span for span in tracer.spans("operand")}
        largest = operands[0].attributes
        assert largest["terms"] == 135
        # Pinned: the other two operands' 18 shared ?x values filter it.
        assert largest["reduced_by"] == ["x"] and largest["keys"] == 18
        assert largest["rows"] == 73
        assert counters["union.input_rows"] == 508
        assert counters["semijoin.keys"] == 18
        assert counters["semijoin.rows_dropped"] == 2892
        assert largest["rows"] * 10 <= UNREDUCED_LARGEST_ROWS
        assert counters["union.input_rows"] * 10 <= UNREDUCED_UNION_INPUT_ROWS
        # The filtering operands ran first, unreduced.
        spans = tracer.spans("operand")
        assert [span.attributes["index"] for span in spans] == [1, 2, 0]
        assert all("reduced_by" not in span.attributes for span in spans[:2])

    def test_a_dense_key_set_does_not_filter(self, lubm_db):
        """Keys about as many as the later operand's rows cost more to
        probe than they drop: no operand of Q06 is reduced."""
        from repro.datasets import lubm_workload

        q06 = next(e for e in lubm_workload() if e.name == "Q06")
        tracer = Tracer()
        QueryAnswerer(lubm_db).answer(q06.query, strategy="gcov", tracer=tracer)
        assert all("reduced_by" not in s.attributes for s in tracer.spans("operand"))
        counters = tracer.spans("evaluate")[0].attributes["counters"]
        assert "semijoin.keys" not in counters

    def test_explain_names_the_filters(self, lubm_db, q1_plan):
        text = NativeEngine(lubm_db).explain(q1_plan)
        assert "operands run by scan volume: u1" in text
        assert "semi-join: u1, u2 filter u0 on ?x when keys x 16 <=" in text


class TestSQLiteProgram:
    def test_q1_runs_as_a_program(self, lubm_db, q1_plan):
        tracer = Tracer()
        with SQLiteEngine(lubm_db) as engine:
            answerer = QueryAnswerer(lubm_db, engine=engine)
            report = answerer.answer(motivating_q1().query, "gcov", tracer=tracer)
            assert _temp_tables(engine) == []
        assert report.answers == QueryAnswerer(lubm_db).answer(
            motivating_q1().query, "gcov"
        ).answers
        statements = program_statements(q1_plan, lubm_db)
        assert [s.split()[0:4] for s in statements[:3]] == [
            ["CREATE", "TEMP", "TABLE", "m1"],
            ["CREATE", "TEMP", "TABLE", "k0(v"],
            ["INSERT", "INTO", "k0", "SELECT"],
        ]
        final = statements[-1]
        assert final.startswith("SELECT DISTINCT") and "m1 u1" in final and "m2 u2" in final
        # Every arm of the largest operand is filtered on ?x (column v0).
        assert final.count(" IN k0") == 135
        # The run filled its key table under the limit, so it ran them all.
        counters = tracer.spans("evaluate")[0].attributes["counters"]
        assert counters["sqlite.statements"] == len(statements) == 5
        assert tracer.spans("sqlite.execute")[0].attributes["statements"] == 5

    @pytest.mark.parametrize(
        "body, head",
        [
            # ?x and ?X are one SQL identifier, ?order and ?from keywords.
            ("?x a ub:Professor . ?x ub:worksFor ?X . ?X a ub:Department . "
             "?X ub:subOrganizationOf ?u . ?x ub:doctoralDegreeFrom ?u", "?x ?X"),
            ("?order a ub:Professor . ?order ub:worksFor ?from", "?order ?from"),
        ],
        ids=["case", "keywords"],
    )
    def test_columns_are_named_by_position(self, lubm_db, body, head):
        query = parse_query(
            "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
            f"SELECT {head} WHERE {{ {body} }}"
        )
        planned, _search = QueryAnswerer(lubm_db).plan(query, "gcov")
        assert planned.lone_union() is None
        expected = NativeEngine(lubm_db).evaluate(planned)
        assert len(expected) > 0
        with SQLiteEngine(lubm_db) as engine:
            assert engine.evaluate(planned) == expected
            assert engine.evaluate(planned) == expected
            assert _temp_tables(engine) == []

    def test_lone_union_stays_one_statement(self, lubm_db):
        tracer = Tracer()
        with SQLiteEngine(lubm_db) as engine:
            QueryAnswerer(lubm_db, engine=engine).answer(
                motivating_q1().query, "saturation", tracer=tracer
            )
        counters = tracer.spans("evaluate")[0].attributes["counters"]
        assert counters["sqlite.statements"] == 1

    def test_explain_prints_every_statement_then_drops_them(self, lubm_db, q1_plan):
        with SQLiteEngine(lubm_db) as engine:
            text = engine.explain(q1_plan)
            assert _temp_tables(engine) == []
        program, plan = text.split("-- SQLite query plan --")
        assert program.count("CREATE TEMP TABLE m") == 2
        assert program.startswith("-- v0 = ?x, v1 = ?y\n")
        assert "INSERT INTO k0 SELECT DISTINCT v0 FROM m1" in program
        assert "SCAN u" in plan or "SEARCH" in plan

    def test_to_sql_program_runs_through_execute_sql(self, lubm_db, q1_plan):
        from repro.engine import to_sql

        with SQLiteEngine(lubm_db) as engine:
            rows = engine.execute_sql(to_sql(q1_plan, lubm_db.dictionary))
            assert _temp_tables(engine) == []
        expected = NativeEngine(lubm_db).evaluate(q1_plan)
        assert sorted(rows) == sorted(map(tuple, expected.codes.tolist()))


class TestVerifiedProgram:
    def test_the_engine_program_verifies(self, lubm_db, q1_plan):
        verify_pipeline(motivating_q1().query, q1_plan, database=lubm_db)
        assert check_sql(";\n".join(program_statements(q1_plan, lubm_db))) == []

    def test_uncreated_key_table_is_s01(self, lubm_db, q1_plan):
        statements = program_statements(q1_plan, lubm_db)
        without = [s for s in statements if not s.startswith("CREATE TEMP TABLE k")]
        without = [s for s in without if not s.startswith("INSERT INTO k")]
        codes = {d.code for d in check_sql(";\n".join(without))}
        assert "IR-S01" in codes

    def test_missing_column_of_a_materialized_operand_is_s03(self, lubm_db, q1_plan):
        statements = program_statements(q1_plan, lubm_db)
        final = statements[-1].replace("u1.v0", "u1.v1", 1)
        codes = {d.code for d in check_sql(";\n".join(statements[:-1] + [final]))}
        assert "IR-S03" in codes

    def test_uncreated_operand_table_is_s01(self, lubm_db, q1_plan):
        statements = program_statements(q1_plan, lubm_db)
        codes = {d.code for d in check_sql(";\n".join(statements[1:]))}
        assert "IR-S01" in codes


class _Switch:
    """A budget clock that is 0 until armed, then returns ``alive`` for
    its next ``grace`` reads and 100 for good."""

    def __init__(self) -> None:
        self.script: list = []
        self.now = 0.0

    def arm(self, grace: int) -> None:
        self.script = [1.0] * grace
        self.now = 100.0

    def __call__(self) -> float:
        return self.script.pop(0) if self.script else self.now


class TestSQLiteRobustness:
    @pytest.mark.parametrize(
        "step, grace",
        [("key_table", 0), ("final", 0), ("final", 1)],
        ids=["after-first-statement", "before-final", "in-final-handler"],
    )
    def test_deadline_mid_program_times_out_and_cleans_up(
        self, lubm_db, q1_plan, monkeypatch, step, grace
    ):
        """Armed while a statement is built, the deadline fires at its
        pre-statement check (grace 0) or, one read later, inside it
        through the progress handler (grace 1).  Armed at the first key
        table, only ``m1`` exists when it fires."""
        clock = _Switch()
        real = getattr(SQLProgram, step)

        def arming(*args):
            clock.arm(grace)
            return real(*args)

        static = isinstance(SQLProgram.__dict__[step], staticmethod)
        with SQLiteEngine(lubm_db) as engine:
            engine.progress_interval = 1
            monkeypatch.setattr(
                SQLProgram, step, staticmethod(arming) if static else arming
            )
            budget = ExecutionBudget(timeout_s=10.0, clock=clock)
            with pytest.raises(EngineTimeout):
                engine.evaluate(q1_plan, budget=budget)
            assert _temp_tables(engine) == []
            monkeypatch.undo()
            assert engine.evaluate(q1_plan) == NativeEngine(lubm_db).evaluate(q1_plan)

    def test_explain_is_bounded(self, lubm_db, q1_plan, monkeypatch):
        """Explain runs the setup statements, but under a deadline."""
        from repro.engine import sqlite_backend

        monkeypatch.setattr(sqlite_backend, "EXPLAIN_TIMEOUT_S", 1e-9)
        with SQLiteEngine(lubm_db) as engine:
            with pytest.raises(EngineTimeout, match="while planning"):
                engine.explain(q1_plan)
            assert _temp_tables(engine) == []

    def test_failure_inside_a_materialized_operand_cleans_up(
        self, lubm_db, q1_plan, monkeypatch
    ):
        """The second materialization reads a column that does not exist:
        ``m1`` and ``k0`` already exist when it fails."""
        real = SQLProgram.materialize
        calls = []

        def breaking(program, index, keys=None):
            calls.append(index)
            sql = real(program, index, keys)
            return sql.replace("AS v0", "AS v0, t0.nope", 1) if len(calls) == 2 else sql

        with SQLiteEngine(lubm_db) as engine:
            monkeypatch.setattr(SQLProgram, "materialize", breaking)
            with pytest.raises(EngineFailure, match="no such column"):
                engine.evaluate(q1_plan)
            assert len(calls) == 2
            assert _temp_tables(engine) == []
            monkeypatch.undo()
            assert engine.evaluate(q1_plan) == NativeEngine(lubm_db).evaluate(q1_plan)

    def test_two_threads_run_two_programs_on_one_engine(self, lubm_db):
        answerer = QueryAnswerer(lubm_db)
        plans = [answerer.plan(e.query, "gcov")[0] for e in (motivating_q1(), motivating_q2())]
        assert all(plan.lone_union() is None for plan in plans)
        expected = [NativeEngine(lubm_db).evaluate(plan) for plan in plans]
        results: dict = {}
        errors: list = []
        with SQLiteEngine(lubm_db) as engine:
            barrier = threading.Barrier(2)

            def work(slot: int) -> None:
                try:
                    barrier.wait()
                    results[slot] = [engine.evaluate(plans[slot]) for _ in range(5)]
                except Exception as error:  # surfaced below
                    errors.append(error)

            threads = [threading.Thread(target=work, args=(i,)) for i in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert engine.pool_size() >= 2
        assert errors == []
        for slot in (0, 1):
            assert all(answers == expected[slot] for answers in results[slot])
