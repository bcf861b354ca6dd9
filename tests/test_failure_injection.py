"""Failure-injection tests: the system under hostile or broken inputs.

Every failure must be a *typed*, catchable error — never a silent wrong
answer, never an unrelated traceback.
"""

import contextlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.answering import QueryAnswerer
from repro.datasets import lubm_query, motivating_q1
from repro.engine import (
    EngineFailure,
    EngineProfile,
    EngineTimeout,
    ExecutionBudget,
    NativeEngine,
    SQLiteEngine,
)
from repro.query import BGPQuery, SPARQLSyntaxError, parse_query
from repro.rdf import RDF_TYPE, Triple, URI, Variable
from repro.rdf.ntriples import NTriplesError, read_ntriples
from repro.storage import RDFDatabase

x, y = Variable("x"), Variable("y")


def u(name):
    return URI(f"http://fi/{name}")


class TestParserFuzz:
    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=120))
    def test_parser_never_crashes_unexpectedly(self, text):
        """Arbitrary text either parses or raises the typed errors."""
        # ValueError covers unsafe-head rejections.
        with contextlib.suppress(SPARQLSyntaxError, ValueError):
            parse_query(text)

    @settings(max_examples=150, deadline=None)
    @given(st.text(max_size=120))
    def test_ntriples_never_crashes_unexpectedly(self, text):
        with contextlib.suppress(NTriplesError):
            list(read_ntriples(text))


class TestEngineFailurePropagation:
    def test_answerer_propagates_engine_failure(self, lubm_db3):
        """A too-strict engine fails loudly through the facade."""
        strict = NativeEngine(lubm_db3, EngineProfile(name="strict", max_union_terms=3))
        answerer = QueryAnswerer(lubm_db3, engine=strict)
        with pytest.raises(EngineFailure):
            answerer.answer(motivating_q1().query, strategy="ucq")

    def test_timeout_is_a_failure_subtype(self, lubm_db3):
        answerer = QueryAnswerer(lubm_db3)
        with pytest.raises(EngineTimeout):
            answerer.answer(
                lubm_query("Q09"),
                strategy="ucq",
                budget=ExecutionBudget(timeout_s=-1.0),
            )
        # ...and EngineTimeout is catchable as EngineFailure.
        assert issubclass(EngineTimeout, EngineFailure)

    def test_failure_leaves_engine_reusable(self, lubm_db3):
        """After a failure, the same engine still answers other queries."""
        strict = NativeEngine(
            lubm_db3, EngineProfile(name="strict", max_union_terms=5)
        )
        answerer = QueryAnswerer(lubm_db3, engine=strict)
        with pytest.raises(EngineFailure):
            answerer.answer(motivating_q1().query, strategy="ucq")
        report = answerer.answer(lubm_query("Q11"), strategy="gcov")
        assert report.answers is not None

    def test_sqlite_failure_leaves_connection_usable(self, lubm_db3):
        engine = SQLiteEngine(lubm_db3)
        with pytest.raises(EngineFailure):
            engine.execute_sql("SELECT nonsense FROM nowhere")
        q = BGPQuery([x], [Triple(x, RDF_TYPE, y)])
        assert len(engine.evaluate(q)) > 0


class TestDegenerateData:
    def test_query_over_empty_database(self):
        db = RDFDatabase()
        db.load_facts([])
        answerer = QueryAnswerer(db)
        q = BGPQuery([x], [Triple(x, u("p"), y)])
        for strategy in ("ucq", "scq", "gcov", "saturation"):
            assert answerer.answer(q, strategy=strategy).answer_count == 0

    def test_constants_absent_from_data(self, lubm_db3):
        answerer = QueryAnswerer(lubm_db3)
        q = BGPQuery([x], [Triple(x, u("never_seen"), u("nothing"))])
        assert answerer.answer(q, strategy="gcov").answer_count == 0

    def test_single_triple_database(self):
        db = RDFDatabase()
        db.load_facts([Triple(u("a"), u("p"), u("b"))])
        answerer = QueryAnswerer(db)
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        assert answerer.answer(q, strategy="gcov").answer_count == 1

    def test_calibration_fails_cleanly_on_empty_store(self):
        from repro.cost import calibrate

        db = RDFDatabase()
        db.load_facts([])
        with pytest.raises(RuntimeError):
            calibrate(NativeEngine(db), db, repeats=1)
