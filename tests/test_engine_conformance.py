"""One contract, three engines: the ``Engine`` protocol's conformance suite.

Every engine takes the same ``evaluate`` and ``explain`` signatures
(``repro explain`` prints what the answering engine says) and honours one
:class:`~repro.engine.ExecutionBudget` the same way (DESIGN.md §10): a
deadline that has already passed is an :class:`EngineTimeout` before
any work, a crossed result cap is an :class:`EngineFailure`, and
:data:`~repro.engine.UNLIMITED` — every ``budget`` default — answers
exactly what a call without a budget does.
"""

from __future__ import annotations

import inspect

import pytest

from repro.engine import (
    UNLIMITED,
    Engine,
    EngineFailure,
    EngineTimeout,
    ExecutionBudget,
    NativeEngine,
    SQLiteEngine,
)
from repro.query import BGPQuery
from repro.rdf import RDF_TYPE, Triple, URI, Variable
from repro.resilience import ChaosConfig, ChaosEngine

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
x, y = Variable("x"), Variable("y")

ENGINES = {
    "native": NativeEngine,
    "sqlite": SQLiteEngine,
    # Zero fault rates: the decorator must be transparent.
    "chaos": lambda database: ChaosEngine(NativeEngine(database), ChaosConfig()),
}


@pytest.fixture(params=sorted(ENGINES))
def engine(request, lubm_db):
    engine = ENGINES[request.param](lubm_db)
    yield engine
    close = getattr(engine, "close", None)
    if close is not None:
        close()


def professors_and_courses() -> BGPQuery:
    return BGPQuery(
        [x, y],
        [
            Triple(x, RDF_TYPE, URI(UB + "FullProfessor")),
            Triple(x, URI(UB + "teacherOf"), y),
        ],
        name="teaching",
    )


def test_evaluate_signature_is_the_protocols(engine):
    assert inspect.signature(type(engine).evaluate) == inspect.signature(
        Engine.evaluate
    )


def test_explain_signature_is_the_protocols(engine):
    assert inspect.signature(type(engine).explain) == inspect.signature(
        Engine.explain
    )
    text = engine.explain(professors_and_courses())
    assert isinstance(text, str) and text.strip()


def test_expired_budget_is_a_timeout(engine):
    already_expired = ExecutionBudget(timeout_s=-1.0)
    with pytest.raises(EngineTimeout):
        engine.evaluate(professors_and_courses(), budget=already_expired)


def test_result_cap_is_a_failure(engine):
    full = engine.evaluate(professors_and_courses())
    assert len(full) > 1
    capped = ExecutionBudget(max_result_rows=len(full) - 1)
    with pytest.raises(EngineFailure, match="max_result_rows") as failure:
        engine.evaluate(professors_and_courses(), budget=capped)
    assert not isinstance(failure.value, EngineTimeout)


def test_unlimited_answers_what_no_budget_does(engine, lubm_db):
    query = professors_and_courses()
    answers = engine.evaluate(query, budget=UNLIMITED)
    assert answers == engine.evaluate(query)
    assert answers == NativeEngine(lubm_db).evaluate(query)
