"""A read writes nothing to the shared dictionary.

Reformulation instantiates class and property variables over the
schema, so a plan's heads carry schema constants that no stored triple
need have.  ``RDFDatabase.snapshot()`` gives a newly published schema's
terms their codes, so answering never allocates one: the dictionary's
length, what the SQLite statement cache keys on and what a derived
store's remap copies, stays put across reads.
"""

import pytest

from repro.answering import QueryAnswerer
from repro.datasets import build_lubm_database
from repro.engine import SQLiteEngine
from repro.query import parse_query
from repro.rdf import URI

UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"

#: ``?c`` ranges over every class, ExchangeStudent among them, which
#: no stored triple mentions.
QUERY = f"PREFIX ub: <{UB}> SELECT ?x ?c WHERE {{ ?x rdf:type ?c . ?x ub:takesCourse ?d }}"


@pytest.fixture()
def database():
    db = build_lubm_database(universities=1, seed=0)
    db.schema.add_subclass(URI(UB + "ExchangeStudent"), URI(UB + "Student"))
    return db


@pytest.mark.parametrize("engine", ["native", "sqlite"])
@pytest.mark.parametrize("strategy", ["ucq", "scq", "gcov", "saturation", "litemat"])
def test_answering_leaves_the_dictionary_alone(database, engine, strategy):
    answerer = QueryAnswerer(
        database, engine=SQLiteEngine(database) if engine == "sqlite" else None
    )
    try:
        database.snapshot()
        before = len(database.dictionary)
        report = answerer.answer(parse_query(QUERY), strategy=strategy)
        assert report.answer_count > 0
        assert len(database.dictionary) == before
    finally:
        answerer.close()


def test_a_schema_edit_encodes_its_terms_at_the_next_snapshot(database):
    database.snapshot()
    new = URI(UB + "VisitingScholar")
    database.schema.add_subclass(new, URI(UB + "Person"))
    assert new not in database.dictionary
    schema = database.snapshot().schema
    assert all(term in database.dictionary for term in schema.terms)
