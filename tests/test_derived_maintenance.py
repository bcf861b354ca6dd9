"""Delta-maintained derived stores equal the from-scratch ones (DESIGN.md §20).

A write hands the saturated and the interval-encoded store the rows
they lack instead of rebuilding them.  After every round of seeded
writes — a subclass edge added and removed on the way, twice two writes
between reads — the maintained stores must be array-equal, index by
index, to stores derived from nothing, every strategy must agree with
the triple-at-a-time oracle, and an engine handed out before the write
must keep answering as of before it.
"""

import random

import numpy as np
import pytest

from oracle import make_answerer
from repro.answering import STRATEGIES
from repro.cache import QueryCache
from repro.datasets import build_lubm_database, department_uri, ub, university_uri
from repro.query import parse_query
from repro.query.naive import evaluate
from repro.rdf import RDF_TYPE, Literal, Triple, URI
from repro.reasoning import saturate
from repro.reasoning.encoded import saturate_database
from repro.reasoning.litemat import interval_encode_database
from repro.storage.triple_table import PERMUTATIONS

PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
QUERIES = [
    parse_query(PREFIX + text, name=name)
    for name, text in [
        ("persons", "SELECT ?x WHERE { ?x a ub:Person }"),
        ("members", "SELECT ?x ?d WHERE { ?x ub:memberOf ?d . ?x a ub:Student }"),
        ("degrees", "SELECT ?x ?u WHERE { ?x ub:degreeFrom ?u }"),
        ("authors", "SELECT ?p ?x WHERE { ?p ub:publicationAuthor ?x . ?x a ub:GraduateStudent }"),
        ("advised", "SELECT ?s ?x WHERE { ?s ub:advisor ?x . ?x a ub:Professor }"),
    ]
]
#: A leaf class the generator never emits (the churn workload's toggle).
EDGE = (ub("ExchangeStudent"), ub("Student"))
KINDS = ("GraduateStudent", "UndergraduateStudent", "TeachingAssistant", "ExchangeStudent")


def write_batch(rng, step):
    """New people whose facts fire every rule kind: subclass widening,
    subproperty copies, domain typing and range typing."""
    triples = []
    for index in range(3):
        student = URI(f"http://www.univ0.edu/maintained/student{step}_{index}")
        mentor = URI(f"http://www.univ0.edu/maintained/mentor{step}_{index}")
        department = department_uri(0, rng.randrange(4))
        triples += [
            Triple(student, RDF_TYPE, ub(rng.choice(KINDS))),
            Triple(student, ub("memberOf"), department),
            Triple(student, ub("name"), Literal(f"Maintained{step}.{index}")),
            Triple(student, ub("mastersDegreeFrom"), university_uri(0)),
            Triple(student, ub("advisor"), mentor),
            Triple(mentor, ub("headOf"), department),
            Triple(URI(f"http://www.univ0.edu/dept0/pub{rng.randrange(40)}"),
                   ub("publicationAuthor"), student),
        ]
    # A row the store already has and a row twice: the merge drops both.
    return triples + [Triple(department_uri(0, 0), RDF_TYPE, ub("Department"))] + triples[:1]


def assert_same_indexes(maintained, scratch):
    for name in PERMUTATIONS:
        assert np.array_equal(maintained.table.index(name), scratch.table.index(name)), name


def oracle_answers(database):
    graph = saturate(database.facts_graph(), database.schema)
    return {query.name: evaluate(query, graph) for query in QUERIES}


def test_maintained_stores_equal_from_scratch_ones_across_writes_and_schema_toggles():
    rng = random.Random(19)
    database = build_lubm_database(universities=1, seed=0)
    answerer = make_answerer(database, cache=QueryCache())
    delta_rounds = 0
    # (writes before the read round, schema toggle before them)
    for step, (writes, toggle) in enumerate(
        [(1, None), (2, None), (1, "add"), (1, None), (2, "remove"), (1, None)]
    ):
        before = {
            strategy: (
                answerer.engine_for(strategy),
                [answerer.plan(query, strategy)[0] for query in QUERIES],
            )
            for strategy in ("saturation", "litemat")
        }
        before_answers = {
            strategy: [engine.evaluate(plan) for plan in plans]
            for strategy, (engine, plans) in before.items()
        }
        encoding_before, _store, snapshot_before = answerer.interval_assigner.current(
            database
        )

        if toggle == "add":
            database.schema.add_subclass(*EDGE)
        elif toggle == "remove":
            database.schema.remove_subclass(*EDGE)
        for write in range(writes):
            database.load_facts(write_batch(rng, f"{step}.{write}"))

        expected = oracle_answers(database)
        for query in QUERIES:
            for strategy in STRATEGIES:
                answers = answerer.answer(query, strategy=strategy).answers
                assert answers == expected[query.name], (step, query.name, strategy)

        # The stores the answerer now serves, against stores from nothing.
        snapshot = database.snapshot()
        saturated_at, saturated = answerer._saturated
        assert saturated_at == snapshot
        assert_same_indexes(saturated.database, saturate_database(database).database)
        encoding, interval_store, interval_at = answerer.interval_assigner.current(database)
        assert interval_at == snapshot
        scratch = interval_encode_database(database)
        assert_same_indexes(interval_store, scratch.database)
        for term in scratch.encoding.leading_terms:
            assert interval_store.dictionary.lookup(term) == scratch.database.dictionary.lookup(term)

        # A schema change re-encodes; a data-only write keeps the encoding.
        assert snapshot.data > snapshot_before.data
        if toggle is None:
            assert snapshot.schema == snapshot_before.schema
            assert encoding is encoding_before
            delta_rounds += 1
        else:
            assert snapshot.schema != snapshot_before.schema
            assert encoding is not encoding_before

        # Readers still inside the superseded stores see the old state.
        for strategy, (engine, plans) in before.items():
            assert answerer.engine_for(strategy) is not engine
            assert [engine.evaluate(plan) for plan in plans] == before_answers[strategy]
    assert delta_rounds == 4


def test_held_state_is_only_a_shortcut():
    """Deriving with held state and deriving from nothing are one function:
    same result whether the held store is one write or three writes old."""
    rng = random.Random(7)
    database = build_lubm_database(universities=1, seed=0)
    old_saturated = saturate_database(database)
    old_interval = interval_encode_database(database)
    for step in range(3):
        database.load_facts(write_batch(rng, step))
    recent_saturated = saturate_database(database, old_saturated)
    database.load_facts(write_batch(rng, "last"))
    scratch = saturate_database(database).database
    assert_same_indexes(saturate_database(database, old_saturated).database, scratch)
    assert_same_indexes(saturate_database(database, recent_saturated).database, scratch)
    assert len(old_saturated.database) < len(recent_saturated.database) < len(scratch)
    maintained = interval_encode_database(database, held=old_interval)
    assert maintained.encoding is old_interval.encoding
    assert_same_indexes(maintained.database, interval_encode_database(database).database)
    assert len(maintained.remap) == len(database.dictionary)


def test_readers_beside_a_writer_only_ever_see_more():
    """One writer, one reader per strategy on one answerer (more threads
    than cores, short switch interval): the held state is swapped under
    the locks and every table read slices the index it searched, so no
    reader fails, none sees an answer set shrink or leave the bounds
    [before the writes, after them], and the last read is exact."""
    readers_beside_a_writer(make_answerer(build_lubm_database(universities=1, seed=0)))


@pytest.mark.slow
def test_readers_beside_a_writer_on_sqlite():
    """The same on the SQLite engine: every reader thread's pooled
    connection reloads when the snapshot's data part moves."""
    from repro.engine import SQLiteEngine

    database = build_lubm_database(universities=1, seed=0)
    with SQLiteEngine(database) as engine:
        answerer = make_answerer(database, engine=engine)
        try:
            readers_beside_a_writer(answerer)
        finally:
            answerer.close()


def readers_beside_a_writer(answerer):
    import sys
    import threading

    rng = random.Random(3)
    database = answerer.database
    persons = QUERIES[0]
    floor = answerer.answer(persons, strategy="saturation").answers
    batches = [write_batch(rng, f"stress{step}") for step in range(12)]
    done = threading.Event()
    failures = []

    def read(strategy):
        seen = floor
        try:
            while True:
                finished = done.is_set()
                answers = answerer.answer(persons, strategy=strategy).answers
                if not seen <= answers:
                    failures.append((strategy, "shrank"))
                seen = answers
                if finished:
                    break
        except Exception as error:  # surfaced through ``failures`` below
            failures.append((strategy, repr(error)))
        results[threading.get_ident()] = seen

    results = {}
    readers = [threading.Thread(target=read, args=(strategy,)) for strategy in STRATEGIES]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for reader in readers:
            reader.start()
        for batch in batches:
            database.load_facts(batch)
        done.set()
        for reader in readers:
            reader.join(timeout=60)
    finally:
        done.set()
        sys.setswitchinterval(interval)
    assert not any(reader.is_alive() for reader in readers)
    assert failures == []
    expected = oracle_answers(database)[persons.name]
    assert len(results) == len(readers)
    assert all(seen == expected for seen in results.values())
