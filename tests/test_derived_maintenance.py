"""Delta-maintained derived stores equal the from-scratch ones (DESIGN.md §20).

A write hands the saturated and the interval-encoded store the rows
they lack instead of rebuilding them.  After every round of seeded
writes — a subclass edge added and removed on the way, twice two writes
between reads — a reader must read each of the maintained stores'
six indexes key for key as it reads a store derived from nothing
(whatever their base and tail runs hold), every strategy must agree with
the triple-at-a-time oracle, and an engine handed out before the write
must keep answering as of before it.
"""

import random

import numpy as np
import pytest

from oracle import assert_memos_match_fresh_probes, make_answerer, read_index
from repro.answering import STRATEGIES
from repro.cache import QueryCache
from repro.datasets import build_lubm_database, department_uri, ub, university_uri
from repro.query import parse_query
from repro.query.naive import evaluate
from repro.rdf import RDF_TYPE, Literal, Triple, URI
from repro.reasoning import saturate
from repro.reasoning.encoded import Layout, derive
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
#: The derived rows and the layout of their stores.
LAYOUTS = {"saturation": Layout.SATURATED, "litemat": Layout.INTERVALS}
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
        assert np.array_equal(
            read_index(maintained.table.view, name), read_index(scratch.table.view, name)
        ), name


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

        # The stores the answerer now serves, against stores from nothing:
        # the published derivation is at the snapshot, and is what the
        # engine of the row reads.
        snapshot = database.snapshot()
        served = {}
        for strategy, layout in LAYOUTS.items():
            served[strategy] = answerer.derived_stores[strategy].at(snapshot)
            assert served[strategy].key == snapshot.key
            assert served[strategy].engine is answerer.engine_for(strategy)
            scratch = derive(database, layout)
            assert_same_indexes(served[strategy].store.database, scratch.database)
        interval_store = served["litemat"].store.database
        for term in scratch.encoding.leading_terms:
            assert interval_store.dictionary.lookup(term) == scratch.database.dictionary.lookup(term)
        encoding = served["litemat"].store.encoding

        # A schema change re-encodes; a data-only write keeps the encoding.
        assert snapshot.table.version > snapshot_before.table.version
        if toggle is None:
            assert snapshot.key[0] == snapshot_before.key[0]
            assert encoding is encoding_before
            delta_rounds += 1
        else:
            assert snapshot.key[0] != snapshot_before.key[0]
            assert encoding is not encoding_before

        # Readers still inside the superseded stores see the old state.
        for strategy, (engine, plans) in before.items():
            assert answerer.engine_for(strategy) is not engine
            assert [engine.evaluate(plan) for plan in plans] == before_answers[strategy]
    assert delta_rounds == 4


def test_held_state_is_only_a_shortcut():
    """Deriving with held state and deriving from nothing are one function:
    same result whether the held store is one write or three writes old,
    in either layout."""
    rng = random.Random(7)
    database = build_lubm_database(universities=1, seed=0)
    old = {layout: derive(database, layout) for layout in Layout}
    for step in range(2):
        database.load_facts(write_batch(rng, step))
    recent = {layout: derive(database, layout, old[layout]) for layout in Layout}
    database.load_facts(write_batch(rng, "last"))
    version = database.snapshot().table.version
    for layout in Layout:
        assert old[layout].base_version == version - 3
        assert recent[layout].base_version == version - 1
        scratch = derive(database, layout)
        for held in (old[layout], recent[layout], old[layout]):
            maintained = derive(database, layout, held)
            assert maintained.base_version == version
            assert maintained.encoding is held.encoding
            assert_same_indexes(maintained.database, scratch.database)
        assert len(old[layout].database) < len(recent[layout].database) < len(scratch.database)
    assert old[Layout.SATURATED].remap is None and old[Layout.SATURATED].encoding is None
    assert len(maintained.remap) == len(database.dictionary)


def test_an_older_derivation_never_replaces_a_newer_one(monkeypatch):
    """Two derivations of one row finish out of order: a reader that
    derived at version v finishes after a reader at v + 1 has published.
    For each derived row the newer derivation — held store and engine —
    stays published, the older reader answers from its own, a reader
    resolved at v later is handed its own too, and the next reader at
    v + 1 derives nothing."""
    import threading

    import repro.answering.stores as stores

    rng = random.Random(5)
    database = build_lubm_database(universities=1, seed=0)
    answerer = make_answerer(database)
    query = QUERIES[0]
    real = stores.derive
    built, reader = [], None

    def paced(database, layout, held=None, snapshot=None):
        store = real(database, layout, held, snapshot)
        built.append((layout, store.base_version))
        if threading.current_thread() is reader:
            derived.set()
            assert resume.wait(30)
        return store

    def read(strategy, into):
        into.append(answerer.answer(query, strategy=strategy).answers)

    monkeypatch.setattr(stores, "derive", paced)
    for strategy, layout in LAYOUTS.items():
        holder = answerer.derived_stores[strategy]
        answerer.answer(query, strategy=strategy)  # a published store to extend
        database.load_facts(write_batch(rng, f"older-{strategy}"))
        before, expected_before = database.snapshot(), oracle_answers(database)
        derived, resume, older = threading.Event(), threading.Event(), []
        reader = threading.Thread(target=read, args=(strategy, older))
        reader.start()
        assert derived.wait(30)
        database.load_facts(write_batch(rng, f"newer-{strategy}"))
        newer_engine = answerer.engine_for(strategy)
        resume.set()
        reader.join(30)
        now = database.snapshot()
        assert older == [expected_before[query.name]]
        assert built[-2:] == [
            (layout, before.table.version),
            (layout, now.table.version),
        ]
        newer = holder.at(now)
        assert newer.key == now.key and newer.engine is newer_engine
        scratch_before = real(database, layout, snapshot=before).database
        assert len(newer.store.database) > len(scratch_before)

        # A reader resolved before the write asks after the newer one is
        # published: it gets its own, of its own version, and the newer stays.
        stale = holder.at(before)
        assert stale.key == before.key and stale.engine is not newer_engine
        assert_same_indexes(stale.store.database, scratch_before)
        assert holder.at(now) is newer
        count = len(built)
        assert answerer.answer(query, strategy=strategy).answers == oracle_answers(database)[query.name]
        assert len(built) == count


def test_a_published_store_is_read_beside_another_rows_derivation(monkeypatch):
    """A reader of a published derived store does not wait while another
    row derives its store: each holder derives outside every lock."""
    import threading

    import repro.answering.stores as stores

    database = build_lubm_database(universities=1, seed=0)
    answerer = make_answerer(database)
    query = QUERIES[0]
    expected = answerer.answer(query, strategy="litemat").answers
    real = stores.derive
    parked, resume = threading.Event(), threading.Event()

    def paced(database, layout, held=None, snapshot=None):
        if layout is Layout.SATURATED:
            parked.set()
            assert resume.wait(30)
        return real(database, layout, held, snapshot)

    monkeypatch.setattr(stores, "derive", paced)
    saturating = threading.Thread(target=lambda: answerer.answer(query, strategy="saturation"))
    saturating.start()
    try:
        assert parked.wait(30)
        read = []
        reader = threading.Thread(
            target=lambda: read.append(answerer.answer(query, strategy="litemat").answers)
        )
        reader.start()
        reader.join(5)
        assert not reader.is_alive(), "the litemat reader waited on saturation"
        assert read == [expected]
    finally:
        resume.set()
        saturating.join(30)


def test_readers_beside_a_writer_see_one_version_at_a_time():
    """One writer, one reader per strategy on one answerer (more threads
    than cores, short switch interval): each answer reads the one
    snapshot its call took, so every answer a reader gets *equals* the
    oracle's answer after some prefix of the writes (never a mix of two
    versions), no reader fails, and the last read is exact.  The
    answerer's estimator record and the views' memoized counts then
    equal raw probes of their own versions."""
    readers_beside_a_writer(make_answerer(build_lubm_database(universities=1, seed=0)))


@pytest.mark.slow
def test_readers_beside_a_writer_on_sqlite():
    """The same on the SQLite engine: every reader thread's pooled
    connection holds the rows of the view its statement reads."""
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
    batches = [write_batch(rng, f"stress{step}") for step in range(12)]
    # The oracle's answer after every prefix of the writes, before them too.
    graph = database.facts_graph()
    versions = [evaluate(persons, saturate(graph, database.schema))]
    for batch in batches:
        graph.add_all(batch)
        versions.append(evaluate(persons, saturate(graph, database.schema)))
    # Before the readers start, as ever: the saturated store's derivation
    # encodes the schema's classes into the shared dictionary, so no
    # estimator entry is made while a class of the query is still unknown.
    assert answerer.answer(persons, strategy="saturation").answers == versions[0]
    done = threading.Event()
    failures = []

    def read(strategy):
        seen = None
        try:
            while True:
                finished = done.is_set()
                answers = answerer.answer(persons, strategy=strategy).answers
                if not any(answers == version for version in versions):
                    failures.append((strategy, "no version", len(answers)))
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
    assert len(results) == len(readers)
    assert all(seen == versions[-1] for seen in results.values())
    # What the estimator and the views memoized is what a raw probe reads.
    assert assert_memos_match_fresh_probes(answerer.cost_model.estimator) > 0
