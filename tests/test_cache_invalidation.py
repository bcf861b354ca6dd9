"""Cache invalidation under schema and data mutation (DESIGN.md §9).

The invalidation matrix under test:

=====================  ==============  ============
update                 reformulations  plans
=====================  ==============  ============
data (insert)          survive         new key
schema (constraints)   new key         new key
=====================  ==============  ============

Every key is built from ``RDFDatabase.snapshot()`` or one of its parts.

Each schema mutation kind (add/remove × subclass/subproperty/domain/
range) must (a) change the answers when it semantically should, and
(b) never let a stale cached reformulation or plan leak through — the
cached answerer is differentially checked against a *fresh* answerer
after every mutation.  Data-only changes must keep reformulations warm
(they are pure schema consequences) while forcing a re-plan.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import differential_check, make_answerer
from repro.cache import MISSING, QueryCache
from repro.query import BGPQuery
from repro.rdf import RDF_TYPE, RDFSchema, Triple, URI, Variable
from repro.reasoning.litemat import interval_encode_database
from repro.storage import IntervalEncoding, RDFDatabase


def ex(name: str) -> URI:
    return URI(f"http://ex/{name}")


def _book_database(book_schema, book_facts) -> RDFDatabase:
    # Rebuild the schema so mutations don't leak into the session fixture.
    schema = RDFSchema()
    for triple in book_schema.to_triples():
        schema.add_triple(triple)
    db = RDFDatabase(schema=schema)
    db.load_facts(book_facts)
    return db


@pytest.fixture()
def book_db(book_schema, book_facts) -> RDFDatabase:
    return _book_database(book_schema, book_facts)


def _answers(answerer, query, strategy="ucq"):
    return answerer.answer(query, strategy=strategy).answers


def _check_against_fresh(cached_answerer, query, label):
    """The cached answerer must agree with a fresh (uncached) one."""
    fresh = make_answerer(cached_answerer.database)
    differential_check(cached_answerer, query, label=label)
    assert (
        _answers(cached_answerer, query) == _answers(fresh, query)
    ), f"{label}: cached answerer disagrees with a fresh one"


# ----------------------------------------------------------------------
# Schema mutations invalidate reformulations (and plans)
# ----------------------------------------------------------------------
class TestSchemaMutations:
    def _publications_query(self):
        x = Variable("x")
        return BGPQuery([x], [Triple(x, RDF_TYPE, ex("Publication"))])

    def test_add_subclass_changes_answers(self, book_db):
        cache = QueryCache()
        answerer = make_answerer(book_db, cache=cache)
        query = self._publications_query()
        before = _answers(answerer, query)
        assert ex("doi1") in {row[0] for row in before}
        # A new Report subclass of Publication, plus a report instance.
        book_db.schema.add_subclass(ex("Report"), ex("Publication"))
        book_db.load_facts([Triple(ex("r1"), RDF_TYPE, ex("Report"))])
        after = _answers(answerer, query)
        assert ex("r1") in {row[0] for row in after}
        _check_against_fresh(answerer, query, "add_subclass")

    def test_remove_subclass_changes_answers(self, book_db):
        answerer = make_answerer(book_db, cache=QueryCache())
        query = self._publications_query()
        assert ex("doi1") in {row[0] for row in _answers(answerer, query)}
        book_db.schema.remove_subclass(ex("Book"), ex("Publication"))
        after = _answers(answerer, query)
        assert ex("doi1") not in {row[0] for row in after}
        _check_against_fresh(answerer, query, "remove_subclass")

    def test_add_remove_subproperty(self, book_db):
        answerer = make_answerer(book_db, cache=QueryCache())
        x, y = Variable("x"), Variable("y")
        query = BGPQuery([x, y], [Triple(x, ex("contributedTo"), y)])
        assert _answers(answerer, query) == frozenset()
        book_db.schema.add_subproperty(ex("writtenBy"), ex("contributedTo"))
        with_sub = _answers(answerer, query)
        assert (ex("doi1"), ex("b1")) in with_sub
        _check_against_fresh(answerer, query, "add_subproperty")
        assert book_db.schema.remove_subproperty(ex("writtenBy"), ex("contributedTo"))
        assert _answers(answerer, query) == frozenset()
        _check_against_fresh(answerer, query, "remove_subproperty")

    def test_add_remove_domain(self, book_db):
        answerer = make_answerer(book_db, cache=QueryCache())
        x = Variable("x")
        query = BGPQuery([x], [Triple(x, RDF_TYPE, ex("Document"))])
        assert _answers(answerer, query) == frozenset()
        book_db.schema.add_domain(ex("hasTitle"), ex("Document"))
        assert ex("doi1") in {row[0] for row in _answers(answerer, query)}
        _check_against_fresh(answerer, query, "add_domain")
        assert book_db.schema.remove_domain(ex("hasTitle"), ex("Document"))
        assert _answers(answerer, query) == frozenset()
        _check_against_fresh(answerer, query, "remove_domain")

    def test_add_remove_range(self, book_db):
        answerer = make_answerer(book_db, cache=QueryCache())
        x = Variable("x")
        query = BGPQuery([x], [Triple(x, RDF_TYPE, ex("Author"))])
        assert _answers(answerer, query) == frozenset()
        book_db.schema.add_range(ex("writtenBy"), ex("Author"))
        assert ex("b1") in {row[0] for row in _answers(answerer, query)}
        _check_against_fresh(answerer, query, "add_range")
        assert book_db.schema.remove_range(ex("writtenBy"), ex("Author"))
        assert _answers(answerer, query) == frozenset()
        _check_against_fresh(answerer, query, "remove_range")

    def test_schema_mutation_misses_reformulation_memo(self, book_db):
        """The memo is keyed on the schema part of the snapshot: after an
        edit no entry of the old schema is reachable, and when the
        fingerprint comes back so do its entries — nothing is cleared."""
        answerer = make_answerer(book_db, cache=QueryCache())
        query = self._publications_query()
        _answers(answerer, query)
        reformulator = answerer.reformulator
        assert len(reformulator.cache) > 0
        edge = (ex("Thesis"), ex("Publication"))
        runs = reformulator.runs
        book_db.schema.add_subclass(*edge)
        with_edge = _answers(answerer, query)
        assert reformulator.runs > runs
        book_db.schema.remove_subclass(*edge)
        _check_against_fresh(answerer, query, "remove_subclass")
        runs = reformulator.runs
        book_db.schema.add_subclass(*edge)
        assert _answers(answerer, query) == with_edge
        assert reformulator.runs == runs
        assert reformulator.cache.invalidations == 0

    def test_schema_mutation_invalidates_plan_key(self, book_db):
        cache = QueryCache()
        answerer = make_answerer(book_db, cache=cache)
        query = self._publications_query()
        _answers(answerer, query)
        key_before = cache.plan_key(book_db.snapshot(), query, "ucq")
        book_db.schema.add_subclass(ex("Thesis"), ex("Publication"))
        key_after = cache.plan_key(book_db.snapshot(), query, "ucq")
        assert key_before != key_after
        # The old entry is unreachable: the lookup under the new key misses.
        assert cache.plans.peek(key_after, MISSING) is MISSING


# ----------------------------------------------------------------------
# Data-only mutations keep reformulations, invalidate plans
# ----------------------------------------------------------------------
class TestDataMutations:
    def test_data_change_keeps_reformulations_kills_plans(self, book_db):
        cache = QueryCache()
        answerer = make_answerer(book_db, cache=cache)
        x = Variable("x")
        query = BGPQuery([x], [Triple(x, RDF_TYPE, ex("Publication"))])
        _answers(answerer, query)
        memo = answerer.reformulator.cache
        memo_invalidations = memo.invalidations
        plan_misses = cache.plans.misses
        plan_hits = cache.plans.hits
        # Warm repeat: plan hit, no new miss.
        _answers(answerer, query)
        assert cache.plans.hits == plan_hits + 1
        assert cache.plans.misses == plan_misses
        # Data-only update: epoch bump ⇒ the next answer re-plans ...
        book_db.load_facts([Triple(ex("doi2"), RDF_TYPE, ex("Book"))])
        answers = _answers(answerer, query)
        assert ex("doi2") in {row[0] for row in answers}
        assert cache.plans.misses == plan_misses + 1
        # ... but the reformulation memo survived and served a hit.
        assert memo.invalidations == memo_invalidations
        assert memo.hits > 0

    def test_data_change_bumps_epoch_not_schema_fingerprint(self, book_db):
        fingerprint = book_db.schema.fingerprint()
        epoch = book_db.epoch
        snapshot = book_db.snapshot()
        book_db.load_facts([Triple(ex("doi3"), RDF_TYPE, ex("Book"))])
        assert book_db.epoch > epoch
        assert book_db.schema.fingerprint() == fingerprint
        assert book_db.snapshot().key == (fingerprint, snapshot.table.version + 1)

    def test_a_load_that_stores_nothing_new_keeps_every_cache(self, book_db):
        """Loading a row the table already holds is not a write: the
        snapshot stays, the plan cache hits, and neither derived store is
        rebuilt (the version used to move when rows were buffered)."""
        cache = QueryCache()
        answerer = make_answerer(book_db, cache=cache)
        query = BGPQuery([Variable("x")], [Triple(Variable("x"), RDF_TYPE, ex("Publication"))])
        for strategy in ("gcov", "saturation", "litemat"):
            _answers(answerer, query, strategy=strategy)
        saturation, litemat = (answerer.engine_for(s) for s in ("saturation", "litemat"))
        snapshot, hits = book_db.snapshot(), cache.plans.hits
        assert book_db.load_facts([Triple(ex("doi1"), RDF_TYPE, ex("Book"))]) == 1
        table = book_db.table
        table.add_encoded([tuple(int(code) for code in table.match((None, None, None))[0])])
        assert book_db.snapshot() == snapshot
        _answers(answerer, query, strategy="gcov")
        assert cache.plans.hits == hits + 1
        assert answerer.engine_for("saturation") is saturation
        assert answerer.engine_for("litemat") is litemat

    def test_saturated_baseline_tracks_mutations(self, book_db):
        answerer = make_answerer(book_db, cache=QueryCache())
        x = Variable("x")
        query = BGPQuery([x], [Triple(x, RDF_TYPE, ex("Publication"))])
        before = answerer.answer(query, strategy="saturation").answers
        assert ex("doi9") not in {row[0] for row in before}
        book_db.load_facts([Triple(ex("doi9"), RDF_TYPE, ex("Book"))])
        after = answerer.answer(query, strategy="saturation").answers
        assert ex("doi9") in {row[0] for row in after}
        # And a schema mutation also rebuilds the saturated store.
        book_db.schema.add_subclass(ex("Memo"), ex("Publication"))
        book_db.load_facts([Triple(ex("m1"), RDF_TYPE, ex("Memo"))])
        final = answerer.answer(query, strategy="saturation").answers
        assert ex("m1") in {row[0] for row in final}


# ----------------------------------------------------------------------
# LiteMat interval plans must never survive a re-encode (DESIGN.md §16)
# ----------------------------------------------------------------------
class TestLitematInvalidation:
    """The stale-range-scan regression suite.

    An interval atom hard-codes dictionary codes of one interval
    encoding.  Any mutation that re-encodes the derived store — every
    schema-constraint add/retract, and (conservatively) every data
    change — must drop the memoized interval plans: a stale ``[lo, hi)``
    over a re-laid-out dictionary would silently scan the wrong codes.
    """

    def _publications_query(self):
        x = Variable("x")
        return BGPQuery([x], [Triple(x, RDF_TYPE, ex("Publication"))])

    def test_schema_add_refreshes_interval_plans(self, book_db):
        answerer = make_answerer(book_db, cache=QueryCache())
        query = self._publications_query()
        before = _answers(answerer, query, strategy="litemat")
        assert ex("doi1") in {row[0] for row in before}
        # A new subclass widens Publication's interval; a stale range
        # scan would miss the report instance entirely.
        book_db.schema.add_subclass(ex("Report"), ex("Publication"))
        book_db.load_facts([Triple(ex("r1"), RDF_TYPE, ex("Report"))])
        after = _answers(answerer, query, strategy="litemat")
        assert ex("r1") in {row[0] for row in after}
        fresh = make_answerer(book_db)
        assert after == _answers(fresh, query, strategy="litemat")
        assert after == _answers(fresh, query, strategy="saturation")

    def test_schema_retract_refreshes_interval_plans(self, book_db):
        answerer = make_answerer(book_db, cache=QueryCache())
        query = self._publications_query()
        assert ex("doi1") in {
            row[0] for row in _answers(answerer, query, strategy="litemat")
        }
        book_db.schema.remove_subclass(ex("Book"), ex("Publication"))
        after = _answers(answerer, query, strategy="litemat")
        assert ex("doi1") not in {row[0] for row in after}
        fresh = make_answerer(book_db)
        assert after == _answers(fresh, query, strategy="saturation")

    def test_schema_mutation_moves_snapshot_and_misses_memo(self, book_db):
        answerer = make_answerer(book_db, cache=QueryCache())
        query = self._publications_query()
        _answers(answerer, query, strategy="litemat")
        reformulator = answerer.interval_reformulator
        assert len(reformulator.cache) > 0
        encoding, _store, snapshot = answerer.interval_assigner.current(book_db)
        runs_before = reformulator.runs
        book_db.schema.add_subclass(ex("Thesis"), ex("Publication"))
        _answers(answerer, query, strategy="litemat")
        moved, _store, moved_snapshot = answerer.interval_assigner.current(book_db)
        assert moved_snapshot.key == book_db.snapshot().key
        assert moved_snapshot.key[0] != snapshot.key[0]
        assert moved_snapshot.table.version == snapshot.table.version
        assert moved is not encoding
        assert reformulator.runs == runs_before + 1

    def test_data_write_keeps_encoding_epoch(self, book_db):
        """An insert-only write extends the derived store under the same
        encoding: the encoding object and the reformulation memo survive,
        and the engine — keyed on the whole snapshot, not on its schema
        part alone — is the one over the store with the new row."""
        answerer = make_answerer(book_db, cache=QueryCache())
        query = self._publications_query()
        _answers(answerer, query, strategy="litemat")
        encoding, _store, snapshot = answerer.interval_assigner.current(book_db)
        engine_before = answerer.engine_for("litemat")
        memo = answerer.interval_reformulator.cache
        hits_before, runs_before = memo.hits, answerer.interval_reformulator.runs
        book_db.load_facts([Triple(ex("doi4"), RDF_TYPE, ex("Book"))])
        after = _answers(answerer, query, strategy="litemat")
        kept, _store, moved = answerer.interval_assigner.current(book_db)
        assert moved.key[0] == snapshot.key[0]
        assert moved.table.version > snapshot.table.version
        assert ex("doi4") in {row[0] for row in after}
        assert kept is encoding
        assert answerer.engine_for("litemat") is not engine_before
        assert memo.hits == hits_before + 1
        assert answerer.interval_reformulator.runs == runs_before
        assert after == _answers(make_answerer(book_db), query, strategy="saturation")

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["subclass", "subproperty"]),
                st.booleans(),
                st.integers(0, 3),
                st.integers(0, 3),
                st.booleans(),
            ),
            max_size=14,
        )
    )
    def test_interval_layout_is_a_function_of_the_fingerprint(self, edits):
        """Why no encoding counter is needed next to the fingerprint: over
        random add/remove sequences of subclass and subproperty edges on
        a pre-declared vocabulary (self-loops and cycles included, a data
        write now and then), whenever the fingerprint returns to an
        earlier value the layout — ``leading_terms``, every term's
        ranges, the derived store's leading codes — returns with it."""
        classes = [ex(f"C{i}") for i in range(4)]
        properties = [ex(f"p{i}") for i in range(4)]
        schema = RDFSchema()
        for cls in classes:
            schema.declare_class(cls)
        for prop in properties:
            schema.declare_property(prop)
        database = RDFDatabase(schema=schema)
        database.load_facts([Triple(ex("s"), RDF_TYPE, classes[0])])
        seen = {}
        for step, (kind, add, sub, sup, write) in enumerate(edits):
            if kind == "subclass":
                edit = schema.add_subclass if add else schema.remove_subclass
                edit(classes[sub], classes[sup])
            else:
                edit = schema.add_subproperty if add else schema.remove_subproperty
                edit(properties[sub], properties[sup])
            if write:
                database.load_facts(
                    [Triple(ex(f"s{step}"), properties[sub], ex(f"o{step}"))]
                )
            encoding = IntervalEncoding.from_schema(schema)
            store = interval_encode_database(database).database
            layout = (
                encoding.leading_terms,
                [encoding.class_ranges(cls) for cls in classes],
                [encoding.property_ranges(prop) for prop in properties],
                [store.dictionary.lookup(term) for term in encoding.leading_terms],
            )
            assert seen.setdefault(schema.fingerprint(), layout) == layout, step


# ----------------------------------------------------------------------
# Statistics can never go stale (regression for the manual-invalidate bug)
# ----------------------------------------------------------------------
class TestStatisticsAutoInvalidation:
    def test_pattern_count_tracks_loads_without_manual_invalidate(self, book_db):
        type_code = book_db.dictionary.lookup(RDF_TYPE)
        book_code = book_db.dictionary.lookup(ex("Book"))
        pattern = (None, type_code, book_code)
        before = book_db.statistics.at(book_db.table.view).pattern_count(pattern)
        book_db.load_facts([Triple(ex("doi7"), RDF_TYPE, ex("Book"))])
        assert book_db.statistics.at(book_db.table.view).pattern_count(pattern) == before + 1

    def test_distinct_tracks_loads(self, book_db):
        type_code = book_db.dictionary.lookup(RDF_TYPE)
        pattern = (None, type_code, None)
        before = book_db.statistics.at(book_db.table.view).distinct(pattern, 0)
        book_db.load_facts(
            [Triple(ex(f"extra{i}"), RDF_TYPE, ex("Book")) for i in range(3)]
        )
        assert book_db.statistics.at(book_db.table.view).distinct(pattern, 0) == before + 3

    def test_sqlite_engine_reloads_on_mutation(self, book_db):
        from repro.engine import SQLiteEngine

        x = Variable("x")
        query = BGPQuery([x], [Triple(x, RDF_TYPE, ex("Book"))])
        with SQLiteEngine(book_db) as engine:
            before = engine.evaluate(query)
            book_db.load_facts([Triple(ex("doi8"), RDF_TYPE, ex("Book"))])
            after = engine.evaluate(query)
            assert ex("doi8") in {row[0] for row in after}
            assert len(after) == len(before) + 1
