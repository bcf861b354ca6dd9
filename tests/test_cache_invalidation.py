"""Cache invalidation under schema and data mutation (DESIGN.md §9).

The invalidation matrix under test:

=====================  ==============  ==========================
update                 reformulations  plans
=====================  ==============  ==========================
data (insert)          survive         new key if the plan reads it
schema (constraints)   new key         new key
=====================  ==============  ==========================

Every key is built from ``RDFDatabase.snapshot()`` or one of its parts.
A plan is keyed on the part it reads: ``ucq``, ``scq`` and ``litemat``
on the schema, ``gcov`` and ``ecov`` on the schema and the table's
statistics generation, ``pruned-ucq`` on the whole snapshot.

Each schema mutation kind (add/remove × subclass/subproperty/domain/
range) must (a) change the answers when it semantically should, and
(b) never let a stale cached reformulation or plan leak through — the
cached answerer is differentially checked against a *fresh* answerer
after every mutation.  Data-only changes must keep reformulations and
every plan that does not read the data warm, and re-plan the rest.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import differential_check, make_answerer
from repro.answering.strategies import STRATEGY_TABLE, Strategy
from repro.cache import MISSING, QueryCache
from repro.cache.manager import PLAN_READS, statistics_generation
from repro.query import BGPQuery
from repro.rdf import RDF_TYPE, RDFSchema, Triple, URI, Variable
from repro.reasoning.encoded import Layout, derive
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
# Data-only mutations keep reformulations and the plans that do not read
# the data
# ----------------------------------------------------------------------
class TestDataMutations:
    def test_data_change_keeps_reformulations_and_ucq_plan(self, book_db):
        cache = QueryCache()
        answerer = make_answerer(book_db, cache=cache)
        x = Variable("x")
        query = BGPQuery([x], [Triple(x, RDF_TYPE, ex("Publication"))])
        _answers(answerer, query)
        _answers(answerer, query, strategy="pruned-ucq")
        memo = answerer.reformulator.cache
        memo_invalidations = memo.invalidations
        plan_misses = cache.plans.misses
        plan_hits = cache.plans.hits
        # Warm repeat: plan hit, no new miss.
        _answers(answerer, query)
        assert cache.plans.hits == plan_hits + 1
        assert cache.plans.misses == plan_misses
        # Data-only update: a ucq plan reads the schema alone, so the
        # next answer is a plan hit and sees the new row ...
        book_db.load_facts([Triple(ex("doi2"), RDF_TYPE, ex("Book"))])
        answers = _answers(answerer, query)
        assert ex("doi2") in {row[0] for row in answers}
        assert cache.plans.hits == plan_hits + 2
        assert cache.plans.misses == plan_misses
        # ... while pruned-ucq, which reads the data, re-plans, and its
        # reformulation is served from the memo rather than recomputed.
        runs, memo_hits = answerer.reformulator.runs, memo.hits
        answers = _answers(answerer, query, strategy="pruned-ucq")
        assert ex("doi2") in {row[0] for row in answers}
        assert cache.plans.misses == plan_misses + 1
        assert answerer.reformulator.runs == runs
        assert memo.hits > memo_hits
        assert memo.invalidations == memo_invalidations
        _check_against_fresh(answerer, query, "data_write")

    def test_data_change_bumps_epoch_not_schema_fingerprint(self, book_db):
        """A data write moves the table version (once called the epoch)
        and leaves the schema fingerprint."""
        fingerprint = book_db.schema.fingerprint()
        snapshot = book_db.snapshot()
        book_db.load_facts([Triple(ex("doi3"), RDF_TYPE, ex("Book"))])
        assert book_db.snapshot().table.version > snapshot.table.version
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
# A plan is keyed on the part of the snapshot it reads
# ----------------------------------------------------------------------
#: The strategies whose plans go through the plan cache.
PLANNED = tuple(name for name, row in STRATEGY_TABLE.items() if row.rewrite is not None)


def _padded_database(book_schema, book_facts, rows=200) -> RDFDatabase:
    """The book database plus ``rows`` filler facts, large enough that a
    write of a row or two stays inside one statistics generation."""
    database = _book_database(book_schema, book_facts)
    database.load_facts(
        [Triple(ex(f"f{i}"), ex("filler"), ex("o")) for i in range(rows)]
    )
    return database


def _generation(database) -> int:
    return statistics_generation(database.snapshot().table.count)


class TestPlanKeys:
    def _query(self):
        x, y = Variable("x"), Variable("y")
        return BGPQuery(
            [x], [Triple(x, RDF_TYPE, ex("Publication")), Triple(x, ex("hasAuthor"), y)]
        )

    def _missed(self, answerer, query):
        """Per planned strategy: did its next answer miss the plan cache?"""
        plans = answerer.cache.plans
        missed = {}
        for strategy in PLANNED:
            before = plans.misses
            _answers(answerer, query, strategy=strategy)
            missed[strategy] = plans.misses > before
        return missed

    def _assert_all_agree(self, answerer, query):
        fresh = make_answerer(answerer.database)
        expected = _answers(fresh, query, strategy="saturation")
        for strategy in PLANNED:
            assert _answers(answerer, query, strategy=strategy) == expected, strategy
        return expected

    def test_a_write_inside_one_generation_replans_only_pruned_ucq(
        self, book_schema, book_facts
    ):
        database = _padded_database(book_schema, book_facts)
        answerer = make_answerer(database, cache=QueryCache())
        query = self._query()
        assert all(self._missed(answerer, query).values())
        generation = _generation(database)
        database.load_facts(
            [
                Triple(ex("doi5"), RDF_TYPE, ex("Book")),
                Triple(ex("doi5"), ex("writtenBy"), ex("b2")),
            ]
        )
        assert _generation(database) == generation
        assert self._missed(answerer, query) == {
            strategy: strategy == "pruned-ucq" for strategy in PLANNED
        }
        assert ex("doi5") in {row[0] for row in self._assert_all_agree(answerer, query)}

    def test_a_load_that_moves_the_generation_replans_the_cost_chosen_covers(
        self, book_schema, book_facts
    ):
        database = _padded_database(book_schema, book_facts)
        answerer = make_answerer(database, cache=QueryCache())
        query = self._query()
        self._missed(answerer, query)
        generation = _generation(database)
        database.load_facts(
            [Triple(ex(f"g{i}"), ex("filler"), ex("o")) for i in range(30)]
        )
        assert _generation(database) > generation
        assert self._missed(answerer, query) == {
            strategy: strategy in ("pruned-ucq", "ecov", "gcov") for strategy in PLANNED
        }
        self._assert_all_agree(answerer, query)

    def test_a_schema_edit_replans_every_strategy(self, book_schema, book_facts):
        database = _padded_database(book_schema, book_facts)
        answerer = make_answerer(database, cache=QueryCache())
        query = self._query()
        self._missed(answerer, query)
        database.schema.add_subclass(ex("Report"), ex("Publication"))
        database.load_facts(
            [
                Triple(ex("r1"), RDF_TYPE, ex("Report")),
                Triple(ex("r1"), ex("hasAuthor"), ex("b1")),
            ]
        )
        assert all(self._missed(answerer, query).values())
        assert ex("r1") in {row[0] for row in self._assert_all_agree(answerer, query)}

    def test_a_misspelled_reads_fails_at_construction(self):
        assert {row.reads for row in STRATEGY_TABLE.values()} == set(PLAN_READS)
        with pytest.raises(ValueError, match="statistic"):
            Strategy("typo", "statistic")

    def test_pruned_ucq_sees_a_term_a_write_filled(self, book_db):
        """``x type Report`` is empty at v, so pruning drops its term; the
        write at v+1 fills it, and the answer there holds the new row: a
        pruned plan must not outlive the data it read."""
        book_db.schema.add_subclass(ex("Report"), ex("Publication"))
        answerer = make_answerer(book_db, cache=QueryCache())
        x = Variable("x")
        query = BGPQuery([x], [Triple(x, RDF_TYPE, ex("Publication"))])
        pruned, _ = answerer.plan(query, "pruned-ucq")
        full, _ = answerer.plan(query, "ucq")
        assert pruned.total_union_terms() < full.total_union_terms()
        before = _answers(answerer, query, "pruned-ucq")
        assert ex("r1") not in {row[0] for row in before}
        book_db.load_facts([Triple(ex("r1"), RDF_TYPE, ex("Report"))])
        after = _answers(answerer, query, "pruned-ucq")
        assert ex("r1") in {row[0] for row in after}


# ----------------------------------------------------------------------
# LiteMat interval plans must never survive a re-encode (DESIGN.md §16)
# ----------------------------------------------------------------------
class TestLitematInvalidation:
    """The stale-range-scan regression suite.

    An interval atom hard-codes dictionary codes of one interval
    encoding.  Any mutation that re-encodes the derived store — every
    schema-constraint add/retract — must miss the memoized interval
    plans: a stale ``[lo, hi)`` over a re-laid-out dictionary would
    silently scan the wrong codes.  A data write keeps them, because
    the layout is a function of the schema fingerprint.
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
        """The plan cache is the memo of interval plans: a schema edit
        re-keys the plan, so the next answer plans again."""
        cache = QueryCache()
        answerer = make_answerer(book_db, cache=cache)
        query = self._publications_query()
        _answers(answerer, query, strategy="litemat")
        assert cache.get_plan(book_db, query, "litemat") is not MISSING
        encoding, _store, snapshot = answerer.interval_assigner.current(book_db)
        hits_before, misses_before = cache.plans.hits, cache.plans.misses
        book_db.schema.add_subclass(ex("Thesis"), ex("Publication"))
        _answers(answerer, query, strategy="litemat")
        moved, _store, moved_snapshot = answerer.interval_assigner.current(book_db)
        assert moved_snapshot.key == book_db.snapshot().key
        assert moved_snapshot.key[0] != snapshot.key[0]
        assert moved_snapshot.table.version == snapshot.table.version
        assert moved is not encoding
        assert cache.plans.misses == misses_before + 1
        assert cache.plans.hits == hits_before

    def test_data_write_keeps_encoding_epoch(self, book_db):
        """An insert-only write extends the derived store under the same
        encoding: the encoding object survives, the plan embedding its
        codes is a plan-cache hit, and the engine — keyed on the whole
        snapshot, not on its schema part alone — is the one over the
        store with the new row."""
        cache = QueryCache()
        answerer = make_answerer(book_db, cache=cache)
        query = self._publications_query()
        _answers(answerer, query, strategy="litemat")
        encoding, _store, snapshot = answerer.interval_assigner.current(book_db)
        engine_before = answerer.engine_for("litemat")
        plan_hits, plan_misses = cache.plans.hits, cache.plans.misses
        book_db.load_facts([Triple(ex("doi4"), RDF_TYPE, ex("Book"))])
        after = _answers(answerer, query, strategy="litemat")
        kept, _store, moved = answerer.interval_assigner.current(book_db)
        assert moved.key[0] == snapshot.key[0]
        assert moved.table.version > snapshot.table.version
        assert ex("doi4") in {row[0] for row in after}
        assert kept is encoding
        assert answerer.engine_for("litemat") is not engine_before
        assert cache.plans.hits == plan_hits + 1
        assert cache.plans.misses == plan_misses
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
            store = derive(database, Layout.INTERVALS).database
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
        before = book_db.table.view.pattern_count(pattern)
        book_db.load_facts([Triple(ex("doi7"), RDF_TYPE, ex("Book"))])
        assert book_db.table.view.pattern_count(pattern) == before + 1

    def test_distinct_tracks_loads(self, book_db):
        type_code = book_db.dictionary.lookup(RDF_TYPE)
        pattern = (None, type_code, None)
        before = book_db.table.view.distinct(pattern, 0)
        book_db.load_facts(
            [Triple(ex(f"extra{i}"), RDF_TYPE, ex("Book")) for i in range(3)]
        )
        assert book_db.table.view.distinct(pattern, 0) == before + 3

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
