"""One snapshot keys all derived state: a stateful oracle (DESIGN.md §9).

Every cache and derived store is stamped with ``RDFDatabase.snapshot()``
or one of its parts: the plan cache, the reformulation and interval
memos, the estimator records, the SQLite mirror, the saturated store
and the interval-encoded store.  Theorem 3.1 must hold
after any mix of writes and schema edits, so a hypothesis state machine
(grown from ``tests/test_derived_maintenance.py``) interleaves

* insert batches mixing fresh and already-stored rows,
* additions and retractions of all four constraint kinds over a
  vocabulary declared up front (self-loops and cycles included),

and after every step holds all seven strategies on both the native and
the SQLite engine, for five queries, to ``repro.query.naive.evaluate``
over a saturation built from scratch.  That check also warms every
cache and store, so the next write or edit always meets them warm: a
cached answerer that reuses a plan, a memo or a store past its snapshot
answers from a state that no longer exists, and the check sees it.
(Keying the ``pruned-ucq`` plan on the schema alone, dropping the data
part from either derived-store key, or the schema part from a
reformulation memo key each fails it.)  SQLite's compound-SELECT limit
is the only failure tolerated, as in ``TestLitematSweeps``.

A plan is keyed on what it reads, so after every data-only write the
``ucq``, ``scq`` and ``litemat`` plans served are the very objects
served before it: a carried plan answers like a fresh one.

An answer reads one snapshot, taken at its door, so two more steps land
a change *inside* one answer and hold it to the state at the door:

* a merge through a scan hook, between two scans of one native
  evaluation (on SQLite, between the evaluation's door and its
  statement): the answer must *equal* the door's, not merely be
  contained in the state after the write;
* a schema edit inside one reformulation (after its memo lookup, before
  its union is built), retracted after the answer: the answer is the
  original schema's, and the memo holds no entry built from the edited
  schema.

Two plain tests replay the two torn states these steps first exposed,
on every strategy and both engines.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from oracle import make_answerer
from repro.answering import STRATEGIES
from repro.cache import QueryCache
from repro.cache.lru import LRUCache
from repro.engine import EngineFailure, SQLiteEngine
from repro.query import BGPQuery, UCQ
from repro.query.naive import evaluate
from repro.rdf import RDF_TYPE, RDFSchema, Triple, URI, Variable
from repro.rdf.vocabulary import RDFS_DOMAIN, RDFS_RANGE, RDFS_SUBCLASS, RDFS_SUBPROPERTY
from repro.reasoning import saturate
from repro.reformulation import Reformulator
from repro.storage import RDFDatabase

evaluator = sys.modules["repro.engine.evaluator"]
reformulate_module = sys.modules["repro.reformulation.reformulate"]
ENGINES = ("native", "sqlite")
#: The strategies whose plans are reformulated through ``Reformulator``.
REFORMULATING = ("ucq", "pruned-ucq", "scq", "ecov", "gcov")
#: The strategies whose plans read the schema alone.
SCHEMA_PLANS = ("ucq", "scq", "litemat")


def ex(name: str) -> URI:
    return URI(f"http://snapshot/{name}")


CLASSES = [ex(f"C{i}") for i in range(4)]
PROPERTIES = [ex(f"p{i}") for i in range(4)]
INDIVIDUALS = [ex(f"i{i}") for i in range(5)]
#: constraint property -> (subject vocabulary, object vocabulary)
KINDS = {
    RDFS_SUBCLASS: (CLASSES, CLASSES),
    RDFS_SUBPROPERTY: (PROPERTIES, PROPERTIES),
    RDFS_DOMAIN: (PROPERTIES, CLASSES),
    RDFS_RANGE: (PROPERTIES, CLASSES),
}
SEED_SCHEMA = [
    Triple(CLASSES[1], RDFS_SUBCLASS, CLASSES[0]),
    Triple(CLASSES[2], RDFS_SUBCLASS, CLASSES[1]),
    Triple(PROPERTIES[1], RDFS_SUBPROPERTY, PROPERTIES[0]),
    Triple(PROPERTIES[0], RDFS_DOMAIN, CLASSES[3]),
    Triple(PROPERTIES[2], RDFS_RANGE, CLASSES[1]),
]
SEED_FACTS = [
    Triple(INDIVIDUALS[0], RDF_TYPE, CLASSES[2]),
    Triple(INDIVIDUALS[1], PROPERTIES[1], INDIVIDUALS[2]),
    Triple(INDIVIDUALS[3], PROPERTIES[2], INDIVIDUALS[4]),
]

x, y, c = Variable("x"), Variable("y"), Variable("c")
QUERIES = [
    BGPQuery([x], [Triple(x, RDF_TYPE, CLASSES[0])], name="type"),
    BGPQuery([x, y], [Triple(x, PROPERTIES[0], y)], name="property"),
    BGPQuery([x, y], [Triple(x, PROPERTIES[3], y), Triple(y, RDF_TYPE, CLASSES[1])], name="join"),
    BGPQuery([x], [Triple(x, RDF_TYPE, CLASSES[3]), Triple(x, PROPERTIES[2], y)], name="typed"),
    BGPQuery([x, c], [Triple(x, RDF_TYPE, c), Triple(x, PROPERTIES[1], y)], name="classes"),
]

FACTS = st.one_of(
    st.builds(
        lambda s, cls: Triple(INDIVIDUALS[s], RDF_TYPE, CLASSES[cls]),
        st.integers(0, len(INDIVIDUALS) - 1),
        st.integers(0, len(CLASSES) - 1),
    ),
    st.builds(
        lambda s, p, o: Triple(INDIVIDUALS[s], PROPERTIES[p], INDIVIDUALS[o]),
        st.integers(0, len(INDIVIDUALS) - 1),
        st.integers(0, len(PROPERTIES) - 1),
        st.integers(0, len(INDIVIDUALS) - 1),
    ),
)
#: SQLite's compile-time cap on a compound SELECT: the paper's "giant
#: UCQs break the RDBMS", an engine limit rather than a wrong answer.
SQLITE_LIMIT = "too many terms in compound SELECT"


@contextmanager
def write_between_scans(database, engine, rows):
    """Merge ``rows`` into ``database`` inside the next evaluation: on the
    native engine right before its second scan, on SQLite right before
    its statement runs.  Yields a list that is non-empty once it landed."""
    landed = []

    def write():
        if not landed:
            landed.append(True)
            database.load_facts(rows)

    if engine == "sqlite":
        execute = SQLiteEngine.execute_sql

        def hooked(self, *args, **kwargs):
            write()
            return execute(self, *args, **kwargs)

        patch = mock.patch.object(SQLiteEngine, "execute_sql", hooked)
    else:
        scan, scans = evaluator.match_pattern, []

        def hooked(*args, **kwargs):
            if scans:
                write()
            scans.append(args[0])
            return scan(*args, **kwargs)

        patch = mock.patch.object(evaluator, "match_pattern", hooked)
    with patch:
        yield landed


@contextmanager
def edit_inside_reformulation(schema, memo, edit):
    """Assert ``edit`` on ``schema`` once, inside the next reformulation:
    right after its lookup in ``memo`` missed, before its union is built.
    Yields the list of every query reformulated meanwhile."""
    lookup, factors = LRUCache.get, reformulate_module._Factors.__init__
    reformulated = []

    def get(self, key, default=None):
        value = lookup(self, key, default)
        if self is memo and value is default and not reformulated:
            schema.add_triple(edit)
        return value

    def build(self, query, schema_value):
        reformulated.append(query)
        factors(self, query, schema_value)

    with (
        mock.patch.object(LRUCache, "get", get),
        mock.patch.object(reformulate_module._Factors, "__init__", build),
    ):
        yield reformulated


def assert_memo_is_of(reformulator, schema, queries):
    """Every union memoized for ``queries`` under ``schema``'s fingerprint
    is the union of ``schema`` itself."""
    fresh = Reformulator(schema)
    for query in queries:
        held = reformulator.cache.peek((schema.fingerprint(), query.canonical()))
        if isinstance(held, UCQ):
            assert held == fresh.reformulate(query), query


class SnapshotMachine(RuleBasedStateMachine):
    """One database, a cached answerer per engine, and the oracle."""

    def __init__(self):
        super().__init__()
        schema = RDFSchema()
        for cls in CLASSES:
            schema.declare_class(cls)
        for prop in PROPERTIES:
            schema.declare_property(prop)
        for triple in SEED_SCHEMA:
            schema.add_triple(triple)
        self.database = RDFDatabase(schema=schema)
        self.database.load_facts(SEED_FACTS)
        self.sqlite = SQLiteEngine(self.database)
        self.answerers = {
            "native": make_answerer(self.database, cache=QueryCache()),
            "sqlite": make_answerer(self.database, engine=self.sqlite, cache=QueryCache()),
        }
        #: (engine, strategy, query name) -> the schema plan served last.
        self.served = {}
        #: Set by a step that wrote data and edited no schema.
        self.wrote_data_only = False

    def teardown(self):
        for answerer in self.answerers.values():
            answerer.close()
        self.sqlite.close()

    def _oracle(self, query):
        return evaluate(query, saturate(self.database.facts_graph(), self.database.schema))

    def _answer(self, engine, query, strategy):
        """The answers, or None past SQLite's compound-SELECT limit."""
        try:
            return self.answerers[engine].answer(query, strategy=strategy).answers
        except EngineFailure as error:
            if engine == "sqlite" and SQLITE_LIMIT in str(error):
                return None
            raise

    @rule(
        fresh=st.lists(FACTS, min_size=1, max_size=4),
        stored=st.lists(st.integers(min_value=0), max_size=3),
    )
    def insert(self, fresh, stored):
        held = sorted(self.database.facts_graph(), key=str)
        self.database.load_facts(fresh + [held[i % len(held)] for i in stored])
        self.wrote_data_only = True

    @rule(
        kind=st.sampled_from(sorted(KINDS, key=str)),
        sub=st.integers(0, 3),
        sup=st.integers(0, 3),
    )
    def add_constraint(self, kind, sub, sup):
        subjects, objects = KINDS[kind]
        self.database.schema.add_triple(Triple(subjects[sub], kind, objects[sup]))

    @precondition(lambda self: len(self.database.schema) > 0)
    @rule(data=st.data())
    def retract_constraint(self, data):
        asserted = sorted(self.database.schema.to_triples(), key=str)
        assert self.database.schema.remove_triple(data.draw(st.sampled_from(asserted)))

    @rule(
        fresh=st.lists(FACTS, min_size=1, max_size=4),
        query=st.sampled_from(QUERIES),
        strategy=st.sampled_from(STRATEGIES),
        engine=st.sampled_from(ENGINES),
    )
    def write_inside_an_evaluation(self, fresh, query, strategy, engine):
        """A merge lands between two scans of one evaluation: the answer
        is the state's at the answer's door, equal and not a subset."""
        expected = self._oracle(query)
        with write_between_scans(self.database, engine, fresh) as landed:
            answers = self._answer(engine, query, strategy)
        if not landed:
            self.database.load_facts(fresh)
        self.wrote_data_only = True
        if answers is not None:
            assert answers == expected, (engine, strategy, query.name)

    @rule(
        kind=st.sampled_from(sorted(KINDS, key=str)),
        sub=st.integers(0, 3),
        sup=st.integers(0, 3),
        query=st.sampled_from(QUERIES),
        strategy=st.sampled_from(REFORMULATING),
    )
    def edit_inside_a_reformulation(self, kind, sub, sup, query, strategy):
        """A schema edit lands inside one reformulation of a cold memo and
        is retracted after the answer: the answer is the original
        schema's, and no memo entry was built from the edited one."""
        subjects, objects = KINDS[kind]
        edit = Triple(subjects[sub], kind, objects[sup])
        schema = self.database.schema
        if edit in set(schema.to_triples()):
            return
        expected = self._oracle(query)
        answerer = self.answerers["native"]
        answerer.cache.clear()
        memo = answerer.reformulator.cache
        with edit_inside_reformulation(schema, memo, edit) as reformulated:
            answers = answerer.answer(query, strategy=strategy).answers
        assert schema.remove_triple(edit) == bool(reformulated)
        assert answers == expected, (strategy, query.name, edit)
        assert_memo_is_of(answerer.reformulator, schema, reformulated)

    @invariant()
    def every_strategy_and_engine_matches_the_oracle(self):
        """Checked after every step, so each write and edit meets caches
        that the previous check warmed under the state before it."""
        graph = saturate(self.database.facts_graph(), self.database.schema)
        for query in QUERIES:
            expected = evaluate(query, graph)
            for engine, answerer in self.answerers.items():
                for strategy in STRATEGIES:
                    answers = self._answer(engine, query, strategy)
                    if answers is not None:
                        assert answers == expected, (engine, strategy, query.name)
                for strategy in SCHEMA_PLANS:
                    planned, _ = answerer.plan(query, strategy)
                    key = (engine, strategy, query.name)
                    if self.wrote_data_only:
                        assert planned is self.served[key], key
                    self.served[key] = planned
        self.wrote_data_only = False


def _run(max_examples, steps, **extra):
    run_state_machine_as_test(
        SnapshotMachine,
        settings=settings(
            max_examples=max_examples,
            stateful_step_count=steps,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow],
            **extra,
        ),
    )


def test_every_strategy_and_engine_matches_the_oracle_through_writes_and_edits():
    _run(max_examples=30, steps=14, derandomize=True)


@pytest.mark.slow
def test_every_strategy_and_engine_matches_the_oracle_longer_runs():
    _run(max_examples=300, steps=30)


#: The two torn states: ``q(x, y) :- x type A, x p y`` under ``B ⊑ A``
#: with ``{n type B, n p j1, i0 p j2}`` written inside the evaluation,
#: and ``x type A`` with ``C ⊑ A`` asserted inside the reformulation.
A, B, C = CLASSES[:3]
P = PROPERTIES[0]
I0, I1, N = INDIVIDUALS[:3]
J0, J1, J2 = (ex(f"j{i}") for i in range(3))
TYPED = BGPQuery([x, y], [Triple(x, RDF_TYPE, A), Triple(x, P, y)], name="typed-p")
OF_A = BGPQuery([x], [Triple(x, RDF_TYPE, A)], name="of-A")


def torn_state_database():
    schema = RDFSchema()
    schema.add_subclass(B, A)
    schema.declare_class(C)
    database = RDFDatabase(schema=schema)
    database.load_facts(
        [Triple(I0, RDF_TYPE, A), Triple(I0, P, J0), Triple(I1, RDF_TYPE, C)]
    )
    return database


@contextmanager
def torn_state_answerer(engine):
    database = torn_state_database()
    sqlite = SQLiteEngine(database) if engine == "sqlite" else None
    answerer = make_answerer(database, engine=sqlite, cache=QueryCache())
    try:
        yield database, answerer
    finally:
        answerer.close()
        if sqlite is not None:
            sqlite.close()


@pytest.mark.parametrize("engine", ENGINES)
def test_a_write_inside_an_evaluation_is_not_seen_by_it(engine):
    """Every strategy, on both engines: the write lands inside the
    evaluation and the answer is ``{(i0, j0)}``, the state at its door,
    not the torn ``{(i0, j0), (i0, j2)}``; the next answer sees it."""
    write = [Triple(N, RDF_TYPE, B), Triple(N, P, J1), Triple(I0, P, J2)]
    for strategy in STRATEGIES:
        with torn_state_answerer(engine) as (database, answerer):
            with write_between_scans(database, engine, write) as landed:
                answers = answerer.answer(TYPED, strategy=strategy).answers
            assert landed, strategy
            assert answers == {(I0, J0)}, strategy
            after = answerer.answer(TYPED, strategy=strategy).answers
            assert after == {(I0, J0), (I0, J2), (N, J1)}, strategy


@pytest.mark.parametrize("strategy", REFORMULATING)
def test_an_edit_inside_a_reformulation_is_not_seen_by_it(strategy):
    """``C ⊑ A`` lands after the memo lookup of ``x type A`` and before
    its union is built, and is retracted after the answer: that answer
    and every later one are the original schema's (``i1 : C`` is not an
    ``A``), and the memo holds only the original schema's unions."""
    with torn_state_answerer("native") as (database, answerer):
        edit = Triple(C, RDFS_SUBCLASS, A)
        memo = answerer.reformulator.cache
        with edit_inside_reformulation(database.schema, memo, edit) as reformulated:
            answers = answerer.answer(OF_A, strategy=strategy).answers
        assert database.schema.remove_triple(edit)
        assert answers == {(I0,)}
        assert answerer.answer(OF_A, strategy=strategy).answers == answers
        assert_memo_is_of(answerer.reformulator, database.schema, reformulated)


def test_a_sqlite_mirror_ahead_of_a_reader_reloads_at_its_view():
    """A thread's in-memory mirror already holds a newer version than the
    snapshot it is next handed: it is rebuilt from that snapshot's view,
    so the answer is the older state's, and the next newer read is exact."""
    database = torn_state_database()
    with SQLiteEngine(database) as engine:
        older = database.snapshot()
        database.load_facts([Triple(N, RDF_TYPE, A), Triple(N, P, J1)])
        newer = database.snapshot()
        assert engine.evaluate(TYPED, snapshot=newer) == {(I0, J0), (N, J1)}
        assert engine.evaluate(TYPED, snapshot=older) == {(I0, J0)}
        assert engine.evaluate(TYPED) == {(I0, J0), (N, J1)}
