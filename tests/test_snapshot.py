"""One snapshot keys all derived state: a stateful oracle (DESIGN.md §9).

Every cache and derived store is stamped with ``RDFDatabase.snapshot()``
or one of its parts: the plan cache, the reformulation and interval
memos, the statistics and estimator records, the SQLite mirror, the
saturated store and the interval-encoded store.  Theorem 3.1 must hold
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
(Dropping the data part from the plan key, from either derived-store
key, or the schema part from a reformulation memo key each fails it.)
SQLite's compound-SELECT limit is the only failure tolerated, as in
``TestLitematSweeps``.
"""

from __future__ import annotations

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
from repro.engine import EngineFailure, SQLiteEngine
from repro.query import BGPQuery
from repro.query.naive import evaluate
from repro.rdf import RDF_TYPE, RDFSchema, Triple, URI, Variable
from repro.rdf.vocabulary import RDFS_DOMAIN, RDFS_RANGE, RDFS_SUBCLASS, RDFS_SUBPROPERTY
from repro.reasoning import saturate
from repro.storage import RDFDatabase


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

    def teardown(self):
        for answerer in self.answerers.values():
            answerer.close()
        self.sqlite.close()

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

    @invariant()
    def every_strategy_and_engine_matches_the_oracle(self):
        """Checked after every step, so each write and edit meets caches
        that the previous check warmed under the state before it."""
        graph = saturate(self.database.facts_graph(), self.database.schema)
        for query in QUERIES:
            expected = evaluate(query, graph)
            for engine in self.answerers:
                for strategy in STRATEGIES:
                    answers = self._answer(engine, query, strategy)
                    if answers is not None:
                        assert answers == expected, (engine, strategy, query.name)


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
