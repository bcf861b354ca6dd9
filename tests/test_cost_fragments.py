"""Costing a cover by its fragments (DESIGN.md §19).

The estimator answers every UCQ-level question from a per-operand
summary memoized on operand identity, inside a record stamped with the
data part of the database snapshot.  What must hold, and is checked
here:

* a long-lived estimator prices any cover exactly (``==`` on floats)
  like a freshly constructed one — cold, warm, after a data update,
  after a schema update, and for an operand that is ``==`` but not
  ``is`` an earlier one;
* a value computed under data version *n* is never stored into the
  memos of version *n + 1* (the clear-then-stale-write race);
* an ``IdRange`` atom is counted by ``match_range_count`` through the
  same per-atom path as every other atom.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.cost import CardinalityEstimator, CostModel
from repro.datasets import build_lubm_database, lubm_workload, motivating_q1
from repro.query import BGPQuery, JUCQ, UCQ
from repro.rdf import RDF_TYPE, Triple, URI, Variable
from repro.rdf.terms import IdRange
from repro.reasoning import interval_encode_database
from repro.reformulation import enumerate_covers
from repro.reformulation.jucq import jucq_for_cover
from repro.reformulation.litemat import interval_reformulate
from repro.reformulation.reformulate import ReformulationLimitExceeded, Reformulator
from repro.storage import RDFDatabase

#: Covers with a fragment beyond this many union terms are left out.
TERM_LIMIT = 300
MAX_ATOMS = 4


def t(name: str) -> URI:
    return URI(f"http://cf/{name}")


@pytest.fixture(scope="module")
def world():
    """A private (mutated below) store, and every cheap valid cover on it."""
    database = build_lubm_database(universities=1, seed=0)
    bounded = Reformulator(database.schema, limit=TERM_LIMIT)
    pool = []
    for entry in [motivating_q1()] + list(lubm_workload()):
        if len(entry.query.body) > MAX_ATOMS:
            continue
        for cover in enumerate_covers(entry.query):
            try:
                jucq_for_cover(entry.query, cover, bounded, validate=False)
            except ReformulationLimitExceeded:
                continue
            pool.append((entry.query, cover))
    return SimpleNamespace(
        database=database,
        reformulator=Reformulator(database.schema),
        model=CostModel(database),  # the long-lived one
        pool=pool,
        edits=iter(range(10**6)),
    )


def _scan_volume(model: CostModel, jucq: JUCQ) -> int:
    return sum(model.estimator.ucq_scan_size(operand) for operand in jucq)


def _specialize(schema, atom: Triple, fresh: URI):
    """Add (and return the undo of) a constraint that widens ``atom``."""
    if atom.p == RDF_TYPE:
        schema.add_subclass(fresh, atom.o)
        return lambda: schema.remove_subclass(fresh, atom.o)
    schema.add_subproperty(fresh, atom.p)
    return lambda: schema.remove_subproperty(fresh, atom.p)


@settings(max_examples=30, deadline=None)
@given(choice=st.integers(min_value=0))
def test_long_lived_estimator_prices_covers_like_a_fresh_one(world, choice):
    query, cover = world.pool[choice % len(world.pool)]
    database, model = world.database, world.model
    edit = next(world.edits)

    def fresh_cost(jucq: JUCQ) -> float:
        return CostModel(database).cost(jucq)

    def plan() -> JUCQ:
        return jucq_for_cover(query, cover, world.reformulator, validate=False)

    jucq = plan()
    expected = fresh_cost(jucq)
    assert model.cost(jucq) == expected  # cold (or warm from an earlier example)
    assert model.cost(jucq) == expected  # warm
    assert model.jucq_cost(jucq).total == expected

    # Equal but not identical operands are summarized on their own.
    twin = JUCQ(
        jucq.head, [UCQ(list(u.cqs), name=u.name, head=u.head) for u in jucq]
    )
    assert twin == jucq and all(a is not b for a, b in zip(twin, jucq))
    assert model.cost(twin) == expected

    # A data update that changes a scanned count: one more match of the
    # query's first atom (its fragment's operand keeps the original term).
    scanned = _scan_volume(model, jucq)
    grounded = Triple(
        *(
            t(f"n{edit}-{term.value}") if isinstance(term, Variable) else term
            for term in query.body[0]
        )
    )
    assert database.load_facts([grounded]) == 1
    assert _scan_volume(model, jucq) > scanned
    assert model.cost(jucq) == fresh_cost(jucq)
    assert model.cost(twin) == fresh_cost(twin)

    # A schema update that changes a fragment's reformulation: new
    # operands, hence new keys, while the old ones still price the same.
    constant_atom = next(
        atom
        for atom in query.body
        if not isinstance(atom.p, Variable)
        and not (atom.p == RDF_TYPE and isinstance(atom.o, Variable))
    )
    undo = _specialize(database.schema, constant_atom, t(f"narrower{edit}"))
    try:
        replanned = plan()
        assert replanned.total_union_terms() > jucq.total_union_terms()
        assert model.cost(replanned) == fresh_cost(replanned)
        assert model.cost(jucq) == fresh_cost(jucq)
    finally:
        undo()
    assert model.cost(plan()) == fresh_cost(plan())


def test_transient_operands_never_alias_through_a_recycled_id(world):
    """Identity keys are only sound while the keyed object is alive.

    CPython hands a dead object's address to the next allocation of the
    same size, so a memo keyed on a bare ``id`` would answer a new
    operand with a dead one's summary; the entry holds its operand.
    """
    database, estimator = world.database, world.model.estimator
    x, y = Variable("x"), Variable("y")
    properties = sorted(database.schema.properties, key=str)[:12]
    assert len(properties) > 3
    for prop in properties * 3:
        operand = UCQ([BGPQuery([x], [Triple(x, prop, y)])])
        fresh = CardinalityEstimator(database)
        assert estimator.operand_summary(operand) == fresh.operand_summary(operand)
        del operand


def test_a_value_computed_under_the_old_epoch_is_not_served_under_the_new(monkeypatch):
    """The table's count moves between a computation and its store.

    The first count asked of the table is read under the old data
    version; before it is handed back, a writer adds a matching triple
    and *another worker* asks the same estimator something, moving the
    statistics and the estimator to the new version.  The caller then
    finishes its computation from the stale count and stores the result
    — into both layers' old records, which nobody reads again.
    """
    x, y = Variable("x"), Variable("y")
    database = RDFDatabase()
    database.load_facts(
        [Triple(t(f"s{i}"), t("p"), t(f"o{i}")) for i in range(4)]
        + [Triple(t("a"), t("q"), t("b"))]
    )
    query = BGPQuery([x, y], [Triple(x, t("p"), y)])
    other = BGPQuery([x, y], [Triple(x, t("q"), y)])
    estimator = CardinalityEstimator(database)
    real = database.table.match_count
    race = [
        lambda: database.load_facts([Triple(t("s9"), t("p"), t("o9"))]),
        lambda: estimator.cq_cardinality(other),
    ]

    def racing(pattern):
        stale = real(pattern)
        while race:
            race.pop(0)()
        return stale

    monkeypatch.setattr(database.table, "match_count", racing)
    snapshot = database.snapshot()
    assert estimator.cq_cardinality(query) == 4.0  # computed from the stale count
    assert database.snapshot().data > snapshot.data
    assert estimator.cq_cardinality(query) == 5.0
    assert estimator.atom_count(query.body[0]) == 5
    assert estimator.ucq_scan_size(UCQ([query])) == 5


def test_id_range_atoms_are_counted_by_range_scan_on_the_shared_atom_path(
    lubm_db, monkeypatch
):
    encoding, store, _base_keys, _remap = interval_encode_database(lubm_db)
    x = Variable("x")
    professor = URI("http://swat.cse.lehigh.edu/onto/univ-bench.owl#Professor")
    plan = interval_reformulate(
        BGPQuery([x], [Triple(x, RDF_TYPE, professor)]), lubm_db.schema, encoding
    )
    ranged = [a for cq in plan for a in cq.body if isinstance(a.o, IdRange)]
    assert ranged, "Professor has subclasses: its closure is an interval"
    calls = []
    real = store.table.match_range_count

    def counting(pattern, position, lo, hi):
        calls.append((pattern, position, lo, hi))
        return real(pattern, position, lo, hi)

    monkeypatch.setattr(store.table, "match_range_count", counting)
    estimator = CardinalityEstimator(store)
    atom = ranged[0]
    pattern = estimator.atom_pattern(atom)
    assert pattern is not None and pattern[2] is None
    rows = store.table.match_range(pattern, 2, atom.o.lo, atom.o.hi)
    assert estimator.atom_count(atom) == rows.shape[0] > 0
    assert calls == [(pattern, 2, atom.o.lo, atom.o.hi)]
    # Every other question about the atom reads the same statistics.
    assert estimator.cq_scan_size(BGPQuery([x], [atom])) == rows.shape[0]
    assert estimator.ucq_scan_size(plan) == sum(
        estimator.atom_count(a) for cq in plan for a in cq.body
    )
    assert estimator.atom_distinct(atom, x) >= len({int(s) for s in rows[:, 0]})
    assert len(calls) == len(ranged)
