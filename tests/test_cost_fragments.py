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
  same per-atom path as every other atom;
* across writes, each new view gets an empty record, and every entry
  of the records and of the views' count memos holds exactly what a
  raw probe of its own view returns.
"""

from __future__ import annotations

import random
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from oracle import assert_memos_match_fresh_probes
from repro.cost import CardinalityEstimator, CostModel
from repro.datasets import (
    build_lubm_database,
    department_uri,
    lubm_workload,
    motivating_q1,
    ub,
)
from repro.query import BGPQuery, JUCQ, UCQ
from repro.rdf import RDF_TYPE, Literal, Triple, URI, Variable
from repro.rdf.terms import IdRange
from repro.reasoning import Layout, derive
from repro.reformulation import enumerate_covers
from repro.reformulation.jucq import jucq_for_cover
from repro.reformulation.litemat import interval_reformulate
from repro.reformulation.reformulate import ReformulationLimitExceeded, Reformulator
from repro.storage import RDFDatabase
from repro.storage.triple_table import TableView

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
    estimator to the new version.  The caller then finishes its
    computation from the stale count and stores the result — into the
    old view's count memo and the old record, which nobody reads again.
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
    real = TableView.match_count
    race = [
        lambda: database.load_facts([Triple(t("s9"), t("p"), t("o9"))]),
        lambda: estimator.cq_cardinality(other),
    ]

    def racing(view, pattern):
        stale = real(view, pattern)
        while race:
            race.pop(0)()
        return stale

    monkeypatch.setattr(TableView, "match_count", racing)
    snapshot = database.snapshot()
    assert estimator.cq_cardinality(query) == 4.0  # computed from the stale count
    assert database.snapshot().table.version > snapshot.table.version
    assert estimator.cq_cardinality(query) == 5.0
    assert estimator.atom_count(query.body[0]) == 5
    assert estimator.ucq_scan_size(UCQ([query])) == 5


def test_id_range_atoms_are_counted_by_range_scan_on_the_shared_atom_path(
    lubm_db, monkeypatch
):
    derived = derive(lubm_db, Layout.INTERVALS)
    encoding, store = derived.encoding, derived.database
    x = Variable("x")
    professor = URI("http://swat.cse.lehigh.edu/onto/univ-bench.owl#Professor")
    plan = interval_reformulate(
        BGPQuery([x], [Triple(x, RDF_TYPE, professor)]), lubm_db.schema, encoding
    )
    ranged = [a for cq in plan for a in cq.body if isinstance(a.o, IdRange)]
    assert ranged, "Professor has subclasses: its closure is an interval"
    calls = []
    real = TableView.match_range_count

    def counting(view, pattern, position, lo, hi):
        calls.append((pattern, position, lo, hi))
        return real(view, pattern, position, lo, hi)

    monkeypatch.setattr(TableView, "match_range_count", counting)
    estimator = CardinalityEstimator(store)
    atom = ranged[0]
    pattern = estimator.atom_pattern(atom)
    assert pattern is not None and pattern[2] is None
    rows = store.table.match_range(pattern, 2, atom.o.lo, atom.o.hi)
    assert estimator.atom_count(atom) == rows.shape[0] > 0
    assert calls == [(pattern, 2, atom.o.lo, atom.o.hi)]
    # Every other question about the atom reads the same statistics.
    assert estimator.ucq_scan_size(UCQ([BGPQuery([x], [atom])])) == rows.shape[0]
    assert estimator.ucq_scan_size(plan) == sum(
        estimator.atom_count(a) for cq in plan for a in cq.body
    )
    assert estimator.atom_distinct(atom, x) >= len({int(s) for s in rows[:, 0]})
    assert len(calls) == len(ranged)


STUDENT_KINDS = ("GraduateStudent", "UndergraduateStudent", "TeachingAssistant")


def student_batch(rng: random.Random, step: int, department: URI):
    """A churn-style write: four new students, five facts each."""
    triples = []
    for index in range(4):
        student = URI(f"http://www.univ0.edu/carried/student{step}_{index}")
        home = f"http://www.univ0.edu/dept{rng.randrange(4)}/"
        triples += [
            Triple(student, RDF_TYPE, ub(rng.choice(STUDENT_KINDS))),
            Triple(student, ub("memberOf"), department),
            Triple(student, ub("name"), Literal(f"Carried{step}.{index}")),
            Triple(student, ub("takesCourse"), URI(f"{home}gradcourse{rng.randrange(8)}")),
            Triple(URI(f"{home}pub{rng.randrange(40)}"), ub("publicationAuthor"), student),
        ]
    return triples


def test_memo_records_equal_fresh_probes_after_seeded_writes():
    """A long-lived estimator across writes: after each one, it starts
    an empty record for the new view, every entry of its record and of
    the views' count memos is what a raw probe returns, and every
    operand is priced like a fresh estimator prices it.  The workload's
    fragments, an ``IdRange`` atom, and an atom whose constant is stored
    only by the fourth write are asked before and after every write."""
    rng = random.Random(29)
    database = build_lubm_database(universities=1, seed=0)
    estimator = CardinalityEstimator(database)
    reformulator = Reformulator(database.schema, limit=TERM_LIMIT)
    operands = []
    for entry in lubm_workload():
        if len(entry.query.body) <= MAX_ATOMS:
            try:
                operands.append(reformulator.reformulate(entry.query))
            except ReformulationLimitExceeded:
                continue
    assert len(operands) > 10
    x = Variable("x")
    codes = [database.dictionary.lookup(ub(kind)) for kind in STUDENT_KINDS]
    newcomer = URI("http://www.univ0.edu/carried/department")
    atoms = [
        Triple(x, RDF_TYPE, IdRange(min(codes), max(codes) + 1)),
        Triple(x, ub("memberOf"), newcomer),
    ]
    assert estimator.atom_pattern(atoms[1]) is None
    operands += [UCQ([BGPQuery([x], [atom])]) for atom in atoms]
    for step in range(8):
        department = newcomer if step >= 3 else department_uri(0, step)
        for operand in operands:
            estimator.ucq_cardinality(operand)
        assert assert_memos_match_fresh_probes(estimator) > 0
        database.load_facts(student_batch(rng, step, department))
        memo = estimator._current(None)
        assert memo is estimator._memo and memo.view is database.table.view
        assert not memo.atoms and not memo.operands
        fresh = CardinalityEstimator(database)
        for operand in operands:
            assert estimator.operand_summary(operand) == fresh.operand_summary(operand)
    assert assert_memos_match_fresh_probes(estimator) > 0
    assert estimator.atom_count(atoms[1]) == 4 * 5
    assert estimator.atom_count(atoms[0]) == database.table.view.match_range_count(
        estimator.atom_pattern(atoms[0]), 2, min(codes), max(codes) + 1
    )
