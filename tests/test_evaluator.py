"""Tests for the native engines: correctness vs the reference evaluator,
profile limits, and timeouts."""

import itertools

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine import (
    EngineFailure,
    EngineProfile,
    EngineTimeout,
    NATIVE_HASH,
    NATIVE_MERGE,
    NativeEngine,
)
from repro.query import BGPQuery, JUCQ, UCQ, evaluate
from repro.rdf import RDFGraph, RDF_TYPE, Triple, URI, Variable
from repro.rdf.terms import IdRange
from repro.storage import RDFDatabase

x, y, z = Variable("x"), Variable("y"), Variable("z")


def u(name):
    return URI(f"http://ev/{name}")


@pytest.fixture(scope="module")
def facts():
    rows = []
    for i in range(60):
        rows.append(Triple(u(f"s{i}"), u("p"), u(f"o{i % 7}")))
        rows.append(Triple(u(f"o{i % 7}"), u("q"), u(f"s{(i + 1) % 60}")))
        if i % 3 == 0:
            rows.append(Triple(u(f"s{i}"), RDF_TYPE, u("C")))
    return rows


@pytest.fixture(scope="module")
def db(facts):
    database = RDFDatabase()
    database.load_facts(facts)
    return database


@pytest.fixture(scope="module")
def graph(facts):
    return RDFGraph(facts)


@pytest.fixture(scope="module", params=["hash", "merge"])
def engine(request, db):
    profile = NATIVE_HASH if request.param == "hash" else NATIVE_MERGE
    return NativeEngine(db, profile)


class TestCQ:
    def test_single_atom(self, engine, graph):
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        assert engine.evaluate(q) == evaluate(q, graph)

    def test_two_atom_join(self, engine, graph):
        q = BGPQuery([x, z], [Triple(x, u("p"), y), Triple(y, u("q"), z)])
        assert engine.evaluate(q) == evaluate(q, graph)

    def test_constant_positions(self, engine, graph):
        q = BGPQuery([x], [Triple(x, u("p"), u("o3"))])
        assert engine.evaluate(q) == evaluate(q, graph)

    def test_unknown_constant(self, engine, graph):
        q = BGPQuery([x], [Triple(x, u("no_such_p"), y)])
        assert engine.evaluate(q) == frozenset()

    def test_constant_head(self, engine, graph):
        q = BGPQuery([x, u("C")], [Triple(x, RDF_TYPE, u("C"))])
        assert engine.evaluate(q) == evaluate(q, graph)

    def test_empty_body(self, engine, graph):
        q = BGPQuery([u("k")], [])
        assert engine.evaluate(q) == {(u("k"),)}

    def test_boolean(self, engine, graph):
        q = BGPQuery([], [Triple(x, u("p"), y)])
        assert engine.evaluate(q) == {()}

    def test_disconnected_body(self, engine, graph):
        q = BGPQuery([x, z], [Triple(x, RDF_TYPE, u("C")), Triple(z, u("q"), y)])
        assert engine.evaluate(q) == evaluate(q, graph)

    def test_count(self, engine, graph):
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        assert engine.count(q) == len(evaluate(q, graph))


class TestUCQ:
    def test_union_dedups(self, engine, graph):
        a = BGPQuery([x], [Triple(x, u("p"), y)])
        b = BGPQuery([x], [Triple(x, RDF_TYPE, u("C"))])
        ucq = UCQ([a, b])
        assert engine.evaluate(ucq) == evaluate(ucq, graph)

    def test_mixed_constant_heads(self, engine, graph):
        a = BGPQuery([x, y], [Triple(x, RDF_TYPE, y)])
        b = BGPQuery([x, u("C")], [Triple(x, RDF_TYPE, u("C"))])
        ucq = UCQ([a, b])
        assert engine.evaluate(ucq) == evaluate(ucq, graph)


class TestJUCQ:
    def test_two_operands(self, engine, graph):
        left = UCQ([BGPQuery([x, y], [Triple(x, u("p"), y)])])
        right = UCQ([BGPQuery([y, z], [Triple(y, u("q"), z)])])
        j = JUCQ([x, z], [left, right])
        assert engine.evaluate(j) == evaluate(j, graph)

    def test_three_operands(self, engine, graph):
        first = UCQ([BGPQuery([x, y], [Triple(x, u("p"), y)])])
        second = UCQ([BGPQuery([y, z], [Triple(y, u("q"), z)])])
        third = UCQ([BGPQuery([z], [Triple(z, RDF_TYPE, u("C"))])])
        j = JUCQ([x, z], [first, second, third])
        assert engine.evaluate(j) == evaluate(j, graph)

    def test_single_operand(self, engine, graph):
        operand = UCQ([BGPQuery([x], [Triple(x, u("p"), y)])])
        j = JUCQ([x], [operand])
        assert engine.evaluate(j) == evaluate(j, graph)


class TestProfiles:
    def test_union_term_limit(self, db):
        tight = EngineProfile(name="tiny", max_union_terms=2)
        engine = NativeEngine(db, tight)
        cqs = [
            BGPQuery([x], [Triple(x, u("p"), u(f"o{i}"))]) for i in range(3)
        ]
        with pytest.raises(EngineFailure):
            engine.evaluate(UCQ(cqs))

    def test_intermediate_row_limit(self, db):
        tight = EngineProfile(name="tiny", max_intermediate_rows=5)
        engine = NativeEngine(db, tight)
        q = BGPQuery([x, y], [Triple(x, u("p"), y), Triple(x, RDF_TYPE, z)])
        with pytest.raises(EngineFailure):
            engine.evaluate(q)

    def test_timeout(self, db):
        engine = NativeEngine(db)
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        with pytest.raises(EngineTimeout):
            engine.evaluate(q, timeout_s=-1.0)

    def test_unknown_query_type(self, db):
        with pytest.raises(TypeError):
            NativeEngine(db).evaluate(42)


class TestTemplateGroups:
    """Grouped union evaluation (DESIGN.md §18): caps, sharing, threads."""

    @pytest.fixture(scope="class")
    def hub(self):
        """Two same-shaped terms that are *not* a cross product.

        ``p1`` has 30 edges into the hub and ``r1`` one edge out of it;
        ``p2``/``r2`` the other way round.  The union's two members
        join 30 rows each; the pairs it does not contain, ``p1``/``r2``
        and ``p2``/``r1``, would join 900 and 1.
        """
        hub = u("hub")
        rows = [Triple(u(f"a{i}"), u("p1"), hub) for i in range(30)]
        rows += [Triple(hub, u("r2"), u(f"b{i}")) for i in range(30)]
        rows += [Triple(u("a-only"), u("p2"), hub), Triple(hub, u("r1"), u("b-only"))]
        database = RDFDatabase()
        database.load_facts(rows)
        ucq = UCQ([
            BGPQuery([x, z], [Triple(x, u("p1"), y), Triple(y, u("r1"), z)]),
            BGPQuery([x, z], [Triple(x, u("p2"), y), Triple(y, u("r2"), z)]),
        ])
        return database, RDFGraph(rows), ucq

    def test_family_that_is_not_a_cross_product(self, hub):
        database, graph, ucq = hub
        (template,) = ucq.templates()
        assert template.size == 2 and template.tagged == (0, 1)
        answers = NativeEngine(database).evaluate(ucq)
        assert answers == evaluate(ucq, graph) and len(answers) == 60

    def test_pairs_no_member_has_are_never_built(self, hub):
        from repro.telemetry import MetricsRecorder

        database, _graph, ucq = hub
        for profile in (NATIVE_HASH, NATIVE_MERGE):
            metrics = MetricsRecorder()
            NativeEngine(database, profile).evaluate_relation(ucq, metrics=metrics)
            emitted = metrics.counters[f"join.{profile.join_algorithm}.emit_rows"]
            # 31 rows paired with their member's other tag, then the 60
            # joined rows: not the 961 of a join on ``y`` alone.
            assert emitted == 31 + 60
            assert metrics.counters["materialized.intermediate_rows"] == 60

    def test_row_cap_counts_the_members_not_the_pairs(self, hub):
        database, _graph, ucq = hub
        # 60 = the two members' intermediates; the 901 rows of the pairs
        # the union does not contain are never built, so never count ...
        roomy = EngineProfile(name="roomy", max_intermediate_rows=100)
        assert len(NativeEngine(database, roomy).evaluate(ucq)) == 60
        # ... but the cap is on the family's sum: 30 + 30 > 50 fails
        # although either member alone would pass.
        tight = EngineProfile(name="tight", max_intermediate_rows=50)
        with pytest.raises(EngineFailure, match="intermediate result of 60 rows"):
            NativeEngine(database, tight).evaluate(ucq)
        for cq in ucq:
            assert len(NativeEngine(database, tight).evaluate(cq)) == 30

    def test_same_body_different_head_constants(self, engine, graph):
        # What domain/range rules emit: one body, several head constants.
        body = [Triple(x, RDF_TYPE, u("C"))]
        ucq = UCQ([BGPQuery([x, u(name)], body) for name in ("C", "D", "E")])
        (template,) = ucq.templates()
        assert template.tagged == () and template.members.shape == (3, 1)
        answers = engine.evaluate(ucq)
        assert answers == evaluate(ucq, graph) and len(answers) == 3 * 20

    def test_shared_scans_are_read_once(self, db):
        from repro.telemetry import MetricsRecorder

        # Two operands over the same two scans: four atoms, two reads.
        left = UCQ([BGPQuery([x, y], [Triple(x, u("p"), y)]),
                    BGPQuery([x, y], [Triple(y, u("q"), x)])])
        right = UCQ([BGPQuery([y, z], [Triple(y, u("q"), z)]),
                     BGPQuery([y, z], [Triple(z, u("p"), y)])])
        metrics = MetricsRecorder()
        NativeEngine(db).evaluate_relation(JUCQ([x, z], [left, right]), metrics=metrics)
        assert metrics.counters["scan.atoms"] == 2
        assert metrics.counters["union.terms"] == 4
        assert metrics.counters["union.templates"] == 4

    def test_expired_budget_stops_between_templates(self, db):
        from repro.resilience import ExecutionBudget

        ucq = UCQ([BGPQuery([x], [Triple(x, u("p"), u(f"o{i}"))]) for i in range(3)])
        with pytest.raises(EngineTimeout):
            NativeEngine(db).evaluate(ucq, budget=ExecutionBudget(timeout_s=0.0))

    def test_plan_cached_union_from_many_threads(self, lubm_db):
        """A cached plan's UCQs are shared: racing threads may each compute
        the template partition, but all must see the same answers."""
        import sys
        import threading

        from repro.answering import QueryAnswerer
        from repro.cache import QueryCache
        from repro.datasets import lubm_query

        answerer = QueryAnswerer(lubm_db, cache=QueryCache())
        query = lubm_query("Q09")
        planned, _ = answerer.plan(query, "ucq")
        again, _ = answerer.plan(query, "ucq")
        assert again is planned  # the cache hands every caller one object
        operands = list(planned) if isinstance(planned, JUCQ) else [planned]
        assert all(operand._templates is None for operand in operands)
        results, errors = [], []
        barrier = threading.Barrier(6)

        def work():
            try:
                barrier.wait(timeout=30)
                for _ in range(3):
                    results.append(answerer.answer(query, strategy="ucq").answers)
            except BaseException as error:  # surfaced by the assert below
                errors.append(error)
                raise

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert len(results) == 18 and len(set(results)) == 1
        assert results[0] == answerer.answer(query, strategy="saturation").answers
        assert all(operand._templates is not None for operand in operands)


# ----------------------------------------------------------------------
# Property: engine ≡ reference evaluator on random CQs over random data.
# ----------------------------------------------------------------------
_CONSTS = [u(f"c{i}") for i in range(6)]
_PROPS = [u(f"pp{i}") for i in range(3)]
_VARS = [Variable(n) for n in "abcd"]


@st.composite
def _random_case(draw):
    n_facts = draw(st.integers(1, 30))
    facts = [
        Triple(
            draw(st.sampled_from(_CONSTS)),
            draw(st.sampled_from(_PROPS)),
            draw(st.sampled_from(_CONSTS)),
        )
        for _ in range(n_facts)
    ]
    n_atoms = draw(st.integers(1, 3))
    term = st.one_of(st.sampled_from(_CONSTS), st.sampled_from(_VARS))
    atoms = [
        Triple(draw(term), draw(st.sampled_from(_PROPS + _VARS)), draw(term))
        for _ in range(n_atoms)
    ]
    variables = sorted({v for a in atoms for v in a.variables()})
    if variables:
        head = draw(st.lists(st.sampled_from(variables), min_size=1, max_size=3))
    else:
        head = []
    return facts, BGPQuery(head, atoms)


@settings(max_examples=80, deadline=None)
@given(case=_random_case())
def test_engine_matches_reference(case):
    facts, query = case
    database = RDFDatabase()
    database.load_facts(facts)
    graph = RDFGraph(facts)
    expected = evaluate(query, graph)
    for profile in (NATIVE_HASH, NATIVE_MERGE):
        assert NativeEngine(database, profile).evaluate(query) == expected


# ----------------------------------------------------------------------
# Property: grouped union evaluation ≡ reference evaluator (DESIGN.md §18).
#
# The engine evaluates a UCQ one *template* at a time, not one term at a
# time, so the cases are built template-first: a few body shapes, each
# instantiated by several members that differ only in constants.  The
# generator aims at what template evaluation can get wrong:
#
# * identical bodies with different head constants (tag -> members is
#   one-to-many);
# * families that are not a full cross product of their atoms' patterns;
# * a variable repeated inside an atom (``x p x``);
# * empty-body constant conjuncts, and constants the dictionary has
#   never seen, inside a family;
# * ``IdRange`` members beside constant members;
# * arity-0 heads;
# * members whose body atoms come in a different order.
# ----------------------------------------------------------------------
_ABSENT = u("never-stored")
_SLOT = object()  # a constant position, filled per member
# Few values, many facts: joins must succeed often enough that a wrongly
# kept (or dropped) combination of constants changes the answer.
_FEW = _CONSTS[:3] + _PROPS[:2]


@st.composite
def _template_spec(draw, arity):
    """A body shape plus its members' constant fillings."""
    variables = _VARS[: draw(st.integers(1, 3))]
    position = st.one_of(st.sampled_from(variables), st.just(_SLOT))
    atoms = draw(st.lists(st.tuples(position, position, position), min_size=1, max_size=3))
    body_vars = sorted({t for atom in atoms for t in atom if t is not _SLOT})
    if body_vars:
        head_entry = st.one_of(st.sampled_from(body_vars), st.just(_SLOT))
    else:
        head_entry = st.just(_SLOT)
    head = draw(st.lists(head_entry, min_size=arity, max_size=arity))
    constant = st.sampled_from(_FEW + [_ABSENT])
    filling = st.one_of(constant, st.tuples(st.integers(0, 4), st.integers(1, 3)))
    slot_count = sum(t is _SLOT for atom in atoms for t in atom)
    members = draw(
        st.lists(
            st.tuples(
                st.lists(filling, min_size=slot_count, max_size=slot_count),
                st.lists(constant, min_size=arity, max_size=arity),
                st.permutations(range(len(atoms))),
            ),
            min_size=1,
            max_size=6,
        )
    )
    return atoms, head, members


def _instantiate(spec, dictionary):
    """``(engine terms, oracle terms)``: IdRanges expanded for the oracle."""
    atoms, head, members = spec
    engine_terms, oracle_terms = [], []
    for fillings, head_constants, order in members:
        fillings = iter(fillings)
        engine_body, choices = [], []
        for atom in atoms:
            terms, ranged = [], False
            for term in atom:
                if term is not _SLOT:
                    terms.append(term)
                    continue
                value = next(fillings)
                if isinstance(value, tuple):
                    lo = min(value[0], len(dictionary) - 1)
                    value = _ABSENT if ranged else IdRange(lo, lo + value[1])
                    ranged = True  # at most one IdRange per atom
                terms.append(value)
            engine_body.append(Triple(*terms))
            expansions = [[]]
            for term in terms:
                if isinstance(term, IdRange):
                    codes = range(term.lo, min(term.hi, len(dictionary)))
                    options = [dictionary.decode(code) for code in codes]
                else:
                    options = [term]
                expansions = [e + [o] for e in expansions for o in options]
            choices.append([Triple(*e) for e in expansions])
        member_head = [
            constant if entry is _SLOT else entry
            for entry, constant in zip(head, head_constants)
        ]
        engine_terms.append(BGPQuery._raw(
            tuple(member_head), tuple(engine_body[i] for i in order), "m"
        ))
        for body in itertools.product(*choices):
            oracle_terms.append(BGPQuery._raw(tuple(member_head), body, "m"))
    return engine_terms, oracle_terms


@st.composite
def _union_case(draw):
    fact = st.tuples(
        st.sampled_from(_FEW[:3]), st.sampled_from(_FEW[3:]), st.sampled_from(_FEW)
    )
    facts = [Triple(*spo) for spo in draw(st.lists(fact, min_size=1, max_size=30))]
    arity = draw(st.integers(0, 2))
    specs = draw(st.lists(_template_spec(arity), min_size=1, max_size=3))
    constant_rows = draw(
        st.lists(
            st.lists(st.sampled_from(_FEW + [_ABSENT]), min_size=arity, max_size=arity),
            max_size=2,
        )
    )
    return facts, arity, specs, constant_rows


@settings(max_examples=150, deadline=None)
@given(case=_union_case())
def test_grouped_union_matches_reference(case):
    facts, arity, specs, constant_rows = case
    database = RDFDatabase()
    database.load_facts(facts)
    graph = RDFGraph(facts)
    engine_terms, oracle_terms = [], []
    for spec in specs:
        for_engine, for_oracle = _instantiate(spec, database.dictionary)
        engine_terms += for_engine
        oracle_terms += for_oracle
    for row in constant_rows:  # schema-resolved conjuncts: no body at all
        engine_terms.append(BGPQuery(row, []))
        oracle_terms.append(BGPQuery(row, []))
    expected = set()
    for term in oracle_terms:
        expected |= evaluate(term, graph)
    ucq = UCQ(engine_terms)
    for profile in (NATIVE_HASH, NATIVE_MERGE):
        assert NativeEngine(database, profile).evaluate(ucq) == expected
    # The grouping itself: every term is in exactly one template.
    assert sum(t.size for t in ucq.templates()) == len(ucq)


# ----------------------------------------------------------------------
# Property: one three-atom family whose members pick their properties
# (and a head constant) freely -- diagonal, partly independent and full
# cross-product member sets over data dense enough that every join
# succeeds, so a pair of constants no member has would show up as a
# wrong answer.  The cases above seldom put two tagged atoms in one
# template; these nearly always do.
# ----------------------------------------------------------------------
@st.composite
def _chain_family(draw):
    nodes, properties = _CONSTS[:4], _PROPS
    fact = st.tuples(
        st.sampled_from(nodes), st.sampled_from(properties), st.sampled_from(nodes)
    )
    facts = [Triple(*spo) for spo in draw(st.lists(fact, min_size=4, max_size=40))]
    member = st.tuples(
        st.sampled_from(properties), st.sampled_from(properties),
        st.sampled_from(properties), st.sampled_from(nodes[:2]),
    )
    return facts, draw(st.lists(member, min_size=2, max_size=10))


_P, _Q, _R = _PROPS
_DENSE = [Triple(s, p, o) for s in _CONSTS[:2] for p in _PROPS for o in _CONSTS[:2]]


@settings(max_examples=100, deadline=None)
@given(case=_chain_family())
# Both tags needed for the head constant alone: every pair is a member.
@example(case=(_DENSE, [(_P, _P, _R, _CONSTS[0]), (_P, _Q, _R, _CONSTS[0]),
                        (_Q, _P, _R, _CONSTS[0]), (_Q, _Q, _R, _CONSTS[1])]))
# A diagonal in the first two atoms, the third free of both.
@example(case=(_DENSE, [(_P, _P, _P, _CONSTS[0]), (_Q, _Q, _P, _CONSTS[0]),
                        (_P, _P, _Q, _CONSTS[1]), (_Q, _Q, _Q, _CONSTS[1])]))
def test_chain_family_matches_reference(case):
    facts, members = case
    a, b, c, d = _VARS
    ucq = UCQ([
        BGPQuery._raw(
            (a, d, constant),
            (Triple(a, p1, b), Triple(b, p2, c), Triple(c, p3, d)),
            "m",
        )
        for p1, p2, p3, constant in members
    ])
    assert len(ucq.templates()) == 1
    database = RDFDatabase()
    database.load_facts(facts)
    expected = evaluate(ucq, RDFGraph(facts))
    for profile in (NATIVE_HASH, NATIVE_MERGE):
        assert NativeEngine(database, profile).evaluate(ucq) == expected
