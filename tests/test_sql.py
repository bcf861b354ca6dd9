"""Tests for SQL generation and the SQLite backend."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import EngineFailure, NativeEngine, SQLiteEngine, to_sql
from repro.engine.sql import cq_to_sql, jucq_to_sql, ucq_to_sql
from repro.query import BGPQuery, JUCQ, UCQ, evaluate
from repro.rdf import RDFGraph, RDF_TYPE, Triple, URI, Variable
from repro.storage import RDFDatabase

x, y, z = Variable("x"), Variable("y"), Variable("z")


def u(name):
    return URI(f"http://sq/{name}")


@pytest.fixture(scope="module")
def db():
    facts = []
    for i in range(40):
        facts.append(Triple(u(f"s{i}"), u("p"), u(f"o{i % 5}")))
        facts.append(Triple(u(f"o{i % 5}"), u("q"), u(f"s{(i * 3) % 40}")))
        if i % 2 == 0:
            facts.append(Triple(u(f"s{i}"), RDF_TYPE, u("C")))
    database = RDFDatabase()
    database.load_facts(facts)
    return database


@pytest.fixture(scope="module")
def sqlite(db):
    return SQLiteEngine(db)


@pytest.fixture(scope="module")
def graph(db):
    return db.facts_graph()


class TestSQLText:
    def test_cq_shape(self, db):
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        sql = cq_to_sql(q, db.dictionary, ["c0", "c1"])
        assert sql.startswith("SELECT DISTINCT")
        assert "FROM triples t0" in sql
        assert "t0.p =" in sql

    def test_join_condition(self, db):
        q = BGPQuery([x], [Triple(x, u("p"), y), Triple(y, u("q"), z)])
        sql = cq_to_sql(q, db.dictionary, ["c0"])
        assert "t1.s = t0.o" in sql

    def test_repeated_variable_condition(self, db):
        q = BGPQuery([x], [Triple(x, u("p"), x)])
        sql = cq_to_sql(q, db.dictionary, ["c0"])
        assert "t0.o = t0.s" in sql

    def test_unknown_constant_compiles_to_false(self, db):
        q = BGPQuery([x], [Triple(x, u("not_in_dict"), y)])
        sql = cq_to_sql(q, db.dictionary, ["c0"])
        assert "WHERE 0" in sql

    def test_empty_body_constants(self, db):
        q = BGPQuery([u("s1")], [])
        sql = cq_to_sql(q, db.dictionary, ["c0"])
        assert "FROM" not in sql

    def test_ucq_union(self, db):
        a = BGPQuery([x], [Triple(x, u("p"), y)])
        b = BGPQuery([x], [Triple(x, u("q"), y)])
        sql = ucq_to_sql(UCQ([a, b]), db.dictionary, ["c0"])
        assert sql.count("UNION") == 1

    def test_jucq_derived_tables(self, db):
        left = UCQ([BGPQuery([x, y], [Triple(x, u("p"), y)])])
        right = UCQ([BGPQuery([y, z], [Triple(y, u("q"), z)])])
        sql = jucq_to_sql(JUCQ([x, z], [left, right]), db.dictionary)
        assert ") u0" in sql and ") u1" in sql
        assert "u1.y = u0.y" in sql

    def test_dispatch(self, db):
        q = BGPQuery([x], [Triple(x, u("p"), y)])
        assert to_sql(q, db.dictionary)
        assert to_sql(UCQ([q]), db.dictionary)
        with pytest.raises(TypeError):
            to_sql(3.14, db.dictionary)


class TestSQLiteResults:
    def test_cq(self, sqlite, graph):
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        assert sqlite.evaluate(q) == evaluate(q, graph)

    def test_join(self, sqlite, graph):
        q = BGPQuery([x, z], [Triple(x, u("p"), y), Triple(y, u("q"), z)])
        assert sqlite.evaluate(q) == evaluate(q, graph)

    def test_ucq(self, sqlite, graph):
        a = BGPQuery([x], [Triple(x, u("p"), y)])
        b = BGPQuery([x], [Triple(x, RDF_TYPE, u("C"))])
        ucq = UCQ([a, b])
        assert sqlite.evaluate(ucq) == evaluate(ucq, graph)

    def test_jucq(self, sqlite, graph):
        left = UCQ([BGPQuery([x, y], [Triple(x, u("p"), y)])])
        right = UCQ([BGPQuery([y, z], [Triple(y, u("q"), z)])])
        j = JUCQ([x, z], [left, right])
        assert sqlite.evaluate(j) == evaluate(j, graph)

    def test_count(self, sqlite, graph):
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        assert len(sqlite.evaluate(q)) == len(evaluate(q, graph))

    def test_empty_body_cq(self, sqlite):
        q = BGPQuery([u("s1")], [])
        assert sqlite.evaluate(q) == {(u("s1"),)}

    def test_compound_select_limit_is_real(self, db, sqlite):
        """SQLite's 500-term compound SELECT cap fails huge UCQs for real."""
        conjuncts = [
            BGPQuery([x], [Triple(x, u("p"), u(f"o{i % 5}"))], name=f"c{i}")
            for i in range(501)
        ]
        # Force 501 distinct conjuncts by varying a second atom.
        conjuncts = [
            BGPQuery(
                [x],
                [Triple(x, u("p"), y), Triple(x, RDF_TYPE, u(f"K{i}"))],
                name=f"c{i}",
            )
            for i in range(501)
        ]
        with pytest.raises(EngineFailure):
            sqlite.evaluate(UCQ(conjuncts))

    def test_explain(self, sqlite):
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        assert "idx" in sqlite.explain(q) or "triples" in sqlite.explain(q)

    def test_context_manager(self, db):
        with SQLiteEngine(db) as engine:
            q = BGPQuery([x, y], [Triple(x, u("p"), y)])
            engine.evaluate(q)


@settings(max_examples=40, deadline=None)
@given(
    pattern=st.tuples(
        st.one_of(st.none(), st.integers(0, 4)),
        st.one_of(st.none(), st.integers(0, 1)),
        st.one_of(st.none(), st.integers(0, 4)),
    )
)
def test_sqlite_matches_native_on_random_patterns(db, sqlite, pattern, graph):
    si, pi, oi = pattern
    s = Variable("x") if si is None else u(f"s{si * 7}")
    p = Variable("p") if pi is None else (u("p") if pi == 0 else u("q"))
    o = Variable("y") if oi is None else u(f"o{oi}")
    head = sorted({t for t in (s, p, o) if isinstance(t, Variable)})
    query = BGPQuery(head or [], [Triple(s, p, o)])
    assert sqlite.evaluate(query) == NativeEngine(db).evaluate(query)


# ----------------------------------------------------------------------
# Regression: a searched cover's one operand under a head that repeats a
# variable.  The compiler emitted the operand's union under the JUCQ's
# head, whose arity differs, and raised ValueError on these 20 pairs.
# ----------------------------------------------------------------------
_REPEATED_HEAD_PAIRS = [
    (name, strategy)
    for name in ("Q01", "Q03", "Q10", "Q11", "Q14", "Q17", "Q20", "Q22", "Q23", "Q27")
    for strategy in ("gcov", "ecov")
]


@pytest.fixture(scope="module")
def lubm_answerers(lubm_db):
    from repro.answering import QueryAnswerer

    with SQLiteEngine(lubm_db) as engine:
        yield QueryAnswerer(lubm_db), QueryAnswerer(lubm_db, engine=engine)


@pytest.mark.parametrize("name,strategy", _REPEATED_HEAD_PAIRS)
def test_sqlite_answers_a_repeated_head_variable(lubm_answerers, name, strategy):
    from repro.datasets import lubm_query

    native, sqlite = lubm_answerers
    query = lubm_query(name)
    repeated = BGPQuery(query.head + (query.head[0],), query.body, name=name)
    expected = native.answer(repeated, strategy).answers
    assert sqlite.answer(repeated, strategy).answers == expected
