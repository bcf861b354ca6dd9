"""Tests for the explicit physical-plan layer."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine import NATIVE_HASH, NATIVE_MERGE, NativeEngine
from repro.engine.plans import (
    ConstantRowNode,
    DistinctNode,
    JoinNode,
    PlanCompiler,
    ProjectNode,
    ScanNode,
    UnionNode,
    compile_query,
)
from repro.query import BGPQuery, JUCQ, UCQ
from repro.rdf import RDF_TYPE, Triple, URI, Variable
from repro.storage import RDFDatabase

x, y, z = Variable("x"), Variable("y"), Variable("z")


def u(name):
    return URI(f"http://pl/{name}")


@pytest.fixture(scope="module")
def db():
    facts = []
    for i in range(30):
        facts.append(Triple(u(f"s{i}"), u("p"), u(f"o{i % 4}")))
        facts.append(Triple(u(f"o{i % 4}"), u("q"), u(f"s{(i * 2) % 30}")))
        if i % 3 == 0:
            facts.append(Triple(u(f"s{i}"), RDF_TYPE, u("C")))
    database = RDFDatabase()
    database.load_facts(facts)
    return database


class TestStructure:
    def test_cq_plan_shape(self, db):
        q = BGPQuery([x, z], [Triple(x, u("p"), y), Triple(y, u("q"), z)])
        plan = compile_query(q, db)
        assert isinstance(plan, DistinctNode)
        project = plan.child
        assert isinstance(project, ProjectNode)
        join = project.child
        assert isinstance(join, JoinNode)
        assert {type(join.left), type(join.right)} == {ScanNode}

    def test_join_order_smallest_first(self, db):
        q = BGPQuery(
            [x], [Triple(x, u("p"), y), Triple(x, RDF_TYPE, u("C"))]
        )
        plan = compile_query(q, db)
        join = plan.child.child
        # The type scan (10 rows) is smaller than the p scan (30).
        assert join.left.atom.p == RDF_TYPE

    def test_ucq_plan_shape(self, db):
        a = BGPQuery([x], [Triple(x, u("p"), y)])
        b = BGPQuery([x], [Triple(x, u("q"), y)])
        plan = compile_query(UCQ([a, b]), db)
        assert isinstance(plan, DistinctNode)
        assert isinstance(plan.child, UnionNode)
        assert len(plan.child.inputs) == 2

    def test_empty_body_constant_row(self, db):
        plan = PlanCompiler(db).compile_cq(BGPQuery([u("k")], []), ("c0",))
        assert isinstance(plan, ConstantRowNode)

    def test_render_and_count(self, db):
        q = BGPQuery([x, z], [Triple(x, u("p"), y), Triple(y, u("q"), z)])
        plan = compile_query(q, db)
        text = plan.render()
        assert "Scan" in text and "Join" in text and "Distinct" in text
        assert plan.node_count() == 5  # distinct, project, join, 2 scans

    def test_merge_profile_sets_algorithm(self, db):
        q = BGPQuery([x, z], [Triple(x, u("p"), y), Triple(y, u("q"), z)])
        plan = compile_query(q, db, profile=NATIVE_MERGE)
        assert plan.child.child.algorithm == "merge"

    def test_compile_rejects_unknown(self, db):
        with pytest.raises(TypeError):
            compile_query("nope", db)


class TestExecutionMatchesEngine:
    def _check(self, query, db):
        engine_result = NativeEngine(db).evaluate_relation(query)
        plan_result = compile_query(query, db).execute(db)
        assert set(map(tuple, plan_result.rows.tolist())) == set(
            map(tuple, engine_result.rows.tolist())
        )

    def test_cq(self, db):
        self._check(
            BGPQuery([x, z], [Triple(x, u("p"), y), Triple(y, u("q"), z)]), db
        )

    def test_cq_with_constant_head(self, db):
        self._check(BGPQuery([x, u("C")], [Triple(x, RDF_TYPE, u("C"))]), db)

    def test_ucq(self, db):
        a = BGPQuery([x], [Triple(x, u("p"), y)])
        b = BGPQuery([x], [Triple(x, RDF_TYPE, u("C"))])
        self._check(UCQ([a, b]), db)

    def test_jucq(self, db):
        left = UCQ([BGPQuery([x, y], [Triple(x, u("p"), y)])])
        right = UCQ([BGPQuery([y, z], [Triple(y, u("q"), z)])])
        self._check(JUCQ([x, z], [left, right]), db)

    def test_disconnected(self, db):
        self._check(
            BGPQuery([x, z], [Triple(x, RDF_TYPE, u("C")), Triple(z, u("q"), y)]),
            db,
        )


class TestReformulationPlans:
    def test_gcov_jucq_plan_executes_correctly(self, lubm_db3):
        from repro.cost import CostModel
        from repro.datasets import motivating_q1
        from repro.optimizer import gcov
        from repro.reformulation import Reformulator

        query = motivating_q1().query
        result = gcov(query, Reformulator(lubm_db3.schema), CostModel(lubm_db3).cost)
        plan = compile_query(result.jucq, lubm_db3)
        executed = plan.execute(lubm_db3)
        expected = NativeEngine(lubm_db3).evaluate_relation(result.jucq)
        assert set(map(tuple, executed.rows.tolist())) == set(
            map(tuple, expected.rows.tolist())
        )
        assert plan.node_count() > 10  # a real multi-operand tree


_CONSTS = [u(f"h{i}") for i in range(5)]
_PROPS = [u(f"hp{i}") for i in range(3)]
_HVARS = [Variable(n) for n in "abc"]


@settings(max_examples=50, deadline=None)
@given(
    facts=st.lists(
        st.tuples(
            st.sampled_from(_CONSTS), st.sampled_from(_PROPS), st.sampled_from(_CONSTS)
        ),
        min_size=1,
        max_size=25,
    ),
    atoms=st.lists(
        st.tuples(
            st.sampled_from(_HVARS + _CONSTS),
            st.sampled_from(_PROPS),
            st.sampled_from(_HVARS + _CONSTS),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_plan_equals_engine_property(facts, atoms):
    database = RDFDatabase()
    database.load_facts([Triple(s, p, o) for s, p, o in facts])
    triples = [Triple(s, p, o) for s, p, o in atoms]
    variables = sorted({v for t in triples for v in t.variables()})
    query = BGPQuery(variables[:2] if variables else [], triples)
    plan_rows = compile_query(query, database).execute(database)
    engine_rows = NativeEngine(database).evaluate_relation(query)
    assert set(map(tuple, plan_rows.rows.tolist())) == set(
        map(tuple, engine_rows.rows.tolist())
    )
