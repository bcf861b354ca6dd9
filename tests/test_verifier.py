"""Mutation-style tests for the IR verifier (DESIGN.md §8).

Each test corrupts one IR — drops a head variable, breaks pairwise
incomparability, narrows a template's members table, mismatches a union
arity — and asserts the *exact* rule code the verifier reports.  A final
sweep runs every LUBM/DBLP workload query through the full pipeline
under IR verification and expects zero diagnostics (no false positives).
"""

from __future__ import annotations

import pytest

from repro.analysis import (
    CoverValidationError,
    IRVerificationError,
    Severity,
    check_bgp,
    check_cover,
    check_jucq,
    check_sql,
    check_templates,
    verify_pipeline,
)
from repro.answering import QueryAnswerer
from repro.datasets import dblp_workload, lubm_workload, motivating_q1
from repro.engine import EngineFailure, NativeEngine, SQLiteEngine, to_sql
from repro.query.algebra import JUCQ, UCQ
from repro.query.bgp import BGPQuery
from repro.query.templates import Template
from repro.rdf import BlankNode, Triple, URI, Variable
from repro.reformulation import Reformulator, jucq_for_cover, validate_cover


def ex(name: str) -> URI:
    return URI(f"http://ex/{name}")


x, y, z = Variable("x"), Variable("y"), Variable("z")


@pytest.fixture()
def chain() -> BGPQuery:
    """q(x) :- x p y . y q z  (a 2-atom chain)."""
    return BGPQuery([x], [Triple(x, ex("p"), y), Triple(y, ex("q"), z)])


@pytest.fixture()
def triangle() -> BGPQuery:
    """q(x) :- x p y . y q z . z r x."""
    return BGPQuery(
        [x],
        [Triple(x, ex("p"), y), Triple(y, ex("q"), z), Triple(z, ex("r"), x)],
    )


def codes(findings) -> set:
    return {d.code for d in findings}


# ----------------------------------------------------------------------
# Stage Q: BGPQuery
# ----------------------------------------------------------------------
class TestBGPStage:
    def test_wellformed_query_is_clean(self, chain):
        assert check_bgp(chain) == []

    def test_dropped_head_variable_is_q01(self):
        # _raw skips the safety check, as reformulation's hot path does;
        # the verifier must catch the resulting unsafe head.
        corrupt = BGPQuery._raw(
            (Variable("missing"),), (Triple(x, ex("p"), y),), "bad"
        )
        findings = check_bgp(corrupt)
        assert codes(findings) == {"IR-Q01"}
        assert findings[0].severity == Severity.ERROR

    def test_surviving_blank_node_is_q02(self):
        corrupt = BGPQuery._raw(
            (x,), (Triple(x, ex("p"), BlankNode("b0")),), "bad"
        )
        assert codes(check_bgp(corrupt)) == {"IR-Q02"}

    def test_constructor_still_rejects_unsafe_queries(self):
        with pytest.raises(ValueError):
            BGPQuery([Variable("nowhere")], [Triple(x, ex("p"), y)])


# ----------------------------------------------------------------------
# Stage C: covers (Definition 3.3)
# ----------------------------------------------------------------------
class TestCoverStage:
    def test_valid_cover_is_clean(self, triangle):
        cover = frozenset({frozenset({0, 1}), frozenset({1, 2})})
        assert check_cover(triangle, cover) == []

    def test_empty_cover_is_c01(self, chain):
        assert codes(check_cover(chain, frozenset())) == {"IR-C01"}

    def test_empty_fragment_is_c02(self, chain):
        cover = frozenset({frozenset(), frozenset({0, 1})})
        assert "IR-C02" in codes(check_cover(chain, cover))

    def test_out_of_range_fragment_is_c03(self, chain):
        cover = frozenset({frozenset({0, 1, 7})})
        assert "IR-C03" in codes(check_cover(chain, cover))

    def test_disconnected_fragment_is_c04(self, triangle):
        # Atoms t1 (x p y) and ... a fragment {t1} ∪ {t3} is connected
        # via x, so use a 4-atom query with two islands in one fragment.
        island = BGPQuery(
            [x],
            [
                Triple(x, ex("p"), y),
                Triple(Variable("a"), ex("q"), Variable("b")),
                Triple(y, ex("r"), Variable("a")),
            ],
        )
        cover = frozenset({frozenset({0, 1}), frozenset({1, 2})})
        findings = check_cover(island, cover)
        assert "IR-C04" in codes(findings)

    def test_missing_atom_is_c05(self, chain):
        cover = frozenset({frozenset({0})})
        findings = check_cover(chain, cover)
        assert codes(findings) == {"IR-C05"}
        # The bugfix: messages carry the atom's triple pattern, not
        # just its index.
        assert "http://ex/q" in findings[0].message

    def test_broken_incomparability_is_c06(self, chain):
        cover = frozenset({frozenset({0}), frozenset({0, 1})})
        assert "IR-C06" in codes(check_cover(chain, cover))

    def test_join_stranded_fragment_is_c07(self):
        disconnected = BGPQuery(
            [x],
            [Triple(x, ex("p"), y), Triple(Variable("a"), ex("q"), Variable("b"))],
        )
        cover = frozenset({frozenset({0}), frozenset({1})})
        assert "IR-C07" in codes(check_cover(disconnected, cover))

    def test_validate_cover_raises_cover_validation_error(self, chain):
        with pytest.raises(CoverValidationError) as excinfo:
            validate_cover(chain, frozenset({frozenset({0})}))
        assert excinfo.value.codes == ("IR-C05",)
        # Backwards compatibility: it is still a ValueError.
        assert isinstance(excinfo.value, ValueError)

    def test_diagnostics_are_deterministically_ordered(self, triangle):
        cover = frozenset(
            {frozenset({0}), frozenset({0, 1}), frozenset({1, 2})}
        )
        first = [d.format() for d in check_cover(triangle, cover)]
        second = [d.format() for d in check_cover(triangle, cover)]
        assert first == second


# ----------------------------------------------------------------------
# Stage J: JUCQ structure (Definition 3.4)
# ----------------------------------------------------------------------
class TestJUCQStage:
    def make_jucq(self, query):
        reformulator = Reformulator(_empty_schema())
        cover = frozenset({frozenset({0}), frozenset({1})})
        return cover, jucq_for_cover(query, cover, reformulator)

    def test_wellformed_jucq_is_clean(self, chain):
        cover, jucq = self.make_jucq(chain)
        assert check_jucq(jucq, query=chain, cover=cover) == []

    def test_unexported_head_variable_is_j01(self, chain):
        operand = UCQ([BGPQuery([y], [Triple(y, ex("q"), z)])])
        # Bypass the JUCQ constructor's own guard to simulate corruption.
        jucq = JUCQ.__new__(JUCQ)
        jucq.head = (x,)
        jucq.operands = (operand,)
        jucq.name = "bad"
        assert "IR-J01" in codes(check_jucq(jucq))

    def test_empty_operand_is_j02(self, chain):
        operand = UCQ([BGPQuery([x], [Triple(x, ex("p"), y)])])
        operand.cqs = ()  # corrupt: drained by a broken pruning pass
        jucq = JUCQ.__new__(JUCQ)
        jucq.head = (x,)
        jucq.operands = (operand,)
        jucq.name = "bad"
        assert "IR-J02" in codes(check_jucq(jucq))

    def test_union_arity_mismatch_is_j03(self):
        wide = BGPQuery([x, y], [Triple(x, ex("p"), y)])
        narrow = BGPQuery([x], [Triple(x, ex("p"), y)])
        operand = UCQ([wide])
        operand.cqs = (wide, narrow)  # corrupt: smuggle in a misfit
        jucq = JUCQ.__new__(JUCQ)
        jucq.head = (x, y)
        jucq.operands = (operand,)
        jucq.name = "bad"
        assert "IR-J03" in codes(check_jucq(jucq))

    def test_wrong_operand_head_is_j04(self, chain):
        cover, jucq = self.make_jucq(chain)
        # Drop the shared join variable y from the first operand's head:
        # Definition 3.4 requires distinguished-plus-shared variables.
        first = jucq.operands[0]
        truncated = UCQ(
            [BGPQuery([x], [cq.body[0]], name=cq.name) for cq in first.cqs],
            name=first.name,
        )
        corrupt = JUCQ.__new__(JUCQ)
        corrupt.head = jucq.head
        corrupt.operands = (truncated,) + jucq.operands[1:]
        corrupt.name = jucq.name
        assert "IR-J04" in codes(check_jucq(corrupt, query=chain, cover=cover))

    def test_operand_count_mismatch_is_j05(self, chain):
        cover, jucq = self.make_jucq(chain)
        corrupt = JUCQ.__new__(JUCQ)
        corrupt.head = jucq.head
        corrupt.operands = jucq.operands[:1]
        corrupt.name = jucq.name
        assert "IR-J05" in codes(check_jucq(corrupt, query=chain, cover=cover))

    def test_cartesian_operand_join_is_j06(self):
        left = UCQ([BGPQuery([x], [Triple(x, ex("p"), y)])])
        right = UCQ([BGPQuery([z], [Triple(z, ex("q"), Variable("w"))])])
        jucq = JUCQ([x, z], [left, right], name="cross")
        assert "IR-J06" in codes(check_jucq(jucq))


# ----------------------------------------------------------------------
# Stage T: the plan NativeEngine runs — its templates (DESIGN.md §18)
# ----------------------------------------------------------------------
def typed_union() -> UCQ:
    """Three terms, one template: atom 0 tagged, one varying head constant."""
    return UCQ(
        [
            BGPQuery([x, ex("A")], [Triple(x, ex("type"), ex("A"))]),
            BGPQuery([x, ex("B")], [Triple(x, ex("type"), ex("B"))]),
            BGPQuery([x, ex("B")], [Triple(x, ex("type"), ex("C"))]),
        ],
        name="typed",
    )


def corrupted(ucq: UCQ, **changes) -> UCQ:
    """``ucq`` whose one template has ``changes`` applied."""
    (template,) = ucq.templates()
    fields = {name: getattr(template, name) for name in Template.__slots__}
    fields.update(changes)
    ucq._templates = (Template(**fields),)
    return ucq


class TestPlanStage:
    def test_wellformed_templates_are_clean(self):
        ucq = typed_union()
        (template,) = ucq.templates()
        assert template.tagged == (0,) and len(template.head_constants) == 1
        assert check_templates(ucq) == []

    def test_unbound_head_variable_is_t01(self):
        ucq = corrupted(typed_union(), head=("ghost", 1))
        assert codes(check_templates(ucq)) == {"IR-T01"}

    def test_members_width_is_t02(self):
        ucq = typed_union()
        narrow = ucq.templates()[0].members[:, :1]
        assert codes(check_templates(corrupted(ucq, members=narrow))) == {"IR-T02"}

    def test_out_of_range_tag_is_t03(self):
        ucq = typed_union()
        members = ucq.templates()[0].members.copy()
        members[0, 0] = 7  # atom 0 has three patterns
        assert codes(check_templates(corrupted(ucq, members=members))) == {"IR-T03"}

    def test_out_of_range_head_constant_is_t03(self):
        ucq = corrupted(typed_union(), head_constants=((ex("A"),),))
        assert codes(check_templates(ucq)) == {"IR-T03"}

    def test_template_sizes_are_t04(self):
        ucq = corrupted(typed_union(), size=2)
        assert codes(check_templates(ucq)) == {"IR-T04"}

    def test_head_width_is_t05(self):
        ucq = corrupted(typed_union(), head=("v0",))
        assert codes(check_templates(ucq)) == {"IR-T05"}

    def test_pipeline_raises_on_a_corrupt_template(self):
        query = BGPQuery([x], [Triple(x, ex("type"), y)])
        ucq = corrupted(typed_union(), size=5)
        with pytest.raises(IRVerificationError) as excinfo:
            verify_pipeline(query, ucq)
        assert excinfo.value.codes == ("IR-T04",)

    def test_compiled_workload_plans_are_clean(self, lubm_db):
        answerer = QueryAnswerer(lubm_db)
        for entry in list(lubm_workload())[:6]:
            planned, _ = answerer.plan(entry.query, "gcov")
            for operand in planned:
                assert check_templates(operand) == []


# ----------------------------------------------------------------------
# Stage S: generated SQL
# ----------------------------------------------------------------------
class TestSQLStage:
    def test_generated_sql_is_clean(self, lubm_db):
        answerer = QueryAnswerer(lubm_db)
        entry = motivating_q1()
        planned, _ = answerer.plan(entry.query, "gcov")
        sql = to_sql(planned, lubm_db.dictionary)
        assert check_sql(sql) == []

    def test_unknown_alias_is_s01(self):
        sql = "SELECT t9.s AS c0 FROM triples t0 WHERE t0.p = 5"
        assert "IR-S01" in codes(check_sql(sql))

    def test_accidental_cross_join_is_s02(self):
        sql = (
            "SELECT t0.s AS c0 FROM triples t0, triples t1 "
            "WHERE t0.p = 5 AND t1.p = 6"
        )
        assert "IR-S02" in codes(check_sql(sql))
        assert check_sql(sql, allow_cross=True) == []

    def test_joined_tables_are_not_cross(self):
        sql = (
            "SELECT t0.s AS c0 FROM triples t0, triples t1 "
            "WHERE t0.o = t1.s AND t1.p = 6"
        )
        assert check_sql(sql) == []

    def test_missing_column_is_s03(self):
        sql = "SELECT t0.q AS c0 FROM triples t0"
        assert "IR-S03" in codes(check_sql(sql))

    def test_derived_table_columns_are_scoped(self):
        sql = (
            "SELECT u0.x AS c0\n"
            "FROM (\nSELECT t0.s AS x FROM triples t0 WHERE t0.p = 1\n) u0"
        )
        assert check_sql(sql) == []
        bad = sql.replace("u0.x", "u0.y")
        assert "IR-S03" in codes(check_sql(bad))

    def test_unsatisfiable_conjunct_skips_cross_check(self):
        sql = "SELECT t0.s AS c0 FROM triples t0, triples t1 WHERE 0"
        assert check_sql(sql) == []


# ----------------------------------------------------------------------
# End-to-end: the answering pipeline under verify_ir
# ----------------------------------------------------------------------
ALL_STRATEGIES = (
    "ucq", "pruned-ucq", "scq", "ecov", "gcov", "saturation", "litemat"
)


class TestPipelineVerification:
    @pytest.mark.parametrize("entry", list(lubm_workload()), ids=lambda e: e.name)
    def test_lubm_workload_has_no_false_positives(self, lubm_db, entry):
        """Acceptance: the whole LUBM workload passes verify_ir cleanly."""
        answerer = QueryAnswerer(lubm_db, verify_ir=True)
        planned, search = answerer.plan(entry.query, "gcov")
        verify_pipeline(
            entry.query,
            planned,
            cover=None if search is None else search.cover,
            database=lubm_db,
        )

    @pytest.mark.parametrize("strategy", ALL_STRATEGIES)
    def test_all_strategies_answer_under_verification(self, lubm_db, strategy):
        # Both engines: the template stage checks what the native one
        # runs, the SQL stage what SQLite runs.
        entry = motivating_q1()
        baseline = QueryAnswerer(lubm_db).answer(entry.query, strategy=strategy)
        with SQLiteEngine(lubm_db) as sqlite:
            for engine in (NativeEngine(lubm_db), sqlite):
                answerer = QueryAnswerer(lubm_db, engine=engine, verify_ir=True)
                with answerer:
                    try:
                        verified = answerer.answer(entry.query, strategy=strategy)
                    except EngineFailure as failure:
                        # Verified, then over SQLite's 500-term compound
                        # SELECT: the paper's "giant UCQs break the RDBMS".
                        assert "too many terms" in str(failure), failure
                        continue
                assert verified.answers == baseline.answers, engine.name

    def test_dblp_workload_plans_verify(self, dblp_db):
        answerer = QueryAnswerer(dblp_db, verify_ir=True)
        for entry in dblp_workload():
            planned, search = answerer.plan(entry.query, "gcov")
            verify_pipeline(
                entry.query,
                planned,
                cover=None if search is None else search.cover,
                database=dblp_db,
            )

    def test_verification_failure_surfaces_rule_code(self, lubm_db):
        corrupt = BGPQuery._raw((Variable("ghost"),), (Triple(x, ex("p"), y),), "bad")
        answerer = QueryAnswerer(lubm_db, verify_ir=True)
        with pytest.raises(IRVerificationError) as excinfo:
            answerer.answer(corrupt, strategy="ucq")
        assert "IR-Q01" in excinfo.value.codes


def _empty_schema():
    from repro.rdf import RDFSchema

    return RDFSchema()
