"""Tests for the LUBM-style and DBLP-style generators and workloads."""

import pytest

from repro.datasets import (
    DBLPGenerator,
    DBLPProfile,
    LUBMGenerator,
    dblp,
    dblp_schema,
    dblp_workload,
    lubm_schema,
    lubm_workload,
    motivating_q1,
    motivating_q2,
    ub,
    university_uri,
)
from repro.rdf import RDF_TYPE
from repro.reformulation import Reformulator


class TestLUBMSchema:
    def test_professor_hierarchy(self):
        schema = lubm_schema()
        assert schema.is_subclass(ub("FullProfessor"), ub("Person"))
        assert schema.is_subclass(ub("TeachingAssistant"), ub("Student"))

    def test_degree_subproperties(self):
        schema = lubm_schema()
        assert schema.is_subproperty(ub("doctoralDegreeFrom"), ub("degreeFrom"))
        assert schema.is_subproperty(ub("headOf"), ub("memberOf"))

    def test_domains_closed(self):
        schema = lubm_schema()
        assert ub("Person") in schema.domains(ub("doctoralDegreeFrom"))
        assert ub("Organization") in schema.ranges(ub("headOf"))

    def test_class_count_realistic(self):
        # Univ-Bench has ~43 classes; our RDFS fragment keeps 35+.
        assert len(lubm_schema().classes) >= 35


class TestLUBMGenerator:
    def test_deterministic(self):
        a = sorted(LUBMGenerator(universities=1, seed=3).triples())
        b = sorted(LUBMGenerator(universities=1, seed=3).triples())
        assert a == b

    def test_seed_changes_data(self):
        a = set(LUBMGenerator(universities=1, seed=1).triples())
        b = set(LUBMGenerator(universities=1, seed=2).triples())
        assert a != b

    def test_scales_linearly(self):
        one = sum(1 for _ in LUBMGenerator(universities=1).triples())
        three = sum(1 for _ in LUBMGenerator(universities=3).triples())
        assert 2.5 * one < three < 3.5 * one

    def test_only_most_specific_classes_asserted(self, lubm_db):
        """The generator never asserts superclasses explicitly —
        reasoning has to derive them."""
        type_code = lubm_db.dictionary.lookup(RDF_TYPE)
        for general in ("Person", "Faculty", "Professor", "Student", "Publication"):
            code = lubm_db.dictionary.lookup(ub(general))
            if code is None:
                continue
            assert lubm_db.table.view.pattern_count((None, type_code, code)) == 0

    def test_reasoning_gap_is_large(self, lubm_db):
        saturated = lubm_db.saturated()
        assert len(saturated) > 1.3 * len(lubm_db)

    def test_selective_constants_exist(self, lubm_db):
        dictionary = lubm_db.dictionary
        assert dictionary.lookup(university_uri(0)) is not None
        prop = dictionary.lookup(ub("undergraduateDegreeFrom"))
        assert lubm_db.table.view.pattern_count((None, prop, None)) > 0


class TestDBLPGenerator:
    def test_deterministic(self):
        profile = DBLPProfile(publications=200)
        a = sorted(DBLPGenerator(profile, seed=5).triples())
        b = sorted(DBLPGenerator(profile, seed=5).triples())
        assert a == b

    def test_skew(self, dblp_db):
        """Conference papers outnumber theses by an order of magnitude."""
        type_code = dblp_db.dictionary.lookup(RDF_TYPE)

        def count(kind):
            code = dblp_db.dictionary.lookup(dblp(kind))
            if code is None:
                return 0
            return dblp_db.table.view.pattern_count((None, type_code, code))

        assert count("Inproceedings") > 10 * count("PhdThesis")

    def test_thesis_hierarchy(self):
        schema = dblp_schema()
        assert schema.is_subclass(dblp("PhdThesis"), dblp("Publication"))

    def test_contributor_hierarchy(self):
        schema = dblp_schema()
        assert schema.is_subproperty(dblp("author"), dblp("contributor"))


class TestWorkloads:
    def test_28_lubm_queries(self):
        assert len(lubm_workload()) == 28
        assert len({w.name for w in lubm_workload()}) == 28

    def test_10_dblp_queries(self):
        assert len(dblp_workload()) == 10

    def test_motivating_examples_shapes(self):
        assert len(motivating_q1().query.body) == 3
        assert len(motivating_q2().query.body) == 6

    def test_queries_are_connected(self):
        for entry in lubm_workload() + dblp_workload():
            query = entry.query
            assert query.is_connected(range(len(query.body))), entry.name

    def test_reformulation_size_variety(self, lubm_db):
        """The workload must span small and huge reformulations (Table 4)."""
        reformulator = Reformulator(lubm_db.schema)
        sizes = {
            entry.name: len(reformulator.reformulate(entry.query))
            for entry in lubm_workload()
            if entry.name in ("Q01", "Q05", "Q11", "Q14", "Q26")
        }
        assert sizes["Q11"] <= 3
        assert sizes["Q05"] >= 20

    def test_queries_have_answers(self, lubm_db3):
        """A representative subset yields non-empty answer sets."""
        from repro.answering import QueryAnswerer

        answerer = QueryAnswerer(lubm_db3)
        for name in ("Q01", "Q04", "Q05", "Q08", "Q14", "Q21", "Q26"):
            query = next(w.query for w in lubm_workload() if w.name == name)
            report = answerer.answer(query, strategy="gcov")
            assert report.answer_count > 0, name

    def test_dblp_queries_have_answers(self, dblp_db):
        from repro.answering import QueryAnswerer

        answerer = QueryAnswerer(dblp_db)
        for entry in dblp_workload():
            if entry.name in ("Q01", "Q03", "Q04", "Q07"):
                report = answerer.answer(entry.query, strategy="gcov")
                assert report.answer_count > 0, entry.name

    def test_lookup_helpers(self):
        from repro.datasets import dblp_query, lubm_query

        assert lubm_query("q1").name == "q1"
        assert dblp_query("Q10").arity == 3
        with pytest.raises(KeyError):
            lubm_query("Q99")
