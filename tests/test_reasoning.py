"""Tests for RDFS entailment rules and saturation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import RDFGraph, RDFSchema, RDF_TYPE, Triple, URI
from repro.reasoning import (
    entail_from_triple,
    explain_entailment,
    saturate,
    saturate_in_place,
)
from repro.reasoning.encoded import Layout, derive
from repro.storage import RDFDatabase

from conftest import ex


def u(name):
    return URI(f"http://r/{name}")


@pytest.fixture()
def schema():
    s = RDFSchema()
    s.add_subclass(u("A"), u("B"))
    s.add_subclass(u("B"), u("C"))
    s.add_subproperty(u("p"), u("q"))
    s.add_domain(u("p"), u("A"))
    s.add_range(u("q"), u("B"))
    return s


class TestRules:
    def test_rdfs9_transitive(self, schema):
        got = set(entail_from_triple(Triple(u("i"), RDF_TYPE, u("A")), schema))
        assert got == {
            Triple(u("i"), RDF_TYPE, u("B")),
            Triple(u("i"), RDF_TYPE, u("C")),
        }

    def test_rdfs7(self, schema):
        got = set(entail_from_triple(Triple(u("i"), u("p"), u("j")), schema))
        assert Triple(u("i"), u("q"), u("j")) in got

    def test_rdfs2_domain(self, schema):
        got = set(entail_from_triple(Triple(u("i"), u("p"), u("j")), schema))
        # domain(p) = A, widened to B and C by the closure.
        assert Triple(u("i"), RDF_TYPE, u("A")) in got
        assert Triple(u("i"), RDF_TYPE, u("C")) in got

    def test_rdfs3_range_via_subproperty(self, schema):
        # range(q) = B is inherited by p ⊑ q.
        got = set(entail_from_triple(Triple(u("i"), u("p"), u("j")), schema))
        assert Triple(u("j"), RDF_TYPE, u("B")) in got

    def test_unknown_property_entails_nothing(self, schema):
        assert list(entail_from_triple(Triple(u("i"), u("zz"), u("j")), schema)) == []

    def test_explain_labels(self, schema):
        labelled = explain_entailment(Triple(u("i"), u("p"), u("j")), schema)
        rules = {name for name, _ in labelled}
        assert rules == {"rdfs7", "rdfs2", "rdfs3"}


class TestSaturation:
    def test_paper_example(self, book_schema, book_facts):
        """Figure 3: the implicit (dashed) triples appear in the saturation."""
        graph = RDFGraph(book_facts)
        sat = saturate(graph, book_schema)
        doi1, b1 = ex("doi1"), ex("b1")
        assert Triple(doi1, ex("hasAuthor"), b1) in sat
        assert Triple(doi1, RDF_TYPE, ex("Publication")) in sat
        assert Triple(b1, RDF_TYPE, ex("Person")) in sat
        assert len(sat) == len(graph) + 3

    def test_original_untouched(self, schema):
        graph = RDFGraph([Triple(u("i"), RDF_TYPE, u("A"))])
        saturate(graph, schema)
        assert len(graph) == 1

    def test_in_place_returns_added(self, schema):
        graph = RDFGraph([Triple(u("i"), RDF_TYPE, u("A"))])
        assert saturate_in_place(graph, schema) == 2

    def test_idempotent(self, schema):
        graph = RDFGraph([Triple(u("i"), u("p"), u("j"))])
        once = saturate(graph, schema)
        twice = saturate(once, schema)
        assert once == twice

    def test_include_schema_closure(self, schema):
        graph = RDFGraph()
        sat = saturate(graph, schema, include_schema_closure=True)
        from repro.rdf import RDFS_SUBCLASS

        assert Triple(u("A"), RDFS_SUBCLASS, u("C")) in sat

    def test_empty_graph(self, schema):
        assert len(saturate(RDFGraph(), schema)) == 0


class TestEncodedSaturation:
    def test_matches_reference_on_lubm(self, lubm_db):
        fast = derive(lubm_db, Layout.SATURATED).database
        reference = saturate(lubm_db.facts_graph(), lubm_db.schema)
        assert len(fast) == len(reference)
        assert fast.facts_graph() == reference

    def test_database_saturated_shortcut(self, lubm_db):
        assert len(lubm_db.saturated()) == len(derive(lubm_db, Layout.SATURATED).database)


# ----------------------------------------------------------------------
# Property: encoded saturation ≡ reference saturation on random inputs.
# ----------------------------------------------------------------------
_CLASSES = [u(f"C{i}") for i in range(5)]
_PROPERTIES = [u(f"P{i}") for i in range(4)]
_INDIVIDUALS = [u(f"i{i}") for i in range(8)]


@st.composite
def _random_schema(draw):
    schema = RDFSchema()
    for _ in range(draw(st.integers(0, 5))):
        a, b = draw(st.sampled_from(_CLASSES)), draw(st.sampled_from(_CLASSES))
        schema.add_subclass(a, b)
    for _ in range(draw(st.integers(0, 3))):
        a, b = draw(st.sampled_from(_PROPERTIES)), draw(st.sampled_from(_PROPERTIES))
        schema.add_subproperty(a, b)
    for _ in range(draw(st.integers(0, 3))):
        schema.add_domain(draw(st.sampled_from(_PROPERTIES)), draw(st.sampled_from(_CLASSES)))
    for _ in range(draw(st.integers(0, 3))):
        schema.add_range(draw(st.sampled_from(_PROPERTIES)), draw(st.sampled_from(_CLASSES)))
    return schema


@st.composite
def _random_facts(draw):
    facts = []
    for _ in range(draw(st.integers(1, 25))):
        if draw(st.booleans()):
            facts.append(
                Triple(
                    draw(st.sampled_from(_INDIVIDUALS)),
                    RDF_TYPE,
                    draw(st.sampled_from(_CLASSES)),
                )
            )
        else:
            facts.append(
                Triple(
                    draw(st.sampled_from(_INDIVIDUALS)),
                    draw(st.sampled_from(_PROPERTIES)),
                    draw(st.sampled_from(_INDIVIDUALS)),
                )
            )
    return facts


@settings(max_examples=60, deadline=None)
@given(schema=_random_schema(), facts=_random_facts())
def test_encoded_equals_reference_saturation(schema, facts):
    reference = saturate(RDFGraph(facts), schema)
    db = RDFDatabase(schema=schema)
    db.load_facts(facts)
    assert derive(db, Layout.SATURATED).database.facts_graph() == reference
