"""Tests for cover-based JUCQ reformulation — Theorem 3.1 in executable form."""

import pytest

from repro.query import BGPQuery, evaluate
from repro.query.algebra import ucq_as_jucq
from repro.rdf import RDFGraph, RDF_TYPE, Triple, URI, Variable
from repro.reasoning import saturate
from repro.reformulation import (
    Reformulator,
    enumerate_covers,
    jucq_for_cover,
    scq_cover,
    scq_reformulation,
    ucq_cover,
    ucq_reformulation,
)

from conftest import ex

x, y, n = Variable("x"), Variable("y"), Variable("n")


@pytest.fixture()
def graph(book_facts):
    extra = [
        Triple(ex("doi2"), ex("hasAuthor"), ex("b2")),
        Triple(ex("b2"), ex("hasName"), ex("name2")),
        Triple(ex("doi2"), ex("publishedIn"), ex("year2")),
    ]
    return RDFGraph(list(book_facts) + extra)


@pytest.fixture()
def query():
    return BGPQuery(
        [x, n],
        [
            Triple(x, RDF_TYPE, ex("Publication")),
            Triple(x, ex("hasAuthor"), y),
            Triple(y, ex("hasName"), n),
        ],
    )


@pytest.fixture()
def reformulator(book_schema):
    return Reformulator(book_schema)


class TestTheorem31:
    def test_every_cover_equals_saturation(self, graph, query, book_schema, reformulator):
        expected = evaluate(query, saturate(graph, book_schema))
        assert expected  # the fixture data makes the query non-trivial
        for cover in enumerate_covers(query):
            jucq = jucq_for_cover(query, cover, reformulator)
            assert evaluate(jucq, graph) == expected, cover

    def test_ucq_strategy(self, graph, query, book_schema, reformulator):
        expected = evaluate(query, saturate(graph, book_schema))
        ucq = ucq_reformulation(query, reformulator)
        assert evaluate(ucq, graph) == expected

    def test_scq_strategy(self, graph, query, book_schema, reformulator):
        expected = evaluate(query, saturate(graph, book_schema))
        scq = scq_reformulation(query, reformulator)
        assert len(scq) == len(query.body)
        assert evaluate(scq, graph) == expected

    def test_jucq_head_matches_query(self, query, reformulator):
        jucq = jucq_for_cover(query, ucq_cover(query), reformulator)
        assert jucq.head == query.head


class TestShapes:
    def test_ucq_as_jucq_single_operand(self, query, reformulator):
        jucq = ucq_as_jucq(ucq_reformulation(query, reformulator))
        assert len(jucq) == 1

    def test_scq_operands_are_per_atom(self, query, reformulator):
        jucq = scq_reformulation(query, reformulator)
        assert all(
            all(len(cq.body) <= 1 for cq in operand) for operand in jucq
        )

    def test_reformulation_size(self, query, book_schema):
        # A *raw*-shape invariant: minimization can shrink the one-block
        # UCQ across atoms while per-atom SCQ fragments stay put.
        raw = Reformulator(book_schema, minimize=False)
        ucq_j = ucq_as_jucq(ucq_reformulation(query, raw))
        scq_j = scq_reformulation(query, raw)
        # SCQ never exceeds UCQ in union-term count (no cross products).
        assert scq_j.total_union_terms() <= ucq_j.total_union_terms() * len(query.body)
        assert ucq_j.total_union_terms() == len(ucq_j.operands[0])

    def test_validation_rejects_bad_cover(self, query, reformulator):
        bad = frozenset({frozenset({0})})
        with pytest.raises(ValueError):
            jucq_for_cover(query, bad, reformulator)
