"""Tests for empty-answer subquery pruning (the reference-[11] technique)."""

import pytest

from repro.answering import QueryAnswerer
from repro.cost import CardinalityEstimator
from repro.datasets import lubm_query, motivating_q1
from repro.query import BGPQuery, UCQ, evaluate
from repro.rdf import RDF_TYPE, Triple, URI, Variable
from repro.reasoning import saturate
from repro.reformulation import (
    Reformulator,
    prune_empty_conjuncts,
    prune_jucq,
    scq_reformulation,
)
from repro.storage import RDFDatabase

x, y = Variable("x"), Variable("y")


def u(name):
    return URI(f"http://pr2/{name}")


@pytest.fixture()
def db():
    database = RDFDatabase()
    database.load_facts(
        [Triple(u(f"s{i}"), u("present"), u("o")) for i in range(5)]
    )
    return database


class TestPruning:
    def test_empty_atom_conjunct_dropped(self, db):
        estimator = CardinalityEstimator(db)
        alive = BGPQuery([x], [Triple(x, u("present"), y)])
        dead = BGPQuery([x], [Triple(x, u("absent"), y)])
        pruned = prune_empty_conjuncts(UCQ([alive, dead]), estimator)
        assert set(pruned) == {alive}

    def test_constant_conjuncts_kept(self, db):
        estimator = CardinalityEstimator(db)
        constant = BGPQuery([u("k")], [])
        pruned = prune_empty_conjuncts(UCQ([constant]), estimator)
        assert set(pruned) == {constant}

    def test_all_pruned_keeps_placeholder(self, db):
        estimator = CardinalityEstimator(db)
        dead = BGPQuery([x], [Triple(x, u("absent"), y)])
        pruned = prune_empty_conjuncts(UCQ([dead]), estimator)
        assert len(pruned) == 1  # well-formed, evaluates to empty

    def test_jucq_pruning(self, db):
        estimator = CardinalityEstimator(db)
        alive = UCQ([BGPQuery([x], [Triple(x, u("present"), y)])])
        mixed = UCQ(
            [
                BGPQuery([x], [Triple(x, u("present"), y)]),
                BGPQuery([x], [Triple(x, u("absent"), y)]),
            ]
        )
        from repro.query import JUCQ

        pruned = prune_jucq(JUCQ([x], [alive, mixed]), estimator)
        assert [len(op) for op in pruned] == [1, 1]


class TestStrategy:
    def test_pruned_ucq_same_answers(self, lubm_db3):
        answerer = QueryAnswerer(lubm_db3)
        query = motivating_q1().query
        full = answerer.answer(query, strategy="ucq")
        pruned = answerer.answer(query, strategy="pruned-ucq")
        assert pruned.answers == full.answers
        assert pruned.reformulation_terms <= full.reformulation_terms

    def test_pruning_shrinks_q1(self, lubm_db3):
        """Many of q1's 2k+ union terms bind classes/properties with no
        instances; pruning removes them."""
        answerer = QueryAnswerer(lubm_db3)
        query = motivating_q1().query
        full, _ = answerer.plan(query, "ucq")
        pruned, _ = answerer.plan(query, "pruned-ucq")
        assert pruned.total_union_terms() < full.total_union_terms() * 0.8

    def test_matches_saturation(self, lubm_db3):
        answerer = QueryAnswerer(lubm_db3)
        query = lubm_query("Q05")
        expected = evaluate(
            query, saturate(lubm_db3.facts_graph(), lubm_db3.schema)
        )
        assert answerer.answer(query, strategy="pruned-ucq").answers == expected
