"""Tests for the cardinality estimator."""

import pytest

from repro.cost import CardinalityEstimator
from repro.query import BGPQuery, JUCQ, UCQ
from repro.rdf import RDF_TYPE, Triple, URI, Variable
from repro.storage import RDFDatabase

x, y, z = Variable("x"), Variable("y"), Variable("z")


def u(name):
    return URI(f"http://ca/{name}")


@pytest.fixture(scope="module")
def db():
    facts = []
    # 20 p-triples with 4 distinct objects; 5 q-triples; 8 type triples.
    for i in range(20):
        facts.append(Triple(u(f"s{i}"), u("p"), u(f"o{i % 4}")))
    for i in range(5):
        facts.append(Triple(u(f"o{i % 4}"), u("q"), u(f"t{i}")))
    for i in range(8):
        facts.append(Triple(u(f"s{i}"), RDF_TYPE, u("C")))
    database = RDFDatabase()
    database.load_facts(facts)
    return database


@pytest.fixture(scope="module")
def estimator(db):
    return CardinalityEstimator(db)


class TestAtoms:
    def test_atom_count_exact(self, estimator):
        assert estimator.atom_count(Triple(x, u("p"), y)) == 20
        assert estimator.atom_count(Triple(x, u("q"), y)) == 5
        assert estimator.atom_count(Triple(x, RDF_TYPE, u("C"))) == 8

    def test_unknown_constant_counts_zero(self, estimator):
        assert estimator.atom_count(Triple(x, u("nope"), y)) == 0

    def test_atom_pattern_none_for_unknown(self, estimator):
        assert estimator.atom_pattern(Triple(x, u("nope"), y)) is None

    def test_atom_distinct(self, estimator):
        assert estimator.atom_distinct(Triple(x, u("p"), y), x) == 20
        assert estimator.atom_distinct(Triple(x, u("p"), y), y) == 4

    def test_atom_distinct_repeated_var_takes_min(self, estimator):
        assert estimator.atom_distinct(Triple(x, u("p"), x), x) == 4


class TestCQ:
    def test_single_atom_exact(self, estimator):
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        assert estimator.cq_cardinality(q) == 20

    def test_empty_body_is_one(self, estimator):
        assert estimator.cq_cardinality(BGPQuery([u("k")], [])) == 1.0

    def test_zero_propagates(self, estimator):
        q = BGPQuery([x], [Triple(x, u("p"), y), Triple(x, u("nope"), z)])
        assert estimator.cq_cardinality(q) == 0.0

    def test_join_estimate_reasonable(self, estimator):
        # p ⋈ q on the 4 shared o-values: |p|*|q| / max-distinct = 20*5/4 = 25.
        q = BGPQuery([x, z], [Triple(x, u("p"), y), Triple(y, u("q"), z)])
        estimate = estimator.cq_cardinality(q)
        assert 5 <= estimate <= 30

    def test_projection_cap(self, estimator):
        # Projecting on y alone: at most 4 distinct values.
        q = BGPQuery([y], [Triple(x, u("p"), y)])
        assert estimator.cq_cardinality(q) <= 4

    def test_boolean_capped_at_one(self, estimator):
        q = BGPQuery([], [Triple(x, u("p"), y)])
        assert estimator.cq_cardinality(q) <= 1.0

    def test_scan_size(self, estimator):
        q = BGPQuery([x], [Triple(x, u("p"), y), Triple(x, RDF_TYPE, u("C"))])
        assert estimator.ucq_scan_size(UCQ([q])) == 28

    def test_memoized(self, db):
        # A conjunct is computed afresh from its atoms' memo entries,
        # which a repeated question reads rather than probing again.
        est = CardinalityEstimator(db)
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        first = est.cq_cardinality(q)
        entry = est._memo.atoms[q.body[0]]
        assert est.cq_cardinality(q) == first
        assert len(est._memo.atoms) == 1 and est._memo.atoms[q.body[0]] is entry


class TestUCQAndJUCQ:
    def test_ucq_sums(self, estimator):
        a = BGPQuery([x], [Triple(x, u("p"), y)])
        b = BGPQuery([x], [Triple(x, u("q"), y)])
        total = estimator.ucq_cardinality(UCQ([a, b]))
        single = estimator.cq_cardinality(a) + estimator.cq_cardinality(b)
        assert total == single

    def test_ucq_scan_size(self, estimator):
        a = BGPQuery([x], [Triple(x, u("p"), y)])
        b = BGPQuery([x], [Triple(x, u("q"), y)])
        assert estimator.ucq_scan_size(UCQ([a, b])) == 25

    def test_jucq_zero_operand(self, estimator):
        dead = UCQ([BGPQuery([x], [Triple(x, u("nope"), y)])])
        alive = UCQ([BGPQuery([x], [Triple(x, u("p"), y)])])
        assert estimator.jucq_cardinality(JUCQ([x], [dead, alive])) == 0.0

    def test_jucq_join_shrinks_product(self, estimator):
        left = UCQ([BGPQuery([x, y], [Triple(x, u("p"), y)])])
        right = UCQ([BGPQuery([y, z], [Triple(y, u("q"), z)])])
        j = JUCQ([x, z], [left, right])
        product = estimator.ucq_cardinality(left) * estimator.ucq_cardinality(right)
        assert estimator.jucq_cardinality(j) < product

    def test_dispatch(self, estimator):
        q = BGPQuery([x, y], [Triple(x, u("p"), y)])
        assert estimator.estimate(q) == 20
        assert estimator.estimate(UCQ([q])) == 20
        with pytest.raises(TypeError):
            estimator.estimate(object())
