"""Unit tests for the UCQ / JUCQ algebra."""

import pytest

from repro.query import BGPQuery, JUCQ, UCQ, as_jucq
from repro.rdf import Triple, URI, Variable

x, y, z = Variable("x"), Variable("y"), Variable("z")


def u(name):
    return URI(f"http://alg/{name}")


def cq(head, *atoms, name="q"):
    return BGPQuery(head, list(atoms), name=name)


class TestUCQ:
    def test_requires_conjuncts(self):
        with pytest.raises(ValueError):
            UCQ([])

    def test_arity_must_match(self):
        a = cq([x], Triple(x, u("p"), y))
        b = cq([x, y], Triple(x, u("p"), y))
        with pytest.raises(ValueError):
            UCQ([a, b])

    def test_heads_may_differ_in_constants(self):
        a = cq([x, y], Triple(x, u("p"), y))
        b = cq([x, u("C")], Triple(x, u("p"), u("C")))
        assert len(UCQ([a, b])) == 2

    def test_duplicates_removed(self):
        a = cq([x], Triple(x, u("p"), Variable("f1")))
        b = cq([x], Triple(x, u("p"), Variable("f2")))
        assert len(UCQ([a, b])) == 1

    def test_head_defaults_to_first(self):
        a = cq([x], Triple(x, u("p"), y))
        assert UCQ([a]).head == (x,)

    def test_explicit_head(self):
        a = cq([x], Triple(x, u("p"), y))
        ucq = UCQ([a], head=[x])
        assert ucq.head_variables() == (x,)

    def test_iteration(self):
        a = cq([x], Triple(x, u("p"), y))
        b = cq([x], Triple(x, u("q"), y))
        assert set(UCQ([a, b])) == {a, b}

    def test_equality(self):
        a = cq([x], Triple(x, u("p"), y))
        b = cq([x], Triple(x, u("q"), y))
        assert UCQ([a, b]) == UCQ([b, a])


class TestJUCQ:
    def test_requires_operands(self):
        with pytest.raises(ValueError):
            JUCQ([x], [])

    def test_head_must_be_exported(self):
        operand = UCQ([cq([x], Triple(x, u("p"), y))])
        with pytest.raises(ValueError):
            JUCQ([z], [operand])

    def test_constant_head_allowed(self):
        operand = UCQ([cq([x], Triple(x, u("p"), y))])
        j = JUCQ([x, u("C")], [operand])
        assert j.arity == 2

    def test_join_variables(self):
        left = UCQ([cq([x, y], Triple(x, u("p"), y))])
        right = UCQ([cq([y, z], Triple(y, u("q"), z))])
        j = JUCQ([x, z], [left, right])
        assert j.join_variables() == {y: 2}

    def test_total_union_terms(self):
        left = UCQ([cq([x], Triple(x, u("p"), y)), cq([x], Triple(x, u("q"), y))])
        right = UCQ([cq([x], Triple(x, u("r"), y))])
        assert JUCQ([x], [left, right]).total_union_terms() == 3

    def test_wrappers(self):
        q = cq([x], Triple(x, u("p"), y))
        j = as_jucq(q)
        assert len(j) == 1 and list(j.operands[0]) == [q]
        assert j.head == (x,)
        assert as_jucq(q) is j  # cached on the immutable query
        assert as_jucq(j) is j
        union = UCQ([q])
        assert as_jucq(union).operands == (union,)
        with pytest.raises(TypeError):
            as_jucq("q(x) :- x p y")
