"""Unit tests for RDF terms and triples."""

import pytest

from repro.rdf import BlankNode, Literal, Triple, URI, Variable


class TestTermEquality:
    def test_equal_uris(self):
        assert URI("http://a") == URI("http://a")

    def test_distinct_uris(self):
        assert URI("http://a") != URI("http://b")

    def test_kinds_never_equal(self):
        assert URI("a") != Literal("a")
        assert Literal("a") != BlankNode("a")
        assert BlankNode("a") != Variable("a")

    def test_hash_consistency(self):
        assert hash(URI("http://a")) == hash(URI("http://a"))
        assert len({URI("x"), URI("x"), Literal("x")}) == 2

    def test_ordering_within_kind(self):
        assert URI("a") < URI("b")

    def test_ordering_across_kinds(self):
        # URIs < literals < blanks < variables (kind discriminator).
        assert URI("z") < Literal("a")
        assert Literal("z") < BlankNode("a")
        assert BlankNode("z") < Variable("a")

    def test_sorted_terms(self):
        terms = [Variable("v"), URI("u"), Literal("l"), BlankNode("b")]
        kinds = [type(t) for t in sorted(terms)]
        assert kinds == [URI, Literal, BlankNode, Variable]


class TestTermValidation:
    def test_empty_value_rejected(self):
        with pytest.raises(ValueError):
            URI("")

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            URI(42)


class TestTermPredicates:
    def test_is_variable(self):
        assert Variable("x").is_variable
        assert not URI("x").is_variable

    def test_is_blank(self):
        assert BlankNode("b").is_blank
        assert not Literal("b").is_blank

    def test_is_constant(self):
        assert URI("u").is_constant
        assert Literal("l").is_constant
        assert not BlankNode("b").is_constant
        assert not Variable("v").is_constant


class TestSerialization:
    def test_uri_n3(self):
        assert URI("http://a").n3() == "<http://a>"

    def test_literal_n3_escapes(self):
        assert Literal('say "hi"\n').n3() == '"say \\"hi\\"\\n"'

    def test_blank_n3(self):
        assert BlankNode("b1").n3() == "_:b1"

    def test_variable_str(self):
        assert str(Variable("x")) == "?x"


class TestTriple:
    def test_iteration_order(self):
        t = Triple(URI("s"), URI("p"), URI("o"))
        assert [term.value for term in t] == ["s", "p", "o"]

    def test_equality_and_hash(self):
        a = Triple(URI("s"), URI("p"), URI("o"))
        b = Triple(URI("s"), URI("p"), URI("o"))
        assert a == b
        assert len({a, b}) == 1

    def test_is_ground(self):
        assert Triple(URI("s"), URI("p"), Literal("o")).is_ground
        assert not Triple(Variable("s"), URI("p"), URI("o")).is_ground

    def test_blank_nodes_are_ground(self):
        assert Triple(BlankNode("b"), URI("p"), URI("o")).is_ground

    def test_variables(self):
        t = Triple(Variable("x"), URI("p"), Variable("y"))
        assert t.variables() == {Variable("x"), Variable("y")}

    def test_repeated_variable_counts_once(self):
        t = Triple(Variable("x"), URI("p"), Variable("x"))
        assert t.variables() == {Variable("x")}

    def test_rejects_non_terms(self):
        with pytest.raises(TypeError):
            Triple("s", URI("p"), URI("o"))

    def test_ordering(self):
        a = Triple(URI("a"), URI("p"), URI("o"))
        b = Triple(URI("b"), URI("p"), URI("o"))
        assert a < b
