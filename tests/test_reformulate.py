"""Tests for CQ → UCQ reformulation, including the golden equivalence:

    evaluate(reformulate(q, S), G)  ==  evaluate(q, saturate(G, S))

for random schemas S, graphs G and queries q — the defining property of
reformulation-based query answering (paper Section 2.3).
"""

from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import dblp_workload, lubm_workload
from repro.query import BGPQuery, evaluate
from repro.rdf import (
    RDFGraph,
    RDFSchema,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASS,
    RDFS_SUBPROPERTY,
    RDF_TYPE,
    Triple,
    URI,
    Variable,
)
from repro.reasoning import saturate
from repro.reformulation import ReformulationLimitExceeded, Reformulator, reformulate
from repro.reformulation.reformulate import _Factors

from conftest import ex

x, y, z = Variable("x"), Variable("y"), Variable("z")


class TestPaperExample4:
    """Example 4: the reformulation of q(x, y) :- x rdf:type y."""

    @pytest.fixture()
    def ucq(self, book_schema):
        return reformulate(BGPQuery([x, y], [Triple(x, RDF_TYPE, y)]), book_schema)

    def test_eleven_terms(self, ucq):
        assert len(ucq) == 11

    def test_contains_original(self, ucq):
        assert BGPQuery([x, y], [Triple(x, RDF_TYPE, y)]) in set(ucq)

    def test_instantiations_present(self, ucq):
        heads = {cq.head[1] for cq in ucq}
        assert heads == {y, ex("Book"), ex("Publication"), ex("Person")}

    def test_domain_evidence(self, ucq):
        # (2): q(x, Book) :- x writtenBy z.
        shapes = {
            (cq.head[1], cq.body[0].p)
            for cq in ucq
            if len(cq.body) == 1 and cq.body[0].s == x
        }
        assert (ex("Book"), ex("writtenBy")) in shapes
        assert (ex("Book"), ex("hasAuthor")) in shapes

    def test_range_evidence(self, ucq):
        # (9)/(10): q(x, Person) :- z writtenBy/hasAuthor x.
        shapes = {
            (cq.head[1], cq.body[0].p)
            for cq in ucq
            if len(cq.body) == 1 and cq.body[0].o == x
        }
        assert (ex("Person"), ex("writtenBy")) in shapes
        assert (ex("Person"), ex("hasAuthor")) in shapes


class TestRulesInIsolation:
    def test_rule1_subclass(self, book_schema):
        q = BGPQuery([x], [Triple(x, RDF_TYPE, ex("Publication"))])
        bodies = {cq.body[0] for cq in reformulate(q, book_schema)}
        assert Triple(x, RDF_TYPE, ex("Book")) in bodies

    def test_rule4_subproperty(self, book_schema):
        q = BGPQuery([x, y], [Triple(x, ex("hasAuthor"), y)])
        bodies = {cq.body[0] for cq in reformulate(q, book_schema)}
        assert bodies == {
            Triple(x, ex("hasAuthor"), y),
            Triple(x, ex("writtenBy"), y),
        }

    def test_rule6_property_variable(self, book_schema):
        q = BGPQuery([x, y, z], [Triple(x, y, z)])
        ucq = reformulate(q, book_schema)
        properties = {cq.body[0].p for cq in ucq if cq.body}
        assert ex("writtenBy") in properties
        assert ex("hasAuthor") in properties
        assert RDF_TYPE in properties
        assert y in properties  # the original generalized atom survives

    def test_no_applicable_rule_keeps_query(self, book_schema):
        q = BGPQuery([x], [Triple(x, ex("hasTitle"), y)])
        assert len(reformulate(q, book_schema)) == 1

    def test_unknown_class_kept_as_is(self, book_schema):
        q = BGPQuery([x], [Triple(x, RDF_TYPE, ex("Alien"))])
        assert len(reformulate(q, book_schema)) == 1

    def test_multi_atom_product(self, book_schema):
        # Publication fans out ×4 (itself, Book, writtenBy/hasAuthor
        # domain evidence), hasAuthor ×2 → 8 combinations, of which two
        # are isomorphic up to renaming of the non-distinguished
        # variables ({hasAuthor f, writtenBy y} ≅ {writtenBy f,
        # hasAuthor y}) and merge: 7 distinct union terms.
        q = BGPQuery(
            [x],
            [Triple(x, RDF_TYPE, ex("Publication")), Triple(x, ex("hasAuthor"), y)],
        )
        assert len(reformulate(q, book_schema)) == 7


class TestSchemaAtoms:
    def test_subclass_atom_variable(self, book_schema):
        q = BGPQuery([x], [Triple(x, RDFS_SUBCLASS, ex("Publication"))])
        ucq = reformulate(q, book_schema)
        constant_rows = {cq.head for cq in ucq if not cq.body}
        assert (ex("Book"),) in constant_rows

    def test_subproperty_atom(self, book_schema):
        q = BGPQuery([x, y], [Triple(x, RDFS_SUBPROPERTY, y)])
        ucq = reformulate(q, book_schema)
        constant_rows = {cq.head for cq in ucq if not cq.body}
        assert (ex("writtenBy"), ex("hasAuthor")) in constant_rows

    def test_domain_atom(self, book_schema):
        q = BGPQuery([x], [Triple(ex("writtenBy"), RDFS_DOMAIN, x)])
        ucq = reformulate(q, book_schema)
        constant_rows = {cq.head for cq in ucq if not cq.body}
        # Closed: Book and its superclass Publication.
        assert (ex("Book"),) in constant_rows
        assert (ex("Publication"),) in constant_rows

    def test_range_atom_joined_with_data_atom(self, book_schema):
        q = BGPQuery(
            [x, z],
            [Triple(x, RDFS_RANGE, y), Triple(z, x, Variable("w"))],
        )
        ucq = reformulate(q, book_schema)
        # The schema atom resolves and grounds x; data atoms remain.
        assert any(len(cq.body) == 1 for cq in ucq)

    def test_ground_schema_atom_true(self, book_schema):
        q = BGPQuery([], [Triple(ex("Book"), RDFS_SUBCLASS, ex("Publication"))])
        ucq = reformulate(q, book_schema)
        assert any(not cq.body for cq in ucq)

    def test_ground_schema_atom_false(self, book_schema):
        q = BGPQuery([], [Triple(ex("Publication"), RDFS_SUBCLASS, ex("Book"))])
        ucq = reformulate(q, book_schema)
        # Only the (unsatisfiable-over-facts) original remains.
        assert all(cq.body for cq in ucq)


class TestMachinery:
    def test_limit_exceeded(self, book_schema):
        q = BGPQuery([x, y], [Triple(x, RDF_TYPE, y)])
        with pytest.raises(ReformulationLimitExceeded):
            reformulate(q, book_schema, limit=5)

    def test_a_refusal_skips_the_merge_pass(self, dblp_db):
        # DBLP Q10 factors into 36 864 rows whose signatures alone number
        # more than 2 000: the refusal needs no renaming search.
        q10 = {entry.name: entry.query for entry in dblp_workload()}["Q10"]
        with mock.patch(
            "repro.reformulation.reformulate.subsume",
            side_effect=AssertionError("subsume ran"),
        ):
            for limit in (2_000, 512):
                with pytest.raises(ReformulationLimitExceeded):
                    reformulate(q10, dblp_db.schema, limit=limit)
                with pytest.raises(ReformulationLimitExceeded):
                    Reformulator(dblp_db.schema, limit=limit).reformulate(q10)

    @pytest.mark.parametrize("name", ["Q05", "Q09", "Q18", "Q19"])
    def test_the_limit_refuses_exactly_past_the_merged_union(self, lubm_db, name):
        query = {entry.name: entry.query for entry in lubm_workload()}[name]
        merged = len(reformulate(query, lubm_db.schema))
        assert len(reformulate(query, lubm_db.schema, limit=merged)) == merged
        with pytest.raises(ReformulationLimitExceeded):
            reformulate(query, lubm_db.schema, limit=merged - 1)

    @pytest.mark.parametrize("workload", ["lubm", "dblp"])
    def test_signatures_never_outnumber_forms(self, lubm_db, dblp_db, workload):
        database, entries = (
            (lubm_db, lubm_workload()) if workload == "lubm" else (dblp_db, dblp_workload())
        )
        for entry in entries:
            factors = _Factors(entry.query, database.schema.snapshot())
            if factors.count > 5_000:
                continue
            forms = len({factors.form(row) for row in range(factors.count)})
            assert not factors.more_forms_than(forms), entry.name

    def test_reformulator_memoizes(self, book_schema):
        reformulator = Reformulator(book_schema)
        q = BGPQuery([x, y], [Triple(x, RDF_TYPE, y)])
        first = reformulator.reformulate(q)
        second = reformulator.reformulate(q)
        assert first is second
        assert reformulator.runs == 1

    def test_fresh_variables_avoid_query_names(self, book_schema):
        clash = Variable("_f0")
        q = BGPQuery([clash], [Triple(clash, RDF_TYPE, ex("Book"))])
        ucq = reformulate(q, book_schema)
        for cq in ucq:
            seen = [v for atom in cq.body for v in atom.variables()]
            assert len(set(seen)) == len(set(seen))  # no accidental capture
        domain_bodies = [cq for cq in ucq if cq.body[0].p == ex("writtenBy")]
        assert domain_bodies
        assert domain_bodies[0].body[0].o != clash


# ----------------------------------------------------------------------
# Golden property: reformulation ≡ saturation.
# ----------------------------------------------------------------------
def _u(name):
    return URI(f"http://pr/{name}")


_CLASSES = [_u(f"C{i}") for i in range(4)]
_PROPERTIES = [_u(f"P{i}") for i in range(3)]
_INDIVIDUALS = [_u(f"i{i}") for i in range(6)]
_VARS = [Variable(n) for n in "abc"]


@st.composite
def _schema(draw):
    schema = RDFSchema()
    for _ in range(draw(st.integers(0, 4))):
        schema.add_subclass(draw(st.sampled_from(_CLASSES)), draw(st.sampled_from(_CLASSES)))
    for _ in range(draw(st.integers(0, 2))):
        schema.add_subproperty(
            draw(st.sampled_from(_PROPERTIES)), draw(st.sampled_from(_PROPERTIES))
        )
    for _ in range(draw(st.integers(0, 2))):
        schema.add_domain(draw(st.sampled_from(_PROPERTIES)), draw(st.sampled_from(_CLASSES)))
    for _ in range(draw(st.integers(0, 2))):
        schema.add_range(draw(st.sampled_from(_PROPERTIES)), draw(st.sampled_from(_CLASSES)))
    return schema


@st.composite
def _facts(draw):
    facts = []
    for _ in range(draw(st.integers(1, 20))):
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


@st.composite
def _query(draw):
    n_atoms = draw(st.integers(1, 3))
    subject = st.one_of(st.sampled_from(_VARS), st.sampled_from(_INDIVIDUALS))
    atoms = []
    for _ in range(n_atoms):
        shape = draw(st.integers(0, 3))
        if shape == 0:  # class atom
            atoms.append(
                Triple(draw(subject), RDF_TYPE, draw(st.sampled_from(_CLASSES)))
            )
        elif shape == 1:  # class-variable atom
            atoms.append(Triple(draw(subject), RDF_TYPE, draw(st.sampled_from(_VARS))))
        elif shape == 2:  # property atom
            atoms.append(
                Triple(
                    draw(subject),
                    draw(st.sampled_from(_PROPERTIES)),
                    draw(st.one_of(subject, st.sampled_from(_VARS))),
                )
            )
        else:  # property-variable atom
            atoms.append(
                Triple(draw(subject), draw(st.sampled_from(_VARS)), draw(subject))
            )
    variables = sorted({v for a in atoms for v in a.variables()})
    head = (
        draw(st.lists(st.sampled_from(variables), min_size=1, max_size=2, unique=True))
        if variables
        else []
    )
    return BGPQuery(head, atoms)


@settings(max_examples=120, deadline=None)
@given(schema=_schema(), facts=_facts(), query=_query())
def test_reformulation_equals_saturation(schema, facts, query):
    graph = RDFGraph(facts)
    saturated = saturate(graph, schema)
    expected = evaluate(query, saturated)
    ucq = reformulate(query, schema)
    got = evaluate(ucq, graph)
    assert got == expected
