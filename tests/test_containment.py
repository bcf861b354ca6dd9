"""The containment checker, the UCQ minimization pass, and its oracle.

Three layers of assurance for ``repro.analysis.containment``:

* unit tests pinning the homomorphism/containment/core semantics on
  hand-built queries;
* hypothesis properties tying the checker to *evaluation*: containment
  verdicts must agree with the canonical-database test, and both
  ``minimize_query`` and ``minimize_ucq`` must preserve answers on
  random graphs;
* zero-false-positive sweeps: every LUBM/DBLP workload query answered
  under all six strategies with the pass on and off — identical answer
  sets, on both engines, with at least one term actually eliminated.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.containment import (
    Witness,
    core,
    equivalent,
    find_homomorphism,
    is_contained,
    minimize_ucq,
    schema_empty_atoms,
    verify_witness,
)
from repro.analysis.verifier import check_minimization, verify_minimization
from repro.analysis.diagnostics import IRVerificationError
from repro.cache.fingerprint import query_fingerprint
from repro.datasets import dblp_workload, lubm_workload
from repro.engine import SQLiteEngine
from repro.query import BGPQuery, UCQ
from repro.query.naive import evaluate_cq
from repro.rdf import (
    RDFGraph,
    RDFSchema,
    RDF_TYPE,
    RDFS_SUBCLASS,
    Triple,
    URI,
    Variable,
)
from repro.reasoning import saturate
from repro.reformulation import Reformulator, reformulate
from repro.reformulation.minimize import minimize_query

from oracle import duplicate_key as _duplicate_key
from oracle import minimization_differential_check


def u(name: str) -> URI:
    return URI(f"http://ct/{name}")


X, Y, Z, W = (Variable(n) for n in "xyzw")
P, Q, R = u("p"), u("q"), u("r")
A, B, C = u("A"), u("B"), u("C")


def cq(head, atoms, name="q"):
    return BGPQuery(head, atoms, name=name)


class TestHomomorphism:
    def test_identity(self):
        query = cq([X], [Triple(X, P, Y)])
        hom = find_homomorphism(query, query)
        assert hom is not None and hom[X] == X

    def test_variable_to_constant(self):
        general = cq([X], [Triple(X, P, Y)])
        specific = cq([X], [Triple(X, P, u("c"))])
        hom = find_homomorphism(general, specific)
        assert hom == {X: X, Y: u("c")}

    def test_head_positions_are_fixed(self):
        # Bodies are isomorphic but the heads project different ends of
        # the atom, so no head-preserving homomorphism exists.
        left = cq([X], [Triple(X, P, Y)])
        right = cq([Y], [Triple(X, P, Y)])
        assert find_homomorphism(left, right) is None

    def test_no_hom_when_predicate_missing(self):
        assert (
            find_homomorphism(cq([X], [Triple(X, P, Y)]), cq([X], [Triple(X, Q, Y)]))
            is None
        )

    def test_atoms_may_collapse(self):
        # Two source atoms may map onto one target atom.
        source = cq([X], [Triple(X, P, Y), Triple(X, P, Z)])
        target = cq([X], [Triple(X, P, Y)])
        hom = find_homomorphism(source, target)
        assert hom is not None and hom[Y] == hom[Z] == Y


class TestContainment:
    def test_extra_atom_is_more_specific(self):
        specific = cq([X], [Triple(X, P, Y), Triple(X, RDF_TYPE, A)])
        general = cq([X], [Triple(X, P, Y)])
        assert is_contained(specific, general)
        assert not is_contained(general, specific)

    def test_constant_is_more_specific(self):
        specific = cq([X], [Triple(X, P, u("c"))])
        general = cq([X], [Triple(X, P, Y)])
        assert is_contained(specific, general)
        assert not is_contained(general, specific)

    def test_equivalent_up_to_renaming(self):
        left = cq([X], [Triple(X, P, Y)])
        right = cq([Z], [Triple(Z, P, W)])
        assert equivalent(left, right)

    def test_incomparable(self):
        left = cq([X], [Triple(X, P, Y)])
        right = cq([X], [Triple(X, Q, Y)])
        assert not is_contained(left, right)
        assert not is_contained(right, left)


class TestCore:
    def test_redundant_atom_folds(self):
        query = cq([X], [Triple(X, P, Y), Triple(X, P, Z)])
        minimal, folds = core(query)
        assert len(minimal.body) == 1
        assert folds and equivalent(minimal, query)

    def test_minimal_query_is_its_own_core(self):
        query = cq([X], [Triple(X, P, Y), Triple(Y, Q, Z)])
        minimal, folds = core(query)
        assert minimal.body == query.body
        assert not folds

    def test_head_variables_survive(self):
        query = cq([X, Y], [Triple(X, P, Y), Triple(X, P, Z)])
        minimal, _ = core(query)
        assert set(query.head) <= set(minimal.head_variables())
        assert equivalent(minimal, query)


class TestMinimizeUCQ:
    def test_subsumed_term_eliminated(self):
        general = cq([X], [Triple(X, P, Y)], name="g")
        specific = cq([X], [Triple(X, P, Y), Triple(X, RDF_TYPE, A)], name="s")
        ucq = UCQ([general, specific], name="u")
        result = minimize_ucq(ucq)
        assert [t.canonical() for t in result.ucq.cqs] == [general.canonical()]
        assert result.subsumed == 1 and result.eliminated == 1
        witness = result.witnesses[0]
        assert witness.kind == "subsumed"
        assert verify_witness(witness) is None

    def test_union_order_does_not_matter(self):
        general = cq([X], [Triple(X, P, Y)], name="g")
        specific = cq([X], [Triple(X, P, u("c"))], name="s")
        for terms in ([general, specific], [specific, general]):
            result = minimize_ucq(UCQ(terms, name="u"))
            assert [t.canonical() for t in result.ucq.cqs] == [general.canonical()]

    def test_duplicate_up_to_renaming_eliminated(self):
        left = cq([X], [Triple(X, P, Y)], name="l")
        right = cq([Z], [Triple(Z, P, W)], name="r")
        result = minimize_ucq(UCQ([left, right], name="u"))
        assert len(result.ucq) == 1
        assert result.duplicates == 1
        assert result.witnesses[0].kind == "duplicate"
        assert verify_witness(result.witnesses[0]) is None

    def test_schema_empty_term_eliminated(self):
        live = cq([X], [Triple(X, P, Y)], name="live")
        dead = cq([X], [Triple(X, RDFS_SUBCLASS, A)], name="dead")
        assert schema_empty_atoms(dead) == [0]
        result = minimize_ucq(UCQ([live, dead], name="u"))
        assert len(result.ucq) == 1 and result.empty == 1
        assert result.witnesses[0].kind == "empty"
        assert verify_witness(result.witnesses[0]) is None

    def test_all_empty_keeps_one_term(self):
        dead = cq([X], [Triple(X, RDFS_SUBCLASS, A)], name="dead")
        result = minimize_ucq(UCQ([dead], name="u"))
        assert len(result.ucq) == 1  # a UCQ cannot be empty

    def test_incomparable_terms_survive(self):
        left = cq([X], [Triple(X, P, Y)], name="l")
        right = cq([X], [Triple(X, Q, Y)], name="r")
        result = minimize_ucq(UCQ([left, right], name="u"))
        assert len(result.ucq) == 2 and result.eliminated == 0

    def test_max_terms_skips_subsumption_only(self):
        terms = [cq([X], [Triple(X, P, u(f"c{i}"))], name=f"t{i}") for i in range(4)]
        terms.append(cq([X], [Triple(X, RDFS_SUBCLASS, A)], name="dead"))
        result = minimize_ucq(UCQ(terms, name="u"), max_terms=2)
        assert result.skipped  # the quadratic sweep did not run
        assert result.empty == 1  # the cheap passes still did
        assert result.counters["analysis.minimize_skipped"] == 1

    def test_counters_shape(self):
        result = minimize_ucq(UCQ([cq([X], [Triple(X, P, Y)])], name="u"))
        assert set(result.counters) >= {
            "analysis.terms_eliminated",
            "analysis.containment_checks",
        }


class TestVerifierRules:
    def _result(self):
        general = cq([X], [Triple(X, P, Y)], name="g")
        specific = cq([X], [Triple(X, P, Y), Triple(X, RDF_TYPE, A)], name="s")
        original = UCQ([general, specific], name="u")
        return original, minimize_ucq(original)

    def test_clean_result_verifies(self):
        original, result = self._result()
        assert check_minimization(original, result) == []
        verify_minimization(original, result)  # must not raise

    def test_tampered_witness_is_irm01(self):
        original, result = self._result()
        witness = result.witnesses[0]
        broken = dataclasses.replace(
            witness, mapping=tuple((v, u("bogus")) for v, _ in witness.mapping)
        )
        tampered = dataclasses.replace(result, witnesses=[broken])
        codes = {d.code for d in check_minimization(original, tampered)}
        assert "IR-M01" in codes
        with pytest.raises(IRVerificationError):
            verify_minimization(original, tampered)

    def test_foreign_term_is_irm02(self):
        original, result = self._result()
        foreign = UCQ([cq([X], [Triple(X, R, Y)], name="f")], name="u_min")
        tampered = dataclasses.replace(result, ucq=foreign)
        codes = {d.code for d in check_minimization(original, tampered)}
        assert "IR-M02" in codes

    def test_wrong_arithmetic_is_irm03(self):
        original, result = self._result()
        tampered = dataclasses.replace(result, witnesses=[])
        codes = {d.code for d in check_minimization(original, tampered)}
        assert "IR-M03" in codes

    def test_dangling_keeper_is_irm04(self):
        original, result = self._result()
        witness = result.witnesses[0]
        # Point the witness at a keeper that is neither a survivor nor
        # itself eliminated: the keeper chain dangles.
        broken = dataclasses.replace(
            witness, keeper=cq([X], [Triple(X, R, Y)], name="ghost")
        )
        tampered = dataclasses.replace(result, witnesses=[broken])
        codes = {d.code for d in check_minimization(original, tampered)}
        assert "IR-M04" in codes


# ----------------------------------------------------------------------
# Hypothesis: containment agrees with evaluation
# ----------------------------------------------------------------------
_CLASSES = [u(f"C{i}") for i in range(3)]
_PROPERTIES = [u(f"P{i}") for i in range(2)]
_INDIVIDUALS = [u(f"i{i}") for i in range(5)]
_VARS = [Variable(n) for n in "abc"]


@st.composite
def _bgp(draw, max_atoms=3):
    shared = _VARS[0]
    atoms = []
    for _ in range(draw(st.integers(1, max_atoms))):
        if draw(st.booleans()):
            atoms.append(Triple(shared, RDF_TYPE, draw(st.sampled_from(_CLASSES))))
        else:
            prop = draw(st.sampled_from(_PROPERTIES))
            other = draw(st.sampled_from(_VARS[1:] + _INDIVIDUALS))
            if draw(st.booleans()):
                atoms.append(Triple(shared, prop, other))
            else:
                atoms.append(Triple(other, prop, shared))
    return BGPQuery([shared], atoms)


@st.composite
def _graph(draw):
    graph = RDFGraph()
    for _ in range(draw(st.integers(0, 20))):
        if draw(st.booleans()):
            graph.add(
                Triple(
                    draw(st.sampled_from(_INDIVIDUALS)),
                    RDF_TYPE,
                    draw(st.sampled_from(_CLASSES)),
                )
            )
        else:
            graph.add(
                Triple(
                    draw(st.sampled_from(_INDIVIDUALS)),
                    draw(st.sampled_from(_PROPERTIES)),
                    draw(st.sampled_from(_INDIVIDUALS)),
                )
            )
    return graph


def _canonical_containment(sub: BGPQuery, sup: BGPQuery) -> bool:
    """The textbook evaluation-based test: freeze ``sub``, run ``sup``."""
    freeze = {v: URI(f"http://frozen/{v.value}") for v in sub.variables()}
    graph = RDFGraph()
    for atom in sub.body:
        graph.add(
            Triple(*(freeze.get(t, t) if isinstance(t, Variable) else t for t in atom))
        )
    frozen_head = tuple(
        freeze[t] if isinstance(t, Variable) else t for t in sub.head
    )
    return frozen_head in evaluate_cq(sup, graph)


@settings(max_examples=60, deadline=None)
@given(sub=_bgp(), sup=_bgp())
def test_containment_verdict_matches_canonical_database(sub, sup):
    assert is_contained(sub, sup) == _canonical_containment(sub, sup)


@settings(max_examples=40, deadline=None)
@given(sub=_bgp(), sup=_bgp(), graph=_graph())
def test_containment_verdict_is_sound_on_random_graphs(sub, sup, graph):
    if is_contained(sub, sup):
        assert evaluate_cq(sub, graph) <= evaluate_cq(sup, graph)


@settings(max_examples=40, deadline=None)
@given(query=_bgp(), graph=_graph())
def test_core_preserves_evaluation(query, graph):
    minimal, _ = core(query)
    assert evaluate_cq(minimal, graph) == evaluate_cq(query, graph)
    assert equivalent(minimal, query)


@st.composite
def _schema(draw):
    schema = RDFSchema()
    for _ in range(draw(st.integers(0, 3))):
        schema.add_subclass(
            draw(st.sampled_from(_CLASSES)), draw(st.sampled_from(_CLASSES))
        )
    for _ in range(draw(st.integers(0, 2))):
        schema.add_domain(
            draw(st.sampled_from(_PROPERTIES)), draw(st.sampled_from(_CLASSES))
        )
    for _ in range(draw(st.integers(0, 2))):
        schema.add_range(
            draw(st.sampled_from(_PROPERTIES)), draw(st.sampled_from(_CLASSES))
        )
    return schema


@settings(max_examples=40, deadline=None)
@given(query=_bgp(), schema=_schema(), graph=_graph())
def test_minimize_query_preserves_certain_answers(query, schema, graph):
    """``minimize_query`` (atom-level) agrees with the containment layer.

    Dropping a schema-redundant atom must preserve answers over the
    *saturated* graph (certain-answer semantics), and the reformulations
    of the two queries must be equivalent as UCQs.
    """
    minimal = minimize_query(query, schema)
    saturated = saturate(graph, schema)
    assert evaluate_cq(minimal, saturated) == evaluate_cq(query, saturated)
    # The minimized reformulation is a subset of the original's certain
    # semantics: every original term must be contained in some minimized
    # term (the dropped atoms were entailed).
    original_ref = reformulate(query, schema)
    minimal_ref = reformulate(minimal, schema)
    for term in original_ref.cqs[: 8]:
        assert any(is_contained(term, keeper) for keeper in minimal_ref.cqs)


@settings(max_examples=30, deadline=None)
@given(
    terms=st.lists(_bgp(max_atoms=2), min_size=1, max_size=4),
    graph=_graph(),
)
def test_minimize_ucq_preserves_evaluation(terms, graph):
    ucq = UCQ(terms, name="u")
    result = minimize_ucq(ucq)
    before = frozenset().union(*(evaluate_cq(t, graph) for t in ucq.cqs))
    after = frozenset().union(*(evaluate_cq(t, graph) for t in result.ucq.cqs))
    assert before == after
    assert check_minimization(ucq, result) == []


@settings(max_examples=100, deadline=None)
@given(
    left=_bgp(),
    right=_bgp(),
    names=st.permutations(["a", "b", "c", "v0", "zz"]),
    order=st.randoms(use_true_random=False),
)
def test_duplicate_key_partitions_terms_like_the_cache_fingerprint(
    left, right, names, order
):
    """The reference minimizer's key is the fingerprint's equivalence.

    Equal keys exactly when the digests are equal — on unrelated terms,
    and on a renamed, reshuffled copy (where both may miss an
    isomorphism the same way: atoms of one shape are ordered by name).
    """
    renaming = {old: Variable(new) for old, new in zip(_VARS, names)}
    atoms = [Triple(*(renaming.get(t, t) for t in atom)) for atom in left.body]
    order.shuffle(atoms)
    copy = BGPQuery([renaming[left.head[0]]], atoms)
    for other in (right, copy):
        assert (_duplicate_key(left) == _duplicate_key(other)) == (
            query_fingerprint(left) == query_fingerprint(other)
        )


# ----------------------------------------------------------------------
# Workload sweeps: zero false positives under every strategy
# ----------------------------------------------------------------------
ALL_STRATEGIES = ("saturation", "ucq", "pruned-ucq", "scq", "ecov", "gcov")

_LUBM_FAST = [e for e in lubm_workload() if e.name not in ("Q28",)]


@pytest.mark.parametrize("entry", _LUBM_FAST, ids=lambda e: e.name)
def test_lubm_minimization_is_answer_preserving(lubm_db, entry):
    minimization_differential_check(
        lubm_db, entry.query, strategies=ALL_STRATEGIES, label=entry.name
    )


@pytest.mark.parametrize("entry", dblp_workload(), ids=lambda e: e.name)
def test_dblp_minimization_is_answer_preserving(dblp_small_db, entry):
    strategies = ALL_STRATEGIES
    if len(entry.query.body) > 6:
        # ECov's exhaustive search burns its full 100k-cover budget
        # before declaring infeasibility on the largest bodies; the
        # other five strategies still cover the invariant.
        strategies = tuple(s for s in strategies if s != "ecov")
    minimization_differential_check(
        dblp_small_db, entry.query, strategies=strategies, label=entry.name
    )


@pytest.fixture(scope="module")
def dblp_small_db():
    from repro.datasets import build_dblp_database

    return build_dblp_database(publications=400, seed=0)


def test_minimization_eliminates_terms_on_lubm(lubm_db):
    """Acceptance: the pass fires on real workload queries."""
    eliminated = 0
    for entry in _LUBM_FAST:
        eliminated += minimization_differential_check(
            lubm_db, entry.query, strategies=("saturation", "ucq"), label=entry.name
        )
    assert eliminated >= 1


def test_sqlite_backend_minimization_agrees(lubm_db):
    for entry in _LUBM_FAST[:6]:
        minimization_differential_check(
            lubm_db,
            entry.query,
            strategies=("ucq", "gcov"),
            engine_factory=lambda: SQLiteEngine(lubm_db),
            label=entry.name,
        )


def test_workload_minimizations_carry_valid_certificates(lubm_db):
    """Every elimination on the LUBM workload has a re-checkable witness."""
    for entry in _LUBM_FAST:
        raw = reformulate(entry.query, lubm_db.schema, limit=2_000)
        result = minimize_ucq(raw, lubm_db.schema)
        assert check_minimization(raw, result) == [], entry.name
        for witness in result.witnesses:
            assert verify_witness(witness) is None, entry.name
