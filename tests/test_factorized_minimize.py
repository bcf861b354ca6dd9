"""The shape-level subsumption pass equals the pairwise one, term for term.

``Reformulator`` decides duplicates and subsumption on the factorized
union (skeletons × per-atom alternatives, DESIGN.md §13) and only builds
the survivors; ``minimize_ucq`` runs the same pass over listed terms.
``tests/oracle.py`` keeps what they replaced — the term-by-term
expansion and the pairwise sweep — and this file holds the two to the
same output, in the same order:

(a) on every fragment query ``gcov`` reformulates while planning the 39
    ``cold_plan`` queries of the e2e benchmark;
(b) on random schemas and random small BGPs (hypothesis), where the
    answers must also equal saturation's;
(c) on the ``limit=`` contract;
(d) on tampered certificates, which the hot path must refuse.
"""

from __future__ import annotations

import copy
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro.analysis.containment import minimize_ucq
from repro.analysis.diagnostics import IRVerificationError
from repro.analysis.subsumption import subsume
from repro.analysis.verifier import check_subsumption, verify_subsumption
from repro.answering import QueryAnswerer
from repro.datasets import (
    build_dblp_database,
    dblp_workload,
    lubm_workload,
    motivating_q1,
    motivating_q2,
)
from repro.query import BGPQuery
from repro.rdf import (
    RDFGraph,
    RDFSchema,
    RDF_TYPE,
    RDFS_SUBCLASS,
    Triple,
    URI,
    Variable,
)
from repro.reformulation import (
    ReformulationLimitExceeded,
    Reformulator,
    reformulate,
    reformulation_count,
)
from repro.reformulation.reformulate import _Factors

from oracle import (
    reference_minimize_ucq,
    reference_reformulate,
    saturation_answers_match,
)


def canonical(terms):
    return [term.canonical() for term in terms]


def assert_same_as_reference(query, schema):
    """Raw union, minimized union and counters against the reference."""
    raw = reference_reformulate(query, schema)
    assert canonical(reformulate(query, schema)) == canonical(raw)
    reference = reference_minimize_ucq(raw)
    reformulator = Reformulator(schema)
    union = reformulator.reformulate(query)
    counters = reformulator.analysis_counters
    assert canonical(union) == canonical(reference.terms)
    assert counters["analysis.terms_eliminated"] == reference.eliminated
    assert bool(counters.get("analysis.minimize_skipped")) == reference.skipped
    listed = minimize_ucq(raw, schema)
    assert canonical(listed.ucq) == canonical(reference.terms)
    assert listed.eliminated == reference.eliminated
    assert listed.skipped == reference.skipped
    return union


def raises_limit(call) -> bool:
    try:
        call()
    except ReformulationLimitExceeded:
        return True
    return False


# ----------------------------------------------------------------------
# (a) the fragments of the cold_plan workload
# ----------------------------------------------------------------------
class _Recording(Reformulator):
    """A reformulator that remembers the queries that missed its memo."""

    def __init__(self, schema):
        super().__init__(schema)
        self.missed = []

    def reformulate(self, query):
        misses = self.cache.misses
        union = super().reformulate(query)
        if self.cache.misses > misses:
            self.missed.append(query)
        return union


def _fragments(database, query):
    """The fragment queries gcov reformulates while planning ``query``."""
    reformulator = _Recording(database.schema)
    QueryAnswerer(database, reformulator=reformulator).plan(query, "gcov")
    return reformulator.missed


@pytest.fixture(scope="module")
def dblp_800():
    return build_dblp_database(publications=800, seed=0)


_LUBM = [motivating_q1(), motivating_q2()] + list(lubm_workload())
_DBLP = [entry for entry in dblp_workload() if entry.name != "Q10"]


@pytest.mark.parametrize("entry", _LUBM, ids=lambda e: e.name)
def test_lubm_fragments_minimize_like_the_reference(lubm_db, entry):
    fragments = _fragments(lubm_db, entry.query)
    assert fragments
    for fragment in fragments:
        assert_same_as_reference(fragment, lubm_db.schema)


@pytest.mark.parametrize("entry", _DBLP, ids=lambda e: e.name)
def test_dblp_fragments_minimize_like_the_reference(dblp_800, entry):
    fragments = _fragments(dblp_800, entry.query)
    assert fragments
    for fragment in fragments:
        assert_same_as_reference(fragment, dblp_800.schema)


# ----------------------------------------------------------------------
# (b) random schemas, random BGPs
# ----------------------------------------------------------------------
def u(name: str) -> URI:
    return URI(f"http://fm/{name}")


_CLASSES = [u(f"C{i}") for i in range(4)]
_PROPERTIES = [u(f"P{i}") for i in range(3)]
_INDIVIDUALS = [u(f"i{i}") for i in range(3)]
_VARS = [Variable(name) for name in "abcd"]


@st.composite
def _schemas(draw):
    """Chains, shared domains and ranges, and cycles over 4 classes, 3 properties."""
    schema = RDFSchema()
    for _ in range(draw(st.integers(0, 5))):
        schema.add_subclass(
            draw(st.sampled_from(_CLASSES)), draw(st.sampled_from(_CLASSES))
        )
    for _ in range(draw(st.integers(0, 3))):
        schema.add_subproperty(
            draw(st.sampled_from(_PROPERTIES)), draw(st.sampled_from(_PROPERTIES))
        )
    for _ in range(draw(st.integers(0, 4))):
        schema.add_domain(
            draw(st.sampled_from(_PROPERTIES)), draw(st.sampled_from(_CLASSES))
        )
    for _ in range(draw(st.integers(0, 4))):
        schema.add_range(
            draw(st.sampled_from(_PROPERTIES)), draw(st.sampled_from(_CLASSES))
        )
    return schema


@st.composite
def _queries(draw):
    """1-4 atoms: class and property variables, repeated predicates,
    constants in subject and object position, head constants, and now
    and then a constraint atom (whose terms are statically empty)."""
    node = st.sampled_from(_VARS[:3] + _INDIVIDUALS[:2])
    late = st.sampled_from(_VARS[2:])
    atoms = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.integers(0, 10))
        if kind <= 2:
            atoms.append(Triple(draw(node), RDF_TYPE, draw(st.sampled_from(_CLASSES))))
        elif kind == 3:
            atoms.append(Triple(draw(node), RDF_TYPE, draw(late)))
        elif kind == 4:
            atoms.append(Triple(draw(node), draw(late), draw(node)))
        elif kind == 5:
            atoms.append(
                Triple(
                    draw(st.sampled_from(_VARS[2:] + _CLASSES[:1])),
                    RDFS_SUBCLASS,
                    draw(st.sampled_from(_VARS[2:] + _CLASSES[:2])),
                )
            )
        else:
            atoms.append(
                Triple(draw(node), draw(st.sampled_from(_PROPERTIES)), draw(node))
            )
    used = sorted({t for a in atoms for t in a if isinstance(t, Variable)}, key=str)
    head = draw(st.lists(st.sampled_from(used + _INDIVIDUALS[:1]), max_size=3))
    return BGPQuery(head, atoms)


@st.composite
def _graphs(draw):
    graph = RDFGraph()
    for _ in range(draw(st.integers(0, 12))):
        subject = draw(st.sampled_from(_INDIVIDUALS))
        if draw(st.booleans()):
            graph.add(Triple(subject, RDF_TYPE, draw(st.sampled_from(_CLASSES))))
        else:
            graph.add(
                Triple(
                    subject,
                    draw(st.sampled_from(_PROPERTIES)),
                    draw(st.sampled_from(_INDIVIDUALS)),
                )
            )
    return graph


def _check_random_case(schema, query, graph, limit):
    # The reference sweep is quadratic in the union.
    assume(reformulation_count(query, schema) <= 400)
    union = assert_same_as_reference(query, schema)
    if not any(atom.p == RDFS_SUBCLASS for atom in query.body):
        # Constraint atoms are answered from the schema, which a data
        # graph's saturation does not hold.
        assert saturation_answers_match(query, schema, graph, union)
    expected = raises_limit(lambda: reference_reformulate(query, schema, limit))
    assert raises_limit(lambda: reformulate(query, schema, limit)) == expected
    limited = Reformulator(schema, limit=limit)
    assert raises_limit(lambda: limited.reformulate(query)) == expected


_ARGUMENTS = dict(
    schema=_schemas(),
    query=_queries(),
    graph=_graphs(),
    limit=st.integers(1, 40),
)
_QUIET = list(HealthCheck)


@settings(max_examples=150, deadline=None, suppress_health_check=_QUIET)
@given(**_ARGUMENTS)
def test_random_unions_minimize_like_the_reference(schema, query, graph, limit):
    _check_random_case(schema, query, graph, limit)


@pytest.mark.slow
@settings(max_examples=1500, deadline=None, suppress_health_check=_QUIET)
@given(**_ARGUMENTS)
def test_random_unions_minimize_like_the_reference_10x(schema, query, graph, limit):
    _check_random_case(schema, query, graph, limit)


# ----------------------------------------------------------------------
# (c) the limit is on the unminimized, deduplicated union
# ----------------------------------------------------------------------
_LIMITS = [("Q04", 19), ("Q04", 20), ("Q05", 95), ("Q05", 96), ("Q19", 175), ("Q19", 176)]


@pytest.mark.parametrize("name,limit", _LIMITS)
def test_limit_raises_as_the_expansion_did(lubm_db, name, limit):
    schema = lubm_db.schema
    query = next(e.query for e in lubm_workload() if e.name == name)
    expected = raises_limit(lambda: reference_reformulate(query, schema, limit))
    # Q04 minimizes to 11 terms, Q05 to 65, Q19 to 77: all under every
    # limit here — what is counted is the union before minimization.
    assert expected == (limit < reformulation_count(query, schema))
    assert raises_limit(lambda: reformulate(query, schema, limit)) == expected
    reformulator = Reformulator(schema, limit=limit)
    assert raises_limit(lambda: reformulator.reformulate(query)) == expected
    assert raises_limit(lambda: reformulator.reformulate(query)) == expected
    assert reformulator.runs == 1  # the failure is memoized too
    assert reformulator.cache.hits == 1


# ----------------------------------------------------------------------
# (d) certificates are re-checked, on the hot path
# ----------------------------------------------------------------------
@pytest.fixture()
def q05(lubm_db):
    """Q05's factors and its subsumption: 31 rows eliminated."""
    query = next(e.query for e in lubm_workload() if e.name == "Q05")
    factors = _Factors(query, lubm_db.schema)
    result = subsume(factors.shapes(), factors.form)
    assert len(result.eliminated) == 31 and result.certificates
    assert check_subsumption(result) == []
    return query, result


def _codes(result):
    return {finding.code for finding in check_subsumption(result)}


def _used(result):
    """An eliminated row and the certificate that proves it."""
    removed, (keeper, number) = next(iter(result.eliminated.items()))
    return removed, keeper, result.certificates[number]


def _wrong_slot_mapping(result):
    """Send a keeper variable somewhere the layouts do not put it."""
    _, _, certificate = _used(result)
    # Mappings are shared by every union of the process: tamper with a copy.
    hom = certificate.hom = copy.copy(certificate.hom)
    hom.theta = dict(hom.theta)
    variable = next(v for v, image in hom.theta.items() if not isinstance(image, tuple))
    hom.theta[variable] = (0, 0)


def _missing_keeper_row(result):
    """Point a table entry at a keeper pattern that does not exist."""
    _, _, certificate = _used(result)
    j = next(j for j, found in enumerate(certificate.entries) if found)
    at, picked = certificate.entries[j][0]
    entries = list(certificate.entries)
    entries[j] = ((at, tuple(there + 1000 for there in picked)),) + entries[j][1:]
    certificate.entries = tuple(entries)


def _other_keeper_row(result):
    """Name a keeper row the certificate does not lead to."""
    removed, keeper, _ = _used(result)
    result.eliminated[removed] = (keeper + 1, result.eliminated[removed][1])


def _unanchored_chain(result):
    """Let a keeper be eliminated by the row it eliminates."""
    removed, keeper, _ = _used(result)
    result.eliminated[keeper] = (removed, result.eliminated[removed][1])


@pytest.mark.parametrize(
    "tamper,code",
    [
        (_wrong_slot_mapping, "IR-M01"),
        (_missing_keeper_row, "IR-M01"),
        (_other_keeper_row, "IR-M01"),
        (_unanchored_chain, "IR-M04"),
    ],
)
def test_tampered_certificate_is_refused(q05, monkeypatch, lubm_db, tamper, code):
    query, result = q05
    tamper(result)
    assert code in _codes(result)
    with pytest.raises(IRVerificationError):
        verify_subsumption(result)

    # ... and by the reformulator itself, before any term is built: the
    # same tampering applied to what the pass hands it.
    module = sys.modules["repro.reformulation.reformulate"]

    def tampered_subsume(*args, **kwargs):
        outcome = subsume(*args, **kwargs)
        tamper(outcome)
        return outcome

    monkeypatch.setattr(module, "subsume", tampered_subsume)
    with pytest.raises(IRVerificationError) as raised:
        Reformulator(lubm_db.schema).reformulate(query)
    assert code in {finding.code for finding in raised.value.diagnostics}
