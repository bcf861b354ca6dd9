"""Differential test oracle: every answering strategy must agree.

The system's end-to-end correctness claim (Theorem 3.1 plus the
saturation baseline) is that *all* strategies compute the same answer
set for any query.  :func:`differential_check` runs one query under
every requested strategy through a shared answerer and asserts the
results are identical — skipping, rather than failing, the strategies
that legitimately cannot run a given query (reformulations past the
term budget, infeasible exhaustive searches, engine statement limits).

:func:`random_queries` generates seeded, schema-aware random BGPs so
sweeps are reproducible without a fixed workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Dict, List, Optional, Sequence

from repro.analysis.containment import (
    DEFAULT_MAX_TERMS,
    is_contained,
    schema_empty_atoms,
)
from repro.answering import AnswerReport, QueryAnswerer
from repro.cache import QueryCache
from repro.engine import EngineFailure, NativeEngine
from repro.optimizer import SearchInfeasible
from repro.query import UCQ, BGPQuery
from repro.query.bgp import renaming_invariant_key
from repro.query.naive import evaluate_cq, evaluate_ucq
from repro.rdf import RDF_TYPE, Triple, Variable
from repro.reasoning import saturate
from repro.reformulation import ReformulationLimitExceeded, Reformulator
from repro.reformulation.reformulate import (
    _atom_alternatives,
    _fresh_factory,
    _skeletons,
)
from repro.resilience import ChaosConfig, ChaosEngine, FallbackPolicy
from repro.storage import RDFDatabase

#: Strategies a sweep exercises by default; ``saturation`` is the
#: reformulation-free ground truth and must always succeed.
DEFAULT_STRATEGIES = ("saturation", "ucq", "scq", "gcov", "litemat")

#: Reformulation term budget: queries whose UCQ grows past this are
#: skipped for the strategies that would materialize it (the paper's
#: q2-class monsters reach ~300k terms).
DEFAULT_TERM_BUDGET = 20_000


def make_answerer(
    database: RDFDatabase,
    engine=None,
    cache: Optional[QueryCache] = None,
    term_budget: int = DEFAULT_TERM_BUDGET,
) -> QueryAnswerer:
    """An answerer wired for differential sweeps (own term-limited memo)."""
    return QueryAnswerer(
        database,
        engine=engine,
        reformulator=Reformulator(database.schema, limit=term_budget),
        cache=cache,
    )


def strategy_answers(
    answerer: QueryAnswerer,
    query: BGPQuery,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
) -> Dict[str, Optional[frozenset]]:
    """Answer ``query`` under each strategy; infeasible ones map to None."""
    results: Dict[str, Optional[frozenset]] = {}
    for strategy in strategies:
        try:
            results[strategy] = answerer.answer(query, strategy=strategy).answers
        except (ReformulationLimitExceeded, SearchInfeasible, EngineFailure):
            results[strategy] = None
    return results


def differential_check(
    answerer: QueryAnswerer,
    query: BGPQuery,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    label: str = "",
) -> Dict[str, Optional[frozenset]]:
    """Assert every runnable strategy returns the same answer set.

    Requires the ``saturation`` baseline (when requested) to succeed,
    and at least two strategies to have produced answers — a sweep
    where everything skipped would silently verify nothing.
    Returns the per-strategy results so callers can additionally
    compare runs (e.g. cold vs warm cache).
    """
    results = strategy_answers(answerer, query, strategies)
    ran = {name: answers for name, answers in results.items() if answers is not None}
    context = label or getattr(query, "name", "query")
    if "saturation" in strategies:
        assert results["saturation"] is not None, (
            f"{context}: the saturation baseline must always run"
        )
    assert len(ran) >= 2, f"{context}: fewer than two strategies ran ({ran.keys()})"
    reference_name, reference = next(iter(ran.items()))
    for name, answers in ran.items():
        assert answers == reference, (
            f"{context}: strategy {name} disagrees with {reference_name} "
            f"({len(answers)} vs {len(reference)} answers)"
        )
    return results


# ----------------------------------------------------------------------
# Chaos-enabled oracle
# ----------------------------------------------------------------------
def make_chaos_answerer(
    database: RDFDatabase,
    seed: int = 0,
    timeout_rate: float = 0.3,
    failure_rate: float = 0.3,
    slow_rate: float = 0.0,
    transient: bool = True,
    term_budget: int = DEFAULT_TERM_BUDGET,
    engine=None,
) -> QueryAnswerer:
    """An answerer whose engine injects seeded faults.

    The fallback policy never actually sleeps, and neither do injected
    slowdowns, so chaos sweeps stay fast and deterministic.
    """
    chaos = ChaosEngine(
        engine or NativeEngine(database),
        ChaosConfig(
            seed=seed,
            timeout_rate=timeout_rate,
            failure_rate=failure_rate,
            slow_rate=slow_rate,
            transient=transient,
        ),
    )
    chaos.sleeper = lambda _s: None
    return QueryAnswerer(
        database,
        engine=chaos,
        reformulator=Reformulator(database.schema, limit=term_budget),
        fallback=FallbackPolicy(sleep=lambda _s: None),
    )


def chaos_differential_check(
    chaos_answerer: QueryAnswerer,
    baseline_answers: frozenset,
    query: BGPQuery,
    label: str = "",
) -> AnswerReport:
    """Assert a chaos-wrapped resilient answer matches the clean baseline.

    This is the zero-silent-partial-answers invariant: whatever faults
    were injected, the ladder either recovers the exact saturation
    answer set or raises — a degraded-but-wrong result is a failure.
    """
    context = label or getattr(query, "name", "query")
    report = chaos_answerer.answer_resilient(query)
    assert report.attempts and report.attempts[-1].outcome == "ok", (
        f"{context}: resilient answer did not end in a successful attempt"
    )
    assert report.answers == baseline_answers, (
        f"{context}: chaos answers diverged from the saturation baseline "
        f"({len(report.answers)} vs {len(baseline_answers)} answers)"
    )
    return report


# ----------------------------------------------------------------------
# Seeded random BGP generation
# ----------------------------------------------------------------------
def random_queries(
    database: RDFDatabase, count: int, seed: int = 0, max_atoms: int = 3
) -> List[BGPQuery]:
    """``count`` seeded, connected, schema-aware random BGP queries.

    Atoms draw classes and properties from the database's schema, so
    reformulation has real rules to apply; all queries share a central
    variable, keeping them connected (a cover requirement).
    """
    rng = random.Random(seed)
    classes = sorted(database.schema.classes, key=str)
    properties = sorted(database.schema.properties, key=str)
    if not classes or not properties:
        raise ValueError("random_queries needs a schema with classes and properties")
    variables = [Variable(name) for name in "abcd"]
    queries = []
    for index in range(count):
        shared = variables[0]
        atoms = []
        for _ in range(rng.randint(1, max_atoms)):
            kind = rng.random()
            if kind < 0.4:
                atoms.append(Triple(shared, RDF_TYPE, rng.choice(classes)))
            elif kind < 0.5:
                # A class-variable atom: exercises instantiation rules.
                atoms.append(Triple(shared, RDF_TYPE, rng.choice(variables[1:])))
            else:
                prop = rng.choice(properties)
                other = rng.choice(variables[1:])
                if rng.random() < 0.5:
                    atoms.append(Triple(shared, prop, other))
                else:
                    atoms.append(Triple(other, prop, shared))
        used = sorted({v for atom in atoms for v in atom.variables()}, key=str)
        head_size = rng.randint(1, min(2, len(used)))
        head = rng.sample(used, head_size)
        queries.append(BGPQuery(head, atoms, name=f"rnd{seed}_{index}"))
    return queries


# ----------------------------------------------------------------------
# Minimization oracle
# ----------------------------------------------------------------------
def minimization_differential_check(
    database: RDFDatabase,
    query: BGPQuery,
    strategies: Sequence[str] = DEFAULT_STRATEGIES,
    engine_factory=None,
    term_budget: int = DEFAULT_TERM_BUDGET,
    label: str = "",
) -> int:
    """Assert the minimizing pipeline answers exactly like the plain one.

    Runs ``query`` under every requested strategy twice — once through a
    reformulator with the containment-based UCQ minimization pass off,
    once with it on (the default) — and asserts the answer sets are
    identical.  This is the zero-false-positive invariant for the static
    analysis: an elimination that changed any answer anywhere would be a
    soundness bug, not a tuning regression.

    Returns the number of union terms the pass eliminated across the
    sweep, so callers can additionally assert it actually fired.
    """
    factory = engine_factory or (lambda: NativeEngine(database))
    plain = QueryAnswerer(
        database,
        engine=factory(),
        reformulator=Reformulator(database.schema, limit=term_budget, minimize=False),
    )
    minimized = QueryAnswerer(
        database,
        engine=factory(),
        reformulator=Reformulator(database.schema, limit=term_budget),
    )
    context = label or getattr(query, "name", "query")
    compared = 0
    for strategy in strategies:
        try:
            expected = plain.answer(query, strategy=strategy).answers
        except (ReformulationLimitExceeded, SearchInfeasible, EngineFailure):
            continue
        # Minimization only ever shrinks the evaluated union, so any
        # strategy feasible without it must stay feasible with it.
        actual = minimized.answer(query, strategy=strategy).answers
        assert actual == expected, (
            f"{context}/{strategy}: minimized pipeline diverged "
            f"({len(actual)} vs {len(expected)} answers)"
        )
        compared += 1
    assert compared, f"{context}: no strategy was feasible for the comparison"
    return minimized.reformulator.analysis_counters["analysis.terms_eliminated"]


# ----------------------------------------------------------------------
# Reference minimizer: the pairwise sweep over listed terms
# ----------------------------------------------------------------------
#: The term-level pass ``minimize_ucq`` ran before subsumption moved to
#: the factorized union (DESIGN.md §13).  It is kept here, verbatim in
#: what it computes, as the reference the shape-level pass is compared
#: against term for term: one renaming-invariant key per term, then one
#: homomorphism search per pair of terms the constant/predicate filter
#: lets through.
@dataclass
class ReferenceMinimization:
    terms: List[BGPQuery]
    eliminated: int
    skipped: bool


def duplicate_key(term: BGPQuery):
    """A renaming-invariant key: equal exactly when the fingerprints are.

    The equivalence of :func:`repro.cache.fingerprint.query_fingerprint`
    — head variables named by position, the others by first occurrence
    over the atoms sorted by shape — computed directly.
    """
    positional = {}
    for head_term in term.head:
        if type(head_term) is Variable and head_term not in positional:
            positional[head_term] = (3, f"_qfp{len(positional)}")
    return renaming_invariant_key(term.head, term.body, positional)


def _term_meta(term: BGPQuery):
    """(constants, constant predicates) of a term's body."""
    constants = {t for atom in term.body for t in atom if not isinstance(t, Variable)}
    predicates = {a.p for a in term.body if not isinstance(a.p, Variable)}
    return frozenset(constants), frozenset(predicates)


def _may_subsume(keeper_meta, candidate_meta) -> bool:
    """Cheap necessary condition for a homomorphism keeper → candidate."""
    keeper_constants, keeper_predicates = keeper_meta
    candidate_constants, candidate_predicates = candidate_meta
    if not keeper_constants <= candidate_constants:
        return False
    return keeper_predicates <= candidate_predicates | candidate_constants


def reference_minimize_ucq(
    ucq: UCQ, max_terms: int = DEFAULT_MAX_TERMS
) -> ReferenceMinimization:
    """Empty terms, renamed duplicates, then the pairwise antichain sweep."""
    eliminated = 0
    survivors: List[BGPQuery] = []
    first_by_key = {}
    for term in ucq:
        if schema_empty_atoms(term):
            eliminated += 1
            continue
        key = duplicate_key(term)
        keeper = first_by_key.setdefault(key, term)
        if keeper is not term and is_contained(term, keeper):
            eliminated += 1
            continue
        survivors.append(term)
    skipped = len(survivors) > max_terms
    if not skipped and len(survivors) > 1:
        metas = {id(term): _term_meta(term) for term in survivors}
        kept: List[BGPQuery] = []
        for term in survivors:
            meta = metas[id(term)]
            if any(
                _may_subsume(metas[id(keeper)], meta) and is_contained(term, keeper)
                for keeper in kept
            ):
                eliminated += 1
                continue
            # The new term may in turn swallow earlier survivors.
            still_kept = []
            for keeper in kept:
                if _may_subsume(meta, metas[id(keeper)]) and is_contained(keeper, term):
                    eliminated += 1
                else:
                    still_kept.append(keeper)
            still_kept.append(term)
            kept = still_kept
        survivors = kept
    if not survivors:
        # Every term was statically empty; one stays so the UCQ is well-formed.
        survivors = [ucq.cqs[0]]
        eliminated -= 1
    return ReferenceMinimization(survivors, eliminated, skipped)


def reference_reformulate(
    query: BGPQuery, schema, limit: Optional[int] = None
) -> UCQ:
    """The unminimized reformulation, expanded term by term.

    Every row of skeletons × alternatives is built and kept unless an
    earlier term has its canonical form; ``limit`` is checked as the
    terms are listed.  This is what ``reformulate`` did before duplicate
    rows were found on the factors.
    """
    fresh = _fresh_factory(query)
    seen = set()
    results: List[BGPQuery] = []
    for skeleton in _skeletons(query, schema):
        alternatives = [_atom_alternatives(a, schema, fresh)[0] for a in skeleton.body]
        for body in product(*alternatives):
            term = BGPQuery._raw(skeleton.head, body, skeleton.name)
            if term.canonical() in seen:
                continue
            seen.add(term.canonical())
            if limit is not None and len(seen) > limit:
                raise ReformulationLimitExceeded(limit)
            results.append(term)
    return UCQ(results, name=f"{query.name}_ref", head=query.head)


def saturation_answers_match(query: BGPQuery, schema, graph, union: UCQ) -> bool:
    """Theorem 3.1 on one graph: ``union(graph) == query(saturate(graph))``."""
    return evaluate_ucq(union, graph) == evaluate_cq(query, saturate(graph, schema))
