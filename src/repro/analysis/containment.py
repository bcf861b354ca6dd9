"""Semantic query analysis: CQ containment, cores, UCQ subsumption.

Homomorphism-based conjunctive-query containment (per "Foundations of
SPARQL Query Optimization", PAPERS.md) is the decidable, sound tool for
reasoning *across* the union terms a reformulation produces.  Where the
IR verifier checks syntactic well-formedness and
:mod:`repro.reformulation.minimize` drops per-atom redundancy inside
one CQ, this module compares whole CQs:

* :func:`find_homomorphism` — a head-preserving homomorphism between
  two BGPs (constants fixed, distinguished head terms mapped
  positionally);
* :func:`is_contained` / :func:`containment_witness` — the classical
  characterization ``q1 ⊑ q2  iff  ∃ hom h: q2 → q1``;
* :func:`core` — single-BGP minimization by folding atoms under
  head-fixing endomorphisms (the query's core);
* :func:`minimize_ucq` — the UCQ subsumption pass: drop union terms
  contained in a sibling, terms equivalent to a sibling up to variable
  renaming (detected via the equivalence of the renaming-invariant
  cache fingerprints of :mod:`repro.cache.fingerprint`, keyed directly),
  and terms that are statically empty
  because they retain an unresolved RDFS constraint atom (constraints
  live in the schema closure, never in the triples table, so such an
  atom can match no data).

Every elimination carries a :class:`Witness` — an equivalence
certificate the IR verifier's ``IR-M*`` rules re-check independently
(:func:`repro.analysis.verifier.check_minimization`), and that the
differential oracle uses to assert minimized ≡ unminimized answers.

The pass is *pure*: its output depends only on the UCQ and the schema
vocabulary, never on the data, so reformulation memos and plan caches
keyed by (query, schema) stay correct across data updates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..query.algebra import UCQ
from ..query.bgp import (
    BGPQuery,
    Substitution,
    renaming_invariant_key,
    substitute_triple,
)
from ..rdf.terms import Term, Triple, Variable
from ..rdf.vocabulary import SCHEMA_PROPERTIES

__all__ = [
    "MinimizationResult",
    "Witness",
    "containment_witness",
    "core",
    "equivalent",
    "find_homomorphism",
    "is_contained",
    "minimize_ucq",
    "schema_empty_atoms",
    "verify_witness",
]

#: Union sizes past which the quadratic subsumption sweep is skipped
#: (the paper's q2-class reformulations reach ~300k terms; pairwise
#: homomorphism checks there would dwarf evaluation itself).
DEFAULT_MAX_TERMS = 512


# ----------------------------------------------------------------------
# Homomorphisms and containment
# ----------------------------------------------------------------------
def _head_seed(source: BGPQuery, target: BGPQuery) -> Optional[Substitution]:
    """The bindings forced by mapping heads positionally, or None.

    A homomorphism witnessing containment must map the *i*-th head term
    of ``source`` onto the *i*-th head term of ``target``: constants
    must coincide, distinguished variables bind (consistently).
    """
    if len(source.head) != len(target.head):
        return None
    binding: Substitution = {}
    for source_term, target_term in zip(source.head, target.head):
        if isinstance(source_term, Variable):
            bound = binding.get(source_term)
            if bound is None:
                binding[source_term] = target_term
            elif bound != target_term:
                return None
        elif source_term != target_term:
            return None
    return binding


def _extend(
    atom: Triple, candidate: Triple, binding: Substitution
) -> Optional[Substitution]:
    """Extend ``binding`` so ``atom`` maps onto ``candidate``, or None."""
    extended: Optional[Substitution] = None
    current = binding
    for query_term, image_term in zip(atom, candidate):
        if isinstance(query_term, Variable):
            bound = current.get(query_term)
            if bound is None:
                if extended is None:
                    extended = dict(binding)
                    current = extended
                current[query_term] = image_term
            elif bound != image_term:
                return None
        elif query_term != image_term:
            return None
    return extended if extended is not None else dict(binding)


def _search(
    body: Sequence[Triple],
    target_atoms: Tuple[Triple, ...],
    binding: Substitution,
) -> Optional[Substitution]:
    """Backtracking search mapping every ``body`` atom into ``target_atoms``."""
    if not body:
        return binding
    # Most-bound-first ordering keeps the branching factor low.
    def boundness(atom: Triple) -> int:
        return sum(
            1
            for term in atom
            if not isinstance(term, Variable) or term in binding
        )

    ordered = sorted(range(len(body)), key=lambda i: -boundness(body[i]))
    first = body[ordered[0]]
    rest = [body[i] for i in ordered[1:]]
    for candidate in target_atoms:
        extended = _extend(first, candidate, binding)
        if extended is None:
            continue
        result = _search(rest, target_atoms, extended)
        if result is not None:
            return result
    return None


def find_homomorphism(
    source: BGPQuery, target: BGPQuery
) -> Optional[Substitution]:
    """A head-preserving homomorphism ``h: source → target``, or None.

    ``h`` maps each variable of ``source`` to a term of ``target`` such
    that (a) ``h(source.head[i]) == target.head[i]`` for every head
    position (constants must coincide) and (b) the image of every body
    atom of ``source`` is a body atom of ``target``.  Constants map to
    themselves.  By the classical homomorphism theorem such an ``h``
    exists iff ``target ⊑ source``.
    """
    binding = _head_seed(source, target)
    if binding is None:
        return None
    return _search(source.body, target.body, binding)


def containment_witness(
    sub: BGPQuery, sup: BGPQuery
) -> Optional[Substitution]:
    """A homomorphism ``sup → sub`` witnessing ``sub ⊑ sup``, or None."""
    return find_homomorphism(sup, sub)


def is_contained(sub: BGPQuery, sup: BGPQuery) -> bool:
    """``sub ⊑ sup``: every answer of ``sub`` is one of ``sup``, on any graph."""
    return containment_witness(sub, sup) is not None


def equivalent(left: BGPQuery, right: BGPQuery) -> bool:
    """Mutual containment (same answer set over every graph)."""
    return is_contained(left, right) and is_contained(right, left)


# ----------------------------------------------------------------------
# Core computation (single-BGP minimization)
# ----------------------------------------------------------------------
def core(query: BGPQuery) -> Tuple[BGPQuery, List[Substitution]]:
    """The core of ``query``: a minimal equivalent subquery, with proofs.

    Repeatedly looks for an endomorphism that fixes the head variables
    and folds the body into a proper subset of its atoms; each fold is
    returned as a witness substitution (applying it to the pre-fold body
    lands inside the post-fold body, which proves equivalence).  The
    result has no such fold left — it is the query's core, unique up to
    variable renaming.
    """
    current = query
    witnesses: List[Substitution] = []
    head_vars = {t for t in current.head if isinstance(t, Variable)}
    changed = True
    while changed and len(current.body) > 1:
        changed = False
        for index in range(len(current.body)):
            remaining = tuple(
                atom for i, atom in enumerate(current.body) if i != index
            )
            binding: Substitution = {v: v for v in head_vars}
            mapping = _search(current.body, remaining, binding)
            if mapping is None:
                continue
            witnesses.append(mapping)
            current = BGPQuery._raw(current.head, remaining, current.name)
            changed = True
            break
    return current, witnesses


# ----------------------------------------------------------------------
# Equivalence certificates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Witness:
    """Why one union term was eliminated, with a re-checkable proof.

    ``kind`` is one of:

    * ``"subsumed"``  — ``removed ⊑ keeper``; ``mapping`` is the witness
      homomorphism ``keeper → removed`` (head-preserving, atoms land in
      ``removed``'s body);
    * ``"duplicate"`` — ``removed`` and ``keeper`` are equal up to
      renaming of variables (same cache fingerprint); ``mapping`` is
      the homomorphism ``keeper → removed`` (one direction of the
      isomorphism);
    * ``"empty"``     — ``removed`` retains an unresolved RDFS
      constraint atom (``atom_index``) and therefore matches no data
      triple; ``keeper`` is None.
    """

    kind: str
    removed: BGPQuery
    keeper: Optional[BGPQuery]
    mapping: Tuple[Tuple[Variable, Term], ...] = ()
    atom_index: Optional[int] = None

    def substitution(self) -> Substitution:
        """The witness homomorphism as a substitution dict."""
        return dict(self.mapping)

    def describe(self) -> str:
        """One-line human rendering (used by ``repro analyze``)."""
        if self.kind == "empty":
            atom = (
                self.removed.body[self.atom_index]
                if self.atom_index is not None
                and self.atom_index < len(self.removed.body)
                else None
            )
            detail = f" (atom {atom.s} {atom.p} {atom.o})" if atom else ""
            return f"{self.removed}: unresolved constraint atom{detail}"
        mapping = ", ".join(f"{v}->{t}" for v, t in self.mapping)
        return f"{self.removed} {self.kind} by {self.keeper} via {{{mapping}}}"


def _frozen_mapping(
    mapping: Substitution,
) -> Tuple[Tuple[Variable, Term], ...]:
    return tuple(sorted(mapping.items()))


def verify_witness(witness: Witness) -> Optional[str]:
    """Independently re-check one certificate; None when it holds.

    This is deliberately *not* the search that produced the witness: it
    only re-applies the recorded mapping and checks set inclusion, so a
    bug in the homomorphism search cannot vouch for itself.  Returns a
    human-readable defect description otherwise (the verifier's IR-M
    rules turn these into diagnostics).
    """
    if witness.kind == "empty":
        index = witness.atom_index
        if index is None or not 0 <= index < len(witness.removed.body):
            return f"empty-term witness has no valid atom index ({index})"
        atom = witness.removed.body[index]
        if atom.p not in SCHEMA_PROPERTIES:
            return (
                f"atom ({atom.s} {atom.p} {atom.o}) is not an RDFS "
                "constraint atom, so the term is not statically empty"
            )
        return None
    keeper = witness.keeper
    if keeper is None:
        return f"{witness.kind} witness lacks a keeper term"
    mapping = witness.substitution()
    removed = witness.removed
    if len(keeper.head) != len(removed.head):
        return "keeper and removed terms disagree on arity"
    for position, (kept_term, removed_term) in enumerate(
        zip(keeper.head, removed.head)
    ):
        image = mapping.get(kept_term, kept_term) if isinstance(
            kept_term, Variable
        ) else kept_term
        if image != removed_term:
            return (
                f"witness maps head position {position} of the keeper to "
                f"{image}, not to the removed term's {removed_term}"
            )
    removed_atoms = removed._body_set
    for atom in keeper.body:
        image_atom = substitute_triple(atom, mapping)
        if image_atom not in removed_atoms:
            return (
                f"image ({image_atom.s} {image_atom.p} {image_atom.o}) of "
                f"keeper atom ({atom.s} {atom.p} {atom.o}) is not an atom "
                "of the removed term"
            )
    return None


# ----------------------------------------------------------------------
# UCQ subsumption minimization
# ----------------------------------------------------------------------
@dataclass
class MinimizationResult:
    """Outcome of :func:`minimize_ucq`.

    ``checks`` counts homomorphism searches run; ``skipped`` is True
    when the union was larger than ``max_terms`` and only the cheap
    passes ran.
    """

    ucq: UCQ
    witnesses: Tuple[Witness, ...] = ()
    checks: int = 0
    skipped: bool = False
    duplicates: int = 0
    empty: int = 0
    subsumed: int = 0
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def eliminated(self) -> int:
        """Number of union terms removed."""
        return len(self.witnesses)


def schema_empty_atoms(term: BGPQuery) -> List[int]:
    """Indices of atoms that retain an RDFS constraint predicate.

    Constraint triples (``rdfs:subClassOf`` and friends) live in the
    schema closure, never in the triples table the reformulation is
    evaluated over, so a union term keeping one can match nothing.
    """
    return [
        index
        for index, atom in enumerate(term.body)
        if atom.p in SCHEMA_PROPERTIES
    ]


def _constants(term: BGPQuery) -> FrozenSet[Term]:
    values: Set[Term] = set()
    for atom in term.body:
        for position in atom:
            if not isinstance(position, Variable):
                values.add(position)
    return frozenset(values)


def _predicates(term: BGPQuery) -> Tuple[FrozenSet[Term], bool]:
    """(constant predicates, has-variable-predicate) of a term's body."""
    constant: Set[Term] = set()
    has_variable = False
    for atom in term.body:
        if isinstance(atom.p, Variable):
            has_variable = True
        else:
            constant.add(atom.p)
    return frozenset(constant), has_variable


def _duplicate_key(term: BGPQuery) -> Tuple:
    """A renaming-invariant key: equal exactly when the fingerprints are.

    The equivalence of :func:`repro.cache.fingerprint.query_fingerprint`
    — head variables named by position, the others by first occurrence
    over the atoms sorted by shape — computed directly: pass 2 wants a
    dictionary key per union term, not a digest, and the digest costs a
    substituted query, a ``canonical()``, a ``repr``, a sort and a hash
    each.  The two partition a union identically (a query that itself
    uses the fingerprint's ``_qfp0`` names aside: there the digest
    renames defensively and may tell two copies apart).
    """
    positional: Dict[Variable, Tuple[int, str]] = {}
    for head_term in term.head:
        if type(head_term) is Variable and head_term not in positional:
            positional[head_term] = (3, f"_qfp{len(positional)}")
    return renaming_invariant_key(term.head, term.body, positional)


def _may_subsume(
    keeper_meta: Tuple[FrozenSet[Term], FrozenSet[Term], bool],
    candidate_meta: Tuple[FrozenSet[Term], FrozenSet[Term], bool],
) -> bool:
    """Cheap necessary condition for a homomorphism keeper → candidate.

    Constants map to themselves, so every constant of the keeper must
    occur in the candidate; likewise every constant predicate (the only
    exception would be a keeper variable in predicate position, which
    the metadata tracks).
    """
    keeper_constants, keeper_preds, _ = keeper_meta
    candidate_constants, candidate_preds, candidate_has_var = candidate_meta
    del candidate_has_var
    if not keeper_constants <= candidate_constants:
        return False
    return keeper_preds <= candidate_preds | candidate_constants


def minimize_ucq(
    ucq: UCQ,
    schema: object = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> MinimizationResult:
    """Statically minimize a UCQ, recording a certificate per elimination.

    Three passes, in order:

    1. **empty** — terms retaining an unresolved RDFS constraint atom
       match no data triple and are dropped;
    2. **duplicate** — terms with the same renaming-invariant key (the
       equivalence of the cache fingerprint, :func:`_duplicate_key`)
       are collapsed to their first representative;
    3. **subsumed** — a term contained in a surviving sibling
       (homomorphism check) is dropped; the survivors form an antichain
       under containment, processed in union order for determinism.

    If every term is eliminable, the first term is kept so the result
    stays a well-formed UCQ (this can only happen in the all-empty
    case, where keeping an empty term preserves the empty answer).
    ``schema`` is accepted for signature stability but unused: the
    constraint-vocabulary test needs only the fixed RDFS vocabulary.
    Unions larger than ``max_terms`` skip the quadratic subsumption
    sweep (passes 1-2 still run).
    """
    del schema
    witnesses: List[Witness] = []
    checks = 0
    duplicates = 0
    empty = 0
    subsumed = 0

    # Pass 1 + 2: linear sweeps (empty terms, renamed duplicates).
    survivors: List[BGPQuery] = []
    first_by_key: Dict[Tuple, BGPQuery] = {}
    for term in ucq:
        empty_atoms = schema_empty_atoms(term)
        if empty_atoms:
            witnesses.append(
                Witness(
                    kind="empty",
                    removed=term,
                    keeper=None,
                    atom_index=empty_atoms[0],
                )
            )
            empty += 1
            continue
        key = _duplicate_key(term)
        keeper = first_by_key.get(key)
        if keeper is not None:
            checks += 1
            mapping = containment_witness(term, keeper)
            if mapping is not None:
                witnesses.append(
                    Witness(
                        kind="duplicate",
                        removed=term,
                        keeper=keeper,
                        mapping=_frozen_mapping(mapping),
                    )
                )
                duplicates += 1
                continue
            # Equal keys without containment: keep both.
        else:
            first_by_key[key] = term
        survivors.append(term)

    # Pass 3: pairwise subsumption, skipped for oversized unions.
    skipped = len(survivors) > max_terms
    if not skipped and len(survivors) > 1:
        metas = {
            id(term): (_constants(term), *_predicates(term))
            for term in survivors
        }
        kept: List[BGPQuery] = []
        for term in survivors:
            term_meta = metas[id(term)]
            swallowed_by: Optional[BGPQuery] = None
            mapping = None
            for keeper in kept:
                if not _may_subsume(metas[id(keeper)], term_meta):
                    continue
                checks += 1
                mapping = containment_witness(term, keeper)
                if mapping is not None:
                    swallowed_by = keeper
                    break
            if swallowed_by is not None and mapping is not None:
                witnesses.append(
                    Witness(
                        kind="subsumed",
                        removed=term,
                        keeper=swallowed_by,
                        mapping=_frozen_mapping(mapping),
                    )
                )
                subsumed += 1
                continue
            # The new term may in turn swallow earlier survivors.
            still_kept: List[BGPQuery] = []
            for keeper in kept:
                if _may_subsume(term_meta, metas[id(keeper)]):
                    checks += 1
                    reverse = containment_witness(keeper, term)
                    if reverse is not None:
                        witnesses.append(
                            Witness(
                                kind="subsumed",
                                removed=keeper,
                                keeper=term,
                                mapping=_frozen_mapping(reverse),
                            )
                        )
                        subsumed += 1
                        continue
                still_kept.append(keeper)
            still_kept.append(term)
            kept = still_kept
        survivors = kept

    if not survivors:
        # Only reachable when every term was statically empty; keep one
        # empty term so the UCQ stays well-formed (it evaluates to ∅).
        survivors = [ucq.cqs[0]]
        witnesses = [w for w in witnesses if w.removed is not ucq.cqs[0]]
        empty = max(0, empty - 1)

    minimized = (
        ucq
        if len(survivors) == len(ucq)
        else UCQ(survivors, name=ucq.name, head=ucq.head)
    )
    counters = {
        "analysis.containment_checks": checks,
        "analysis.terms_eliminated": len(witnesses),
    }
    if skipped:
        counters["analysis.minimize_skipped"] = 1
    return MinimizationResult(
        ucq=minimized,
        witnesses=tuple(witnesses),
        checks=checks,
        skipped=skipped,
        duplicates=duplicates,
        empty=empty,
        subsumed=subsumed,
        counters=counters,
    )


def minimization_summary(
    original: UCQ, result: MinimizationResult
) -> Dict[str, object]:
    """JSON-ready description of one minimization (``repro analyze``)."""
    return {
        "terms_before": len(original),
        "terms_after": len(result.ucq),
        "eliminated": result.eliminated,
        "subsumed": result.subsumed,
        "duplicates": result.duplicates,
        "empty": result.empty,
        "containment_checks": result.checks,
        "skipped_subsumption": result.skipped,
        "witnesses": [w.describe() for w in result.witnesses],
    }


def contained_terms(
    terms: Iterable[BGPQuery], max_terms: int = DEFAULT_MAX_TERMS
) -> List[Tuple[int, int]]:
    """Pairs ``(i, j)`` where term ``i`` is contained in sibling ``j``.

    Used by lint rule L111; bounded by ``max_terms`` like the pass.
    """
    indexed = list(terms)
    if len(indexed) > max_terms:
        return []
    pairs: List[Tuple[int, int]] = []
    metas = [(_constants(t), *_predicates(t)) for t in indexed]
    for i, term in enumerate(indexed):
        for j, other in enumerate(indexed):
            if i == j or not _may_subsume(metas[j], metas[i]):
                continue
            if is_contained(term, other):
                pairs.append((i, j))
    return pairs
