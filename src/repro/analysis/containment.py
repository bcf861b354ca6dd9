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
* :func:`minimize_ucq` — the UCQ subsumption pass over a *listed*
  union: drop union terms contained in a sibling, terms equal to a
  sibling up to variable renaming, and terms that are statically empty
  because they retain an unresolved RDFS constraint atom (constraints
  live in the schema closure, never in the triples table, so such an
  atom can match no data).  It groups the terms by shape and runs the
  pass the reformulator runs on its factors
  (:mod:`repro.analysis.subsumption`): one minimizer, two ways in.

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
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache.fingerprint import query_fingerprint
from ..query.algebra import UCQ
from ..query.bgp import BGPQuery, Substitution, substitute_triple
from ..rdf.terms import Term, Triple, Variable
from ..rdf.vocabulary import SCHEMA_PROPERTIES
from .subsumption import (
    DEFAULT_MAX_TERMS,
    Domain,
    Shape,
    cells_of,
    layout_of,
    subsume,
)

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


def _describe(
    term: BGPQuery, atoms: Dict[Triple, Tuple[Tuple, Tuple[Term, ...]]]
) -> Tuple[Tuple, Tuple[Term, ...], Tuple]:
    """``(layout key, head constants, pattern per atom)`` of a listed term.

    Variables are numbered by first occurrence over the body, so terms
    that differ in variable names and constants only share a key.
    ``atoms`` memoizes each atom's cells and pattern: the terms of a
    reformulation are built from few distinct atoms.
    """
    numbers: Dict[Variable, int] = {}
    layout = []
    patterns = []
    for atom in term.body:
        described = atoms.get(atom)
        if described is None:
            cells = cells_of(atom, lambda variable: variable)
            described = atoms[atom] = (
                cells,
                tuple(t for t, c in zip((atom.s, atom.p, atom.o), cells) if c is None),
            )
        layout.append(
            tuple(
                numbers.setdefault(c, len(numbers)) if type(c) is Variable else c
                for c in described[0]
            )
        )
        patterns.append(described[1])
    head = tuple(
        numbers.setdefault(t, len(numbers)) if type(t) is Variable else None
        for t in term.head
    )
    constants = tuple(t for t in term.head if type(t) is not Variable)
    return (head, tuple(layout)), constants, tuple(patterns)


def _listed_shapes(
    terms: Sequence[Tuple[int, BGPQuery]],
) -> Tuple[List[Shape], Dict[int, int]]:
    """Group listed terms into shapes; also the terms that repeat a row.

    Two terms with the same layout, head constants and patterns are the
    same term up to variable names: the later one maps to the earlier.
    """
    groups: Dict[Tuple, Tuple[List[Dict], Dict[Tuple[int, ...], int]]] = {}
    repeated: Dict[int, int] = {}
    atoms: Dict[Triple, Tuple[Tuple, Tuple[Term, ...]]] = {}
    for number, term in terms:
        layout, constants, patterns = _describe(term, atoms)
        indexes, listed = groups.setdefault(
            (layout, constants), ([{} for _ in patterns], {})
        )
        positions = tuple(
            index.setdefault(pattern, len(index))
            for index, pattern in zip(indexes, patterns)
        )
        earlier = listed.setdefault(positions, number)
        if earlier != number:
            repeated[number] = earlier
    shapes = [
        Shape(
            layout_of(*key),
            constants,
            tuple(Domain(patterns=list(index)) for index in indexes),
            listed=listed,
        )
        for (key, constants), (indexes, listed) in groups.items()
    ]
    return shapes, repeated


def minimize_ucq(
    ucq: UCQ,
    schema: object = None,
    max_terms: int = DEFAULT_MAX_TERMS,
) -> MinimizationResult:
    """Statically minimize a listed UCQ, with a certificate per elimination.

    The terms are grouped into shapes and handed to the shape-level pass
    the reformulator runs on its factors
    (:func:`repro.analysis.subsumption.subsume`, DESIGN.md §13), which
    eliminates, in effect, in three passes:

    1. **empty** — terms retaining an unresolved RDFS constraint atom
       match no data triple and are dropped;
    2. **duplicate** — terms equal up to renaming of variables (head
       variables named by position) collapse to their first
       representative;
    3. **subsumed** — a term strictly contained in a sibling, or
       equivalent to an earlier one, is dropped; the survivors form an
       antichain under containment, in union order.

    If every term is eliminable, the first term is kept so the result
    stays a well-formed UCQ (this can only happen in the all-empty
    case, where keeping an empty term preserves the empty answer).
    ``schema`` is accepted for signature stability but unused: the
    constraint-vocabulary test needs only the fixed RDFS vocabulary.
    Unions larger than ``max_terms`` after passes 1-2 skip pass 3.
    """
    del schema
    terms = ucq.cqs
    witnesses: List[Witness] = []
    live: List[Tuple[int, BGPQuery]] = []
    for number, term in enumerate(terms):
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
        else:
            live.append((number, term))
    empty = len(witnesses)
    if not live:
        # Keep one empty term so the UCQ stays well-formed (it evaluates to ∅).
        witnesses = witnesses[1:]
        empty -= 1

    shapes, repeated = _listed_shapes(live)

    def form(row: int) -> str:
        # Pass 2's notion of a duplicate: equal cache fingerprints.
        return query_fingerprint(terms[row])

    capped = len(live) - len(repeated) > max_terms
    result = subsume(shapes, form, renamings_only=capped)
    if capped and len(live) - len(repeated) - len(result.duplicates) <= max_terms:
        capped = False
        result = subsume(shapes, form)
    duplicates = len(repeated) + len(result.duplicates)
    for removed, keeper in repeated.items():
        pi = tuple(range(len(terms[removed].body)))
        witnesses.append(_witness("duplicate", terms[removed], terms[keeper], pi))
    for removed, (keeper, number) in result.eliminated.items():
        kind = "duplicate" if removed in result.duplicates else "subsumed"
        pi = result.certificates[number].hom.pi
        witnesses.append(_witness(kind, terms[removed], terms[keeper], pi))

    gone = {id(witness.removed) for witness in witnesses}
    survivors = [term for term in terms if id(term) not in gone]
    minimized = (
        ucq
        if len(survivors) == len(ucq)
        else UCQ(survivors, name=ucq.name, head=ucq.head)
    )
    counters = {
        "analysis.containment_checks": result.checks,
        "analysis.terms_eliminated": len(witnesses),
    }
    if capped:
        counters["analysis.minimize_skipped"] = 1
    return MinimizationResult(
        ucq=minimized,
        witnesses=tuple(witnesses),
        checks=result.checks,
        skipped=capped,
        duplicates=duplicates,
        empty=empty,
        subsumed=len(result.eliminated) - len(result.duplicates),
        counters=counters,
    )


def _witness(
    kind: str, removed: BGPQuery, keeper: BGPQuery, pi: Sequence[int]
) -> Witness:
    """The per-term certificate: the mapping ``pi`` spells out on two terms."""
    mapping: Substitution = {}
    for atom, onto in zip(keeper.body, pi):
        for term, image in zip(atom, removed.body[onto]):
            if type(term) is Variable:
                mapping[term] = image
    for term, image in zip(keeper.head, removed.head):
        if type(term) is Variable:
            mapping[term] = image
    return Witness(
        kind=kind, removed=removed, keeper=keeper, mapping=_frozen_mapping(mapping)
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
