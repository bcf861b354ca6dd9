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
* :func:`is_contained` — the classical
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

Every elimination is proved by a certificate of that pass, which the
IR verifier's ``IR-M*`` rules re-check without the search
(:func:`repro.analysis.verifier.check_subsumption`); the differential
oracle asserts minimized ≡ unminimized answers besides.

The pass is *pure*: its output depends only on the UCQ and the schema
vocabulary, never on the data, so reformulation memos and plan caches
keyed by (query, schema) stay correct across data updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..cache.fingerprint import query_fingerprint
from ..query.algebra import UCQ
from ..query.bgp import BGPQuery, Substitution
from ..rdf.terms import Term, Triple, Variable
from ..rdf.vocabulary import SCHEMA_PROPERTIES
from .subsumption import (
    DEFAULT_MAX_TERMS,
    Domain,
    Shape,
    Subsumption,
    cells_of,
    layout_of,
    subsume,
)

__all__ = [
    "MinimizationResult",
    "core",
    "equivalent",
    "find_homomorphism",
    "is_contained",
    "minimize_ucq",
    "schema_empty_atoms",
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


def is_contained(sub: BGPQuery, sup: BGPQuery) -> bool:
    """``sub ⊑ sup``: every answer of ``sub`` is one of ``sup``, on any
    graph, witnessed by a homomorphism ``sup → sub``."""
    return find_homomorphism(sup, sub) is not None


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
# UCQ subsumption minimization
# ----------------------------------------------------------------------
@dataclass
class MinimizationResult:
    """Outcome of :func:`minimize_ucq`.

    ``subsumption`` is the shape-level pass's record, its row numbers
    the positions of the ``listed`` terms: the ``eliminated`` rows with
    the certificate proving each, and the ``merged`` rows that repeat an
    earlier row — what :func:`repro.analysis.verifier.check_subsumption`
    re-checks.  ``empty_rows`` are the terms dropped for an unresolved
    RDFS constraint atom.  ``skipped`` is True when the union was larger
    than ``max_terms`` and only the cheap passes ran.
    """

    ucq: UCQ
    listed: UCQ
    subsumption: Subsumption
    empty_rows: Tuple[int, ...] = ()
    skipped: bool = False

    @property
    def checks(self) -> int:
        """Homomorphism searches the pass ran."""
        return self.subsumption.checks

    @property
    def empty(self) -> int:
        """Terms dropped for an unresolved constraint atom."""
        return len(self.empty_rows)

    @property
    def duplicates(self) -> int:
        """Terms equal to an earlier one up to renaming of variables."""
        return len(self.subsumption.duplicates)

    @property
    def subsumed(self) -> int:
        """Terms contained in a sibling they are not a renaming of."""
        duplicates = self.subsumption.duplicates
        return sum(1 for row in self.subsumption.eliminated if row not in duplicates)

    @property
    def eliminated(self) -> int:
        """Number of union terms removed."""
        record = self.subsumption
        return len(self.empty_rows) + len(record.merged) + len(record.eliminated)

    def eliminations(self) -> List[Tuple[str, str]]:
        """``(kind, one-line text)`` per eliminated term (``repro analyze``).

        ``kind`` is ``"empty"``, ``"duplicate"`` or ``"subsumed"``; the
        text of a duplicate or subsumed term spells out, on the two
        listed terms, the mapping of the keeper onto it.
        """
        terms = self.listed.cqs
        record = self.subsumption
        lines: List[Tuple[str, str]] = []
        for row in self.empty_rows:
            term = terms[row]
            atom = term.body[schema_empty_atoms(term)[0]]
            lines.append(
                (
                    "empty",
                    f"{term}: unresolved constraint atom "
                    f"(atom {atom.s} {atom.p} {atom.o})",
                )
            )
        for removed, keeper in record.merged.items():
            same = range(len(terms[removed].body))
            lines.append(_elimination("duplicate", terms[removed], terms[keeper], same))
        for removed, (keeper, number) in record.eliminated.items():
            kind = "duplicate" if removed in record.duplicates else "subsumed"
            pi = record.certificates[number].hom.pi
            lines.append(_elimination(kind, terms[removed], terms[keeper], pi))
        return lines


def _elimination(
    kind: str, removed: BGPQuery, keeper: BGPQuery, pi: Sequence[int]
) -> Tuple[str, str]:
    """``(kind, text)`` of one elimination: ``pi`` spelled out on two terms."""
    mapping: Substitution = {}
    for atom, onto in zip(keeper.body, pi):
        for term, image in zip(atom, removed.body[onto]):
            if type(term) is Variable:
                mapping[term] = image
    for term, image in zip(keeper.head, removed.head):
        if type(term) is Variable:
            mapping[term] = image
    spelled = ", ".join(f"{v}->{t}" for v, t in sorted(mapping.items()))
    return kind, f"{removed} {kind} by {keeper} via {{{spelled}}}"


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
    empty_rows: List[int] = []
    live: List[Tuple[int, BGPQuery]] = []
    for number, term in enumerate(terms):
        if schema_empty_atoms(term):
            empty_rows.append(number)
        else:
            live.append((number, term))
    if not live:
        # Keep one empty term so the UCQ stays well-formed (it evaluates to ∅).
        del empty_rows[0]

    shapes, repeated = _listed_shapes(live)

    def form(row: int) -> str:
        # Pass 2's notion of a duplicate: equal cache fingerprints.
        return query_fingerprint(terms[row])

    capped = len(live) - len(repeated) > max_terms
    result = subsume(shapes, form, renamings_only=capped)
    if capped and len(live) - len(repeated) - len(result.duplicates) <= max_terms:
        capped = False
        result = subsume(shapes, form)
    # A term listed twice up to variable names repeats its first copy,
    # as a factor row repeats an earlier row.
    result.merged.update(repeated)
    result.duplicates.update(repeated)
    dropped = set(empty_rows) | set(result.merged) | set(result.eliminated)
    minimized = (
        UCQ(
            [term for number, term in enumerate(terms) if number not in dropped],
            name=ucq.name,
            head=ucq.head,
        )
        if dropped
        else ucq
    )
    return MinimizationResult(minimized, ucq, result, tuple(empty_rows), capped)


def minimization_summary(result: MinimizationResult) -> Dict[str, object]:
    """JSON-ready description of one minimization (``repro analyze``)."""
    return {
        "terms_before": len(result.listed),
        "terms_after": len(result.ucq),
        "eliminated": result.eliminated,
        "subsumed": result.subsumed,
        "duplicates": result.duplicates,
        "empty": result.empty,
        "containment_checks": result.checks,
        "skipped_subsumption": result.skipped,
        "witnesses": [text for _, text in result.eliminations()],
    }
