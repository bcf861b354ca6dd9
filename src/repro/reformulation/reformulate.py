"""CQ → UCQ reformulation for the DB fragment of RDF.

This is the backward-chaining ``Reformulate`` algorithm of the paper's
Section 2.3 (introduced in its references [23]/[4]): starting from the
input BGP query, reformulation rules are applied exhaustively, and the
union of every conjunctive query produced along the way — original
included — is the UCQ reformulation, whose *evaluation* over the
non-saturated database equals the *answer set* of the input query:
``q(db∞) = q_ref(db)``.

The rule set (13 rules, documented in DESIGN.md Section 4) works over
the *closure* of the RDFS schema, so each rule application reaches
every consequence in one step.

Implementation: a two-phase factorization of the naive worklist
closure, required because realistic reformulations reach hundreds of
thousands of union terms (the paper's q2 has 318,096):

* **Phase 1 — skeletons.**  A worklist applies only the rules whose
  effect crosses atoms: class/property-variable instantiation (rules
  5-7) and schema-atom resolution (rules 8-11), both of which
  substitute throughout the query.  The result is a set of *skeleton*
  CQs with no remaining cross-atom rule application.
* **Phase 2 — per-atom product.**  The remaining rules (1-4 and 12-13)
  specialize a single atom using only that atom's terms, so each
  skeleton's reformulation is exactly the cross product of its per-atom
  alternative sets, materialized directly without re-running any rules.

Equivalence with the naive closure holds because phase-2 rules never
create a new instantiable position (their outputs have constant
classes/properties), and they never bind variables shared across atoms
(fresh variables only) — so no phase-1 rule can ever fire on a phase-2
result.  ``tests/test_reformulate.py`` pins this with the golden
equivalence property against saturation.  Both phases read the schema's
sets sorted, so the order of the terms and the fresh-variable names
they carry do not follow the hash seed (DESIGN.md §4).

The two phases are kept *as factors* (:class:`_Factors`: per skeleton
the head and the per-atom alternative tuples, each alternative in one
of three layout classes) until the union is known: duplicate rows, the
term limit and — in :class:`Reformulator` — UCQ subsumption are all
decided on the factors (:mod:`repro.analysis.subsumption`, DESIGN.md
§13), and only the rows that survive are expanded into ``BGPQuery``
terms, in skeleton-major product order.

Reproduction of the paper's Example 4: for
``q(x, y) :- x rdf:type y`` over the book/author schema, this module
produces exactly the 11 union terms (0)-(10) listed in the paper.
"""

from __future__ import annotations

import copy
import threading
from bisect import bisect_right
from itertools import compress, product
from math import prod
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from ..analysis.subsumption import (
    DEFAULT_MAX_TERMS,
    Domain,
    Shape,
    cells_of,
    layout_of,
    subsume,
)
from ..cache.lru import LRUCache
from ..rdf.schema import FrozenSchema, RDFSchema
from ..rdf.terms import Triple, Variable
from ..rdf.vocabulary import (
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASS,
    RDFS_SUBPROPERTY,
    SCHEMA_PROPERTIES,
)
from ..query.algebra import UCQ
from ..query.bgp import BGPQuery, Substitution


class ReformulationLimitExceeded(RuntimeError):
    """Raised when the UCQ grows past the caller-supplied term limit."""

    def __init__(self, limit: int):
        super().__init__(f"reformulation exceeded {limit} union terms")
        self.limit = limit

    def __reduce__(self):
        # The default would replay ``args`` (the formatted message) into
        # ``__init__(limit)``; reconstruct from the real limit so the
        # exception survives freeze/thaw (plan-cache failure memoization)
        # and pickling.
        return (type(self), (self.limit,))


class _Factors:
    """The factorized union of one query: skeletons × per-atom alternatives.

    Union term number ``base + Σ_j k_j · stride_j`` of a skeleton takes
    alternative ``k_j`` for atom ``j`` (the last atom varies fastest:
    ``itertools.product`` order), skeletons in :func:`_skeletons` order.
    """

    __slots__ = ("name", "head", "skeletons", "count")

    def __init__(self, query: BGPQuery, schema: FrozenSchema) -> None:
        fresh = _fresh_factory(query)
        self.name = f"{query.name}_ref"
        self.head = query.head
        #: Per skeleton: the CQ, per atom its alternatives and where
        #: their evidence classes start, then the number of its first
        #: union term and how many it has.
        self.skeletons: List[Tuple[BGPQuery, Tuple, Tuple, int, int]] = []
        total = 0
        for skeleton in _skeletons(query, schema):
            atoms = [_atom_alternatives(a, schema, fresh) for a in skeleton.body]
            alternatives = tuple(options for options, _ in atoms)
            size = prod(map(len, alternatives))
            self.skeletons.append(
                (skeleton, alternatives, tuple(cuts for _, cuts in atoms), total, size)
            )
            total += size
        #: Σ skeleton ∏ |alternatives|: the union's size before duplicate
        #: rows (equal up to renaming) are merged.
        self.count = total

    def shapes(self) -> List[Shape]:
        """One :class:`Shape` per skeleton × layout class per atom."""
        shapes: List[Shape] = []
        for skeleton, alternatives, cuts, base, stride in self.skeletons:
            head = tuple(t if type(t) is Variable else None for t in skeleton.head)
            constants = tuple(t for t in skeleton.head if type(t) is not Variable)
            empty = _keeps_constraint_atom(skeleton)
            classes = []
            for j, (options, (domain, range_)) in enumerate(zip(alternatives, cuts)):
                stride //= len(options)
                own = (options[0].s, options[0].p, options[0].o)
                atom_classes = []
                for start, stop in (0, domain), (domain, range_), (range_, len(options)):
                    if start < stop:
                        # An evidence class brings one fresh variable;
                        # the atom's number stands for it in the layout.
                        cells = cells_of(
                            options[start], lambda v: v if v in own else j
                        )
                        atom_classes.append(
                            (
                                cells,
                                Domain(triples=options[start:stop], cells=cells),
                                range(start * stride, stop * stride, stride),
                            )
                        )
                classes.append(atom_classes)
            for choice in product(*classes):
                shapes.append(
                    Shape(
                        layout_of(head, tuple(cells for cells, _, _ in choice)),
                        constants,
                        tuple(domain for _, domain, _ in choice),
                        tuple(parts for _, _, parts in choice),
                        base,
                        empty,
                    )
                )
        return shapes

    def empty_rows(self) -> Set[int]:
        """Rows that keep an RDFS constraint atom (they match no data)."""
        rows: Set[int] = set()
        for skeleton, _, _, base, size in self.skeletons:
            if _keeps_constraint_atom(skeleton):
                rows.update(range(base, base + size))
        return rows

    def _term(self, row: int) -> BGPQuery:
        at = bisect_right(self.skeletons, row, key=lambda entry: entry[3]) - 1
        skeleton, alternatives, _, base, _ = self.skeletons[at]
        rest = row - base
        body = []
        for options in reversed(alternatives):
            rest, k = divmod(rest, len(options))
            body.append(options[k])
        return BGPQuery._raw(skeleton.head, tuple(reversed(body)), skeleton.name)

    def form(self, row: int) -> Tuple:
        """The canonical form of union term ``row``: what ``UCQ`` merges on."""
        return self._term(row).canonical()

    def more_forms_than(self, limit: int) -> bool:
        """True when the rows surely hold more than ``limit`` distinct
        :meth:`form` values, whatever merging renamings finds.

        A row's *signature* is its head and the set of its atoms with
        every non-head variable masked.  It is a function of the row's
        form, so rows of one form share one signature and the distinct
        signatures are a lower bound on the distinct forms.  They are
        counted on the factors, over each atom's distinct masked
        alternatives, stopping at the first past ``limit``.
        """
        signatures: Set[Tuple] = set()
        for skeleton, alternatives, _, _, _ in self.skeletons:
            head = frozenset(t for t in skeleton.head if type(t) is Variable)

            def mask(term):
                return None if type(term) is Variable and term not in head else term

            masked = [
                {(mask(a.s), mask(a.p), mask(a.o)) for a in options}
                for options in alternatives
            ]
            for atoms in product(*masked):
                signatures.add((skeleton.head, frozenset(atoms)))
                if len(signatures) > limit:
                    return True
        return False

    def terms(self, dropped: Set[int]) -> List[BGPQuery]:
        """The union terms, in order, minus the ``dropped`` rows."""
        keep = bytearray(b"\x01") * self.count
        for row in dropped:
            keep[row] = 0
        results: List[BGPQuery] = []
        for skeleton, alternatives, _, base, size in self.skeletons:
            if not alternatives:
                if keep[base]:
                    results.append(skeleton)
                continue
            head, name = skeleton.head, skeleton.name
            rows = compress(product(*alternatives), keep[base : base + size])
            results.extend([BGPQuery._raw(head, body, name) for body in rows])
        return results


def _keeps_constraint_atom(skeleton: BGPQuery) -> bool:
    return any(atom.p in SCHEMA_PROPERTIES for atom in skeleton.body)


def _materialize(
    factors: _Factors,
    limit: Optional[int],
    minimize: bool,
    count: Callable[[int, int, bool], None],
) -> UCQ:
    """The union of ``factors``: minimized on the factors, then expanded.

    Rows equal to an earlier row up to renaming are always merged, and
    ``limit`` is checked against what is left of ``factors.count`` (a
    union surely past it is refused before the merges are looked for); with
    ``minimize`` the constraint-atom rows and, up to
    :data:`DEFAULT_MAX_TERMS` rows, the subsumed rows are dropped too,
    each elimination re-checked from its certificate.  Only survivors
    are ever built, and their forms are pairwise distinct, so they go
    to ``UCQ._raw`` as they are.  A minimized union reports its work
    once through ``count(containment checks, terms eliminated, skipped)``.
    """
    total = factors.count
    if total == 1 and (limit is None or limit >= 1):
        # One row: nothing to merge it into, nothing to contain it.
        return UCQ._raw(factors.terms(set()), factors.name, factors.head)
    if limit is not None and total > limit and factors.more_forms_than(limit):
        # Merging cannot bring the union under the limit: refuse before
        # the pass that would find the merges.
        raise ReformulationLimitExceeded(limit)
    shapes = factors.shapes()
    empty = factors.empty_rows() if minimize else set()
    # Past the cap only renamings are looked for, as long as merging
    # them does not bring the union back under it.
    capped = not minimize or total - len(empty) > DEFAULT_MAX_TERMS
    result = subsume(shapes, factors.form, renamings_only=capped)
    if limit is not None and total - len(result.duplicates) > limit:
        raise ReformulationLimitExceeded(limit)
    if minimize and capped:
        live = total - len(empty) - len(result.duplicates - empty)
        if live <= DEFAULT_MAX_TERMS:
            capped = False
            result = subsume(shapes, factors.form)
    if result.eliminated:
        from ..analysis.verifier import verify_subsumption

        verify_subsumption(result)
    dropped = set(result.merged) | set(result.eliminated)
    if minimize:
        empty -= result.duplicates
        if len(dropped | empty) == total:
            # Every term keeps a constraint atom; one stays so the UCQ
            # is well-formed (it evaluates to ∅).
            empty.discard(min(empty))
        dropped |= empty
        count(result.checks, len(dropped) - len(result.duplicates), capped)
    return UCQ._raw(factors.terms(dropped), factors.name, factors.head)


class Reformulator:
    """Reusable CQ → UCQ reformulation engine bound to one schema.

    Memoizes per-query results: the optimizers reformulate the same
    cover queries (fragments) many times while scoring candidate covers.

    The memo is the *reformulation cache* level of DESIGN.md §9: an
    unbounded LRU keyed by the schema fingerprint — the schema part of
    the database snapshot — and the query's canonical form.  Key and union come from one schema value,
    ``schema.snapshot()`` taken once per call (:meth:`at` pins one for a
    whole plan).  A schema mutation makes every later lookup a new key,
    while data updates leave the entries valid (a reformulation is a
    pure schema consequence).

    ``minimize`` (on by default) runs the shape-level subsumption pass
    (:func:`repro.analysis.subsumption.subsume`, DESIGN.md §13) on the
    factorized union before any term is built, so all strategies — ucq,
    pruned-ucq, scq and the gcov/ecov cover searches, which all
    reformulate through this class — plan over the minimized union and
    only its terms are ever materialized.  The pass is a pure function
    of (query, schema), so memoizing its output keeps the cache contract
    intact.  Every elimination's certificate is re-checked by the IR
    verifier's ``IR-M*`` rules before the union is returned; a failure
    raises :class:`repro.analysis.IRVerificationError` rather than
    letting an unsound elimination reach the planner.
    """

    def __init__(
        self,
        schema: RDFSchema,
        limit: Optional[int] = None,
        minimize: bool = True,
    ):
        self.schema = schema
        self.limit = limit
        #: (schema fingerprint, canonical query form) → UCQ (or a
        #: frozen limit failure).
        self.cache: LRUCache = LRUCache()
        self.minimize = minimize
        #: Lifetime counters of the minimization pass's work, exported
        #: by the answerer as ``repro.analysis.*`` registry counters.
        #: Every key exists from the start and is bumped under
        #: ``_counters_lock``, so the reformulating threads lose no
        #: increment and an exporter iterating the dict never sees it
        #: grow.
        self.analysis_counters: Dict[str, int] = {
            "analysis.terms_eliminated": 0,
            "analysis.containment_checks": 0,
            "analysis.minimize_skipped": 0,
        }
        self._counters_lock = threading.Lock()

    @property
    def runs(self) -> int:
        """Number of non-memoized reformulation runs (instrumentation)."""
        return self.cache.misses

    def at(self, schema: FrozenSchema) -> "Reformulator":
        """This reformulator reading ``schema``: the same memos and counters."""
        pinned = copy.copy(self)
        pinned.schema = schema
        return pinned

    def reformulate(self, query: BGPQuery) -> UCQ:
        """The (minimized) UCQ reformulation of ``query`` w.r.t. the schema.

        Limit overruns are memoized too (frozen, re-raised fresh by
        :meth:`LRUCache.memo`), so a fragment that once blew the term
        limit fails instantly on every later request.
        """
        schema = self.schema.snapshot()
        key = (schema.fingerprint(), query.canonical())
        return self.cache.memo(
            key,
            lambda: _materialize(
                _Factors(query, schema),
                self.limit,
                self.minimize,
                self._count,
            ),
            (ReformulationLimitExceeded,),
        )[0]

    def _count(self, checks: int, eliminated: int, skipped: bool) -> None:
        """Add one minimized union's work to ``analysis_counters``."""
        counters = self.analysis_counters
        with self._counters_lock:
            counters["analysis.containment_checks"] += checks
            counters["analysis.terms_eliminated"] += eliminated
            counters["analysis.minimize_skipped"] += int(skipped)


def reformulate(
    query: BGPQuery, schema: RDFSchema, limit: Optional[int] = None
) -> UCQ:
    """One-shot, unminimized CQ → UCQ reformulation (see :class:`Reformulator`)."""
    # Never minimized, so never counted.
    return _materialize(
        _Factors(query, schema.snapshot()), limit, False, lambda *work: None
    )


def reformulation_count(query: BGPQuery, schema: RDFSchema) -> int:
    """An upper bound on ``|q_ref|`` computed without materialization.

    Sums, over the phase-1 skeletons, the product of the per-atom
    alternative-set sizes.  Exact up to the (typically tiny) number of
    cross-skeleton and renaming-isomorphic duplicates that full
    materialization would additionally merge.
    """
    return _Factors(query, schema.snapshot()).count


def _fresh_factory(query: BGPQuery):
    """Fresh-variable generator avoiding the query's own variable names."""
    taken = {v.value for v in query.variables()}
    counter = 0

    def fresh() -> Variable:
        nonlocal counter
        while True:
            name = f"_f{counter}"
            counter += 1
            if name not in taken:
                return Variable(name)

    return fresh


# ----------------------------------------------------------------------
# Phase 1: instantiation / schema-resolution closure
# ----------------------------------------------------------------------
def _skeletons(query: BGPQuery, schema: FrozenSchema) -> List[BGPQuery]:
    """Close ``query`` under the cross-atom rules (5-11)."""
    seen: Set[Tuple] = {query.canonical()}
    skeletons: List[BGPQuery] = []
    worklist: List[BGPQuery] = [query]
    while worklist:
        cq = worklist.pop()
        skeletons.append(cq)
        for candidate in _instantiation_step(cq, schema):
            key = candidate.canonical()
            if key not in seen:
                seen.add(key)
                worklist.append(candidate)
    return skeletons


def _instantiation_step(cq: BGPQuery, schema: FrozenSchema) -> Iterator[BGPQuery]:
    """One application of rules 5-7 (instantiation) or 8-11 (schema atoms)."""
    for index, atom in enumerate(cq.body):
        prop = atom.p
        if isinstance(prop, Variable):
            # Rules 6-7: instantiate a property variable with every
            # schema property, and with rdf:type.
            for candidate in sorted(schema.properties):
                yield cq.substitute({prop: candidate})
            yield cq.substitute({prop: RDF_TYPE})
            continue
        if prop == RDF_TYPE and isinstance(atom.o, Variable):
            # Rule 5: instantiate a class variable with every class.
            for candidate in sorted(schema.classes):
                yield cq.substitute({atom.o: candidate})
            continue
        if prop in SCHEMA_PROPERTIES:
            # Rules 8-11: resolve constraint atoms against the schema
            # closure (constraints are not stored in the triples table).
            yield from _resolve_schema_atom(cq, index, atom, schema)


# ----------------------------------------------------------------------
# Phase 2: per-atom specialization alternatives
# ----------------------------------------------------------------------
def _atom_alternatives(
    atom: Triple, schema: FrozenSchema, fresh
) -> Tuple[Tuple[Triple, ...], Tuple[int, int]]:
    """The atom itself plus every rule-1-4/12-13 specialization of it.

    The alternatives come in three layout classes, in this order: the
    atom's own layout with another constant (rules 1 and 4), domain
    evidence ``s p _f`` (rules 2 & 12) and range evidence ``_f p s``
    (rules 3 & 13); the second value says where the two evidence
    classes start.
    """
    prop = atom.p
    if isinstance(prop, Variable) or prop in SCHEMA_PROPERTIES:
        return (atom,), (1, 1)
    if prop == RDF_TYPE:
        cls = atom.o
        if isinstance(cls, Variable):
            return (atom,), (1, 1)
        alternatives = [atom]
        # Rule 1: specialize the class along the subclass closure.
        for sub in sorted(schema.subclasses(cls)):
            alternatives.append(Triple(atom.s, RDF_TYPE, sub))
        domain = len(alternatives)
        # Rules 2 & 12: evidence via a property whose closed domain
        # includes the class.
        for p in sorted(schema.properties_with_domain(cls)):
            alternatives.append(Triple(atom.s, p, fresh()))
        range_ = len(alternatives)
        # Rules 3 & 13: same, via range.
        for p in sorted(schema.properties_with_range(cls)):
            alternatives.append(Triple(fresh(), p, atom.s))
        return tuple(alternatives), (domain, range_)
    # Rule 4: specialize the property along the subproperty closure.
    alternatives = [atom]
    for sub in sorted(schema.subproperties(prop)):
        alternatives.append(Triple(atom.s, sub, atom.o))
    return tuple(alternatives), (len(alternatives),) * 2


def _resolve_schema_atom(
    cq: BGPQuery, index: int, atom: Triple, schema: FrozenSchema
) -> Iterator[BGPQuery]:
    """Bind a constraint atom against every matching closure triple."""
    for closure_triple in _closure_matches(atom, schema):
        substitution: Substitution = {}
        consistent = True
        for query_term, schema_term in zip(atom, closure_triple):
            if isinstance(query_term, Variable):
                bound = substitution.get(query_term)
                if bound is None:
                    substitution[query_term] = schema_term
                elif bound != schema_term:
                    consistent = False
                    break
            elif query_term != schema_term:
                consistent = False
                break
        if not consistent:
            continue
        # Ground the match first (so head variables bound by the schema
        # atom stay safe), then drop the now-satisfied atom.
        grounded = cq.substitute(substitution) if substitution else cq
        yield grounded.replace_atom(index, [])


def _closure_matches(atom: Triple, schema: FrozenSchema) -> Iterator[Triple]:
    """Closure triples with the same constraint property as ``atom``.

    The closure here includes the *asserted* constraints as well (a
    constraint entails itself), so fully explicit schema atoms resolve
    too.
    """
    prop = atom.p
    if prop == RDFS_SUBCLASS:
        yield from _pairs(schema, schema.superclasses, schema.classes, prop)
    elif prop == RDFS_SUBPROPERTY:
        yield from _pairs(schema, schema.superproperties, schema.properties, prop)
    elif prop == RDFS_DOMAIN:
        for p in sorted(schema.properties):
            for cls in sorted(schema.domains(p)):
                yield Triple(p, prop, cls)
    elif prop == RDFS_RANGE:
        for p in sorted(schema.properties):
            for cls in sorted(schema.ranges(p)):
                yield Triple(p, prop, cls)


def _pairs(schema: FrozenSchema, upward, members, prop) -> Iterator[Triple]:
    for member in sorted(members):
        for ancestor in sorted(upward(member)):
            yield Triple(member, prop, ancestor)
