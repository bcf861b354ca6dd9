"""CQ → interval-UCQ planning for the ``litemat`` strategy (DESIGN.md §16).

Shares phase 1 (skeletons: class/property-variable instantiation and
schema-atom resolution, rules 5-11) with the classic reformulation in
:mod:`repro.reformulation.reformulate`, then replaces the phase-2
per-atom fan-out with *interval atoms*:

* ``?x rdf:type C``  →  ``?x rdf:type [lo(C), hi(C))`` — one range-scan
  atom per merged code run of C's subclass closure, instead of one
  union term per subclass **plus** one per domain/range evidence
  property (rules 1-3/12-13; the evidence consequences are materialized
  in the derived store by :mod:`repro.reasoning.litemat`, so no
  evidence alternatives are needed);
* ``?x P ?y``  →  ``?x [lo(P), hi(P)) ?y`` — one range-scan atom per
  merged run of P's subproperty closure, instead of one union term per
  subproperty (rule 4).

On tree-shaped hierarchies every closure is a single run, so the union
size collapses to the skeleton count — the LiteMat win.  Atoms whose
class/property the encoding does not know (no entailments exist) keep
their original constant form, as do single-code runs (a plain constant
scan is the same index probe).

The memo is keyed on the encoding's schema fingerprint and the query:
an interval atom hard-codes the codes of one encoding, and an encoding
is a pure function of the schema fingerprint, so a plan is reused
exactly when the codes it embeds are the ones the store uses.
"""

from __future__ import annotations

from itertools import product
from typing import List, Optional, Set, Tuple

from ..cache.lru import MISSING, LRUCache
from ..query.algebra import UCQ
from ..query.bgp import BGPQuery
from ..rdf.schema import RDFSchema
from ..rdf.terms import IdRange, Triple, Variable
from ..rdf.vocabulary import RDF_TYPE, SCHEMA_PROPERTIES
from ..storage.interval_encoding import IntervalEncoding
from .reformulate import ReformulationLimitExceeded, _skeletons


def _interval_atom_alternatives(
    atom: Triple, encoding: IntervalEncoding
) -> Tuple[Triple, ...]:
    """The interval-atom alternative set of one skeleton atom."""
    prop = atom.p
    if isinstance(prop, Variable) or prop in SCHEMA_PROPERTIES:
        return (atom,)
    if prop == RDF_TYPE:
        cls = atom.o
        if isinstance(cls, Variable):
            return (atom,)
        ranges = encoding.class_ranges(cls)
        if not ranges:
            return (atom,)
        if len(ranges) == 1 and ranges[0][1] - ranges[0][0] == 1:
            # Leaf class: the closure is the class itself, a plain
            # constant probe on the same index.
            return (atom,)
        return tuple(Triple(atom.s, RDF_TYPE, IdRange(lo, hi)) for lo, hi in ranges)
    ranges = encoding.property_ranges(prop)
    if not ranges:
        return (atom,)
    if len(ranges) == 1 and ranges[0][1] - ranges[0][0] == 1:
        return (atom,)
    return tuple(Triple(atom.s, IdRange(lo, hi), atom.o) for lo, hi in ranges)


def interval_reformulate(
    query: BGPQuery,
    schema: RDFSchema,
    encoding: IntervalEncoding,
    limit: Optional[int] = None,
) -> UCQ:
    """One-shot CQ → interval-UCQ planning (see module docstring)."""
    seen: Set[Tuple] = set()
    results: List[BGPQuery] = []
    for skeleton in _skeletons(query, schema):
        alternative_sets = [
            _interval_atom_alternatives(atom, encoding) for atom in skeleton.body
        ]
        if not alternative_sets:
            key = skeleton.canonical()
            if key not in seen:
                seen.add(key)
                results.append(skeleton)
            continue
        head = skeleton.head
        name = skeleton.name
        for combination in product(*alternative_sets):
            candidate = BGPQuery._raw(head, combination, name)
            key = candidate.canonical()
            if key in seen:
                continue
            seen.add(key)
            if limit is not None and len(seen) > limit:
                raise ReformulationLimitExceeded(limit)
            results.append(candidate)
    return UCQ(results, name=f"{query.name}_litemat", head=query.head)


class IntervalReformulator:
    """Memoizing interval-UCQ planner bound to one schema.

    Mirrors :class:`repro.reformulation.Reformulator`; the schema part
    of the memo key is the fingerprint the *encoding* was laid out for,
    since interval atoms embed that encoding's codes (the answerer
    hands in the encoding of the store the plan will run on).
    """

    def __init__(
        self,
        schema: RDFSchema,
        limit: Optional[int] = None,
        capacity: Optional[int] = None,
    ) -> None:
        self.schema = schema
        self.limit = limit
        #: (encoding's schema fingerprint, canonical query form) → UCQ
        #: (or a memoized limit failure).
        self.cache: LRUCache = LRUCache(capacity)
        #: Number of non-memoized planning runs (instrumentation).
        self.runs = 0

    def reformulate(self, query: BGPQuery, encoding: IntervalEncoding) -> UCQ:
        """The interval-UCQ plan of ``query`` under ``encoding``."""
        key = (encoding.schema_fingerprint, query.canonical())
        cached = self.cache.get(key, MISSING)
        if cached is MISSING:
            try:
                cached = interval_reformulate(
                    query, self.schema, encoding, limit=self.limit
                )
            except ReformulationLimitExceeded as error:
                self.cache.put(key, error)
                self.runs += 1
                raise
            self.cache.put(key, cached)
            self.runs += 1
        if isinstance(cached, ReformulationLimitExceeded):
            raise cached
        return cached
