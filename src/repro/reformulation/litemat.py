"""CQ → interval-UCQ planning for the ``litemat`` strategy (DESIGN.md §16).

Shares phase 1 (skeletons: class/property-variable instantiation and
schema-atom resolution, rules 5-11) with the classic reformulation in
:mod:`repro.reformulation.reformulate`, then replaces the phase-2
per-atom fan-out with *interval atoms*:

* ``?x rdf:type C``  →  ``?x rdf:type [lo(C), hi(C))`` — one range-scan
  atom per merged code run of C's subclass closure, instead of one
  union term per subclass **plus** one per domain/range evidence
  property (rules 1-3/12-13; the evidence consequences are materialized
  in the derived store by :func:`repro.reasoning.encoded.derive`, so no
  evidence alternatives are needed);
* ``?x P ?y``  →  ``?x [lo(P), hi(P)) ?y`` — one range-scan atom per
  merged run of P's subproperty closure, instead of one union term per
  subproperty (rule 4).

On tree-shaped hierarchies every closure is a single run, so the union
size collapses to the skeleton count — the LiteMat win.  Atoms whose
class/property the encoding does not know (no entailments exist) keep
their original constant form, as do single-code runs (a plain constant
scan is the same index probe).

There is no memo here: the plan cache is the memo.  ``litemat`` plans
read the schema alone, so :meth:`repro.cache.QueryCache.plan_key` keys
them on the schema digest, and an encoding is a pure function of the
schema, so a cached plan is reused exactly when the codes it embeds are
the ones the store uses.
"""

from __future__ import annotations

from itertools import product
from typing import Tuple

from ..query.algebra import UCQ
from ..query.bgp import BGPQuery
from ..rdf.schema import RDFSchema
from ..rdf.terms import IdRange, Triple, Variable
from ..rdf.vocabulary import RDF_TYPE, SCHEMA_PROPERTIES
from ..storage.interval_encoding import IntervalEncoding
from .reformulate import _skeletons


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
    query: BGPQuery, schema: RDFSchema, encoding: IntervalEncoding
) -> UCQ:
    """CQ → interval-UCQ planning (see module docstring).

    ``UCQ`` merges the terms that are equal up to renaming, as it does
    for every union.
    """
    return UCQ(
        [
            BGPQuery._raw(skeleton.head, body, skeleton.name)
            for skeleton in _skeletons(query, schema.snapshot())
            for body in product(
                *[_interval_atom_alternatives(atom, encoding) for atom in skeleton.body]
            )
        ],
        name=f"{query.name}_litemat",
        head=query.head,
    )
