"""Forward-chaining saturation of RDF graphs under RDFS constraints.

Saturation (paper Section 2.1) is the fixpoint of applying the
immediate-entailment rules until no new triple is derived; it makes
every implicit triple explicit, after which plain query *evaluation*
computes query *answering*: ``q(G∞) = q(saturate(G))``.

Because :func:`repro.reasoning.rules.entail_from_triple` works over the
*closed* schema, a single worklist pass converges: every consequence of
a fact is derivable directly from that fact.  The worklist still guards
against duplicates so shared consequences are derived once.

This is the reference oracle the differential tests compare against.
The store the answerer serves is saturated, and maintained under
insertions, by :func:`repro.reasoning.encoded.derive`
(``held=``, DESIGN.md §20) — the paper motivates reformulation by the
cost of exactly that maintenance.
"""

from __future__ import annotations

from ..rdf.graph import RDFGraph
from ..rdf.schema import RDFSchema
from .rules import entail_from_triple


def saturate(
    graph: RDFGraph,
    schema: RDFSchema,
    include_schema_closure: bool = False,
) -> RDFGraph:
    """Return the saturation ``G∞`` of ``graph`` under ``schema``.

    ``graph`` is not modified.  When ``include_schema_closure`` is set,
    the closure of the schema's constraint triples is materialized into
    the result as well (useful when the saturated store must also answer
    queries over the schema).
    """
    result = graph.copy()
    saturate_in_place(result, schema)
    if include_schema_closure:
        result.add_all(schema.closure_triples())
    return result


def saturate_in_place(graph: RDFGraph, schema: RDFSchema) -> int:
    """Saturate ``graph`` destructively; returns the number of added triples.

    Uses a worklist seeded with every current triple.  Each popped
    triple contributes its immediate consequences; consequences that are
    new are enqueued in turn (a no-op in practice given the closed
    schema, but it keeps the fixpoint argument independent of that
    optimization).
    """
    added = 0
    worklist = list(graph)
    while worklist:
        triple = worklist.pop()
        for consequence in entail_from_triple(triple, schema):
            if graph.add(consequence):
                added += 1
                worklist.append(consequence)
    return added
