"""RDFS immediate-entailment rules of the DB fragment.

The DB fragment (paper Section 2.3) restricts RDF entailment to the RDF
Schema constraints of Figure 2.  The instance-level immediate
entailment rules (named after the W3C RDFS entailment rule identifiers)
are:

==========  ==============================================  ======================
name        premises                                        conclusion
==========  ==============================================  ======================
``rdfs2``   ``p domain c``, ``x p y``                       ``x rdf:type c``
``rdfs3``   ``p range c``,  ``x p y``                       ``y rdf:type c``
``rdfs7``   ``p1 subPropertyOf p2``, ``x p1 y``             ``x p2 y``
``rdfs9``   ``c1 subClassOf c2``, ``x rdf:type c1``         ``x rdf:type c2``
==========  ==============================================  ======================

Schema-level rules (transitivity and the extensional domain/range rules)
are handled inside :class:`repro.rdf.schema.RDFSchema`'s closure, which
the functions below consult — so a single pass over the facts with the
*closed* schema reaches the instance-level fixpoint.
"""

from __future__ import annotations

from typing import Iterator, List, Tuple

from ..rdf.schema import RDFSchema
from ..rdf.terms import Triple
from ..rdf.vocabulary import RDF_TYPE


#: Rule names in the order they are reported by :func:`explain_entailment`.
RULE_NAMES: Tuple[str, ...] = ("rdfs9", "rdfs7", "rdfs2", "rdfs3")


def _conclusions(triple: Triple, schema: RDFSchema) -> Iterator[Tuple[str, Triple]]:
    """Every ``(rule, triple)`` immediately entailed by ``triple``."""
    if triple.p == RDF_TYPE:
        # rdfs9 over the closed subclass relation.
        for superclass in schema.superclasses(triple.o):
            yield "rdfs9", Triple(triple.s, RDF_TYPE, superclass)
        return
    # rdfs7 over the closed subproperty relation.
    for superproperty in schema.superproperties(triple.p):
        yield "rdfs7", Triple(triple.s, superproperty, triple.o)
    # rdfs2 / rdfs3 over the closed domain/range maps (these already
    # account for domains of superproperties and superclasses of the
    # declared domain class, i.e. rules 12-13 of DESIGN.md).
    for cls in schema.domains(triple.p):
        yield "rdfs2", Triple(triple.s, RDF_TYPE, cls)
    for cls in schema.ranges(triple.p):
        yield "rdfs3", Triple(triple.o, RDF_TYPE, cls)


def entail_from_triple(triple: Triple, schema: RDFSchema) -> Iterator[Triple]:
    """Yield every triple *immediately* entailed by ``triple`` and the schema.

    Because the schema consulted is closed (transitively and under the
    extensional domain/range rules), the yielded set is in fact every
    fact entailed from this single fact — iterating until fixpoint over
    a whole graph therefore converges in one round for new triples.
    """
    for _rule, conclusion in _conclusions(triple, schema):
        yield conclusion


def explain_entailment(triple: Triple, schema: RDFSchema) -> List[Tuple[str, Triple]]:
    """Like :func:`entail_from_triple` but labels each conclusion with its rule.

    Intended for debugging and for the tests that check per-rule
    behaviour in isolation.
    """
    return list(_conclusions(triple, schema))
