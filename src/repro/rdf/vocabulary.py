"""The rdf: / rdfs: built-in vocabulary used by the DB fragment.

The DB fragment of RDF (paper Section 2.3) restricts entailment to the
four RDF Schema constraint kinds of Figure 2 plus class/property
assertions via ``rdf:type``; these are the only built-ins the system
needs to know about.
"""

from __future__ import annotations

from .terms import URI

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"

#: ``rdf:type`` — class membership assertions ``s rdf:type C``.
RDF_TYPE = URI(RDF_NS + "type")

#: ``rdfs:subClassOf`` — subclass constraint ``C1 ⊑ C2``.
RDFS_SUBCLASS = URI(RDFS_NS + "subClassOf")

#: ``rdfs:subPropertyOf`` — subproperty constraint ``P1 ⊑ P2``.
RDFS_SUBPROPERTY = URI(RDFS_NS + "subPropertyOf")

#: ``rdfs:domain`` — domain typing ``Π_domain(P) ⊑ C``.
RDFS_DOMAIN = URI(RDFS_NS + "domain")

#: ``rdfs:range`` — range typing ``Π_range(P) ⊑ C``.
RDFS_RANGE = URI(RDFS_NS + "range")

#: The four RDFS constraint properties of Figure 2 (bottom).
SCHEMA_PROPERTIES = frozenset(
    {RDFS_SUBCLASS, RDFS_SUBPROPERTY, RDFS_DOMAIN, RDFS_RANGE}
)

#: All built-ins recognized by the DB fragment.
BUILTIN_PROPERTIES = frozenset(SCHEMA_PROPERTIES | {RDF_TYPE})
