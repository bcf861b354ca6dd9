"""RDF substrate: terms, graphs, RDFS schemas and N-Triples IO."""

from .graph import RDFGraph
from .ntriples import dump_graph, load_graph, read_ntriples, write_ntriples
from .schema import RDFSchema, split_graph
from .terms import (
    BlankNode,
    Literal,
    Term,
    Triple,
    URI,
    Variable,
)
from .vocabulary import (
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASS,
    RDFS_SUBPROPERTY,
    SCHEMA_PROPERTIES,
)

__all__ = [
    "BlankNode",
    "Literal",
    "RDFGraph",
    "RDFSchema",
    "RDF_TYPE",
    "RDFS_DOMAIN",
    "RDFS_RANGE",
    "RDFS_SUBCLASS",
    "RDFS_SUBPROPERTY",
    "SCHEMA_PROPERTIES",
    "Term",
    "Triple",
    "URI",
    "Variable",
    "dump_graph",
    "load_graph",
    "read_ntriples",
    "split_graph",
    "write_ntriples",
]
