"""Query model: BGP conjunctive queries, UCQ/JUCQ algebra, parser."""

from .algebra import JUCQ, UCQ, as_jucq
from .bgp import BGPQuery, Substitution, apply_substitution, substitute_triple
from .naive import evaluate, evaluate_cq, evaluate_jucq, evaluate_ucq
from .parser import SPARQLSyntaxError, parse_query, to_sparql

__all__ = [
    "BGPQuery",
    "JUCQ",
    "SPARQLSyntaxError",
    "Substitution",
    "UCQ",
    "apply_substitution",
    "as_jucq",
    "evaluate",
    "evaluate_cq",
    "evaluate_jucq",
    "evaluate_ucq",
    "parse_query",
    "substitute_triple",
    "to_sparql",
]
