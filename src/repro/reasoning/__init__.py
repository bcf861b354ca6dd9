"""RDF entailment: immediate rules, saturation, counting maintenance."""

from .counting import CountingSaturator
from .litemat import interval_encode_database
from .rules import entail_from_triple, explain_entailment
from .saturation import saturate, saturate_in_place

__all__ = [
    "CountingSaturator",
    "entail_from_triple",
    "explain_entailment",
    "interval_encode_database",
    "saturate",
    "saturate_in_place",
]
