"""RDF entailment: immediate rules, saturation, counting maintenance."""

from .counting import CountingSaturator
from .encoded import DerivedStore, Layout, derive
from .rules import entail_from_triple, explain_entailment
from .saturation import saturate, saturate_in_place

__all__ = [
    "CountingSaturator",
    "DerivedStore",
    "Layout",
    "derive",
    "entail_from_triple",
    "explain_entailment",
    "saturate",
    "saturate_in_place",
]
