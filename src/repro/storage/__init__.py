"""RDBMS-style storage: dictionary encoding and the triple table."""

from .database import RDFDatabase, Snapshot
from .persistence import load_database, save_database
from .dictionary import Dictionary
from .interval_encoding import CyclicHierarchyError, IntervalEncoding
from .triple_table import PERMUTATIONS, Pattern, TripleTable

__all__ = [
    "CyclicHierarchyError",
    "Dictionary",
    "IntervalEncoding",
    "PERMUTATIONS",
    "Pattern",
    "RDFDatabase",
    "load_database",
    "save_database",
    "Snapshot",
    "TripleTable",
]
