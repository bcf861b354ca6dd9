"""RDBMS-style storage: dictionary encoding, triple table, statistics."""

from .database import RDFDatabase, Snapshot
from .persistence import load_database, save_database
from .dictionary import Dictionary
from .interval_encoding import (
    CyclicHierarchyError,
    IntervalAssigner,
    IntervalEncoding,
)
from .statistics import TableStatistics
from .triple_table import PERMUTATIONS, Pattern, TripleTable

__all__ = [
    "CyclicHierarchyError",
    "Dictionary",
    "IntervalAssigner",
    "IntervalEncoding",
    "PERMUTATIONS",
    "Pattern",
    "RDFDatabase",
    "load_database",
    "save_database",
    "Snapshot",
    "TableStatistics",
    "TripleTable",
]
