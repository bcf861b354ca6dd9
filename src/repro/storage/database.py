"""The RDF database: schema (in memory) + facts (triple table) + stats.

An :class:`RDFDatabase` is the unit every other layer works against:
the reformulation algorithm reads its schema, the engines read its
triple table, the cost model reads its statistics.  Mirrors the paper's
setup where "RDFS constraints are kept in memory, while RDF facts are
stored in a Triples(s,p,o) table".
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..rdf.graph import RDFGraph
from ..rdf.schema import RDFSchema, split_graph
from ..rdf.terms import Triple
from .dictionary import Dictionary
from .statistics import TableStatistics
from .triple_table import TripleTable


class RDFDatabase:
    """Schema + fact store + statistics, ready for query answering."""

    def __init__(
        self,
        schema: Optional[RDFSchema] = None,
        table: Optional[TripleTable] = None,
        bits: int = 21,
    ):
        self.schema = schema if schema is not None else RDFSchema()
        self.table = table if table is not None else TripleTable(bits=bits)
        self.statistics = TableStatistics(self.table)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_triples(cls, triples: Iterable[Triple], bits: int = 21) -> "RDFDatabase":
        """Split a triple stream into constraints and facts and load it."""
        schema, facts = split_graph(triples)
        db = cls(schema=schema, bits=bits)
        db.load_facts(facts)
        return db

    @classmethod
    def from_graph(cls, graph: RDFGraph, bits: int = 21) -> "RDFDatabase":
        """Load an in-memory graph (constraints are routed to the schema)."""
        return cls.from_triples(graph, bits=bits)

    def load_facts(self, facts: Iterable[Triple]) -> int:
        """Add fact triples and merge them into the indexes.

        Statistics invalidation is automatic: the mutation bumps the
        table version (and thus :attr:`epoch`), which every statistics
        read — and every epoch-keyed cache — checks.
        """
        added = self.table.add_triples(facts)
        self.table.freeze()
        return added

    @property
    def epoch(self) -> int:
        """The statistics snapshot epoch; bumps on every data mutation.

        Plan- and cardinality-cache entries are keyed by this value so
        data updates invalidate them, while schema-fingerprint-keyed
        reformulations survive (DESIGN.md §9).
        """
        return self.statistics.epoch

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def facts_graph(self) -> RDFGraph:
        """The stored facts decoded back into an :class:`RDFGraph`."""
        rows = self.table.match((None, None, None))
        return RDFGraph(map(Triple, *self.dictionary.snapshot.decode_columns(rows)))

    def saturated(self) -> "RDFDatabase":
        """A new database whose facts are the saturation of this one's.

        The saturation-based answering baseline (paper Section 5.3)
        evaluates queries directly against this database.  Uses the
        vectorized encoded-level saturation; the triple-at-a-time
        :func:`repro.reasoning.saturation.saturate` is the reference
        implementation the tests compare against.
        """
        from ..reasoning.encoded import saturate_database

        return saturate_database(self).database

    def __len__(self) -> int:
        """Number of stored fact triples."""
        return len(self.table)

    @property
    def dictionary(self) -> Dictionary:
        """The shared value dictionary."""
        return self.table.dictionary

    def __repr__(self) -> str:
        return f"RDFDatabase({len(self)} facts, {self.schema!r})"
