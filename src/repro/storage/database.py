"""The RDF database: schema (in memory) + facts (triple table) + stats.

An :class:`RDFDatabase` is the unit every other layer works against:
the reformulation algorithm reads its schema, the engines read its
triple table, the cost model reads its statistics.  Mirrors the paper's
setup where "RDFS constraints are kept in memory, while RDF facts are
stored in a Triples(s,p,o) table".

:meth:`RDFDatabase.snapshot` names the state everything derived from
the database is current at (DESIGN.md §9): every cache key and derived
store is stamped with it, or with one of its two parts.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from ..rdf.graph import RDFGraph
from ..rdf.schema import RDFSchema, split_graph
from ..rdf.terms import Triple
from .dictionary import Dictionary
from .statistics import TableStatistics
from .triple_table import TripleTable


class Snapshot(NamedTuple):
    """One state of a database: equal snapshots saw the same schema and rows."""

    #: ``RDFSchema.fingerprint()``: what reformulations depend on.
    schema: str
    #: ``TripleTable.version``: what statistics and stored rows depend on.
    data: int


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
        self._snapshot = Snapshot("", -1)

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

        A load that stores a new row moves the :meth:`snapshot`; one
        that stores nothing new leaves it, and every cache, alone.
        """
        added = self.table.add_triples(facts)
        self.table.freeze()
        return added

    def snapshot(self) -> Snapshot:
        """The current :class:`Snapshot`, after merging any buffered rows.

        Freezing first counts the rows buffered before the call in
        ``data``, so what is derived next from the table is not stamped
        older than the rows it reads.  While neither part moves, every
        call returns the same object (every cache lookup asks).
        """
        table = self.table
        table.freeze()
        fingerprint, version = self.schema.fingerprint(), table.version
        held = self._snapshot
        if held.data != version or held.schema != fingerprint:
            held = self._snapshot = Snapshot(fingerprint, version)
        return held

    @property
    def epoch(self) -> int:
        """The table version: ``snapshot().data`` without the freeze."""
        return self.table.version

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
