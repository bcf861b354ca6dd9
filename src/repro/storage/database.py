"""The RDF database: schema (in memory) + facts (triple table).

An :class:`RDFDatabase` is the unit every other layer works against:
the reformulation algorithm reads its schema, the engines read its
triple table, the cost model reads its counts.  Mirrors the paper's
setup where "RDFS constraints are kept in memory, while RDF facts are
stored in a Triples(s,p,o) table".

:meth:`RDFDatabase.snapshot` is the state everything derived from the
database reads (DESIGN.md §9): an immutable schema value and table view,
taken once per answer and handed to every reader, so one answer reads
one state however many writes and edits land meanwhile.  Every cache
key and derived store is stamped with its :attr:`Snapshot.key`, or one
of its two parts.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional, Tuple, Union

from ..rdf.graph import RDFGraph
from ..rdf.schema import FrozenSchema, RDFSchema, split_graph
from ..rdf.terms import Triple
from .dictionary import Dictionary
from .triple_table import TableView, TripleTable


class Snapshot(NamedTuple):
    """One state of a database: the schema value and the table view."""

    schema: FrozenSchema
    table: TableView

    @property
    def key(self) -> Tuple[str, int]:
        """``(schema fingerprint, table version)``: equal keys, same
        schema and rows; what every cache keys on."""
        return self.schema.digest, self.table.version


class RDFDatabase:
    """Schema + fact store, ready for query answering."""

    def __init__(
        self,
        schema: Union[RDFSchema, FrozenSchema, None] = None,
        table: Optional[TripleTable] = None,
        bits: int = 21,
    ):
        self.schema = schema if schema is not None else RDFSchema()
        self.table = table if table is not None else TripleTable(bits=bits)
        #: The schema value whose terms the dictionary already holds.
        self._encoded_schema: Optional[FrozenSchema] = None

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

        Freezing first counts the rows buffered before the call, so what
        is derived next from the table is not stamped older than the
        rows it reads.  A newly published schema's terms get their
        codes here, so no read allocates one for a head constant a plan
        of that schema carries (DESIGN.md §9).
        """
        self.table.freeze()
        schema = self.schema.snapshot()
        if schema is not self._encoded_schema:
            self.dictionary.encode_many(schema.terms)
            self._encoded_schema = schema
        return Snapshot(schema, self.table.view)

    @property
    def epoch(self) -> int:
        """The table version.  Its only reader is the e2e benchmark's
        staged driver (``benchmarks/e2e/e2elib/trace.py``); the library
        reads ``snapshot().table.version``."""
        return self.table.view.version

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def facts_graph(self) -> RDFGraph:
        """The stored facts decoded back into an :class:`RDFGraph`."""
        rows = self.snapshot().table.match((None, None, None))
        return RDFGraph(map(Triple, *self.dictionary.snapshot.decode_columns(rows)))

    def saturated(self) -> "RDFDatabase":
        """A new database whose facts are the saturation of this one's.

        The saturation-based answering baseline (paper Section 5.3)
        evaluates queries directly against this database.  Uses the
        vectorized encoded-level saturation; the triple-at-a-time
        :func:`repro.reasoning.saturation.saturate` is the reference
        implementation the tests compare against.
        """
        from ..reasoning.encoded import Layout, derive

        return derive(self, Layout.SATURATED).database

    def __len__(self) -> int:
        """Number of stored fact triples."""
        return len(self.table)

    @property
    def dictionary(self) -> Dictionary:
        """The shared value dictionary."""
        return self.table.dictionary

    def __repr__(self) -> str:
        return f"RDFDatabase({len(self)} facts, {self.schema!r})"
