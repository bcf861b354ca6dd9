"""Vectorized saturation over dictionary-encoded triple tables.

:func:`repro.reasoning.saturation.saturate` works triple-at-a-time on
:class:`~repro.rdf.graph.RDFGraph` objects — the readable reference.
This module saturates an encoded :class:`~repro.storage.TripleTable`
with numpy batch operations instead, which is what makes the
Figure 10 saturation baseline practical at the benchmark scales.

Correctness rests on the same observation the reference implementation
uses: with the schema *closure* (transitive subclass/subproperty,
domain/range inherited down subproperties and widened up subclasses),
every entailed fact is an immediate consequence of one explicit fact,
so one pass over the explicit triples reaches the fixpoint.
``tests/test_reasoning.py`` checks both implementations agree.

It also makes the store maintainable under insert-only writes
(DESIGN.md §20): while the schema stands, sat(G ∪ Δ) = sat(G) ∪ sat(Δ),
so :func:`saturate_database`, given the store it derived before, merges
in only the base rows stored since (``TableView.changes``) and their
consequences.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

import numpy as np

from ..rdf.schema import RDFSchema
from ..rdf.vocabulary import RDF_TYPE
from ..storage.database import RDFDatabase, Snapshot
from ..storage.dictionary import Dictionary
from ..storage.triple_table import TripleTable


def _grouped(rows: np.ndarray, column: int) -> Dict[int, np.ndarray]:
    """``{code: the rows carrying it at column}`` of an ``(n, 3)`` block."""
    rows = rows[np.argsort(rows[:, column], kind="stable")]
    codes = rows[:, column]
    bounds = np.flatnonzero(codes[1:] != codes[:-1]) + 1
    return {
        int(group[0, column]): group for group in np.split(rows, bounds) if len(group)
    }


def consequences(
    schema: RDFSchema, dictionary: Dictionary, rows: np.ndarray, hierarchy: bool = True
) -> List[np.ndarray]:
    """The immediate consequences of an ``(n, 3)`` block of explicit facts.

    One vectorized batch per (property or class, rule) pair.
    ``hierarchy=False`` keeps domain/range typing only: what the
    interval-encoded store materializes (``reasoning/litemat.py``).
    """
    encode = dictionary.encode
    type_code = encode(RDF_TYPE)
    out: List[np.ndarray] = []

    def typed(subjects: np.ndarray, cls) -> None:
        block = np.empty((subjects.shape[0], 3), dtype=np.int64)
        block[:, 0] = subjects
        block[:, 1] = type_code
        block[:, 2] = encode(cls)
        out.append(block)

    by_property = _grouped(rows, 1)
    for prop in schema.properties:
        group = by_property.get(dictionary.lookup(prop))
        if group is None:
            continue
        if hierarchy:
            for superproperty in schema.superproperties(prop):
                block = group.copy()
                block[:, 1] = encode(superproperty)
                out.append(block)
        for cls in schema.domains(prop):
            typed(group[:, 0], cls)
        for cls in schema.ranges(prop):
            typed(group[:, 2], cls)
    if hierarchy and type_code in by_property:
        by_class = _grouped(by_property[type_code], 2)
        for cls in schema.classes:
            group = by_class.get(dictionary.lookup(cls))
            if group is None:
                continue
            for superclass in schema.superclasses(cls):
                block = group.copy()
                block[:, 2] = encode(superclass)
                out.append(block)
    return out


class Saturated(NamedTuple):
    """A saturated store and the base table version it reflects."""

    database: RDFDatabase
    base_version: int


def saturate_database(
    database: RDFDatabase,
    held: Optional[Saturated] = None,
    snapshot: Optional[Snapshot] = None,
) -> Saturated:
    """A new database whose fact table is the saturation of ``database``'s.

    ``snapshot`` is the state saturated (None: the database's, taken
    here).  ``held`` is an earlier result for the same database and
    schema, at a version no newer than ``snapshot``'s: the new store
    starts from its indexes and takes only the base rows stored since,
    with their consequences.  ``held`` itself is not touched.
    """
    if snapshot is None:
        snapshot = database.snapshot()
    view = snapshot.table
    if held is None:
        out = TripleTable(dictionary=database.dictionary, bits=view.bits)
        fresh, base_version = view.changes(None)
    else:
        out = held.database.table.copy()
        fresh, base_version = view.changes(held.base_version)
    rows = view.decode_keys(fresh)
    out.add_block(rows)
    for block in consequences(snapshot.schema, database.dictionary, rows):
        out.add_block(block)
    out.freeze()
    return Saturated(RDFDatabase(schema=snapshot.schema, table=out), base_version)
