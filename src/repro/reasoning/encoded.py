"""The two derived stores, derived by one function over encoded tables.

:func:`repro.reasoning.saturation.saturate` works triple-at-a-time on
:class:`~repro.rdf.graph.RDFGraph` objects — the readable reference.
This module derives from an encoded :class:`~repro.storage.TripleTable`
with numpy batch operations instead, which is what makes the
Figure 10 saturation baseline practical at the benchmark scales.

Correctness rests on the same observation the reference implementation
uses: with the schema *closure* (transitive subclass/subproperty,
domain/range inherited down subproperties and widened up subclasses),
every entailed fact is an immediate consequence of one explicit fact,
so one pass over the explicit triples reaches the fixpoint.
``tests/test_reasoning.py`` checks both implementations agree.

:func:`derive` builds either store; a :class:`Layout` says which:

* :attr:`Layout.SATURATED` — the saturation (§5.3): every consequence,
  in the base store's codes.
* :attr:`Layout.INTERVALS` — the LiteMat store (DESIGN.md §16): a fresh
  dictionary seeded with the schema vocabulary in interval order (so
  the codes of classes and properties *are* the interval codes), every
  base fact recoded through a base-code → store-code ``remap``, and only
  the domain/range ``rdf:type`` consequences stored.  Subproperty copies
  and subclass widening are left out: a range scan over the
  superproperty's or superclass's interval finds the original rows,
  while domain/range typing creates rows no range placement can conjure.

The same function maintains them under insert-only writes (DESIGN.md
§20): while the schema stands, sat(G ∪ Δ) = sat(G) ∪ sat(Δ), so given
the store it derived before it merges in only the base rows stored
since (``TableView.changes``) and their consequences, keeping the
encoding and growing the dictionary.  The base database and the held
store are never touched, so readers of either stay consistent.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, NamedTuple, Optional, Sequence

import numpy as np

from ..rdf.schema import RDFSchema
from ..rdf.terms import Term
from ..rdf.vocabulary import RDF_TYPE
from ..storage.database import RDFDatabase, Snapshot
from ..storage.dictionary import Dictionary
from ..storage.interval_encoding import IntervalEncoding
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
    interval-encoded store materializes.
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


class Layout(Enum):
    """Which derived store :func:`derive` builds (module docstring)."""

    SATURATED = "saturated"
    INTERVALS = "intervals"


class DerivedStore(NamedTuple):
    """A derived store and what it was derived from."""

    database: RDFDatabase
    #: The base table version the store reflects.
    base_version: int
    #: The interval layout of the store's codes; None: the base codes.
    encoding: Optional[IntervalEncoding] = None
    #: Base code → store code, for every base code known at the
    #: derivation; None: the identity.
    remap: Optional[np.ndarray] = None


def _renumbering(
    base: Dictionary, renumbered: Dictionary, leading: Sequence[Term], known: int
) -> np.ndarray:
    """Base code → code in ``renumbered = base.remapped(leading)``, below ``known``.

    Leading terms take the codes ``remapped`` gave them; every other
    base code shifts by the leading terms placed before it.
    """
    pairs = [(base.lookup(term), renumbered.lookup(term)) for term in leading]
    pairs = [pair for pair in pairs if pair[0] is not None and pair[0] < known]
    old, new = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    is_leading = np.zeros(known, dtype=bool)
    is_leading[old] = True
    remap = len(set(leading)) + np.arange(known) - np.cumsum(is_leading)
    remap[old] = new
    return remap


def derive(
    database: RDFDatabase,
    layout: Layout,
    held: Optional[DerivedStore] = None,
    snapshot: Optional[Snapshot] = None,
) -> DerivedStore:
    """The ``layout`` store of ``database`` at ``snapshot`` (None: the
    database's, taken here).

    ``held`` is an earlier result of the same layout for the same
    database and schema, at a version no newer than ``snapshot``'s: the
    new store keeps its encoding, starts from its indexes and takes only
    the base rows stored since, with their consequences; its dictionary
    and ``remap`` grow by the base codes allocated since.  Without it
    the delta is the whole table and the store starts empty.
    """
    if snapshot is None:
        snapshot = database.snapshot()
    base, view = database.dictionary, snapshot.table
    fresh, base_version = view.changes(None if held is None else held.base_version)
    rows = view.decode_keys(fresh)
    # Read after the rows: every code in them is below it.
    known = len(base)
    if held is not None:
        encoding, remap = held.encoding, held.remap
        out = held.database.table.copy()
    elif layout is Layout.INTERVALS:
        encoding = IntervalEncoding.from_schema(snapshot.schema)
        leading = encoding.leading_terms
        out = TripleTable(dictionary=base.remapped(leading), bits=view.bits)
        remap = _renumbering(base, out.dictionary, leading, known)
    else:
        encoding, remap = None, None
        out = TripleTable(dictionary=base, bits=view.bits)
    if remap is not None:
        # New base terms follow in base-code order, the order ``remapped``
        # would give them: a maintained store's codes equal a rebuilt one's.
        appended = [base.decode(code) for code in range(len(remap), known)]
        remap = np.concatenate(
            [remap, np.array(out.dictionary.encode_many(appended), dtype=np.int64)]
        )
        rows = remap[rows]
    hierarchy = layout is Layout.SATURATED
    # One block: the copy and the bound check are paid once per derive.
    out.add_block(
        np.concatenate(
            [rows, *consequences(snapshot.schema, out.dictionary, rows, hierarchy)]
        )
    )
    out.freeze()
    return DerivedStore(
        RDFDatabase(schema=snapshot.schema, table=out), base_version, encoding, remap
    )
