"""Interval-encoded derived store construction (DESIGN.md §16).

Builds, from a base :class:`~repro.storage.database.RDFDatabase`, the
derived database the ``litemat`` strategy evaluates against:

* a **fresh dictionary** seeded with the schema vocabulary in interval
  order (classes first, then properties — see
  :class:`repro.storage.interval_encoding.IntervalEncoding`), so the
  dictionary codes of classes and properties *are* the interval codes;
* every base fact re-encoded onto the new codes (a vectorized gather
  through an old-code → new-code map);
* the **domain/range ``rdf:type`` consequences** materialized:
  :func:`repro.reasoning.encoded.consequences` without the hierarchy
  rules.

That is all the saturation the interval scans cannot recover:
subproperty copies are omitted (a predicate range scan over the
subproperty interval finds the original fact rows) and subclass
widening of explicit types is omitted (a subclass's code lies inside
every superclass's interval).  Domain/range typing, however, creates
*new* ``rdf:type`` rows from non-type facts, which no range placement
can conjure — so those are stored.

The base database is never touched: its dictionary and table keep
serving concurrent readers of the previous store (copy-on-write
renumbering, the re-encoding race fix of ``storage/dictionary.py``).

Insert-only writes under an unchanged schema extend the store instead
(DESIGN.md §20): the encoding is kept, the derived dictionary only
grows, and the new base rows are re-encoded and merged, with their
typing consequences, into a table that starts from the held indexes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

import numpy as np

from ..rdf.terms import Term
from ..storage.database import RDFDatabase
from ..storage.dictionary import Dictionary
from ..storage.interval_encoding import IntervalEncoding
from ..storage.triple_table import TripleTable, keys_absent_from
from .encoded import consequences


class IntervalStore(NamedTuple):
    """An interval-encoded store and what it was derived from."""

    encoding: IntervalEncoding
    database: RDFDatabase
    #: The base ``spo`` index the store reflects.
    base_keys: np.ndarray
    #: Base code → derived code, for every base code known at the build.
    remap: np.ndarray


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


def interval_encode_database(
    database: RDFDatabase, held: Optional[IntervalStore] = None
) -> IntervalStore:
    """Build the interval-encoded store for one base database state.

    ``held`` is an earlier result for the same database and schema: its
    encoding is kept, its dictionary and ``remap`` grow by the base codes
    allocated since, and the new store takes only the base rows it lacks.
    """
    schema = database.schema
    base_dictionary = database.dictionary
    table = database.table
    base_keys = table.index("spo")
    # Read after the index: every code in ``base_keys`` is below it.
    known = len(base_dictionary)
    if held is None:
        encoding = IntervalEncoding.from_schema(schema)
        new_dictionary = base_dictionary.remapped(encoding.leading_terms)
        remap = _renumbering(base_dictionary, new_dictionary, encoding.leading_terms, known)
        out = TripleTable(dictionary=new_dictionary, bits=table.bits)
        fresh = base_keys
    else:
        encoding = held.encoding
        new_dictionary = held.database.dictionary
        appended = [base_dictionary.decode(code) for code in range(len(held.remap), known)]
        remap = np.concatenate(
            [held.remap, np.array(new_dictionary.encode_many(appended), dtype=np.int64)]
        )
        out = held.database.table.copy()
        fresh = keys_absent_from(base_keys, held.base_keys)
    rows = remap[table.decode_keys(fresh)]
    out.add_block(rows)
    for block in consequences(schema, new_dictionary, rows, hierarchy=False):
        out.add_block(block)
    out.freeze()
    return IntervalStore(encoding, RDFDatabase(schema=schema, table=out), base_keys, remap)
