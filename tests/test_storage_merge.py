"""``TripleTable.freeze`` merges: any write history, the from-scratch indexes.

The reference is what ``freeze`` used to do — ``np.unique`` of every
row's composite key, per permutation, rebuilt from nothing — so the
sorted merge (DESIGN.md §20) is pinned to it for every interleaving of
the three buffering calls and ``freeze``.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Triple, URI
from repro.storage import Dictionary, TripleTable
from repro.storage.triple_table import PERMUTATIONS

TERMS = [URI(f"http://merge/t{i}") for i in range(6)]
BITS = 4

codes = st.integers(0, len(TERMS) - 1)
row = st.tuples(codes, codes, codes)
batch = st.lists(row, max_size=6)
operation = st.one_of(
    st.tuples(st.sampled_from(["triples", "encoded", "block"]), batch),
    st.just(("freeze", [])),
)


def reference_indexes(rows, bits=BITS):
    """Six indexes built from scratch, the way ``freeze`` used to."""
    rows = np.array(sorted(rows), dtype=np.int64).reshape(-1, 3)
    return {
        name: np.unique(
            (rows[:, a] << (2 * bits)) | (rows[:, b] << bits) | rows[:, c]
        )
        for name, (a, b, c) in PERMUTATIONS.items()
    }


def fresh_table():
    dictionary = Dictionary()
    dictionary.encode_many(TERMS)
    return TripleTable(dictionary=dictionary, bits=BITS)


def apply(table, kind, rows):
    if kind == "triples":
        return table.add_triples(Triple(*(TERMS[code] for code in r)) for r in rows)
    if kind == "encoded":
        return table.add_encoded(iter(rows))
    if kind == "block":
        return table.add_block(np.array(rows, dtype=np.int64).reshape(-1, 3))
    table.freeze()
    return 0


def assert_matches(table, rows):
    expected = reference_indexes(rows)
    for name in PERMUTATIONS:
        assert np.array_equal(table.index(name), expected[name]), name
        assert not table.index(name).flags.writeable
    assert len(table) == len(set(rows))


@settings(max_examples=150, deadline=None)
@given(st.lists(operation, max_size=12))
def test_any_write_history_yields_the_from_scratch_indexes(operations):
    table = fresh_table()
    rows, stored, version = [], set(), 0

    def merged():
        """The version after a freeze: one more only if a row was new."""
        nonlocal stored
        bumped = version + (not set(rows) <= stored)
        stored = set(rows)
        return bumped

    for kind, batch_rows in operations:
        held = None if table._indexes is None else dict(table._indexes)
        snapshot = None if held is None else {n: a.copy() for n, a in held.items()}
        added = apply(table, kind, batch_rows)
        assert added == len(batch_rows)
        rows += batch_rows
        if kind == "freeze":
            version = merged()
        assert table.version == version  # buffering bumps nothing
        if kind == "freeze":
            assert_matches(table, rows)
        if held is not None:
            # Copy-on-write: what a reader held before the call is as it was.
            for name, array in held.items():
                assert np.array_equal(array, snapshot[name])
                assert not array.flags.writeable
    assert_matches(table, rows)
    version = merged()
    assert table.version == version
    assert_matches(table, rows)
    assert table.version == version  # reading bumps nothing


@settings(max_examples=60, deadline=None)
@given(batch, batch)
def test_copy_shares_rows_and_then_diverges(first, second):
    table = fresh_table()
    table.add_encoded(first)
    fork = table.copy()
    assert fork.index("pos") is table.index("pos")
    assert fork.dictionary is table.dictionary
    fork.add_encoded(second)
    assert_matches(fork, first + second)
    assert_matches(table, first)


@settings(max_examples=60, deadline=None)
@given(st.lists(row, min_size=1, max_size=30), st.tuples(*[st.none() | codes] * 3))
def test_distinct_count_matches_unique(rows, pattern):
    table = fresh_table()
    table.add_encoded(rows)
    matches = table.match(pattern)
    for position in range(3):
        expected = int(np.unique(matches[:, position]).size)
        assert table.distinct_count(pattern, position) == expected


def test_overflow_guard_survives_the_merge():
    table = TripleTable(bits=2)
    table.add_triples([Triple(TERMS[0], TERMS[1], TERMS[2])])
    table.freeze()
    assert len(table) == 1
    # A fifth term no longer fits two-bit columns: the merge must refuse
    # exactly as the first build does, and keep what is stored readable.
    table.add_triples([Triple(TERMS[3], TERMS[4], TERMS[0])])
    with pytest.raises(OverflowError):
        table.freeze()
    with pytest.raises(OverflowError):
        TripleTable(dictionary=table.dictionary, bits=2).freeze()


def test_repr_counts_every_pending_row():
    table = fresh_table()
    table.add_encoded([(0, 1, 2)])
    table.add_block(np.array([[1, 2, 3], [2, 3, 4]], dtype=np.int64))
    assert "3 pending" in repr(table)
    table.freeze()
    assert repr(table) == "TripleTable(3 triples frozen, 0 pending)"
