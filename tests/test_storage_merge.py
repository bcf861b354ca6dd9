"""``TripleTable.freeze`` merges: any write history, the from-scratch indexes.

The reference is what ``freeze`` used to do — ``np.unique`` of every
row's composite key, per permutation, rebuilt from nothing — so the
sorted merge (DESIGN.md §20) is pinned to it for every interleaving of
the three buffering calls and ``freeze``.  The merge log behind
``TripleTable.changes`` is pinned the same way, to the difference of
two observed ``spo`` indexes.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.rdf import Triple, URI
from repro.storage import Dictionary, TripleTable
from repro.storage.triple_table import PERMUTATIONS, keys_absent_from

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
        assert np.array_equal(table.view.indexes[name], expected[name]), name
        assert not table.view.indexes[name].flags.writeable
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
        held = dict(table.view.indexes)
        snapshot = {n: a.copy() for n, a in held.items()}
        added = apply(table, kind, batch_rows)
        assert added == len(batch_rows)
        rows += batch_rows
        if kind == "freeze":
            version = merged()
        assert table.view.version == version  # buffering bumps nothing
        if kind == "freeze":
            assert_matches(table, rows)
        # Copy-on-write: what a reader held before the call is as it was.
        for name, array in held.items():
            assert np.array_equal(array, snapshot[name])
            assert not array.flags.writeable
    table.freeze()
    version = merged()
    assert table.view.version == version
    assert_matches(table, rows)
    assert table.view.version == version  # reading bumps nothing


@settings(max_examples=150, deadline=None)
@given(st.lists(operation, max_size=12))
def test_changes_since_any_observed_version_are_the_index_difference(operations):
    table = fresh_table()
    observed = {}
    for kind, batch_rows in [("freeze", [])] + operations:
        apply(table, kind, batch_rows)
        if kind != "freeze":
            continue
        version, spo = table.view.version, table.view.indexes["spo"]
        observed[version] = spo
        whole, reached = table.view.changes(None)
        assert reached == version and np.array_equal(whole, spo)
        for since, held in observed.items():
            keys, reached = table.view.changes(since)
            assert reached == version
            assert np.array_equal(keys, keys_absent_from(spo, held)), (since, version)


def test_a_freeze_of_stored_rows_logs_nothing_and_keeps_the_version():
    table = fresh_table()
    table.add_encoded([(0, 1, 2)])
    table.freeze()
    table.add_encoded([(1, 2, 3), (2, 3, 4)])
    table.freeze()
    version, logged = table.view.version, len(table._log)
    table.add_encoded([(0, 1, 2), (2, 3, 4), (2, 3, 4)])
    table.add_block(np.array([[1, 2, 3]], dtype=np.int64))
    table.freeze()
    assert table.view.version == version
    assert len(table._log) == logged == version == 2
    keys, reached = table.view.changes(version)
    assert reached == version and keys.size == 0
    keys, reached = table.view.changes(version - 1)
    assert table.view.decode_keys(keys).tolist() == [[1, 2, 3], [2, 3, 4]]


def test_a_copy_starts_its_own_log():
    table = fresh_table()
    table.add_encoded([(0, 1, 2)])
    table.freeze()
    table.add_encoded([(1, 2, 3)])
    table.freeze()
    fork = table.copy()
    assert fork.view.version == 0 and fork.view.changes(0)[0].size == 0
    fork.add_encoded([(3, 4, 5), (1, 2, 3)])
    fork.freeze()
    keys, reached = fork.view.changes(0)
    assert reached == 1 and fork.view.decode_keys(keys).tolist() == [[3, 4, 5]]
    whole, _ = fork.view.changes(None)
    assert fork.view.decode_keys(whole).tolist() == [[0, 1, 2], [1, 2, 3], [3, 4, 5]]
    # The original's log is untouched by the fork's write.
    keys, reached = table.view.changes(1)
    assert reached == 2 and table.view.decode_keys(keys).tolist() == [[1, 2, 3]]
    keys, reached = table.view.changes(0)  # the first build is logged too
    assert reached == 2 and table.view.decode_keys(keys).tolist() == [[0, 1, 2], [1, 2, 3]]


@settings(max_examples=60, deadline=None)
@given(batch, batch)
def test_copy_shares_rows_and_then_diverges(first, second):
    table = fresh_table()
    table.add_encoded(first)
    fork = table.copy()
    assert fork.view.indexes["pos"] is table.view.indexes["pos"]
    assert fork.dictionary is table.dictionary
    fork.add_encoded(second)
    fork.freeze()
    assert_matches(fork, first + second)
    assert_matches(table, first)


@settings(max_examples=60, deadline=None)
@given(st.lists(row, min_size=1, max_size=30), st.tuples(*[st.none() | codes] * 3))
def test_distinct_count_matches_unique(rows, pattern):
    table = fresh_table()
    table.add_encoded(rows)
    table.freeze()
    matches = table.match(pattern)
    for position in range(3):
        expected = int(np.unique(matches[:, position]).size)
        assert table.view.distinct_count(pattern, position) == expected


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
