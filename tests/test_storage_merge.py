"""``TripleTable.freeze`` merges: any write history, the from-scratch indexes.

The reference is what ``freeze`` used to do — ``np.unique`` of every
row's composite key, per permutation, rebuilt from nothing — so what a
reader reads of the base and tail runs (DESIGN.md §20) is pinned to it
for every interleaving of the three buffering calls and ``freeze``, on
both sides of a fold.  The merge log behind ``TripleTable.changes`` is
pinned the same way, to the difference of two observed ``spo`` indexes.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracle import read_index
from repro.rdf import Triple, URI
from repro.storage import Dictionary, TripleTable, triple_table
from repro.storage.triple_table import (
    PERMUTATIONS,
    index_for_pattern,
    index_for_range,
    keys_absent_from,
)

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


def published(view):
    """Every array a view publishes: each index's base and tail."""
    return [run for runs in view.runs.values() for run in runs]


def assert_matches(table, rows, bits=BITS):
    expected = reference_indexes(rows, bits)
    for name in PERMUTATIONS:
        assert np.array_equal(read_index(table.view, name), expected[name]), name
    for array in published(table.view):
        assert not array.flags.writeable
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
        held = published(table.view)
        snapshot = [array.copy() for array in held]
        added = apply(table, kind, batch_rows)
        assert added == len(batch_rows)
        rows += batch_rows
        if kind == "freeze":
            version = merged()
        assert table.view.version == version  # buffering bumps nothing
        if kind == "freeze":
            assert_matches(table, rows)
        # Copy-on-write: what a reader held before the call is as it was.
        for array, copy in zip(held, snapshot):
            assert np.array_equal(array, copy)
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
        version, spo = table.view.version, read_index(table.view, "spo")
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
    for name in PERMUTATIONS:  # both runs of every index, shared
        assert all(a is b for a, b in zip(fork.view.runs[name], table.view.runs[name]))
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
    # A fifth term no longer fits two-bit columns: the write is refused
    # whole, nothing of it stays pending, and what is stored stays readable.
    with pytest.raises(ValueError):
        table.add_triples([Triple(TERMS[3], TERMS[4], TERMS[0])])
    assert repr(table) == "TripleTable(1 triples frozen, 0 pending)"
    table.freeze()
    assert table.match((None, None, None)).tolist() == [[0, 1, 2]]
    # A later write whose codes fit is stored.
    table.add_triples([Triple(TERMS[3], TERMS[1], TERMS[0])])
    table.freeze()
    assert table.match((None, None, None)).tolist() == [[0, 1, 2], [3, 1, 0]]


def test_a_refused_write_adds_no_term_to_the_dictionary():
    table = TripleTable(bits=2)
    table.add_triples([Triple(TERMS[0], TERMS[1], TERMS[2])])
    with pytest.raises(ValueError):
        table.add_triples([Triple(TERMS[3], TERMS[4], TERMS[5])])
    assert len(table.dictionary) == 3
    assert TERMS[3] not in table.dictionary
    # The next new term takes the next free code, which still fits.
    table.add_triples([Triple(TERMS[0], TERMS[1], TERMS[5])])
    assert table.dictionary.lookup(TERMS[5]) == 3
    table.freeze()
    assert table.match((None, None, None)).tolist() == [[0, 1, 2], [0, 1, 3]]


def test_known_codes_that_fit_are_stored_from_an_outgrown_dictionary():
    dictionary = Dictionary()
    for term in TERMS:
        dictionary.encode(term)
    table = TripleTable(dictionary, bits=2)
    table.add_triples([Triple(TERMS[0], TERMS[1], TERMS[2])])
    with pytest.raises(ValueError):
        table.add_triples([Triple(TERMS[0], TERMS[1], TERMS[5])])
    table.freeze()
    assert table.match((None, None, None)).tolist() == [[0, 1, 2]]


def test_repr_counts_every_pending_row():
    table = fresh_table()
    table.add_encoded([(0, 1, 2)])
    table.add_block(np.array([[1, 2, 3], [2, 3, 4]], dtype=np.int64))
    assert "3 pending" in repr(table)
    table.freeze()
    assert repr(table) == "TripleTable(3 triples frozen, 0 pending)"


def test_a_buffered_block_is_the_tables_own_copy():
    table = fresh_table()
    block = np.array([[1, 2, 3]], dtype=np.int64)
    assert table.add_block(block) == 1
    block[:] = [[4, 5, 6]]  # the caller reuses its array at once
    assert table.add_block(block) == 1
    table.freeze()
    assert table.match((None, None, None)).tolist() == [[1, 2, 3], [4, 5, 6]]


@pytest.mark.parametrize("kind", ["encoded", "block"])
@pytest.mark.parametrize("bad", [(0, 0, 1 << BITS), (-1, 0, 0), (0, 1 << 40, 0)])
def test_a_code_outside_the_columns_is_refused_and_buffers_nothing(kind, bad):
    table = fresh_table()
    with pytest.raises(ValueError):
        apply(table, kind, [(1, 2, 3), bad])
    assert "0 pending" in repr(table)
    # (0, 0, 16) would have packed as (0, 1, 0) and matched this pattern.
    table.add_encoded([(0, 1, 5)])
    table.freeze()
    assert table.match((0, 1, None)).tolist() == [[0, 1, 5]]
    assert len(table) == 1


def test_a_write_below_the_fold_copies_only_the_tails():
    bits, batch_rows = 8, 20
    rng = np.random.default_rng(36)
    base_rows = 1000
    wanted = base_rows + int(triple_table.FOLD_SHARE * base_rows) + 2 * batch_rows
    rows = np.unique(rng.integers(0, 1 << bits, size=(2 * wanted, 3)), axis=0)
    rows = [tuple(row) for row in rng.permutation(rows)[:wanted].tolist()]
    table = TripleTable(bits=bits)
    table.add_encoded(rows[:base_rows])
    table.freeze()
    # A first build into an empty table folds at once.
    assert all(tail.size == 0 for _, tail in table.view.runs.values())
    bases = {name: base for name, (base, _) in table.view.runs.items()}
    stored = base_rows
    while (stored - base_rows + batch_rows) < triple_table.FOLD_SHARE * base_rows:
        table.add_encoded(rows[stored : stored + batch_rows])
        table.freeze()
        stored += batch_rows
        for name, (base, tail) in table.view.runs.items():
            assert base is bases[name], name
            assert tail.size == stored - base_rows, name
        assert_matches(table, rows[:stored], bits)
    assert stored > base_rows, "the fold share leaves no room for one batch"
    table.add_encoded(rows[stored : stored + batch_rows])
    table.freeze()
    stored += batch_rows
    expected = reference_indexes(rows[:stored], bits)
    for name, (base, tail) in table.view.runs.items():
        assert base is not bases[name] and tail.size == 0, name
        assert np.array_equal(base, expected[name]), name
    assert_matches(table, rows[:stored], bits)


pattern = st.tuples(*[st.none() | codes] * 3)
interval = st.tuples(st.integers(0, 2), st.integers(-1, 7), st.integers(0, 8))


def in_order(rows, name):
    """Distinct rows in the order of the ``name`` index."""
    order = PERMUTATIONS[name]
    return sorted(set(rows), key=lambda row: tuple(row[at] for at in order))


def matching(rows, pattern):
    return [row for row in rows if all(v is None or row[at] == v for at, v in enumerate(pattern))]


def assert_reads_match(view, rows, patterns, intervals, probes):
    for pattern in patterns:
        expected = matching(in_order(rows, index_for_pattern(pattern)), pattern)
        assert [tuple(row) for row in view.match(pattern).tolist()] == expected
        assert view.match_count(pattern) == len(expected)
        for position in range(3):
            distinct = len({row[position] for row in expected})
            assert view.distinct_count(pattern, position) == distinct
        for position, lo, hi in intervals:
            unbound = tuple(None if at == position else v for at, v in enumerate(pattern))
            ordered = in_order(rows, index_for_range(unbound, position))
            expected = [
                row for row in matching(ordered, unbound) if lo <= row[position] < hi
            ]
            got = view.match_range(unbound, position, lo, hi)
            assert [tuple(row) for row in got.tolist()] == expected
            assert view.match_range_count(unbound, position, lo, hi) == len(expected)
    for probe in probes:
        assert view.contains(*probe) == (probe in set(rows))


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([1 / 16, 1 / 2, 2]),
    st.lists(operation, max_size=14),
    st.lists(pattern, min_size=1, max_size=3),
    st.lists(interval, max_size=2),
    st.lists(row, max_size=3),
)
def test_every_read_across_folds_equals_the_from_scratch_reference(
    share, operations, patterns, intervals, probes
):
    # A small fold share folds on nearly every write into tables this
    # size; the larger ones keep rows in the tails for several writes.
    with mock.patch.object(triple_table, "FOLD_SHARE", share):
        table = fresh_table()
        rows, observed = [], {}
        for kind, batch_rows in operations + [("freeze", [])]:
            apply(table, kind, batch_rows)
            rows += batch_rows
            if kind != "freeze":
                continue
            view = table.view
            observed.setdefault(view.version, reference_indexes(rows)["spo"])
            assert_reads_match(view, rows, patterns, intervals, probes)
            whole, reached = view.changes(None)
            assert reached == view.version
            assert np.array_equal(whole, reference_indexes(rows)["spo"])
            for since, spo in observed.items():
                keys, _ = view.changes(since)
                assert np.array_equal(keys, np.setdiff1d(whole, spo)), since
