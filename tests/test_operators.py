"""Unit tests for relations and physical operators."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.operators import (
    cross_product,
    distinct,
    hash_join,
    merge_join,
    scan_atom,
    union_all,
)
from repro.engine.relation import Relation, dedup_rows, pack_columns
from repro.rdf import Triple, URI, Variable
from repro.storage import TripleTable


def rel(columns, rows):
    return Relation(columns, np.array(rows, dtype=np.int64).reshape(len(rows), len(columns)))


class TestRelation:
    def test_shape_validated(self):
        with pytest.raises(ValueError):
            Relation(("a",), np.zeros((2, 2), dtype=np.int64))

    def test_project_reorders(self):
        r = rel(("a", "b"), [[1, 2], [3, 4]])
        assert r.project(["b", "a"]).to_tuples() == [(2, 1), (4, 3)]

    def test_project_repeats(self):
        r = rel(("a",), [[7]])
        assert r.project(["a", "a"]).to_tuples() == [(7, 7)]

    def test_column_missing(self):
        with pytest.raises(KeyError):
            rel(("a",), [[1]]).column("zz")

    def test_unit(self):
        assert len(Relation.unit()) == 1
        assert Relation.unit().arity == 0


class TestPackAndDedup:
    def test_pack_distinguishes(self):
        rows = np.array([[1, 2], [1, 3], [2, 2]], dtype=np.int64)
        keys = pack_columns(rows, [0, 1])
        assert len(set(keys.tolist())) == 3

    def test_pack_equal_rows_equal_keys(self):
        rows = np.array([[5, 6], [5, 6]], dtype=np.int64)
        keys = pack_columns(rows, [0, 1])
        assert keys[0] == keys[1]

    def test_pack_handles_many_columns(self):
        rows = np.arange(40, dtype=np.int64).reshape(4, 10)
        keys = pack_columns(rows, list(range(10)))
        assert len(set(keys.tolist())) == 4

    def test_pack_empty_selection(self):
        rows = np.array([[1], [2]], dtype=np.int64)
        assert pack_columns(rows, []).tolist() == [0, 0]

    @settings(max_examples=120, deadline=None)
    @given(
        data=st.data(),
        n_columns=st.integers(1, 5),
        top=st.sampled_from([2, 40, (1 << 21) - 1]),
    )
    def test_pack_keys_equal_iff_rows_equal(self, data, n_columns, top):
        # Dictionary-code magnitudes: up to three 21-bit columns take the
        # sort-free path, five wide ones must overflow into the fallback.
        cell = st.integers(0, top)
        distinct_rows = data.draw(
            st.lists(st.tuples(*[cell] * n_columns), min_size=1, max_size=12)
        )
        picks = data.draw(
            st.lists(st.integers(0, len(distinct_rows) - 1), min_size=1, max_size=30)
        )
        rows = np.array([distinct_rows[i] for i in picks], dtype=np.int64)
        keys = pack_columns(rows, range(n_columns)).tolist()
        for i, left in enumerate(rows.tolist()):
            for j, right in enumerate(rows.tolist()):
                assert (keys[i] == keys[j]) == (left == right)

    def test_pack_overflow_falls_back_to_ranks(self):
        # 5 columns spanning 2**21 each need 105 bits: the mixed-radix
        # product overflows after the second column, so the key so far
        # is replaced by its dense rank before each further digit.
        rng = np.random.default_rng(7)
        base = rng.integers(0, 1 << 21, size=(200, 5), dtype=np.int64)
        base[0], base[1] = 0, (1 << 21) - 1  # pin every column's full range
        rows = np.vstack([base, base[::3]])
        keys = pack_columns(rows, range(5))
        assert len(set(keys.tolist())) == len({tuple(r) for r in rows.tolist()})
        assert keys[200:].tolist() == keys[:200:3].tolist()
        assert dedup_rows(rows).shape[0] == len({tuple(r) for r in rows.tolist()})

    def test_pack_survives_full_int64_range(self):
        # One column wider than 62 bits cannot even be shifted to zero.
        lo, hi = np.iinfo(np.int64).min, np.iinfo(np.int64).max
        rows = np.array([[lo, 1], [hi, 1], [lo, 1], [0, 2]], dtype=np.int64)
        keys = pack_columns(rows, [0, 1]).tolist()
        assert keys[0] == keys[2] and len(set(keys)) == 3

    def test_dedup(self):
        rows = np.array([[1, 2], [1, 2], [3, 4]], dtype=np.int64)
        assert dedup_rows(rows).shape[0] == 2

    def test_dedup_zero_columns(self):
        rows = np.empty((5, 0), dtype=np.int64)
        assert dedup_rows(rows).shape[0] == 1


@pytest.fixture()
def table():
    t = TripleTable()

    def u(n):
        return URI(f"http://op/{n}")

    t.add_triples(
        [
            Triple(u("a"), u("p"), u("b")),
            Triple(u("b"), u("p"), u("c")),
            Triple(u("c"), u("p"), u("c")),
            Triple(u("a"), u("q"), u("a")),
        ]
    )
    t.freeze()
    return t


def opu(n):
    return URI(f"http://op/{n}")


class TestScan:
    def test_all_variables(self, table):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        r = scan_atom(Triple(x, y, z), table, table.dictionary)
        assert r.columns == ("x", "y", "z")
        assert len(r) == 4

    def test_bound_property(self, table):
        x, y = Variable("x"), Variable("y")
        r = scan_atom(Triple(x, opu("p"), y), table, table.dictionary)
        assert len(r) == 3
        assert r.columns == ("x", "y")

    def test_unknown_constant_gives_empty(self, table):
        x = Variable("x")
        r = scan_atom(Triple(x, opu("absent"), opu("b")), table, table.dictionary)
        assert len(r) == 0
        assert r.columns == ("x",)

    def test_repeated_variable_filters(self, table):
        x = Variable("x")
        r = scan_atom(Triple(x, opu("p"), x), table, table.dictionary)
        decoded = {table.dictionary.decode(v) for (v,) in r.to_tuples()}
        assert decoded == {opu("c")}

    def test_repeated_variable_single_column(self, table):
        x = Variable("x")
        r = scan_atom(Triple(x, opu("q"), x), table, table.dictionary)
        assert r.columns == ("x",)
        assert len(r) == 1


class TestJoins:
    left = rel(("x", "y"), [[1, 10], [2, 20], [3, 30]])
    right = rel(("y", "z"), [[10, 100], [10, 101], [30, 300]])

    def _check(self, join):
        out = join(self.left, self.right)
        assert set(out.columns) == {"x", "y", "z"}
        got = set(out.project(["x", "y", "z"]).to_tuples())
        assert got == {(1, 10, 100), (1, 10, 101), (3, 30, 300)}

    def test_hash_join(self):
        self._check(hash_join)

    def test_merge_join(self):
        self._check(merge_join)

    def test_join_empty_side(self):
        empty = Relation.empty(("y", "z"))
        out = hash_join(self.left, empty)
        assert len(out) == 0
        assert set(out.columns) == {"x", "y", "z"}

    def test_join_multi_column_key(self):
        a = rel(("x", "y"), [[1, 2], [1, 3]])
        b = rel(("x", "y", "w"), [[1, 2, 9], [1, 4, 8]])
        out = hash_join(a, b)
        assert out.to_tuples() == [(1, 2, 9)]

    def test_no_shared_columns_is_cross(self):
        a = rel(("x",), [[1], [2]])
        b = rel(("y",), [[7]])
        out = hash_join(a, b)
        assert set(out.to_tuples()) == {(1, 7), (2, 7)}

    def test_cross_product(self):
        a = rel(("x",), [[1], [2]])
        b = rel(("y",), [[7], [8]])
        assert len(cross_product(a, b)) == 4

    @settings(max_examples=40, deadline=None)
    @given(
        left=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30),
        right=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=30),
    )
    def test_hash_equals_merge(self, left, right):
        l = rel(("x", "y"), left) if left else Relation.empty(("x", "y"))
        r = rel(("y", "z"), right) if right else Relation.empty(("y", "z"))
        got_hash = set(hash_join(l, r).project(["x", "y", "z"]).to_tuples())
        got_merge = set(merge_join(l, r).project(["x", "y", "z"]).to_tuples())
        assert got_hash == got_merge

    @settings(max_examples=40, deadline=None)
    @given(
        left=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=20),
        right=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=20),
    )
    def test_join_matches_nested_loop(self, left, right):
        l = rel(("x", "y"), left) if left else Relation.empty(("x", "y"))
        r = rel(("y", "z"), right) if right else Relation.empty(("y", "z"))
        expected = {
            (a, b, d) for (a, b) in left for (c, d) in right if b == c
        }
        assert set(hash_join(l, r).project(["x", "y", "z"]).to_tuples()) == expected


class TestUnionDistinct:
    def test_union_all_keeps_duplicates(self):
        a = rel(("x",), [[1]])
        b = rel(("x",), [[1], [2]])
        assert len(union_all([a, b], ("x",))) == 3

    def test_union_arity_checked(self):
        a = rel(("x",), [[1]])
        b = rel(("x", "y"), [[1, 2]])
        with pytest.raises(ValueError):
            union_all([a, b], ("x",))

    def test_union_of_empties(self):
        assert len(union_all([Relation.empty(("x",))], ("x",))) == 0

    def test_distinct(self):
        r = rel(("x", "y"), [[1, 2], [1, 2], [3, 4]])
        assert len(distinct(r)) == 2
