"""Unit tests for dictionary encoding and the indexed triple table."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.engine.evaluator import AnswerSet
from repro.rdf import BlankNode, Literal, RDF_TYPE, Triple, URI, Variable
from repro.storage import Dictionary, RDFDatabase, TripleTable
from repro.storage.triple_table import PERMUTATIONS


def u(name):
    return URI(f"http://st/{name}")


class TestDictionary:
    def test_encode_stable(self):
        d = Dictionary()
        assert d.encode(u("a")) == d.encode(u("a"))

    def test_codes_dense(self):
        d = Dictionary()
        codes = [d.encode(u(f"v{i}")) for i in range(5)]
        assert codes == list(range(5))

    def test_decode_inverse(self):
        d = Dictionary()
        code = d.encode(Literal("hello"))
        assert d.decode(code) == Literal("hello")

    def test_kind_disambiguation(self):
        d = Dictionary()
        assert d.encode(URI("x")) != d.encode(Literal("x"))

    def test_lookup_without_allocation(self):
        d = Dictionary()
        assert d.lookup(u("missing")) is None
        assert len(d) == 0

    def test_variables_rejected(self):
        with pytest.raises(TypeError):
            Dictionary().encode(Variable("x"))

    def test_stats(self):
        d = Dictionary()
        d.encode(u("a"))
        d.encode(Literal("b"))
        assert d.stats() == {"uris": 1, "literals": 1, "blank_nodes": 0}


def _reference_decode(dictionary, codes):
    """The per-cell decode loop, kept as the oracle of the result boundary."""
    return frozenset(
        tuple(dictionary.decode(v) for v in row) for row in codes.tolist()
    )


def _view(dictionary, codes):
    """An engine's answers over ``codes``: their distinct rows, encoded."""
    if codes.shape[1] == 0:
        codes = codes[:1]
    elif len(codes):
        codes = np.unique(codes, axis=0)
    return AnswerSet(codes, dictionary.snapshot)


class TestDecodeRows:
    """The columnar result boundary (``AnswerSet``) against the per-row
    ``decode``; ``tests/test_answer_view.py`` holds the full property."""

    @settings(max_examples=120, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=300),
        n=st.integers(min_value=0, max_value=40),
        k=st.integers(min_value=0, max_value=4),
        # A small pool forces duplicate rows; a large one spreads them.
        pool=st.integers(min_value=1, max_value=300),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    # Boolean results: {()} with rows, else ∅.
    @example(size=1, n=0, k=0, pool=1, seed=0)
    @example(size=1, n=1, k=0, pool=1, seed=0)
    @example(size=200, n=0, k=3, pool=200, seed=0)
    def test_equals_per_row_decode(self, size, n, k, pool, seed):
        d = Dictionary()
        kinds = (u, Literal, BlankNode)
        for i in range(size):
            d.encode(kinds[i % 3](f"t{i}"))
        rng = np.random.default_rng(seed)
        codes = rng.integers(0, min(pool, size), size=(n, k)).astype(np.int64)
        reference = _reference_decode(d, codes)
        view = _view(d, codes)
        assert set(view) == reference and len(view) == len(reference)
        assert view == reference
        assert view.rendered() == sorted(
            "\t".join(str(term) for term in row) for row in reference
        )

    def test_unallocated_code_is_an_index_error(self):
        d = Dictionary()
        for i in range(5):
            d.encode(u(f"v{i}"))
        view = _view(d, np.full((3, 2), 5, dtype=np.int64))
        with pytest.raises(IndexError):
            list(view)
        with pytest.raises(IndexError):
            view.rendered()

    def test_overlapping_pauses_share_one_count(self):
        """The lazy term set of a view is built with the cyclic
        collector paused.

        The pause belongs to everyone inside it: off while any caller is
        still building, back on when the last one leaves.  A pause that
        only remembered "was it on when I came" turns collection on under
        the second caller here -- and, with the two steps of its entry
        interleaved with the first caller's exit, off for the rest of
        the process.
        """
        import gc

        from repro.engine.evaluator import _collector_paused

        assert gc.isenabled()
        first, second = _collector_paused(), _collector_paused()
        try:
            first.__enter__()
            second.__enter__()
            assert not gc.isenabled()
            first.__exit__(None, None, None)
            assert not gc.isenabled()  # the second caller is still building
            second.__exit__(None, None, None)
            assert gc.isenabled()
        finally:
            gc.enable()  # do not let a failure here poison later tests

    def test_concurrent_decodes_leave_the_collector_on(self):
        """Six reader threads compare tiny views by terms (a paused
        build each) and render them, while two writers ``encode()``
        fresh terms -- growing the dictionary and its string table under
        the readers -- at a 1 µs switch interval: the schedule under
        which an uncounted pause gets stuck off (in about one run of
        two; the deterministic check is the test above)."""
        import gc
        import sys
        import threading

        d = Dictionary()
        d.encode(u("a"))
        handed = [(0, u("a"))]
        wrong = []

        def write(slot):
            for i in range(2000):
                term = Literal(f"w{slot}-{i}\t\"")
                handed.append((d.encode(term), term))

        def read(seed):
            for i in range(1500):
                code, term = handed[(seed * 7919 + i) % len(handed)]
                view = _view(d, np.array([[code, 0]], dtype=np.int64))
                if view != frozenset({(term, u("a"))}):
                    wrong.append(("term", code))
                if view.rendered() != [f"{term}\t{u('a')}"]:
                    wrong.append(("string", code))

        assert gc.isenabled()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write, args=(i,)) for i in range(2)]
            threads += [threading.Thread(target=read, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
            was_enabled = gc.isenabled()
            gc.enable()
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong, wrong[:5]
        assert was_enabled
        assert len(d) == 4001

    def test_a_collector_the_caller_turned_off_stays_off(self):
        import gc

        d = Dictionary()
        d.encode(u("a"))
        gc.disable()
        try:
            assert _view(d, np.zeros((2, 1), dtype=np.int64)) == {(u("a"),)}
            assert not gc.isenabled()
        finally:
            gc.enable()
        with pytest.raises(IndexError):
            hash(_view(d, np.full((1, 1), 7, dtype=np.int64)))  # a paused build
        assert gc.isenabled()  # re-enabled on the error path too


@pytest.fixture()
def table():
    t = TripleTable()
    t.add_triples(
        [
            Triple(u("a"), u("p"), u("b")),
            Triple(u("a"), u("p"), u("c")),
            Triple(u("a"), u("q"), u("b")),
            Triple(u("d"), u("p"), u("b")),
            Triple(u("d"), u("q"), u("c")),
        ]
    )
    t.freeze()
    return t


def code(table, name):
    return table.dictionary.lookup(u(name))


class TestTripleTable:
    def test_len(self, table):
        assert len(table) == 5

    def test_duplicates_removed_on_freeze(self):
        t = TripleTable()
        t.add_triples([Triple(u("a"), u("p"), u("b"))] * 3)
        t.freeze()
        assert len(t) == 1

    def test_full_scan(self, table):
        assert table.match((None, None, None)).shape == (5, 3)

    @pytest.mark.parametrize(
        "pattern_names,expected",
        [
            (("a", None, None), 3),
            ((None, "p", None), 3),
            ((None, None, "b"), 3),
            (("a", "p", None), 2),
            ((None, "p", "b"), 2),
            (("a", None, "b"), 2),
            (("a", "p", "b"), 1),
            (("d", "q", "b"), 0),
        ],
    )
    def test_match_count_all_patterns(self, table, pattern_names, expected):
        pattern = tuple(
            None if n is None else code(table, n) for n in pattern_names
        )
        assert table.match_count(pattern) == expected
        assert table.match(pattern).shape[0] == expected

    def test_match_rows_in_spo_order(self, table):
        rows = table.match((code(table, "a"), code(table, "p"), None))
        decoded = {
            (table.dictionary.decode(r[0]), table.dictionary.decode(r[2]))
            for r in rows
        }
        assert decoded == {(u("a"), u("b")), (u("a"), u("c"))}

    def test_contains(self, table):
        assert table.contains(code(table, "a"), code(table, "p"), code(table, "b"))
        assert not table.contains(code(table, "b"), code(table, "p"), code(table, "a"))

    def test_distinct_count(self, table):
        p = code(table, "p")
        assert table.distinct_count((None, p, None), 0) == 2  # subjects a, d
        assert table.distinct_count((None, p, None), 2) == 2  # objects b, c

    def test_distinct_count_empty(self, table):
        assert table.distinct_count((code(table, "b"), None, None), 2) == 0

    def test_iter_matches(self, table):
        rows = list(table.iter_matches((code(table, "d"), None, None)))
        assert len(rows) == 2
        assert all(isinstance(v, int) for row in rows for v in row)

    def test_refreeze_after_adds(self, table):
        table.add_triples([Triple(u("z"), u("p"), u("b"))])
        table.freeze()
        assert len(table) == 6

    def test_add_block(self, table):
        block = np.array([[0, 1, 2], [0, 1, 3]], dtype=np.int64)
        table.add_block(block)
        table.freeze()
        assert len(table) >= 5

    def test_add_block_shape_checked(self, table):
        with pytest.raises(ValueError):
            table.add_block(np.zeros((3, 2), dtype=np.int64))

    def test_six_permutations_exist(self):
        assert set(PERMUTATIONS) == {"spo", "sop", "pso", "pos", "osp", "ops"}

    def test_bits_overflow_detected(self):
        t = TripleTable(bits=2)
        t.add_triples([Triple(u(f"v{i}"), u("p"), u("o")) for i in range(10)])
        with pytest.raises(OverflowError):
            t.freeze()

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            TripleTable(bits=25)

    def test_empty_table(self):
        t = TripleTable()
        t.freeze()
        assert len(t) == 0
        assert t.match((None, None, None)).shape == (0, 3)


class TestDatabase:
    def test_from_triples_splits_schema(self, book_schema, book_facts):
        from repro.rdf import RDFS_SUBCLASS

        triples = list(book_facts) + list(book_schema.to_triples())
        db = RDFDatabase.from_triples(triples)
        assert len(db) == len(book_facts)
        assert len(db.schema) == len(book_schema)

    def test_facts_graph_round_trip(self, book_facts):
        db = RDFDatabase.from_triples(book_facts)
        assert set(db.facts_graph()) == set(book_facts)

    def test_statistics_exact_counts(self, lubm_db):
        stats = lubm_db.statistics
        type_code = lubm_db.dictionary.lookup(RDF_TYPE)
        total = stats.pattern_count((None, type_code, None))
        rows = lubm_db.table.match((None, type_code, None))
        assert total == rows.shape[0]

    def test_statistics_memoized(self, lubm_db):
        stats = lubm_db.statistics
        type_code = lubm_db.dictionary.lookup(RDF_TYPE)
        stats.pattern_count((None, type_code, None))
        counts, _ = stats.probe_calls()
        assert counts >= 1
