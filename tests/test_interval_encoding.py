"""Unit and property tests for the LiteMat interval encoding (DESIGN.md §16).

Covers the layers bottom-up: the :class:`IdRange` term, the triple
table's range-scan primitive, the interval layout itself (trees, DAGs,
cycles, and a hypothesis sweep over random DAG hierarchies asserting
every class's ranges exactly cover its subclass-closure code set), the
dictionary's copy-on-write renumbering under concurrency, and the
snapshot-keyed :class:`IntervalAssigner`.
"""

from __future__ import annotations

import random
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.evaluator import AnswerSet
from repro.rdf import BlankNode, Literal, RDFSchema, RDF_TYPE, Triple, URI, Variable
from repro.rdf.terms import IdRange
from repro.storage import (
    CyclicHierarchyError,
    Dictionary,
    IntervalAssigner,
    IntervalEncoding,
    RDFDatabase,
    TripleTable,
)
from repro.storage.interval_encoding import _merge_runs


def u(name) -> URI:
    return URI(f"http://s/{name}")


# ----------------------------------------------------------------------
# The IdRange term
# ----------------------------------------------------------------------
class TestIdRange:
    def test_bounds_must_be_integers(self):
        with pytest.raises(TypeError):
            IdRange("0", 5)
        with pytest.raises(TypeError):
            IdRange(0, 5.0)

    def test_empty_and_negative_ranges_rejected(self):
        with pytest.raises(ValueError):
            IdRange(3, 3)
        with pytest.raises(ValueError):
            IdRange(5, 2)
        with pytest.raises(ValueError):
            IdRange(-1, 2)

    def test_containment_is_half_open(self):
        r = IdRange(2, 6)
        assert 2 in r and 5 in r
        assert 6 not in r and 1 not in r

    def test_equality_and_hash_by_bounds(self):
        assert IdRange(1, 4) == IdRange(1, 4)
        assert hash(IdRange(1, 4)) == hash(IdRange(1, 4))
        assert IdRange(1, 4) != IdRange(1, 5)

    def test_is_ground_not_variable(self):
        r = IdRange(0, 2)
        assert not r.is_variable

    def test_participates_in_canonical_dedup(self):
        """Two α-equivalent range atoms canonicalize identically (head
        variables are part of the answer signature, so only the
        existential variable differs here)."""
        from repro.query import BGPQuery

        x, y, z = Variable("x"), Variable("y"), Variable("z")
        q1 = BGPQuery([x], [Triple(x, u("knows"), y), Triple(y, RDF_TYPE, IdRange(3, 9))])
        q2 = BGPQuery([x], [Triple(x, u("knows"), z), Triple(z, RDF_TYPE, IdRange(3, 9))])
        assert q1.canonical() == q2.canonical()
        q3 = BGPQuery([x], [Triple(x, u("knows"), y), Triple(y, RDF_TYPE, IdRange(3, 10))])
        assert q1.canonical() != q3.canonical()

    def test_never_dictionary_encoded(self):
        d = Dictionary()
        with pytest.raises(TypeError):
            d.encode(IdRange(0, 3))


# ----------------------------------------------------------------------
# _merge_runs
# ----------------------------------------------------------------------
class TestMergeRuns:
    def test_empty(self):
        assert _merge_runs([]) == ()

    def test_single_run(self):
        assert _merge_runs([3, 4, 5]) == ((3, 6),)

    def test_gaps_split_runs(self):
        assert _merge_runs([0, 1, 4, 5, 9]) == ((0, 2), (4, 6), (9, 10))

    @given(st.sets(st.integers(min_value=0, max_value=200), max_size=40))
    def test_runs_cover_exactly_the_input(self, codes):
        runs = _merge_runs(sorted(codes))
        covered = {c for lo, hi in runs for c in range(lo, hi)}
        assert covered == codes
        # Maximality: adjacent runs never touch.
        for (_, hi), (lo, _) in zip(runs, runs[1:]):
            assert lo > hi


# ----------------------------------------------------------------------
# Range scans on the triple table
# ----------------------------------------------------------------------
class TestTripleTableRangeScan:
    @pytest.fixture(scope="class")
    def table(self):
        rng = random.Random(11)
        table = TripleTable(bits=8)
        rows = [
            (rng.randrange(40), rng.randrange(12), rng.randrange(40))
            for _ in range(500)
        ]
        table.add_encoded(rows)
        table.freeze()
        return table

    def _brute(self, table, pattern, position, lo, hi):
        out = set()
        for row in table.match((None, None, None)):
            row = tuple(int(v) for v in row)
            if any(b is not None and row[i] != b for i, b in enumerate(pattern)):
                continue
            if lo <= row[position] < hi:
                out.add(row)
        return out

    @pytest.mark.parametrize(
        "pattern,position",
        [
            ((None, None, None), 2),
            ((None, None, None), 1),
            ((None, 3, None), 2),
            ((None, 3, None), 0),
            ((7, None, None), 1),
            ((7, 3, None), 2),
        ],
    )
    def test_matches_brute_force(self, table, pattern, position):
        for lo, hi in [(0, 40), (5, 9), (12, 13), (38, 40), (0, 1)]:
            expected = self._brute(table, pattern, position, lo, hi)
            got = {
                tuple(int(v) for v in row)
                for row in table.match_range(pattern, position, lo, hi)
            }
            assert got == expected, (pattern, position, lo, hi)
            assert table.match_range_count(pattern, position, lo, hi) == len(expected)

    def test_empty_interval_matches_nothing(self, table):
        assert table.match_range_count((None, None, None), 2, 39, 39) == 0


# ----------------------------------------------------------------------
# Interval layout: trees, DAGs, cycles
# ----------------------------------------------------------------------
class TestIntervalLayout:
    def test_tree_hierarchy_single_contiguous_intervals(self):
        """On a tree every closure is exactly one interval."""
        schema = RDFSchema()
        #      Top
        #     /   \
        #    A     B
        #   / \     \
        #  A1 A2     B1
        for sub, sup in [("A", "Top"), ("B", "Top"), ("A1", "A"), ("A2", "A"), ("B1", "B")]:
            schema.add_subclass(u(sub), u(sup))
        enc = IntervalEncoding.from_schema(schema)
        for cls in schema.classes:
            ranges = enc.class_ranges(cls)
            assert ranges is not None and len(ranges) == 1, cls
        # The closure interval of each class covers exactly the codes of
        # its strict subclasses plus itself.
        for cls in schema.classes:
            closure = schema.subclasses(cls) | {cls}
            assert enc.covered_class_codes(cls) == {enc.class_code(c) for c in closure}
        assert enc.stats()["multi_interval_classes"] == 0
        assert enc.stats()["cycles"] == 0

    def test_codes_are_dense_from_zero(self):
        schema = RDFSchema()
        schema.add_subclass(u("A"), u("B"))
        schema.add_subproperty(u("p"), u("q"))
        enc = IntervalEncoding.from_schema(schema)
        class_codes = {enc.class_code(c) for c in schema.classes}
        prop_codes = {enc.property_code(p) for p in schema.properties}
        n = len(schema.classes)
        assert class_codes == set(range(n))
        assert prop_codes == set(range(n, n + len(schema.properties)))
        assert enc.leading_terms == enc.class_order + enc.property_order

    def test_multi_parent_dag_uses_merged_runs(self):
        """A diamond: D under both B and C; only one parent's block can
        hold D, the other recovers it as a second run.  The extra leaf
        E under B separates D's code from C's block, so the sharing
        cannot be hidden by accidental adjacency."""
        schema = RDFSchema()
        for sub, sup in [("B", "A"), ("C", "A"), ("D", "B"), ("D", "C"), ("E", "B")]:
            schema.add_subclass(u(sub), u(sup))
        enc = IntervalEncoding.from_schema(schema)
        for cls in schema.classes:
            closure = schema.subclasses(cls) | {cls}
            assert enc.covered_class_codes(cls) == {enc.class_code(c) for c in closure}
        # Exactly one of B, C holds D contiguously; the other needs 2 runs.
        run_counts = sorted(
            len(enc.class_ranges(u(name))) for name in ("B", "C")
        )
        assert run_counts == [1, 2]
        assert enc.stats()["multi_interval_classes"] == 1
        assert enc.stats()["max_ranges"] == 2

    def test_property_hierarchy_gets_its_own_block(self):
        schema = RDFSchema()
        schema.add_subclass(u("A"), u("B"))
        schema.add_subproperty(u("p"), u("q"))
        schema.add_subproperty(u("r"), u("q"))
        enc = IntervalEncoding.from_schema(schema)
        for prop in schema.properties:
            closure = schema.subproperties(prop) | {prop}
            assert enc.covered_property_codes(prop) == {
                enc.property_code(p) for p in closure
            }
        # Property codes never collide with class codes.
        assert not {enc.property_code(p) for p in schema.properties} & {
            enc.class_code(c) for c in schema.classes
        }

    def test_isolated_vocabulary_gets_leaf_intervals(self):
        schema = RDFSchema()
        schema.declare_class(u("Lonely"))
        schema.add_subclass(u("A"), u("B"))
        enc = IntervalEncoding.from_schema(schema)
        assert enc.class_ranges(u("Lonely")) == (
            (enc.class_code(u("Lonely")), enc.class_code(u("Lonely")) + 1),
        )

    def test_unknown_class_has_no_ranges(self):
        schema = RDFSchema()
        schema.add_subclass(u("A"), u("B"))
        enc = IntervalEncoding.from_schema(schema)
        assert enc.class_ranges(u("Nope")) is None
        assert enc.class_code(u("Nope")) is None
        assert enc.covered_class_codes(u("Nope")) == set()

    def test_deterministic_for_equal_schemas(self):
        def build():
            schema = RDFSchema()
            for sub, sup in [("B", "A"), ("C", "A"), ("D", "C")]:
                schema.add_subclass(u(sub), u(sup))
            schema.add_subproperty(u("p"), u("q"))
            return IntervalEncoding.from_schema(schema)

        first, second = build(), build()
        assert first.class_order == second.class_order
        assert first.property_order == second.property_order
        assert first.schema_fingerprint == second.schema_fingerprint


class TestCycleHandling:
    @pytest.fixture()
    def cyclic_schema(self):
        """A ⊑ B ⊑ A with D below the cycle and C above it."""
        schema = RDFSchema()
        schema.add_subclass(u("A"), u("B"))
        schema.add_subclass(u("B"), u("A"))
        schema.add_subclass(u("D"), u("A"))
        schema.add_subclass(u("B"), u("C"))
        return schema

    def test_collapse_shares_one_range_set(self, cyclic_schema):
        enc = IntervalEncoding.from_schema(cyclic_schema)
        assert enc.class_ranges(u("A")) == enc.class_ranges(u("B"))
        # Cycle members receive consecutive codes.
        codes = sorted([enc.class_code(u("A")), enc.class_code(u("B"))])
        assert codes[1] == codes[0] + 1
        # The group's ranges cover the group plus its descendants.
        assert enc.covered_class_codes(u("A")) == {
            enc.class_code(u(n)) for n in ("A", "B", "D")
        }

    def test_collapse_emits_diagnostics(self, cyclic_schema):
        enc = IntervalEncoding.from_schema(cyclic_schema)
        assert len(enc.cycle_diagnostics) == 1
        assert "equivalence group" in enc.cycle_diagnostics[0]
        assert "http://s/A" in enc.cycle_diagnostics[0]
        assert enc.stats()["cycles"] == 1

    def test_reject_raises_with_the_offending_groups(self, cyclic_schema):
        with pytest.raises(CyclicHierarchyError) as excinfo:
            IntervalEncoding.from_schema(cyclic_schema, on_cycle="reject")
        assert excinfo.value.cycles == (frozenset({u("A"), u("B")}),)

    def test_closure_still_correct_through_the_cycle(self, cyclic_schema):
        enc = IntervalEncoding.from_schema(cyclic_schema)
        for cls in cyclic_schema.classes:
            closure = cyclic_schema.subclasses(cls) | {cls}
            assert enc.covered_class_codes(cls) == {
                enc.class_code(c) for c in closure
            }, cls

    def test_invalid_on_cycle_value(self, cyclic_schema):
        with pytest.raises(ValueError):
            IntervalEncoding.from_schema(cyclic_schema, on_cycle="ignore")


# ----------------------------------------------------------------------
# The central invariant, property-tested over random DAG hierarchies
# ----------------------------------------------------------------------
@st.composite
def random_dag_schemas(draw):
    """A random acyclic subclass hierarchy: edges only i → j with i > j."""
    n = draw(st.integers(min_value=2, max_value=12))
    edges = set()
    for i in range(1, n):
        parents = draw(
            st.sets(st.integers(min_value=0, max_value=i - 1), min_size=0, max_size=3)
        )
        edges.update((i, j) for j in parents)
    schema = RDFSchema()
    for i in range(n):
        schema.declare_class(u(f"C{i}"))
    for i, j in sorted(edges):
        schema.add_subclass(u(f"C{i}"), u(f"C{j}"))
    return schema


class TestClosureCoverageProperty:
    @settings(max_examples=120, deadline=None)
    @given(random_dag_schemas())
    def test_every_class_ranges_cover_exactly_its_closure(self, schema):
        """For every class C, the merged runs of C cover exactly the
        interval codes of C's subclass closure (strict subclasses + C
        itself) — the invariant the litemat rewriting relies on."""
        enc = IntervalEncoding.from_schema(schema)
        for cls in schema.classes:
            closure_codes = {
                enc.class_code(c) for c in (schema.subclasses(cls) | {cls})
            }
            assert enc.covered_class_codes(cls) == closure_codes, cls
        # Codes are a dense permutation of [0, n).
        codes = sorted(enc.class_code(c) for c in schema.classes)
        assert codes == list(range(len(schema.classes)))


# ----------------------------------------------------------------------
# Dictionary renumbering: copy-on-write and race safety
# ----------------------------------------------------------------------
class TestDictionaryRemap:
    def test_rejects_variables(self):
        d = Dictionary()
        with pytest.raises(TypeError):
            d.encode(Variable("x"))

    def test_remapped_leads_with_the_given_terms(self):
        d = Dictionary()
        for name in ("x", "y", "z"):
            d.encode(u(name))
        new = d.remapped([u("z"), u("y")])
        assert new.lookup(u("z")) == 0
        assert new.lookup(u("y")) == 1
        # The remaining terms follow in their old code order.
        assert new.lookup(u("x")) == 2
        assert len(new) == len(d)

    def test_remapped_accepts_unseen_leading_terms(self):
        d = Dictionary()
        d.encode(u("x"))
        new = d.remapped([u("fresh"), u("x")])
        assert new.lookup(u("fresh")) == 0
        assert new.lookup(u("x")) == 1

    def test_receiver_is_untouched(self):
        """The re-encoding race fix: renumbering never mutates the old
        dictionary, so readers holding old codes keep decoding them."""
        d = Dictionary()
        old_codes = {name: d.encode(u(name)) for name in ("a", "b", "c")}
        d.remapped([u("c"), u("b"), u("a")])
        for name, code in old_codes.items():
            assert d.lookup(u(name)) == code
            assert d.decode(code) == u(name)
        assert len(d) == 3

    def test_bulk_construction_equals_repeated_encode(self):
        """``remapped`` builds its snapshot in bulk; pin it to the old
        construction (one ``encode`` per term): same codes, same order,
        same kind counts, leading duplicates and unseen terms included."""
        d = Dictionary()
        for i in range(150):
            d.encode((u, Literal, BlankNode)[i % 3](f"t{i}"))
        leading = [u("t30"), Literal("t1"), u("fresh"), u("t30"), BlankNode("t2")]
        old = Dictionary()
        for term in leading:
            old.encode(term)
        for _, term in d.items():
            old.encode(term)
        new = d.remapped(leading)
        assert list(new.items()) == list(old.items())
        assert new.stats() == old.stats()
        assert all(new.lookup(term) == code for code, term in old.items())
        # A one-shot iterable of leading terms is consumed once.
        assert list(d.remapped(iter(leading)).items()) == list(old.items())
        # The remapped dictionary decodes and renders in bulk and keeps
        # allocating after the bulk build.
        codes = np.arange(len(new), dtype=np.int64).reshape(-1, 1)
        view = AnswerSet(codes, new.snapshot)
        assert view == {(term,) for _, term in old.items()}
        assert view.rendered() == sorted(str(term) for _, term in old.items())
        assert new.encode(u("later")) == old.encode(u("later")) == len(old) - 1
        with pytest.raises(TypeError):
            d.remapped([Variable("x")])

    def test_concurrent_encode_never_tears(self):
        """Hammer the miss path from several threads: every term must
        end with exactly one code, and every handed-out code decodes."""
        d = Dictionary()
        terms = [u(f"t{i}") for i in range(200)]
        results = [dict() for _ in range(8)]
        barrier = threading.Barrier(8)

        def worker(slot):
            rng = random.Random(slot)
            mine = terms[:]
            rng.shuffle(mine)
            barrier.wait()
            for term in mine:
                results[slot][term] = d.encode(term)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(d) == len(terms)
        reference = results[0]
        for slot in range(1, 8):
            assert results[slot] == reference, f"thread {slot} saw different codes"
        for term, code in reference.items():
            assert d.decode(code) == term

    def test_concurrent_remap_and_encode(self):
        """Renumbering while writers allocate: the receiver's published
        snapshot stays internally consistent throughout."""
        d = Dictionary()
        for i in range(50):
            d.encode(u(f"seed{i}"))
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                code = d.encode(u(f"w{i % 80}"))
                if d.decode(code) != u(f"w{i % 80}"):
                    errors.append(f"torn read at w{i % 80}")
                    return
                i += 1

        t = threading.Thread(target=writer)
        t.start()
        try:
            for round_ in range(30):
                new = d.remapped([u(f"seed{round_ % 50}")])
                assert new.lookup(u(f"seed{round_ % 50}")) == 0
        finally:
            stop.set()
            t.join()
        assert not errors

    def test_concurrent_encode_and_decode_rows(self):
        """Writers allocate fresh terms while readers decode and render
        views of codes they were handed — the string table grows under
        the readers: never an ``IndexError``, never a wrong term or
        string."""
        d = Dictionary()
        handed = []  # (code, term) pairs, appended after encode returns
        stop = threading.Event()
        errors = []

        def writer(slot):
            i = 0
            while not stop.is_set() and i < 2000:
                term = u(f"w{slot}-{i}")
                handed.append((d.encode(term), term))
                i += 1

        def reader(seed):
            rng = random.Random(seed)
            try:
                while not stop.is_set():
                    known = len(handed)
                    if not known:
                        continue
                    pairs = dict(handed[rng.randrange(known)] for _ in range(64))
                    codes = np.array([[c, c] for c in pairs], dtype=np.int64)
                    view = AnswerSet(codes, d.snapshot)
                    if view.rendered() != sorted(f"{t}\t{t}" for t in pairs.values()):
                        errors.append("wrong string")
                        return
                    if set(view) != {(t, t) for t in pairs.values()}:
                        errors.append("wrong term")
                        return
            except Exception as error:  # noqa: BLE001 — reported below
                errors.append(repr(error))

        writers = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
        readers = [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        for t in readers + writers:
            t.start()
        for t in writers:
            t.join(timeout=60)
        stop.set()
        for t in readers:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in writers + readers)
        assert not errors, errors
        assert len(d) == 4000


# ----------------------------------------------------------------------
# The snapshot-keyed assigner
# ----------------------------------------------------------------------
def _tiny_db() -> RDFDatabase:
    schema = RDFSchema()
    schema.add_subclass(u("Book"), u("Publication"))
    db = RDFDatabase(schema=schema)
    db.load_facts(
        [
            Triple(u("b1"), RDF_TYPE, u("Book")),
            Triple(u("b1"), u("hasTitle"), Literal("T")),
        ]
    )
    return db


class TestIntervalAssigner:
    def test_key_is_the_database_snapshot(self):
        assigner = IntervalAssigner()
        db = _tiny_db()
        encoding, _, snapshot = assigner.current(db)
        assert snapshot == db.snapshot() == (db.schema.fingerprint(), db.table.version)
        assert encoding.schema_fingerprint == snapshot.schema

    def test_same_key_returns_identical_objects(self):
        assigner = IntervalAssigner()
        db = _tiny_db()
        enc1, store1, e1 = assigner.current(db)
        enc2, store2, e2 = assigner.current(db)
        assert enc1 is enc2 and store1 is store2 and e1 == e2

    def test_mutation_rebuilds_copy_on_write(self):
        assigner = IntervalAssigner()
        db = _tiny_db()
        enc1, store1, e1 = assigner.current(db)
        old_len = len(store1.table)
        old_dict_len = len(store1.dictionary)
        db.schema.add_subclass(u("Report"), u("Publication"))
        db.load_facts([Triple(u("r1"), RDF_TYPE, u("Report"))])
        enc2, store2, e2 = assigner.current(db)
        assert e2 == db.snapshot() and e2.schema != e1.schema and e2.data > e1.data
        assert store2 is not store1 and enc2 is not enc1
        # The superseded derived store was never mutated.
        assert len(store1.table) == old_len
        assert len(store1.dictionary) == old_dict_len

    def test_derived_store_codes_are_interval_codes(self):
        assigner = IntervalAssigner()
        db = _tiny_db()
        encoding, store, _ = assigner.current(db)
        for cls in db.schema.classes:
            assert store.dictionary.lookup(cls) == encoding.class_code(cls)
        for prop in db.schema.properties:
            assert store.dictionary.lookup(prop) == encoding.property_code(prop)


# ----------------------------------------------------------------------
# Lock hygiene: the assigner is covered by the lint
# ----------------------------------------------------------------------
class TestLockLint:
    @pytest.fixture(scope="class")
    def lint_locks(self):
        tools = Path(__file__).resolve().parent.parent / "tools"
        sys.path.insert(0, str(tools))
        try:
            import lint_locks

            yield lint_locks
        finally:
            sys.path.remove(str(tools))

    def test_assigner_and_dictionary_are_covered(self, lint_locks, capsys):
        assert lint_locks.main(["--list-classes"]) == 0
        listed = capsys.readouterr().out
        assert "IntervalAssigner" in listed
        assert "Dictionary" in listed

    def test_repo_lint_is_clean(self, lint_locks):
        assert lint_locks.main([]) == 0
