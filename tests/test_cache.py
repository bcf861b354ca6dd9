"""Unit tests for the repro.cache subsystem (DESIGN.md §9)."""

from __future__ import annotations

import time

import pytest

from repro.answering import QueryAnswerer
from repro.cache import LRUCache, MISSING, QueryCache, query_fingerprint
from repro.query import BGPQuery
from repro.rdf import RDF_TYPE, RDFSchema, Triple, URI, Variable
from repro.reformulation import ReformulationLimitExceeded, Reformulator
from repro.storage import RDFDatabase
from repro.telemetry import Tracer


def ex(name: str) -> URI:
    return URI(f"http://ex/{name}")


# ----------------------------------------------------------------------
# LRUCache
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(4)
        assert cache.get("a", MISSING) is MISSING
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_eviction_is_lru_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now least recently used
        cache.put("c", 3)
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.evictions == 1

    def test_put_refreshes_recency(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)  # overwrite refreshes
        cache.put("c", 3)
        assert "b" not in cache
        assert cache.get("a") == 10

    def test_peek_is_uncounted(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        assert cache.peek("a") == 1
        assert cache.peek("zzz", MISSING) is MISSING
        assert (cache.hits, cache.misses) == (0, 0)

    def test_clear_counts_invalidation(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.invalidations == 1

    def test_unbounded(self):
        cache = LRUCache(None)
        for index in range(10_000):
            cache.put(index, index)
        assert len(cache) == 10_000
        assert cache.evictions == 0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            LRUCache(0)

    def test_stores_none_values(self):
        cache = LRUCache(2)
        cache.put("a", None)
        assert cache.get("a", MISSING) is None


# ----------------------------------------------------------------------
# Query fingerprints
# ----------------------------------------------------------------------
def _q(head, atoms) -> BGPQuery:
    return BGPQuery(head, atoms)


class TestQueryFingerprint:
    def test_invariant_under_full_renaming(self):
        x, y = Variable("x"), Variable("y")
        u, v = Variable("u"), Variable("v")
        first = _q([x], [Triple(x, ex("p"), y), Triple(y, RDF_TYPE, ex("C"))])
        second = _q([u], [Triple(u, ex("p"), v), Triple(v, RDF_TYPE, ex("C"))])
        assert query_fingerprint(first) == query_fingerprint(second)

    def test_invariant_under_atom_reordering(self):
        x, y = Variable("x"), Variable("y")
        first = _q([x], [Triple(x, ex("p"), y), Triple(x, RDF_TYPE, ex("C"))])
        second = _q([x], [Triple(x, RDF_TYPE, ex("C")), Triple(x, ex("p"), y)])
        assert query_fingerprint(first) == query_fingerprint(second)

    def test_head_order_matters(self):
        x, y = Variable("x"), Variable("y")
        body = [Triple(x, ex("p"), y)]
        assert query_fingerprint(_q([x, y], body)) != query_fingerprint(
            _q([y, x], body)
        )

    def test_join_shape_matters(self):
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        chain = _q([x], [Triple(x, ex("p"), y), Triple(y, ex("p"), z)])
        star = _q([x], [Triple(x, ex("p"), y), Triple(x, ex("p"), z)])
        assert query_fingerprint(chain) != query_fingerprint(star)

    def test_constants_matter(self):
        x = Variable("x")
        assert query_fingerprint(
            _q([x], [Triple(x, RDF_TYPE, ex("C"))])
        ) != query_fingerprint(_q([x], [Triple(x, RDF_TYPE, ex("D"))]))

    def test_fingerprint_is_cached_on_the_query(self):
        x = Variable("x")
        query = _q([x], [Triple(x, RDF_TYPE, ex("C"))])
        assert query._fingerprint is None
        fingerprint = query_fingerprint(query)
        assert query._fingerprint == fingerprint

    def test_colliding_variable_names_do_not_merge(self):
        # A query already using the _qfp0 name must not collide with
        # the positional renaming of another head variable.
        x, trap = Variable("x"), Variable("_qfp0")
        first = _q([x, trap], [Triple(x, ex("p"), trap)])
        second = _q([trap, x], [Triple(trap, ex("p"), x)])
        assert query_fingerprint(first) == query_fingerprint(second)


# ----------------------------------------------------------------------
# Schema fingerprints
# ----------------------------------------------------------------------
class TestSchemaFingerprint:
    def _schema(self) -> RDFSchema:
        schema = RDFSchema()
        schema.add_subclass(ex("A"), ex("B"))
        schema.add_domain(ex("p"), ex("A"))
        return schema

    def test_stable_until_mutation(self):
        schema = self._schema()
        assert schema.fingerprint() == schema.fingerprint()

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.add_subclass(ex("C"), ex("B")),
            lambda s: s.add_subproperty(ex("q"), ex("p")),
            lambda s: s.add_domain(ex("p"), ex("B")),
            lambda s: s.add_range(ex("p"), ex("B")),
            lambda s: s.declare_class(ex("Fresh")),
            lambda s: s.declare_property(ex("fresh")),
            lambda s: s.remove_subclass(ex("A"), ex("B")),
            lambda s: s.remove_domain(ex("p"), ex("A")),
        ],
    )
    def test_every_mutation_changes_it(self, mutate):
        schema = self._schema()
        before = schema.fingerprint()
        mutate(schema)
        assert schema.fingerprint() != before

    def test_remove_then_readd_restores_it(self):
        schema = self._schema()
        before = schema.fingerprint()
        schema.add_range(ex("p"), ex("B"))
        assert schema.remove_range(ex("p"), ex("B"))
        assert schema.fingerprint() == before

    def test_remove_missing_returns_false(self):
        schema = self._schema()
        before = schema.fingerprint()
        assert not schema.remove_subproperty(ex("nope"), ex("p"))
        assert schema.fingerprint() == before


# ----------------------------------------------------------------------
# QueryCache manager
# ----------------------------------------------------------------------
def _tiny_db() -> RDFDatabase:
    schema = RDFSchema()
    schema.add_subclass(ex("A"), ex("B"))
    db = RDFDatabase(schema=schema)
    db.load_facts([Triple(ex("i"), RDF_TYPE, ex("A"))])
    return db


class TestQueryCache:
    def test_plan_roundtrip(self):
        db = _tiny_db()
        cache = QueryCache()
        x = Variable("x")
        query = BGPQuery([x], [Triple(x, RDF_TYPE, ex("B"))])
        assert cache.get_plan(db, query, "ucq") is MISSING
        QueryAnswerer(db, cache=cache).answer(query, strategy="ucq")
        planned, search = cache.get_plan(db, query, "ucq")
        assert planned.total_union_terms() == 2 and search is None
        assert cache.get_plan(db, query, "gcov") is MISSING

    def test_register_and_counters(self):
        cache = QueryCache()
        extra = cache.register("extra", LRUCache(2))
        extra.put("k", 1)
        extra.get("k")
        counters = cache.counters()
        assert counters["cache.extra.hits"] == 1
        assert "cache.plan.misses" in counters
        assert set(cache.levels) == {"plan", "extra"}

    def test_clear_drops_every_level(self):
        cache = QueryCache()
        extra = cache.register("extra", LRUCache(2))
        extra.put("k", 1)
        cache.plans.put("p", 1)
        cache.clear()
        assert len(extra) == 0 and len(cache.plans) == 0


# ----------------------------------------------------------------------
# Answerer integration
# ----------------------------------------------------------------------
class TestAnswererPlanCache:
    def test_second_answer_hits_the_plan_cache(self, lubm_db):
        cache = QueryCache()
        answerer = QueryAnswerer(lubm_db, cache=cache)
        from repro.datasets import lubm_workload

        query = next(e.query for e in lubm_workload() if e.name == "Q04")
        traces = [Tracer(), Tracer()]
        first = answerer.answer(query, strategy="gcov", tracer=traces[0])
        assert cache.plans.hits == 0 and cache.plans.misses == 1
        second = answerer.answer(query, strategy="gcov", tracer=traces[1])
        assert cache.plans.hits == 1
        assert first.answers == second.answers
        # Each answer's own record says whether its plan was served.
        assert [
            trace.spans("plan")[0].attributes["cached"] for trace in traces
        ] == [False, True]

    def test_failure_memoized_and_reraised(self, lubm_db):
        from repro.datasets import motivating_q2

        cache = QueryCache()
        answerer = QueryAnswerer(
            lubm_db,
            reformulator=Reformulator(lubm_db.schema, limit=100),
            cache=cache,
        )
        query = motivating_q2().query
        with pytest.raises(ReformulationLimitExceeded):
            answerer.answer(query, strategy="ucq")
        start = time.perf_counter()
        with pytest.raises(ReformulationLimitExceeded):
            answerer.answer(query, strategy="ucq")
        assert time.perf_counter() - start < 0.05
        assert answerer.reformulator.runs == 1
        assert cache.plans.hits == 1

    def test_saturation_is_not_plan_cached(self, lubm_db):
        cache = QueryCache()
        answerer = QueryAnswerer(lubm_db, cache=cache)
        x = Variable("x")
        ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
        query = BGPQuery([x], [Triple(x, RDF_TYPE, URI(f"{ub}Professor"))])
        answerer.answer(query, strategy="saturation")
        assert len(cache.plans) == 0

    def test_sqlite_sql_cache_registered(self, lubm_db):
        from repro.engine import SQLiteEngine

        cache = QueryCache()
        with SQLiteEngine(lubm_db) as engine:
            answerer = QueryAnswerer(lubm_db, engine=engine, cache=cache)
            assert "sql" in cache.levels
            x = Variable("x")
            ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
            query = BGPQuery([x], [Triple(x, RDF_TYPE, URI(f"{ub}Professor"))])
            answerer.answer(query, strategy="ucq")
            answerer.answer(query, strategy="ucq")
            assert engine.sql_cache.hits >= 1

    def test_sqlite_compile_span_reads_its_own_outcome(self, lubm_db, monkeypatch):
        """The ``sqlite.compile`` span says whether *this* call's SQL was
        served, even when another thread hits the shared SQL cache while
        this one compiles."""
        import repro.engine.sqlite_backend as backend
        from repro.engine import SQLiteEngine

        with SQLiteEngine(lubm_db) as engine:
            engine.sql_cache.put("other", "SELECT 1")
            real = backend.to_sql

            def racing(query, dictionary):
                engine.sql_cache.get("other")  # another thread's hit
                return real(query, dictionary)

            monkeypatch.setattr(backend, "to_sql", racing)
            answerer = QueryAnswerer(lubm_db, engine=engine, cache=QueryCache())
            x = Variable("x")
            ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
            query = BGPQuery([x], [Triple(x, RDF_TYPE, URI(f"{ub}Professor"))])
            traces = [Tracer(), Tracer()]
            for trace in traces:
                answerer.answer(query, strategy="ucq", tracer=trace)
        assert [
            trace.spans("sqlite.compile")[0].attributes["cached"] for trace in traces
        ] == [False, True]


# ----------------------------------------------------------------------
# The ISSUE's acceptance bar: ≥5× warm-cache optimize-time drop
# ----------------------------------------------------------------------
class TestWarmSpeedup:
    #: LUBM entries clear of the monster reformulations.
    WORKLOAD = ("Q01", "Q04", "Q05", "Q09", "Q15", "Q18", "Q19")

    def _pass_time(self, answerer, queries) -> float:
        total = 0.0
        for query in queries:
            total += answerer.answer(query, strategy="gcov").optimization_s
        return total

    def test_warm_optimize_time_drops_5x(self, lubm_db):
        from repro.datasets import lubm_workload

        queries = [e.query for e in lubm_workload() if e.name in self.WORKLOAD]
        answerer = QueryAnswerer(
            lubm_db,
            reformulator=Reformulator(lubm_db.schema),
            cache=QueryCache(),
        )
        cold = self._pass_time(answerer, queries)
        warm = min(self._pass_time(answerer, queries) for _ in range(3))
        assert warm < cold / 5, (
            f"warm optimize {warm * 1000:.2f}ms not 5x faster "
            f"than cold {cold * 1000:.2f}ms"
        )
