"""The concurrency model (DESIGN.md §11): shared state under many threads.

Queries are evaluated serially by the engine on the calling thread;
what many threads share — one answerer and its caches, one SQLite
engine's per-thread connections, the dictionary, a tracer — must stay
correct under them.  Also here: the one engine hand-off in ``answer()``
(the ``Engine`` protocol), its budget semantics, and what ``close()``
releases.
"""

from __future__ import annotations

import threading
import time
from unittest import mock

import pytest

from oracle import (
    chaos_differential_check,
    differential_check,
    make_answerer,
    make_chaos_answerer,
    random_queries,
)
from repro.answering import QueryAnswerer
from repro.cache import QueryCache
from repro.engine import (
    EngineFailure,
    EngineTimeout,
    NativeEngine,
    SQLiteEngine,
)
from repro.optimizer import SearchInfeasible
from repro.query import BGPQuery
from repro.rdf import Literal, RDF_TYPE, Triple, URI, Variable
from repro.reformulation import ReformulationLimitExceeded
from repro.resilience import ChaosConfig, ChaosEngine, ExecutionBudget
from repro.storage import RDFDatabase
from repro.telemetry import Tracer

def ex(name: str) -> URI:
    return URI(f"http://ex/{name}")


def _scripted_clock(values):
    """A clock returning ``values`` in order, then the last one forever."""
    state = list(values)

    def clock() -> float:
        if len(state) > 1:
            return state.pop(0)
        return state[0]

    return clock


# ----------------------------------------------------------------------
# Budget semantics: deadline, result cap, intermediate cap
# ----------------------------------------------------------------------
def _rich_query(lubm_db):
    """A random query with at least two answers (for cap tests)."""
    serial = make_answerer(lubm_db)
    for query in random_queries(lubm_db, 30, seed=11):
        try:
            report = serial.answer(query, strategy="gcov")
        except (ReformulationLimitExceeded, SearchInfeasible, EngineFailure):
            continue
        if len(report.answers) >= 2:
            return query
    raise AssertionError("no random query produced >= 2 answers")


def _both_paths(lubm_db, query, make_budget):
    """The two ways a budget reaches the engine: handed to the call, and
    as the answerer's default for calls that hand over none."""
    answerer = make_answerer(lubm_db)
    yield lambda: answerer.answer(query, strategy="ucq", budget=make_budget())
    answerer.budget = make_budget()
    yield lambda: answerer.answer(query, strategy="ucq")


def test_expired_deadline_raises_timeout_on_both_paths(lubm_db):
    def expired():
        return ExecutionBudget(timeout_s=1.0, clock=_scripted_clock([0.0, 100.0]))

    for answer in _both_paths(lubm_db, _rich_query(lubm_db), expired):
        with pytest.raises(EngineTimeout):
            answer()


def test_result_cap_raises_failure_on_both_paths(lubm_db):
    def one_row():
        return ExecutionBudget(max_result_rows=1)

    for answer in _both_paths(lubm_db, _rich_query(lubm_db), one_row):
        with pytest.raises(EngineFailure, match="max_result_rows"):
            answer()


def test_intermediate_cap_raises_failure_on_both_paths(lubm_db):
    def one_row():
        return ExecutionBudget(max_intermediate_rows=1)

    for answer in _both_paths(lubm_db, _rich_query(lubm_db), one_row):
        with pytest.raises(EngineFailure, match="exceeds"):
            answer()


# ----------------------------------------------------------------------
# 8-thread differential-oracle stress over one shared answerer
# ----------------------------------------------------------------------
def _stress(answerer, lubm_db, threads: int = 8, queries_per_thread: int = 3):
    """Hammer one shared answerer from many threads; collect failures."""
    errors = []
    barrier = threading.Barrier(threads)

    def worker(seed: int) -> None:
        try:
            barrier.wait(timeout=30)
            for query in random_queries(
                lubm_db, queries_per_thread, seed=seed, max_atoms=2
            ):
                differential_check(answerer, query, label=f"t{seed}:{query.name}")
        except Exception as error:  # noqa: BLE001 — surfaced below
            errors.append(error)

    pool = [
        threading.Thread(target=worker, args=(seed,), name=f"stress-{seed}")
        for seed in range(threads)
    ]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join(timeout=120)
    assert not errors, f"{len(errors)} thread(s) failed; first: {errors[0]!r}"


def test_stress_eight_threads_cold(lubm_db):
    _stress(make_answerer(lubm_db), lubm_db)


def test_stress_eight_threads_warm_cache(lubm_db):
    answerer = make_answerer(lubm_db, cache=QueryCache())
    # Warm the cache once so the threads race on *hits* too.
    for query in random_queries(lubm_db, 3, seed=0, max_atoms=2):
        differential_check(answerer, query)
    _stress(answerer, lubm_db)


# ----------------------------------------------------------------------
# Chaos regression: the ladder recovers the exact saturation baseline
# ----------------------------------------------------------------------
def test_chaos_ladder_recovers_exact_baseline(lubm_db):
    clean = make_answerer(lubm_db)
    queries = random_queries(lubm_db, 3, seed=3, max_atoms=2)
    baselines = {
        q.name: clean.answer(q, strategy="saturation").answers for q in queries
    }
    for seed in (1, 2, 3):
        chaos = make_chaos_answerer(lubm_db, seed=seed)
        for query in queries:
            chaos_differential_check(
                chaos,
                baselines[query.name],
                query,
                label=f"seed{seed}:{query.name}",
            )


# ----------------------------------------------------------------------
# SQLite per-thread connection pool
# ----------------------------------------------------------------------
def _small_db() -> RDFDatabase:
    database = RDFDatabase()
    database.schema.add_subclass(ex("Book"), ex("Publication"))
    database.load_facts(
        [Triple(ex(f"doc{i}"), RDF_TYPE, ex("Book")) for i in range(5)]
    )
    return database


class TestSQLiteConnectionPool:
    def test_each_thread_gets_its_own_connection(self):
        engine = SQLiteEngine(_small_db())
        try:
            main_connection = engine.connection
            seen = []

            def probe() -> None:
                seen.append(engine.connection)

            thread = threading.Thread(target=probe)
            thread.start()
            thread.join()
            assert seen[0] is not main_connection
            assert engine.pool_size() == 2
        finally:
            engine.close()

    def test_closed_engine_refuses_work(self):
        engine = SQLiteEngine(_small_db())
        engine.close()
        with pytest.raises(EngineFailure, match="closed"):
            engine.execute_sql("SELECT 1")

    def test_connections_refresh_after_mutation(self):
        database = _small_db()
        engine = SQLiteEngine(database)
        x = Variable("x")
        query = BGPQuery([x], [Triple(x, RDF_TYPE, ex("Book"))], name="books")
        try:
            assert len(engine.evaluate(query)) == 5

            worker_counts = []

            def worker_eval() -> None:
                worker_counts.append(len(engine.evaluate(query)))

            thread = threading.Thread(target=worker_eval)
            thread.start()
            thread.join()
            assert worker_counts == [5]

            database.load_facts([Triple(ex("doc99"), RDF_TYPE, ex("Book"))])
            # Both the existing worker-style connection and the main
            # thread's must observe the new version independently.
            assert len(engine.evaluate(query)) == 6
            thread = threading.Thread(target=worker_eval)
            thread.start()
            thread.join()
            assert worker_counts[-1] == 6
        finally:
            engine.close()

    def test_interrupted_literal_is_not_a_timeout(self):
        """Regression: "interrupted" in an error message must not be
        misclassified as a timeout (the old substring check did)."""
        engine = SQLiteEngine(_small_db())
        try:
            with pytest.raises(EngineFailure) as excinfo:
                engine.execute_sql(
                    "SELECT * FROM missing_interrupted_table", timeout_s=60.0
                )
            assert "interrupted" in str(excinfo.value)
            assert not isinstance(excinfo.value, EngineTimeout)
        finally:
            engine.close()

    def test_genuine_interrupt_is_a_timeout(self):
        engine = SQLiteEngine(_small_db())
        engine.progress_interval = 1
        budget = ExecutionBudget(
            timeout_s=1.0, clock=_scripted_clock([0.0, 100.0])
        )
        try:
            with pytest.raises(EngineTimeout):
                engine.execute_sql(
                    "SELECT a.s FROM triples a, triples b, triples c",
                    budget=budget,
                )
        finally:
            engine.close()

    def test_concurrent_evaluation_shares_one_engine(self, lubm_db):
        engine = SQLiteEngine(lubm_db)
        x = Variable("x")
        some_class = sorted(lubm_db.schema.classes, key=str)[0]
        query = BGPQuery([x], [Triple(x, RDF_TYPE, some_class)], name="probe")
        expected = engine.evaluate(query)
        results, errors = [], []

        def worker() -> None:
            try:
                results.append(engine.evaluate(query))
            except Exception as error:  # noqa: BLE001 — surfaced below
                errors.append(error)

        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            assert not errors
            assert all(result == expected for result in results)
            assert engine.pool_size() == 9  # 8 workers + constructor thread
        finally:
            engine.close()


# ----------------------------------------------------------------------
# Dictionary: incremental stats + concurrent encode
# ----------------------------------------------------------------------
class TestDictionaryConcurrency:
    def test_stats_track_kinds_incrementally(self):
        dictionary = RDFDatabase().dictionary
        before = dictionary.stats()
        dictionary.encode(ex("a"))
        dictionary.encode(ex("b"))
        dictionary.encode(Literal("l"))
        dictionary.encode(ex("a"))  # duplicate: no recount
        after = dictionary.stats()
        assert after["uris"] - before["uris"] == 2
        assert after["literals"] - before["literals"] == 1
        assert after["blank_nodes"] == before["blank_nodes"]

    def test_concurrent_encode_is_consistent(self):
        dictionary = RDFDatabase().dictionary
        size_before = len(dictionary)
        terms = [ex(f"t{i}") for i in range(200)] + [
            Literal(f"v{i}") for i in range(100)
        ]
        codes_by_thread = []
        barrier = threading.Barrier(8)

        def worker() -> None:
            barrier.wait(timeout=30)
            codes_by_thread.append([dictionary.encode(t) for t in terms])

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(codes_by_thread) == 8
        # Every thread observed the same code for every term.
        assert all(codes == codes_by_thread[0] for codes in codes_by_thread)
        assert len(set(codes_by_thread[0])) == len(terms)
        assert len(dictionary) - size_before == len(terms)
        for term, code in zip(terms, codes_by_thread[0]):
            assert dictionary.decode(code) == term
        stats = dictionary.stats()
        assert stats["uris"] >= 200 and stats["literals"] >= 100


# ----------------------------------------------------------------------
# Tracer: thread isolation, timing discipline
# ----------------------------------------------------------------------
class TestTracerThreading:
    def test_concurrent_spans_stay_thread_local(self):
        tracer = Tracer()
        barrier = threading.Barrier(6)

        def worker(index: int) -> None:
            barrier.wait(timeout=30)
            with tracer.span(f"outer-{index}"):
                with tracer.span(f"inner-{index}"):
                    pass

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(tracer.roots) == 6
        for root in tracer.roots:
            assert len(root.children) == 1
            index = root.name.split("-")[1]
            assert root.children[0].name == f"inner-{index}"

    def test_duration_survives_wall_clock_step(self, monkeypatch):
        """Regression: durations come from the monotonic clock, so a
        wall-clock step backwards mid-span cannot go negative."""
        tracer = Tracer()
        wall = _scripted_clock([1000.0, 500.0, 400.0])
        monkeypatch.setattr(time, "time", wall)
        with tracer.span("stepped") as span:
            pass
        assert span.duration_s >= 0.0
        assert span.start_unix == 1000.0


# ----------------------------------------------------------------------
# The engine hand-off: one protocol, derived engines via for_database
# ----------------------------------------------------------------------
class ForwardingEngine:
    """The shape of the test-suite wrappers: ``**kwargs`` through to an
    inner engine, everything else by ``__getattr__``."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, query, **kwargs):
        return self.inner.evaluate(query, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


ENGINES = {
    "native": NativeEngine,
    "sqlite": SQLiteEngine,
    "chaos": lambda database: ChaosEngine(NativeEngine(database), ChaosConfig()),
    "wrapper": lambda database: ForwardingEngine(NativeEngine(database)),
}


@pytest.mark.parametrize("kind", sorted(ENGINES))
def test_every_engine_gets_the_same_handoff(lubm_db, kind):
    """``answer()`` calls ``evaluate(planned, tracer=, metrics=, budget=)``
    on every engine alike, and reaches a derived store's engine only
    through ``for_database``."""
    engine = ENGINES[kind](lubm_db)
    built = []
    real_for_database = engine.for_database

    def for_database(database):
        built.append(real_for_database(database))
        return built[-1]

    tracer = Tracer()
    budget = ExecutionBudget(max_result_rows=10_000_000)
    query = _rich_query(lubm_db)
    with (
        mock.patch.object(engine, "evaluate", wraps=engine.evaluate) as evaluate,
        mock.patch.object(engine, "for_database", for_database),
        QueryAnswerer(lubm_db, engine=engine) as answerer,
    ):
        expected = answerer.answer(
            query, strategy="gcov", tracer=tracer, budget=budget
        ).answers
        evaluate.assert_called_once()
        planned, handed = evaluate.call_args
        assert len(planned) == 1
        assert sorted(handed) == ["budget", "metrics", "tracer"]
        assert handed["tracer"] is tracer
        assert handed["budget"].max_result_rows == 10_000_000
        assert handed["metrics"] is not None
        assert built == []
        for strategy in ("saturation", "litemat"):
            # The second answer reuses the derived engine.
            for _ in range(2):
                report = answerer.answer(query, strategy=strategy)
                assert report.answers == expected
        assert [
            answerer.engine_for(strategy)
            for strategy in ("saturation", "litemat")
        ] == built
        evaluate.assert_called_once()
    if kind == "sqlite":
        engine.close()


# ----------------------------------------------------------------------
# Answerer close(): releases the derived engines; idempotent and safe
# under concurrent callers (the service's drain path calls it from a
# signal handler while another thread is already closing)
# ----------------------------------------------------------------------
def test_close_is_idempotent_and_safe_under_concurrent_callers(lubm_db):
    engine = SQLiteEngine(lubm_db)
    answerer = make_answerer(lubm_db, engine=engine)
    x = Variable("x")
    some_class = sorted(lubm_db.schema.classes, key=str)[0]
    query = BGPQuery([x], [Triple(x, RDF_TYPE, some_class)], name="close-probe")
    expected = answerer.answer(query, strategy="saturation").answers
    assert answerer.answer(query, strategy="litemat").answers == expected
    derived = [held[1] for held in answerer._derived.values()]
    assert len(derived) == 2
    assert all(sibling.pool_size() == 1 for sibling in derived)

    callers = 8
    barrier = threading.Barrier(callers)
    errors = []

    def closer():
        barrier.wait(timeout=30)
        try:
            answerer.close()
        except Exception as error:  # noqa: BLE001 - the regression itself
            errors.append(error)

    threads = [threading.Thread(target=closer) for _ in range(callers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(30)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert all(sibling.pool_size() == 0 for sibling in derived)
    # The engine the caller passed in is the caller's to close.
    assert engine.pool_size() == 1

    # One more close is a no-op, and the answerer derives a fresh engine
    # if it is asked again.
    answerer.close()
    assert answerer.answer(query, strategy="saturation").answers == expected
    answerer.close()
    engine.close()
