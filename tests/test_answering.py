"""Tests for the QueryAnswerer facade: all strategies, all engines."""

import pytest

from repro.answering import STRATEGIES, QueryAnswerer
from repro.cache import QueryCache
from repro.datasets import lubm_query, motivating_q1
from repro.engine import NATIVE_MERGE, NativeEngine, SQLiteEngine
from repro.query import BGPQuery, evaluate
from repro.rdf import RDFS_SUBCLASS, RDFSchema, RDF_TYPE, Triple, URI, Variable
from repro.reasoning import saturate
from repro.storage import RDFDatabase
from repro.telemetry import Tracer

from conftest import ex


@pytest.fixture(scope="module")
def answerer(lubm_db3):
    return QueryAnswerer(lubm_db3)


@pytest.fixture(scope="module")
def ground_truth(lubm_db3):
    def compute(query):
        graph = lubm_db3.facts_graph()
        return evaluate(query, saturate(graph, lubm_db3.schema))

    return compute


class TestStrategiesAgree:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_q1_all_strategies(self, answerer, ground_truth, strategy):
        query = motivating_q1().query
        report = answerer.answer(query, strategy=strategy)
        assert report.answers == ground_truth(query)

    @pytest.mark.parametrize("name", ["Q01", "Q04", "Q11", "Q14", "Q21"])
    def test_workload_queries_gcov(self, answerer, ground_truth, name):
        query = lubm_query(name)
        report = answerer.answer(query, strategy="gcov")
        assert report.answers == ground_truth(query)

    def test_saturation_matches_gcov(self, answerer):
        query = lubm_query("Q05")
        sat = answerer.answer(query, strategy="saturation")
        ref = answerer.answer(query, strategy="gcov")
        assert sat.answers == ref.answers


class TestReport:
    def test_report_accounting(self, answerer):
        query = motivating_q1().query
        report = answerer.answer(query, strategy="gcov")
        assert report.total_s == report.optimization_s + report.evaluation_s
        assert report.answer_count == len(report.answers)
        assert report.reformulation_terms > 0
        assert report.cover is not None
        assert report.covers_explored > 0

    def test_fixed_strategies_report_no_cover(self, answerer):
        query = motivating_q1().query
        report = answerer.answer(query, strategy="ucq")
        assert report.cover is None
        assert report.covers_explored == 0

    def test_saturation_reports_zero_terms(self, answerer):
        report = answerer.answer(lubm_query("Q14"), strategy="saturation")
        assert report.reformulation_terms == 0


class TestPlan:
    def test_plan_does_not_evaluate(self, answerer):
        query = motivating_q1().query
        planned, search = answerer.plan(query, "gcov")
        assert planned.total_union_terms() > 0
        assert search is not None

    def test_single_atom_scq_falls_back_to_ucq(self, answerer):
        query = lubm_query("Q14")
        planned, _ = answerer.plan(query, "scq")
        assert len(planned) == 1

    def test_unknown_strategy(self, answerer):
        with pytest.raises(ValueError):
            answerer.plan(motivating_q1().query, "magic")


class TestOtherEngines:
    def test_sqlite_engine(self, lubm_db3, ground_truth):
        answerer = QueryAnswerer(lubm_db3, engine=SQLiteEngine(lubm_db3))
        query = lubm_query("Q01")
        report = answerer.answer(query, strategy="gcov")
        assert report.answers == ground_truth(query)

    def test_merge_engine_saturation(self, lubm_db3, ground_truth):
        answerer = QueryAnswerer(lubm_db3, engine=NativeEngine(lubm_db3, NATIVE_MERGE))
        query = lubm_query("Q04")
        report = answerer.answer(query, strategy="saturation")
        assert report.answers == ground_truth(query)
        # The saturated engine keeps the same personality.
        assert answerer.engine_for("saturation").profile is NATIVE_MERGE


class TestReadAllocatesCodes:
    """Evaluation itself grows the dictionary: an empty-body conjunct's
    head constants are encoded on first sight, after the store was
    built — the decode boundary must resolve codes younger than the
    store (DESIGN.md §17)."""

    @pytest.mark.parametrize("engine_cls", [NativeEngine, SQLiteEngine])
    def test_schema_resolved_constants_absent_from_the_data(self, engine_cls):
        def ex(name):
            return URI(f"http://alloc/{name}")

        # 70 subclasses that occur in no fact.
        subclasses = [ex(f"Sub{i}") for i in range(70)]
        schema = RDFSchema()
        for cls in subclasses:
            schema.add_subclass(cls, ex("Top"))
        db = RDFDatabase(schema=schema)
        db.load_facts([Triple(ex("a"), RDF_TYPE, ex("Top"))])
        assert all(db.dictionary.lookup(cls) is None for cls in subclasses)

        x = Variable("x")
        query = BGPQuery([x], [Triple(x, RDFS_SUBCLASS, ex("Top"))])
        report = QueryAnswerer(db, engine=engine_cls(db)).answer(query, strategy="ucq")
        assert report.answers == {(cls,) for cls in subclasses}
        assert all(db.dictionary.lookup(cls) is not None for cls in subclasses)


#: What the answerer derives from each row of the ``Strategy`` table
#: (``repro.answering.strategies``): plan-cache misses after answering
#: the same query twice, whether ``reformulation_terms`` is 0, whether a
#: traced answer carries cost-model accuracy samples, and whether the
#: plan runs on the answerer's own engine.  Flipping ``rewrite`` or
#: ``store`` on a row changes a column here.
STRATEGY_FACTS = {
    # strategy:     (plan misses, zero terms, accuracy, base engine)
    "ucq":          (1, False, True, True),
    "pruned-ucq":   (1, False, True, True),
    "scq":          (1, False, True, True),
    "ecov":         (1, False, True, True),
    "gcov":         (1, False, True, True),
    "saturation":   (0, True, False, False),
    "litemat":      (1, False, False, False),
}


@pytest.mark.parametrize("engine_class", [NativeEngine, SQLiteEngine])
def test_strategy_table(book_schema, book_facts, engine_class):
    assert tuple(STRATEGY_FACTS) == STRATEGIES
    database = RDFDatabase.from_triples([*book_schema.to_triples(), *book_facts])
    x, y = Variable("x"), Variable("y")
    query = BGPQuery(
        (x,),
        [Triple(x, RDF_TYPE, ex("Publication")), Triple(x, ex("hasAuthor"), y)],
    )
    with QueryAnswerer(database, engine=engine_class(database)) as baseline:
        expected = baseline.answer(query, strategy="saturation").answers
    assert len(expected) == 1
    for strategy, facts in STRATEGY_FACTS.items():
        cache = QueryCache()
        with QueryAnswerer(
            database, engine=engine_class(database), cache=cache
        ) as answerer:
            report = answerer.answer(query, strategy=strategy, tracer=Tracer())
            again = answerer.answer(query, strategy=strategy)
            assert report.answers == again.answers == expected, strategy
            derived = (
                cache.stats()["plan"]["misses"],
                report.reformulation_terms == 0,
                bool(report.accuracy),
                answerer.engine_for(strategy) is answerer.engine,
            )
            assert derived == facts, strategy
