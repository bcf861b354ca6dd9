"""Tests for the factorized (no-materialization) reformulation counter."""

import pytest

from repro.datasets import lubm_workload, motivating_q1
from repro.reformulation import (
    ReformulationLimitExceeded,
    Reformulator,
    reformulate,
    reformulation_count,
)


@pytest.fixture(scope="module")
def schema(lubm_db):
    return lubm_db.schema


class TestExactness:
    @pytest.mark.parametrize(
        "name", ["Q01", "Q04", "Q05", "Q09", "Q15", "Q18", "Q19"]
    )
    def test_count_matches_materialization(self, schema, name):
        query = next(e.query for e in lubm_workload() if e.name == name)
        assert reformulation_count(query, schema) == len(reformulate(query, schema))

    def test_count_matches_on_motivating_q1(self, schema):
        query = motivating_q1().query
        assert reformulation_count(query, schema) == len(reformulate(query, schema))

    def test_book_example(self, book_schema):
        from repro.query import BGPQuery
        from repro.rdf import RDF_TYPE, Triple, Variable

        x, y = Variable("x"), Variable("y")
        query = BGPQuery([x, y], [Triple(x, RDF_TYPE, y)])
        assert reformulation_count(query, book_schema) == 11


class TestReformulatorCount:
    def test_count_uses_materialized_cache(self, schema):
        reformulator = Reformulator(schema)
        query = motivating_q1().query
        materialized = reformulator.reformulate(query)
        assert reformulator.count(query) == len(materialized)

    def test_count_without_materialization(self, schema):
        reformulator = Reformulator(schema)
        query = motivating_q1().query
        count = reformulator.count(query)
        assert count > 1000
        assert not reformulator.cache  # nothing was materialized

    def test_count_memoized(self, schema):
        reformulator = Reformulator(schema)
        query = motivating_q1().query
        assert reformulator.count(query) == reformulator.count(query)
        assert len(reformulator._factors) == 1

    @pytest.mark.parametrize("name", ["Q05", "Q19"])
    def test_count_does_not_depend_on_call_order(self, schema, name):
        """count → reformulate → count: the union's size once it exists."""
        query = next(e.query for e in lubm_workload() if e.name == name)
        planned_first = Reformulator(schema)
        exact = len(planned_first.reformulate(query))
        assert planned_first.count(query) == exact
        counted_first = Reformulator(schema)
        bound = counted_first.count(query)
        assert bound == reformulation_count(query, schema) > exact
        assert len(counted_first.reformulate(query)) == exact
        assert counted_first.count(query) == exact
        # count() is not a lookup of the reformulation memo.
        assert counted_first.cache.lookups == 1


class TestLimitMemoization:
    def test_limit_overrun_cached(self, schema):
        import time

        from repro.datasets import motivating_q2

        reformulator = Reformulator(schema, limit=100)
        query = motivating_q2().query
        with pytest.raises(ReformulationLimitExceeded):
            reformulator.reformulate(query)
        start = time.perf_counter()
        with pytest.raises(ReformulationLimitExceeded):
            reformulator.reformulate(query)
        # The second failure is served from the cache, instantly.
        assert time.perf_counter() - start < 0.01
        assert reformulator.runs == 1

    def test_count_unaffected_by_limit(self, schema):
        from repro.datasets import motivating_q2

        reformulator = Reformulator(schema, limit=100)
        assert reformulator.count(motivating_q2().query) > 100_000
