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

    @pytest.mark.parametrize("name", ["Q05", "Q19"])
    def test_count_bounds_the_minimized_union(self, schema, name):
        """The factor count is an upper bound: minimization only drops terms."""
        query = next(e.query for e in lubm_workload() if e.name == name)
        exact = len(Reformulator(schema).reformulate(query))
        assert reformulation_count(query, schema) > exact

    def test_book_example(self, book_schema):
        from repro.query import BGPQuery
        from repro.rdf import RDF_TYPE, Triple, Variable

        x, y = Variable("x"), Variable("y")
        query = BGPQuery([x, y], [Triple(x, RDF_TYPE, y)])
        assert reformulation_count(query, book_schema) == 11


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

    def test_memoized_failure_is_raised_fresh_and_shallow(self, schema):
        """Every hit raises a new exception object whose traceback is no
        deeper than the first one's: the memo holds no live exception,
        so no hit grows a traceback or pins a caller's frames."""
        import traceback

        from repro.datasets import motivating_q2

        reformulator = Reformulator(schema, limit=100)
        query = motivating_q2().query
        raised, depths = [], []
        for _ in range(4):
            with pytest.raises(ReformulationLimitExceeded) as info:
                reformulator.reformulate(query)
            raised.append(info.value)
            depths.append(len(traceback.extract_tb(info.value.__traceback__)))
        assert len({id(error) for error in raised}) == len(raised)
        assert all(error.limit == 100 for error in raised)
        assert max(depths[1:]) <= depths[0]
        assert reformulator.runs == 1

    def test_count_unaffected_by_limit(self, schema):
        from repro.datasets import motivating_q2

        reformulator = Reformulator(schema, limit=100)
        query = motivating_q2().query
        assert reformulation_count(query, reformulator.schema) > 100_000
