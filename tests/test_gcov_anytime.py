"""Tests for GCov's anytime stop conditions and exploration trace."""

import re

import pytest

from repro.cost import CostModel
from repro.datasets import lubm_query, motivating_q2
from repro.optimizer import gcov
from repro.reformulation import Reformulator, validate_cover


@pytest.fixture(scope="module")
def tools(lubm_db3):
    return Reformulator(lubm_db3.schema), CostModel(lubm_db3)


class TestStopRatio:
    def test_stop_ratio_returns_valid_cover(self, tools):
        reformulator, model = tools
        query = motivating_q2().query
        result = gcov(query, reformulator, model.cost, stop_ratio=0.5)
        validate_cover(query, result.cover)

    def test_tight_ratio_explores_no_more_than_loose(self, tools):
        reformulator, model = tools
        query = motivating_q2().query
        eager = gcov(query, reformulator, model.cost, stop_ratio=0.99)
        full = gcov(query, reformulator, model.cost)
        assert eager.covers_explored <= full.covers_explored
        # Anytime: the eager result is never better than the full run.
        assert full.estimated_cost <= eager.estimated_cost + 1e-12


class TestTrace:
    def test_trace_records_exploration(self, tools):
        reformulator, model = tools
        query = lubm_query("Q08")
        trace = []
        result = gcov(query, reformulator, model.cost, trace=trace)
        assert len(trace) == result.covers_explored
        covers = [cover for cover, _ in trace]
        assert result.cover in covers
        # First traced cover is the all-singletons C0.
        first_cover, _ = trace[0]
        assert all(len(f) == 1 for f in first_cover)

    def test_trace_costs_match_scorer(self, tools):
        reformulator, model = tools
        query = lubm_query("Q12")
        trace = []
        result = gcov(query, reformulator, model.cost, trace=trace)
        best_traced = min(cost for _, cost in trace)
        assert result.estimated_cost == pytest.approx(best_traced)


class TestExplain:
    def test_engine_explain_forms(self, lubm_db3, tools):
        from repro.engine import NativeEngine

        reformulator, model = tools
        engine = NativeEngine(lubm_db3)
        query = lubm_query("Q04")
        text = engine.explain(query)
        assert "CQ:" in text and "join order" in text
        ucq = reformulator.reformulate(query)
        assert re.match(
            rf"UCQ: {len(ucq)} union terms in {len(ucq.templates())} templates, "
            r"\d+ distinct scans",
            engine.explain(ucq),
        )
        jucq = gcov(query, reformulator, model.cost).jucq
        explained = engine.explain(jucq)
        assert "operand" in explained or "union terms" in explained

    def test_explain_rejects_unknown(self, lubm_db3):
        from repro.engine import NativeEngine

        with pytest.raises(TypeError):
            NativeEngine(lubm_db3).explain(42)
