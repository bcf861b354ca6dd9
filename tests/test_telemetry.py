"""Tests for the telemetry subsystem: spans, counters, q-errors, traces."""

import json
import time
from unittest import mock

import pytest

from repro.answering import QueryAnswerer
from repro.engine import NativeEngine
from repro.query import parse_query
from repro.rdf import Triple, URI, Variable
from repro.query import UCQ
from repro.query.bgp import BGPQuery
from repro.storage import RDFDatabase
from repro.telemetry import (
    NULL_TRACER,
    MetricsRecorder,
    NullTracer,
    Tracer,
    q_error,
    trajectory,
)


def ex(name: str) -> URI:
    return URI(f"http://ex/{name}")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_nesting(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
            with tracer.span("sibling"):
                pass
        assert tracer.roots == [outer]
        assert [child.name for child in outer.children] == ["inner", "sibling"]
        assert inner.children == []

    def test_timing_monotonicity(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            time.sleep(0.002)
            with tracer.span("inner") as inner:
                time.sleep(0.002)
        assert outer.duration_s > 0
        assert inner.duration_s > 0
        # The child starts after the parent and fits inside it.
        assert inner.start_s >= outer.start_s
        assert outer.duration_s >= inner.duration_s
        assert inner.start_s + inner.duration_s <= outer.start_s + outer.duration_s + 1e-6

    def test_attributes(self):
        tracer = Tracer()
        with tracer.span("s", preset=1) as span:
            span.set(added=2)
            tracer.annotate(annotated=3)
        assert span.attributes == {"preset": 1, "added": 2, "annotated": 3}

    def test_current_tracks_stack(self):
        tracer = Tracer()
        assert tracer.current is None
        with tracer.span("outer") as outer:
            assert tracer.current is outer
            with tracer.span("inner") as inner:
                assert tracer.current is inner
            assert tracer.current is outer
        assert tracer.current is None

    def test_error_annotated(self):
        tracer = Tracer()
        with pytest.raises(ValueError), tracer.span("boom"):
            raise ValueError("no")
        assert tracer.roots[0].attributes["error"] == "ValueError"

    def test_export_jsonl(self, tmp_path):
        tracer = Tracer()
        with tracer.span("a"), tracer.span("b", cover=frozenset({1, 2})):
            pass
        tracer.record("custom", {"value": 7})
        path = tmp_path / "trace.jsonl"
        written = tracer.export_jsonl(path)
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert written == len(lines) == 3
        a, b, custom = lines
        assert (a["name"], a["depth"], a["parent"]) == ("a", 0, None)
        assert (b["name"], b["depth"], b["parent"]) == ("b", 1, a["id"])
        assert b["attributes"]["cover"] == [1, 2]
        assert custom == {"type": "custom", "value": 7}


class TestNullTracer:
    def test_records_nothing(self):
        tracer = NullTracer()
        with tracer.span("x", a=1) as span:
            span.set(b=2)
            tracer.annotate(c=3)
            tracer.record("kind", {"d": 4})
        assert tracer.to_dicts() == []
        assert tracer.current is None
        assert not tracer.enabled

    def test_shared_span_object(self):
        # The no-op path allocates nothing per span.
        assert NULL_TRACER.span("a") is NULL_TRACER.span("b")

    def test_export_writes_nothing(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert NULL_TRACER.export_jsonl(path) == 0


# ----------------------------------------------------------------------
# q-error
# ----------------------------------------------------------------------
class TestQError:
    def test_perfect(self):
        assert q_error(10.0, 10.0) == 1.0

    def test_symmetric(self):
        assert q_error(2.0, 8.0) == q_error(8.0, 2.0) == 4.0

    def test_both_zero(self):
        assert q_error(0.0, 0.0) == 1.0

    def test_zero_observed(self):
        assert q_error(5.0, 0.0) == float("inf")

    def test_zero_predicted(self):
        assert q_error(0.0, 5.0) == float("inf")

    def test_negative_treated_as_zero(self):
        assert q_error(-1.0, -2.0) == 1.0
        assert q_error(-1.0, 3.0) == float("inf")


# ----------------------------------------------------------------------
# Operator counters
# ----------------------------------------------------------------------
class TestOperatorCounters:
    @pytest.fixture()
    def chain_db(self):
        """A tiny store for the hand-built 3-atom chain join.

        p has 3 matching triples, q has 2, r has 1; exactly one
        (x, y, z, w) chain survives all three joins.
        """
        p, q, r = ex("p"), ex("q"), ex("r")
        triples = [
            Triple(ex("x1"), p, ex("y1")),
            Triple(ex("x2"), p, ex("y2")),
            Triple(ex("x3"), p, ex("y3")),
            Triple(ex("y1"), q, ex("z1")),
            Triple(ex("y2"), q, ex("z2")),
            Triple(ex("z1"), r, ex("w1")),
        ]
        return RDFDatabase.from_triples(triples)

    @pytest.fixture()
    def chain_query(self):
        x, y, z, w = Variable("x"), Variable("y"), Variable("z"), Variable("w")
        return BGPQuery(
            head=[x, w],
            body=[
                Triple(x, ex("p"), y),
                Triple(y, ex("q"), z),
                Triple(z, ex("r"), w),
            ],
        )

    def test_three_triple_join_counters(self, chain_db, chain_query):
        engine = NativeEngine(chain_db)
        metrics = MetricsRecorder()
        relation = engine.evaluate_relation(chain_query, metrics=metrics)
        assert len(relation) == 1
        counters = metrics.counters
        assert counters["scan.atoms"] == 3
        # 3 p-triples + 2 q-triples + 1 r-triple scanned, all via the
        # pos permutation (only the predicate is bound).
        assert counters["scan.rows"] == 6
        assert counters["scan.index.pos"] == 6
        assert counters["scan.rows_emitted"] == 6
        # Join order is smallest-first (r, then q, then p): the two
        # joins probe 1+2=3 then 1+3=4 rows and emit one row each.
        assert counters["join.hash.count"] == 2
        assert counters["join.hash.probe_rows"] == 7
        assert counters["join.hash.emit_rows"] == 2
        # Each join materializes one single-row intermediate.
        assert counters["materialized.intermediate_rows"] == 2
        # Final projection dedups 1 row to 1 row.
        assert counters["dedup.input_rows"] == 1
        assert counters["dedup.output_rows"] == 1

    def test_union_counters_count_each_pattern_once(self, chain_db):
        """Two same-shaped terms are one template: ``x p y`` is scanned
        once for both, and the union stacks per template, not per term."""
        x, y, z = Variable("x"), Variable("y"), Variable("z")
        ucq = UCQ([
            BGPQuery([x, z], [Triple(x, ex("p"), y), Triple(y, ex(name), z)])
            for name in ("q", "r")
        ])
        metrics = MetricsRecorder()
        relation = NativeEngine(chain_db).evaluate_relation(ucq, metrics=metrics)
        assert len(relation) == 2
        counters = metrics.counters
        assert counters["union.count"] == 1
        assert counters["union.terms"] == 2
        assert counters["union.templates"] == 1
        # p, q and r: three distinct patterns for four atoms.
        assert counters["scan.atoms"] == 3
        assert counters["scan.rows"] == 6
        # The join sees p (3 rows) and q ∪ r stacked (2 + 1 rows) ...
        assert counters["scan.rows_emitted"] == 6
        assert counters["join.hash.count"] == 1
        assert counters["join.hash.probe_rows"] == 6
        # ... and emits the two x-y-z chains through q; none through r.
        assert counters["join.hash.emit_rows"] == 2
        assert counters["materialized.intermediate_rows"] == 2
        assert counters["union.input_rows"] == 2
        assert counters["dedup.input_rows"] == 2
        assert counters["dedup.output_rows"] == 2

    def test_counters_off_by_default(self, chain_db, chain_query):
        engine = NativeEngine(chain_db)
        relation = engine.evaluate_relation(chain_query)
        assert len(relation) == 1  # same answers, no recorder involved

    def test_merge_join_counters(self, chain_db, chain_query):
        from repro.engine import NATIVE_MERGE

        engine = NativeEngine(chain_db, NATIVE_MERGE)
        metrics = MetricsRecorder()
        engine.evaluate_relation(chain_query, metrics=metrics)
        assert metrics.counters["join.merge.count"] == 2
        assert "join.hash.count" not in metrics.counters



# ----------------------------------------------------------------------
# Search trajectory
# ----------------------------------------------------------------------
class TestSearchTrajectory:
    def test_best_cost_monotone(self):
        trace = [
            (frozenset({frozenset({0}), frozenset({1})}), 5.0),
            (frozenset({frozenset({0, 1})}), 7.0),
            (frozenset({frozenset({0, 1})}), 3.0),
        ]
        steps = trajectory(trace)
        assert [s["cost"] for s in steps] == [5.0, 7.0, 3.0]
        assert [s["best_cost"] for s in steps] == [5.0, 5.0, 3.0]
        assert steps[0]["fragments"] == [[0], [1]]


# ----------------------------------------------------------------------
# End-to-end pipeline tracing
# ----------------------------------------------------------------------
def _span_names(tracer):
    names = set()

    def walk(span):
        names.add(span.name)
        for child in span.children:
            walk(child)

    for root in tracer.roots:
        walk(root)
    return names


class TestAnsweringTelemetry:
    QUERY = (
        "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
        "SELECT ?x ?d WHERE { ?x a ub:Professor . ?x ub:worksFor ?d }"
    )

    def test_traced_gcov_run(self, lubm_db):
        answerer = QueryAnswerer(lubm_db)
        query = parse_query(self.QUERY)
        baseline = answerer.answer(query, strategy="gcov")
        tracer = Tracer()
        report = answerer.answer(query, strategy="gcov", tracer=tracer)
        # Tracing must not change the answers.
        assert report.answers == baseline.answers
        names = _span_names(tracer)
        assert {"answer", "plan", "cover-search", "evaluate", "dedup"} <= names
        # Operator counters surface on the evaluate span.
        [evaluated] = tracer.spans("evaluate")
        counters = evaluated.attributes["counters"]
        assert counters["scan.rows"] > 0
        assert counters["dedup.output_rows"] >= report.answer_count
        # Without a plan cache the plan is never a cached one.
        [planned] = tracer.spans("plan")
        assert planned.attributes["cached"] is False
        # Accuracy samples carry predicted-vs-observed pairs; the first
        # is the whole query's.
        samples = [r for r in tracer.records if r["type"] == "accuracy"]
        assert samples and samples[0]["label"] == query.name
        assert samples[0]["predicted_cost"] > 0
        assert samples[0]["observed_rows"] == report.answer_count
        for sample in samples:
            assert sample["cost_q_error"] >= 1.0
            assert sample["cardinality_q_error"] >= 1.0
        # The search record holds the exploration trajectory.
        searches = [r for r in tracer.records if r["type"] == "search"]
        assert len(searches) == 1
        steps = searches[0]["trajectory"]
        assert len(steps) == report.covers_explored
        bests = [s["best_cost"] for s in steps]
        assert bests == sorted(bests, reverse=True)  # non-increasing
        assert searches[0]["best_cost"] == pytest.approx(min(s["cost"] for s in steps))

    def test_traced_ucq_matches_untraced(self, lubm_db):
        answerer = QueryAnswerer(lubm_db)
        query = parse_query(self.QUERY)
        baseline = answerer.answer(query, strategy="ucq")
        traced = answerer.answer(query, strategy="ucq", tracer=Tracer())
        assert traced.answers == baseline.answers

    def test_untraced_run_skips_accuracy(self, lubm_db):
        """An untraced answer counts nothing: the engine gets no
        recorder and the report carries only the answers and timings."""
        answerer = QueryAnswerer(lubm_db)
        query = parse_query(self.QUERY)
        with mock.patch.object(
            answerer.engine, "evaluate", wraps=answerer.engine.evaluate
        ) as evaluate:
            report = answerer.answer(query, strategy="gcov")
        assert evaluate.call_args.kwargs["metrics"] is None
        assert report.answer_count > 0
        for gone in ("metrics", "accuracy", "predicted_cost", "predicted_cardinality"):
            assert not hasattr(report, gone)

    def test_accuracy_samples_follow_the_tracer(self, lubm_db):
        answerer = QueryAnswerer(lubm_db)
        query = parse_query(self.QUERY)
        tracer = Tracer()
        answerer.answer(query, strategy="gcov", tracer=tracer)
        samples = [r for r in tracer.records if r["type"] == "accuracy"]
        operands = tracer.spans("operand")
        assert len(operands) == 2, "the chosen cover has two fragments"
        # Top-level sample plus one per operand span, each observing
        # that span's rows and duration.
        assert [sample["label"] for sample in samples] == [query.name] + [
            f"{query.name}.operand[{span.attributes['index']}]" for span in operands
        ]
        for sample, span in zip(samples[1:], operands):
            assert sample["observed_rows"] == span.attributes["rows"]
            assert sample["observed_s"] == span.duration_s

    def test_evaluate_counters_are_the_engines(self, lubm_db):
        """A traced native answer's ``evaluate`` counters are what the
        engine counts for the same plan given a recorder of its own (the
        e2e benchmark's traced driver reads them that way)."""
        answerer = QueryAnswerer(lubm_db)
        query = parse_query(self.QUERY)
        tracer = Tracer()
        answerer.answer(query, strategy="gcov", tracer=tracer)
        [evaluated] = tracer.spans("evaluate")
        planned, _search = answerer.plan(query, "gcov")
        recorder = MetricsRecorder()
        answerer.engine.evaluate_relation(planned, metrics=recorder)
        assert evaluated.attributes["counters"] == recorder.counters
        assert recorder.get("scan.rows") > 0

    def test_trace_export_contains_everything(self, lubm_db, tmp_path):
        answerer = QueryAnswerer(lubm_db)
        query = parse_query(self.QUERY)
        tracer = Tracer()
        answerer.answer(query, strategy="gcov", tracer=tracer)
        path = tmp_path / "trace.jsonl"
        tracer.export_jsonl(path)
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        kinds = {entry["type"] for entry in entries}
        assert kinds == {"span", "search", "accuracy"}
        span_names = {e["name"] for e in entries if e["type"] == "span"}
        assert {"cover-search", "evaluate", "dedup"} <= span_names
