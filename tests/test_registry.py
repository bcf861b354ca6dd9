"""Tests for the typed-instrument registry (DESIGN.md §12).

Covers the histogram quantile math at its edges (empty, single sample,
bucket boundary, overflow, concurrent bumps), gauge and counter-source
sampling, instrument identity, and the text exposition format.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.answering import QueryAnswerer
from repro.engine import NativeEngine
from repro.query import parse_query
from repro.telemetry import (
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)


# ----------------------------------------------------------------------
# Histogram quantiles
# ----------------------------------------------------------------------
class TestHistogramQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        h = Histogram("t.seconds")
        assert h.quantile(0.5) is None
        assert h.quantile(0.99) is None
        assert h.count == 0
        assert h.sum == 0.0

    def test_single_sample_interpolates_within_its_bucket(self):
        h = Histogram("t.seconds")
        h.observe(0.003)  # bucket (0.0025, 0.005]
        for q in (0.0, 0.5, 0.9, 0.99):
            estimate = h.quantile(q)
            assert estimate is not None
            assert 0.0025 <= estimate <= 0.005

    def test_bucket_boundary_lands_in_le_bucket(self):
        # Prometheus 'le' semantics: an exact-boundary observation
        # belongs to the bucket whose upper bound equals it.
        h = Histogram("t.seconds")
        h.observe(0.001)
        counts = h.bucket_counts()
        boundary_index = DEFAULT_LATENCY_BUCKETS_S.index(0.001)
        assert counts[boundary_index] == 1
        assert h.quantile(1.0) == pytest.approx(0.001)

    def test_overflow_clamps_to_last_finite_bound(self):
        h = Histogram("t.seconds")
        h.observe(99.0)  # beyond every bucket -> +Inf bucket
        assert h.bucket_counts()[-1] == 1
        assert h.quantile(0.5) == pytest.approx(DEFAULT_LATENCY_BUCKETS_S[-1])

    def test_quantiles_are_monotone(self):
        h = Histogram("t.seconds")
        for value in (0.0003, 0.002, 0.004, 0.03, 0.3, 3.0):
            h.observe(value)
        estimates = [h.quantile(q) for q in (0.1, 0.5, 0.9, 0.99)]
        assert estimates == sorted(estimates)

    def test_concurrent_observes_lose_nothing(self):
        h = Histogram("t.seconds")
        threads = [
            threading.Thread(
                target=lambda: [h.observe(0.002) for _ in range(10_000)]
            )
            for _ in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert h.count == 80_000
        assert h.sum == pytest.approx(80_000 * 0.002)
        boundary_index = DEFAULT_LATENCY_BUCKETS_S.index(0.0025)
        assert h.bucket_counts()[boundary_index] == 80_000

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("t", buckets=(0.2, 0.1))
        with pytest.raises(ValueError):
            Histogram("t", buckets=())

    def test_snapshot_buckets_are_cumulative(self):
        h = Histogram("t.seconds", buckets=(0.001, 0.01, 0.1))
        for value in (0.0005, 0.005, 0.05, 5.0):
            h.observe(value)
        snap = h.snapshot()
        cumulative = [bucket["count"] for bucket in snap["buckets"]]
        assert cumulative == [1, 2, 3, 4]
        assert snap["buckets"][-1]["le"] == "+Inf"
        assert snap["count"] == 4
        assert {"p50", "p90", "p99"} <= set(snap)


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_histogram_identity_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.histogram("lat", labels={"strategy": "gcov"})
        b = registry.histogram("lat", labels={"strategy": "gcov"})
        c = registry.histogram("lat", labels={"strategy": "ucq"})
        assert a is b
        assert a is not c

    def test_gauges_sample_live_values(self):
        registry = MetricsRegistry()
        state = {"value": 1}
        registry.register_gauge("g", lambda: state["value"])
        assert registry.gauge_samples()[0]["value"] == 1.0
        state["value"] = 7
        assert registry.gauge_samples()[0]["value"] == 7.0

    def test_failing_gauge_callback_is_skipped(self):
        registry = MetricsRegistry()
        registry.register_gauge("bad", lambda: 1 / 0)
        registry.register_gauge("good", lambda: 2)
        samples = registry.gauge_samples()
        assert [s["name"] for s in samples] == ["good"]

    def test_multi_gauge_fans_over_labels(self):
        registry = MetricsRegistry()
        registry.register_multi_gauge("fills", "level", lambda: {"a": 1, "b": 2})
        samples = registry.gauge_samples()
        assert [(s["labels"], s["value"]) for s in samples] == [
            ({"level": "a"}, 1.0),
            ({"level": "b"}, 2.0),
        ]

    def test_counter_sources_are_prefixed(self):
        registry = MetricsRegistry()
        registry.register_counters("repro", lambda: {"resilience.attempts": 3})
        assert registry.counter_samples() == {"repro.resilience.attempts": 3}

    def test_snapshot_is_json_serializable(self):
        registry = MetricsRegistry()
        registry.register_gauge("g", lambda: 1)
        registry.histogram("h").observe(0.01)
        parsed = json.loads(json.dumps(registry.snapshot()))
        assert set(parsed) == {"gauges", "counters", "histograms"}

    def test_default_registry_swap(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert get_registry() is fresh
        finally:
            set_registry(previous)


# ----------------------------------------------------------------------
# Text exposition (golden)
# ----------------------------------------------------------------------
class TestTextExposition:
    def test_render_text_golden(self):
        registry = MetricsRegistry()
        registry.register_gauge("repro.pool.size", lambda: 3, help="pool fill")
        h = registry.histogram(
            "repro.lat.seconds", labels={"strategy": "gcov"}, buckets=(0.01, 0.1)
        )
        h.observe(0.005)
        h.observe(0.05)
        expected = "\n".join(
            [
                "# HELP repro_pool_size pool fill",
                "# TYPE repro_pool_size gauge",
                "repro_pool_size 3",
                "# TYPE repro_lat_seconds histogram",
                'repro_lat_seconds_bucket{strategy="gcov",le="0.01"} 1',
                'repro_lat_seconds_bucket{strategy="gcov",le="0.1"} 2',
                'repro_lat_seconds_bucket{strategy="gcov",le="+Inf"} 2',
                'repro_lat_seconds_sum{strategy="gcov"} 0.055',
                'repro_lat_seconds_count{strategy="gcov"} 2',
                "",
            ]
        )
        assert registry.render_text() == expected

    def test_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.register_gauge("a.b-c", lambda: 1)
        assert "a_b_c 1" in registry.render_text()


# ----------------------------------------------------------------------
# Answerer integration
# ----------------------------------------------------------------------
class TestAnswererInstruments:
    @pytest.fixture()
    def answered_registry(self, lubm_db):
        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            answerer = QueryAnswerer(
                lubm_db, engine=NativeEngine(lubm_db), registry=registry
            )
            query = parse_query(
                "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
                "SELECT ?x WHERE { ?x a ub:Professor }"
            )
            answerer.answer(query, strategy="gcov")
        finally:
            set_registry(previous)
        return registry

    def test_answer_populates_gauges_and_histograms(self, answered_registry):
        gauges = {sample["name"] for sample in answered_registry.gauge_samples()}
        assert {
            "repro.reformulator.memo_size",
            "repro.engine.connection_pool_size",
            "repro.breaker.circuits",
        } <= gauges
        histograms = {h.name for h in answered_registry.histograms()}
        assert {
            "repro.answer.optimize_seconds",
            "repro.answer.evaluate_seconds",
            "repro.engine.evaluate_seconds",
        } <= histograms

    def test_exposition_is_parseable(self, answered_registry):
        for line in answered_registry.render_text().splitlines():
            if not line or line.startswith("#"):
                continue
            name_and_labels, _, value = line.rpartition(" ")
            assert name_and_labels
            float(value)  # every sample line ends in a number
