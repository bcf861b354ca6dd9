"""Tests for the paper-figure benchmark reports (``repro.bench``).

Covers the ``summarize()`` math, the text rendering every committed
``benchmarks/results/*.txt`` was written with, and the missing-bar
status the shared harness assigns to an evaluation past its deadline.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.bench import BenchReport, central, summarize


# ----------------------------------------------------------------------
# summarize() / central()
# ----------------------------------------------------------------------
class TestSummarize:
    def test_distribution_fields(self):
        dist = summarize([3.0, 1.0, 2.0])
        assert dist["count"] == 3
        assert dist["min"] == 1.0
        assert dist["max"] == 3.0
        assert dist["mean"] == 2.0
        assert dist["p50"] == 2.0
        assert dist["values"] == [1.0, 2.0, 3.0]  # stored ascending
        assert dist["unit"] == "ms"

    def test_p50_interpolates_even_counts(self):
        assert summarize([1.0, 2.0, 3.0, 4.0])["p50"] == 2.5

    def test_empty_distribution(self):
        assert summarize([]) == {"unit": "ms", "count": 0}

    def test_small_samples_degrade_tail_to_max(self):
        # One or two repeats have no tail: interpolating p90/p99 out of
        # two points would report a "percentile" below an observed
        # value.  They must degrade to the max instead.
        one = summarize([5.0])
        assert one["p90"] == one["p99"] == one["max"] == 5.0
        two = summarize([10.0, 20.0])
        assert two["p90"] == two["p99"] == two["max"] == 20.0
        assert two["p50"] == 15.0  # the median still interpolates
        # From three samples up the interpolation is in range again.
        three = summarize([10.0, 20.0, 30.0])
        assert three["p90"] == pytest.approx(28.0)
        assert three["p99"] == pytest.approx(29.8)

    def test_central_reads_p50_then_mean_then_number(self):
        assert central({"p50": 7.0, "mean": 9.0}) == 7.0
        assert central({"mean": 9.0}) == 9.0
        assert central(4) == 4.0
        assert central(True) is None  # bools aren't timings
        assert central({"unit": "ms", "count": 0}) is None
        assert central("fast") is None


# ----------------------------------------------------------------------
# BenchReport
# ----------------------------------------------------------------------
class TestBenchReport:
    def test_labels_are_stringified(self):
        report = BenchReport("b")
        cell = report.add_cell({"workers": 4})
        assert cell["labels"] == {"workers": "4"}

    def test_render_text(self):
        # Byte-for-byte: the committed results/*.txt are this rendering.
        report = BenchReport("b", title="B", scales={"universities": 1, "repeats": 2})
        report.add_cell(
            {"query": "q1", "strategy": "gcov"},
            metrics={"evaluation_ms": summarize([12.0, 10.0]), "rate": 0.5},
            info={"answers": 12, "detail": ""},
        )
        report.add_cell({"query": "q2", "strategy": "ucq"}, status="timeout")
        assert report.render_text() == (
            "# bench: b (schema v1)\n"
            "# title: B\n"
            "# scales: repeats=2 universities=1\n"
            "query=q1 strategy=gcov status=ok evaluation_ms=11.000 rate=0.500 answers=12\n"
            "query=q2 strategy=ucq status=timeout\n"
        )
        assert BenchReport("plain").render_text() == "# bench: plain (schema v1)\n"


# ----------------------------------------------------------------------
# benchmarks/_harness: missing-bar status
# ----------------------------------------------------------------------
@pytest.fixture
def harness(monkeypatch, tmp_path):
    """``benchmarks/_harness`` at a 1-university scale, calibrating into tmp."""
    monkeypatch.setenv("REPRO_LUBM_SMALL", "1")
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "benchmarks"))
    module = importlib.import_module("_harness")
    monkeypatch.setattr(module, "_CALIBRATION_DIR", tmp_path)
    yield module
    del sys.modules["_harness"]


def test_deadline_reads_timeout_on_every_engine(harness):
    # Figs 4–6 print TIMEOUT vs FAILED from this status; it must not
    # depend on how an engine words its deadline error.
    entry = next(e for e in harness.workload("lubm-small") if e.name == "Q02")
    # SQLite checks its deadline every N VM instructions; 1 so that a
    # small statement reaches a checkpoint (as in test_timeouts.py).
    harness.engine("lubm-small", "sqlite").progress_interval = 1
    for engine_name in ("native-hash", "sqlite"):
        m = harness._measure_once(
            "lubm-small", entry, "ucq", engine_name, timeout_s=1e-9
        )
        assert m.status == "timeout", (engine_name, m.detail)
