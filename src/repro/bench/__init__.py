"""Structured reporting for the paper-figure benchmarks.

:mod:`repro.bench.report` turns the measurements of the
``benchmarks/bench_*.py`` scripts into the text tables under
``benchmarks/results/``.
"""

from .report import BenchReport, central, summarize

__all__ = ["BenchReport", "central", "summarize"]
