"""Structured reporting for the paper-figure benchmarks.

:mod:`repro.bench.report` turns the measurements of the
``benchmarks/bench_*.py`` scripts into the text tables under
``benchmarks/results/``.

Imported only by ``benchmarks/*.py``; it stays importable as
``repro.bench`` until ROADMAP item 3's PR, which edits all 18
``bench_*.py`` anyway, moves it beside them.
"""

from .report import BenchReport, central, summarize

__all__ = ["BenchReport", "central", "summarize"]
