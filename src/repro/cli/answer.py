"""``repro query``, ``repro explain`` and ``repro profile``: one query
over one dataset under one strategy."""

from __future__ import annotations

import argparse
import math
import sys
import time

from ..analysis import Severity
from ..analysis.lint import lint_query
from ..answering import AnswerReport, QueryAnswerer
from ..answering.strategies import strategy_named
from ..cache import QueryCache
from ..query import BGPQuery
from ..resilience import ExecutionBudget
from ..telemetry import NULL_TRACER, Tracer
from .common import (
    ONE_QUERY,
    REPEAT,
    RESILIENCE,
    Command,
    collect_queries,
    load_database,
    open_answerer,
)


def _print_resilience_summary(report) -> None:
    """The one-line degradation record of a resilient answer."""
    trail = " -> ".join(
        f"{attempt.strategy}:{attempt.outcome}" for attempt in report.attempts
    )
    print(
        f"# resilience: strategy_used={report.strategy_used} "
        f"attempts={len(report.attempts)} degraded={report.degraded}"
        + (f" | {trail}" if trail else ""),
        file=sys.stderr,
    )


def _print_lint_findings(query, database) -> None:
    """Surface the query's lint warnings and errors on stderr."""
    for diagnostic in lint_query(query, database=database).diagnostics:
        if diagnostic.severity >= Severity.WARNING:
            print(f"# lint: {diagnostic.format()}", file=sys.stderr)


def _budget_from_args(args: argparse.Namespace) -> ExecutionBudget:
    """The :class:`ExecutionBudget` the flags describe."""
    return ExecutionBudget(
        timeout_s=args.timeout,
        max_union_terms=args.max_union_terms,
        max_intermediate_rows=args.budget_rows,
        max_result_rows=args.budget_rows,
    )


def _answer_as_asked(
    answerer: QueryAnswerer, query: BGPQuery, args: argparse.Namespace, tracer=None
) -> AnswerReport:
    """One answer under the flags' strategy and budget: direct, or
    through the fallback ladder with ``--fallback``."""
    method = answerer.answer_resilient if args.fallback else answerer.answer
    return method(
        query, strategy=args.strategy, budget=_budget_from_args(args), tracer=tracer
    )


def _answer(args: argparse.Namespace, tracer):
    """What ``query`` and ``profile`` both do before they print: load,
    parse (timed, inside a ``parse`` span), lint, then answer as asked
    ``--repeat`` times.  Returns ``(query, last report, parse_s, cache)``.
    """
    database = load_database(args.data)
    parse_start = time.perf_counter()
    with tracer.span("parse"):
        [(_name, query)] = collect_queries(args)
    parse_s = time.perf_counter() - parse_start
    cache = QueryCache() if args.cache else None
    repeat = max(1, getattr(args, "repeat", 1))
    with open_answerer(database, args, cache=cache) as answerer:
        _print_lint_findings(query, database)
        for iteration in range(repeat):
            report = _answer_as_asked(answerer, query, args, tracer)
            if repeat > 1:
                print(
                    f"# run {iteration + 1}/{repeat}: "
                    f"optimize={report.optimization_s * 1000:.1f}ms "
                    f"evaluate={report.evaluation_s * 1000:.1f}ms",
                    file=sys.stderr,
                )
    return query, report, parse_s, cache


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query``: answer a BGP query over an N-Triples file.

    Reports the full phase split — parse time (excluded from the
    report's ``total_s`` because the answerer receives a parsed query)
    alongside the report's optimization/evaluation accounting — plus
    the answer count, and under ``--trace`` the headline operator
    counters (an untraced answer counts nothing).
    """
    tracer = Tracer() if args.trace else NULL_TRACER
    _query, report, parse_s, cache = _answer(args, tracer)
    for row in sorted(report.answers):
        print("\t".join(str(term) for term in row))
    print(
        f"# {report.answer_count} answers | strategy={report.strategy} "
        f"| union terms={report.reformulation_terms}",
        file=sys.stderr,
    )
    print(
        f"# parse={parse_s * 1000:.1f}ms "
        f"| optimize={report.optimization_s * 1000:.1f}ms "
        f"| evaluate={report.evaluation_s * 1000:.1f}ms "
        f"| total={report.total_s * 1000:.1f}ms (total excludes parse)",
        file=sys.stderr,
    )
    if args.fallback:
        _print_resilience_summary(report)
    if cache is not None:
        for line in _cache_lines(cache):
            print(f"# {line}", file=sys.stderr)
    if args.trace:
        counters = _counters(tracer)
        print(
            f"# rows scanned={counters.get('scan.rows', 0)} "
            f"| dedup {counters.get('dedup.input_rows', 0)}"
            f"->{counters.get('dedup.output_rows', 0)} rows",
            file=sys.stderr,
        )
        written = tracer.export_jsonl(args.trace)
        print(f"# trace: {written} records -> {args.trace}", file=sys.stderr)
    return 0


def _cache_lines(cache: QueryCache):
    """One stats line per query-cache level."""
    for level, stats in cache.stats().items():
        yield (
            f"cache.{level}: size={stats['size']} hits={stats['hits']} "
            f"misses={stats['misses']} evictions={stats['evictions']} "
            f"hit_rate={stats['hit_rate']:.2f}"
        )


def _counters(tracer) -> dict:
    """The operator counters of the last answer the trace holds."""
    evaluated = tracer.spans("evaluate")
    return evaluated[-1].attributes.get("counters", {}) if evaluated else {}


def _print_span(span, indent: int = 0) -> None:
    # The counters get their own section.
    attributes = " ".join(
        f"{key}={value}" for key, value in span.attributes.items()
        if key != "counters"
    )
    suffix = f"  [{attributes}]" if attributes else ""
    print(f"{'  ' * indent}{span.name:<{max(24 - 2 * indent, 1)}} "
          f"{span.duration_s * 1000:9.3f}ms{suffix}")
    for child in span.children:
        _print_span(child, indent + 1)


def _format_q(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.2f}"


def cmd_profile(args: argparse.Namespace) -> int:
    """``repro profile``: answer one query with full telemetry output."""
    tracer = Tracer()
    query, report, _parse_s, cache = _answer(args, tracer)
    print(
        f"query {query.name}: {report.answer_count} answers "
        f"| strategy={report.strategy} | engine={args.engine} "
        f"| union terms={report.reformulation_terms}"
    )
    if args.fallback:
        _print_resilience_summary(report)
    print("\n== spans ==")
    for root in tracer.roots:
        _print_span(root)
    counters = _counters(tracer)
    if counters:
        print("\n== operator counters ==")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            print(f"  {name:<{width}}  {counters[name]}")
    if cache is not None:
        print("\n== query cache ==")
        for line in _cache_lines(cache):
            print(f"  {line}")
    samples = [record for record in tracer.records if record["type"] == "accuracy"]
    if samples:
        print("\n== cost-model accuracy ==")
        print(
            f"  {'label':<24} {'pred cost':>12} {'obs s':>12} {'q(cost)':>8} "
            f"{'pred rows':>12} {'obs rows':>9} {'q(card)':>8}"
        )
        for sample in samples:
            print(
                f"  {sample['label']:<24} {sample['predicted_cost']:>12.6f} "
                f"{sample['observed_s']:>12.6f} "
                f"{_format_q(sample['cost_q_error']):>8} "
                f"{sample['predicted_rows']:>12.1f} {sample['observed_rows']:>9} "
                f"{_format_q(sample['cardinality_q_error']):>8}"
            )
    for record in tracer.records:
        if record.get("type") != "search":
            continue
        steps = record["trajectory"]
        print(
            f"\n== {record['algorithm']} search trajectory "
            f"({record['covers_explored']} covers explored) =="
        )
        best = float("inf")
        for step in steps:
            improved = step["best_cost"] < best
            best = step["best_cost"]
            if improved or step is steps[-1]:
                print(
                    f"  step {step['step']:>4}: cost={step['cost']:.6f} "
                    f"best={step['best_cost']:.6f} fragments={step['fragments']}"
                )
    if args.trace:
        written = tracer.export_jsonl(args.trace)
        print(f"\nwrote {written} trace records to {args.trace}", file=sys.stderr)
    return 0


def cmd_explain(args: argparse.Namespace) -> int:
    """``repro explain``: the chosen reformulation, and what the
    ``--engine`` would run for it (native: the template pipelines;
    sqlite: the SQL and SQLite's query plan), without running it."""
    database = load_database(args.data)
    [(_name, query)] = collect_queries(args)
    row = strategy_named(args.strategy)
    cache = QueryCache() if args.cache else None
    with open_answerer(database, args, cache=cache) as answerer:
        start = time.perf_counter()
        planned, search = answerer.plan(query, args.strategy)
        elapsed = (time.perf_counter() - start) * 1000
        print(f"strategy: {args.strategy} (planned in {elapsed:.1f} ms)")
        if search is not None:
            from ..reformulation import format_cover

            print(f"cover: {format_cover(query, search.cover)}")
            print(f"covers explored: {search.covers_explored}")
            print(f"estimated cost: {search.estimated_cost:.6f}")
        if row.rewrite is not None:
            print(f"union terms: {planned.total_union_terms()}")
        # The engine that would answer, over the store the plan runs on
        # (a litemat plan embeds its derived store's codes, DESIGN.md
        # §16; saturation's as-written query only matches saturated data).
        engine = answerer.engine_for(args.strategy)
        print(f"\n-- plan ({engine.name}) --")
        print(engine.explain(planned))
    return 0


QUERY = Command(
    "query",
    "answer a query over a dataset",
    cmd_query,
    (
        ONE_QUERY,
        RESILIENCE,
        REPEAT.but(
            help="answer the query N times (with --cache, later runs are warm)"
        ),
    ),
)
EXPLAIN = Command(
    "explain",
    "show the chosen reformulation and the engine's plan for it",
    cmd_explain,
    ONE_QUERY,
)
PROFILE = Command(
    "profile",
    "answer a query with full telemetry output",
    cmd_profile,
    (ONE_QUERY, RESILIENCE),
)
