"""``repro query``, ``repro explain`` and ``repro profile``: one query
over one dataset under one strategy."""

from __future__ import annotations

import argparse
import math
import sys
import time
from typing import Optional

from ..analysis import Severity
from ..analysis.lint import lint_query
from ..answering import AnswerReport, QueryAnswerer
from ..answering.strategies import strategy_named
from ..cache import QueryCache
from ..engine import NativeEngine, to_sql
from ..query import BGPQuery
from ..resilience import ExecutionBudget
from ..telemetry import NULL_TRACER, Tracer
from .common import (
    ONE_QUERY,
    REPEAT,
    RESILIENCE,
    Arg,
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


def _budget_from_args(args: argparse.Namespace) -> Optional[ExecutionBudget]:
    """The :class:`ExecutionBudget` the flags describe (None = unlimited)."""
    budget = ExecutionBudget(
        timeout_s=args.timeout,
        max_union_terms=args.max_union_terms,
        max_intermediate_rows=args.budget_rows,
        max_result_rows=args.budget_rows,
    )
    return None if budget.unlimited else budget


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
    the answer count and headline operator counters.
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
        for level, stats in cache.stats().items():
            print(
                f"# cache.{level}: size={stats['size']} hits={stats['hits']} "
                f"misses={stats['misses']} evictions={stats['evictions']} "
                f"hit_rate={stats['hit_rate']:.2f}",
                file=sys.stderr,
            )
    counters = report.metrics.get("counters", {})
    if counters:
        print(
            f"# rows scanned={counters.get('scan.rows', 0)} "
            f"| dedup {counters.get('dedup.input_rows', 0)}"
            f"->{counters.get('dedup.output_rows', 0)} rows",
            file=sys.stderr,
        )
    if args.trace:
        written = tracer.export_jsonl(args.trace)
        print(f"# trace: {written} records -> {args.trace}", file=sys.stderr)
    return 0


def _print_span(span, indent: int = 0) -> None:
    attributes = " ".join(
        f"{key}={value}" for key, value in span.attributes.items()
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
    query, report, _parse_s, _cache = _answer(args, tracer)
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
    counters = report.metrics.get("counters", {})
    if counters:
        print("\n== operator counters ==")
        width = max(len(name) for name in counters)
        for name in sorted(counters):
            print(f"  {name:<{width}}  {counters[name]}")
    series = report.metrics.get("series", {})
    if series:
        print("\n== series ==")
        for name in sorted(series):
            values = series[name]
            rendered = ", ".join(
                f"{v:.6f}" if isinstance(v, float) else str(v) for v in values
            )
            print(f"  {name}: [{rendered}]")
    if report.accuracy:
        print("\n== cost-model accuracy ==")
        print(
            f"  {'label':<24} {'pred cost':>12} {'obs s':>12} {'q(cost)':>8} "
            f"{'pred rows':>12} {'obs rows':>9} {'q(card)':>8}"
        )
        for sample in report.accuracy:
            print(
                f"  {sample.label:<24} {sample.predicted_cost:>12.6f} "
                f"{sample.observed_s:>12.6f} {_format_q(sample.cost_q_error):>8} "
                f"{sample.predicted_rows:>12.1f} {sample.observed_rows:>9} "
                f"{_format_q(sample.cardinality_q_error):>8}"
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
    """``repro explain``: show the chosen reformulation without running it."""
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
        # SQL and plan estimates describe the store the plan runs on: a
        # litemat plan embeds its derived store's codes (DESIGN.md §16),
        # and saturation's as-written query only matches saturated data.
        explain_db = database
        if row.store is not None:
            explain_db = answerer.engine_for(args.strategy).database
        if args.sql:
            print("\n-- SQL --")
            print(to_sql(planned, explain_db.dictionary))
        else:
            print("\n-- plan --")
            print(NativeEngine(explain_db).explain(planned))
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
    "show the chosen reformulation",
    cmd_explain,
    (ONE_QUERY, Arg("--sql", action="store_true", help="print generated SQL")),
)
PROFILE = Command(
    "profile",
    "answer a query with full telemetry output",
    cmd_profile,
    (ONE_QUERY, RESILIENCE),
)
