"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``generate``
    Emit a synthetic benchmark dataset as N-Triples (schema included).

``query``
    Load an N-Triples file and answer a SPARQL BGP query under a chosen
    strategy, printing answers and timing.

``explain``
    Show the reformulation a strategy would evaluate — cover, union
    term counts, generated SQL or native plan — without evaluating it.

``stats``
    Summarize a dataset: triples, dictionary, schema, class histogram.

``cache-stats``
    Answer a workload repeatedly through the multi-level query cache
    (DESIGN.md §9) and report per-level hit/miss/eviction statistics
    plus the cold-vs-warm pass timings.

``profile``
    Answer a query with full telemetry: span tree, operator counters,
    cost-model accuracy (q-errors), and the optimizer's best-cost
    trajectory; optionally export the trace as JSON lines.

``lint``
    Statically check queries against the dataset's schema and
    dictionary: rule-coded diagnostics (DESIGN.md §8), non-zero exit on
    any error-severity finding, ``--format json`` for machines.

``analyze``
    Containment-based static analysis (DESIGN.md §13): materialize each
    query's reformulation, run the UCQ minimization pass, re-check every
    elimination certificate, and report union terms before/after with
    witness homomorphisms; exit codes match ``lint``.

``chaos``
    Run a workload through seeded fault injection (DESIGN.md §10) with
    the strategy-fallback ladder on, and compare every answer set
    against a clean saturation baseline; exits 3 on any mismatch.

``metrics-export``
    Answer a workload, then dump the process metrics registry
    (DESIGN.md §12) — callback-sampled gauges and latency histograms
    with quantiles — as Prometheus-style text or a JSON snapshot.

``serve``
    Run the multi-tenant HTTP query service (DESIGN.md §14): shared
    answerers with per-tenant admission control, bounded queueing,
    fallback ladders, ``/metrics`` exposition and graceful drain on
    SIGTERM.

Failures map to distinct exit codes instead of tracebacks: 2 usage /
IR verification, 3 chaos mismatch, 4 timeout, 5 engine failure,
6 planning infeasible, 7 resilience exhausted.

Examples::

    python -m repro generate lubm --universities 2 -o campus.nt
    python -m repro query campus.nt -q "SELECT ?x WHERE { ?x a ub:Professor }" \\
        --prefix ub=http://swat.cse.lehigh.edu/onto/univ-bench.owl#
    python -m repro explain campus.nt -q "..." --strategy gcov --sql
    python -m repro profile campus.nt -q "..." --strategy gcov --trace out.jsonl
    python -m repro lint campus.nt -q "..." --format json
    python -m repro lint campus.nt --workload lubm
    python -m repro query campus.nt -q "..." --fallback --timeout 5
    python -m repro chaos campus.nt --workload lubm --seeds 0,1,2
    python -m repro serve --lubm 1 --port 8425 --tenants tenants.json
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import List, Optional

from .analysis import IRVerificationError, Severity
from .analysis.lint import lint_query, lint_text
from .answering import STRATEGIES, QueryAnswerer
from .cache import QueryCache
from .datasets import DBLPGenerator, DBLPProfile, LUBMGenerator, dblp_schema, lubm_schema
from .engine import (
    Engine,
    EngineFailure,
    EngineTimeout,
    NativeEngine,
    SQLiteEngine,
    to_sql,
)
from .optimizer import SearchInfeasible
from .query import parse_query
from .rdf import read_ntriples, write_ntriples
from .reformulation import Reformulator
from .reformulation.reformulate import ReformulationLimitExceeded
from .resilience import (
    ChaosConfig,
    ChaosEngine,
    ExecutionBudget,
    FallbackPolicy,
    ResilienceError,
)
from .storage import RDFDatabase
from .telemetry import MetricsRegistry, Tracer, set_registry

#: Exit codes for mapped failures (see module docstring).
EXIT_CHAOS_MISMATCH = 3
EXIT_TIMEOUT = 4
EXIT_ENGINE_FAILURE = 5
EXIT_PLANNING = 6
EXIT_RESILIENCE = 7

#: SQLite's compile-time compound-select limit: the strictest statement
#: limit among the engines, used as the lint's default for rule L109.
DEFAULT_STATEMENT_LIMIT = 500


def _add_query_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("data", help="N-Triples file (constraints + facts)")
    parser.add_argument("-q", "--query", required=True, help="SPARQL BGP text")
    parser.add_argument(
        "--prefix",
        action="append",
        default=[],
        metavar="NAME=IRI",
        help="extra prefix declaration (repeatable)",
    )
    parser.add_argument(
        "--strategy", choices=STRATEGIES, default="gcov", help="answering strategy"
    )
    parser.add_argument(
        "--engine",
        choices=("native", "sqlite"),
        default="native",
        help="evaluation engine",
    )
    parser.add_argument(
        "--verify-ir",
        action="store_true",
        help="assert IR well-formedness after each compilation stage "
        "(debug mode; see DESIGN.md §8)",
    )
    parser.add_argument(
        "--cache",
        action="store_true",
        help="enable the multi-level query cache (DESIGN.md §9); "
        "cache counters appear in the metrics output",
    )


def _add_resilience_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fallback",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="answer through the strategy-fallback ladder "
        "(gcov -> scq -> pruned-ucq -> saturation; DESIGN.md §10)",
    )
    parser.add_argument(
        "--budget-rows",
        type=int,
        default=None,
        metavar="N",
        help="cap intermediate and result relations at N rows",
    )
    parser.add_argument(
        "--max-union-terms",
        type=int,
        default=None,
        metavar="N",
        help="reject reformulations over N total union terms",
    )


def _budget_from_args(args: argparse.Namespace) -> Optional[ExecutionBudget]:
    """The :class:`ExecutionBudget` the flags describe (None = unlimited)."""
    budget = ExecutionBudget(
        timeout_s=getattr(args, "timeout", None),
        max_union_terms=getattr(args, "max_union_terms", None),
        max_intermediate_rows=getattr(args, "budget_rows", None),
        max_result_rows=getattr(args, "budget_rows", None),
    )
    return None if budget.unlimited else budget


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


def _load_database(path: str) -> RDFDatabase:
    with open(path, "r", encoding="utf-8") as source:
        return RDFDatabase.from_triples(read_ntriples(source))


def _print_lint_findings(report, minimum: Severity = Severity.WARNING) -> None:
    """Surface lint findings on stderr (used by query/profile)."""
    for diagnostic in report.diagnostics:
        if diagnostic.severity >= minimum:
            print(f"# lint: {diagnostic.format()}", file=sys.stderr)


def _print_verification_failure(error: IRVerificationError) -> None:
    print("# IR verification FAILED:", file=sys.stderr)
    for diagnostic in error.diagnostics:
        print(f"#   {diagnostic.format()}", file=sys.stderr)


def _parse_with_prefixes(text: str, prefixes: List[str]):
    declarations = []
    for declaration in prefixes:
        name, _, iri = declaration.partition("=")
        if not iri:
            raise SystemExit(f"bad --prefix {declaration!r}; expected NAME=IRI")
        declarations.append(f"PREFIX {name}: <{iri}> ")
    return parse_query("".join(declarations) + text)


def _answerer(
    database: RDFDatabase,
    engine_kind: str,
    verify_ir: bool = False,
    cache: Optional[QueryCache] = None,
) -> QueryAnswerer:
    engine: Engine = (
        SQLiteEngine(database) if engine_kind == "sqlite" else NativeEngine(database)
    )
    return QueryAnswerer(database, engine=engine, verify_ir=verify_ir, cache=cache)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_generate(args: argparse.Namespace) -> int:
    """``repro generate``: emit a synthetic dataset as N-Triples."""
    if args.flavor == "lubm":
        schema = lubm_schema()
        facts = LUBMGenerator(universities=args.universities, seed=args.seed).triples()
    else:
        schema = dblp_schema()
        facts = DBLPGenerator(
            DBLPProfile(publications=args.publications), seed=args.seed
        ).triples()
    sink = open(args.output, "w", encoding="utf-8") if args.output else sys.stdout
    try:
        written = write_ntriples(schema.to_triples(), sink)
        written += write_ntriples(facts, sink)
    finally:
        if args.output:
            sink.close()
    print(f"wrote {written} triples to {args.output or 'stdout'}", file=sys.stderr)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """``repro query``: answer a BGP query over an N-Triples file.

    Reports the full phase split — parse time (excluded from the
    report's ``total_s`` because the answerer receives a parsed query)
    alongside the report's optimization/evaluation accounting — plus
    the answer count and headline operator counters.
    """
    database = _load_database(args.data)
    tracer = Tracer() if args.trace else None
    parse_start = time.perf_counter()
    if tracer is not None:
        with tracer.span("parse"):
            query = _parse_with_prefixes(args.query, args.prefix)
    else:
        query = _parse_with_prefixes(args.query, args.prefix)
    parse_s = time.perf_counter() - parse_start
    cache = QueryCache() if args.cache else None
    answerer = _answerer(
        database, args.engine, verify_ir=args.verify_ir, cache=cache
    )
    _print_lint_findings(lint_query(query, database=database))
    budget = _budget_from_args(args)
    repeat = max(1, args.repeat)
    try:
        for iteration in range(repeat):
            if args.fallback:
                report = answerer.answer_resilient(
                    query, strategy=args.strategy, budget=budget, tracer=tracer
                )
            else:
                report = answerer.answer(
                    query, strategy=args.strategy, budget=budget, tracer=tracer
                )
            if repeat > 1:
                print(
                    f"# run {iteration + 1}/{repeat}: "
                    f"optimize={report.optimization_s * 1000:.1f}ms "
                    f"evaluate={report.evaluation_s * 1000:.1f}ms",
                    file=sys.stderr,
                )
    except IRVerificationError as error:
        _print_verification_failure(error)
        return 2
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
    if tracer is not None:
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
    database = _load_database(args.data)
    tracer = Tracer()
    with tracer.span("parse"):
        query = _parse_with_prefixes(args.query, args.prefix)
    answerer = _answerer(
        database,
        args.engine,
        verify_ir=args.verify_ir,
        cache=QueryCache() if args.cache else None,
    )
    _print_lint_findings(lint_query(query, database=database))
    budget = _budget_from_args(args)
    try:
        if args.fallback:
            report = answerer.answer_resilient(
                query, strategy=args.strategy, budget=budget, tracer=tracer
            )
        else:
            report = answerer.answer(
                query, strategy=args.strategy, budget=budget, tracer=tracer
            )
    except IRVerificationError as error:
        _print_verification_failure(error)
        return 2
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
    database = _load_database(args.data)
    query = _parse_with_prefixes(args.query, args.prefix)
    answerer = _answerer(
        database,
        args.engine,
        verify_ir=args.verify_ir,
        cache=QueryCache() if args.cache else None,
    )
    start = time.perf_counter()
    try:
        planned, search = answerer.plan(query, args.strategy)
    except IRVerificationError as error:
        _print_verification_failure(error)
        return 2
    elapsed = (time.perf_counter() - start) * 1000
    print(f"strategy: {args.strategy} (planned in {elapsed:.1f} ms)")
    if search is not None:
        from .reformulation import format_cover

        print(f"cover: {format_cover(query, search.cover)}")
        print(f"covers explored: {search.covers_explored}")
        print(f"estimated cost: {search.estimated_cost:.6f}")
    if args.strategy != "saturation":
        print(f"union terms: {planned.total_union_terms()}")
    # The litemat plan embeds interval codes of the derived store, so
    # SQL and plan estimates must be rendered against it (DESIGN.md §16).
    explain_db = database
    if args.strategy == "litemat":
        _encoding, explain_db, _epoch = answerer.interval_assigner.current(database)
    if args.sql:
        print("\n-- SQL --")
        print(to_sql(planned, explain_db.dictionary))
    else:
        print("\n-- plan --")
        print(NativeEngine(explain_db).explain(planned))
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: statically check queries against a dataset.

    Lints the ``-q`` queries (repeatable) and/or a bundled benchmark
    workload; prints rule-coded diagnostics (text or JSON) and exits
    non-zero when any error-severity finding fires.
    """
    if not args.query and not args.workload:
        print("lint needs at least one -q QUERY or --workload", file=sys.stderr)
        return 2
    database = _load_database(args.data)
    reformulator = Reformulator(database.schema)
    declarations = "".join(
        f"PREFIX {declaration.partition('=')[0]}: "
        f"<{declaration.partition('=')[2]}> "
        for declaration in args.prefix
    )
    reports = []
    for index, text in enumerate(args.query or []):
        reports.append(
            lint_text(
                declarations + text,
                database=database,
                reformulator=reformulator,
                max_operand_terms=args.statement_limit,
                name=f"q{index + 1}",
            )
        )
    if args.workload:
        from .datasets import dblp_workload, lubm_workload

        entries = lubm_workload() if args.workload == "lubm" else dblp_workload()
        for entry in entries:
            report = lint_query(
                entry.query,
                database=database,
                reformulator=reformulator,
                max_operand_terms=args.statement_limit,
            )
            report.query_name = entry.name
            reports.append(report)
    failed = sum(1 for report in reports if not report.ok)
    if args.format == "json":
        print(
            json.dumps(
                {
                    "queries": len(reports),
                    "failed": failed,
                    "reports": [report.to_dict() for report in reports],
                },
                indent=2,
            )
        )
    else:
        from .analysis.lint import format_report

        for report in reports:
            print(format_report(report, verbose=args.verbose))
    return 1 if failed else 0


def cmd_analyze(args: argparse.Namespace) -> int:
    """``repro analyze``: containment-based static query analysis.

    Materializes each query's raw reformulation, runs the UCQ
    minimization pass (DESIGN.md §13), independently re-checks every
    elimination certificate through the IR-M verifier rules, and prints
    a per-query report: union terms before/after, elimination breakdown,
    and (``--verbose``) the witness homomorphisms.  Lint diagnostics for
    each query ride along; the exit contract matches ``repro lint`` —
    1 when any error-severity finding or certificate fault fires.
    """
    if not args.query and not args.workload:
        print("analyze needs at least one -q QUERY or --workload", file=sys.stderr)
        return 2
    from .analysis.containment import minimization_summary, minimize_ucq
    from .analysis.verifier import check_minimization
    from .reformulation.reformulate import reformulate

    database = _load_database(args.data)
    reformulator = Reformulator(database.schema)
    declarations = "".join(
        f"PREFIX {declaration.partition('=')[0]}: "
        f"<{declaration.partition('=')[2]}> "
        for declaration in args.prefix
    )
    targets = []
    for index, text in enumerate(args.query or []):
        try:
            query = parse_query(declarations + text)
        except ValueError as error:
            print(f"q{index + 1}: {error}", file=sys.stderr)
            return 2
        query.name = f"q{index + 1}"
        targets.append(query)
    if args.workload:
        from .datasets import dblp_workload, lubm_workload

        entries = lubm_workload() if args.workload == "lubm" else dblp_workload()
        for entry in entries:
            entry.query.name = entry.name
            targets.append(entry.query)

    failed = 0
    rows = []
    reports = []
    for query in targets:
        row: dict = {"query": query.name}
        report = lint_query(
            query,
            database=database,
            reformulator=reformulator,
            max_operand_terms=args.statement_limit,
        )
        reports.append(report)
        row["diagnostics"] = [d.to_dict() for d in report.diagnostics]
        try:
            raw = reformulate(query, database.schema, limit=args.term_limit)
        except ReformulationLimitExceeded:
            row["skipped"] = (
                f"reformulation exceeds --term-limit {args.term_limit}"
            )
            rows.append(row)
            if not report.ok:
                failed += 1
            continue
        result = minimize_ucq(raw, database.schema)
        row.update(minimization_summary(raw, result))
        faults = check_minimization(raw, result)
        row["certificate_faults"] = [d.to_dict() for d in faults]
        if faults or not report.ok:
            failed += 1
        rows.append(row)

    if args.format == "json":
        print(
            json.dumps(
                {"queries": len(rows), "failed": failed, "reports": rows},
                indent=2,
            )
        )
    else:
        from .analysis.lint import format_report

        for row, report in zip(rows, reports):
            if "skipped" in row:
                print(f"{row['query']}: skipped ({row['skipped']})")
            else:
                line = (
                    f"{row['query']}: {row['terms_before']} -> "
                    f"{row['terms_after']} union terms"
                )
                breakdown = [
                    f"{kind} {row[kind]}"
                    for kind in ("subsumed", "duplicates", "empty")
                    if row[kind]
                ]
                if breakdown:
                    line += f" ({', '.join(breakdown)})"
                line += f" [{row['containment_checks']} containment checks]"
                if row["skipped_subsumption"]:
                    line += " (subsumption sweep skipped: too many terms)"
                print(line)
                if args.verbose:
                    for witness in row["witnesses"]:
                        print(f"  {witness}")
                for fault in row["certificate_faults"]:
                    print(f"  CERTIFICATE FAULT {fault['code']}: {fault['message']}")
            if report.diagnostics and (args.verbose or not report.ok):
                print(format_report(report, verbose=args.verbose))
    return 1 if failed else 0


def cmd_cache_stats(args: argparse.Namespace) -> int:
    """``repro cache-stats``: exercise the query cache and report hit rates.

    Answers a workload (or explicit ``-q`` queries) ``--repeat`` times
    through a cache-enabled answerer, timing each pass, then prints the
    per-level cache statistics.  The first pass is cold; later passes
    show the warm-cache optimize-time drop (the ISSUE's headline
    number).  Queries whose reformulation exceeds ``--limit`` union
    terms are skipped, so huge workload entries don't dominate.
    """
    database = _load_database(args.data)
    cache = QueryCache()
    answerer = _answerer(database, args.engine, cache=cache)
    answerer.reformulator.limit = args.limit
    queries = []
    declarations = "".join(
        f"PREFIX {declaration.partition('=')[0]}: "
        f"<{declaration.partition('=')[2]}> "
        for declaration in args.prefix
    )
    for index, text in enumerate(args.query or []):
        queries.append((f"q{index + 1}", parse_query(declarations + text)))
    if args.workload:
        from .datasets import dblp_workload, lubm_workload

        entries = lubm_workload() if args.workload == "lubm" else dblp_workload()
        queries.extend((entry.name, entry.query) for entry in entries)
    if not queries:
        print("cache-stats needs at least one -q QUERY or --workload", file=sys.stderr)
        return 2
    from .engine import EngineFailure
    from .optimizer import SearchInfeasible
    from .reformulation import ReformulationLimitExceeded

    skipped = set()
    for iteration in range(max(1, args.repeat)):
        optimize_s = evaluate_s = 0.0
        answered = 0
        for name, query in queries:
            if name in skipped:
                continue
            try:
                report = answerer.answer(
                    query, strategy=args.strategy, timeout_s=args.timeout
                )
            except (ReformulationLimitExceeded, SearchInfeasible, EngineFailure):
                skipped.add(name)
                continue
            optimize_s += report.optimization_s
            evaluate_s += report.evaluation_s
            answered += 1
        label = "cold" if iteration == 0 else "warm"
        print(
            f"pass {iteration + 1} ({label}): {answered} queries "
            f"| optimize={optimize_s * 1000:.1f}ms "
            f"| evaluate={evaluate_s * 1000:.1f}ms"
        )
    if skipped:
        print(
            f"skipped (infeasible or > {args.limit} union terms): "
            f"{', '.join(sorted(skipped))}"
        )
    print("\n== cache levels ==")
    for level, stats in sorted(cache.stats().items()):
        print(
            f"  {level:<14} size={stats['size']:>5}/{stats['capacity'] or '∞'} "
            f"hits={stats['hits']:>6} misses={stats['misses']:>6} "
            f"evictions={stats['evictions']:>4} "
            f"invalidations={stats['invalidations']:>3} "
            f"hit_rate={stats['hit_rate']:.2f}"
        )
    _print_runtime_state(answerer)
    return 0


def _print_runtime_state(answerer: QueryAnswerer) -> None:
    """The live gauge readings of one answerer (DESIGN.md §12).

    Covers the runtime occupancy the counters can't show: SQLite
    connection-pool size, circuit-breaker circuits by state, the
    reformulator memo, and cache level fills.
    """
    print("\n== runtime state ==")
    for sample in answerer.registry.gauge_samples():
        labels = "".join(
            f" {key}={value}" for key, value in sorted(sample["labels"].items())
        )
        print(f"  {sample['name']:<36}{labels} = {sample['value']:g}")


def cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: differential fault-injection run.

    For every seed in the matrix, wraps the evaluation engine in a
    :class:`~repro.resilience.ChaosEngine` and answers the workload
    through :meth:`~repro.answering.QueryAnswerer.answer_resilient`,
    comparing each answer set against a clean saturation baseline.
    Injection only ever hits non-saturation rungs (derived saturation
    engines stay unwrapped), so the ladder must recover — any mismatch
    or unrecovered query is reported and exits
    :data:`EXIT_CHAOS_MISMATCH`.
    """
    database = _load_database(args.data)
    declarations = "".join(
        f"PREFIX {declaration.partition('=')[0]}: "
        f"<{declaration.partition('=')[2]}> "
        for declaration in args.prefix
    )
    queries = [
        (f"q{index + 1}", parse_query(declarations + text))
        for index, text in enumerate(args.query or [])
    ]
    if args.workload:
        from .datasets import dblp_workload, lubm_workload

        entries = lubm_workload() if args.workload == "lubm" else dblp_workload()
        queries.extend((entry.name, entry.query) for entry in entries)
    if not queries:
        print("chaos needs at least one -q QUERY or --workload", file=sys.stderr)
        return 2
    try:
        seeds = [int(seed) for seed in args.seeds.split(",") if seed.strip()]
    except ValueError:
        print(f"bad --seeds {args.seeds!r}; expected e.g. 0,1,2", file=sys.stderr)
        return 2

    # Clean saturation baselines, computed once and shared by each seed.
    baseline_answerer = _answerer(database, args.engine)
    baseline_answerer.reformulator.limit = args.limit
    baselines = {
        name: baseline_answerer.answer(query, strategy="saturation").answers
        for name, query in queries
    }

    policy = FallbackPolicy(max_retries=args.max_retries, sleep=lambda _s: None)
    mismatches = []
    unrecovered = []
    total_faults = total_degraded = total_answers = 0
    for seed in seeds:
        config = ChaosConfig(
            seed=seed,
            timeout_rate=args.timeout_rate,
            failure_rate=args.failure_rate,
            slow_rate=args.slow_rate,
            transient=args.transient,
        )
        engine = (
            SQLiteEngine(database)
            if args.engine == "sqlite"
            else NativeEngine(database)
        )
        chaos = ChaosEngine(engine, config)
        chaos.sleeper = lambda _s: None
        answerer = QueryAnswerer(database, engine=chaos, fallback=policy)
        answerer.reformulator.limit = args.limit
        degraded = 0
        for name, query in queries:
            try:
                report = answerer.answer_resilient(query, strategy=args.strategy)
            except ResilienceError as error:
                unrecovered.append((seed, name, f"{type(error).__name__}: {error}"))
                continue
            total_answers += 1
            if report.degraded:
                degraded += 1
            if report.answers != baselines[name]:
                mismatches.append((seed, name, report.strategy_used))
        total_degraded += degraded
        total_faults += chaos.faults_injected
        print(
            f"seed {seed}: {len(queries)} queries | "
            f"faults injected={chaos.faults_injected} "
            f"(timeout={chaos.counts['timeout']} "
            f"failure={chaos.counts['failure']} slow={chaos.counts['slow']}) "
            f"| degraded={degraded}"
        )
    print(
        f"\n{len(seeds)} seeds x {len(queries)} queries: "
        f"{total_answers} answered, {total_faults} faults injected, "
        f"{total_degraded} degraded, {len(mismatches)} mismatches, "
        f"{len(unrecovered)} unrecovered"
    )
    for seed, name, used in mismatches:
        print(
            f"MISMATCH seed={seed} query={name} strategy_used={used}",
            file=sys.stderr,
        )
    for seed, name, error in unrecovered:
        print(f"UNRECOVERED seed={seed} query={name}: {error}", file=sys.stderr)
    return EXIT_CHAOS_MISMATCH if mismatches or unrecovered else 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the multi-tenant query service (DESIGN.md §14).

    Loads one or more datasets (N-Triples files and/or synthetic
    generators), wraps each in a cache-backed answerer, and serves
    them until SIGTERM/SIGINT triggers a graceful drain (finish
    in-flight queries, flush metrics, exit 0).
    """
    import threading

    from .service import QueryService, ServiceConfig, TenantRegistry

    datasets = {}
    for declaration in args.data or []:
        name, _, path = declaration.partition("=")
        if not path:
            raise SystemExit(f"bad --data {declaration!r}; expected NAME=PATH")
        datasets[name] = _load_database(path)
    if args.lubm is not None:
        from .datasets import build_lubm_database

        datasets["lubm"] = build_lubm_database(universities=args.lubm, seed=args.seed)
    if args.dblp is not None:
        from .datasets import build_dblp_database

        datasets["dblp"] = build_dblp_database(publications=args.dblp, seed=args.seed)
    if not datasets:
        print("repro serve needs at least one --data/--lubm/--dblp", file=sys.stderr)
        return 2
    answerers = {}
    for name, database in datasets.items():
        answerer = _answerer(database, args.engine, cache=QueryCache())
        if args.limit is not None:
            answerer.reformulator.limit = args.limit
        answerers[name] = answerer
    if args.tenants:
        with open(args.tenants, "r", encoding="utf-8") as source:
            tenants = TenantRegistry.from_dict(json.load(source))
    else:
        tenants = TenantRegistry.open_registry()
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_strategy=args.strategy,
        resilient=not args.direct,
        default_timeout_s=args.timeout,
        drain_grace_s=args.drain_grace,
        metrics_flush_path=args.metrics_out,
    )
    service = QueryService(answerers, tenants=tenants, config=config)

    def announce() -> None:
        if not service.wait_ready(30) or service.address is None:
            return
        host, port = service.address
        print(
            f"# repro-serve listening on http://{host}:{port} "
            f"datasets={sorted(answerers)} tenants={len(tenants)}",
            file=sys.stderr,
        )
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as sink:
                sink.write(f"{port}\n")

    threading.Thread(target=announce, name="repro-serve-announce", daemon=True).start()
    return service.run()


def cmd_fleet(args: argparse.Namespace) -> int:
    """``repro fleet``: a supervised replicated serving fleet (DESIGN.md §15).

    Launches N ``repro serve`` replicas of the same datasets (or
    attaches to already-running ones with ``--attach``) and routes one
    HTTP front door across them: health-probed failover, bounded
    retries, hedged tail requests, and crash-restart supervision.
    SIGTERM drains the router, then the managed replicas, and exits 0.
    """
    import os
    import tempfile
    import threading
    from pathlib import Path
    from urllib.parse import urlparse

    from .fleet import FleetRouter, HealthPolicy, Replica, RouterConfig
    from .fleet.replicas import ReplicaProcess, spawn_fleet

    policy = HealthPolicy(
        interval_s=args.probe_interval,
        timeout_s=args.probe_timeout,
        fall=args.fall,
        rise=args.rise,
    )
    replicas = []
    if args.attach:
        for index, url in enumerate(args.attach):
            parsed = urlparse(url if "//" in url else f"http://{url}")
            if parsed.hostname is None or parsed.port is None:
                raise SystemExit(f"bad --attach {url!r}; expected http://HOST:PORT")
            replicas.append(
                Replica(
                    f"r{index}", parsed.hostname, parsed.port, health_policy=policy
                )
            )
    else:
        if not (args.data or args.lubm is not None or args.dblp is not None):
            print(
                "repro fleet needs --attach or at least one --data/--lubm/--dblp",
                file=sys.stderr,
            )
            return 2
        serve_argv = [sys.executable, "-m", "repro", "serve"]
        for declaration in args.data or []:
            name, _, path = declaration.partition("=")
            if not path:
                raise SystemExit(f"bad --data {declaration!r}; expected NAME=PATH")
            serve_argv += ["--data", f"{name}={Path(path).resolve()}"]
        if args.lubm is not None:
            serve_argv += ["--lubm", str(args.lubm)]
        if args.dblp is not None:
            serve_argv += ["--dblp", str(args.dblp)]
        serve_argv += ["--seed", str(args.seed), "--engine", args.engine]
        serve_argv += ["--strategy", args.strategy]
        serve_argv += ["--drain-grace", str(args.drain_grace)]
        if args.workers is not None:
            serve_argv += ["--workers", str(args.workers)]
        if args.limit is not None:
            serve_argv += ["--limit", str(args.limit)]
        if args.timeout is not None:
            serve_argv += ["--timeout", str(args.timeout)]
        if args.tenants:
            serve_argv += ["--tenants", str(Path(args.tenants).resolve())]
        workdir = Path(args.workdir or tempfile.mkdtemp(prefix="repro-fleet-"))
        env = dict(os.environ)
        src_root = str(Path(__file__).resolve().parent.parent)
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        processes = [
            ReplicaProcess(f"r{index}", serve_argv, workdir, env=env)
            for index in range(args.replicas)
        ]
        print(
            f"# repro-fleet booting {len(processes)} replicas "
            f"(logs under {workdir})",
            file=sys.stderr,
        )
        ports = spawn_fleet(processes, startup_timeout_s=args.startup_timeout)
        replicas = [
            Replica(name, "127.0.0.1", port, process=process, health_policy=policy)
            for (name, port), process in zip(ports, processes)
        ]
    config = RouterConfig(
        host=args.host,
        port=args.port,
        max_attempts=args.max_attempts,
        upstream_timeout_s=args.upstream_timeout,
        default_timeout_s=args.timeout,
        hedge=not args.no_hedge,
        hedge_after_s=args.hedge_after,
        health=policy,
        drain_grace_s=args.drain_grace,
        metrics_flush_path=args.metrics_out,
    )
    router = FleetRouter(replicas, config=config)

    def announce() -> None:
        if not router.wait_ready(30) or router.address is None:
            return
        host, port = router.address
        print(
            f"# repro-fleet routing http://{host}:{port} across "
            f"{[f'{r.name}={r.url}' for r in replicas]}",
            file=sys.stderr,
        )
        if args.state_file:
            state = {
                "router": {"host": host, "port": port, "pid": os.getpid()},
                "replicas": [
                    {
                        "name": r.name,
                        "host": r.host,
                        "port": r.port,
                        "pid": None if r.process is None else r.process.pid,
                    }
                    for r in replicas
                ],
            }
            with open(args.state_file, "w", encoding="utf-8") as sink:
                json.dump(state, sink, indent=2)
                sink.write("\n")
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as sink:
                sink.write(f"{port}\n")

    threading.Thread(target=announce, name="repro-fleet-announce", daemon=True).start()
    return router.run()


def cmd_metrics_export(args: argparse.Namespace) -> int:
    """``repro metrics-export``: run a workload, dump the registry.

    Answers the given queries (or bundled workload) through a fresh
    :class:`~repro.telemetry.MetricsRegistry` installed as the process
    default — so the answerer's gauges *and* the engines' call-time
    histograms all land in one place — then emits every instrument as
    Prometheus-style text exposition or a JSON snapshot.
    """
    registry = MetricsRegistry()
    set_registry(registry)
    database = _load_database(args.data)
    engine: Engine = (
        SQLiteEngine(database) if args.engine == "sqlite" else NativeEngine(database)
    )
    answerer = QueryAnswerer(
        database, engine=engine, cache=QueryCache(), registry=registry
    )
    answerer.reformulator.limit = args.limit
    declarations = "".join(
        f"PREFIX {declaration.partition('=')[0]}: "
        f"<{declaration.partition('=')[2]}> "
        for declaration in args.prefix
    )
    queries = [
        (f"q{index + 1}", parse_query(declarations + text))
        for index, text in enumerate(args.query or [])
    ]
    if args.workload:
        from .datasets import dblp_workload, lubm_workload

        entries = lubm_workload() if args.workload == "lubm" else dblp_workload()
        queries.extend((entry.name, entry.query) for entry in entries)
    if not queries:
        print(
            "metrics-export needs at least one -q QUERY or --workload",
            file=sys.stderr,
        )
        return 2
    answered = skipped = 0
    for _ in range(max(1, args.repeat)):
        for _name, query in queries:
            try:
                answerer.answer(query, strategy=args.strategy, timeout_s=args.timeout)
                answered += 1
            except (ReformulationLimitExceeded, SearchInfeasible, EngineFailure):
                skipped += 1
    if args.format == "json":
        rendered = json.dumps(registry.snapshot(), indent=2) + "\n"
    else:
        rendered = registry.render_text()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as sink:
            sink.write(rendered)
    else:
        sys.stdout.write(rendered)
    print(f"# answered={answered} skipped={skipped}", file=sys.stderr)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: summarize a dataset."""
    database = _load_database(args.data)
    print(f"facts: {len(database)}")
    print(f"dictionary: {len(database.dictionary)} values {database.dictionary.stats()}")
    schema = database.schema
    print(
        f"schema: {len(schema)} constraints, {len(schema.classes)} classes, "
        f"{len(schema.properties)} properties"
    )
    from .rdf.vocabulary import RDF_TYPE

    type_code = database.dictionary.lookup(RDF_TYPE)
    if type_code is not None:
        print("class histogram (explicit assertions):")
        rows = database.table.match((None, type_code, None))
        import numpy as np

        classes, counts = np.unique(rows[:, 2], return_counts=True)
        histogram = sorted(
            zip(counts.tolist(), classes.tolist()), reverse=True
        )
        for count, cls in histogram[: args.top]:
            print(f"  {count:8d}  {database.dictionary.decode(cls)}")
    return 0


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Cost-based JUCQ reformulation for RDF"
    )
    commands = parser.add_subparsers(dest="command", required=True)

    generate = commands.add_parser("generate", help="emit a synthetic dataset")
    generate.add_argument("flavor", choices=("lubm", "dblp"))
    generate.add_argument("--universities", type=int, default=1)
    generate.add_argument("--publications", type=int, default=2000)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("-o", "--output", help="output file (default stdout)")
    generate.set_defaults(handler=cmd_generate)

    query = commands.add_parser("query", help="answer a query over a dataset")
    _add_query_arguments(query)
    _add_resilience_arguments(query)
    query.add_argument("--timeout", type=float, default=None, help="seconds")
    query.add_argument(
        "--trace", metavar="FILE", help="export a JSON-lines telemetry trace"
    )
    query.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="N",
        help="answer the query N times (with --cache, later runs are warm)",
    )
    query.set_defaults(handler=cmd_query)

    explain = commands.add_parser("explain", help="show the chosen reformulation")
    _add_query_arguments(explain)
    explain.add_argument("--sql", action="store_true", help="print generated SQL")
    explain.set_defaults(handler=cmd_explain)

    profile = commands.add_parser(
        "profile", help="answer a query with full telemetry output"
    )
    _add_query_arguments(profile)
    _add_resilience_arguments(profile)
    profile.add_argument("--timeout", type=float, default=None, help="seconds")
    profile.add_argument(
        "--trace", metavar="FILE", help="export a JSON-lines telemetry trace"
    )
    profile.set_defaults(handler=cmd_profile)

    lint = commands.add_parser(
        "lint", help="statically check queries against a dataset"
    )
    lint.add_argument("data", help="N-Triples file (constraints + facts)")
    lint.add_argument(
        "-q",
        "--query",
        action="append",
        default=[],
        help="SPARQL BGP text (repeatable)",
    )
    lint.add_argument(
        "--prefix",
        action="append",
        default=[],
        metavar="NAME=IRI",
        help="extra prefix declaration (repeatable)",
    )
    lint.add_argument(
        "--workload",
        choices=("lubm", "dblp"),
        help="also lint a bundled benchmark workload",
    )
    lint.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    lint.add_argument(
        "--statement-limit",
        type=int,
        default=DEFAULT_STATEMENT_LIMIT,
        help="engine statement limit for rule L109 (default: SQLite's 500)",
    )
    lint.add_argument(
        "--verbose", action="store_true", help="also show INFO-severity findings"
    )
    lint.set_defaults(handler=cmd_lint)

    analyze = commands.add_parser(
        "analyze", help="containment-based static analysis of queries"
    )
    analyze.add_argument("data", help="N-Triples file (constraints + facts)")
    analyze.add_argument(
        "-q",
        "--query",
        action="append",
        default=[],
        help="SPARQL BGP text (repeatable)",
    )
    analyze.add_argument(
        "--prefix",
        action="append",
        default=[],
        metavar="NAME=IRI",
        help="extra prefix declaration (repeatable)",
    )
    analyze.add_argument(
        "--workload",
        choices=("lubm", "dblp"),
        help="also analyze a bundled benchmark workload",
    )
    analyze.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    analyze.add_argument(
        "--term-limit",
        type=int,
        default=10_000,
        help="skip queries whose raw reformulation exceeds this many terms",
    )
    analyze.add_argument(
        "--statement-limit",
        type=int,
        default=DEFAULT_STATEMENT_LIMIT,
        help="engine statement limit for lint rule L109",
    )
    analyze.add_argument(
        "--verbose",
        action="store_true",
        help="show witness homomorphisms and INFO-severity findings",
    )
    analyze.set_defaults(handler=cmd_analyze)

    stats = commands.add_parser("stats", help="summarize a dataset")
    stats.add_argument("data", help="N-Triples file")
    stats.add_argument("--top", type=int, default=10, help="histogram rows")
    stats.set_defaults(handler=cmd_stats)

    cache_stats = commands.add_parser(
        "cache-stats", help="exercise the query cache and report hit rates"
    )
    cache_stats.add_argument("data", help="N-Triples file (constraints + facts)")
    cache_stats.add_argument(
        "-q", "--query", action="append", default=[], help="SPARQL BGP text (repeatable)"
    )
    cache_stats.add_argument(
        "--prefix",
        action="append",
        default=[],
        metavar="NAME=IRI",
        help="extra prefix declaration (repeatable)",
    )
    cache_stats.add_argument(
        "--workload",
        choices=("lubm", "dblp"),
        help="answer a bundled benchmark workload",
    )
    cache_stats.add_argument(
        "--strategy", choices=STRATEGIES, default="gcov", help="answering strategy"
    )
    cache_stats.add_argument(
        "--engine",
        choices=("native", "sqlite"),
        default="native",
        help="evaluation engine",
    )
    cache_stats.add_argument(
        "--repeat", type=int, default=2, metavar="N", help="answering passes (default 2)"
    )
    cache_stats.add_argument("--timeout", type=float, default=None, help="seconds")
    cache_stats.add_argument(
        "--limit",
        type=int,
        default=20_000,
        metavar="TERMS",
        help="skip queries whose reformulation exceeds this many union terms",
    )
    cache_stats.set_defaults(handler=cmd_cache_stats)

    metrics_export = commands.add_parser(
        "metrics-export",
        help="answer a workload, then dump the metrics registry (DESIGN.md §12)",
    )
    metrics_export.add_argument("data", help="N-Triples file (constraints + facts)")
    metrics_export.add_argument(
        "-q", "--query", action="append", default=[], help="SPARQL BGP text (repeatable)"
    )
    metrics_export.add_argument(
        "--prefix",
        action="append",
        default=[],
        metavar="NAME=IRI",
        help="extra prefix declaration (repeatable)",
    )
    metrics_export.add_argument(
        "--workload",
        choices=("lubm", "dblp"),
        help="answer a bundled benchmark workload",
    )
    metrics_export.add_argument(
        "--strategy", choices=STRATEGIES, default="gcov", help="answering strategy"
    )
    metrics_export.add_argument(
        "--engine",
        choices=("native", "sqlite"),
        default="native",
        help="evaluation engine",
    )
    metrics_export.add_argument(
        "--repeat", type=int, default=1, metavar="N", help="answering passes"
    )
    metrics_export.add_argument("--timeout", type=float, default=None, help="seconds")
    metrics_export.add_argument(
        "--limit",
        type=int,
        default=20_000,
        metavar="TERMS",
        help="skip queries whose reformulation exceeds this many union terms",
    )
    metrics_export.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="Prometheus-style text exposition or a JSON snapshot",
    )
    metrics_export.add_argument(
        "-o", "--output", help="write the export to a file (default stdout)"
    )
    metrics_export.set_defaults(handler=cmd_metrics_export)

    chaos = commands.add_parser(
        "chaos", help="differential fault-injection run (DESIGN.md §10)"
    )
    chaos.add_argument("data", help="N-Triples file (constraints + facts)")
    chaos.add_argument(
        "-q", "--query", action="append", default=[], help="SPARQL BGP text (repeatable)"
    )
    chaos.add_argument(
        "--prefix",
        action="append",
        default=[],
        metavar="NAME=IRI",
        help="extra prefix declaration (repeatable)",
    )
    chaos.add_argument(
        "--workload",
        choices=("lubm", "dblp"),
        help="answer a bundled benchmark workload",
    )
    chaos.add_argument(
        "--strategy", choices=STRATEGIES, default="gcov", help="first-choice strategy"
    )
    chaos.add_argument(
        "--engine",
        choices=("native", "sqlite"),
        default="native",
        help="evaluation engine (the saturation baseline stays clean)",
    )
    chaos.add_argument(
        "--seeds",
        default="0,1,2",
        metavar="S0,S1,...",
        help="comma-separated chaos seed matrix (default 0,1,2)",
    )
    chaos.add_argument(
        "--timeout-rate", type=float, default=0.3, help="injected-timeout probability"
    )
    chaos.add_argument(
        "--failure-rate", type=float, default=0.3, help="injected-failure probability"
    )
    chaos.add_argument(
        "--slow-rate", type=float, default=0.2, help="slow-operator probability"
    )
    chaos.add_argument(
        "--transient",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="injected faults classify transient (retry path) "
        "or permanent (straight-to-fallback path)",
    )
    chaos.add_argument(
        "--max-retries",
        type=int,
        default=1,
        help="transient retries per ladder rung",
    )
    chaos.add_argument(
        "--limit",
        type=int,
        default=20_000,
        metavar="TERMS",
        help="reformulation term limit (overruns degrade down the ladder)",
    )
    chaos.set_defaults(handler=cmd_chaos)

    serve = commands.add_parser(
        "serve",
        help="run the multi-tenant query service (DESIGN.md §14)",
    )
    serve.add_argument(
        "--data",
        action="append",
        metavar="NAME=PATH",
        help="serve an N-Triples file as dataset NAME (repeatable)",
    )
    serve.add_argument(
        "--lubm",
        type=int,
        metavar="N",
        help="also serve a synthetic N-university LUBM dataset as 'lubm'",
    )
    serve.add_argument(
        "--dblp",
        type=int,
        metavar="N",
        help="also serve a synthetic N-publication DBLP dataset as 'dblp'",
    )
    serve.add_argument("--seed", type=int, default=0, help="synthetic dataset seed")
    serve.add_argument("--engine", choices=("native", "sqlite"), default="native")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8425, help="listen port (0 = ephemeral)"
    )
    serve.add_argument(
        "--port-file",
        metavar="PATH",
        help="write the bound port here once listening (use with --port 0)",
    )
    serve.add_argument(
        "--workers", type=int, default=None, help="execution pool width"
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        help="max requests accepted but not yet executing (backpressure gate)",
    )
    serve.add_argument("--strategy", choices=STRATEGIES, default="gcov")
    serve.add_argument(
        "--direct",
        action="store_true",
        help="answer without the fallback ladder by default",
    )
    serve.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request wall-clock cap",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a drain waits for in-flight queries",
    )
    serve.add_argument(
        "--tenants",
        metavar="PATH",
        help="tenants.json with API keys and quotas (default: open single-tenant)",
    )
    serve.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="TERMS",
        help="reformulation term limit applied to every dataset",
    )
    serve.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a final registry snapshot (JSON) during drain",
    )
    serve.set_defaults(handler=cmd_serve)

    fleet = commands.add_parser(
        "fleet",
        help="run a supervised replicated serving fleet (DESIGN.md §15)",
    )
    fleet.add_argument(
        "--data",
        action="append",
        metavar="NAME=PATH",
        help="serve an N-Triples file as dataset NAME on every replica",
    )
    fleet.add_argument(
        "--lubm", type=int, metavar="N", help="serve a synthetic LUBM dataset"
    )
    fleet.add_argument(
        "--dblp", type=int, metavar="N", help="serve a synthetic DBLP dataset"
    )
    fleet.add_argument("--seed", type=int, default=0, help="synthetic dataset seed")
    fleet.add_argument("--engine", choices=("native", "sqlite"), default="native")
    fleet.add_argument("--strategy", choices=STRATEGIES, default="gcov")
    fleet.add_argument(
        "--replicas", type=int, default=3, metavar="N", help="replicas to launch"
    )
    fleet.add_argument(
        "--attach",
        action="append",
        metavar="URL",
        help="route across already-running replicas instead of launching "
        "(repeatable; disables supervision)",
    )
    fleet.add_argument("--host", default="127.0.0.1")
    fleet.add_argument(
        "--port", type=int, default=8426, help="router listen port (0 = ephemeral)"
    )
    fleet.add_argument(
        "--port-file",
        metavar="PATH",
        help="write the router's bound port here once listening",
    )
    fleet.add_argument(
        "--state-file",
        metavar="PATH",
        help="write fleet topology JSON (router + replica pids/ports) here",
    )
    fleet.add_argument(
        "--workdir",
        metavar="PATH",
        help="replica logs and port files land here (default: a tempdir)",
    )
    fleet.add_argument(
        "--workers", type=int, default=None, help="execution pool width per replica"
    )
    fleet.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="TERMS",
        help="reformulation term limit applied on every replica",
    )
    fleet.add_argument(
        "--tenants", metavar="PATH", help="tenants.json forwarded to every replica"
    )
    fleet.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-request wall-clock cap (routing budget)",
    )
    fleet.add_argument(
        "--max-attempts",
        type=int,
        default=4,
        help="routing attempts per request (first try included)",
    )
    fleet.add_argument(
        "--upstream-timeout",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="per-attempt upstream response deadline",
    )
    fleet.add_argument(
        "--no-hedge", action="store_true", help="disable hedged requests"
    )
    fleet.add_argument(
        "--hedge-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="fixed hedge delay (default: p95 of observed latency)",
    )
    fleet.add_argument(
        "--probe-interval",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="seconds between health-probe rounds",
    )
    fleet.add_argument(
        "--probe-timeout",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="per-probe deadline (slow probes count as failures)",
    )
    fleet.add_argument(
        "--fall",
        type=int,
        default=2,
        help="consecutive probe failures that mark a replica down",
    )
    fleet.add_argument(
        "--rise",
        type=int,
        default=2,
        help="consecutive probe successes that re-admit a replica",
    )
    fleet.add_argument(
        "--startup-timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="how long to wait for launched replicas to announce ports",
    )
    fleet.add_argument(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a drain waits for in-flight requests",
    )
    fleet.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a final registry snapshot (JSON) during drain",
    )
    fleet.set_defaults(handler=cmd_fleet)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    Maps every pipeline failure to a one-line stderr message and a
    distinct exit code (module docstring) — no command leaks a raw
    traceback for an expected failure mode.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except EngineTimeout as error:
        print(f"repro: timeout: {error}", file=sys.stderr)
        return EXIT_TIMEOUT
    except ResilienceError as error:
        print(f"repro: resilience: {error}", file=sys.stderr)
        return EXIT_RESILIENCE
    except EngineFailure as error:
        print(f"repro: engine failure: {error}", file=sys.stderr)
        return EXIT_ENGINE_FAILURE
    except (ReformulationLimitExceeded, SearchInfeasible) as error:
        print(f"repro: planning failed: {error}", file=sys.stderr)
        return EXIT_PLANNING


if __name__ == "__main__":
    raise SystemExit(main())
