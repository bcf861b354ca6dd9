"""The commands that need no engine: ``repro generate`` and ``repro
stats`` (make a dataset, summarize one), ``repro lint`` and ``repro
analyze`` (static checks; nothing is evaluated)."""

from __future__ import annotations

import argparse
import json
import sys

from ..analysis.lint import format_report, lint_query, lint_text
from ..datasets import DBLPGenerator, DBLPProfile, LUBMGenerator, dblp_schema, lubm_schema
from ..rdf import write_ntriples
from ..reformulation import Reformulator
from ..reformulation.reformulate import ReformulationLimitExceeded, reformulate
from .common import (
    DATA,
    FORMAT,
    OUTPUT,
    SEED,
    Arg,
    Command,
    collect_queries,
    load_database,
    many_queries,
    render_prefixes,
    require_queries,
    workload_queries,
)

#: SQLite's compile-time compound-select limit: the strictest statement
#: limit among the engines, used as the lint's default for rule L109.
DEFAULT_STATEMENT_LIMIT = 500


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


def cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats``: summarize a dataset."""
    database = load_database(args.data)
    print(f"facts: {len(database)}")
    print(f"dictionary: {len(database.dictionary)} values {database.dictionary.stats()}")
    schema = database.schema
    print(
        f"schema: {len(schema)} constraints, {len(schema.classes)} classes, "
        f"{len(schema.properties)} properties"
    )
    from ..rdf.vocabulary import RDF_TYPE

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


STATEMENT_LIMIT = Arg(
    "--statement-limit",
    type=int,
    default=DEFAULT_STATEMENT_LIMIT,
    help="engine statement limit for lint rule L109",
)
VERBOSE = Arg(
    "--verbose", action="store_true", help="also show INFO-severity findings"
)


def _print_json(reports: list, failed: int) -> None:
    print(
        json.dumps(
            {"queries": len(reports), "failed": failed, "reports": reports}, indent=2
        )
    )


def cmd_lint(args: argparse.Namespace) -> int:
    """``repro lint``: statically check queries against a dataset.

    Lints the ``-q`` queries (repeatable) and/or a bundled benchmark
    workload; prints rule-coded diagnostics (text or JSON) and exits
    non-zero when any error-severity finding fires.  The ``-q`` texts
    go to ``lint_text`` unparsed: a malformed one is diagnostic L100,
    not a usage error.
    """
    require_queries(args, args.query or args.workload)
    declarations = render_prefixes(args.prefix)
    database = load_database(args.data)
    checks = dict(
        database=database,
        reformulator=Reformulator(database.schema),
        max_operand_terms=args.statement_limit,
    )
    reports = [
        lint_text(declarations + text, name=f"q{index + 1}", **checks)
        for index, text in enumerate(args.query)
    ]
    for name, query in workload_queries(args):
        report = lint_query(query, **checks)
        report.query_name = name
        reports.append(report)
    failed = sum(1 for report in reports if not report.ok)
    if args.format == "json":
        _print_json([report.to_dict() for report in reports], failed)
    else:
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
    from ..analysis.containment import minimization_summary, minimize_ucq
    from ..analysis.verifier import check_minimization

    targets = collect_queries(args)
    database = load_database(args.data)
    reformulator = Reformulator(database.schema)
    failed = 0
    rows = []
    reports = []
    for name, query in targets:
        query.name = name
        row: dict = {"query": name}
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
        _print_json(rows, failed)
        return 1 if failed else 0
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


GENERATE = Command(
    "generate",
    "emit a synthetic dataset",
    cmd_generate,
    (
        Arg("flavor", choices=("lubm", "dblp")),
        Arg("--universities", type=int, default=1),
        Arg("--publications", type=int, default=2000),
        SEED,
        OUTPUT,
    ),
)
STATS = Command(
    "stats",
    "summarize a dataset",
    cmd_stats,
    (
        DATA.but(help="N-Triples file"),
        Arg("--top", type=int, default=10, help="histogram rows"),
    ),
)
LINT = Command(
    "lint",
    "statically check queries against a dataset",
    cmd_lint,
    (
        many_queries("also lint"),
        FORMAT,
        STATEMENT_LIMIT.but(
            help="engine statement limit for rule L109 (default: SQLite's 500)"
        ),
        VERBOSE,
    ),
)
ANALYZE = Command(
    "analyze",
    "containment-based static analysis of queries",
    cmd_analyze,
    (
        many_queries("also analyze"),
        FORMAT,
        Arg(
            "--term-limit",
            type=int,
            default=10_000,
            help="skip queries whose raw reformulation exceeds this many terms",
        ),
        STATEMENT_LIMIT,
        VERBOSE.but(help="show witness homomorphisms and INFO-severity findings"),
    ),
)
