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

``fleet``
    Run N supervised ``serve`` replicas behind one routing front door
    (DESIGN.md §15): health-probed failover, bounded retries, hedged
    tail requests, crash-restart supervision.

Failures map to distinct exit codes instead of tracebacks: 2 usage /
malformed query / IR verification, 3 chaos mismatch, 4 timeout,
5 engine failure, 6 planning infeasible, 7 resilience exhausted.

The package: :mod:`.common` holds every shared argument definition and
the dataset / query / answerer plumbing; one module per family of
commands (:mod:`.offline`, :mod:`.answer`, :mod:`.workload`,
:mod:`.serving`) holds the handlers and each
command's :class:`~.common.Command` row; this module assembles them.

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
import sys
from typing import List, Optional

from ..analysis import IRVerificationError
from ..engine import EngineFailure, EngineTimeout
from ..optimizer import SearchInfeasible
from ..query.parser import SPARQLSyntaxError
from ..reformulation.reformulate import ReformulationLimitExceeded
from ..resilience import ResilienceError
from . import answer, offline, serving, workload
from .common import (
    EXIT_CHAOS_MISMATCH,
    EXIT_ENGINE_FAILURE,
    EXIT_PLANNING,
    EXIT_RESILIENCE,
    EXIT_TIMEOUT,
    UsageError,
    attach,
)

__all__ = [
    "EXIT_CHAOS_MISMATCH",
    "EXIT_ENGINE_FAILURE",
    "EXIT_PLANNING",
    "EXIT_RESILIENCE",
    "EXIT_TIMEOUT",
    "build_parser",
    "main",
]

#: The subcommands, in ``--help`` order.
COMMANDS = (
    offline.GENERATE,
    answer.QUERY,
    answer.EXPLAIN,
    answer.PROFILE,
    offline.LINT,
    offline.ANALYZE,
    offline.STATS,
    workload.CACHE_STATS,
    workload.METRICS_EXPORT,
    workload.CHAOS,
    serving.SERVE,
    serving.FLEET,
)


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Cost-based JUCQ reformulation for RDF"
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        subparser = commands.add_parser(command.name, help=command.help)
        attach(subparser, *command.args)
        subparser.set_defaults(handler=command.handler)
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
    except UsageError as error:
        print(error, file=sys.stderr)
        return 2
    except SPARQLSyntaxError as error:
        print(f"repro: bad query: {error}", file=sys.stderr)
        return 2
    except IRVerificationError as error:
        print("# IR verification FAILED:", file=sys.stderr)
        for diagnostic in error.diagnostics:
            print(f"#   {diagnostic.format()}", file=sys.stderr)
        return 2
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
