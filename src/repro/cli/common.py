"""What the commands share: exit codes, the argument definitions (each
written once and attached where needed), and the dataset / query /
answerer plumbing."""

from __future__ import annotations

import argparse
from contextlib import contextmanager
from typing import Callable, Iterator, List, NamedTuple, Tuple

from ..answering import STRATEGIES, QueryAnswerer
from ..engine import Engine, NativeEngine, SQLiteEngine
from ..query import BGPQuery, parse_query
from ..rdf import read_ntriples
from ..service.http import positive_seconds
from ..storage import RDFDatabase

#: Exit codes for mapped failures (see the package docstring).
EXIT_CHAOS_MISMATCH = 3
EXIT_TIMEOUT = 4
EXIT_ENGINE_FAILURE = 5
EXIT_PLANNING = 6
EXIT_RESILIENCE = 7


class UsageError(Exception):
    """A command-line mistake: ``main`` prints the message, exits 2."""


# ----------------------------------------------------------------------
# Argument definitions
# ----------------------------------------------------------------------
class Arg:
    """One ``add_argument`` definition; :meth:`but` derives the variant
    a command needs (another help text, another default)."""

    def __init__(self, *flags: str, **spec):
        self.flags, self.spec = flags, spec

    def but(self, **changes) -> "Arg":
        return Arg(*self.flags, **{**self.spec, **changes})

    @property
    def dest(self) -> str:
        return self.flags[-1].lstrip("-").replace("-", "_")


class Command(NamedTuple):
    """One subcommand: its name, ``--help`` line, handler and arguments."""

    name: str
    help: str
    handler: Callable[[argparse.Namespace], int]
    args: tuple


def attach(parser: argparse.ArgumentParser, *args) -> None:
    """Register ``args`` (definitions, or groups of them) on ``parser``."""
    for arg in args:
        if isinstance(arg, Arg):
            parser.add_argument(*arg.flags, **arg.spec)
        else:
            attach(parser, *arg)


def seconds(text: str) -> float:
    """``--timeout``'s type: a float, checked as a request body's is."""
    return positive_seconds(float(text))


DATA = Arg("data", help="N-Triples file (constraints + facts)")
QUERY = Arg("-q", "--query", required=True, help="SPARQL BGP text")
QUERIES = Arg(
    "-q", "--query", action="append", default=[], help="SPARQL BGP text (repeatable)"
)
PREFIX = Arg(
    "--prefix",
    action="append",
    default=[],
    metavar="NAME=IRI",
    help="extra prefix declaration (repeatable)",
)
STRATEGY = Arg(
    "--strategy", choices=STRATEGIES, default="gcov", help="answering strategy"
)
ENGINE = Arg(
    "--engine", choices=("native", "sqlite"), default="native", help="evaluation engine"
)
TIMEOUT = Arg("--timeout", type=seconds, help="seconds")
TRACE = Arg("--trace", metavar="FILE", help="export a JSON-lines telemetry trace")
REPEAT = Arg("--repeat", type=int, default=1, metavar="N", help="answering passes")
LIMIT = Arg(
    "--limit",
    type=int,
    default=20_000,
    metavar="TERMS",
    help="skip queries whose reformulation exceeds this many union terms",
)
FORMAT = Arg(
    "--format", choices=("text", "json"), default="text", help="output format"
)
SEED = Arg("--seed", type=int, default=0)
OUTPUT = Arg("-o", "--output", help="output file (default stdout)")

#: ``query`` / ``explain`` / ``profile``: one query, one strategy.
ONE_QUERY = (
    DATA,
    QUERY,
    PREFIX,
    STRATEGY,
    ENGINE,
    Arg(
        "--verify-ir",
        action="store_true",
        help="assert IR well-formedness after each compilation stage "
        "(debug mode; see DESIGN.md §8)",
    ),
    Arg(
        "--cache",
        action="store_true",
        help="enable the multi-level query cache (DESIGN.md §9); "
        "cache counters appear in the metrics output",
    ),
)
#: ``query`` / ``profile``: the ladder and the budget caps.
RESILIENCE = (
    Arg(
        "--fallback",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="answer through the strategy-fallback ladder "
        "(gcov -> scq -> pruned-ucq -> saturation; DESIGN.md §10)",
    ),
    Arg(
        "--budget-rows",
        type=int,
        metavar="N",
        help="cap intermediate and result relations at N rows",
    ),
    Arg(
        "--max-union-terms",
        type=int,
        metavar="N",
        help="reject reformulations over N total union terms",
    ),
    TIMEOUT,
    TRACE,
)


def many_queries(verb: str = "answer") -> tuple:
    """``-q`` (repeatable) and/or a bundled workload over one dataset."""
    workload = Arg(
        "--workload",
        choices=("lubm", "dblp"),
        help=f"{verb} a bundled benchmark workload",
    )
    return (DATA, QUERIES, PREFIX, workload)


# ----------------------------------------------------------------------
# Datasets and queries
# ----------------------------------------------------------------------
def load_database(path: str) -> RDFDatabase:
    with open(path, "r", encoding="utf-8") as source:
        return RDFDatabase.from_triples(read_ntriples(source))


def render_prefixes(prefixes: List[str]) -> str:
    """The ``--prefix NAME=IRI`` flags as SPARQL ``PREFIX`` declarations."""
    declarations = []
    for declaration in prefixes:
        name, _, iri = declaration.partition("=")
        if not iri:
            raise SystemExit(f"bad --prefix {declaration!r}; expected NAME=IRI")
        declarations.append(f"PREFIX {name}: <{iri}> ")
    return "".join(declarations)


def workload_queries(args: argparse.Namespace) -> List[Tuple[str, BGPQuery]]:
    """The ``(name, query)`` entries of the ``--workload``, if one is named."""
    workload = getattr(args, "workload", None)
    if not workload:
        return []
    from ..datasets import dblp_workload, lubm_workload

    entries = lubm_workload() if workload == "lubm" else dblp_workload()
    return [(entry.name, entry.query) for entry in entries]


def require_queries(args: argparse.Namespace, queries) -> None:
    if not queries:
        raise UsageError(f"{args.command} needs at least one -q QUERY or --workload")


def collect_queries(args: argparse.Namespace) -> List[Tuple[str, BGPQuery]]:
    """Every query the flags name, as ``(name, query)``: the ``-q`` texts
    (``q1``, ``q2``, …) under the validated prefixes, then the workload.

    A malformed ``-q`` raises :class:`~repro.query.parser.SPARQLSyntaxError`,
    which ``main`` reports as a usage error.
    """
    declarations = render_prefixes(args.prefix)
    texts = [args.query] if isinstance(args.query, str) else args.query
    queries = [
        (f"q{index + 1}", parse_query(declarations + text))
        for index, text in enumerate(texts)
    ]
    queries += workload_queries(args)
    require_queries(args, queries)
    return queries


# ----------------------------------------------------------------------
# Answering
# ----------------------------------------------------------------------
@contextmanager
def open_answerer(
    database: RDFDatabase, args: argparse.Namespace, wrap=None, **options
) -> Iterator[QueryAnswerer]:
    """An answerer over the ``--engine`` the flags chose, with ``--limit``
    and ``--verify-ir`` applied when the command has them; closes what it
    opened.  ``wrap`` decorates the engine (chaos); ``options`` go to
    :class:`QueryAnswerer` (``cache=``, ``registry=``, ``fallback=``).
    """
    engine: Engine = (
        SQLiteEngine(database) if args.engine == "sqlite" else NativeEngine(database)
    )
    answerer = QueryAnswerer(
        database,
        engine=engine if wrap is None else wrap(engine),
        verify_ir=getattr(args, "verify_ir", False),
        **options,
    )
    if getattr(args, "limit", None) is not None:
        answerer.reformulator.limit = args.limit
    try:
        yield answerer
    finally:
        answerer.close()
        if isinstance(engine, SQLiteEngine):
            engine.close()
