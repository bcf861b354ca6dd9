"""``repro cache-stats``, ``repro metrics-export`` and ``repro chaos``:
answer a set of queries, then report on what the run exercised."""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

from ..answering import QueryAnswerer
from ..cache import QueryCache
from ..engine import EngineFailure
from ..optimizer import SearchInfeasible
from ..reformulation.reformulate import ReformulationLimitExceeded
from ..resilience import (
    ChaosConfig,
    ChaosEngine,
    ExecutionBudget,
    FallbackPolicy,
    ResilienceError,
)
from ..telemetry import MetricsRegistry, set_registry
from .common import (
    ENGINE,
    EXIT_CHAOS_MISMATCH,
    FORMAT,
    LIMIT,
    OUTPUT,
    REPEAT,
    STRATEGY,
    TIMEOUT,
    Arg,
    Command,
    UsageError,
    collect_queries,
    load_database,
    many_queries,
    open_answerer,
)

#: What "this query cannot be answered under this strategy" raises.
SKIPPABLE = (ReformulationLimitExceeded, SearchInfeasible, EngineFailure)


def cmd_cache_stats(args: argparse.Namespace) -> int:
    """``repro cache-stats``: exercise the query cache and report hit rates.

    Answers a workload (or explicit ``-q`` queries) ``--repeat`` times
    through a cache-enabled answerer, timing each pass, then prints the
    per-level cache statistics.  The first pass is cold; later passes
    show the warm-cache optimize-time drop (the ISSUE's headline
    number).  Queries whose reformulation exceeds ``--limit`` union
    terms are skipped, so huge workload entries don't dominate.
    """
    queries = collect_queries(args)
    budget = ExecutionBudget(timeout_s=args.timeout)
    cache = QueryCache()
    with open_answerer(load_database(args.data), args, cache=cache) as answerer:
        skipped = set()
        for iteration in range(max(1, args.repeat)):
            optimize_s = evaluate_s = 0.0
            answered = 0
            for name, query in queries:
                if name in skipped:
                    continue
                try:
                    report = answerer.answer(
                        query, strategy=args.strategy, budget=budget
                    )
                except SKIPPABLE:
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


def cmd_metrics_export(args: argparse.Namespace) -> int:
    """``repro metrics-export``: run a workload, dump the registry.

    Answers the given queries (or bundled workload) through a fresh
    :class:`~repro.telemetry.MetricsRegistry` installed as the process
    default — so the answerer's gauges *and* the engines' call-time
    histograms all land in one place — then emits every instrument as
    Prometheus-style text exposition or a JSON snapshot.
    """
    queries = collect_queries(args)
    budget = ExecutionBudget(timeout_s=args.timeout)
    registry = MetricsRegistry()
    set_registry(registry)
    answered = skipped = 0
    with open_answerer(
        load_database(args.data), args, cache=QueryCache(), registry=registry
    ) as answerer:
        for _ in range(max(1, args.repeat)):
            for _name, query in queries:
                try:
                    answerer.answer(query, strategy=args.strategy, budget=budget)
                    answered += 1
                except SKIPPABLE:
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
    queries = collect_queries(args)
    try:
        seeds = [int(seed) for seed in args.seeds.split(",") if seed.strip()]
    except ValueError:
        raise UsageError(f"bad --seeds {args.seeds!r}; expected e.g. 0,1,2") from None
    database = load_database(args.data)

    # Clean saturation baselines, computed once and shared by each seed.
    with open_answerer(database, args) as clean:
        baselines = {
            name: clean.answer(query, strategy="saturation").answers
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

        with open_answerer(
            database, args, wrap=partial(ChaosEngine, config=config), fallback=policy
        ) as answerer:
            chaos = answerer.engine
            chaos.sleeper = lambda _s: None
            degraded = 0
            for name, query in queries:
                try:
                    report = answerer.answer_resilient(query, strategy=args.strategy)
                except ResilienceError as error:
                    unrecovered.append(
                        (seed, name, f"{type(error).__name__}: {error}")
                    )
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


CACHE_STATS = Command(
    "cache-stats",
    "exercise the query cache and report hit rates",
    cmd_cache_stats,
    (
        many_queries(),
        STRATEGY,
        ENGINE,
        REPEAT.but(default=2, help="answering passes (default 2)"),
        TIMEOUT,
        LIMIT,
    ),
)
METRICS_EXPORT = Command(
    "metrics-export",
    "answer a workload, then dump the metrics registry (DESIGN.md §12)",
    cmd_metrics_export,
    (
        many_queries(),
        STRATEGY,
        ENGINE,
        REPEAT,
        TIMEOUT,
        LIMIT,
        FORMAT.but(help="Prometheus-style text exposition or a JSON snapshot"),
        OUTPUT.but(help="write the export to a file (default stdout)"),
    ),
)
CHAOS = Command(
    "chaos",
    "differential fault-injection run (DESIGN.md §10)",
    cmd_chaos,
    (
        many_queries(),
        STRATEGY.but(help="first-choice strategy"),
        ENGINE.but(help="evaluation engine (the saturation baseline stays clean)"),
        Arg(
            "--seeds",
            default="0,1,2",
            metavar="S0,S1,...",
            help="comma-separated chaos seed matrix (default 0,1,2)",
        ),
        Arg("--timeout-rate", type=float, default=0.3, help="injected-timeout probability"),
        Arg("--failure-rate", type=float, default=0.3, help="injected-failure probability"),
        Arg("--slow-rate", type=float, default=0.2, help="slow-operator probability"),
        Arg(
            "--transient",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="injected faults classify transient (retry path) "
            "or permanent (straight-to-fallback path)",
        ),
        Arg("--max-retries", type=int, default=1, help="transient retries per ladder rung"),
        LIMIT.but(help="reformulation term limit (overruns degrade down the ladder)"),
    ),
)
