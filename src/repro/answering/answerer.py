"""The public query-answering API.

:class:`QueryAnswerer` ties everything together (the paper's Figure 1
pipeline): given a BGP query it produces a reformulation under one of
the strategies of :mod:`repro.answering.strategies` (one table row
each: how the query is rewritten, which store the plan runs on), hands
it to an evaluation engine, and reports both the answers and the time
split between optimization and evaluation.  :meth:`QueryAnswerer.answer`
is the pipeline, in stages: start the budget and take the snapshot →
plan through the cache → verify → union budget → the engine over the
row's store → evaluate → report.  No stage compares strategy names,
every stage reads the one snapshot taken at the door, and a derived
store is derived at it at most once, by the first stage that reads it.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..cache.lru import LRUCache
from ..cache.manager import QueryCache
from ..cost.model import CostModel
from ..engine.budget import UNLIMITED, ExecutionBudget
from ..engine.evaluator import AnswerSet, Engine, NativeEngine
from ..optimizer.search import SearchInfeasible
from ..query.algebra import JUCQ
from ..query.bgp import BGPQuery
from ..query.parser import PARSE_MEMO
from ..reformulation.reformulate import ReformulationLimitExceeded, Reformulator
from ..resilience.errors import (
    RECOVERABLE,
    AllStrategiesFailed,
    BudgetExhausted,
    UnionBudgetExceeded,
    classify,
    describe_failures,
    is_transient,
)
from ..resilience.fallback import AttemptRecord, CircuitBreaker, FallbackPolicy
from ..storage.database import RDFDatabase, Snapshot
from ..telemetry import (
    NULL_TRACER,
    MetricsRecorder,
    MetricsRegistry,
    Span,
    accuracy_sample,
    get_registry,
)
from ..telemetry.registry import Histogram
from .stores import DerivedStoreHolder
from .strategies import STRATEGIES, STRATEGY_TABLE, Derived, Strategy, strategy_named

__all__ = ["STRATEGIES", "AnswerReport", "QueryAnswerer"]


@dataclass
class AnswerReport:
    """Answers plus the per-phase accounting the benchmarks report.

    Everything else an answer can tell — operator counters, the plan
    cache's hit or miss, cost-model accuracy samples — is on its trace
    (DESIGN.md §7), and only a traced answer records it.
    """

    query: BGPQuery
    strategy: str
    answers: AnswerSet
    optimization_s: float
    evaluation_s: float
    reformulation_terms: int
    cover: Optional[frozenset] = None
    covers_explored: int = 0
    #: The strategy whose answers these actually are.  Equal to
    #: ``strategy`` for a direct :meth:`QueryAnswerer.answer` call; the
    #: rung that finally succeeded for a resilient one.
    strategy_used: Optional[str] = None
    #: Per-rung attempt records of a resilient call (empty otherwise).
    attempts: List[AttemptRecord] = field(default_factory=list)
    #: True when the answer did not come from the first attempt of the
    #: first-choice strategy (a retry or a fallback happened).
    degraded: bool = False

    @property
    def total_s(self) -> float:
        """Answering time: optimization + evaluation.

        Parsing is *not* included — the answerer receives an
        already-parsed :class:`~repro.query.bgp.BGPQuery`, so parse time
        belongs to the caller (the CLI reports it separately).
        """
        return self.optimization_s + self.evaluation_s

    @property
    def answer_count(self) -> int:
        """Number of distinct answers."""
        return len(self.answers)


class QueryAnswerer:
    """Answer BGP queries over an RDF database, with pluggable strategy."""

    def __init__(
        self,
        database: RDFDatabase,
        engine: Optional[Engine] = None,
        cost_model: Optional[CostModel] = None,
        reformulator: Optional[Reformulator] = None,
        ecov_max_covers: int = 100_000,
        verify_ir: bool = False,
        cache: Optional[QueryCache] = None,
        fallback: Optional[FallbackPolicy] = None,
        registry: Optional[MetricsRegistry] = None,
    ):
        self.database = database
        self.engine: Engine = engine if engine is not None else NativeEngine(database)
        self.cost_model = (
            cost_model if cost_model is not None else CostModel(database)
        )
        self.reformulator = (
            reformulator if reformulator is not None else Reformulator(database.schema)
        )
        #: Budget after which the exhaustive strategy declares the cover
        #: space infeasible (the paper's ECov on the 10-atom DBLP Q10).
        self.ecov_max_covers = ecov_max_covers
        #: Debug mode: assert IR well-formedness after each compilation
        #: stage (DESIGN.md §8); raises
        #: :class:`repro.analysis.IRVerificationError` on corruption.
        self.verify_ir = verify_ir
        #: The derived stores (DESIGN.md §20): strategy -> the holder of
        #: its store and the engine over it, one per row that derives.
        #: The answerer owns their engines (see ``close``).
        self.derived_stores: Dict[str, DerivedStoreHolder] = {
            row.name: DerivedStoreHolder(row.derives, database, self.engine)
            for row in STRATEGY_TABLE.values()
            if row.derives is not None
        }
        #: The e2e benchmark's name for the interval-encoded store's holder.
        self.interval_assigner = self.derived_stores["litemat"]
        #: Multi-level query cache (DESIGN.md §9).  None disables plan
        #: caching entirely; when set, the process's parse memo, the
        #: reformulator's memo and the engine's SQL cache (if any) are
        #: registered for unified stats.  The plan cache is also the
        #: memo of ``litemat``'s interval plans (DESIGN.md §16).
        self.cache = cache
        if cache is not None:
            cache.register("parse", PARSE_MEMO)
            cache.register("reformulation", self.reformulator.cache)
            engine_sql_cache = getattr(self.engine, "sql_cache", None)
            if engine_sql_cache is not None:
                cache.register("sql", engine_sql_cache)
        #: Default :class:`~repro.resilience.FallbackPolicy` for
        #: :meth:`answer_resilient`; a stock policy when unset.
        self.fallback = fallback
        #: Counters for the resilience layer (attempts, retries,
        #: fallbacks, degradations, breaker activity) — monotone over
        #: the answerer's lifetime and exported through the registry;
        #: one call's own trail is its report's ``attempts``.
        self.resilience_metrics = MetricsRecorder()
        self._breaker: Optional[CircuitBreaker] = None
        #: strategy -> its (optimize, evaluate) latency histograms.
        self._latency: Dict[str, Tuple[Histogram, Histogram]] = {}
        #: Guards the lazily built default breaker against duplicate
        #: construction when concurrent callers share one answerer.
        self._lock = threading.Lock()
        #: Process-lifetime instrument registry (DESIGN.md §12): answer
        #: latency histograms plus runtime-state gauges.  Defaults to
        #: the process-wide registry so ``repro metrics-export`` (and a
        #: future ``/metrics`` endpoint) sees this answerer.
        self.registry = registry if registry is not None else get_registry()
        self._bind_instruments()

    def _bind_instruments(self) -> None:
        """Register runtime-state gauges on the instrument registry.

        Registration is replace-by-name: the most recently built
        answerer owns the gauge names (the common case is exactly one
        long-lived answerer per process).  Callbacks read live state at
        export time, so the gauges are always current — including the
        circuit breaker, which reports all-zero counts until its lazy
        construction.
        """
        registry = self.registry
        registry.register_gauge(
            "repro.reformulator.memo_size",
            lambda: len(self.reformulator.cache),
            help="entries in the reformulator's CQ->UCQ memo",
        )
        pool_size = getattr(self.engine, "pool_size", None)
        registry.register_gauge(
            "repro.engine.connection_pool_size",
            (lambda: 0) if pool_size is None else pool_size,
            labels={"engine": self.engine.name},
            help="open per-thread engine connections (SQLite pool)",
        )
        registry.register_multi_gauge(
            "repro.cache.size",
            "level",
            lambda: (
                {}
                if self.cache is None
                else {name: len(c) for name, c in self.cache.levels.items()}
            ),
            help="entries per query-cache level",
        )
        registry.register_multi_gauge(
            "repro.breaker.circuits",
            "state",
            lambda: (
                {"closed": 0, "open": 0, "half-open": 0}
                if self._breaker is None
                else self._breaker.state_counts()
            ),
            help="tracked fallback circuits by state",
        )
        # Counter keys already carry the "resilience." prefix, so this
        # exports e.g. ``repro.resilience.attempts``.
        registry.register_counters(
            "repro",
            lambda: self.resilience_metrics.as_dict()["counters"],
        )
        registry.register_counters(
            "repro.cache.parse",
            lambda: {
                "hits": PARSE_MEMO.hits,
                "misses": PARSE_MEMO.misses,
                "evictions": PARSE_MEMO.evictions,
            },
        )
        # The reformulator's minimization-pass counters carry an
        # "analysis." key prefix; strip it here so they export as
        # ``repro.analysis.terms_eliminated`` etc. without colliding
        # with the "repro"-prefixed resilience source above.
        registry.register_counters(
            "repro.analysis",
            lambda: {
                name.partition(".")[2] or name: value
                for name, value in self.reformulator.analysis_counters.items()
            },
        )

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def plan(
        self,
        query: BGPQuery,
        strategy: str = "gcov",
        tracer=None,
        budget: ExecutionBudget = UNLIMITED,
    ):
        """The JUCQ a strategy would evaluate (no execution).

        Returns ``(planned_jucq, search_result_or_None)``.  When a
        live ``tracer`` is given, planning is wrapped in a ``plan`` span
        (with the plan cache's outcome) over the
        ``reformulate``/``cover-search`` spans, and the cover search's
        exploration trajectory is attached as a ``search`` record.
        Under IR verification the input query and the produced
        reformulation, down to the templates the native engine runs,
        are checked by the IR verifier (:mod:`repro.analysis`).  A
        ``budget`` threads the shared answer-wide deadline into the
        cover searches.
        """
        if self.verify_ir:
            from ..analysis.verifier import verify_bgp

            verify_bgp(query)
        row = strategy_named(strategy)
        planned, search = self._plan_cached(
            row,
            query,
            NULL_TRACER if tracer is None else tracer,
            budget,
            Derived(self.database.snapshot(), self.derived_stores.get(row.name)),
        )
        if self.verify_ir:
            self._verify(query, planned, search)
        return planned, search

    def _verify(self, query: BGPQuery, planned: JUCQ, search, database=None) -> None:
        """The verify stage: assert the compiled IR (DESIGN.md §8); with
        a ``database``, down to the generated SQL."""
        from ..analysis.verifier import verify_pipeline

        verify_pipeline(
            query,
            planned,
            cover=None if search is None else search.cover,
            database=database,
        )

    def _plan_cached(
        self,
        row: Strategy,
        query: BGPQuery,
        tracer,
        budget: ExecutionBudget,
        derived: Derived,
    ):
        """Plan-cache wrapper around :meth:`Strategy.plan` (DESIGN.md §9).

        Entries are keyed by (query fingerprint, strategy, the part of
        the snapshot the plan reads: :meth:`QueryCache.plan_key`), so a
        schema edit re-keys every plan, a data write re-keys only the
        plans that read the data or whose statistics generation it
        moved, and a stale plan is never served.  Planning
        *failures* (reformulation-limit overruns, infeasible cover
        searches) are memoized too, frozen by :meth:`LRUCache.memo`, so
        a query that cannot be planned fails fast on every retry.  A
        strategy that does not rewrite plans to the query itself (its
        one-term JUCQ), so
        there is nothing worth caching.  Nothing is *stored* when the
        budget has expired by the time planning returns: the budget is
        not part of the key, and a plan truncated (or a failure caused)
        by one caller's spent clock must not be served to the next
        caller.  Planning reads the budget only through
        ``budget.expired`` and the clock is monotone, so a budget still
        running then did not shape the plan, and it is stored.

        Planning runs inside the ``plan`` span, whose ``cached`` says
        whether the cache served this call's plan (or failure).
        """
        with tracer.span("plan", strategy=row.name) as span:
            if self.cache is None or row.rewrite is None:
                span.set(cached=False)
                return row.plan(self, query, tracer, budget, derived)
            # Served unless planning runs: ``memo`` raises a memoized
            # failure before it could report the hit.
            span.set(cached=True)

            def plan():
                span.set(cached=False)
                return row.plan(self, query, tracer, budget, derived)

            return self.cache.plans.memo(
                self.cache.plan_key(derived.snapshot, query, row.name),
                plan,
                (ReformulationLimitExceeded, SearchInfeasible),
                keep=lambda: not budget.expired,
            )[0]

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def answer(
        self,
        query: BGPQuery,
        strategy: str = "gcov",
        tracer=None,
        budget: ExecutionBudget = UNLIMITED,
    ) -> AnswerReport:
        """Answer ``query`` under ``strategy``; see :class:`AnswerReport`.

        ``tracer`` is this call's record (none by default).  A live one
        gets the spans, the plan cache's outcome on the ``plan`` span,
        the engine's operator counters on the ``evaluate`` span, and
        predicted-vs-observed (cost, cardinality) ``accuracy`` records,
        which need extra estimator calls.  Without one the engine gets
        ``metrics=None`` and nothing per answer is counted.  Under IR
        verification every compilation stage — input query, cover,
        JUCQ, the engine's templates, generated SQL — is asserted by the
        IR verifier before evaluation starts.

        State: the database's snapshot is taken here, once, and every
        stage reads it, so the answers are those of that state whatever
        writes or schema edits land while the call runs (DESIGN.md §9).

        Limits: ``budget`` (:class:`~repro.resilience.ExecutionBudget`,
        unlimited by default) is started here unless the caller already
        started it, and the one started budget threads the *same*
        deadline through planning (cover searches) and evaluation; its
        union/row caps tighten the engine profile's own limits.
        Failures keep their raw types
        (:class:`~repro.engine.evaluator.EngineTimeout`,
        :class:`~repro.engine.evaluator.EngineFailure`, planning
        errors); classification and recovery live in
        :meth:`answer_resilient`.
        """
        tracer = NULL_TRACER if tracer is None else tracer
        budget = budget.start()
        snapshot = self.database.snapshot()
        row = strategy_named(strategy)
        metrics = MetricsRecorder() if tracer.enabled else None
        with tracer.span("answer", query=query.name, strategy=strategy) as root:
            start = time.perf_counter()
            derived = Derived(snapshot, self.derived_stores.get(row.name))
            planned, search = self._plan_cached(row, query, tracer, budget, derived)
            if self.verify_ir:
                with tracer.span("verify-ir"):
                    self._verify(query, planned, search, database=self.database)
            terms = 0 if row.rewrite is None else planned.total_union_terms()
            if budget.max_union_terms is not None and terms > budget.max_union_terms:
                raise UnionBudgetExceeded(
                    f"{strategy} reformulation of {query.name} has "
                    f"{terms} union terms, over the budget's "
                    f"max_union_terms={budget.max_union_terms}"
                )
            optimization_s = time.perf_counter() - start
            engine = (
                self.engine if derived.holder is None else derived.derivation().engine
            )
            start = time.perf_counter()
            with tracer.span("evaluate", engine=engine.name) as eval_span:
                if metrics is not None:
                    # The recorder's own dict: it fills as the engine runs.
                    eval_span.set(counters=metrics.counters)
                # A derived store is never written: its engine reads it as is.
                answers = engine.evaluate(
                    planned,
                    tracer=tracer,
                    metrics=metrics,
                    budget=budget,
                    snapshot=snapshot if derived.holder is None else None,
                )
                eval_span.set(answers=len(answers))
            evaluation_s = time.perf_counter() - start
            root.set(answers=len(answers))
        optimize_seconds, evaluate_seconds = self._latency_histograms(strategy)
        optimize_seconds.observe(optimization_s)
        evaluate_seconds.observe(evaluation_s)
        # The cost model is bound to the base store: a plan that ran on
        # a derived one has no meaningful prediction to compare.
        if tracer.enabled and derived.holder is None:
            self._record_accuracy(
                tracer, query, planned, eval_span, evaluation_s, len(answers), snapshot
            )
        return AnswerReport(
            query=query,
            strategy=strategy,
            answers=answers,
            optimization_s=optimization_s,
            evaluation_s=evaluation_s,
            reformulation_terms=terms,
            cover=None if search is None else search.cover,
            covers_explored=0 if search is None else search.covers_explored,
            strategy_used=strategy,
        )

    def _latency_histograms(self, strategy: str) -> Tuple[Histogram, Histogram]:
        """The (optimize, evaluate) histograms of one strategy, bound on
        its first finished answer and kept: no registry lookup per call."""
        bound = self._latency.get(strategy)
        if bound is None:
            bound = self._latency[strategy] = (
                self.registry.histogram(
                    "repro.answer.optimize_seconds",
                    labels={"strategy": strategy},
                    help="per-answer optimization (planning) time",
                ),
                self.registry.histogram(
                    "repro.answer.evaluate_seconds",
                    labels={"strategy": strategy},
                    help="per-answer evaluation time",
                ),
            )
        return bound

    def answer_resilient(
        self,
        query: BGPQuery,
        strategy: Optional[str] = None,
        policy: Optional[FallbackPolicy] = None,
        budget: ExecutionBudget = UNLIMITED,
        tracer=None,
    ) -> AnswerReport:
        """:meth:`answer` behind the strategy-fallback ladder.

        Walks ``policy.ladder`` starting from ``strategy`` (default: the
        ladder's head).  Per rung: the circuit breaker may skip it
        outright; a *transient* fault (chaos-injected blips standing in
        for real-world hiccups) is retried up to ``policy.max_retries``
        times with exponential backoff; a *permanent* fault moves to the
        next rung.  All attempts drain the one shared ``budget``.

        The returned report is the succeeding rung's, annotated with
        ``strategy_used``, the full ``attempts`` trail and ``degraded``
        (True unless the first rung succeeded on its first try); the
        ``fallback`` span carries the same three.  Raises
        :class:`~repro.resilience.BudgetExhausted` when the clock runs
        out between attempts and
        :class:`~repro.resilience.AllStrategiesFailed` when the ladder
        is exhausted, both carrying the attempt records.  Non-pipeline
        errors (programming bugs, IR verification failures) propagate
        immediately.
        """
        policy = policy if policy is not None else self.fallback
        if policy is None:
            policy = FallbackPolicy()
        breaker = policy.breaker if policy.breaker is not None else self._default_breaker()
        tracer = NULL_TRACER if tracer is None else tracer
        budget = budget.start()
        ladder = policy.strategies_for(strategy)
        requested = ladder[0]
        attempts: List[AttemptRecord] = []
        rmetrics = self.resilience_metrics
        with tracer.span(
            "fallback", query=query.name, ladder=",".join(ladder)
        ) as span:
            for rung_index, rung in enumerate(ladder):
                key = breaker.key(query, rung)
                if not breaker.allow(key):
                    attempts.append(
                        AttemptRecord(
                            rung,
                            "skipped",
                            error_type="CircuitOpen",
                            error=f"circuit open for ({query.name}, {rung})",
                            classification="permanent",
                        )
                    )
                    rmetrics.inc("resilience.breaker.skipped")
                    continue
                retry = 0
                while True:
                    if budget.expired:
                        rmetrics.inc("resilience.budget_exhausted")
                        raise BudgetExhausted(
                            f"budget exhausted answering {query.name} after "
                            f"{len(attempts)} attempts "
                            f"({describe_failures(attempts)})",
                            attempts=attempts,
                        )
                    started = time.perf_counter()
                    rmetrics.inc("resilience.attempts")
                    try:
                        report = self.answer(
                            query,
                            strategy=rung,
                            tracer=tracer,
                            budget=budget,
                        )
                    except RECOVERABLE as error:
                        elapsed = time.perf_counter() - started
                        self.registry.histogram(
                            "repro.fallback.attempt_seconds",
                            labels={"outcome": "error"},
                            help="per-rung attempt time inside the fallback ladder",
                        ).observe(elapsed)
                        transient = is_transient(error)
                        attempts.append(
                            AttemptRecord(
                                rung,
                                "error",
                                error_type=type(error).__name__,
                                error=str(error),
                                classification=classify(error),
                                retry=retry,
                                elapsed_s=elapsed,
                            )
                        )
                        rmetrics.inc(f"resilience.faults.{classify(error)}")
                        breaker.record_failure(key, transient)
                        if (
                            transient
                            and retry < policy.max_retries
                            and not budget.expired
                        ):
                            retry += 1
                            rmetrics.inc("resilience.retries")
                            backoff = policy.backoff(retry)
                            if backoff > 0:
                                policy.sleep(backoff)
                            continue
                        break  # permanent (or retries spent): next rung
                    else:
                        breaker.record_success(key)
                        attempt_s = time.perf_counter() - started
                        self.registry.histogram(
                            "repro.fallback.attempt_seconds",
                            labels={"outcome": "ok"},
                            help="per-rung attempt time inside the fallback ladder",
                        ).observe(attempt_s)
                        attempts.append(
                            AttemptRecord(
                                rung,
                                "ok",
                                retry=retry,
                                elapsed_s=attempt_s,
                            )
                        )
                        degraded = rung != requested or len(attempts) > 1
                        if degraded:
                            rmetrics.inc("resilience.degraded")
                        if rung_index > 0:
                            rmetrics.inc("resilience.fallbacks")
                        report.strategy = requested
                        report.strategy_used = rung
                        report.attempts = attempts
                        report.degraded = degraded
                        span.set(
                            strategy_used=rung,
                            attempts=len(attempts),
                            degraded=degraded,
                        )
                        return report
        rmetrics.inc("resilience.exhausted")
        raise AllStrategiesFailed(
            f"all {len(ladder)} strategies failed for {query.name}: "
            f"{describe_failures(attempts)}",
            attempts=attempts,
        )

    def _default_breaker(self) -> CircuitBreaker:
        """The answerer-owned circuit breaker, created on first use.

        Its state store is a plain :class:`~repro.cache.lru.LRUCache`;
        when the answerer has a :class:`~repro.cache.manager.QueryCache`
        the store is registered as its ``breaker`` level, so breaker
        entries show up in cache stats and are dropped by
        ``QueryCache.clear()`` like every other derived artifact.
        """
        with self._lock:
            if self._breaker is None:
                storage = LRUCache(512)
                if self.cache is not None:
                    self.cache.register("breaker", storage)
                self._breaker = CircuitBreaker(storage=storage)
            return self._breaker

    def _record_accuracy(
        self,
        tracer,
        query: BGPQuery,
        planned: JUCQ,
        evaluated: Span,
        evaluation_s: float,
        answer_count: int,
        snapshot: Snapshot,
    ) -> None:
        """Record predicted-vs-observed for the query and, where the
        engine traced one ``operand`` span per JUCQ operand (the native
        engine does), for each operand (base-store strategies only: see
        the caller)."""
        estimator, view = self.cost_model.estimator, snapshot.table
        tracer.record(
            "accuracy",
            accuracy_sample(
                query.name,
                predicted_cost=self.cost_model.cost(planned, view),
                observed_s=evaluation_s,
                predicted_rows=estimator.estimate(planned, view),
                observed_rows=answer_count,
            ),
        )
        spans = [span for span in evaluated.children if span.name == "operand"]
        if len(spans) != len(planned.operands):
            return
        for span in spans:
            operand = planned.operands[span.attributes["index"]]
            tracer.record(
                "accuracy",
                accuracy_sample(
                    f"{query.name}.operand[{span.attributes['index']}]",
                    predicted_cost=self.cost_model.ucq_eval_cost(operand, view),
                    observed_s=span.duration_s,
                    predicted_rows=estimator.ucq_cardinality(operand, view),
                    observed_rows=span.attributes["rows"],
                ),
            )

    def engine_for(self, strategy: str) -> Engine:
        """The engine a strategy's plan runs on: the answerer's own, or
        a sibling over the strategy's derived store (kept current)."""
        holder = self.derived_stores.get(strategy_named(strategy).name)
        return self.engine if holder is None else holder.at(self.database.snapshot()).engine

    def close(self) -> None:
        """Close the derived-store engines this answerer built.

        Idempotent and safe under concurrent callers: the service's
        drain path may call it from a signal handler while another
        thread is already closing (each holder hands its engine to one
        caller).  The engine passed to the constructor stays its
        creator's to close.
        """
        for holder in self.derived_stores.values():
            holder.close()

    def __enter__(self) -> "QueryAnswerer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
