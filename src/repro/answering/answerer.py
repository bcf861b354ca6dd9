"""The public query-answering API.

:class:`QueryAnswerer` ties everything together (the paper's Figure 1
pipeline): given a BGP query it produces a reformulation under one of
the strategies of :mod:`repro.answering.strategies` (one table row
each: how the query is rewritten, which store the plan runs on), hands
it to an evaluation engine, and reports both the answers and the time
split between optimization and evaluation.  :meth:`QueryAnswerer.answer`
is the pipeline, in stages: resolve the budget → resolve the derived
store → plan through the cache → verify → union budget → the engine over
that store → evaluate → report.  No stage compares strategy names.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..cache.lru import MISSING, LRUCache
from ..cache.manager import QueryCache
from ..cost.model import CostModel
from ..engine.evaluator import AnswerSet, Engine, NativeEngine
from ..optimizer.search import SearchInfeasible
from ..query.algebra import JUCQ
from ..query.bgp import BGPQuery
from ..reformulation.litemat import IntervalReformulator
from ..reasoning.encoded import Saturated, saturate_database
from ..reformulation.reformulate import ReformulationLimitExceeded, Reformulator
from ..resilience.budget import ExecutionBudget
from ..resilience.errors import (
    RECOVERABLE,
    AllStrategiesFailed,
    BudgetExhausted,
    UnionBudgetExceeded,
    classify,
    describe_failures,
    freeze_exception,
    is_transient,
    thaw_exception,
)
from ..resilience.fallback import AttemptRecord, CircuitBreaker, FallbackPolicy
from ..storage.database import RDFDatabase, Snapshot
from ..storage.interval_encoding import IntervalAssigner
from ..telemetry import (
    NULL_TRACER,
    AccuracyRecord,
    AccuracyRecorder,
    MetricsRecorder,
    MetricsRegistry,
    get_registry,
)
from ..telemetry.registry import Histogram
from .strategies import STRATEGIES, Derived, Strategy, strategy_named

__all__ = ["STRATEGIES", "AnswerReport", "QueryAnswerer"]


@dataclass
class AnswerReport:
    """Answers plus the per-phase accounting the benchmarks report."""

    query: BGPQuery
    strategy: str
    answers: AnswerSet
    optimization_s: float
    evaluation_s: float
    reformulation_terms: int
    cover: Optional[frozenset] = None
    covers_explored: int = 0
    #: Operator-level counters/series collected during evaluation
    #: (:meth:`repro.telemetry.MetricsRecorder.as_dict` form).
    metrics: Dict[str, Any] = field(default_factory=dict)
    #: Predicted-vs-observed samples (filled when accuracy tracking is on).
    accuracy: List[AccuracyRecord] = field(default_factory=list)
    #: Cost-model prediction for the evaluated query, when recorded.
    predicted_cost: Optional[float] = None
    #: Cardinality estimate for the evaluated query, when recorded.
    predicted_cardinality: Optional[float] = None
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
        tracer=None,
        verify_ir: bool = False,
        cache: Optional[QueryCache] = None,
        budget: Optional[ExecutionBudget] = None,
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
        #: Default tracer for every call; the no-op tracer unless set.
        self.tracer = NULL_TRACER if tracer is None else tracer
        #: Debug mode: assert IR well-formedness after each compilation
        #: stage (DESIGN.md §8); raises
        #: :class:`repro.analysis.IRVerificationError` on corruption.
        self.verify_ir = verify_ir
        #: Multi-level query cache (DESIGN.md §9).  None disables plan
        #: caching entirely; when set, the reformulator's memo and the
        #: engine's SQL cache (if any) are registered for unified stats.
        #: LiteMat interval machinery (DESIGN.md §16): the assigner owns
        #: the derived interval-encoded store (re-encoded on schema
        #: mutation, extended on data mutation); the reformulator
        #: memoizes interval plans per encoding.
        self.interval_assigner = IntervalAssigner()
        self.interval_reformulator = IntervalReformulator(database.schema)
        self.cache = cache
        if cache is not None:
            cache.register("reformulation", self.reformulator.cache)
            cache.register(
                "interval-reformulation", self.interval_reformulator.cache
            )
            engine_sql_cache = getattr(self.engine, "sql_cache", None)
            if engine_sql_cache is not None:
                cache.register("sql", engine_sql_cache)
        #: Default :class:`~repro.resilience.ExecutionBudget` template
        #: applied to calls that pass neither ``budget`` nor
        #: ``timeout_s`` (each call starts its own copy of the clock).
        self.budget = budget
        #: Default :class:`~repro.resilience.FallbackPolicy` for
        #: :meth:`answer_resilient`; a stock policy when unset.
        self.fallback = fallback
        #: Counters for the resilience layer (attempts, retries,
        #: fallbacks, degradations, breaker activity) — monotone over
        #: the answerer's lifetime; per-call deltas are folded into each
        #: resilient report's ``metrics``.
        self.resilience_metrics = MetricsRecorder()
        self._breaker: Optional[CircuitBreaker] = None
        #: Engines over the derived stores, built through
        #: ``engine.for_database``: strategy -> (snapshot the store was
        #: derived at, engine).  The answerer owns them (see ``close``).
        self._derived: Dict[str, Tuple[Snapshot, Engine]] = {}
        #: ``(snapshot, saturated store)`` as derived last: the state the
        #: next write's re-saturation starts from.
        self._saturated: Optional[Tuple[Snapshot, Saturated]] = None
        #: strategy -> its (optimize, evaluate) latency histograms.
        self._latency: Dict[str, Tuple[Histogram, Histogram]] = {}
        #: Guards the lazily-built shared members (derived engines,
        #: default breaker) against duplicate construction when
        #: concurrent callers share one answerer.
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
        # The reformulator's minimization-pass counters carry an
        # "analysis." key prefix (folded verbatim into per-answer report
        # metrics); strip it here so they export as
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
        verify_ir: Optional[bool] = None,
        budget: Optional[ExecutionBudget] = None,
    ):
        """The reformulated query a strategy would evaluate (no execution).

        Returns ``(planned_query, search_result_or_None)``.  When a
        live ``tracer`` is given (or set on the answerer), planning is
        wrapped in ``reformulate``/``cover-search`` spans and the cover
        search's exploration trajectory is attached as a ``search``
        record.  ``verify_ir`` overrides the answerer's default; when
        on, the input query and the produced reformulation are checked
        by the IR verifier (:mod:`repro.analysis`).  A ``budget``
        threads the shared answer-wide deadline into the cover
        searches.
        """
        verify = self.verify_ir if verify_ir is None else verify_ir
        if verify:
            from ..analysis.verifier import verify_bgp

            verify_bgp(query)
        row = strategy_named(strategy)
        planned, search = self._plan_cached(
            row,
            query,
            self.tracer if tracer is None else tracer,
            budget,
            self._resolve(row),
        )
        if verify:
            self._verify(query, planned, search)
        return planned, search

    def _verify(self, query: BGPQuery, planned, search, database=None) -> None:
        """The verify stage: assert the compiled IR (DESIGN.md §8); with
        a ``database``, down to the plan tree and the generated SQL."""
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
        budget: Optional[ExecutionBudget],
        derived: Optional[Derived],
    ):
        """Plan-cache wrapper around :meth:`Strategy.plan` (DESIGN.md §9).

        Entries are keyed by (query fingerprint, strategy, snapshot),
        the snapshot taken once before planning — the derived store's
        when the plan runs on one — so any schema or data mutation
        makes a fresh key and stale plans are never served.  Planning
        *failures* (reformulation-limit overruns, infeasible cover
        searches) are memoized too and re-raised on warm hits, so a
        query that cannot be planned fails fast on every retry — stored
        *frozen* as ``(type, args)``, never as the live exception object
        (whose ``__traceback__`` would pin every active frame in the LRU
        for the entry's lifetime), and thawed into a fresh instance per
        hit.  A strategy that does not rewrite plans to the query
        itself, so there is nothing worth caching; and nothing is
        *stored* when a deadline budget was active, because the budget
        is not part of the key — a plan truncated (or a failure caused)
        by one caller's nearly-spent clock must not be served to the
        next caller.
        """
        if self.cache is None or row.rewrite is None:
            return row.plan(self, query, tracer, budget, derived)
        snapshot = self.database.snapshot() if derived is None else derived.snapshot
        key = self.cache.plan_key(snapshot, query, row.name)
        plans = self.cache.plans
        entry = plans.get(key, MISSING)
        if entry is not MISSING:
            outcome, payload = entry
            if outcome == "error":
                raise thaw_exception(payload)
            return payload
        deadline_active = budget is not None and budget.timeout_s is not None
        try:
            planned, search = row.plan(self, query, tracer, budget, derived)
        except (ReformulationLimitExceeded, SearchInfeasible) as error:
            if not deadline_active:
                plans.put(key, ("error", freeze_exception(error)))
            raise
        if not deadline_active:
            plans.put(key, ("ok", (planned, search)))
        return planned, search

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def _prologue(self, tracer, budget, timeout_s):
        """The call's tracer and its started budget: an explicit
        ``budget`` wins, a bare ``timeout_s`` becomes a deadline-only
        one, otherwise the answerer's default applies."""
        budget = ExecutionBudget.resolve(budget, timeout_s)
        if budget is None:
            budget = self.budget
        if budget is not None:
            budget = budget.start()
        return (self.tracer if tracer is None else tracer), budget

    def answer(
        self,
        query: BGPQuery,
        strategy: str = "gcov",
        timeout_s: Optional[float] = None,
        tracer=None,
        record_accuracy: Optional[bool] = None,
        verify_ir: Optional[bool] = None,
        budget: Optional[ExecutionBudget] = None,
    ) -> AnswerReport:
        """Answer ``query`` under ``strategy``; see :class:`AnswerReport`.

        ``tracer`` overrides the answerer's default tracer for this
        call.  ``record_accuracy`` forces predicted-vs-observed (cost,
        cardinality) sampling on or off; by default it follows the
        tracer (accuracy needs extra estimator calls, so the untraced
        hot path skips them).  ``verify_ir`` overrides the answerer's
        default; when on, every compilation stage — input query, cover,
        JUCQ, compiled plan tree, generated SQL — is asserted by the IR
        verifier before evaluation starts.

        Limits: an explicit ``budget``
        (:class:`~repro.resilience.ExecutionBudget`) wins; a bare
        ``timeout_s`` becomes a deadline-only budget; otherwise the
        answerer's default budget applies.  One started budget threads
        the *same* deadline through planning (cover searches) and
        evaluation, and its union/row caps tighten the engine profile's
        own limits.  Failures keep their raw types
        (:class:`~repro.engine.evaluator.EngineTimeout`,
        :class:`~repro.engine.evaluator.EngineFailure`, planning
        errors); classification and recovery live in
        :meth:`answer_resilient`.
        """
        tracer, budget = self._prologue(tracer, budget, timeout_s)
        row = strategy_named(strategy)
        verify = self.verify_ir if verify_ir is None else verify_ir
        if record_accuracy is None:
            record_accuracy = tracer.enabled
        metrics = MetricsRecorder()
        counters_before = None if self.cache is None else self.cache.counters()
        analysis_before = dict(self.reformulator.analysis_counters)
        with tracer.span("answer", query=query.name, strategy=strategy) as root:
            start = time.perf_counter()
            with tracer.span("plan", strategy=strategy):
                derived = self._resolve(row)
                planned, search = self._plan_cached(row, query, tracer, budget, derived)
            if verify:
                with tracer.span("verify-ir"):
                    self._verify(query, planned, search, database=self.database)
            terms = 0 if row.rewrite is None else planned.total_union_terms()
            if (
                budget is not None
                and budget.max_union_terms is not None
                and terms > budget.max_union_terms
            ):
                raise UnionBudgetExceeded(
                    f"{strategy} reformulation of {query.name} has "
                    f"{terms} union terms, over the budget's "
                    f"max_union_terms={budget.max_union_terms}"
                )
            optimization_s = time.perf_counter() - start
            engine = self._engine_over(row, derived)
            start = time.perf_counter()
            with tracer.span("evaluate", engine=engine.name) as eval_span:
                answers = engine.evaluate(
                    planned, tracer=tracer, metrics=metrics, budget=budget
                )
                eval_span.set(answers=len(answers))
            evaluation_s = time.perf_counter() - start
            root.set(answers=len(answers))
        optimize_seconds, evaluate_seconds = self._latency_histograms(strategy)
        optimize_seconds.observe(optimization_s)
        evaluate_seconds.observe(evaluation_s)
        if counters_before is not None:
            # Export this call's cache activity as metric deltas
            # (cache.<level>.<hits|misses|evictions|invalidations>).
            for name, value in self.cache.counters().items():
                delta = value - counters_before.get(name, 0)
                if delta:
                    metrics.inc(name, delta)
        # Likewise the minimization pass's work during this call
        # (analysis.terms_eliminated / analysis.containment_checks);
        # warm memo hits contribute zero, exactly like cache counters.
        for name, value in self.reformulator.analysis_counters.items():
            delta = value - analysis_before.get(name, 0)
            if delta:
                metrics.inc(name, delta)
        predicted_cost = None
        predicted_rows = None
        accuracy = AccuracyRecorder()
        # The cost model is bound to the base store: a plan that ran on
        # a derived one has no meaningful prediction to compare.
        if record_accuracy and row.store is None:
            predicted_cost, predicted_rows = self._record_accuracy(
                accuracy, query, planned, metrics, evaluation_s, len(answers)
            )
            for sample in accuracy.records:
                tracer.record("accuracy", sample.to_dict())
        return AnswerReport(
            query=query,
            strategy=strategy,
            answers=answers,
            optimization_s=optimization_s,
            evaluation_s=evaluation_s,
            reformulation_terms=terms,
            cover=None if search is None else search.cover,
            covers_explored=0 if search is None else search.covers_explored,
            metrics=metrics.as_dict(),
            accuracy=accuracy.records,
            predicted_cost=predicted_cost,
            predicted_cardinality=predicted_rows,
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
        budget: Optional[ExecutionBudget] = None,
        timeout_s: Optional[float] = None,
        tracer=None,
        record_accuracy: Optional[bool] = None,
        verify_ir: Optional[bool] = None,
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
        call's resilience counter deltas are folded into its
        ``metrics``.  Raises
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
        tracer, budget = self._prologue(tracer, budget, timeout_s)
        ladder = policy.strategies_for(strategy)
        requested = ladder[0]
        attempts: List[AttemptRecord] = []
        rmetrics = self.resilience_metrics
        counters_before = dict(rmetrics.counters)
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
                    if budget is not None and budget.expired:
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
                            record_accuracy=record_accuracy,
                            verify_ir=verify_ir,
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
                            and not (budget is not None and budget.expired)
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
                        delta = {
                            name: value - counters_before.get(name, 0)
                            for name, value in rmetrics.counters.items()
                            if value - counters_before.get(name, 0)
                        }
                        if delta:
                            report.metrics.setdefault("counters", {}).update(delta)
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
        accuracy: AccuracyRecorder,
        query: BGPQuery,
        planned,
        metrics: MetricsRecorder,
        evaluation_s: float,
        answer_count: int,
    ):
        """Sample predicted-vs-observed for the query and its operands
        (base-store strategies only: see the caller)."""
        estimator = self.cost_model.estimator
        predicted_cost = self.cost_model.cost(planned)
        predicted_rows = estimator.estimate(planned)
        accuracy.record(
            query.name,
            predicted_cost=predicted_cost,
            observed_s=evaluation_s,
            predicted_rows=predicted_rows,
            observed_rows=answer_count,
        )
        # Per-operand samples, when the native engine reported the
        # materialized operand sizes in evaluation order.
        operand_rows = metrics.series.get("jucq.operand_rows", [])
        operand_s = metrics.series.get("jucq.operand_s", [])
        if isinstance(planned, JUCQ) and len(operand_rows) == len(planned.operands):
            for index, operand in enumerate(planned):
                accuracy.record(
                    f"{query.name}.operand[{index}]",
                    predicted_cost=self.cost_model.ucq_eval_cost(operand),
                    observed_s=(
                        operand_s[index] if index < len(operand_s) else 0.0
                    ),
                    predicted_rows=estimator.ucq_cardinality(operand),
                    observed_rows=operand_rows[index],
                )
        return predicted_cost, predicted_rows

    def engine_for(self, strategy: str) -> Engine:
        """The engine a strategy's plan runs on: the answerer's own, or
        a sibling over the strategy's derived store (kept current)."""
        row = strategy_named(strategy)
        return self._engine_over(row, self._resolve(row))

    def _resolve(self, row: Strategy) -> Optional[Derived]:
        """The row's derived store as of now (None: the base store)."""
        return None if row.store is None else row.store(self)

    def _saturate(self, snapshot: Snapshot) -> RDFDatabase:
        """The saturated store; while the schema stands, the one derived
        last is handed back in and only extended (DESIGN.md §20)."""
        held = self._saturated
        saturated = saturate_database(
            self.database,
            held[1] if held is not None and held[0].schema == snapshot.schema else None,
        )
        self._saturated = (snapshot, saturated)  # lock: held by _engine_over
        return saturated.database

    def _engine_over(self, row: Strategy, derived: Optional[Derived]) -> Engine:
        """The engine over a resolved derived store, rebuilt on a new snapshot.

        The saturated and the interval-encoded store are derived from
        the database; their snapshot changes whenever the schema or the
        data has mutated since, so a stale engine is never served.  The
        lock keeps concurrent first callers from deriving the store
        twice (and from publishing a half-built engine).  A replaced
        engine is not closed here: a reader may still be inside it.
        """
        if derived is None:
            return self.engine
        with self._lock:
            held = self._derived.get(row.name)
            if held is None or held[0] != derived.snapshot:
                held = (derived.snapshot, self.engine.for_database(derived.build()))
                self._derived[row.name] = held
            return held[1]

    def close(self) -> None:
        """Close the derived-store engines this answerer built.

        Idempotent and safe under concurrent callers: the service's
        drain path may call it from a signal handler while another
        thread is already closing.  Exactly one caller claims the
        engines under the lock and closes them outside it; everyone
        else finds nothing left to release.  The engine passed to the
        constructor stays its creator's to close.
        """
        with self._lock:
            derived, self._derived = self._derived, {}
            self._saturated = None
        for _key, engine in derived.values():
            close = getattr(engine, "close", None)
            if close is not None:
                close()

    def __enter__(self) -> "QueryAnswerer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
