"""Resilience subsystem unit + integration tests (DESIGN.md §10).

Covers the :class:`ExecutionBudget` semantics, the failure taxonomy and
its cache-safe freeze/thaw, the circuit breaker's state machine, the
fallback policy, and the answerer-level orchestration
(:meth:`QueryAnswerer.answer_resilient`).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.answering import QueryAnswerer
from repro.cache import QueryCache
from repro.cache.lru import MISSING, FrozenFailure
from repro.datasets import build_lubm_database, lubm_workload, motivating_q1
from repro.engine import (
    EngineFailure,
    EngineProfile,
    EngineTimeout,
    NativeEngine,
    SQLiteEngine,
)
from repro.optimizer import SearchInfeasible
from repro.rdf import RDF_TYPE, Triple, URI, Variable
from repro.reformulation import ReformulationLimitExceeded, Reformulator
from repro.resilience import (
    AllStrategiesFailed,
    BudgetExhausted,
    CircuitBreaker,
    ExecutionBudget,
    UNLIMITED,
    FallbackPolicy,
    UnionBudgetExceeded,
    classify,
    freeze_exception,
    is_transient,
    thaw_exception,
)
from repro.resilience.fallback import CLOSED, HALF_OPEN, OPEN

x, y = Variable("x"), Variable("y")


class ScriptedClock:
    """A clock returning scripted values (then repeating the last)."""

    def __init__(self, *values: float):
        self._values = list(values)
        self._last = 0.0

    def __call__(self) -> float:
        if self._values:
            self._last = self._values.pop(0)
        return self._last


# ----------------------------------------------------------------------
# ExecutionBudget
# ----------------------------------------------------------------------
class TestExecutionBudget:
    def test_start_returns_running_copy_and_is_idempotent(self):
        template = ExecutionBudget(timeout_s=5.0, clock=ScriptedClock(0.0))
        running = template.start()
        assert running is not template, "start() must not mutate the template"
        assert not template.started and running.started
        assert running.start() is running, "starting a running budget is a no-op"

    def test_no_deadline_budget_is_already_started(self):
        budget = ExecutionBudget(max_result_rows=10)
        assert budget.started
        assert budget.start() is budget
        assert not budget.expired
        assert budget.remaining_s() is None

    def test_expiry_follows_the_injected_clock(self):
        budget = ExecutionBudget(
            timeout_s=10.0, clock=ScriptedClock(0.0, 5.0, 11.0)
        ).start()
        assert not budget.expired  # clock reads 5.0
        assert budget.expired  # clock reads 11.0

    def test_remaining_is_never_negative(self):
        budget = ExecutionBudget(
            timeout_s=10.0, clock=ScriptedClock(0.0, 99.0)
        ).start()
        assert budget.remaining_s() == 0.0

    def test_unlimited_is_one_frozen_value(self):
        assert ExecutionBudget() == UNLIMITED
        assert UNLIMITED.start() is UNLIMITED, "the unlimited path allocates nothing"
        assert not UNLIMITED.expired and UNLIMITED.remaining_s() is None
        with pytest.raises(dataclasses.FrozenInstanceError):
            UNLIMITED.timeout_s = 1.0

    def test_caps_tighten_engine_limits(self):
        budget = ExecutionBudget(max_union_terms=5, max_intermediate_rows=100)
        assert budget.union_limit(500) == 5
        assert budget.union_limit(3) == 3
        assert budget.row_limit(1_000_000) == 100
        loose = ExecutionBudget()
        assert loose.union_limit(500) == 500
        assert loose.row_limit(9) == 9
        assert loose == UNLIMITED and budget != UNLIMITED

    def test_to_dict_is_json_friendly(self):
        budget = ExecutionBudget(timeout_s=1.0, max_result_rows=2)
        assert budget.to_dict() == {
            "timeout_s": 1.0,
            "max_union_terms": None,
            "max_intermediate_rows": None,
            "max_result_rows": 2,
        }


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
class TestErrorTaxonomy:
    def test_transient_flag_is_copied(self):
        error = EngineFailure("blip")
        error.transient = True
        assert is_transient(error)
        assert classify(error) == "transient"
        assert classify(EngineFailure("hard")) == "permanent"

    def test_union_budget_exceeded_is_an_engine_failure(self):
        assert issubclass(UnionBudgetExceeded, EngineFailure)
        assert not is_transient(UnionBudgetExceeded("too big"))

    def test_freeze_thaw_round_trips_plain_exceptions(self):
        frozen = freeze_exception(EngineFailure("boom"))
        assert frozen == (EngineFailure, ("boom",))
        thawed = thaw_exception(frozen)
        assert type(thawed) is EngineFailure and thawed.args == ("boom",)
        assert thawed.__traceback__ is None

    def test_freeze_thaw_round_trips_reformulation_limit(self):
        original = ReformulationLimitExceeded(42)
        exc_type, args = freeze_exception(original)
        assert args == (42,), "must store the limit, not the message"
        thawed = thaw_exception((exc_type, args))
        assert isinstance(thawed, ReformulationLimitExceeded)
        assert thawed.limit == 42
        assert str(thawed) == str(original)


# ----------------------------------------------------------------------
# Circuit breaker
# ----------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, threshold=2, cooldown=30.0):
        breaker = CircuitBreaker(
            failure_threshold=threshold,
            cooldown_s=cooldown,
            clock=lambda: breaker._now,
        )
        breaker._now = 0.0
        return breaker

    def test_opens_after_threshold_and_skips(self):
        breaker = self.make(threshold=2)
        key = ("fp", "gcov")
        assert breaker.allow(key)
        breaker.record_failure(key, transient=False)
        assert breaker.state(key) == CLOSED
        breaker.record_failure(key, transient=False)
        assert breaker.state(key) == OPEN
        assert not breaker.allow(key)
        assert breaker.skipped == 1 and breaker.opened == 1

    def test_half_open_probe_success_closes(self):
        breaker = self.make(threshold=1, cooldown=10.0)
        key = ("fp", "scq")
        breaker.record_failure(key, transient=False)
        assert not breaker.allow(key)
        breaker._now = 11.0
        assert breaker.state(key) == HALF_OPEN
        assert breaker.allow(key), "cooldown elapsed: one probe passes"
        breaker.record_success(key)
        assert breaker.state(key) == CLOSED
        assert breaker.allow(key)

    def test_failed_probe_reopens_immediately(self):
        breaker = self.make(threshold=3, cooldown=10.0)
        key = ("fp", "ucq")
        for _ in range(3):
            breaker.record_failure(key, transient=False)
        breaker._now = 11.0
        assert breaker.allow(key)  # the probe
        breaker.record_failure(key, transient=False)
        assert breaker.state(key) == OPEN, "failed probe re-opens at once"
        assert not breaker.allow(key)

    def test_breaker_key_is_fingerprint_and_strategy(self):
        query = motivating_q1().query
        key = CircuitBreaker.key(query, "gcov")
        assert key[1] == "gcov" and isinstance(key[0], str)
        assert CircuitBreaker.key(query, "gcov") == key


# ----------------------------------------------------------------------
# Fallback policy
# ----------------------------------------------------------------------
class TestFallbackPolicy:
    def test_ladder_starts_with_requested_strategy(self):
        policy = FallbackPolicy()
        assert policy.strategies_for(None) == (
            "gcov",
            "scq",
            "pruned-ucq",
            "saturation",
        )
        assert policy.strategies_for("scq")[0] == "scq"
        assert policy.strategies_for("scq").count("scq") == 1
        assert policy.strategies_for("ucq") == (
            "ucq",
            "gcov",
            "scq",
            "pruned-ucq",
            "saturation",
        )

    def test_backoff_grows_and_caps(self):
        policy = FallbackPolicy(
            backoff_s=0.1, backoff_multiplier=2.0, max_backoff_s=0.3
        )
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.3)
        assert policy.backoff(9) == pytest.approx(0.3)
        assert FallbackPolicy(backoff_s=0.0).backoff(1) == 0.0


# ----------------------------------------------------------------------
# Budgets through the answerer
# ----------------------------------------------------------------------
class TestAnswererBudgets:
    def test_union_term_budget_rejects_before_evaluation(self, lubm_db):
        answerer = QueryAnswerer(lubm_db)
        query = lubm_workload()[0].query
        budget = ExecutionBudget(max_union_terms=1)
        with pytest.raises(UnionBudgetExceeded):
            answerer.answer(query, strategy="ucq", budget=budget)
        # Saturation plans to the original query and is exempt.
        report = answerer.answer(query, strategy="saturation", budget=budget)
        assert report.answers is not None

    @pytest.mark.parametrize("engine_cls", [NativeEngine, SQLiteEngine])
    def test_result_row_budget_fails_loudly(self, lubm_db, engine_cls):
        answerer = QueryAnswerer(lubm_db, engine=engine_cls(lubm_db))
        query = lubm_workload()[0].query
        baseline = answerer.answer(query, strategy="gcov").answer_count
        assert baseline > 1
        with pytest.raises(EngineFailure):
            answerer.answer(
                query,
                strategy="gcov",
                budget=ExecutionBudget(max_result_rows=baseline - 1),
            )

    def test_intermediate_row_budget_tightens_engine_profile(self, lubm_db):
        answerer = QueryAnswerer(lubm_db)
        query = motivating_q1().query
        with pytest.raises(EngineFailure):
            answerer.answer(
                query,
                strategy="saturation",
                budget=ExecutionBudget(max_intermediate_rows=1),
            )

    def test_shared_deadline_reaches_the_engine(self, lubm_db):
        answerer = QueryAnswerer(lubm_db)
        budget = ExecutionBudget(
            timeout_s=10.0, clock=ScriptedClock(0.0, 999.0)
        )
        with pytest.raises(EngineTimeout):
            answerer.answer(
                lubm_workload()[0].query, strategy="saturation", budget=budget
            )

    def test_exhausted_budget_makes_ecov_infeasible(self, lubm_db):
        answerer = QueryAnswerer(lubm_db)
        budget = ExecutionBudget(timeout_s=10.0, clock=ScriptedClock(0.0, 999.0))
        query = motivating_q1().query
        with pytest.raises((SearchInfeasible, EngineTimeout)):
            answerer.answer(query, strategy="ecov", budget=budget)


# ----------------------------------------------------------------------
# Plan-cache failure freezing (no live exceptions in the LRU)
# ----------------------------------------------------------------------
class TestPlanCacheFreezing:
    def make_answerer(self, db, limit=1):
        cache = QueryCache()
        answerer = QueryAnswerer(
            db,
            reformulator=Reformulator(db.schema, limit=limit),
            cache=cache,
        )
        return answerer, cache

    def test_memoized_failure_is_stored_frozen(self, lubm_db):
        answerer, cache = self.make_answerer(lubm_db)
        query = lubm_workload()[0].query
        with pytest.raises(ReformulationLimitExceeded):
            answerer.answer(query, strategy="ucq")
        entry = cache.get_plan(lubm_db, query, "ucq")
        assert isinstance(entry, FrozenFailure)
        assert not isinstance(entry, BaseException), (
            "the cache must hold (type, args), not a live exception "
            "(its __traceback__ would pin every frame)"
        )
        exc_type, args = entry
        assert exc_type is ReformulationLimitExceeded and args == (1,)

    def test_warm_hit_reraises_a_fresh_instance(self, lubm_db):
        answerer, _ = self.make_answerer(lubm_db)
        query = lubm_workload()[0].query
        with pytest.raises(ReformulationLimitExceeded) as first:
            answerer.answer(query, strategy="ucq")
        with pytest.raises(ReformulationLimitExceeded) as second:
            answerer.answer(query, strategy="ucq")
        assert second.value is not first.value
        assert second.value.limit == first.value.limit == 1

    def test_memoized_failure_outlives_a_data_write(self):
        """A ``ucq`` plan reads the schema alone (DESIGN.md §9), so its
        memoized failure is still served after a data write: the retry
        re-raises without running the reformulator again."""
        database = build_lubm_database(universities=1, seed=0)
        answerer, cache = self.make_answerer(database)
        query = lubm_workload()[0].query
        with pytest.raises(ReformulationLimitExceeded):
            answerer.answer(query, strategy="ucq")
        runs, hits = answerer.reformulator.runs, cache.plans.hits
        database.load_facts([Triple(URI("http://ex/s"), RDF_TYPE, URI("http://ex/C"))])
        with pytest.raises(ReformulationLimitExceeded):
            answerer.answer(query, strategy="ucq")
        assert answerer.reformulator.runs == runs
        assert cache.plans.hits == hits + 1

    def test_deadline_coupled_outcomes_are_not_memoized(self, lubm_db):
        answerer, cache = self.make_answerer(lubm_db, limit=50_000)
        query = lubm_workload()[0].query
        budget = ExecutionBudget(
            timeout_s=10.0, clock=ScriptedClock(0.0, 999.0)
        )
        with pytest.raises((SearchInfeasible, EngineTimeout)):
            answerer.answer(query, strategy="ecov", budget=budget)
        assert cache.get_plan(lubm_db, query, "ecov") is MISSING, (
            "a failure caused by one caller's nearly-spent clock must not "
            "poison the plan cache (the budget is not part of the key)"
        )
        # Without a deadline the same strategy plans and is cached.
        report = answerer.answer(query, strategy="ecov")
        assert report.answers is not None
        assert cache.get_plan(lubm_db, query, "ecov") is not MISSING

    def test_plans_under_a_running_deadline_are_cached(self, lubm_db):
        """A deadline that has not expired when planning returns did not
        shape the plan, so repeated answers under a generous one are
        plan hits, for every rewriting strategy."""
        answerer, cache = self.make_answerer(lubm_db, limit=50_000)
        query = lubm_workload()[0].query
        strategies = ("ucq", "gcov", "litemat")
        for _ in range(3):
            for strategy in strategies:
                answerer.answer(query, strategy=strategy, budget=ExecutionBudget(timeout_s=60))
        assert cache.plans.misses == len(strategies)
        assert cache.plans.hits == 2 * len(strategies)
        for strategy in strategies:
            assert cache.get_plan(lubm_db, query, strategy) is not MISSING


# ----------------------------------------------------------------------
# answer_resilient orchestration
# ----------------------------------------------------------------------
def _noop_sleep(_seconds: float) -> None:
    pass


class TestAnswerResilient:
    def test_healthy_first_rung_is_not_degraded(self, lubm_db):
        answerer = QueryAnswerer(lubm_db, fallback=FallbackPolicy(sleep=_noop_sleep))
        report = answerer.answer_resilient(lubm_workload()[0].query)
        assert report.strategy_used == "gcov"
        assert not report.degraded
        assert [a.outcome for a in report.attempts] == ["ok"]

    def test_permanent_fault_walks_the_ladder(self, lubm_db3):
        strict = NativeEngine(
            lubm_db3, EngineProfile(name="strict", max_union_terms=2)
        )
        answerer = QueryAnswerer(
            lubm_db3, engine=strict, fallback=FallbackPolicy(sleep=_noop_sleep)
        )
        report = answerer.answer_resilient(motivating_q1().query)
        assert report.strategy_used == "saturation"
        assert report.degraded
        assert report.attempts[-1].outcome == "ok"
        assert all(a.classification == "permanent" for a in report.attempts[:-1])
        # The degraded answers still equal the clean baseline.
        clean = QueryAnswerer(lubm_db3).answer(
            motivating_q1().query, strategy="saturation"
        )
        assert report.answers == clean.answers
        assert report.strategy_used != report.attempts[0].strategy
        # The answerer's lifetime counters hold exactly this one call.
        counters = answerer.resilience_metrics.counters
        assert counters["resilience.fallbacks"] == 1
        assert counters["resilience.degraded"] == 1
        assert counters["resilience.faults.permanent"] == len(report.attempts) - 1

    def test_all_strategies_failed_carries_attempts(self, lubm_db3):
        strict = NativeEngine(
            lubm_db3, EngineProfile(name="strict", max_union_terms=2)
        )
        policy = FallbackPolicy(ladder=("ucq", "scq"), sleep=_noop_sleep)
        answerer = QueryAnswerer(lubm_db3, engine=strict, fallback=policy)
        with pytest.raises(AllStrategiesFailed) as failure:
            answerer.answer_resilient(motivating_q1().query)
        attempts = failure.value.attempts
        assert [a.strategy for a in attempts] == ["ucq", "scq"]
        assert all(a.outcome == "error" for a in attempts)

    def test_budget_exhaustion_raises_before_attempting(self, lubm_db):
        answerer = QueryAnswerer(lubm_db, fallback=FallbackPolicy(sleep=_noop_sleep))
        budget = ExecutionBudget(timeout_s=1.0, clock=ScriptedClock(0.0, 999.0))
        with pytest.raises(BudgetExhausted):
            answerer.answer_resilient(lubm_workload()[0].query, budget=budget)

    def test_breaker_storage_registers_as_cache_level(self, lubm_db):
        cache = QueryCache()
        answerer = QueryAnswerer(
            lubm_db, cache=cache, fallback=FallbackPolicy(sleep=_noop_sleep)
        )
        answerer.answer_resilient(lubm_workload()[0].query)
        assert "breaker" in cache.levels
        assert "breaker" in cache.stats()

    def test_attempt_records_serialize(self, lubm_db):
        answerer = QueryAnswerer(lubm_db, fallback=FallbackPolicy(sleep=_noop_sleep))
        report = answerer.answer_resilient(lubm_workload()[0].query)
        record = report.attempts[0].to_dict()
        assert record["strategy"] == "gcov" and record["outcome"] == "ok"
