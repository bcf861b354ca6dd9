"""Deterministic fault injection and its interplay with the ladder.

The chaos engine's contract: seeded and reproducible (same seed, same
call sequence, same faults), bounded (``max_faults`` guarantees
progress), loud (rows are discarded on injected failures, never
partially returned), and clean on the saturation baseline (derived
engines are unwrapped by default).  The second half drives
:meth:`QueryAnswerer.answer_resilient` through injected faults and
asserts the recovery paths: transient retry, ladder fallback, circuit
breaking, and the seed-matrix differential against saturation.
"""

from __future__ import annotations

import pytest

from repro.answering import QueryAnswerer
from repro.datasets import lubm_workload
from repro.engine import NativeEngine
from repro.query import BGPQuery
from repro.rdf import RDF_TYPE, Triple, URI, Variable
from repro.resilience import (
    ChaosConfig,
    ChaosEngine,
    CircuitBreaker,
    FallbackPolicy,
    InjectedFailure,
    InjectedTimeout,
    is_transient,
)
from repro.telemetry import MetricsRecorder

x, y = Variable("x"), Variable("y")
UB = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"


def simple_query() -> BGPQuery:
    return BGPQuery([x], [Triple(x, RDF_TYPE, URI(UB + "FullProfessor"))])


def chaos_engine(db, **config) -> ChaosEngine:
    engine = ChaosEngine(NativeEngine(db), ChaosConfig(**config))
    engine.sleeper = lambda _s: None
    return engine


def run_sequence(engine: ChaosEngine, calls: int) -> list:
    """Outcome labels of ``calls`` evaluate() attempts."""
    outcomes = []
    for _ in range(calls):
        try:
            engine.evaluate(simple_query())
            outcomes.append("ok")
        except InjectedTimeout:
            outcomes.append("timeout")
        except InjectedFailure:
            outcomes.append("failure")
    return outcomes


def _noop_sleep(_seconds: float) -> None:
    pass


class TestDeterminism:
    def test_same_seed_same_faults(self, lubm_db):
        first = chaos_engine(lubm_db, seed=7, timeout_rate=0.4, failure_rate=0.4)
        second = chaos_engine(lubm_db, seed=7, timeout_rate=0.4, failure_rate=0.4)
        assert run_sequence(first, 12) == run_sequence(second, 12)
        assert first.log == second.log
        assert first.counts == second.counts

    def test_reset_replays_the_stream(self, lubm_db):
        engine = chaos_engine(lubm_db, seed=3, timeout_rate=0.5)
        before = run_sequence(engine, 10)
        log_before = list(engine.log)
        engine.reset()
        assert run_sequence(engine, 10) == before
        assert engine.log == log_before

    def test_reset_with_new_seed_changes_config(self, lubm_db):
        engine = chaos_engine(lubm_db, seed=0, timeout_rate=0.5)
        engine.reset(seed=1)
        assert engine.config.seed == 1
        assert engine.faults_injected == 0 and engine.log == []


class TestInjection:
    def test_timeout_preempts_failure(self, lubm_db):
        engine = chaos_engine(lubm_db, timeout_rate=1.0, failure_rate=1.0)
        assert run_sequence(engine, 5) == ["timeout"] * 5
        assert engine.counts["failure"] == 0

    def test_failure_raised_after_inner_evaluation(self, lubm_db):
        """The inner engine runs; the rows are then discarded, so an
        injected failure can never leak a partial answer set."""
        engine = chaos_engine(lubm_db, failure_rate=1.0)
        with pytest.raises(InjectedFailure):
            engine.evaluate(simple_query())

    def test_max_faults_bounds_injection(self, lubm_db):
        engine = chaos_engine(lubm_db, timeout_rate=1.0, max_faults=2)
        outcomes = run_sequence(engine, 6)
        assert outcomes[:2] == ["timeout", "timeout"]
        assert outcomes[2:] == ["ok"] * 4, "past the bound the engine is clean"
        assert engine.faults_injected == 2

    def test_clean_calls_match_inner_engine(self, lubm_db):
        chaotic = chaos_engine(lubm_db)  # zero rates: pure pass-through
        clean = NativeEngine(lubm_db)
        assert chaotic.evaluate(simple_query()) == clean.evaluate(simple_query())

    def test_transient_flag_follows_config(self, lubm_db):
        for transient in (True, False):
            engine = chaos_engine(
                lubm_db, timeout_rate=1.0, transient=transient
            )
            with pytest.raises(InjectedTimeout) as raised:
                engine.evaluate(simple_query())
            assert is_transient(raised.value) is transient

    def test_metrics_counters_record_injections(self, lubm_db):
        engine = chaos_engine(lubm_db, timeout_rate=1.0)
        metrics = MetricsRecorder()
        with pytest.raises(InjectedTimeout):
            engine.evaluate(simple_query(), metrics=metrics)
        assert metrics.counters["chaos.injected.timeout"] == 1

    def test_slow_injection_calls_the_sleeper(self, lubm_db):
        engine = chaos_engine(lubm_db, slow_rate=1.0, slow_s=0.123)
        slept = []
        engine.sleeper = slept.append
        engine.evaluate(simple_query())
        assert slept == [0.123]
        assert engine.counts["slow"] == 1
        assert engine.faults_injected == 0, "slowdowns are not raised faults"

    def test_derived_engine_is_clean_by_default(self, lubm_db):
        engine = chaos_engine(lubm_db, timeout_rate=1.0)
        derived = engine.for_database(lubm_db.saturated())
        assert isinstance(derived, NativeEngine)
        wrapping = ChaosEngine(
            NativeEngine(lubm_db), ChaosConfig(timeout_rate=1.0, wrap_derived=True)
        )
        rewrapped = wrapping.for_database(lubm_db.saturated())
        assert isinstance(rewrapped, ChaosEngine)


class TestResilientRecovery:
    def test_transient_fault_recovers_by_retry(self, lubm_db):
        engine = chaos_engine(
            lubm_db, timeout_rate=1.0, max_faults=1, transient=True
        )
        answerer = QueryAnswerer(
            lubm_db, engine=engine, fallback=FallbackPolicy(sleep=_noop_sleep)
        )
        report = answerer.answer_resilient(simple_query())
        assert report.strategy_used == "gcov", "the retry stayed on the rung"
        assert report.degraded
        assert [a.outcome for a in report.attempts] == ["error", "ok"]
        assert report.attempts[1].retry == 1
        assert [a.classification for a in report.attempts] == ["transient", None]
        # The answerer's lifetime counters hold exactly this one call.
        counters = answerer.resilience_metrics.counters
        assert counters["resilience.retries"] == 1
        assert counters["resilience.faults.transient"] == 1

    def test_permanent_faults_fall_through_to_saturation(self, lubm_db):
        engine = chaos_engine(lubm_db, timeout_rate=1.0, transient=False)
        answerer = QueryAnswerer(
            lubm_db, engine=engine, fallback=FallbackPolicy(sleep=_noop_sleep)
        )
        report = answerer.answer_resilient(simple_query())
        assert report.strategy_used == "saturation"
        assert report.degraded
        assert [a.strategy for a in report.attempts] == [
            "gcov",
            "scq",
            "pruned-ucq",
            "saturation",
        ]
        baseline = QueryAnswerer(lubm_db).answer(
            simple_query(), strategy="saturation"
        )
        assert report.answers == baseline.answers

    def test_open_circuit_skips_hopeless_rungs(self, lubm_db):
        engine = chaos_engine(lubm_db, timeout_rate=1.0, transient=False)
        breaker = CircuitBreaker(failure_threshold=1, cooldown_s=10.0)
        breaker._now = 0.0
        breaker.clock = lambda: breaker._now
        policy = FallbackPolicy(breaker=breaker, sleep=_noop_sleep)
        answerer = QueryAnswerer(lubm_db, engine=engine, fallback=policy)
        first = answerer.answer_resilient(simple_query())
        assert first.strategy_used == "saturation"
        second = answerer.answer_resilient(simple_query())
        assert second.strategy_used == "saturation"
        skipped = [a.strategy for a in second.attempts if a.outcome == "skipped"]
        assert skipped == ["gcov", "scq", "pruned-ucq"], (
            "every rung that failed once is now open and skipped instantly"
        )
        assert breaker.skipped >= 3

    def test_degradations_visible_in_answerer_telemetry(self, lubm_db):
        engine = chaos_engine(lubm_db, timeout_rate=1.0, transient=False)
        answerer = QueryAnswerer(
            lubm_db, engine=engine, fallback=FallbackPolicy(sleep=_noop_sleep)
        )
        answerer.answer_resilient(simple_query())
        counters = answerer.resilience_metrics.counters
        assert counters["resilience.degraded"] == 1
        assert counters["resilience.fallbacks"] == 1
        assert counters["resilience.attempts"] == 4
        assert counters["resilience.faults.permanent"] == 3


class TestSeedMatrixDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chaotic_fallback_matches_saturation(self, lubm_db, seed):
        """Under injected faults, every workload answer still equals the
        clean saturation baseline — zero silent partial answers."""
        from oracle import chaos_differential_check, make_answerer, make_chaos_answerer

        clean = make_answerer(lubm_db)
        chaotic = make_chaos_answerer(lubm_db, seed=seed)
        for entry in lubm_workload()[:6]:
            baseline = clean.answer(entry.query, strategy="saturation").answers
            chaos_differential_check(
                chaotic, baseline, entry.query, label=f"seed={seed} {entry.name}"
            )
