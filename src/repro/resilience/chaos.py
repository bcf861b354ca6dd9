"""Deterministic fault injection: the chaos engine wrapper.

Every degradation path the resilience layer promises — transient
retries, the strategy-fallback ladder, circuit breaking, budget
deadlines firing under slow operators — must be testable in CI without
flaky timing tricks.  :class:`ChaosEngine` wraps any evaluation engine
and injects three fault kinds from a **seeded** RNG, so a given
``(seed, call sequence)`` always produces the same faults:

* **timeouts** — the call raises :class:`InjectedTimeout` (an
  :class:`~repro.engine.evaluator.EngineTimeout`) without running the
  inner engine, emulating a query the backend killed;
* **mid-evaluation failures** — the inner engine runs to completion
  and *then* :class:`InjectedFailure` is raised, emulating a
  connection dropped while fetching results (the computed rows are
  discarded, never partially returned);
* **slow operators** — a seeded delay before evaluation, so real
  budget deadlines fire on otherwise-fast queries.

Injected faults are marked ``transient = True`` by default: they stand
in for the real-world blips (lock contention, network resets) that
retry-with-backoff exists for.  Native limit overruns raised by the
inner engine pass through unchanged and stay permanent.

Each ``evaluate`` call draws exactly three RNG values whether or not
anything fires, so the injection sequence is independent of fault
outcomes and rates — adding a retry upstream never shifts which later
call faults.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from ..engine.evaluator import EngineFailure, EngineTimeout


class InjectedTimeout(EngineTimeout):
    """A chaos-injected timeout (transient by default)."""

    transient = True


class InjectedFailure(EngineFailure):
    """A chaos-injected mid-evaluation failure (transient by default)."""

    transient = True


@dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault-injection plan for one :class:`ChaosEngine`.

    Rates are independent per-call probabilities in ``[0, 1]``.
    ``max_faults`` bounds the total raised faults (slowdowns excluded),
    guaranteeing forward progress even at rate 1.0 — after the bound,
    the engine behaves cleanly.  ``transient`` controls how injected
    faults classify: True exercises the retry path, False the
    straight-to-fallback path.
    """

    seed: int = 0
    timeout_rate: float = 0.0
    failure_rate: float = 0.0
    slow_rate: float = 0.0
    slow_s: float = 0.005
    max_faults: Optional[int] = None
    transient: bool = True
    #: Whether engines derived for the saturated store (the fallback
    #: ladder's last rung) are themselves chaos-wrapped.  Off by
    #: default: the baseline stays clean, mirroring the acceptance
    #: setup "faults on every non-saturation strategy".
    wrap_derived: bool = False


class ChaosEngine:
    """A fault-injecting decorator around any evaluation engine."""

    def __init__(self, engine, config: Optional[ChaosConfig] = None):
        self.engine = engine
        self.config = config if config is not None else ChaosConfig()
        self._rng = random.Random(self.config.seed)
        #: Guards the RNG and the fault accounting: a draw is *three*
        #: RNG values plus a ``max_faults`` check, and threads sharing
        #: the engine (the service's workers) must not interleave the
        #: triple (which would desynchronize the seeded stream mid-call).
        self._lock = threading.Lock()
        #: Total faults raised so far (bounded by ``max_faults``).
        self.faults_injected = 0
        #: Per-kind counts and an ordered injection log for assertions.
        self.counts: Dict[str, int] = {"timeout": 0, "failure": 0, "slow": 0}
        self.log: List[Dict[str, Any]] = []
        #: Injectable sleeper (tests avoid real delays).
        self.sleeper = time.sleep

    @property
    def name(self) -> str:
        return f"chaos({self.engine.name})"

    @property
    def database(self):
        """The inner engine's database (answerer compatibility)."""
        return self.engine.database

    # ------------------------------------------------------------------
    # Injection core
    # ------------------------------------------------------------------
    def _draw(self, query) -> Dict[str, bool]:
        """Roll all three fault dice for one call (always three draws).

        Atomic under the engine lock so concurrent calls each consume a
        contiguous triple from the seeded stream.
        """
        config = self.config
        with self._lock:
            rolls = (self._rng.random(), self._rng.random(), self._rng.random())
            exhausted = (
                config.max_faults is not None
                and self.faults_injected >= config.max_faults
            )
        plan = {
            "slow": rolls[0] < config.slow_rate,
            "timeout": not exhausted and rolls[1] < config.timeout_rate,
            "failure": not exhausted and rolls[2] < config.failure_rate,
        }
        # One raised fault per call: a timeout pre-empts the failure.
        if plan["timeout"]:
            plan["failure"] = False
        return plan

    def _record(self, kind: str, query, metrics=None) -> None:
        with self._lock:
            self.counts[kind] += 1
            self.log.append({"kind": kind, "query": getattr(query, "name", None)})
            if kind != "slow":
                self.faults_injected += 1
        if metrics is not None:
            metrics.inc(f"chaos.injected.{kind}")

    # ------------------------------------------------------------------
    # Engine protocol
    # ------------------------------------------------------------------
    def evaluate(
        self,
        query,
        timeout_s: Optional[float] = None,
        tracer=None,
        metrics=None,
        budget=None,
    ):
        plan = self._draw(query)
        if plan["slow"]:
            self._record("slow", query, metrics)
            self.sleeper(self.config.slow_s)
        if plan["timeout"]:
            self._record("timeout", query, metrics)
            error = InjectedTimeout(
                f"injected timeout (seed={self.config.seed}) evaluating "
                f"{getattr(query, 'name', 'query')}"
            )
            error.transient = self.config.transient
            raise error
        answers = self.engine.evaluate(
            query, timeout_s=timeout_s, tracer=tracer, metrics=metrics,
            budget=budget,
        )
        if plan["failure"]:
            # Mid-evaluation fault: the work was done, the rows are
            # dropped — a failure can never leak a partial answer set.
            self._record("failure", query, metrics)
            error = InjectedFailure(
                f"injected failure (seed={self.config.seed}) while fetching "
                f"results of {getattr(query, 'name', 'query')}"
            )
            error.transient = self.config.transient
            raise error
        return answers

    def count(self, query, timeout_s: Optional[float] = None) -> int:
        """Delegated clean (diagnostics helper, not an answering path)."""
        return self.engine.count(query, timeout_s=timeout_s)

    def explain(self, query) -> str:
        return self.engine.explain(query)

    def for_database(self, database) -> Any:
        """The engine to use for a derived (saturated) store.

        Clean by default, so the fallback baseline is trustworthy; with
        ``wrap_derived`` the clone gets its own chaos stream re-seeded
        from the config.
        """
        inner = self.engine.for_database(database)
        if self.config.wrap_derived:
            return ChaosEngine(inner, self.config)
        return inner

    def reset(self, seed: Optional[int] = None) -> None:
        """Restart the injection stream (optionally with a new seed)."""
        with self._lock:
            if seed is not None:
                self.config = replace(self.config, seed=seed)
            self._rng = random.Random(self.config.seed)
            self.faults_injected = 0
            self.counts = {"timeout": 0, "failure": 0, "slow": 0}
            self.log.clear()

    def __repr__(self) -> str:
        return (
            f"ChaosEngine({self.name}, seed={self.config.seed}, "
            f"faults={self.faults_injected})"
        )
