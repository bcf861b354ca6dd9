"""Resilience subsystem: budgets, fallback ladder, fault injection.

DESIGN.md §10.  Three pieces:

* :class:`ExecutionBudget` (defined in :mod:`repro.engine.budget`, so
  the engines can take it; re-exported here) — one limit value (shared
  wall-clock deadline, union-term and row caps), started once per
  answer and the only deadline the answerer, the optimizer searches and
  every engine see; :data:`UNLIMITED` is the default everywhere;
* :mod:`.errors` + :mod:`.fallback` — the transient/permanent
  classification of raw pipeline failures, :class:`FallbackPolicy` (the
  ``gcov → scq → pruned-ucq → saturation`` degradation ladder with
  bounded retry/backoff) and the per-(query, strategy)
  :class:`CircuitBreaker`;
* :mod:`.chaos` — :class:`ChaosEngine`, seeded deterministic injection
  of timeouts, mid-evaluation failures and slow operators, so every
  degradation path runs in CI.
"""

from ..cache.lru import freeze_exception, thaw_exception
from ..engine.budget import UNLIMITED, ExecutionBudget
from .chaos import ChaosConfig, ChaosEngine, InjectedFailure, InjectedTimeout
from .errors import (
    PERMANENT,
    RECOVERABLE,
    TRANSIENT,
    AllStrategiesFailed,
    BudgetExhausted,
    ResilienceError,
    UnionBudgetExceeded,
    classify,
    is_transient,
)
from .fallback import (
    DEFAULT_LADDER,
    AttemptRecord,
    CircuitBreaker,
    FallbackPolicy,
)

__all__ = [
    "AllStrategiesFailed",
    "AttemptRecord",
    "BudgetExhausted",
    "ChaosConfig",
    "ChaosEngine",
    "CircuitBreaker",
    "DEFAULT_LADDER",
    "ExecutionBudget",
    "FallbackPolicy",
    "InjectedFailure",
    "InjectedTimeout",
    "PERMANENT",
    "RECOVERABLE",
    "ResilienceError",
    "TRANSIENT",
    "UNLIMITED",
    "UnionBudgetExceeded",
    "classify",
    "freeze_exception",
    "is_transient",
    "thaw_exception",
]
