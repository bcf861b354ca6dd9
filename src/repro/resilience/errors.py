"""Failure classification for the answering pipeline.

Every way an answer can fail — reformulations past a term budget,
infeasible cover searches, engine statement/row limits, timeouts,
injected chaos faults — keeps its raw type and is *classified*
``transient`` or ``permanent``:

* **transient** faults (a dropped connection, an injected chaos blip)
  may succeed if the *same* strategy is simply retried;
* **permanent** faults (a 300k-term UCQ rejected by the statement
  limit, an exhausted search budget) will deterministically recur, so
  the only recovery is *falling back* to a different strategy.

The raw exception types flow through the direct
:meth:`~repro.answering.QueryAnswerer.answer` API unchanged (callers
catch :class:`~repro.engine.evaluator.EngineFailure`); the fallback
ladder classifies them to drive its retries and, when it gives up,
raises a :class:`ResilienceError` (:class:`BudgetExhausted` or
:class:`AllStrategiesFailed`) carrying every attempt.
"""

from __future__ import annotations

from typing import Any, List, Optional, Tuple, Type

from ..engine.evaluator import EngineFailure
from ..optimizer.search import SearchInfeasible
from ..reformulation.reformulate import ReformulationLimitExceeded

#: The classification labels used across reports and telemetry.
TRANSIENT = "transient"
PERMANENT = "permanent"


class ResilienceError(RuntimeError):
    """Base of the structured failure hierarchy.

    ``transient`` is a class default that instances may override (an
    injected timeout is transient; a deterministic one is not).
    """

    transient: bool = False

    @property
    def classification(self) -> str:
        return TRANSIENT if self.transient else PERMANENT


class UnionBudgetExceeded(EngineFailure):
    """The reformulation is larger than the caller's union-term budget.

    Subclasses :class:`~repro.engine.evaluator.EngineFailure` so every
    pre-existing ``except EngineFailure`` path (benchmark harnesses,
    the differential oracle) treats it as the statement-limit rejection
    it models.
    """

    transient = False


class BudgetExhausted(ResilienceError):
    """The shared execution budget ran out before an attempt succeeded."""

    def __init__(self, message: str, attempts: Optional[list] = None) -> None:
        super().__init__(message)
        #: The attempt records accumulated before exhaustion.
        self.attempts = attempts or []


class AllStrategiesFailed(ResilienceError):
    """Every rung of the fallback ladder failed (or was skipped)."""

    def __init__(self, message: str, attempts: Optional[list] = None) -> None:
        super().__init__(message)
        #: The per-attempt records explaining each rung's failure.
        self.attempts = attempts or []


# ----------------------------------------------------------------------
# Classification of raw pipeline exceptions
# ----------------------------------------------------------------------
#: Exception types the fallback ladder recovers from.  Anything else
#: (programming errors, IR verification failures) propagates untouched.
RECOVERABLE = (EngineFailure, ReformulationLimitExceeded, SearchInfeasible)


def is_transient(error: BaseException) -> bool:
    """Whether retrying the same strategy could plausibly succeed.

    The pipeline itself is deterministic, so only faults explicitly
    marked transient — chaos-injected blips standing in for real-world
    network/lock hiccups — classify as retryable; every native limit
    overrun, timeout and search failure is permanent.
    """
    return bool(getattr(error, "transient", False))


def classify(error: BaseException) -> str:
    """``"transient"`` or ``"permanent"`` for any pipeline exception."""
    return TRANSIENT if is_transient(error) else PERMANENT


# ----------------------------------------------------------------------
# Cache-safe exception storage
# ----------------------------------------------------------------------
def freeze_exception(error: BaseException) -> Tuple[Type[BaseException], Tuple[Any, ...]]:
    """A storable ``(type, args)`` form of an exception.

    Caches must never hold *live* exception objects: a raised-and-caught
    exception carries ``__traceback__``, which pins every frame (and
    everything those frames reference) for as long as the cache entry
    lives.  Freezing keeps only the constructor recipe.  Exceptions
    whose ``__init__`` signature differs from ``args`` (e.g.
    :class:`ReformulationLimitExceeded`) must override ``__reduce__``.
    """
    reduced = error.__reduce__()
    if isinstance(reduced, tuple) and len(reduced) >= 2:
        factory, args = reduced[0], reduced[1]
        if isinstance(factory, type) and isinstance(args, tuple):
            return factory, args
    return type(error), error.args


def thaw_exception(
    frozen: Tuple[Type[BaseException], Tuple[Any, ...]],
) -> BaseException:
    """A fresh instance from :func:`freeze_exception` output.

    Falls back to a plain :class:`RuntimeError` if the stored type
    cannot be reconstructed (so a cache hit can never crash the hit
    path itself).
    """
    exc_type, args = frozen
    try:
        return exc_type(*args)
    except Exception:  # pragma: no cover - defensive
        return RuntimeError(f"{exc_type.__name__}{args!r}")


def describe_failures(attempts: List[Any]) -> str:
    """One-line summary of attempt records for error messages."""
    parts = []
    for attempt in attempts:
        outcome = getattr(attempt, "outcome", "?")
        strategy = getattr(attempt, "strategy", "?")
        error_type = getattr(attempt, "error_type", None)
        parts.append(
            f"{strategy}={error_type or outcome}"
        )
    return ", ".join(parts) if parts else "no attempts"
