"""The tenant model: API keys, quotas, admission control (DESIGN.md §14).

A *tenant* is one paying (or rate-limited) identity sharing the query
service: it is identified by an API key, carries a :class:`TenantQuota`
built on :class:`~repro.engine.budget.ExecutionBudget`,
and owns its *own* :class:`~repro.resilience.fallback.FallbackPolicy`
with its *own* :class:`~repro.resilience.fallback.CircuitBreaker` — so
one tenant hammering a hopeless query opens circuits in its breaker
only, and never makes the ladder skip rungs for anybody else.

Admission is two-gated and post-paid:

* **concurrency** — a tenant may have at most ``max_concurrent``
  queries queued-or-running at once;
* **rows/sec** — a :class:`TokenBucket` holding *result rows*.  A
  request is admitted while the bucket is positive and the *actual*
  rows it returned are charged on completion (result sizes are unknown
  at admission time), so a monster answer drives the bucket negative
  and throttles that tenant's next requests until refill makes the
  level positive again — :meth:`TokenBucket.retry_after_s` computes
  that wait float-exactly, and it is the ``Retry-After`` the
  rejection carries.

Everything here is thread-safe: admission happens on the server's
event loop while release happens on worker-pool threads.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional

from ..cache.lru import LRUCache
from ..engine.budget import UNLIMITED, ExecutionBudget
from ..resilience.fallback import CircuitBreaker, FallbackPolicy
from .http import positive_seconds


class AdmissionError(Exception):
    """A request the service refuses to take on right now."""


class UnknownTenant(AdmissionError):
    """No tenant matches the presented API key (strict registry)."""


class QuotaExceeded(AdmissionError):
    """A per-tenant quota gate refused the request.

    ``kind`` is ``"concurrency"`` or ``"rows"``; ``retry_after_s`` is
    the earliest moment a retry could be admitted (the 429 response's
    ``Retry-After``).
    """

    def __init__(self, tenant: str, kind: str, retry_after_s: float, message: str):
        super().__init__(message)
        self.tenant = tenant
        self.kind = kind
        self.retry_after_s = retry_after_s


class TokenBucket:
    """A thread-safe token bucket that may go negative (post-paid).

    ``rate`` tokens refill per second up to ``burst``; :meth:`ready`
    answers True while the level is positive, and :meth:`charge`
    subtracts an *observed* cost after the fact — possibly far past
    zero, which is exactly how an unpredictably-huge answer throttles
    its tenant's future requests instead of being refused retroactively.
    """

    def __init__(
        self,
        rate: float,
        burst: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if rate <= 0:
            raise ValueError(f"rate must be positive, got {rate}")
        self.rate = float(rate)
        self.burst = float(burst) if burst is not None else self.rate
        self.clock = clock
        self._tokens = self.burst
        self._updated = clock()
        self._lock = threading.Lock()

    def _refill(self) -> None:
        now = self.clock()
        self._tokens = min(  # lock: held by every caller
            self.burst, self._tokens + (now - self._updated) * self.rate
        )
        self._updated = now  # lock: held by every caller

    def level(self) -> float:
        """The current token level (may be negative)."""
        with self._lock:
            self._refill()
            return self._tokens

    def ready(self) -> bool:
        """Whether an admission gate should let a request through."""
        return self.level() > 0.0

    def charge(self, tokens: float) -> None:
        """Subtract an observed cost (completion-time accounting)."""
        with self._lock:
            self._refill()
            self._tokens -= float(tokens)

    def retry_after_s(self) -> float:
        """Seconds until :meth:`ready` flips true again (0 when ready).

        Exact to the float: a request admitted at clock time
        ``now + retry_after_s()`` always passes the :meth:`ready` gate,
        while any representable instant strictly earlier still fails —
        this is the ``Retry-After`` a 429 carries, so an honest client
        sleeping exactly that long must not bounce a second time.
        Computed by a ``math.nextafter`` search rather than algebra:
        ``-tokens / rate`` suffers rounding in both the division and
        the clock addition the *next* refill performs, and either can
        land one ulp short.
        """
        with self._lock:
            self._refill()
            now, tokens, rate = self._updated, self._tokens, self.rate
            if tokens > 0.0:
                return 0.0

            def level_at(instant: float) -> float:
                # Exactly the refill arithmetic a future ready() runs
                # (monotone in `instant`: IEEE ops are order-preserving).
                return min(self.burst, tokens + (instant - now) * rate)

            # Smallest representable instant with a positive level.
            arrival = now + (-tokens) / rate
            if arrival <= now:
                arrival = math.nextafter(now, math.inf)
            while level_at(arrival) <= 0.0:
                arrival = math.nextafter(arrival, math.inf)
            while True:
                earlier = math.nextafter(arrival, -math.inf)
                if earlier <= now or level_at(earlier) <= 0.0:
                    break
                arrival = earlier
            # Smallest wait whose float sum lands at (or past) arrival.
            # Bisection, not an ulp walk: when wait << now, billions of
            # representable waits round to the same clock instant.
            hi = (arrival - now) or math.ulp(0.0)
            while now + hi < arrival:
                hi *= 2.0
            lo = 0.0  # now + 0 == now < arrival
            while True:
                mid = lo + (hi - lo) / 2.0
                if mid <= lo or mid >= hi:
                    return hi
                if now + mid >= arrival:
                    hi = mid
                else:
                    lo = mid


@dataclass
class TenantQuota:
    """Per-tenant admission limits and the per-request budget template.

    ``budget`` rides every request of the tenant through the existing
    resilience machinery: the service tightens it further with the
    request's own ``timeout_s`` (see
    :meth:`~repro.engine.budget.ExecutionBudget.tightened`) and
    hands the result to the answerer, so tenant policy and caller
    limits share one clock and one row cap.
    """

    max_concurrent: int = 8
    rows_per_second: Optional[float] = None
    burst_rows: Optional[float] = None
    budget: ExecutionBudget = UNLIMITED

    def to_dict(self) -> Dict[str, Any]:
        return {
            "max_concurrent": self.max_concurrent,
            "rows_per_second": self.rows_per_second,
            "burst_rows": self.burst_rows,
            "budget": self.budget.to_dict(),
        }


def default_policy() -> FallbackPolicy:
    """A fresh per-tenant ladder: own breaker, short bounded backoff."""
    return FallbackPolicy(
        breaker=CircuitBreaker(storage=LRUCache(256)),
        max_retries=1,
        backoff_s=0.02,
        max_backoff_s=0.2,
    )


class Tenant:
    """One admitted identity: quota gates, ladder, and usage counters."""

    def __init__(
        self,
        name: str,
        api_key: Optional[str] = None,
        quota: Optional[TenantQuota] = None,
        policy: Optional[FallbackPolicy] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.name = name
        self.api_key = api_key if api_key is not None else name
        self.quota = quota if quota is not None else TenantQuota()
        #: The tenant's private fallback ladder.  Built with its own
        #: circuit breaker by default: circuits opened by this tenant's
        #: failures are invisible to every other tenant.
        self.policy = policy if policy is not None else default_policy()
        self.bucket: Optional[TokenBucket] = None
        if self.quota.rows_per_second is not None:
            self.bucket = TokenBucket(
                self.quota.rows_per_second, self.quota.burst_rows, clock=clock
            )
        self._lock = threading.Lock()
        self._in_flight = 0
        #: Monotone usage counters (exported via the service registry).
        self.admitted = 0
        self.rejected = 0
        self.completed = 0
        self.rows_returned = 0

    # ------------------------------------------------------------------
    # Admission protocol
    # ------------------------------------------------------------------
    def admit(self, concurrency_retry_after_s: float = 1.0) -> None:
        """Take one admission slot or raise :class:`QuotaExceeded`."""
        with self._lock:
            if self._in_flight >= self.quota.max_concurrent:
                self.rejected += 1
                raise QuotaExceeded(
                    self.name,
                    "concurrency",
                    concurrency_retry_after_s,
                    f"tenant {self.name!r} already has "
                    f"{self._in_flight}/{self.quota.max_concurrent} "
                    f"queries in flight",
                )
            if self.bucket is not None and not self.bucket.ready():
                self.rejected += 1
                retry_after = self.bucket.retry_after_s()
                raise QuotaExceeded(
                    self.name,
                    "rows",
                    retry_after,
                    f"tenant {self.name!r} is over its "
                    f"{self.quota.rows_per_second:g} rows/sec quota "
                    f"(retry in {retry_after:.1f}s)",
                )
            self._in_flight += 1
            self.admitted += 1

    def release(self, rows: int = 0) -> None:
        """Give the slot back and charge the observed result size."""
        with self._lock:
            self._in_flight -= 1
            self.completed += 1
            self.rows_returned += rows
        if self.bucket is not None and rows:
            self.bucket.charge(rows)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def in_flight(self) -> int:
        with self._lock:
            return self._in_flight

    def tokens(self) -> Optional[float]:
        """Current row-bucket level, or None when the tenant is unmetered."""
        return None if self.bucket is None else self.bucket.level()

    def request_budget(self, timeout_s: Optional[float] = None) -> ExecutionBudget:
        """The effective (unstarted) budget for one request of this tenant:
        the quota's template tightened by the request's own timeout."""
        return self.quota.budget.tightened(timeout_s=timeout_s)

    def snapshot(self) -> Dict[str, Any]:
        """JSON-friendly state for the ``/status`` endpoint."""
        with self._lock:
            state = {
                "in_flight": self._in_flight,
                "admitted": self.admitted,
                "rejected": self.rejected,
                "completed": self.completed,
                "rows_returned": self.rows_returned,
            }
        state["tokens"] = self.tokens()
        state["quota"] = self.quota.to_dict()
        return state

    def __repr__(self) -> str:
        return f"Tenant({self.name!r}, in_flight={self.in_flight()})"


class TenantRegistry:
    """API key → :class:`Tenant` resolution for the service.

    With a ``default`` tenant, requests presenting no key (or an
    unknown one) are admitted under it — the open single-user mode the
    CLI defaults to.  Without one, an unknown key raises
    :class:`UnknownTenant` (the strict multi-tenant mode a tenants file
    configures).
    """

    def __init__(
        self,
        tenants: Iterable[Tenant] = (),
        default: Optional[Tenant] = None,
    ) -> None:
        self._by_key: Dict[str, Tenant] = {}
        self.default = default
        for tenant in tenants:
            self.add(tenant)

    def add(self, tenant: Tenant) -> Tenant:
        if tenant.api_key in self._by_key:
            raise ValueError(f"duplicate API key {tenant.api_key!r}")
        self._by_key[tenant.api_key] = tenant
        return tenant

    def resolve(self, api_key: Optional[str]) -> Tenant:
        """The tenant for a presented key; raises :class:`UnknownTenant`."""
        if api_key is not None:
            tenant = self._by_key.get(api_key)
            if tenant is not None:
                return tenant
        if self.default is not None:
            return self.default
        raise UnknownTenant(
            "unknown API key" if api_key else "missing X-Api-Key header"
        )

    def tenants(self) -> List[Tenant]:
        """Every tenant, default included (deduplicated, stable order)."""
        ordered = list(self._by_key.values())
        if self.default is not None and self.default not in ordered:
            ordered.append(self.default)
        return ordered

    def __len__(self) -> int:
        return len(self.tenants())

    # ------------------------------------------------------------------
    # Construction from configuration
    # ------------------------------------------------------------------
    @classmethod
    def open_registry(cls, max_concurrent: int = 64) -> "TenantRegistry":
        """The permissive default: one anonymous tenant, generous caps."""
        return cls(
            default=Tenant("default", quota=TenantQuota(max_concurrent=max_concurrent))
        )

    @classmethod
    def from_dict(cls, spec: Dict[str, Any]) -> "TenantRegistry":
        """Build a registry from a ``tenants.json``-shaped mapping::

            {"tenants": [{"name": "gold", "api_key": "g-123",
                          "max_concurrent": 16, "rows_per_second": 1e6,
                          "burst_rows": 2e6, "timeout_s": 30,
                          "max_result_rows": 1000000}, ...],
             "open": true}

        ``open: true`` adds a permissive default tenant for unkeyed
        requests; otherwise unknown keys are rejected with 401.
        """
        tenants = [_tenant_from_spec(entry) for entry in spec.get("tenants", [])]
        default = None
        if spec.get("open"):
            default = Tenant("default", quota=TenantQuota(max_concurrent=64))
        return cls(tenants, default=default)


def _tenant_from_spec(entry: Dict[str, Any]) -> Tenant:
    name = entry.get("name")
    if not name:
        raise ValueError(f"tenant entry without a name: {entry!r}")
    timeout_s = entry.get("timeout_s")
    budget = ExecutionBudget(
        timeout_s=None if timeout_s is None else positive_seconds(timeout_s),
        max_union_terms=entry.get("max_union_terms"),
        max_intermediate_rows=entry.get("max_intermediate_rows"),
        max_result_rows=entry.get("max_result_rows"),
    )
    quota = TenantQuota(
        max_concurrent=int(entry.get("max_concurrent", 8)),
        rows_per_second=entry.get("rows_per_second"),
        burst_rows=entry.get("burst_rows"),
        budget=budget,
    )
    return Tenant(name, api_key=entry.get("api_key", name), quota=quota)
