"""The multi-tenant asyncio query service (DESIGN.md §14).

Dataflow of one ``POST /query``::

    auth ──> admission ──> bounded queue ──> worker pool ──> answerer
    (API key   (tenant      (global depth;    (blocking       (per-tenant
     → tenant)  gates)       429 when full)    execution)      ladder+budget)

The event loop only parses HTTP and arbitrates admission; every
blocking step — query parsing, planning, evaluation, rendering the rows
and encoding the JSON body — runs on the service's
``ThreadPoolExecutor`` (``ServiceConfig.workers`` threads, each
answering one request serially), so N concurrent clients
multiplex onto one bounded set of threads instead of each connection
spawning its own.  Backpressure is explicit: when the number of
accepted-but-not-yet-executing requests reaches
``ServiceConfig.queue_depth`` the service answers ``429`` with a
``Retry-After`` estimated from the observed end-to-end latency, and
per-tenant quota rejections carry the exact token-bucket refill time.

Each tenant rides the existing resilience machinery independently: its
:class:`~repro.resilience.fallback.FallbackPolicy` (own circuit
breaker) guards its requests, and its
:class:`~repro.engine.budget.ExecutionBudget` template is
tightened with the request's own timeout.  The answerers' caches are
plain shared state — every client warms every other client's plans.

Listener, connection loop, route table, lifecycle and graceful drain
are :class:`~repro.service.endpoint.HTTPEndpoint`'s; a drain here also
waits for queued and executing queries, and late requests on open
connections answer ``503``.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..answering import STRATEGIES, QueryAnswerer
from ..engine.evaluator import EngineFailure, EngineTimeout
from ..optimizer.search import SearchInfeasible
from ..query.parser import parse_query
from ..reformulation.reformulate import ReformulationLimitExceeded
from ..resilience.errors import (
    AllStrategiesFailed,
    BudgetExhausted,
    ResilienceError,
)
from ..telemetry import MetricsRegistry
from .endpoint import HTTPEndpoint
from .http import (
    BadRequest,
    HTTPRequest,
    Response,
    json_body,
    json_response,
    positive_seconds,
)
from .tenants import QuotaExceeded, Tenant, TenantRegistry, UnknownTenant

#: Histogram buckets for service latencies: the default operator-scale
#: buckets plus a queued-behind-a-monster tail (30/60/120 s).
SERVICE_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0,
)


@dataclass
class ServiceConfig:
    """Knobs of one :class:`QueryService` (all have serving defaults)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port (tests); read it back from ``address``.
    port: int = 0
    #: Execution-pool width (None = one worker per CPU).
    workers: Optional[int] = None
    #: Accepted-but-not-yet-executing request cap (the backpressure gate).
    queue_depth: int = 64
    default_strategy: str = "gcov"
    #: Answer through the per-tenant fallback ladder by default.
    resilient: bool = True
    #: Service-wide per-request wall-clock cap (None = unlimited).
    default_timeout_s: Optional[float] = None
    #: How long a drain waits for queued + in-flight work.
    drain_grace_s: float = 30.0
    #: Where the drain path writes the final registry snapshot (JSON);
    #: None keeps the flush on stderr only.
    metrics_flush_path: Optional[str] = None


@dataclass
class _Job:
    """One admitted query request, handed to the worker pool."""

    tenant: Tenant
    dataset: str
    text: str
    prefixes: Dict[str, str]
    strategy: str
    resilient: bool
    timeout_s: Optional[float]
    enqueued_at: float


#: Pipeline exception → (HTTP status, stable error code).
_ERROR_MAP: Tuple[Tuple[type, int, str], ...] = (
    (EngineTimeout, 504, "timeout"),
    (BudgetExhausted, 504, "budget_exhausted"),
    (AllStrategiesFailed, 502, "all_strategies_failed"),
    (ResilienceError, 502, "resilience"),
    (ReformulationLimitExceeded, 422, "reformulation_too_large"),
    (SearchInfeasible, 422, "search_infeasible"),
    (EngineFailure, 500, "engine_failure"),
)


class QueryService(HTTPEndpoint):
    """A long-lived HTTP front-end over one or more answerers.

    ``answerers`` maps dataset names to :class:`QueryAnswerer`
    instances (a bare answerer serves as the single ``"default"``
    dataset).  ``tenants`` defaults to the open single-tenant registry.
    Listener, routes, lifecycle and drain are the
    :class:`~repro.service.endpoint.HTTPEndpoint` core's.
    """

    role = "serve"
    config: ServiceConfig

    def __init__(
        self,
        answerers: Union[QueryAnswerer, Mapping[str, QueryAnswerer]],
        tenants: Optional[TenantRegistry] = None,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        super().__init__(config if config is not None else ServiceConfig(), registry)
        if isinstance(answerers, QueryAnswerer):
            answerers = {"default": answerers}
        if not answerers:
            raise ValueError("QueryService needs at least one answerer")
        self._answerers: Dict[str, QueryAnswerer] = dict(answerers)
        self.default_dataset = (
            "default" if "default" in self._answerers else next(iter(self._answerers))
        )
        self.tenants = tenants if tenants is not None else TenantRegistry.open_registry()
        if self.config.default_strategy not in STRATEGIES:
            raise ValueError(f"unknown default strategy {self.config.default_strategy!r}")
        #: Execution-pool width; every admitted request runs on the
        #: executor, one query per thread (DESIGN.md §11).
        self._workers = self.config.workers or os.cpu_count() or 1
        self._executor = ThreadPoolExecutor(
            max_workers=self._workers, thread_name_prefix="repro-worker"
        )
        self._queued = 0          # accepted, waiting for a worker
        self._executing = 0       # running on a worker right now
        self._latency_ewma_s = 0.25
        self._queue_wait_hist = self.registry.histogram(
            "repro.service.queue_wait_seconds",
            buckets=SERVICE_LATENCY_BUCKETS_S,
            help="admission-to-execution wait inside the bounded queue",
        )
        self._bind_instruments()

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def _bind_instruments(self) -> None:
        registry = self.registry
        registry.register_gauge(
            "repro.service.queue_depth",
            lambda: self._queued,
            help="requests accepted but not yet executing",
        )
        registry.register_gauge(
            "repro.service.in_flight",
            lambda: self._executing,
            help="queries executing on the service worker pool",
        )
        registry.register_gauge(
            "repro.service.draining",
            lambda: 1 if self._draining else 0,
            help="1 while a graceful drain is in progress",
        )
        registry.register_multi_gauge(
            "repro.service.tenant_tokens",
            "tenant",
            lambda: {
                tenant.name: tokens
                for tenant in self.tenants.tenants()
                if (tokens := tenant.tokens()) is not None
            },
            help="row-bucket level per metered tenant (negative = throttled)",
        )
        registry.register_multi_gauge(
            "repro.service.tenant_in_flight",
            "tenant",
            lambda: {t.name: t.in_flight() for t in self.tenants.tenants()},
            help="queued-or-running queries per tenant",
        )
        registry.register_counters(
            "repro.service",
            lambda: self.metrics.as_dict()["counters"],
        )

    def _request_hist(self, tenant: str):
        return self.registry.histogram(
            "repro.service.request_seconds",
            labels={"tenant": tenant},
            buckets=SERVICE_LATENCY_BUCKETS_S,
            help="end-to-end /query latency (admission to response ready)",
        )

    # ------------------------------------------------------------------
    # What the endpoint core asks of its subclass
    # ------------------------------------------------------------------
    def _busy(self) -> int:
        return self._active_http or self._queued or self._executing

    def close(self) -> None:
        """Shut down the execution pool and close the engines the
        answerers derived for their saturated / interval-encoded stores
        (idempotent)."""
        self._executor.shutdown()
        for answerer in self._answerers.values():
            answerer.close()

    def _drain_line(self, counters: Dict[str, int]) -> str:
        rejected = sum(v for k, v in counters.items() if k.startswith("rejected."))
        return (
            f"requests={counters.get('requests', 0)} "
            f"answered={counters.get('answered', 0)} rejected={rejected}"
        )

    def status(self) -> Dict[str, Any]:
        """The JSON service snapshot behind ``GET /status``."""
        with self._lock:
            queued, executing = self._queued, self._executing
        return {
            "draining": self._draining,
            "datasets": sorted(self._answerers),
            "default_dataset": self.default_dataset,
            "queue_depth": queued,
            "queue_capacity": self.config.queue_depth,
            "in_flight": executing,
            "workers": self._workers,
            "tenants": {t.name: t.snapshot() for t in self.tenants.tenants()},
            "counters": self.metrics.as_dict()["counters"],
        }

    # ------------------------------------------------------------------
    # The /query pipeline
    # ------------------------------------------------------------------
    async def _handle_query(self, request: HTTPRequest) -> Response:
        self.metrics.inc("requests")
        if self._draining:
            return self._reject_draining()
        try:
            tenant = self.tenants.resolve(request.headers.get("x-api-key"))
        except UnknownTenant as error:
            self.metrics.inc("rejected.auth")
            return json_response(401, {"error": str(error), "code": "unauthorized"})
        try:
            job = self._parse_job(request, tenant)
        except BadRequest as error:
            self.metrics.inc("rejected.bad_request")
            return json_response(400, {"error": str(error), "code": "bad_request"})
        if job.dataset not in self._answerers:
            self.metrics.inc("rejected.bad_request")
            return json_response(
                404,
                {
                    "error": f"unknown dataset {job.dataset!r}; "
                    f"serving {sorted(self._answerers)}",
                    "code": "unknown_dataset",
                },
            )
        # --- admission: tenant gates first, then the global queue ----
        try:
            tenant.admit(concurrency_retry_after_s=self._retry_after_estimate_s(1))
        except QuotaExceeded as error:
            self.metrics.inc("rejected.quota")
            self.metrics.inc(f"rejected.quota.{error.kind}")
            return json_response(
                429,
                {
                    "error": str(error),
                    "code": f"quota_{error.kind}",
                    "tenant": tenant.name,
                    "retry_after_s": round(error.retry_after_s, 3),
                },
                _retry_after_header(error.retry_after_s),
            )
        with self._lock:
            if self._queued >= self.config.queue_depth:
                queue_full = True
            else:
                queue_full = False
                self._queued += 1
        if queue_full:
            tenant.release(0)
            self.metrics.inc("rejected.queue_full")
            retry_after = self._retry_after_estimate_s(self.config.queue_depth)
            return json_response(
                429,
                {
                    "error": f"request queue is full "
                    f"({self.config.queue_depth} waiting)",
                    "code": "queue_full",
                    "retry_after_s": round(retry_after, 3),
                },
                _retry_after_header(retry_after),
            )
        # --- execution on the shared worker pool ----------------------
        started = time.perf_counter()
        try:
            future = self._executor.submit(self._execute, job)
        except RuntimeError:
            # Executor shut down by a racing drain: undo the accounting.
            with self._lock:
                self._queued -= 1
            tenant.release(0)
            return self._reject_draining()
        status, code, (body, content_type) = await asyncio.wrap_future(future)
        elapsed = time.perf_counter() - started
        self._request_hist(tenant.name).observe(elapsed)
        with self._lock:
            self._latency_ewma_s = 0.8 * self._latency_ewma_s + 0.2 * elapsed
        if status == 200:
            self.metrics.inc("answered")
        else:
            self.metrics.inc(f"errors.{code}")
        return status, body, content_type, {}

    def _reject_draining(self) -> Response:
        self.metrics.inc("rejected.draining")
        return json_response(
            503, {"error": "service is draining", "code": "draining"}
        )

    def _parse_job(self, request: HTTPRequest, tenant: Tenant) -> _Job:
        """Validate the request body into a :class:`_Job` (BadRequest on junk)."""
        payload = request.json()
        if not isinstance(payload, dict):
            raise BadRequest("request body must be a JSON object")
        text = payload.get("query")
        if not isinstance(text, str) or not text.strip():
            raise BadRequest('missing "query" (SPARQL BGP text)')
        strategy = payload.get("strategy", self.config.default_strategy)
        if strategy not in STRATEGIES:
            raise BadRequest(
                f"unknown strategy {strategy!r}; expected one of {STRATEGIES}"
            )
        prefixes = payload.get("prefixes", {})
        if not isinstance(prefixes, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in prefixes.items()
        ):
            raise BadRequest('"prefixes" must map prefix names to IRIs')
        timeout_s = payload.get("timeout_s", self.config.default_timeout_s)
        if timeout_s is not None:
            try:
                timeout_s = positive_seconds(timeout_s)
            except ValueError:
                raise BadRequest(
                    '"timeout_s" must be a positive, finite number'
                ) from None
        resilient = payload.get("resilient", self.config.resilient)
        if not isinstance(resilient, bool):
            raise BadRequest('"resilient" must be a boolean')
        dataset = payload.get("dataset", self.default_dataset)
        if not isinstance(dataset, str):
            raise BadRequest('"dataset" must be a string')
        return _Job(
            tenant=tenant,
            dataset=dataset,
            text=text,
            prefixes=dict(prefixes),
            strategy=strategy,
            resilient=resilient,
            timeout_s=timeout_s,
            enqueued_at=time.perf_counter(),
        )

    def _retry_after_estimate_s(self, position: int) -> float:
        """A Retry-After guess: observed latency × queue position ÷ workers."""
        with self._lock:
            ewma = self._latency_ewma_s
        return max(0.1, ewma * max(1, position) / max(1, self._workers))

    # ------------------------------------------------------------------
    # Worker-side execution (blocking; runs on the pool)
    # ------------------------------------------------------------------
    def _execute(self, job: _Job) -> Tuple[int, Optional[str], Tuple[bytes, str]]:
        """Answer one job and encode its JSON body, both on the worker:
        ``(status, error code or None, (body, content type))``."""
        status, payload = self._answer(job)
        code = None if status == 200 else payload.get("code", "internal")
        return status, code, json_body(payload)

    def _answer(self, job: _Job) -> Tuple[int, Dict[str, Any]]:
        with self._lock:
            self._queued -= 1
            self._executing += 1
        queue_wait_s = time.perf_counter() - job.enqueued_at
        self._queue_wait_hist.observe(queue_wait_s)
        rows_returned = 0
        try:
            declarations = "".join(
                f"PREFIX {name}: <{iri}> " for name, iri in sorted(job.prefixes.items())
            )
            try:
                query = parse_query(declarations + job.text)
            except ValueError as error:
                return 400, {"error": str(error), "code": "bad_query"}
            answerer = self._answerers[job.dataset]
            budget = job.tenant.request_budget(job.timeout_s)
            try:
                if job.resilient:
                    report = answerer.answer_resilient(
                        query,
                        strategy=job.strategy,
                        policy=job.tenant.policy,
                        budget=budget,
                    )
                else:
                    report = answerer.answer(
                        query, strategy=job.strategy, budget=budget
                    )
            except Exception as error:  # mapped below; never a traceback
                return self._error_payload(error)
            rows = report.answers.rendered()
            rows_returned = len(rows)
            payload: Dict[str, Any] = {
                "dataset": job.dataset,
                "tenant": job.tenant.name,
                "strategy": report.strategy,
                "strategy_used": report.strategy_used,
                "degraded": report.degraded,
                "answer_count": rows_returned,
                "rows": rows,
                "optimization_s": round(report.optimization_s, 6),
                "evaluation_s": round(report.evaluation_s, 6),
                "queue_wait_s": round(queue_wait_s, 6),
            }
            if job.resilient:
                payload["attempts"] = [a.to_dict() for a in report.attempts]
            return 200, payload
        finally:
            with self._lock:
                self._executing -= 1
            job.tenant.release(rows_returned)

    def _error_payload(self, error: Exception) -> Tuple[int, Dict[str, Any]]:
        for kind, status, code in _ERROR_MAP:
            if isinstance(error, kind):
                return status, {
                    "error": str(error),
                    "code": code,
                    "error_type": type(error).__name__,
                }
        traceback.print_exc(file=sys.stderr)
        return 500, {
            "error": str(error),
            "code": "internal",
            "error_type": type(error).__name__,
        }


def _retry_after_header(seconds: float) -> Dict[str, str]:
    """``Retry-After`` wants integer seconds; always at least 1."""
    return {"Retry-After": str(max(1, int(seconds + 0.999)))}
