"""The multi-tenant asyncio query service (DESIGN.md §14).

Dataflow of one ``POST /query``::

    auth ──> admission ──> bounded queue ──> worker pool ──> answerer
    (API key   (tenant      (global depth;    (blocking       (per-tenant
     → tenant)  gates)       429 when full)    execution)      ladder+budget)

The event loop only parses HTTP and arbitrates admission; every
blocking step — query parsing, planning, evaluation — runs on the
service's :class:`~repro.service.pool.WorkerPool` (``ServiceConfig.workers``
threads, each answering one request serially), so N concurrent clients
multiplex onto one bounded set of threads instead of each connection
spawning its own.  Backpressure is explicit: when the number of
accepted-but-not-yet-executing requests reaches
``ServiceConfig.queue_depth`` the service answers ``429`` with a
``Retry-After`` estimated from the observed end-to-end latency, and
per-tenant quota rejections carry the exact token-bucket refill time.

Each tenant rides the existing resilience machinery independently: its
:class:`~repro.resilience.fallback.FallbackPolicy` (own circuit
breaker) guards its requests, and its
:class:`~repro.resilience.budget.ExecutionBudget` template is
tightened with the request's own timeout.  The answerers' caches are
plain shared state — every client warms every other client's plans.

Graceful drain (SIGTERM/SIGINT, or :meth:`QueryService.request_drain`):
stop accepting connections, answer late in-flight-connection requests
with ``503``, let queued and executing queries finish (bounded by
``drain_grace_s``), flush metrics, exit 0.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Set, Tuple, Union

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
from ..telemetry import MetricsRecorder, MetricsRegistry, get_registry
from .http import (
    DEFAULT_MAX_BODY,
    BadRequest,
    HTTPRequest,
    json_body,
    read_request,
    write_response,
)
from .pool import WorkerPool
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
    max_body_bytes: int = DEFAULT_MAX_BODY
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


class QueryService:
    """A long-lived HTTP front-end over one or more answerers.

    ``answerers`` maps dataset names to :class:`QueryAnswerer`
    instances (a bare answerer serves as the single ``"default"``
    dataset).  ``tenants`` defaults to the open single-tenant registry.
    The service can either own its execution pool (``config.workers``)
    or share an explicit ``pool``.
    """

    def __init__(
        self,
        answerers: Union[QueryAnswerer, Mapping[str, QueryAnswerer]],
        tenants: Optional[TenantRegistry] = None,
        config: Optional[ServiceConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        if isinstance(answerers, QueryAnswerer):
            answerers = {"default": answerers}
        if not answerers:
            raise ValueError("QueryService needs at least one answerer")
        self._answerers: Dict[str, QueryAnswerer] = dict(answerers)
        self.default_dataset = (
            "default" if "default" in self._answerers else next(iter(self._answerers))
        )
        self.tenants = tenants if tenants is not None else TenantRegistry.open_registry()
        self.config = config if config is not None else ServiceConfig()
        if self.config.default_strategy not in STRATEGIES:
            raise ValueError(f"unknown default strategy {self.config.default_strategy!r}")
        self.registry = registry if registry is not None else get_registry()
        if pool is not None:
            self.pool = pool
            self._owns_pool = False
        else:
            self.pool = WorkerPool(self.config.workers)
            self._owns_pool = True
        #: Monotone service counters, exported as ``repro.service.*``.
        self.metrics = MetricsRecorder()
        self._counts_lock = threading.Lock()
        self._queued = 0          # accepted, waiting for a worker
        self._executing = 0       # running on a worker right now
        self._active_http = 0     # requests between parse and response
        self._latency_ewma_s = 0.25
        self._draining = False
        self._drain_requested = False
        self._drain_async: Optional[asyncio.Event] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._ready = threading.Event()
        self._serve_thread: Optional[threading.Thread] = None
        #: ``(host, port)`` once the listener is bound.
        self.address: Optional[Tuple[str, int]] = None
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
    # Lifecycle
    # ------------------------------------------------------------------
    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._drain_async = asyncio.Event()
        if self._drain_requested:
            self._drain_async.set()
        server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.address = server.sockets[0].getsockname()[:2]
        self._ready.set()
        try:
            await self._drain_async.wait()
            self._draining = True
            server.close()
            await self._wait_idle(self.config.drain_grace_s)
            # Kick idle keep-alive connections so their handlers unwind
            # (their next read sees EOF); in-flight responses are done.
            for writer in list(self._writers):
                writer.close()
            await asyncio.sleep(0)
            await server.wait_closed()
        finally:
            self._flush_metrics()

    async def _wait_idle(self, grace_s: float) -> None:
        """Wait for queued + executing + unanswered HTTP to hit zero."""
        deadline = time.perf_counter() + grace_s
        while time.perf_counter() < deadline:
            with self._counts_lock:
                busy = self._queued or self._executing or self._active_http
            if not busy:
                return
            await asyncio.sleep(0.02)

    def request_drain(self) -> None:
        """Begin a graceful drain (signal handlers land here).

        Safe from any thread and idempotent; the serving coroutine
        stops accepting, finishes in-flight work, flushes metrics.
        """
        self._draining = True
        self._drain_requested = True
        loop, event = self._loop, self._drain_async
        if loop is not None and event is not None:
            try:
                loop.call_soon_threadsafe(event.set)
            except RuntimeError:
                pass  # loop already closed: the drain has happened

    def run(self, install_signals: bool = True) -> int:
        """Serve until a drain completes (the ``repro serve`` body)."""

        async def main() -> None:
            loop = asyncio.get_running_loop()
            if install_signals:
                for signum in (signal.SIGTERM, signal.SIGINT):
                    try:
                        loop.add_signal_handler(signum, self.request_drain)
                    except (NotImplementedError, RuntimeError):
                        pass
            await self._amain()

        try:
            asyncio.run(main())
        finally:
            self.close()
        return 0

    def start(self) -> "QueryService":
        """Serve on a background thread (tests, in-process benchmarks)."""
        if self._serve_thread is not None:
            raise RuntimeError("service already started")
        self._serve_thread = threading.Thread(
            target=lambda: asyncio.run(self._amain()),
            name="repro-service",
            daemon=True,
        )
        self._serve_thread.start()
        if not self.wait_ready(15):
            raise RuntimeError("service did not come up within 15s")
        return self

    def wait_ready(self, timeout_s: Optional[float] = None) -> bool:
        """Block until the listener is bound (``address`` is readable)."""
        return self._ready.wait(timeout_s)

    def stop(self, timeout_s: float = 30.0) -> None:
        """Drain, wait for the serving thread, release owned resources."""
        self.request_drain()
        if self._serve_thread is not None:
            self._serve_thread.join(timeout_s)
            self._serve_thread = None
        self.close()

    def close(self) -> None:
        """Shut down the owned execution pool and close the engines the
        answerers derived for their saturated / interval-encoded stores
        (idempotent; a shared pool is left alone)."""
        if self._owns_pool:
            self.pool.shutdown()
        for answerer in self._answerers.values():
            answerer.close()

    @property
    def url(self) -> str:
        if self.address is None:
            raise RuntimeError("service is not listening yet")
        host, port = self.address
        return f"http://{host}:{port}"

    def _flush_metrics(self) -> None:
        """The drain-time metrics flush (file snapshot + stderr line)."""
        path = self.config.metrics_flush_path
        if path:
            try:
                with open(path, "w", encoding="utf-8") as sink:
                    json.dump(self.registry.snapshot(), sink, indent=2)
            except OSError as error:  # pragma: no cover - disk trouble
                print(f"# repro-serve: metrics flush failed: {error}", file=sys.stderr)
        counters = self.metrics.as_dict()["counters"]
        rejected = sum(v for k, v in counters.items() if k.startswith("rejected."))
        print(
            f"# repro-serve drained: requests={counters.get('requests', 0)} "
            f"answered={counters.get('answered', 0)} rejected={rejected}",
            file=sys.stderr,
        )

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        try:
            while True:
                try:
                    request = await read_request(reader, self.config.max_body_bytes)
                except BadRequest as error:
                    body, content_type = json_body({"error": str(error)})
                    await write_response(
                        writer, 400, body, content_type, keep_alive=False
                    )
                    return
                except (asyncio.IncompleteReadError, ConnectionResetError):
                    return
                if request is None:
                    return
                with self._counts_lock:
                    self._active_http += 1
                try:
                    status, body, content_type, extra = await self._dispatch(request)
                    keep = request.keep_alive and not self._draining
                    await write_response(
                        writer, status, body, content_type, extra, keep_alive=keep
                    )
                finally:
                    with self._counts_lock:
                        self._active_http -= 1
                if not keep:
                    return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _dispatch(
        self, request: HTTPRequest
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        if request.path == "/query":
            if request.method != "POST":
                body, ctype = json_body({"error": "POST /query"})
                return 405, body, ctype, {"Allow": "POST"}
            return await self._handle_query(request)
        if request.method != "GET":
            body, ctype = json_body({"error": "method not allowed"})
            return 405, body, ctype, {"Allow": "GET"}
        if request.path == "/metrics":
            text = self.registry.render_text()
            return 200, text.encode("utf-8"), "text/plain; charset=utf-8", {}
        if request.path == "/healthz":
            body, ctype = json_body(
                {"status": "draining" if self._draining else "ok"}
            )
            return 200, body, ctype, {}
        if request.path == "/status":
            body, ctype = json_body(self.status())
            return 200, body, ctype, {}
        body, ctype = json_body({"error": f"no route {request.path}"})
        return 404, body, ctype, {}

    def status(self) -> Dict[str, Any]:
        """The JSON service snapshot behind ``GET /status``."""
        with self._counts_lock:
            queued, executing = self._queued, self._executing
        return {
            "draining": self._draining,
            "datasets": sorted(self._answerers),
            "default_dataset": self.default_dataset,
            "queue_depth": queued,
            "queue_capacity": self.config.queue_depth,
            "in_flight": executing,
            "workers": self.pool.max_workers,
            "tenants": {t.name: t.snapshot() for t in self.tenants.tenants()},
            "counters": self.metrics.as_dict()["counters"],
        }

    # ------------------------------------------------------------------
    # The /query pipeline
    # ------------------------------------------------------------------
    async def _handle_query(
        self, request: HTTPRequest
    ) -> Tuple[int, bytes, str, Dict[str, str]]:
        self.metrics.inc("requests")
        if self._draining:
            self.metrics.inc("rejected.draining")
            body, ctype = json_body({"error": "service is draining", "code": "draining"})
            return 503, body, ctype, {}
        try:
            tenant = self.tenants.resolve(request.headers.get("x-api-key"))
        except UnknownTenant as error:
            self.metrics.inc("rejected.auth")
            body, ctype = json_body({"error": str(error), "code": "unauthorized"})
            return 401, body, ctype, {}
        try:
            job = self._parse_job(request, tenant)
        except BadRequest as error:
            self.metrics.inc("rejected.bad_request")
            body, ctype = json_body({"error": str(error), "code": "bad_request"})
            return 400, body, ctype, {}
        if job.dataset not in self._answerers:
            self.metrics.inc("rejected.bad_request")
            body, ctype = json_body(
                {
                    "error": f"unknown dataset {job.dataset!r}; "
                    f"serving {sorted(self._answerers)}",
                    "code": "unknown_dataset",
                }
            )
            return 404, body, ctype, {}
        # --- admission: tenant gates first, then the global queue ----
        try:
            tenant.admit(concurrency_retry_after_s=self._retry_after_estimate_s(1))
        except QuotaExceeded as error:
            self.metrics.inc("rejected.quota")
            self.metrics.inc(f"rejected.quota.{error.kind}")
            body, ctype = json_body(
                {
                    "error": str(error),
                    "code": f"quota_{error.kind}",
                    "tenant": tenant.name,
                    "retry_after_s": round(error.retry_after_s, 3),
                }
            )
            return 429, body, ctype, _retry_after_header(error.retry_after_s)
        with self._counts_lock:
            if self._queued >= self.config.queue_depth:
                queue_full = True
            else:
                queue_full = False
                self._queued += 1
        if queue_full:
            tenant.release(0)
            self.metrics.inc("rejected.queue_full")
            retry_after = self._retry_after_estimate_s(self.config.queue_depth)
            body, ctype = json_body(
                {
                    "error": f"request queue is full "
                    f"({self.config.queue_depth} waiting)",
                    "code": "queue_full",
                    "retry_after_s": round(retry_after, 3),
                }
            )
            return 429, body, ctype, _retry_after_header(retry_after)
        # --- execution on the shared worker pool ----------------------
        started = time.perf_counter()
        try:
            future = self.pool.submit(self._execute, job)
        except RuntimeError:
            # Pool shut down by a racing drain: undo the accounting.
            with self._counts_lock:
                self._queued -= 1
            tenant.release(0)
            self.metrics.inc("rejected.draining")
            body, ctype = json_body({"error": "service is draining", "code": "draining"})
            return 503, body, ctype, {}
        status, payload = await asyncio.wrap_future(future)
        elapsed = time.perf_counter() - started
        self._request_hist(tenant.name).observe(elapsed)
        with self._counts_lock:
            self._latency_ewma_s = 0.8 * self._latency_ewma_s + 0.2 * elapsed
        if status == 200:
            self.metrics.inc("answered")
        else:
            self.metrics.inc(f"errors.{payload.get('code', 'internal')}")
        body, ctype = json_body(payload)
        return status, body, ctype, {}

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
        if timeout_s is not None and (
            not isinstance(timeout_s, (int, float)) or timeout_s <= 0
        ):
            raise BadRequest('"timeout_s" must be a positive number')
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
        with self._counts_lock:
            ewma = self._latency_ewma_s
        return max(0.1, ewma * max(1, position) / max(1, self.pool.max_workers))

    # ------------------------------------------------------------------
    # Worker-side execution (blocking; runs on the pool)
    # ------------------------------------------------------------------
    def _execute(self, job: _Job) -> Tuple[int, Dict[str, Any]]:
        with self._counts_lock:
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
            rows = sorted(
                "\t".join(str(term) for term in row) for row in report.answers
            )
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
            with self._counts_lock:
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
