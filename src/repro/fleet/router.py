"""The fleet router: one HTTP front door over N serve replicas.

:class:`FleetRouter` exposes the same API surface as one
:class:`~repro.service.QueryService` — ``POST /query``, ``GET
/healthz``, ``GET /metrics``, ``GET /status`` — but behind it sits a
replica set.  Because every replica of a dataset returns byte-identical
answers, the router is free to:

* **route** each query to the least-loaded UP replica (in-flight
  count, then probe-latency EWMA);
* **retry** transient upstream failures (connect refused, reset,
  timeout, truncated or garbled response, 5xx) against another
  replica, with exponential backoff, bounded by ``max_attempts`` and
  the request's remaining :class:`~repro.resilience.budget.ExecutionBudget`;
* **hedge** the tail: once the request-latency histogram has enough
  samples, a second replica is fired when the first attempt exceeds
  the configured latency quantile, the first usable response wins, and
  the loser is cancelled;
* **break** per replica: a :class:`~repro.resilience.fallback.CircuitBreaker`
  keyed by replica name stops hopeless endpoints from eating attempts.

A single control thread runs active health probes (``/healthz`` with a
deadline, feeding each replica's
:class:`~repro.fleet.health.ReplicaHealth`) and supervision (relaunch
dead managed replicas with exponential backoff; a restarted replica
re-enters rotation only after ``rise`` consecutive healthy probes).
Client-visible semantics: 4xx pass straight through (the replica is
*working*), 502 means every attempt failed, 503 means draining or no
routable replica, 504 means the request's budget drained before any
replica answered.  Successful responses carry ``X-Served-By``.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..cache.lru import LRUCache
from ..resilience.budget import ExecutionBudget
from ..resilience.fallback import CircuitBreaker
from ..service.endpoint import HTTPEndpoint
from ..service.http import (
    BadRequest,
    HTTPRequest,
    Response,
    json_response,
    read_response,
    render_request,
)
from ..service.server import SERVICE_LATENCY_BUCKETS_S
from ..telemetry import MetricsRegistry
from .health import UP, HealthPolicy
from .replicas import Replica

#: Upstream failure kinds the router treats as transient (retryable).
TRANSIENT_KINDS = frozenset(
    {"connect", "reset", "timeout", "truncated", "garbled", "protocol", "http_5xx"}
)


@dataclass
class RouterConfig:
    """Knobs of one :class:`FleetRouter` (all have serving defaults)."""

    host: str = "127.0.0.1"
    #: 0 binds an ephemeral port; read it back from ``address``.
    port: int = 0
    #: Total routing attempts per request (first try included).
    max_attempts: int = 4
    #: Backoff before retry N doubles from here, capped below.
    retry_backoff_s: float = 0.02
    max_retry_backoff_s: float = 0.5
    #: Per-attempt connection deadline.
    connect_timeout_s: float = 2.0
    #: Per-attempt response deadline (also capped by the budget).
    upstream_timeout_s: float = 30.0
    #: Router-wide per-request wall-clock cap (None = unlimited).
    default_timeout_s: Optional[float] = None
    #: Hedged requests: fire a second replica when the first attempt
    #: exceeds the ``hedge_quantile`` of observed latency.
    hedge: bool = True
    hedge_quantile: float = 0.95
    #: Never hedge earlier than this (protects cold histograms).
    hedge_min_s: float = 0.05
    #: Observed requests required before quantile hedging kicks in.
    hedge_min_samples: int = 16
    #: Fixed hedge delay override (tests; None = quantile-driven).
    hedge_after_s: Optional[float] = None
    health: HealthPolicy = field(default_factory=HealthPolicy)
    #: Per-replica circuit breaker tuning.
    breaker_failure_threshold: int = 3
    breaker_cooldown_s: float = 2.0
    #: How long a drain waits for in-flight requests.
    drain_grace_s: float = 30.0
    #: SIGTERM grace for managed replicas at shutdown.
    replica_grace_s: float = 15.0
    #: Where the drain path writes the final registry snapshot (JSON).
    metrics_flush_path: Optional[str] = None


@dataclass(slots=True)
class _Outcome:
    """One upstream attempt's result (response or classified failure)."""

    status: Optional[int] = None
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    kind: Optional[str] = None
    error: Optional[str] = None

    @property
    def usable(self) -> bool:
        """A response the client should see (5xx is retried instead)."""
        return self.kind is None and self.status is not None and self.status < 500


class FleetRouter(HTTPEndpoint):
    """A supervising HTTP router over a set of serve replicas.

    The front door itself — listener, routes, lifecycle, drain — is the
    :class:`~repro.service.endpoint.HTTPEndpoint` core's, shared with
    :class:`~repro.service.QueryService`.
    """

    role = "fleet"
    config: RouterConfig

    def __init__(
        self,
        replicas: List[Replica],
        config: Optional[RouterConfig] = None,
        registry: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        super().__init__(config if config is not None else RouterConfig(), registry)
        if not replicas:
            raise ValueError("FleetRouter needs at least one replica")
        names = [replica.name for replica in replicas]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate replica names: {names}")
        self.replicas = list(replicas)
        self.clock = clock
        self.breaker = CircuitBreaker(
            storage=LRUCache(max(64, 2 * len(replicas))),
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            clock=clock,
        )
        self._rr = 0
        self._control_thread: Optional[threading.Thread] = None
        self._control_stop = threading.Event()
        self._request_hist = self.registry.histogram(
            "repro.fleet.request_seconds",
            buckets=SERVICE_LATENCY_BUCKETS_S,
            help="end-to-end routed /query latency (drives hedging)",
        )
        self._bind_instruments()

    # ------------------------------------------------------------------
    # Instruments
    # ------------------------------------------------------------------
    def _bind_instruments(self) -> None:
        registry = self.registry
        registry.register_gauge(
            "repro.fleet.draining",
            lambda: 1 if self._draining else 0,
            help="1 while the router is draining",
        )
        registry.register_multi_gauge(
            "repro.fleet.replica_up",
            "replica",
            lambda: {
                r.name: (1.0 if r.health.routable() else 0.0) for r in self.replicas
            },
            help="1 for replicas in the UP state (eligible for traffic)",
        )
        registry.register_multi_gauge(
            "repro.fleet.replica_ewma_seconds",
            "replica",
            lambda: {
                r.name: ewma
                for r in self.replicas
                if (ewma := r.health.ewma_s()) is not None
            },
            help="per-replica health-probe latency EWMA",
        )
        registry.register_multi_gauge(
            "repro.fleet.replica_in_flight",
            "replica",
            lambda: {r.name: float(r.in_flight()) for r in self.replicas},
            help="routed requests currently on each replica",
        )
        registry.register_counters(
            "repro.fleet",
            lambda: self.metrics.as_dict()["counters"],
        )

    def _route_hist(self, replica: str):
        return self.registry.histogram(
            "repro.fleet.route_seconds",
            labels={"replica": replica},
            buckets=SERVICE_LATENCY_BUCKETS_S,
            help="per-attempt upstream latency by replica",
        )

    # ------------------------------------------------------------------
    # What the endpoint core asks of its subclass
    # ------------------------------------------------------------------
    def _listening(self) -> None:
        """Start the control thread (health probes + supervision)."""
        thread = threading.Thread(
            target=self._control_loop, name="repro-fleet-control", daemon=True
        )
        self._control_thread = thread  # lock: set before the thread starts
        thread.start()

    def close(self) -> None:
        """Stop the control thread, then the managed replicas."""
        self._control_stop.set()
        thread = self._control_thread
        if thread is not None:
            thread.join(10.0)
            self._control_thread = None  # lock: control thread has exited
        for replica in self.replicas:
            if replica.process is not None:
                replica.process.terminate(self.config.replica_grace_s)

    def _drain_line(self, counters: Dict[str, int]) -> str:
        return (
            f"requests={counters.get('requests', 0)} "
            f"answered={counters.get('answered', 0)} "
            f"retries={counters.get('route.retries', 0)} "
            f"hedged={counters.get('route.hedged', 0)} "
            f"restarts={counters.get('replica.restarts', 0)}"
        )

    def _health(self) -> Dict[str, Any]:
        up = sum(1 for r in self.replicas if r.health.routable())
        status = "draining" if self._draining else ("ok" if up else "degraded")
        return {"status": status, "replicas_up": up}

    # ------------------------------------------------------------------
    # Health probing + supervision (control thread)
    # ------------------------------------------------------------------
    def _control_loop(self) -> None:
        while not self._control_stop.is_set():
            for replica in self.replicas:
                self._tend(replica)
            self._control_stop.wait(self.config.health.interval_s)

    def _tend(self, replica: Replica) -> None:
        """One probe + supervision round for one replica."""
        process = replica.process
        if process is not None and not process.alive():
            was_up = replica.health.state() == UP
            replica.health.force_down(f"process exited with {process.poll()}")
            if was_up:
                self.metrics.inc("health.mark_down")
            if not self._draining and process.due_for_restart():
                process.relaunch()
                self.metrics.inc("replica.restarts")
            return
        before = replica.health.state()
        ok, latency_s, error = self._probe(replica)
        after = replica.health.record_probe(ok, latency_s, error)
        if before != after:
            if after == UP:
                self.metrics.inc("health.mark_up")
                if process is not None:
                    process.note_stable()
            elif before == UP:
                self.metrics.inc("health.mark_down")

    def _probe(self, replica: Replica) -> Tuple[bool, float, Optional[str]]:
        """One deadline-bounded GET /healthz against the probe address."""
        start = self.clock()
        conn = http.client.HTTPConnection(
            replica.probe_host,
            replica.probe_port,
            timeout=self.config.health.timeout_s,
        )
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
            elapsed = self.clock() - start
            if response.status == 200 and payload.get("status") == "ok":
                return True, elapsed, None
            return False, elapsed, f"status={response.status} body={payload}"
        except (OSError, ValueError, http.client.HTTPException) as error:
            return False, self.clock() - start, f"{type(error).__name__}: {error}"
        finally:
            conn.close()

    def status(self) -> Dict[str, Any]:
        """The fleet-topology snapshot behind ``GET /status``."""
        return {
            "role": "fleet-router",
            "draining": self._draining,
            "address": self.address,
            "hedge_delay_s": self._hedge_delay_s(),
            "replicas": [
                {**r.snapshot(), "breaker": self.breaker.state(r.name)}
                for r in self.replicas
            ],
            "counters": self.metrics.as_dict()["counters"],
        }

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _pick(self, exclude: Set[str]) -> Optional[Replica]:
        """Least-loaded routable replica outside ``exclude``.

        Ties (the common serial-client case: everyone at zero
        in-flight) rotate round-robin so every UP replica — including
        one freshly re-admitted after a restart — actually sees
        traffic; probe-latency EWMA orders replicas only across
        distinct load levels.
        """
        candidates = [
            r
            for r in self.replicas
            if r.name not in exclude and r.health.routable()
        ]
        if not candidates:
            return None
        load = {r.name: r.in_flight() for r in candidates}
        least = min(load.values())
        front = [r for r in candidates if load[r.name] == least]
        rest = sorted(
            (r for r in candidates if load[r.name] > least),
            key=lambda r: (load[r.name], r.health.ewma_s() or 0.0, r.name),
        )
        with self._lock:
            self._rr += 1
            rotation = self._rr
        front = front[rotation % len(front):] + front[: rotation % len(front)]
        for replica in front + rest:
            if self.breaker.allow(replica.name):
                return replica
        return None

    def _hedge_delay_s(self) -> Optional[float]:
        """When to fire the hedge, or None to not hedge at all."""
        config = self.config
        if not config.hedge:
            return None
        if config.hedge_after_s is not None:
            return config.hedge_after_s
        if self._request_hist.count < config.hedge_min_samples:
            return None
        quantile = self._request_hist.quantile(config.hedge_quantile)
        if quantile is None:
            return None
        return max(config.hedge_min_s, quantile)

    def _request_budget(self, request: HTTPRequest) -> Optional[ExecutionBudget]:
        """The routing budget: the request's own timeout_s, else ours."""
        timeout_s: Optional[float] = None
        try:
            payload = request.json()
            raw = payload.get("timeout_s") if isinstance(payload, dict) else None
            if isinstance(raw, (int, float)) and raw > 0:
                timeout_s = float(raw)
        except BadRequest:
            pass  # the replica owns body validation; it will answer 400
        budget = ExecutionBudget.resolve(
            None, timeout_s if timeout_s is not None else self.config.default_timeout_s
        )
        return None if budget is None else budget.start()

    async def _handle_query(self, request: HTTPRequest) -> Response:
        self.metrics.inc("requests")
        if self._draining:
            self.metrics.inc("rejected.draining")
            return json_response(
                503, {"error": "fleet is draining", "code": "draining"}
            )
        budget = self._request_budget(request)
        started = time.perf_counter()
        tried: Set[str] = set()
        first_replica: Optional[str] = None
        last_5xx: Optional[_Outcome] = None
        backoff = self.config.retry_backoff_s
        saw_replica = False
        for attempt in range(self.config.max_attempts):
            remaining = budget.remaining_s() if budget is not None else None
            if remaining is not None and remaining <= 0:
                break
            if attempt:
                self.metrics.inc("route.retries")
                sleep_s = backoff
                if remaining is not None:
                    sleep_s = min(sleep_s, remaining)
                backoff = min(backoff * 2.0, self.config.max_retry_backoff_s)
                await asyncio.sleep(sleep_s)
            replica = self._pick(tried)
            if replica is None:
                # Every routable replica was already tried: allow reuse.
                replica = self._pick(set())
            if replica is None:
                continue  # nothing routable right now; backoff and rescan
            saw_replica = True
            if first_replica is None:
                first_replica = replica.name
            outcome, served_by = await self._attempt_with_hedge(
                replica, request, budget, tried
            )
            if outcome.usable:
                if served_by != first_replica:
                    self.metrics.inc("route.failover")
                if outcome.status == 200:
                    self.metrics.inc("answered")
                else:
                    self.metrics.inc(f"passthrough.{outcome.status}")
                self._request_hist.observe(time.perf_counter() - started)
                extra = {"X-Served-By": served_by}
                retry_after = outcome.headers.get("retry-after")
                if retry_after is not None:
                    extra["Retry-After"] = retry_after
                ctype = outcome.headers.get("content-type", "application/json")
                assert outcome.status is not None
                return outcome.status, outcome.body, ctype, extra
            if outcome.kind == "http_5xx":
                last_5xx = outcome
        # Exhausted: classify the failure for the client.
        self._request_hist.observe(time.perf_counter() - started)
        if budget is not None and (budget.remaining_s() or 0.0) <= 0:
            self.metrics.inc("errors.timeout")
            return json_response(
                504,
                {"error": "request budget exhausted while routing", "code": "timeout"},
            )
        if not saw_replica:
            self.metrics.inc("rejected.no_replicas")
            return json_response(
                503,
                {"error": "no routable replica", "code": "no_replicas"},
                {"Retry-After": "1"},
            )
        if last_5xx is not None and last_5xx.status is not None:
            self.metrics.inc("errors.upstream_5xx")
            ctype = last_5xx.headers.get("content-type", "application/json")
            return last_5xx.status, last_5xx.body, ctype, {}
        self.metrics.inc("errors.upstream_unavailable")
        return json_response(
            502,
            {
                "error": f"all {self.config.max_attempts} routing attempts failed",
                "code": "upstream_unavailable",
            },
        )

    async def _attempt_with_hedge(
        self,
        primary: Replica,
        request: HTTPRequest,
        budget: Optional[ExecutionBudget],
        tried: Set[str],
    ) -> Tuple[_Outcome, str]:
        """One routing step: primary attempt plus an optional hedge."""
        tried.add(primary.name)
        primary_task = asyncio.ensure_future(self._attempt(primary, request, budget))
        delay = self._hedge_delay_s()
        if delay is None:
            return await primary_task, primary.name
        done, _ = await asyncio.wait({primary_task}, timeout=delay)
        if done:
            return primary_task.result(), primary.name
        secondary = self._pick(tried)
        if secondary is None:
            return await primary_task, primary.name
        tried.add(secondary.name)
        self.metrics.inc("route.hedged")
        secondary_task = asyncio.ensure_future(
            self._attempt(secondary, request, budget)
        )
        owners = {primary_task: primary.name, secondary_task: secondary.name}
        last: Tuple[_Outcome, str] = (_Outcome(kind="timeout"), primary.name)
        while owners:
            done, _ = await asyncio.wait(
                set(owners), return_when=asyncio.FIRST_COMPLETED
            )
            for task in done:
                name = owners.pop(task)
                outcome = task.result()
                last = (outcome, name)
                if outcome.usable:
                    for loser in owners:
                        loser.cancel()
                    if name == secondary.name:
                        self.metrics.inc("route.hedge_wins")
                    return outcome, name
        return last

    async def _attempt(
        self,
        replica: Replica,
        request: HTTPRequest,
        budget: Optional[ExecutionBudget],
    ) -> _Outcome:
        """One upstream exchange against one replica, classified."""
        timeout_s = self.config.upstream_timeout_s
        if budget is not None:
            remaining = budget.remaining_s()
            if remaining is not None:
                if remaining <= 0:
                    return _Outcome(kind="timeout", error="budget exhausted")
                timeout_s = min(timeout_s, remaining)
        started = time.perf_counter()
        replica.begin()
        writer: Optional[asyncio.StreamWriter] = None
        try:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(replica.host, replica.port),
                    self.config.connect_timeout_s,
                )
            except asyncio.TimeoutError:
                return self._fail(replica, "connect", "connect timed out")
            except OSError as error:
                return self._fail(replica, "connect", str(error))
            headers = {
                "Host": f"{replica.host}:{replica.port}",
                "Connection": "close",
                "Content-Type": "application/json",
            }
            api_key = request.headers.get("x-api-key")
            if api_key is not None:
                headers["X-Api-Key"] = api_key
            try:
                writer.write(
                    render_request(request.method, request.path, request.body, headers)
                )
                await writer.drain()
                outcome = await asyncio.wait_for(
                    _read_upstream_response(reader), timeout_s
                )
            except asyncio.TimeoutError:
                return self._fail(replica, "timeout", f"no response in {timeout_s:g}s")
            except asyncio.IncompleteReadError:
                return self._fail(replica, "truncated", "short read mid-body")
            except OSError as error:  # reset, broken pipe, ...
                return self._fail(replica, "reset", str(error))
            except BadRequest as error:
                return self._fail(replica, "protocol", str(error))
            if outcome.status is not None and outcome.status >= 500:
                return self._fail(
                    replica, "http_5xx", f"upstream answered {outcome.status}", outcome
                )
            if outcome.status == 200 and not _json_intact(outcome):
                return self._fail(replica, "garbled", "response JSON failed to parse")
            self.breaker.record_success(replica.name)
            return outcome
        finally:
            replica.end()
            self._route_hist(replica.name).observe(time.perf_counter() - started)
            if writer is not None:
                writer.close()

    def _fail(
        self,
        replica: Replica,
        kind: str,
        error: str,
        outcome: Optional[_Outcome] = None,
    ) -> _Outcome:
        """Book one transient upstream failure and build its outcome."""
        self.metrics.inc(f"upstream.error.{kind}")
        self.breaker.record_failure(replica.name, transient=kind in TRANSIENT_KINDS)
        if outcome is not None:
            outcome.kind = kind
            outcome.error = error
            return outcome
        return _Outcome(kind=kind, error=error)


async def _read_upstream_response(reader: asyncio.StreamReader) -> _Outcome:
    """One replica response (:func:`~repro.service.http.read_response`:
    strict, bounded) as an unclassified outcome."""
    status, headers, body = await read_response(reader)
    return _Outcome(status=status, headers=headers, body=body)


def _json_intact(outcome: _Outcome) -> bool:
    """Whether a JSON response body parses (garble detection)."""
    if "json" not in outcome.headers.get("content-type", "json"):
        return True
    try:
        json.loads(outcome.body.decode("utf-8"))
        return True
    except (UnicodeDecodeError, ValueError):
        return False
