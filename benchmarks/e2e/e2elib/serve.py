"""``serve_closed``: one in-process ``QueryService`` under a closed loop.

One client on one keep-alive connection sends the next ``POST /query``
only after the previous answer came back.  Engine work is 1-10 ms per
request and every plan is warm, so HTTP parse, admission, the
event-loop hand-off and JSON serialization are a third to a half of a
request: an engine-only change must show nothing here.

One client, not two: the service's two workers share one GIL, so a
second client adds no throughput (~220 requests/s either way), it only
makes each request wait for the other's.  How the two requests
interleave is decided by the thread scheduler, and with it two sets of
runs of the same code spread 18-28 % on the latency of a request.  The
fleet is left out for the same reason: router + 3 replica processes +
clients on 2 cores would measure the scheduler.
"""

from __future__ import annotations

import gc
import http.client
import json
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.answering import QueryAnswerer
from repro.cache import QueryCache
from repro.query import parse_query
from repro.service import QueryService, ServiceConfig, TenantRegistry
from repro.service.http import render_request
from repro.telemetry import MetricsRegistry

from . import micro
from .check import Checker, Expected
from .data import (
    SERVE_QUERIES,
    SETUP_REPEATS,
    Cell,
    RunConfig,
    build_dataset,
    query_texts,
    seed_ordered,
    serve_cells,
)
from .env import E2E_DIR, OUT_DIR
from .stats import (
    best_ms,
    calibrate,
    end_to_end,
    machine_speed,
    percentile,
    plan_cache_counters,
    plan_cache_metrics,
)
from .trace import SpanTracer

#: A pass is one request per cell; 25 passes are 300 warm-up requests.
WARMUP_PASSES = 25
TENANTS_FILE = E2E_DIR / "tenants.json"
#: Service dataset name per store name (what a request's "dataset" says).
SERVICE_NAMES = {store: service for service, store, _names in SERVE_QUERIES}


class Client:
    """The closed-loop client: its connection and its samples."""

    def __init__(
        self, address: Tuple[str, int], api_keys: List[str], cells: List[Cell], checker: Checker
    ):
        self.address = address
        #: One header set per tenant; passes take them in turn.
        self.headers = [
            {"Content-Type": "application/json", "X-Api-Key": key} for key in api_keys
        ]
        self.cells = cells
        self.checker = checker
        self.passes = 0
        self.samples: Dict[str, List[float]] = {}
        #: ``(cell, pass, start, end, status)`` per timed request.
        self.requests: List[Tuple[str, int, float, float, int]] = []
        #: Answers per second of time spent inside requests, per timed pass.
        self.throughput: List[float] = []
        self.statuses: Dict[int, int] = {}
        self.payloads: Dict[str, Dict[str, Any]] = {}

    def drive(self, bodies, expected, timed: bool, min_passes: int, deadline: float) -> None:
        """Whole passes until ``min_passes`` are done and the deadline passed."""
        connection = http.client.HTTPConnection(*self.address, timeout=120)
        last = self.passes + min_passes
        try:
            while self.passes < last or perf_counter() < deadline:
                headers = self.headers[self.passes % len(self.headers)]
                busy = 0.0
                answered = 0
                for cell in self.cells:
                    started = perf_counter()
                    try:
                        connection.request(
                            "POST", "/query", body=bodies[cell.name], headers=headers
                        )
                        response = connection.getresponse()
                        payload = json.loads(response.read())
                    except (http.client.HTTPException, OSError, ValueError) as error:
                        busy += perf_counter() - started
                        connection.close()
                        connection = http.client.HTTPConnection(*self.address, timeout=120)
                        self.checker.fail(f"{cell.name}: {error!r}")
                        continue
                    ended = perf_counter()
                    busy += ended - started
                    status = response.status
                    if status != 200:
                        self.checker.fail(f"{cell.name}: HTTP {status} {payload.get('code')}")
                    else:
                        answered += 1
                        self.checker.check(
                            cell.answer_key,
                            payload["rows"],
                            expected.get(cell.answer_key, "missing"),
                        )
                        self.payloads[cell.name] = payload
                    if timed:
                        self.statuses[status] = self.statuses.get(status, 0) + 1
                        self.requests.append((cell.name, self.passes, started, ended, status))
                        if status == 200:
                            self.samples.setdefault(cell.name, []).append(ended - started)
                if timed:
                    self.throughput.append(answered / busy)
                self.passes += 1
        finally:
            connection.close()


def scrape(address: Tuple[str, int]) -> Dict[str, float]:
    """``GET /metrics``: the sum and count of the two service histograms."""
    connection = http.client.HTTPConnection(*address, timeout=30)
    try:
        connection.request("GET", "/metrics")
        text = connection.getresponse().read().decode("utf-8")
    finally:
        connection.close()
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        for family in ("queue_wait_seconds", "request_seconds"):
            for suffix in ("sum", "count"):
                if line.startswith(f"repro_service_{family}_{suffix}"):
                    key = f"{family}_{suffix}"
                    totals[key] = totals.get(key, 0.0) + float(line.rsplit(" ", 1)[1])
    return totals


class ServeClosed:
    def __init__(self, config: RunConfig):
        self.config = config
        self.cells = serve_cells()
        self.texts = {store: query_texts(store) for store in SERVICE_NAMES}
        self.expected = Expected(config.scale.name).cells
        self.bodies = {
            cell.name: json.dumps(
                {
                    "query": self.texts[cell.dataset][cell.query],
                    "dataset": SERVICE_NAMES[cell.dataset],
                }
            ).encode("utf-8")
            for cell in self.cells
        }
        self.checker = Checker()
        self.answerers: Dict[str, QueryAnswerer] = {}
        self.service: Optional[QueryService] = None

    def _construct(self) -> Tuple[float, float]:
        """Build the stores, then the answerers and the listening service."""
        started = perf_counter()
        databases = {
            store: build_dataset(store, self.config.scale) for store in SERVICE_NAMES
        }
        built = perf_counter()
        self.answerers = {
            store: QueryAnswerer(database, cache=QueryCache())
            for store, database in databases.items()
        }
        self.service = QueryService(
            {SERVICE_NAMES[store]: a for store, a in self.answerers.items()},
            tenants=TenantRegistry.from_dict(json.loads(TENANTS_FILE.read_text())),
            config=ServiceConfig(workers=2),
            registry=MetricsRegistry(),
        ).start()
        return built - started, perf_counter() - built

    def _phase(self, client: Client, timed: bool, passes: int, seconds: float) -> float:
        """The client drives the service; returns the phase's wall time."""
        gc.collect()
        started = perf_counter()
        client.drive(self.bodies, self.expected, timed, passes, started + seconds)
        return perf_counter() - started

    def run(self) -> Dict[str, Any]:
        config = self.config
        build_s: List[float] = []
        construct_s: List[float] = []
        try:
            for _ in range(SETUP_REPEATS):
                if self.service is not None:
                    self.service.stop()
                self.service = None
                self.answerers = {}
                gc.collect()
                built, constructed = self._construct()
                build_s.append(built)
                construct_s.append(constructed)
            service = self.service
            client = Client(
                service.address,
                sorted(tenant.api_key for tenant in service.tenants.tenants()),
                seed_ordered(self.cells, config.seed),
                self.checker,
            )
            warmup = 2 if config.scale.name == "quick" else WARMUP_PASSES
            warmup_s = self._phase(client, timed=False, passes=warmup, seconds=0.0)
            setup_s = median(build_s) + median(construct_s) + warmup_s

            cache_before = plan_cache_counters(self.answerers.values())
            scraped_before = scrape(service.address)
            calibration = calibrate(300)
            wall_s = self._phase(
                client, timed=True, passes=config.min_passes, seconds=config.seconds
            )
            calibration += calibrate(300)
            scraped_after = scrape(service.address)
            cache_after = plan_cache_counters(self.answerers.values())

            samples, statuses = client.samples, client.statuses
            info = {
                "clients": 1,
                "cells": len(self.cells),
                "warmup_requests": warmup * len(self.cells),
                "passes": len(client.throughput),
                "samples": sum(len(v) for v in samples.values()),
                "wall_s": wall_s,
                "statuses": {str(k): v for k, v in sorted(statuses.items())},
                "machine": machine_speed(calibration),
            }
            if not config.trace:
                # As in the library workloads: a cell's best request and
                # the best pass.  ~370 passes find the floor whatever the
                # machine does meanwhile.
                metrics = end_to_end(samples, client.throughput, setup_s)
                return {"metrics": metrics, "info": info, "cells": samples}

            scraped = {k: scraped_after[k] - scraped_before.get(k, 0.0) for k in scraped_after}
            metrics = self._per_layer(client, samples, statuses, scraped)
            metrics.update(plan_cache_metrics(cache_before, cache_after))
            metrics["answering.slowest_cell_ms"] = max(best_ms(samples).values())
            metrics["storage.build_s"] = median(build_s)
            metrics["trace.overhead_ratio"] = 1.0  # the HTTP run itself is never traced
            metrics["failed_share"] = self.checker.failed_share
            info["spans"] = self._write_spans(client)
            return {"metrics": metrics, "info": info}
        finally:
            if self.service is not None:
                self.service.stop()

    def _per_layer(self, client, samples, statuses, scraped) -> Dict[str, float]:
        pooled = [value for values in samples.values() for value in values]
        client_ms = 1000.0 * sum(pooled) / len(pooled)
        handler_ms = 1000.0 * scraped["request_seconds_sum"] / scraped["request_seconds_count"]
        queue_ms = 1000.0 * scraped["queue_wait_seconds_sum"] / scraped["queue_wait_seconds_count"]
        payloads = [client.payloads[c.name] for c in self.cells if c.name in client.payloads]
        requests = [
            render_request("POST", "/query", self.bodies[cell.name], client.headers[0])
            for cell in self.cells
        ]
        parse_inputs = [self.texts[c.dataset][c.query] for c in self.cells] * 20
        parse_ms = 1e3 * micro.mean_seconds(parse_query, parse_inputs)
        http_parse_us = micro.http_parse_us(requests)
        serialize_ms = micro.serialize_ms(payloads)
        inprocess_ms = self._inprocess_ms()
        return {
            "query.parse_ms": parse_ms,
            "service.http_parse_us": http_parse_us,
            "service.serialize_ms": serialize_ms,
            "service.queue_wait_ms": queue_ms,
            "service.handler_ms": handler_ms,
            "service.inprocess_answer_ms": inprocess_ms,
            "service.wire_overhead_ms": client_ms - handler_ms,
            "service.request_p95_ms": 1000.0 * percentile(pooled, 0.95),
            "service.rejected_429": float(statuses.get(429, 0)),
            "service.errors_5xx": float(sum(n for s, n in statuses.items() if s >= 500)),
            # The stages measured one by one, over the client's latency.
            "trace.coverage": (http_parse_us / 1000.0 + handler_ms + serialize_ms) / client_ms,
        }

    def _inprocess_ms(self) -> float:
        """The same cells through ``answer_resilient``, no HTTP: mean of
        the per-cell best times."""
        best: List[float] = []
        for cell in self.cells:
            answerer = self.answerers[cell.dataset]
            text = self.texts[cell.dataset][cell.query]
            spent: List[float] = []
            for _ in range(15):
                started = perf_counter()
                query = parse_query(text, name=cell.query)
                answerer.answer_resilient(query, strategy=cell.strategy)
                spent.append(perf_counter() - started)
            best.append(min(spent))
        return 1000.0 * sum(best) / len(best)

    def _write_spans(self, client: Client) -> int:
        """One client-side span per timed request."""
        tracer = SpanTracer()
        for cell, pass_index, started, ended, status in client.requests:
            tracer.operation += 1
            tracer.records.append(
                (
                    tracer.operation,
                    0,
                    f"service.request.{status}",
                    started,
                    ended,
                    ended - started,
                    tracer.operation,
                    cell,
                    pass_index,
                )
            )
        tracer.write(OUT_DIR / f"trace_{self.config.workload}.jsonl")
        return len(tracer.records)
