"""The replicated serving fleet (DESIGN.md §15).

Four layers, cheapest first:

* :class:`ReplicaHealth` state-machine units on a manual clock — every
  transition of the PROBATION/UP/DOWN diagram, streak by streak;
* :class:`ChaosProxy` units — the six-draw determinism contract, the
  ``max_faults`` bound, and each socket-level fault observed from a
  real client against a real backend;
* attach-mode :class:`FleetRouter` tests over in-process
  :class:`QueryService` replicas — routing, failover, hedging, drain,
  and the passthrough/error surface, all without subprocesses;
* the seeded acceptance scenario: three ``repro serve`` subprocess
  replicas, a chaos proxy fronting one, SIGKILL of another mid-load —
  zero wrong answers, ≥99% success, and the killed replica restarts
  and serves traffic again.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import socket
import sys
import threading
import time
from pathlib import Path

import pytest

from oracle import make_answerer
from repro.datasets import lubm_workload
from repro.engine import NativeEngine
from repro.fleet import (
    DOWN,
    PROBATION,
    UP,
    ChaosProxy,
    FleetRouter,
    HealthPolicy,
    ProxyChaosConfig,
    Replica,
    ReplicaHealth,
    RouterConfig,
)
from repro.fleet.replicas import ReplicaProcess, spawn_fleet
from repro.query import to_sparql
from repro.service import QueryService, ServiceConfig
from repro.telemetry import MetricsRegistry
from service_utils import get, post_query, render_rows, wait_until

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


class ManualClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now


# ----------------------------------------------------------------------
# ReplicaHealth: the mark-down/mark-up state machine
# ----------------------------------------------------------------------
class TestReplicaHealth:
    def make(self, fall=2, rise=2):
        policy = HealthPolicy(fall=fall, rise=rise, ewma_alpha=0.2)
        return ReplicaHealth(policy, clock=ManualClock())

    def test_starts_in_probation_and_unroutable(self):
        health = self.make()
        assert health.state() == PROBATION
        assert not health.routable()

    def test_rise_consecutive_successes_reach_up(self):
        health = self.make(rise=2)
        assert health.record_probe(True, 0.01) == PROBATION
        assert health.record_probe(True, 0.01) == UP
        assert health.routable()
        assert health.mark_ups == 1

    def test_probation_failure_is_immediate_down(self):
        health = self.make(rise=3)
        health.record_probe(True, 0.01)
        assert health.record_probe(False, error="boom") == DOWN
        # The streak starts over: one success is PROBATION, not UP.
        assert health.record_probe(True, 0.01) == PROBATION

    def test_fall_consecutive_failures_take_up_down(self):
        health = self.make(fall=2)
        health.record_probe(True, 0.01)
        health.record_probe(True, 0.01)
        assert health.record_probe(False) == UP  # one strike survives
        assert health.record_probe(False) == DOWN
        assert health.mark_downs == 1
        assert not health.routable()

    def test_success_interrupts_the_fall_streak(self):
        health = self.make(fall=2)
        health.record_probe(True, 0.01)
        health.record_probe(True, 0.01)
        health.record_probe(False)
        health.record_probe(True, 0.01)  # streak reset
        assert health.record_probe(False) == UP

    def test_recovery_path_down_probation_up(self):
        health = self.make(rise=2)
        health.record_probe(False)
        assert health.state() == DOWN
        # First success re-enters PROBATION as rung 1 of the rise.
        assert health.record_probe(True, 0.01) == PROBATION
        assert health.record_probe(True, 0.01) == UP

    def test_force_down_counts_only_from_up(self):
        health = self.make()
        health.force_down("process died")
        assert health.state() == DOWN
        assert health.mark_downs == 0  # it never was UP
        health.record_probe(True, 0.01)
        health.record_probe(True, 0.01)
        health.force_down("process died again")
        assert health.mark_downs == 1
        assert health.snapshot()["last_error"] == "process died again"

    def test_ewma_updates_on_success_only(self):
        health = self.make()
        health.record_probe(True, 0.1)
        assert health.ewma_s() == pytest.approx(0.1)
        health.record_probe(True, 0.2)
        assert health.ewma_s() == pytest.approx(0.8 * 0.1 + 0.2 * 0.2)
        health.record_probe(False, 9.9, error="timeout")
        assert health.ewma_s() == pytest.approx(0.8 * 0.1 + 0.2 * 0.2)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            HealthPolicy(fall=0)
        with pytest.raises(ValueError):
            HealthPolicy(ewma_alpha=0.0)


# ----------------------------------------------------------------------
# ChaosProxy: determinism contract
# ----------------------------------------------------------------------
MIXED = ProxyChaosConfig(
    seed=42,
    refuse_rate=0.1,
    hang_rate=0.05,
    reset_rate=0.2,
    truncate_rate=0.1,
    garble_rate=0.1,
    delay_rate=0.3,
)


class TestChaosProxyDeterminism:
    def test_rates_are_validated(self):
        with pytest.raises(ValueError, match="refuse_rate"):
            ProxyChaosConfig(refuse_rate=1.5)

    def test_same_seed_same_fault_sequence(self):
        a = ChaosProxy("127.0.0.1", 1, MIXED)
        b = ChaosProxy("127.0.0.1", 1, MIXED)
        for _ in range(100):
            a._decide()
            b._decide()
        assert a.log == b.log
        assert a.counts == b.counts
        assert a.log, "a mixed campaign over 100 connections injects faults"

    def test_reset_replays_the_campaign(self):
        proxy = ChaosProxy("127.0.0.1", 1, MIXED)
        first = [proxy._decide() for _ in range(50)]
        log = list(proxy.log)
        proxy.reset()
        second = [proxy._decide() for _ in range(50)]
        assert first == second
        assert proxy.log == log

    def test_different_seed_diverges(self):
        a = ChaosProxy("127.0.0.1", 1, MIXED)
        b = ChaosProxy("127.0.0.1", 1, ProxyChaosConfig(**{
            **{f.name: getattr(MIXED, f.name) for f in MIXED.__dataclass_fields__.values()},
            "seed": 43,
        }))
        for _ in range(100):
            a._decide()
            b._decide()
        assert a.log != b.log

    def test_max_faults_bounds_the_campaign(self):
        proxy = ChaosProxy(
            "127.0.0.1", 1, ProxyChaosConfig(refuse_rate=1.0, max_faults=2)
        )
        decisions = [proxy._decide() for _ in range(5)]
        assert proxy.faults_injected == 2
        assert [fault for _, fault, _ in decisions] == [
            "refuse", "refuse", None, None, None,
        ]

    def test_delay_is_exempt_from_the_fault_budget(self):
        proxy = ChaosProxy(
            "127.0.0.1", 1,
            ProxyChaosConfig(refuse_rate=1.0, delay_rate=1.0, max_faults=1),
        )
        for _ in range(4):
            proxy._decide()
        assert proxy.faults_injected == 1
        assert proxy.counts["delay"] == 4


# ----------------------------------------------------------------------
# ChaosProxy: observed socket behavior
# ----------------------------------------------------------------------
class _Backend:
    """A one-response TCP backend (fixed HTTP payload, then close)."""

    def __init__(self) -> None:
        body = json.dumps({"rows": list(range(300))}).encode("utf-8")
        self.payload = (
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/json\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            + body
        )
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(16)
        self.address = self._listener.getsockname()[:2]
        threading.Thread(target=self._serve, daemon=True).start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            threading.Thread(target=self._answer, args=(conn,), daemon=True).start()

    def _answer(self, conn: socket.socket) -> None:
        try:
            while b"\r\n\r\n" not in (request := conn.recv(65536)):
                if not request:
                    break
            conn.sendall(self.payload)
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    def close(self) -> None:
        self._listener.close()


def _exchange(address) -> bytes:
    """One raw request through the proxy; returns all response bytes."""
    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


class TestChaosProxySockets:
    @pytest.fixture()
    def backend(self):
        backend = _Backend()
        yield backend
        backend.close()

    def run_proxy(self, backend, config):
        proxy = ChaosProxy(*backend.address, config=config).start()
        return proxy

    def test_clean_campaign_is_a_faithful_proxy(self, backend):
        proxy = self.run_proxy(backend, ProxyChaosConfig(seed=1))
        try:
            assert _exchange(proxy.address) == backend.payload
            assert proxy.faults_injected == 0
        finally:
            proxy.stop()

    def test_refuse_resets_the_connection(self, backend):
        proxy = self.run_proxy(backend, ProxyChaosConfig(seed=1, refuse_rate=1.0))
        try:
            with pytest.raises(OSError):
                _exchange(proxy.address)
            assert proxy.counts == {"refuse": 1}
        finally:
            proxy.stop()

    def test_truncate_is_a_clean_short_read(self, backend):
        proxy = self.run_proxy(backend, ProxyChaosConfig(seed=1, truncate_rate=1.0))
        try:
            received = _exchange(proxy.address)  # orderly FIN, no error
            assert 0 < len(received) < len(backend.payload)
        finally:
            proxy.stop()

    def test_garble_corrupts_the_payload(self, backend):
        proxy = self.run_proxy(backend, ProxyChaosConfig(seed=1, garble_rate=1.0))
        try:
            received = _exchange(proxy.address)
            assert received != backend.payload
            assert len(received) > 0
        finally:
            proxy.stop()


# ----------------------------------------------------------------------
# FleetRouter over in-process QueryService replicas (attach mode)
# ----------------------------------------------------------------------
FAST_POLICY = HealthPolicy(interval_s=0.05, timeout_s=2.0, fall=2, rise=2)


def _q(name: str = "Q01"):
    entry = next(e for e in lubm_workload() if e.name == name)
    return entry.query, to_sparql(entry.query)


def _payload(text: str) -> dict:
    return {"query": text, "strategy": "gcov"}


def _service(lubm_db, engine=None, workers=2, queue_depth=32) -> QueryService:
    return QueryService(
        {"lubm": make_answerer(lubm_db, engine=engine)},
        config=ServiceConfig(workers=workers, queue_depth=queue_depth),
    ).start()


def _router(replicas, **overrides) -> FleetRouter:
    config = RouterConfig(
        **{"health": FAST_POLICY, "retry_backoff_s": 0.01, **overrides}
    )
    return FleetRouter(replicas, config=config, registry=MetricsRegistry())


def _await_up(replicas, timeout_s=15.0):
    assert wait_until(
        lambda: all(r.health.routable() for r in replicas), timeout_s=timeout_s
    ), [r.health.snapshot() for r in replicas]


def _dead_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class SlowEngine:
    """Adds a fixed evaluation delay (the hedgeable straggler)."""

    def __init__(self, inner, delay_s: float) -> None:
        self.inner = inner
        self.delay_s = delay_s

    def evaluate(self, query, **kwargs):
        time.sleep(self.delay_s)
        return self.inner.evaluate(query, **kwargs)

    def __getattr__(self, name):
        return getattr(self.inner, name)


@pytest.fixture()
def pair(lubm_db):
    """Two healthy in-process replicas behind one started router."""
    services = [_service(lubm_db), _service(lubm_db)]
    replicas = [
        Replica(name, *svc.address, health_policy=FAST_POLICY)
        for name, svc in zip(("alpha", "beta"), services)
    ]
    router = _router(replicas).start()
    _await_up(replicas)
    yield router, replicas, services
    router.stop()
    for svc in services:
        svc.stop()


class TestFleetRouting:
    def test_routes_and_answers_with_served_by(self, pair, lubm_db):
        router, _replicas, _services = pair
        host, port = router.address
        query, text = _q()
        expected = render_rows(
            make_answerer(lubm_db).answer(query, strategy="saturation").answers
        )
        status, headers, body = post_query(host, port, _payload(text))
        assert status == 200, body
        assert body["rows"] == expected
        assert headers["X-Served-By"] in {"alpha", "beta"}

    def test_round_robin_spreads_serial_traffic(self, pair):
        router, _replicas, _services = pair
        host, port = router.address
        _query, text = _q()
        served = set()
        for _ in range(6):
            status, headers, _body = post_query(host, port, _payload(text))
            assert status == 200
            served.add(headers["X-Served-By"])
        assert served == {"alpha", "beta"}

    def test_4xx_passes_straight_through(self, pair):
        router, _replicas, _services = pair
        host, port = router.address
        status, headers, body = post_query(host, port, {"nonsense": True})
        assert status == 400, body
        assert body["code"] == "bad_request"
        assert "X-Served-By" in headers  # a working replica answered

    def test_http_surface(self, pair):
        router, _replicas, _services = pair
        host, port = router.address
        status, _headers, body = get(host, port, "/healthz")
        assert (status, body["status"], body["replicas_up"]) == (200, "ok", 2)
        status, _headers, body = get(host, port, "/status")
        assert status == 200 and body["role"] == "fleet-router"
        assert [r["name"] for r in body["replicas"]] == ["alpha", "beta"]
        assert all(r["health"]["state"] == "up" for r in body["replicas"])
        status, _headers, text = get(host, port, "/metrics")
        assert status == 200 and "repro_fleet_replica_up" in text
        status, _headers, body = get(host, port, "/nope")
        assert status == 404
        status, _headers, _body = get(host, port, "/query")
        assert status == 405

    def test_failover_retries_onto_the_surviving_replica(self, lubm_db):
        """A freshly-dead (still UP) replica costs a retry, not an error."""
        services = [_service(lubm_db), _service(lubm_db)]
        # Probes every 5s: health stays UP while we test the data path.
        slow_probes = HealthPolicy(interval_s=5.0, timeout_s=2.0)
        replicas = [
            Replica(name, *svc.address, health_policy=slow_probes)
            for name, svc in zip(("alpha", "beta"), services)
        ]
        router = _router(replicas, health=slow_probes).start()
        try:
            _await_up(replicas)
            host, port = router.address
            query, text = _q()
            expected = render_rows(
                make_answerer(lubm_db).answer(query, strategy="saturation").answers
            )
            services[0].stop()  # alpha's port now refuses connections
            for _ in range(2):
                status, headers, body = post_query(host, port, _payload(text))
                assert status == 200, body
                assert body["rows"] == expected
                assert headers["X-Served-By"] == "beta"
            counters = router.metrics.as_dict()["counters"]
            assert counters.get("route.failover", 0) >= 1
            assert counters.get("upstream.error.connect", 0) >= 1
        finally:
            router.stop()
            for svc in services:
                svc.stop()

    def test_hedged_request_wins_on_the_fast_replica(self, lubm_db):
        fast = _service(lubm_db)
        slow = _service(
            lubm_db, engine=SlowEngine(NativeEngine(lubm_db), 0.4), workers=8
        )
        replicas = [
            Replica("fast", *fast.address, health_policy=FAST_POLICY),
            Replica("slow", *slow.address, health_policy=FAST_POLICY),
        ]
        router = _router(replicas, hedge=True, hedge_after_s=0.05).start()
        try:
            _await_up(replicas)
            host, port = router.address
            _query, text = _q()
            for _ in range(6):
                status, headers, body = post_query(host, port, _payload(text))
                assert status == 200, body
                assert headers["X-Served-By"] == "fast"
            counters = router.metrics.as_dict()["counters"]
            assert counters.get("route.hedged", 0) >= 1
            assert counters.get("route.hedge_wins", 0) >= 1
        finally:
            router.stop()
            fast.stop()
            slow.stop()

    def test_no_routable_replica_is_503(self):
        replica = Replica("ghost", "127.0.0.1", _dead_port(), health_policy=FAST_POLICY)
        router = _router([replica]).start()
        try:
            host, port = router.address
            _query, text = _q()
            status, headers, body = post_query(host, port, _payload(text))
            assert status == 503, body
            assert body["code"] == "no_replicas"
            assert headers["Retry-After"] == "1"
        finally:
            router.stop()

    def test_budget_exhaustion_is_504(self):
        replica = Replica("ghost", "127.0.0.1", _dead_port(), health_policy=FAST_POLICY)
        router = _router([replica], max_attempts=8).start()
        try:
            host, port = router.address
            _query, text = _q()
            payload = {**_payload(text), "timeout_s": 0.05}
            status, _headers, body = post_query(host, port, payload)
            assert status == 504, body
            assert body["code"] == "timeout"
        finally:
            router.stop()

    def test_drain_finishes_in_flight_and_rejects_late(self, lubm_db):
        slow = _service(
            lubm_db, engine=SlowEngine(NativeEngine(lubm_db), 0.5), workers=4
        )
        replicas = [Replica("only", *slow.address, health_policy=FAST_POLICY)]
        router = _router(replicas, hedge=False).start()
        try:
            _await_up(replicas)
            host, port = router.address
            _query, text = _q()
            late_conn = http.client.HTTPConnection(host, port, timeout=30)
            late_conn.connect()
            results = {}

            def fire():
                results["inflight"] = post_query(
                    host, port, _payload(text), timeout_s=60
                )

            thread = threading.Thread(target=fire, daemon=True)
            thread.start()
            assert wait_until(lambda: replicas[0].in_flight() == 1, timeout_s=10)
            router.request_drain()
            status, _headers, body = post_query(
                host, port, _payload(text), conn=late_conn
            )
            assert status == 503, body
            assert body["code"] == "draining"
            thread.join(60)
            status, _headers, body = results["inflight"]
            assert status == 200, body
        finally:
            router.stop()
            slow.stop()
        assert router._serve_thread is None

    def test_duplicate_replica_names_rejected(self):
        replicas = [
            Replica("twin", "127.0.0.1", 1),
            Replica("twin", "127.0.0.1", 2),
        ]
        with pytest.raises(ValueError, match="duplicate"):
            FleetRouter(replicas, registry=MetricsRegistry())


# ----------------------------------------------------------------------
# The seeded acceptance scenario (ISSUE 9)
# ----------------------------------------------------------------------
ACCEPTANCE_SEED = 20260807


@pytest.mark.slow
def test_fleet_survives_sigkill_and_socket_chaos(tmp_path, lubm_db):
    """Three subprocess replicas; one is SIGKILLed mid-load while a
    seeded ChaosProxy resets/refuses connections to a second.  The
    fleet serves on: zero answer mismatches against the serial oracle,
    ≥99% request success, and the killed replica is restarted by the
    supervisor and serves traffic again.
    """
    oracle = make_answerer(lubm_db)
    workload = []
    for entry in list(lubm_workload())[:3]:
        expected = render_rows(
            oracle.answer(entry.query, strategy="saturation").answers
        )
        workload.append((to_sparql(entry.query), expected))

    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_ROOT) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [sys.executable, "-m", "repro", "serve", "--lubm", "1", "--workers", "2"]
    processes = [
        ReplicaProcess(name, argv, tmp_path / "fleet", env=env, backoff_s=0.2)
        for name in ("r0", "r1", "r2")
    ]
    ports = dict(spawn_fleet(processes, startup_timeout_s=120.0))

    # The chaos proxy fronts r1's data path; probes go to the real
    # port so socket chaos degrades requests, not health.
    proxy = ChaosProxy(
        "127.0.0.1", ports["r1"], ProxyChaosConfig(seed=ACCEPTANCE_SEED)
    ).start()
    policy = HealthPolicy(interval_s=0.15, timeout_s=1.0, fall=2, rise=2)
    replicas = [
        Replica(
            "r0", "127.0.0.1", ports["r0"],
            process=processes[0], health_policy=policy,
        ),
        Replica(
            "r1", proxy.address[0], proxy.address[1],
            probe_host="127.0.0.1", probe_port=ports["r1"],
            process=processes[1], health_policy=policy,
        ),
        Replica(
            "r2", "127.0.0.1", ports["r2"],
            process=processes[2], health_policy=policy,
        ),
    ]
    config = RouterConfig(
        max_attempts=5,
        retry_backoff_s=0.02,
        hedge=False,
        health=policy,
        breaker_cooldown_s=0.5,
        replica_grace_s=5.0,
    )
    router = FleetRouter(replicas, config=config, registry=MetricsRegistry())
    stats = {"total": 0, "ok": 0, "mismatch": 0}
    try:
        router.start()
        host, port = router.address
        _await_up(replicas, timeout_s=30.0)

        def drive(count: int, served=None) -> None:
            for i in range(count):
                text, expected = workload[i % len(workload)]
                status, headers, body = post_query(
                    host, port, _payload(text), timeout_s=60
                )
                stats["total"] += 1
                if status == 200:
                    stats["ok"] += 1
                    if body["rows"] != expected:
                        stats["mismatch"] += 1
                    if served is not None:
                        served.add(headers.get("X-Served-By"))

        # Phase 1 — clean fleet.
        drive(9)
        assert stats == {"total": 9, "ok": 9, "mismatch": 0}

        # Phase 2 — SIGKILL r0 mid-load; chaos on r1's data path.
        proxy.reconfigure(
            ProxyChaosConfig(
                seed=ACCEPTANCE_SEED, reset_rate=0.2, refuse_rate=0.1
            )
        )
        r0_pid = processes[0].pid
        assert r0_pid is not None
        os.kill(r0_pid, signal.SIGKILL)
        drive(24)

        # Phase 3 — the supervisor restarts r0 and it rejoins the
        # rotation (a fresh pid, re-admitted through PROBATION).
        assert wait_until(
            lambda: processes[0].restarts >= 1 and replicas[0].health.routable(),
            timeout_s=90.0,
        ), router.status()
        assert processes[0].pid != r0_pid
        served: set = set()
        drive(9, served)
        for _ in range(8):  # rotation covers all three quickly
            if "r0" in served:
                break
            drive(3, served)
        assert "r0" in served, served

        assert stats["mismatch"] == 0, stats
        assert stats["ok"] / stats["total"] >= 0.99, stats
        counters = router.status()["counters"]
        assert counters.get("replica.restarts", 0) >= 1
        assert counters.get("health.mark_down", 0) >= 1
        # 3 boots + at least the r0 rejoin.
        assert counters.get("health.mark_up", 0) >= 4
    finally:
        proxy.stop()
        router.stop()  # also terminates the managed replicas
        for process in processes:
            process.terminate(grace_s=5.0)
