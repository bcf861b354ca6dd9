"""One conformance suite, two doors (DESIGN.md §14 "The endpoint core").

``repro serve`` and ``repro fleet`` share one wire protocol and one
:class:`~repro.service.endpoint.HTTPEndpoint`.  Every case here runs
against both — a :class:`QueryService`, and a :class:`FleetRouter`
attached to two in-process services — through raw sockets, so framing
errors, the route table, the last-resort guard and the drain are
pinned where a client sees them.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import socket
import threading

import pytest

from oracle import make_answerer
from repro.datasets import lubm_workload
from repro.fleet import FleetRouter, HealthPolicy, Replica, RouterConfig
from repro.query import to_sparql
from repro.service import QueryService, ServiceConfig
from repro.service.http import HTTPRequest
from repro.telemetry import MetricsRegistry
from service_utils import wait_until

FAST_POLICY = HealthPolicy(interval_s=0.05, timeout_s=2.0, fall=2, rise=2)
#: 400 kB of brackets: ``json.loads`` gives up with ``RecursionError``.
DEEP_JSON = b"[" * 200_000 + b"]" * 200_000


def _service(lubm_db) -> QueryService:
    return QueryService(
        {"lubm": make_answerer(lubm_db)},
        config=ServiceConfig(workers=2),
        registry=MetricsRegistry(),
    ).start()


@pytest.fixture(params=["service", "fleet"])
def door(request, lubm_db):
    """The endpoint under test, started; stopped (again) afterwards."""
    if request.param == "service":
        endpoint = _service(lubm_db)
        backends = []
    else:
        backends = [_service(lubm_db), _service(lubm_db)]
        replicas = [
            Replica(name, *backend.address, health_policy=FAST_POLICY)
            for name, backend in zip(("alpha", "beta"), backends)
        ]
        endpoint = FleetRouter(
            replicas,
            config=RouterConfig(health=FAST_POLICY, retry_backoff_s=0.01, hedge=False),
            registry=MetricsRegistry(),
        ).start()
        assert wait_until(lambda: all(r.health.routable() for r in replicas))
    yield endpoint
    endpoint.stop()
    for backend in backends:
        backend.stop()


def _counters(door) -> dict:
    return door.metrics.as_dict()["counters"]


def _connect(door) -> socket.socket:
    return socket.create_connection(door.address, timeout=30)


def _exchange(sock: socket.socket, raw: bytes):
    """Send ``raw``, read one response: ``(status, headers, body)``.
    The socket stays open (keep-alive is the server's call)."""
    sock.sendall(raw)
    response = http.client.HTTPResponse(sock)
    response.begin()
    body = response.read()
    headers = {name.lower(): value for name, value in response.getheaders()}
    return response.status, headers, body


def _request(method: str, path: str, body: bytes = b"") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nContent-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    ).encode() + body


def _query_body() -> bytes:
    entry = next(e for e in lubm_workload() if e.name == "Q01")
    return json.dumps(
        {"query": to_sparql(entry.query), "strategy": "gcov", "dataset": "lubm"}
    ).encode()


def _peer_closed(sock: socket.socket) -> bool:
    return sock.recv(1) == b""


# ----------------------------------------------------------------------
# Framing errors: one counted 400, then the connection closes
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "raw, needle",
    [
        (b"NONSENSE\r\n\r\n", b"malformed request line"),
        (
            b"POST /query HTTP/1.1\r\nContent-Length: 4\r\n"
            b"Content-Length: 7\r\n\r\nabcd",
            b"conflicting",
        ),
    ],
    ids=["request-line", "conflicting-content-length"],
)
def test_framing_error_is_a_counted_400_then_close(door, raw, needle):
    before = _counters(door).get("rejected.bad_request", 0)
    with _connect(door) as sock:
        status, headers, body = _exchange(sock, raw)
        assert status == 400
        assert needle in body
        assert headers["connection"] == "close"
        assert _peer_closed(sock)
    assert _counters(door).get("rejected.bad_request", 0) == before + 1


# ----------------------------------------------------------------------
# The route table
# ----------------------------------------------------------------------
def test_route_table(door):
    with _connect(door) as sock:  # one keep-alive connection throughout
        status, _headers, _body = _exchange(sock, _request("GET", "/nope"))
        assert status == 404
        status, headers, _body = _exchange(sock, _request("GET", "/query"))
        assert (status, headers["allow"]) == (405, "POST")
        status, headers, _body = _exchange(sock, _request("POST", "/metrics"))
        assert (status, headers["allow"]) == (405, "GET")
        for path, content_type in [
            ("/healthz", "application/json"),
            ("/status", "application/json"),
            ("/metrics", "text/plain; charset=utf-8"),
        ]:
            status, headers, body = _exchange(sock, _request("GET", path))
            assert (status, headers["content-type"]) == (200, content_type), path
            assert headers["connection"] == "keep-alive"
        status, _headers, body = _exchange(sock, _request("GET", "/healthz"))
        assert json.loads(body)["status"] == "ok"
        if isinstance(door, QueryService):  # the executor width it computed
            _status, _headers, body = _exchange(sock, _request("GET", "/status"))
            assert json.loads(body)["workers"] == 2
        status, _headers, body = _exchange(
            sock, _request("POST", "/query", _query_body())
        )
        assert status == 200, body
        assert json.loads(body)["answer_count"] > 0


# ----------------------------------------------------------------------
# Hostile body: a client error on both doors, no retry through the fleet
# ----------------------------------------------------------------------
def test_deeply_nested_json_is_a_400(door):
    with _connect(door) as sock:
        status, _headers, body = _exchange(
            sock, _request("POST", "/query", DEEP_JSON)
        )
        assert status == 400, body
        assert json.loads(body)["code"] == "bad_request"
        # ... and the connection still serves.
        status, _headers, _body = _exchange(sock, _request("GET", "/healthz"))
        assert status == 200
    counters = _counters(door)
    assert counters.get("errors.internal", 0) == 0
    if isinstance(door, FleetRouter):
        assert counters.get("route.retries", 0) == 0
        assert counters["passthrough.400"] == 1
        assert [r["breaker"] for r in door.status()["replicas"]] == ["closed"] * 2
    else:
        assert counters["rejected.bad_request"] == 1


# ----------------------------------------------------------------------
# One timeout check on both doors: a finite number of seconds > 0
# ----------------------------------------------------------------------
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "true", "-1", '"5"'])
def test_bad_timeout_is_a_400(door, literal):
    # ``json.loads`` takes NaN and Infinity; neither is a deadline.
    body = _query_body()[:-1] + b', "timeout_s": ' + literal.encode() + b"}"
    with _connect(door) as sock:
        status, _headers, reply = _exchange(sock, _request("POST", "/query", body))
    assert status == 400, reply
    assert b"timeout_s" in reply
    if isinstance(door, FleetRouter):
        # The router routes it under its own default; the replica refuses.
        routed = door._request_budget(HTTPRequest("POST", "/query", body=body))
        assert routed.timeout_s == door.config.default_timeout_s
        assert _counters(door).get("route.retries", 0) == 0


# ----------------------------------------------------------------------
# The last-resort guard
# ----------------------------------------------------------------------
def test_escaped_handler_exception_is_a_500_and_the_connection_serves_on(
    door, monkeypatch, capsys
):
    real = door._handle_query
    calls = []

    async def raise_once(request):
        calls.append(request)
        if len(calls) == 1:
            raise RuntimeError("handler bug")
        return await real(request)

    monkeypatch.setattr(door, "_handle_query", raise_once)
    with _connect(door) as sock:
        status, headers, body = _exchange(
            sock, _request("POST", "/query", _query_body())
        )
        assert status == 500
        assert json.loads(body)["code"] == "internal"
        assert headers["connection"] == "keep-alive"
        status, _headers, body = _exchange(
            sock, _request("POST", "/query", _query_body())
        )
        assert status == 200, body
    assert _counters(door)["errors.internal"] == 1
    assert "RuntimeError: handler bug" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Drain
# ----------------------------------------------------------------------
def test_drain_answers_503_on_open_connections_then_stops(
    door, monkeypatch, capsys
):
    real = door._handle_query
    entered, release = threading.Event(), threading.Event()

    async def hold_the_first(request):
        if not entered.is_set():
            entered.set()
            while not release.is_set():  # in flight: the drain must wait
                await asyncio.sleep(0.01)
        return await real(request)

    def held_request():
        with _connect(door) as held_sock:
            _exchange(held_sock, _request("POST", "/query", _query_body()))

    monkeypatch.setattr(door, "_handle_query", hold_the_first)
    held = threading.Thread(target=held_request, daemon=True)
    try:
        with _connect(door) as sock:
            status, _headers, _body = _exchange(sock, _request("GET", "/healthz"))
            assert status == 200  # accepted before the drain, now idle
            held.start()
            assert entered.wait(30)
            door.request_drain()
            status, headers, body = _exchange(
                sock, _request("POST", "/query", _query_body())
            )
            assert status == 503
            assert json.loads(body)["code"] == "draining"
            assert headers["connection"] == "close"
            assert _peer_closed(sock)
    finally:
        release.set()
    held.join(30)
    assert not held.is_alive()
    door.stop()
    assert door._serve_thread is None
    assert f"# repro-{door.role} drained: requests=2 answered=0" in (
        capsys.readouterr().err
    )
