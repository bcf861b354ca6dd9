"""The HTTP parser's framing defenses (DESIGN.md §14).

``Content-Length`` is the only framing signal this parser honors, so
it must be airtight: non-numeric, signed, non-ASCII-digit, and
*conflicting duplicate* values are each one clean 400 — never an
unhandled exception that drops the connection, and never a silent
guess about where the body ends (request smuggling's favorite bug).

Parser-level cases feed bytes straight into ``read_request``; the
end-to-end cases speak raw sockets to a live :class:`QueryService`, so
the 400 path is proven through the real connection handler too.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from oracle import make_answerer
from repro.fleet.router import _read_upstream_response
from repro.service import QueryService, ServiceConfig
from repro.service.http import BadRequest, read_request, render_request


def parse(raw: bytes):
    """Run ``read_request`` over literal bytes."""

    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        return await read_request(reader)

    return asyncio.run(go())


def _request(length_lines: str, body: bytes = b"") -> bytes:
    # UTF-8 on purpose: a peer sending non-ASCII digits puts multibyte
    # sequences on the wire; the parser sees their latin-1 reading.
    return (
        f"POST /query HTTP/1.1\r\n{length_lines}\r\n".encode("utf-8") + body
    )


class TestContentLengthParsing:
    def test_valid_body_parses(self):
        request = parse(_request("Content-Length: 4\r\n", b"abcd"))
        assert request is not None and request.body == b"abcd"

    @pytest.mark.parametrize(
        "value",
        [
            "abc",  # non-numeric
            "-1",  # negative
            "+5",  # int() takes a sign; the RFC grammar does not
            "1_0",  # int() takes separators
            " 5 5",  # embedded whitespace
            "4.0",  # not an integer
            "٥",  # ARABIC-INDIC FIVE: isdigit() but not ASCII
            "",  # empty value
        ],
    )
    def test_malformed_value_is_bad_request(self, value):
        with pytest.raises(BadRequest):
            parse(_request(f"Content-Length: {value}\r\n", b"xxxxx"))

    def test_conflicting_duplicates_are_bad_request(self):
        with pytest.raises(BadRequest, match="conflicting"):
            parse(
                _request("Content-Length: 4\r\nContent-Length: 2\r\n", b"abcd")
            )

    def test_agreeing_duplicates_parse(self):
        request = parse(
            _request("Content-Length: 4\r\nContent-Length: 4\r\n", b"abcd")
        )
        assert request is not None and request.body == b"abcd"

    def test_oversized_length_is_bad_request(self):
        with pytest.raises(BadRequest, match="cap"):
            parse(_request("Content-Length: 99999999\r\n"), )


class TestUpstreamResponseFraming:
    """The router reads replica responses through the same bounded
    start-line + header reader as ``read_request``."""

    @staticmethod
    def read(raw: bytes):
        async def go():
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            return await _read_upstream_response(reader)

        return asyncio.run(go())

    def test_well_formed_response_parses(self):
        outcome = self.read(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}")
        assert (outcome.status, outcome.body) == (200, b"{}")

    def test_line_past_the_stream_limit_is_a_protocol_error(self):
        with pytest.raises(BadRequest, match="too long"):
            self.read(b"HTTP/1.1 200 OK\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n")

    def test_header_block_is_bounded(self):
        padding = b"".join(b"X-%d: %s\r\n" % (i, b"a" * 1000) for i in range(40))
        with pytest.raises(BadRequest, match="too large"):
            self.read(b"HTTP/1.1 200 OK\r\n" + padding + b"\r\n")

    def test_conflicting_content_lengths_are_a_protocol_error(self):
        with pytest.raises(BadRequest, match="conflicting"):
            self.read(
                b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\n{}"
            )

    def test_hangup_inside_headers_is_a_short_read(self):
        with pytest.raises(asyncio.IncompleteReadError):
            self.read(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n")


class TestRenderRequest:
    def test_round_trips_through_read_request(self):
        raw = render_request(
            "POST", "/query", b'{"query": "x"}', {"X-Api-Key": "k"}
        )
        request = parse(raw)
        assert request is not None
        assert request.method == "POST"
        assert request.path == "/query"
        assert request.headers["x-api-key"] == "k"
        assert request.body == b'{"query": "x"}'


# ----------------------------------------------------------------------
# End to end: malformed framing against a live service
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def service(lubm_db):
    svc = QueryService(
        {"lubm": make_answerer(lubm_db)},
        config=ServiceConfig(workers=2),
    ).start()
    yield svc
    svc.stop()


def _raw_exchange(service, payload: bytes) -> bytes:
    host, port = service.address
    with socket.create_connection((host, port), timeout=30) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            data = sock.recv(65536)
            if not data:
                break
            chunks.append(data)
    return b"".join(chunks)


def test_live_service_answers_400_on_bad_content_length(service):
    response = _raw_exchange(
        service, b"POST /query HTTP/1.1\r\nContent-Length: nope\r\n\r\n"
    )
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"Content-Length" in response


def test_live_service_answers_400_on_conflicting_lengths(service):
    response = _raw_exchange(
        service,
        b"POST /query HTTP/1.1\r\n"
        b"Content-Length: 4\r\nContent-Length: 7\r\n\r\nabcd",
    )
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"conflicting" in response


@pytest.mark.parametrize(
    "payload",
    [
        b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n",
        b"GET /healthz HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n",
    ],
    ids=["request-line", "header-line"],
)
def test_live_service_answers_400_on_a_line_past_the_stream_limit(service, payload):
    # asyncio reports such a line as a bare ValueError; it used to kill
    # the connection task instead of producing a response.
    response = _raw_exchange(service, payload)
    assert response.startswith(b"HTTP/1.1 400 ")
    assert b"too long" in response
    # ... and the service keeps serving the next connection.
    response = _raw_exchange(service, b"GET /healthz HTTP/1.1\r\n\r\n")
    assert response.startswith(b"HTTP/1.1 200 ")


def test_live_service_still_answers_well_formed_requests(service):
    # The same connection handler that rejected the frames above still
    # serves a real query (the hardening didn't over-reject).
    body = (
        b'{"query": "SELECT ?x WHERE { ?x a ub:Professor }", '
        b'"prefixes": {"ub": "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"},'
        b' "dataset": "lubm"}'
    )
    response = _raw_exchange(
        service,
        b"POST /query HTTP/1.1\r\nContent-Type: application/json\r\n"
        + f"Content-Length: {len(body)}\r\n\r\n".encode()
        + body,
    )
    assert response.startswith(b"HTTP/1.1 200 ")
