"""A minimal asyncio HTTP/1.1 layer (stdlib only; DESIGN.md §14).

Just enough HTTP for the front doors (:mod:`~repro.service.endpoint`)
and the fleet router's upstream side: start-line + header parsing,
``Content-Length`` bodies, keep-alive, and a writer, for requests and
responses alike.  The parser is deliberately strict and bounded — malformed framing raises
:class:`BadRequest` (one 400 response, then the connection closes)
and oversized headers/bodies raise before anything is buffered
unbounded.  No chunked encoding, no HTTP/2, no TLS: the service is an
internal front-end that sits behind real infrastructure in any
deployment that needs those.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Set, Tuple
from urllib.parse import parse_qsl, unquote

#: Hard parser bounds (bytes).
MAX_REQUEST_LINE = 8192
MAX_HEADER_BYTES = 32768
DEFAULT_MAX_BODY = 1 << 20  # 1 MiB of query text is already absurd

REASONS = {
    200: "OK",
    400: "Bad Request",
    401: "Unauthorized",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


class BadRequest(Exception):
    """Malformed HTTP framing; the handler answers 400 and closes."""


@dataclass
class HTTPRequest:
    """One parsed request: method, split target, headers, raw body."""

    method: str
    path: str
    query: Dict[str, str] = field(default_factory=dict)
    headers: Dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 keep-alive semantics (``Connection: close`` opts out)."""
        return self.headers.get("connection", "").lower() != "close"

    def json(self) -> Any:
        """The body decoded as JSON; :class:`BadRequest` on garbage."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as error:
            # RecursionError: a body of 200 000 "[" is a client error too.
            raise BadRequest(f"request body is not valid JSON: {error}") from error


async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
    """``reader.readline()``; a line that outruns the stream's own buffer
    limit (64 KiB by default) surfaces there as a bare ``ValueError``."""
    try:
        return await reader.readline()
    except ValueError as error:
        raise BadRequest(f"{what} too long") from error


async def read_head(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[bytes, Dict[str, str]]]:
    """The start line and header block of one HTTP/1.1 message, bounded.

    The one framing reader for both directions: :func:`read_request`
    inbound and :func:`read_response` from a replica.  Returns
    ``(start_line, headers)`` — header names lower-cased, the last
    value of a repeated header kept — or ``None`` when the stream ends,
    or holds a bare line end, where a start line should be.

    Raises :class:`BadRequest` for a start line over
    :data:`MAX_REQUEST_LINE`, a header block over
    :data:`MAX_HEADER_BYTES`, a header line without a colon or
    ``Content-Length`` headers that disagree, and
    ``asyncio.IncompleteReadError`` when the peer hangs up inside the
    header block.
    """
    line = await _read_line(reader, "start line")
    if not line or line in (b"\r\n", b"\n"):
        return None
    if len(line) > MAX_REQUEST_LINE:
        raise BadRequest("start line too long")
    headers: Dict[str, str] = {}
    content_lengths: Set[str] = set()
    header_bytes = 0
    while True:
        raw = await _read_line(reader, "header line")
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise asyncio.IncompleteReadError(b"", None)
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise BadRequest("headers too large")
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise BadRequest(f"malformed header line: {raw!r}")
        name = name.strip().lower()
        value = value.strip()
        if name == "content-length":
            # Conflicting duplicates are a request-smuggling staple
            # (RFC 9112 §6.3): never let last-wins paper over them.
            content_lengths.add(value)
        headers[name] = value
    if len(content_lengths) > 1:
        raise BadRequest(
            f"conflicting Content-Length headers: {sorted(content_lengths)}"
        )
    return line, headers


def _content_length(headers: Mapping[str, str]) -> Optional[int]:
    """The declared body length; None when the header is absent."""
    text = headers.get("content-length")
    if text is None:
        return None
    # int() is looser than the RFC 9110 1*DIGIT grammar — it takes
    # "+5", "1_0", unicode digits, surrounding whitespace.  A peer
    # sending any of those disagrees with us about framing, which
    # is exactly when parsing must stop, not guess.
    if not (text.isascii() and text.isdigit()):
        raise BadRequest(f"bad Content-Length {text!r}")
    return int(text)


async def read_request(reader: asyncio.StreamReader) -> Optional[HTTPRequest]:
    """Parse one request off the stream; None on a clean EOF.

    Raises :class:`BadRequest` on malformed framing or a body over
    :data:`DEFAULT_MAX_BODY`, and ``asyncio.IncompleteReadError`` when
    the peer hangs up mid-message.
    """
    try:
        head = await read_head(reader)
    except ConnectionResetError:
        return None
    if head is None:
        return None
    line, headers = head
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(f"malformed request line: {line!r}")
    method, target, _version = parts
    body = b""
    length = _content_length(headers)
    if length:
        if length > DEFAULT_MAX_BODY:
            raise BadRequest(
                f"body of {length} bytes exceeds the {DEFAULT_MAX_BODY} cap"
            )
        body = await reader.readexactly(length)
    path, _, query_string = target.partition("?")
    query = dict(parse_qsl(query_string, keep_blank_values=True))
    return HTTPRequest(
        method=method.upper(),
        path=unquote(path),
        query=query,
        headers=headers,
        body=body,
    )


async def read_response(
    reader: asyncio.StreamReader,
) -> Tuple[int, Dict[str, str], bytes]:
    """Parse one response off the stream: ``(status, headers, body)``.

    The client side of :func:`read_request` (the fleet router reads its
    replicas through it): same bounded head, same ``Content-Length``
    rule; without the header the body runs to EOF.  Raises
    :class:`BadRequest` on malformed framing and
    ``asyncio.IncompleteReadError`` on a hang-up, also before the
    status line.
    """
    head = await read_head(reader)
    if head is None:
        raise asyncio.IncompleteReadError(b"", None)
    line, headers = head
    parts = line.decode("latin-1").strip().split(None, 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/1."):
        raise BadRequest(f"malformed status line: {line!r}")
    try:
        status = int(parts[1])
    except ValueError as error:
        raise BadRequest(f"malformed status code: {line!r}") from error
    length = _content_length(headers)
    if length is None:
        body = await reader.read()
    else:
        body = await reader.readexactly(length)
    return status, headers, body


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Mapping[str, str]] = None,
    keep_alive: bool = True,
) -> bytes:
    """The full response bytes for one exchange."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    for name, value in (extra_headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def write_response(
    writer: asyncio.StreamWriter,
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: Optional[Mapping[str, str]] = None,
    keep_alive: bool = True,
) -> None:
    """Write one response and flush it."""
    writer.write(
        render_response(status, body, content_type, extra_headers, keep_alive)
    )
    await writer.drain()


def render_request(
    method: str,
    path: str,
    body: bytes = b"",
    headers: Optional[Mapping[str, str]] = None,
) -> bytes:
    """The full request bytes for one upstream exchange.

    The fleet router's client side of this parser: ``Content-Length``
    is always emitted (our own ``read_request`` wants explicit
    framing), everything else comes from ``headers``.
    """
    lines = [f"{method} {path} HTTP/1.1"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_body(payload: Any) -> Tuple[bytes, str]:
    """``(body, content_type)`` for a JSON payload."""
    return (json.dumps(payload).encode("utf-8") + b"\n", "application/json")


#: What a route handler returns: ``(status, body, content_type,
#: extra_headers)`` — :func:`write_response`'s arguments, in order.
Response = Tuple[int, bytes, str, Dict[str, str]]


def json_response(
    status: int, payload: Any, headers: Optional[Dict[str, str]] = None
) -> Response:
    """A :data:`Response` carrying a JSON payload."""
    return (status, *json_body(payload), headers if headers is not None else {})
