"""Fuzzing the two hand-written parsers (ROADMAP cross-cutting rule).

Whatever text reaches :func:`parse_query` and whatever bytes reach
:func:`read_request`, the outcome is a value or the parser's own typed
error — never another exception (a 500 at the service) and never a
hang.
"""

from __future__ import annotations

import asyncio

from hypothesis import example, given, settings, strategies as st

from repro.query import BGPQuery, SPARQLSyntaxError, parse_query
from repro.service.http import BadRequest, HTTPRequest, read_request

#: Lexemes of the BGP grammar plus near misses, so token soup gets past
#: the tokenizer and into every branch of the recursive descent.
_LEXEMES = st.sampled_from(
    [
        "SELECT", "select", "WHERE", "PREFIX", "a", "{", "}", ".", ":",
        "?x", "?y", "?", "<http://ex/C>", "<>", "<unclosed", "ex:C",
        "rdf:type", "rdfs:", "nope:C", '"lit"', '"half', '"esc\\"', "#c\n",
        "ex", " ", "\n", "*", "\x00",
    ]
)


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        st.lists(_LEXEMES, max_size=24).map(" ".join),
        st.text(max_size=80),
    )
)
@example("SELECT ?x WHERE { ?x a <http://ex/C> }")
@example("SELECT ?x WHERE { ?y a <http://ex/C> }")
@example('SELECT ?x WHERE { "lit" ?x ?x }')
@example("PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x ex:p ?x . }")
def test_parse_query_returns_a_query_or_a_syntax_error(text):
    try:
        query = parse_query(text)
    except SPARQLSyntaxError:
        return
    assert isinstance(query, BGPQuery)


def _read(raw: bytes):
    async def go():
        reader = asyncio.StreamReader()
        reader.feed_data(raw)
        reader.feed_eof()
        # The stream is at EOF, so every read returns at once; the
        # timeout turns a parser that loops anyway into a failure.
        return await asyncio.wait_for(read_request(reader), timeout=5)

    return asyncio.run(go())


_HTTP_LINES = st.sampled_from(
    [
        b"GET / HTTP/1.1", b"POST /query?x=1&y HTTP/1.1", b"GET /", b"HTTP/1.1",
        b"Content-Length: 3", b"Content-Length: 0", b"Content-Length: -1",
        b"Content-Length: 99999999", b"Host: h", b"no colon", b": empty",
        b"Connection: close", b"abc", b"", b"\xff\xfe",
    ]
)


@settings(max_examples=600, deadline=None)
@given(
    st.one_of(
        st.lists(_HTTP_LINES, max_size=8).map(b"\r\n".join),
        st.binary(max_size=200),
    )
)
@example(b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n")
@example(b"GET / HTTP/1.1\r\nX-Pad: " + b"a" * 70_000 + b"\r\n\r\n")
@example(b"GET / HTTP/1.1\r\nX-Pad: 1\r\n")
def test_read_request_returns_a_request_or_a_framing_error(raw):
    try:
        request = _read(raw)
    except (BadRequest, asyncio.IncompleteReadError):
        return
    assert request is None or isinstance(request, HTTPRequest)
