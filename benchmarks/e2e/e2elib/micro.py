"""After-run measures of single public calls, on the cells' own inputs.

These are the layers whose work inside an operation is too fine to wrap
in a span per call (an index probe is ~10 us and happens thousands of
times per operation); each is timed here in a loop over the very
patterns, plans, requests and payloads the workload just used.
"""

from __future__ import annotations

import asyncio
from time import perf_counter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.engine import NATIVE_HASH, compile_query, to_sql
from repro.query import JUCQ, UCQ, BGPQuery
from repro.rdf import Variable
from repro.rdf.terms import IdRange
from repro.service.http import json_body, read_request, render_response

#: Upper bound on the distinct inputs one micro-measure loops over.
MAX_INPUTS = 400


def mean_seconds(call: Callable[[Any], Any], inputs: Sequence[Any]) -> float:
    """Mean time of ``call(x)`` over ``inputs`` (0.0 when there are none)."""
    if not inputs:
        return 0.0
    for item in inputs[:20]:
        call(item)
    started = perf_counter()
    for item in inputs:
        call(item)
    return (perf_counter() - started) / len(inputs)


def _conjuncts(planned) -> Iterable[BGPQuery]:
    if isinstance(planned, BGPQuery):
        yield planned
    elif isinstance(planned, UCQ):
        yield from planned
    elif isinstance(planned, JUCQ):
        for operand in planned:
            yield from operand


def atom_patterns(plans: Iterable[Any], dictionary) -> Tuple[List[tuple], List[tuple]]:
    """The distinct encoded index patterns of the plans' atoms.

    Returns ``(match_patterns, range_patterns)``; a range pattern is
    ``(pattern, position, lo, hi)`` for a LiteMat interval atom.
    """
    plain: Dict[tuple, None] = {}
    ranged: Dict[tuple, None] = {}
    for planned in plans:
        for conjunct in _conjuncts(planned):
            for atom in conjunct.body:
                pattern: List[Optional[int]] = []
                interval = None
                for position, term in enumerate(atom):
                    if isinstance(term, Variable):
                        pattern.append(None)
                    elif isinstance(term, IdRange):
                        pattern.append(None)
                        interval = (position, term.lo, term.hi)
                    else:
                        code = dictionary.lookup(term)
                        if code is None:
                            break
                        pattern.append(code)
                else:
                    if interval is None:
                        plain[tuple(pattern)] = None
                    else:
                        ranged[(tuple(pattern),) + interval] = None
    return list(plain)[:MAX_INPUTS], list(ranged)[:MAX_INPUTS]


def match_us(table, patterns: Sequence[tuple]) -> float:
    return 1e6 * mean_seconds(table.match, patterns)


def match_range_us(table, patterns: Sequence[tuple]) -> float:
    return 1e6 * mean_seconds(lambda p: table.match_range(*p), patterns)


def plan_lookup_us(cache, database, queries: Sequence[Tuple[Any, str]]) -> float:
    """``QueryCache.get_plan`` on warm keys."""
    return 1e6 * mean_seconds(
        lambda item: cache.get_plan(database, item[0], item[1]), list(queries) * 5
    )


def compile_ms(database, plans: Sequence[Any]) -> float:
    return 1e3 * mean_seconds(
        lambda planned: compile_query(planned, database, NATIVE_HASH), list(plans)
    )


def sql_ms(dictionary, plans: Sequence[Any]) -> float:
    return 1e3 * mean_seconds(lambda planned: to_sql(planned, dictionary), list(plans))


def http_parse_us(requests: Sequence[bytes]) -> float:
    """``service.http.read_request`` on canned bytes via a fed reader."""

    async def parse_all() -> float:
        spent = 0.0
        for raw in list(requests) * 20:
            reader = asyncio.StreamReader()
            reader.feed_data(raw)
            reader.feed_eof()
            started = perf_counter()
            request = await read_request(reader)
            spent += perf_counter() - started
            if request is None or not request.body:
                raise RuntimeError("canned request did not parse")
        return spent / (len(requests) * 20)

    return 1e6 * asyncio.run(parse_all()) if requests else 0.0


def serialize_ms(payloads: Sequence[Dict[str, Any]]) -> float:
    """``json_body`` + ``render_response`` of the cells' own payloads."""

    def serialize(payload: Dict[str, Any]) -> bytes:
        body, content_type = json_body(payload)
        return render_response(200, body, content_type)

    return 1e3 * mean_seconds(serialize, list(payloads) * 5)
