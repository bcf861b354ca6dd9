"""The parse memo: one immutable query per repeated ``(text, name)``.

``parse_query`` fills through a bounded process-wide LRU; every caller
of the same text gets the same :class:`BGPQuery`, so what the object
memoizes (canonical form, fingerprint, template partition) is paid
once per distinct text.  Each test parses texts no other test sends,
so the shared memo's state from earlier tests cannot decide it.
"""

from itertools import count
from unittest import mock

import pytest

from repro.analysis.lint import lint_text
from repro.answering import QueryAnswerer
from repro.cache import QueryCache
from repro.datasets import lubm_workload
from repro.query import SPARQLSyntaxError, parse_query, to_sparql
from repro.query import algebra, parser
from repro.telemetry import MetricsRegistry

_fresh = count()


def _text() -> str:
    """A query text no earlier call of this module returned."""
    return f"SELECT ?x WHERE {{ ?x <http://memo.test/p{next(_fresh)}> ?y }}"


def _tokenize_calls():
    return mock.patch.object(parser, "_tokenize", side_effect=parser._tokenize)


def test_a_repeated_text_is_tokenized_once():
    text = _text()
    with _tokenize_calls() as tokenize:
        first = parse_query(text, name="once")
        second = parse_query(text, name="once")
    assert second is first
    assert tokenize.call_count == 1


def test_different_names_give_different_objects():
    text = _text()
    mine, yours = parse_query(text, name="mine"), parse_query(text, name="yours")
    assert mine is not yours
    assert (mine.name, yours.name) == ("mine", "yours")
    assert mine == yours  # the name is not part of a query's identity
    assert parse_query(text, name="mine") is mine


def test_a_syntax_error_is_not_stored():
    text = _text().replace("}", "")
    with _tokenize_calls() as tokenize:
        for _ in range(2):
            with pytest.raises(SPARQLSyntaxError):
                parse_query(text)
    assert tokenize.call_count == 2
    assert parser.PARSE_MEMO.peek((text, "q")) is None


def test_a_text_past_the_limit_is_not_stored():
    text = _text() + " " * parser.PARSE_MEMO_MAX_TEXT
    with _tokenize_calls() as tokenize:
        first = parse_query(text)
        second = parse_query(text)
    assert first == second and first is not second
    assert tokenize.call_count == 2
    assert parser.PARSE_MEMO.peek((text, "q")) is None


def test_the_memo_is_bounded():
    assert parser.PARSE_MEMO.capacity == parser.PARSE_MEMO_CAPACITY
    oldest = _text()
    parse_query(oldest)
    evictions = parser.PARSE_MEMO.evictions
    for _ in range(parser.PARSE_MEMO_CAPACITY):
        parse_query(_text())
    assert len(parser.PARSE_MEMO) == parser.PARSE_MEMO_CAPACITY
    assert parser.PARSE_MEMO.evictions > evictions
    assert parser.PARSE_MEMO.peek((oldest, "q")) is None


def test_a_query_cannot_be_renamed():
    query = parse_query(_text())
    with pytest.raises(AttributeError):
        query.name = "other"


def test_lint_does_not_rename_the_shared_query():
    text = _text()
    shared = parse_query(text)
    report = lint_text(text, name="mine")
    assert report.query_name == "mine"
    assert parse_query(text) is shared
    assert shared.name == "q"


def test_ten_saturation_answers_of_one_text_partition_it_once(lubm_db):
    # A churn read: the workload text rendered back to SPARQL, parsed
    # on every read and answered on the saturated store.
    text = to_sparql({e.name: e.query for e in lubm_workload()}["Q05"])
    answerer = QueryAnswerer(lubm_db, cache=QueryCache())
    try:
        with mock.patch.object(
            algebra, "partition_terms", side_effect=algebra.partition_terms
        ) as partition:
            counts = {
                answerer.answer(
                    parse_query(text, name="saturation-reads"), strategy="saturation"
                ).answer_count
                for _ in range(10)
            }
    finally:
        answerer.close()
    assert len(counts) == 1
    assert partition.call_count == 1


def test_the_memo_counters_are_exported(lubm_db):
    registry = MetricsRegistry()
    cache = QueryCache()
    answerer = QueryAnswerer(lubm_db, cache=cache, registry=registry)
    try:
        text = _text()
        hits = parser.PARSE_MEMO.hits
        parse_query(text)
        parse_query(text)
        assert parser.PARSE_MEMO.hits == hits + 1
        assert cache.stats()["parse"]["hits"] == parser.PARSE_MEMO.hits
        assert cache.counters()["cache.parse.misses"] == parser.PARSE_MEMO.misses
        samples = registry.counter_samples()
        for counter in ("hits", "misses", "evictions"):
            assert samples[f"repro.cache.parse.{counter}"] == getattr(
                parser.PARSE_MEMO, counter
            )
        assert 'repro_cache_size{level="parse"}' in registry.render_text()
    finally:
        answerer.close()
