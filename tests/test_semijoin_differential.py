"""Every LUBM query, plus the motivating q1 and q2, under the three
cover strategies on both engines, against saturation (DESIGN.md §18).

The semi-join reduction changes which rows each JUCQ operand builds,
never the answers (Theorem 3.1: a dropped row has no join partner).
One 1-university store, one plan cache for both engines; ``ecov`` ×
{q2, Q28} is left out, because each exhaustive search alone takes
~15 s there.
"""

from __future__ import annotations

import pytest

from repro.answering import QueryAnswerer
from repro.cache import QueryCache
from repro.datasets import lubm_workload, motivating_q1, motivating_q2
from repro.engine import SQLiteEngine

ENTRIES = [motivating_q1(), motivating_q2()] + list(lubm_workload())
STRATEGIES = ("gcov", "scq", "ecov")
SLOW_ECOV = ("q2", "Q28")


@pytest.fixture(scope="module")
def answerers(lubm_db):
    sqlite = SQLiteEngine(lubm_db)
    cache = QueryCache()
    yield {
        "native": QueryAnswerer(lubm_db, cache=cache),
        "sqlite": QueryAnswerer(lubm_db, engine=sqlite, cache=cache),
    }
    sqlite.close()


@pytest.fixture(scope="module")
def expected(answerers):
    native = answerers["native"]
    return {
        entry.name: native.answer(entry.query, strategy="saturation").answers
        for entry in ENTRIES
    }


@pytest.mark.parametrize("engine", ["native", "sqlite"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_query_answers_like_saturation(answerers, expected, engine, strategy):
    answerer = answerers[engine]
    wrong = []
    for entry in ENTRIES:
        if strategy == "ecov" and entry.name in SLOW_ECOV:
            continue
        answers = answerer.answer(entry.query, strategy=strategy).answers
        if answers != expected[entry.name]:
            wrong.append(entry.name)
    assert wrong == []
