"""Answers stay encoded: the ``AnswerSet`` view (DESIGN.md §17).

An engine returns its distinct code rows plus the dictionary snapshot
that decodes them.  The view must be indistinguishable from the
``frozenset`` of term tuples it stands for — length, iteration,
membership, equality both ways, hash, set algebra, and the service's
rendering — which the hypothesis property checks against the per-row
reference decode.  The rest pins what the view relies on and what it
must not change: every engine returns duplicate-free rows (``len`` no
longer deduplicates), ``/query`` returns the same rows and bytes as
before, and its JSON body is encoded on a worker thread.
"""

from __future__ import annotations

import http.client
import json
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracle import make_answerer
from repro.answering import STRATEGIES
from repro.cache import QueryCache
from repro.datasets import dblp_query, dblp_workload, lubm_query, lubm_workload
from repro.engine import (
    NATIVE_HASH,
    NATIVE_MERGE,
    EngineFailure,
    NativeEngine,
    SQLiteEngine,
)
from repro.engine.evaluator import AnswerSet
from repro.optimizer import SearchInfeasible
from repro.query import UCQ, BGPQuery, evaluate, to_sparql
from repro.rdf import BlankNode, Literal, RDF_TYPE, Triple, URI, Variable
from repro.reformulation import ReformulationLimitExceeded
from repro.service import QueryService, ServiceConfig, TenantRegistry
from repro.service import http as service_http
from repro.service import server as service_server
from repro.service.tenants import Tenant, TenantQuota
from repro.storage import Dictionary
from repro.telemetry import MetricsRegistry
from service_utils import render_rows
from test_storage import _reference_decode

#: Lexical forms that stress the service's tab-joined rendering: tab,
#: quote, newline, non-ASCII, empty.
_AWKWARD = ("plain", "tab\there", 'quote"d', "new\nline", "Zoë", "東京", "")


def _dictionary(size: int) -> Dictionary:
    d = Dictionary()
    kinds = (
        lambda i: URI(f"http://v/{_AWKWARD[i % len(_AWKWARD)]}/{i}"),
        lambda i: Literal(f"{_AWKWARD[i % len(_AWKWARD)]}{i}"),
        lambda i: BlankNode(f"b{i}"),
    )
    for i in range(size):
        d.encode(kinds[i % 3](i))
    return d


def _distinct_codes(rng, size: int, n: int, k: int) -> np.ndarray:
    """Up to ``n`` distinct rows of ``k`` codes below ``size``."""
    if k == 0:
        return np.empty((min(n, 1), 0), dtype=np.int64)
    codes = rng.integers(0, size, size=(n, k)).astype(np.int64)
    return np.unique(codes, axis=0).reshape(-1, k)


def _render(rows) -> list:
    return sorted("\t".join(str(term) for term in row) for row in rows)


class TestViewMatchesReferenceDecode:
    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(min_value=1, max_value=60),
        n=st.integers(min_value=0, max_value=30),
        k=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(size=1, n=0, k=0, seed=0)  # Boolean false: the empty set
    @example(size=1, n=1, k=0, seed=0)  # Boolean true: {()}
    @example(size=20, n=0, k=3, seed=0)
    @example(size=60, n=30, k=2, seed=7)
    def test_view_is_the_decoded_set(self, size, n, k, seed):
        d = _dictionary(size)
        rng = np.random.default_rng(seed)
        codes = _distinct_codes(rng, size, n, k)
        view = AnswerSet(codes, d.snapshot)
        reference = _reference_decode(d, codes)

        assert len(view) == len(reference)
        assert set(iter(view)) == reference
        assert view.rendered() == _render(reference)
        absent = (URI("http://v/absent"),) * (k or 1)
        for row in reference:
            assert row in view
        assert absent not in view
        assert "not a row" not in view

        # Equality both ways, against a frozenset and a plain set.
        assert view == reference and reference == view
        assert (view != reference) is False and (reference != view) is False
        assert view == set(reference) and set(reference) == view
        assert hash(view) == hash(reference)
        other = reference - {next(iter(reference))} if reference else {(URI("x"),) * k}
        assert view != other and other != view

        # Set algebra against the reference's algebra.
        probe = frozenset(list(reference)[: len(reference) // 2]) | {absent}
        assert view & probe == reference & probe
        assert view | probe == reference | probe
        assert view - probe == reference - probe
        assert probe - view == probe - reference

        # The same rows over a renumbered dictionary: compared by terms.
        leading = [term for _, term in d.items()][::-1][: size // 2]
        remapped = d.remapped(leading)
        recode = np.array([remapped.lookup(term) for _, term in d.items()], dtype=np.int64)
        moved = AnswerSet(recode[codes], remapped.snapshot)
        assert moved == view and view == moved
        assert (moved != view) is False
        assert hash(moved) == hash(view)

    @settings(max_examples=150, deadline=None)
    @given(
        size=st.integers(min_value=2, max_value=60),
        n=st.integers(min_value=1, max_value=30),
        k=st.integers(min_value=1, max_value=4),
        shift=st.integers(min_value=1, max_value=59),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @example(size=8, n=2, k=2, shift=5, seed=0)
    def test_same_snapshot_equality_is_set_equality(self, size, n, k, shift, seed):
        """Two views on one snapshot compare by code rows: in any row
        order, and never equal to a copy whose codes are all shifted
        (which has the same per-column spans, so keys packed per view
        would collide)."""
        d = _dictionary(size)
        rng = np.random.default_rng(seed)
        codes = _distinct_codes(rng, size, n, k)
        view = AnswerSet(codes, d.snapshot)
        shuffled = AnswerSet(codes[rng.permutation(len(codes))], d.snapshot)
        assert view == shuffled and shuffled == view
        assert hash(view) == hash(shuffled)

        shifted_codes = (codes + shift) % size
        shifted = AnswerSet(np.unique(shifted_codes, axis=0), d.snapshot)
        expected = _reference_decode(d, codes) == _reference_decode(d, shifted_codes)
        assert (view == shifted) is expected
        assert (shifted == view) is expected
        assert (view != shifted) is not expected

        subset = AnswerSet(codes[1:], d.snapshot)
        assert view != subset and subset != view

    def test_rows_are_read_only(self):
        d = _dictionary(4)
        codes = np.array([[0, 1], [2, 3]], dtype=np.int64)
        view = AnswerSet(codes, d.snapshot)
        with pytest.raises(ValueError):
            view.codes[0, 0] = 3
        codes[0, 0] = 1  # the caller's array is not frozen by the view
        assert view.codes[0, 0] == 1

    def test_views_of_different_arity_are_equal_only_when_empty(self):
        d = _dictionary(4)
        empty2 = AnswerSet(np.empty((0, 2), dtype=np.int64), d.snapshot)
        empty3 = AnswerSet(np.empty((0, 3), dtype=np.int64), d.snapshot)
        assert empty2 == empty3 == frozenset()
        one = AnswerSet(np.array([[0]], dtype=np.int64), d.snapshot)
        two = AnswerSet(np.array([[0, 0]], dtype=np.int64), d.snapshot)
        assert one != two

    def test_a_view_is_not_equal_to_a_non_set(self):
        view = AnswerSet(np.array([[0]], dtype=np.int64), _dictionary(1).snapshot)
        assert view != [(URI("http://v/plain/0"),)]
        assert view != 1


class TestStringTable:
    def test_table_grows_only_as_far_as_asked(self):
        d = _dictionary(30)
        view = AnswerSet(np.array([[3], [7]], dtype=np.int64), d.snapshot)
        assert view.rendered() == sorted([str(d.decode(3)), str(d.decode(7))])
        assert len(d.snapshot.text_of) == 8
        assert d.snapshot.text_of == [str(d.decode(c)) for c in range(8)]

    def test_a_remapped_dictionary_has_its_own_table(self):
        d = _dictionary(10)
        AnswerSet(np.array([[9]], dtype=np.int64), d.snapshot).rendered()
        remapped = d.remapped([d.decode(9)])
        assert remapped.snapshot.text_of == []
        view = AnswerSet(np.array([[0]], dtype=np.int64), remapped.snapshot)
        assert view.rendered() == [str(d.decode(9))]

    def test_a_code_allocated_after_a_render_is_covered_later(self):
        """Reads allocate codes (head constants of empty-body conjuncts),
        so the table grows again for a view over a newer code."""
        d = _dictionary(3)
        d.snapshot.texts(3)
        term = Literal("later\tone")
        view = AnswerSet(np.array([[d.encode(term), 0]], dtype=np.int64), d.snapshot)
        assert view.rendered() == [f"{term}\t{d.decode(0)}"]
        assert len(d.snapshot.text_of) == 4


# ----------------------------------------------------------------------
# Distinct rows are an engine contract
# ----------------------------------------------------------------------
#: DBLP Q10 is left out as in the e2e benchmark: its exhaustive cover
#: search alone runs ~45 s before it is declared infeasible.
_WORKLOADS = {
    "lubm": [entry.name for entry in lubm_workload()],
    "dblp": [entry.name for entry in dblp_workload() if entry.name != "Q10"],
}
_ENGINES = {
    "native-hash": lambda db: NativeEngine(db, NATIVE_HASH),
    "native-merge": lambda db: NativeEngine(db, NATIVE_MERGE),
    "sqlite": SQLiteEngine,
}


def _query(dataset: str, name: str) -> BGPQuery:
    return lubm_query(name) if dataset == "lubm" else dblp_query(name)


@pytest.fixture(scope="module")
def stores(lubm_db, dblp_db):
    return {"lubm": lubm_db, "dblp": dblp_db}


@pytest.fixture(scope="module")
def oracle_answers(stores):
    """The naive evaluator over each saturated store, memoized."""
    graphs = {name: db.saturated().facts_graph() for name, db in stores.items()}
    memo = {}

    def answers(dataset: str, name: str) -> frozenset:
        key = (dataset, name)
        if key not in memo:
            memo[key] = evaluate(_query(dataset, name), graphs[dataset])
        return memo[key]

    return answers


def _assert_distinct(view: AnswerSet, label: str) -> None:
    codes = view.codes
    if codes.shape[1] == 0:
        assert codes.shape[0] <= 1, f"{label}: {codes.shape[0]} Boolean marker rows"
    else:
        assert len(np.unique(codes, axis=0)) == len(codes), f"{label}: duplicate rows"


class TestEnginesReturnDistinctRows:
    @pytest.mark.parametrize("dataset", sorted(_WORKLOADS))
    def test_every_strategy_and_engine_over_the_workload(
        self, stores, oracle_answers, dataset
    ):
        """The three engines share one plan cache, so each (query,
        strategy) is planned once and evaluated three times."""
        database = stores[dataset]
        cache = QueryCache()
        for engine_name, build in sorted(_ENGINES.items()):
            engine = build(database)
            answerer = make_answerer(database, engine=engine, cache=cache)
            ran = 0
            try:
                for name in _WORKLOADS[dataset]:
                    query = _query(dataset, name)
                    expected = oracle_answers(dataset, name)
                    for strategy in STRATEGIES:
                        label = f"{dataset}/{name}/{strategy}/{engine_name}"
                        try:
                            report = answerer.answer(query, strategy=strategy)
                        except (ReformulationLimitExceeded, SearchInfeasible, EngineFailure):
                            continue
                        ran += 1
                        _assert_distinct(report.answers, label)
                        assert len(report.answers) == len(expected), label
                        assert report.answer_count == len(expected), label
            finally:
                answerer.close()
                if engine_name == "sqlite":
                    engine.close()
            assert ran >= len(_WORKLOADS[dataset]) * 3, engine_name

    @pytest.mark.parametrize("engine_name", sorted(_ENGINES))
    def test_boolean_answers_are_one_row(self, lubm_db, engine_name):
        engine = _ENGINES[engine_name](lubm_db)
        x = Variable("x")
        professor = URI("http://swat.cse.lehigh.edu/onto/univ-bench.owl#FullProfessor")
        student = URI("http://swat.cse.lehigh.edu/onto/univ-bench.owl#GraduateStudent")
        nobody = URI("http://swat.cse.lehigh.edu/onto/univ-bench.owl#NoSuchClass")
        cq = BGPQuery([], [Triple(x, RDF_TYPE, professor)])
        union = UCQ([cq, BGPQuery([], [Triple(x, RDF_TYPE, student)])])
        empty = BGPQuery([], [Triple(x, RDF_TYPE, nobody)])
        try:
            for query in (cq, union):
                answers = engine.evaluate(query)
                assert answers.codes.shape == (1, 0)
                assert len(answers) == 1 and answers == {()}
                assert answers.rendered() == [""]
            answers = engine.evaluate(empty)
            assert answers.codes.shape == (0, 0) and len(answers) == 0
            assert answers == frozenset() and answers.rendered() == []
        finally:
            if engine_name == "sqlite":
                engine.close()


# ----------------------------------------------------------------------
# The wire: same rows, same bytes, encoded off the event loop
# ----------------------------------------------------------------------
#: The ``serve_closed`` benchmark's twelve queries.
_SERVE = [("lubm", q) for q in ("Q01", "Q03", "Q04", "Q05", "Q10", "Q11", "Q14")] + [
    ("dblp", q) for q in ("Q01", "Q02", "Q04", "Q05", "Q07")
]


@pytest.fixture(scope="module")
def service(stores):
    tenants = TenantRegistry()
    tenants.add(Tenant("metered", quota=TenantQuota(rows_per_second=1e9)))
    service = QueryService(
        {name: make_answerer(db, cache=QueryCache()) for name, db in stores.items()},
        tenants=tenants,
        config=ServiceConfig(workers=2),
        registry=MetricsRegistry(),
    ).start()
    try:
        yield service
    finally:
        service.stop()


def _post(service, dataset: str, name: str):
    """One ``/query`` as raw bytes, over a fresh connection."""
    host, port = service.address
    body = json.dumps({"query": to_sparql(_query(dataset, name)), "dataset": dataset})
    connection = http.client.HTTPConnection(host, port, timeout=60)
    try:
        connection.request(
            "POST", "/query", body=body,
            headers={"Content-Type": "application/json", "X-Api-Key": "metered"},
        )
        response = connection.getresponse()
        return response.status, response.read()
    finally:
        connection.close()


class TestWireOutput:
    def test_rows_are_the_old_rendering_of_the_oracle(self, service, oracle_answers):
        tenant = service.tenants.resolve("metered")
        charged = tenant.rows_returned
        total = 0
        for dataset, name in _SERVE:
            status, raw = _post(service, dataset, name)
            assert status == 200, raw
            payload = json.loads(raw)
            expected = oracle_answers(dataset, name)
            assert payload["rows"] == render_rows(expected), f"{dataset}/{name}"
            assert payload["answer_count"] == len(payload["rows"]) == len(expected)
            total += len(expected)
        # The rows-quota charge is the answer count, as before.
        assert tenant.rows_returned - charged == total

    def test_body_is_encoded_on_a_worker(self, service, monkeypatch):
        encoded = []
        original = service_http.json_body

        def recording(payload):
            result = original(payload)
            encoded.append((threading.current_thread().name, payload, result[0]))
            return result

        monkeypatch.setattr(service_server, "json_body", recording)
        status, raw = _post(service, "lubm", "Q14")
        assert status == 200
        assert len(encoded) == 1
        thread, payload, body = encoded[0]
        assert thread.startswith("repro-worker")
        assert raw == body == original(payload)[0]
        assert json.loads(raw)["rows"] == payload["rows"]

    def test_error_bodies_are_encoded_on_a_worker_too(self, service, monkeypatch):
        threads = []
        original = service_http.json_body

        def recording(payload):
            threads.append(threading.current_thread().name)
            return original(payload)

        monkeypatch.setattr(service_server, "json_body", recording)
        host, port = service.address
        connection = http.client.HTTPConnection(host, port, timeout=60)
        try:
            connection.request(
                "POST", "/query", body=json.dumps({"query": "SELECT ?x WHERE {"}),
                headers={"Content-Type": "application/json", "X-Api-Key": "metered"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400 and payload["code"] == "bad_query"
        assert len(threads) == 1 and threads[0].startswith("repro-worker")
