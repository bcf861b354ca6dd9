"""Every plan is a JUCQ: one query form below each entry point.

``as_jucq`` is the only place that tells a CQ, a UCQ and a JUCQ apart;
the engines, the SQL compiler and the cost models read the JUCQ, and a
JUCQ that is its lone union (one operand answering the JUCQ's own head)
runs, compiles and prices as that union.  These tests pin that the
single form changes nothing for CQ and UCQ inputs, and that a
one-operand JUCQ whose head differs from its operand's is answered
correctly by both engines.
"""

import numpy as np
import pytest

from repro.answering import STRATEGIES, QueryAnswerer
from repro.cost import CostModel
from repro.cost.calibration import _features
from repro.datasets import lubm_workload
from repro.engine import NativeEngine, SQLiteEngine, to_sql
from repro.engine.sql import cq_to_sql, ucq_to_sql
from repro.query import BGPQuery, JUCQ, UCQ, as_jucq, evaluate
from repro.rdf import Triple, URI, Variable
from repro.storage import RDFDatabase
from repro.telemetry import MetricsRecorder

x, y = Variable("x"), Variable("y")


def u(name):
    return URI(f"http://one/{name}")


def _positional(arity):
    return [f"c{i}" for i in range(arity)]


@pytest.fixture(scope="module")
def small_db():
    facts = []
    for i in range(12):
        facts.append(Triple(u(f"s{i}"), u("p"), u(f"o{i % 4}")))
        if i % 3 == 0:
            facts.append(Triple(u(f"s{i}"), u("q"), u(f"o{i % 2}")))
    database = RDFDatabase()
    database.load_facts(facts)
    return database


@pytest.fixture(scope="module")
def union():
    """A two-term union over head (x, y)."""
    return UCQ(
        [
            BGPQuery([x, y], [Triple(x, u("p"), y)]),
            BGPQuery([x, y], [Triple(x, u("q"), y)]),
        ]
    )


@pytest.fixture(scope="module")
def answerer(lubm_db):
    """One answerer for the module: its reformulator memo is shared."""
    return QueryAnswerer(lubm_db)


# ----------------------------------------------------------------------
# (a) every strategy plans a JUCQ
# ----------------------------------------------------------------------
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_every_strategy_plans_a_jucq(answerer, strategy):
    for entry in lubm_workload():
        if strategy == "ecov" and entry.name == "Q28":
            # Its exhaustive search alone takes ~15 s at one university;
            # its plan is the search result's JUCQ, as gcov's is.
            continue
        planned, _ = answerer.plan(entry.query, strategy)
        assert isinstance(planned, JUCQ), (entry.name, strategy)
        if strategy == "saturation":  # the query as written, one term
            assert planned is as_jucq(entry.query)


# ----------------------------------------------------------------------
# (b) CQ and UCQ inputs: same SQL text, same estimate, same cost
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def inputs(answerer):
    """The LUBM queries as CQs, and the first ten's reformulations."""
    queries = [entry.query for entry in lubm_workload()]
    unions = [answerer.reformulator.reformulate(query) for query in queries[:10]]
    return queries, unions


def test_sql_text_unchanged_for_cq_and_ucq(lubm_db, inputs):
    dictionary = lubm_db.dictionary
    queries, unions = inputs
    for cq in queries:
        expected = cq_to_sql(cq, dictionary, _positional(cq.arity))
        assert to_sql(cq, dictionary) == expected
    for ucq in unions:
        expected = ucq_to_sql(ucq, dictionary, _positional(ucq.arity))
        assert to_sql(ucq, dictionary) == expected


def test_estimate_bit_identical_for_cq_and_ucq(lubm_db, inputs):
    estimator = CostModel(lubm_db).estimator
    queries, unions = inputs
    for cq in queries:
        assert estimator.estimate(cq).hex() == estimator.cq_cardinality(cq).hex()
    for ucq in unions:
        assert estimator.estimate(ucq).hex() == estimator.ucq_cardinality(ucq).hex()


def test_cost_unchanged_for_cq_and_ucq(lubm_db, inputs):
    model = CostModel(lubm_db)
    k, estimator = model.constants, model.estimator
    queries, unions = inputs
    for cq in queries:
        # A bare CQ priced as its own one-term operand: (i) + (ii) + (iii).
        scan = sum(estimator.atom_count(atom) for atom in cq.body)
        expected = k.c_db + (
            (k.c_t + k.c_j) * scan + model.unique_cost(estimator.cq_cardinality(cq))
        )
        assert model.cost(cq) == pytest.approx(expected, rel=1e-12)
    for ucq in unions:
        expected = k.c_db + model.ucq_eval_cost(ucq)
        assert model.cost(ucq) == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------------------
# (c) calibration features of a one-operand probe
# ----------------------------------------------------------------------
def test_features_of_one_operand_have_no_join_columns(small_db, union):
    estimator = CostModel(small_db).estimator
    scan = estimator.ucq_scan_size(union)
    size = estimator.ucq_cardinality(union)
    expected = np.array([1.0, scan, 0.0, size])
    assert np.array_equal(_features(union, estimator), expected)
    assert np.array_equal(_features(as_jucq(union), estimator), expected)
    joined = JUCQ([x], [union, UCQ([BGPQuery([x], [Triple(x, u("q"), y)])])])
    assert _features(joined, estimator)[2] > 0


# ----------------------------------------------------------------------
# (d) one operand under a head of its own: both engines, naive answers
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "head",
    [(x, y, x), (x, u("k")), (y,)],
    ids=["repeated-variable", "constant", "projection"],
)
def test_one_operand_under_another_head(small_db, union, head):
    jucq = JUCQ(head, [union])
    assert jucq.lone_union() is None
    expected = evaluate(jucq, small_db.facts_graph())
    assert expected
    assert NativeEngine(small_db).evaluate(jucq) == expected
    with SQLiteEngine(small_db) as sqlite:
        assert sqlite.evaluate(jucq) == expected


# ----------------------------------------------------------------------
# (e) a lone union runs one dedup
# ----------------------------------------------------------------------
def test_lone_union_runs_one_dedup(small_db, union):
    engine = NativeEngine(small_db)
    for query in (union.cqs[0], union, as_jucq(union)):
        metrics = MetricsRecorder()
        engine.evaluate(query, metrics=metrics)
        assert metrics.counters["dedup.count"] == 1
        assert metrics.counters["jucq.operands"] == 1
    metrics = MetricsRecorder()
    engine.evaluate(JUCQ([y], [union]), metrics=metrics)
    assert metrics.counters["dedup.count"] == 2  # the projection dedups again
