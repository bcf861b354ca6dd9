"""Tests for ECov (exhaustive) and GCov (greedy, Algorithm 1)."""

import pytest

from repro.cost import CostModel
from repro.datasets import lubm_query, motivating_q1, motivating_q2
from repro.engine import ExecutionBudget
from repro.optimizer import SearchInfeasible, ecov, gcov
from repro.query import BGPQuery
from repro.rdf import Triple, URI, Variable
from repro.reformulation import (
    Reformulator,
    enumerate_covers,
    jucq_for_cover,
    scq_cover,
    validate_cover,
)

x, y = Variable("x"), Variable("y")


@pytest.fixture(scope="module")
def setting(lubm_db3):
    return (
        lubm_db3,
        Reformulator(lubm_db3.schema),
        CostModel(lubm_db3),
    )


class TestECov:
    def test_matches_brute_force(self, setting):
        db, reformulator, model = setting
        query = motivating_q1().query
        result = ecov(query, reformulator, model.cost)
        brute = min(
            model.cost(jucq_for_cover(query, cover, reformulator))
            for cover in enumerate_covers(query)
        )
        assert result.estimated_cost == pytest.approx(brute)

    def test_explores_whole_space(self, setting):
        db, reformulator, model = setting
        query = motivating_q1().query
        result = ecov(query, reformulator, model.cost)
        total = sum(1 for _ in enumerate_covers(query))
        assert result.covers_explored == total

    def test_returns_valid_cover(self, setting):
        db, reformulator, model = setting
        query = lubm_query("Q08")
        result = ecov(query, reformulator, model.cost)
        validate_cover(query, result.cover)

    def test_budget_infeasible(self, setting):
        db, reformulator, model = setting
        query = motivating_q2().query  # 6 atoms: thousands of covers
        with pytest.raises(SearchInfeasible):
            ecov(query, reformulator, model.cost, max_covers=10)

    def test_timeout_infeasible(self, setting):
        db, reformulator, model = setting
        query = motivating_q2().query
        with pytest.raises(SearchInfeasible):
            ecov(query, reformulator, model.cost, budget=ExecutionBudget(timeout_s=0.0))


class TestGCov:
    def test_no_worse_than_initial_cover(self, setting):
        db, reformulator, model = setting
        for name in ("q1", "q2", "Q08", "Q26"):
            query = lubm_query(name)
            result = gcov(query, reformulator, model.cost)
            initial = jucq_for_cover(query, scq_cover(query), reformulator)
            assert result.estimated_cost <= model.cost(initial) + 1e-12

    def test_returns_valid_cover(self, setting):
        db, reformulator, model = setting
        for name in ("q1", "q2", "Q02", "Q27"):
            query = lubm_query(name)
            result = gcov(query, reformulator, model.cost)
            validate_cover(query, result.cover)

    def test_explores_fewer_covers_than_ecov(self, setting):
        db, reformulator, model = setting
        query = motivating_q2().query
        greedy = gcov(query, reformulator, model.cost)
        total_space = sum(1 for _ in enumerate_covers(query))
        assert greedy.covers_explored < total_space

    def test_close_to_ecov_on_small_queries(self, setting):
        """The paper: 'the GCov JUCQ performs as well as the ECov one'."""
        db, reformulator, model = setting
        for name in ("q1", "Q07", "Q12", "Q26"):
            query = lubm_query(name)
            greedy = gcov(query, reformulator, model.cost)
            exhaustive = ecov(query, reformulator, model.cost)
            assert greedy.estimated_cost <= exhaustive.estimated_cost * 3 + 1e-9

    def test_single_atom_query(self, setting):
        db, reformulator, model = setting
        query = lubm_query("Q14")
        result = gcov(query, reformulator, model.cost)
        assert result.cover == frozenset({frozenset({0})})

    def test_anytime_budget(self, setting):
        db, reformulator, model = setting
        query = motivating_q2().query
        result = gcov(query, reformulator, model.cost, max_moves=1)
        validate_cover(query, result.cover)

    def test_jucq_answers_are_correct(self, setting, lubm_db3):
        from repro.engine import NativeEngine

        db, reformulator, model = setting
        engine = NativeEngine(lubm_db3)
        query = motivating_q1().query
        result = gcov(query, reformulator, model.cost)
        expected = engine.evaluate(reformulator.reformulate(query))
        assert engine.evaluate(result.jucq) == expected


class TestMoveMechanics:
    def test_redundant_fragment_removed(self):
        """Paper example: adding t4 to {t1,t2} in {{t1,t2},{t1,t3},{t3,t4}}
        makes {t3,t4} redundant."""
        from repro.optimizer.gcov import _apply_move

        def key(f):
            return (len(f), tuple(sorted(f)))

        u_ = lambda s: URI(f"http://mv/{s}")
        a, b, c, d = (Variable(s) for s in "abcd")
        query = BGPQuery(
            [a],
            [
                Triple(a, u_("p1"), b),
                Triple(a, u_("p2"), c),
                Triple(a, u_("p3"), d),
                Triple(a, u_("p4"), b),
            ],
        )
        cover = frozenset(
            {frozenset({0, 1}), frozenset({0, 2}), frozenset({2, 3})}
        )
        moved = _apply_move(query, cover, frozenset({0, 1}), 3, key)
        assert moved == frozenset({frozenset({0, 1, 3}), frozenset({0, 2})})


class TestFragmentReuse:
    def test_a_search_builds_each_exported_fragment_once(self, lubm_db3):
        """A move changes one fragment: the others keep their cover query.

        The scorer builds one cover query per distinct (fragment,
        exported head), not one per operand of every cover; the
        reformulator is still asked every time (its memo, and its hit
        counters, see every request), and a repeated fragment is the
        *same* ``UCQ`` in every cover's JUCQ — which is what the
        estimator's identity-keyed summaries rely on.
        """
        from repro.optimizer.search import CoverScorer
        from repro.reformulation.covers import exported_heads

        asked = []

        class Spy(Reformulator):
            def reformulate(self, query):
                asked.append(query)
                return super().reformulate(query)

        query = lubm_query("Q04")
        scorer = CoverScorer(query, Spy(lubm_db3.schema), CostModel(lubm_db3).cost)
        operands = {}
        total = 0
        for cover in enumerate_covers(query):
            jucq = scorer.jucq(cover)
            for key, operand in zip(exported_heads(query, cover), jucq):
                assert operands.setdefault(key, operand) is operand
                total += 1
        assert len(asked) == total > len(operands)
        assert len({id(cover_query) for cover_query in asked}) == len(operands)
