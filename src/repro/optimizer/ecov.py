"""ECov — exhaustive query cover search (paper Section 4.2).

Enumerates every minimal connected cover of the query, estimates the
cost of each cover-based JUCQ reformulation, and returns one with the
lowest estimated cost.  The paper uses it as the "golden standard" for
judging GCov's choices.

The cover space grows like the number of minimal set covers (6424 at
six atoms and explosively beyond), so ECov accepts budgets: a cap on
explored covers and the answer's deadline.  Exceeding either raises
:class:`~repro.optimizer.search.SearchInfeasible`, reproducing the
paper's missing ECov bar on the 10-atom DBLP query.
"""

from __future__ import annotations

from typing import Optional

from ..engine.budget import UNLIMITED, ExecutionBudget
from ..query.bgp import BGPQuery
from ..reformulation.covers import enumerate_covers
from ..reformulation.reformulate import Reformulator
from .search import (
    CostFunction,
    CoverScorer,
    CoverSearchResult,
    SearchInfeasible,
    Stopwatch,
)


def ecov(
    query: BGPQuery,
    reformulator: Reformulator,
    cost_function: CostFunction,
    max_covers: Optional[int] = 100_000,
    trace: Optional[list] = None,
    budget: ExecutionBudget = UNLIMITED,
) -> CoverSearchResult:
    """Exhaustive search for the cheapest cover-based reformulation.

    Pass a list as ``trace`` to receive ``(cover, cost)`` pairs in
    enumeration order (same contract as :func:`repro.optimizer.gcov`'s
    trace), from which telemetry derives the best-cost trajectory.
    ``budget``'s deadline is the shared answer-wide one; unlike GCov,
    an exhausted ECov clock is :class:`SearchInfeasible` (the
    exhaustive search cannot vouch for a partial scan).
    """
    budget = budget.start()
    scorer = CoverScorer(query, reformulator, cost_function)
    watch = Stopwatch()
    best_cover = None
    best_cost = float("inf")
    for cover in enumerate_covers(query):
        if max_covers is not None and scorer.covers_explored >= max_covers:
            raise SearchInfeasible(
                f"ECov exceeded its budget of {max_covers} covers on "
                f"{len(query.body)}-atom query {query.name}"
            )
        if budget.expired:
            raise SearchInfeasible(
                f"ECov ran out of its {budget.timeout_s}s budget on query "
                f"{query.name} ({scorer.covers_explored} covers explored)"
            )
        cost = scorer.cost(cover)
        if trace is not None:
            trace.append((cover, cost))
        if cost < best_cost:
            best_cost = cost
            best_cover = cover
    if best_cover is None:
        raise SearchInfeasible(f"query {query.name} admits no valid cover")
    return CoverSearchResult(
        query=query,
        cover=best_cover,
        jucq=scorer.jucq(best_cover),
        estimated_cost=best_cost,
        covers_explored=scorer.covers_explored,
        elapsed_s=watch.elapsed(),
        algorithm="ecov",
    )
