"""GCov — the greedy, anytime query cover algorithm (paper Algorithm 1).

GCov starts from the all-singletons cover ``C0 = {{t1}, ..., {tn}}``
and explores *moves*: adding to one fragment an extra triple connected
to it by a join variable.  A move may pay off by (i) making a fragment
more selective and/or (ii) rendering other fragments redundant, which
shrinks the cover.  Moves are kept in a list sorted by the estimated
cost of the cover they produce; the best cover seen so far is tracked
and returned.

Faithful to Algorithm 1:

* line 1-3  — seed with C0, empty ``moves``/``analysed``;
* line 4-7  — develop all moves from C0 whose estimated cost is ≤ the
  best cost, into the sorted ``moves`` list;
* line 8-16 — repeatedly apply the most promising move; if it improves
  on the best cover, adopt it; develop its own moves (strictly better
  than the best) into the list;
* redundant fragments are removed after every move, scanning fragments
  from costliest to cheapest (Section 4.3).

The ``analysed`` set is keyed by the resulting cover, so the same cover
reached through different move orders is only ever costed once.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import List, Optional, Set, Tuple

from ..engine.budget import UNLIMITED, ExecutionBudget
from ..query.bgp import BGPQuery
from ..reformulation.covers import Cover, Fragment
from ..reformulation.reformulate import Reformulator
from .search import (
    CostFunction,
    CoverScorer,
    CoverSearchResult,
    Stopwatch,
)


def _initial_cover(query: BGPQuery) -> Cover:
    return frozenset(frozenset({i}) for i in range(len(query.body)))


def _apply_move(
    cover: Cover, fragment: Fragment, triple_index: int, fragment_cost
) -> Cover:
    """The cover after growing ``fragment`` with ``triple_index``.

    Removes fragments made redundant, costliest first, re-scanning until
    stable.
    """
    grown = frozenset(fragment | {triple_index})
    fragments = [f for f in cover if f != fragment]
    fragments.append(grown)
    # Drop fragments that became subsets of the grown fragment, then
    # sweep for redundancy (fragment ⊆ union of the others), costliest
    # first, until stable.  The grown fragment itself is kept: it is the
    # point of the move.
    fragments = [f for f in fragments if f == grown or not f <= grown]
    changed = True
    while changed:
        changed = False
        ordered = sorted(
            (f for f in fragments if f != grown),
            key=fragment_cost,
            reverse=True,
        )
        for candidate in ordered:
            union_of_others: Set[int] = set()
            for other in fragments:
                if other != candidate:
                    union_of_others |= other
            if candidate <= union_of_others:
                fragments.remove(candidate)
                changed = True
                break
    return frozenset(fragments)


def _candidate_moves(query: BGPQuery, cover: Cover) -> List[Tuple[Fragment, int]]:
    """All (fragment, triple) growth moves allowed by the join graph."""
    adjacency = query.join_graph()
    moves: List[Tuple[Fragment, int]] = []
    for fragment in cover:
        reachable: Set[int] = set()
        for index in fragment:
            reachable |= adjacency[index]
        for triple_index in sorted(reachable - fragment):
            moves.append((fragment, triple_index))
    return moves


def gcov(
    query: BGPQuery,
    reformulator: Reformulator,
    cost_function: CostFunction,
    max_moves: Optional[int] = None,
    stop_ratio: Optional[float] = None,
    trace: Optional[list] = None,
    budget: ExecutionBudget = UNLIMITED,
) -> CoverSearchResult:
    """Greedy anytime search for a low-cost cover (Algorithm 1).

    ``max_moves`` / ``budget`` / ``stop_ratio`` implement the paper's
    remark that "one could easily change the stop condition, for
    instance to return the best found cover as soon as its cost has
    diminished by a certain ratio, or after a time-out period has
    elapsed"; when any of them trips, the best cover found so far is
    returned (anytime behaviour).  ``stop_ratio=0.1`` stops once the
    best cost is ≤ 10% of the initial (SCQ-shaped) cover's cost.  The
    time-out is ``budget``'s deadline, the answer-wide one — GCov is
    the anytime rung of the fallback ladder, so running out of clock
    degrades the cover choice, never the answer.

    Pass a list as ``trace`` to receive the ``(cover, cost)`` pairs in
    the order they were costed — the exploration the paper's Figure 7
    counts.
    """
    budget = budget.start()
    watch = Stopwatch()
    scorer = CoverScorer(query, reformulator, cost_function)

    # Order the redundancy sweep by fragment size (a cheap, stable proxy
    # for per-fragment cost: larger fragments reformulate bigger).
    def sweep_key(fragment: Fragment) -> Tuple[int, Tuple[int, ...]]:
        return (len(fragment), tuple(sorted(fragment)))

    current = _initial_cover(query)
    best_cover = current
    best_cost = scorer.cost(current)
    initial_cost = best_cost
    analysed: Set[Cover] = {current}
    moves: List[Tuple[float, int, Cover]] = []
    tie_breaker = count()
    if trace is not None:
        trace.append((current, best_cost))

    def develop(cover: Cover, threshold: float, strict: bool) -> None:
        for fragment, triple_index in _candidate_moves(query, cover):
            produced = _apply_move(cover, fragment, triple_index, sweep_key)
            if produced in analysed:
                continue
            analysed.add(produced)
            cost = scorer.cost(produced)
            if trace is not None:
                trace.append((produced, cost))
            accept = cost < threshold if strict else cost <= threshold
            if accept:
                heapq.heappush(moves, (cost, next(tie_breaker), produced))

    develop(current, best_cost, strict=False)
    applied = 0
    while moves:
        if max_moves is not None and applied >= max_moves:
            break
        if budget.expired:
            break
        if (
            stop_ratio is not None
            and initial_cost > 0
            and best_cost <= stop_ratio * initial_cost
        ):
            break
        cost, _, cover = heapq.heappop(moves)
        applied += 1
        if cost <= best_cost:
            best_cost = cost
            best_cover = cover
        develop(cover, best_cost, strict=True)
    return CoverSearchResult(
        query=query,
        cover=best_cover,
        jucq=scorer.jucq(best_cover),
        estimated_cost=best_cost,
        covers_explored=scorer.covers_explored,
        elapsed_s=watch.elapsed(),
        algorithm="gcov",
    )
